"""The end-to-end smoke script (``tests/smoke.sh``), which CI runs against
the installed package, run here from source: a ``lexdrift`` on PATH that
runs this checkout's ``src``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from lexdrift import bundled_corpus_path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_script_passes_from_source(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "lexdrift"
    shim.write_text(f"#!{sys.executable}\n"
                    "import sys\n"
                    f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
                    "from lexdrift.cli import main_entry\n"
                    "main_entry()\n", encoding="utf-8")
    shim.chmod(0o755)
    # The script runs `python -X importtime` on the command it finds.
    (bin_dir / "python").symlink_to(sys.executable)
    work = tmp_path / "work"
    work.mkdir()
    # The script's own python finds this checkout's lexdrift too.
    python_path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=python_path)
    result = subprocess.run(["bash", str(ROOT / "tests" / "smoke.sh"), str(bundled_corpus_path())],
                            cwd=work, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]

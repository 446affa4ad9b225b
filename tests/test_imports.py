"""The package namespace loads submodules on first use, and each CLI command
imports only the modules it runs. Cold imports are checked in fresh
interpreters, because this test process has long since loaded everything."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lexdrift

SRC = Path(lexdrift.__file__).resolve().parents[1]
INDEX_SIDE = {"lexdrift.index", "lexdrift.query", "lexdrift.corpus", "lexdrift.lexicon"}


def _loaded_after(code: str) -> set[str]:
    """The ``lexdrift`` modules a fresh interpreter holds after *code*."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    probe = code + "\nimport sys\nprint(' '.join(m for m in sys.modules if m.startswith('lexdrift')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


def test_import_package_loads_no_submodule():
    # dir() lists every public name before any of them is loaded.
    assert _loaded_after(
        "import lexdrift\n"
        "assert set(lexdrift.__all__) <= set(dir(lexdrift))"
    ) == {"lexdrift"}


def test_import_cli_loads_no_command_module():
    loaded = _loaded_after("import lexdrift.cli")
    assert loaded.isdisjoint(INDEX_SIDE | {"lexdrift.stats", "lexdrift.svg"}), loaded


def test_fixture_drift_loads_no_index_side_module():
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from lexdrift.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['drift', '--format', 'json']) == 0"
    )
    assert "lexdrift.stats" in loaded
    assert loaded.isdisjoint(INDEX_SIDE | {"lexdrift.svg"}), loaded


def test_every_public_name_resolves():
    for name in lexdrift.__all__:
        assert getattr(lexdrift, name) is not None, name
    star: dict = {}
    exec("from lexdrift import *", star)
    assert set(lexdrift.__all__) <= set(star)
    assert set(lexdrift.__all__) <= set(dir(lexdrift))
    assert lexdrift.parse_query is lexdrift.query.parse_query


def test_each_public_name_is_written_once():
    assert set(lexdrift.__all__) == set(lexdrift._MODULE_OF)
    code = Path(lexdrift.__file__).read_text(encoding="utf-8").replace(lexdrift.__doc__, "")
    words = re.findall(r"\w+", code)
    assert {name: words.count(name) for name in lexdrift.__all__} \
        == dict.fromkeys(lexdrift.__all__, 1)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lexdrift.no_such_name
    with pytest.raises(ImportError):
        exec("from lexdrift import no_such_name", {})

"""The package namespace loads submodules on first use, and each CLI command
imports only the modules it runs; no command imports ``dataclasses`` or
``inspect``, which cost a cold start more than most commands' own work, and
no module imports ``hashlib``, whose OpenSSL library costs more memory than
the rest of a command's imports. The test-side references share no code
with the package they check.
Cold imports are checked in fresh interpreters, because this test process
has long since loaded everything."""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lexdrift

SRC = Path(lexdrift.__file__).resolve().parents[1]
INDEX_SIDE = {"lexdrift.index", "lexdrift.query", "lexdrift.corpus", "lexdrift.lexicon"}
SLOW = {"dataclasses", "inspect", "hashlib", "_hashlib"}
TESTS = Path(__file__).resolve().parent
# What the brute-force oracle in conftest.py may take from the package: the
# record and query-node types it builds and the lexicons it reads; nothing
# that tokenizes, parses, indexes or loads.
ORACLE_NAMES = {"And", "AnyOf", "AtLeastK", "Document", "Lexicon", "Or", "Phrase", "Query",
                "Term", "builtin_lexicon"}


def _modules_after(code: str) -> set[str]:
    """The ``lexdrift`` modules and those of SLOW that a fresh interpreter
    holds after *code*."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    probe = code + ("\nimport sys\nprint(' '.join(m for m in sys.modules"
                    f" if m.startswith('lexdrift') or m in {sorted(SLOW)}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


def _loaded_after(code: str) -> set[str]:
    """The ``lexdrift`` modules a fresh interpreter holds after *code*,
    which must have loaded none of SLOW."""
    loaded = _modules_after(code)
    assert loaded.isdisjoint(SLOW), loaded & SLOW
    return loaded


def _cold_main(*argv: str) -> str:
    """Code that runs ``main(argv)`` quietly and checks it exits 0."""
    return ("import contextlib, io\n"
            "from lexdrift.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({list(argv)!r}) == 0")


@pytest.fixture(scope="module")
def sample_index(tmp_path_factory) -> str:
    from lexdrift import bundled_corpus_path
    from lexdrift.cli import main

    index = str(tmp_path_factory.mktemp("index") / "sample.idx")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["index", "--corpus", str(bundled_corpus_path()), "--out", index]) == 0
    return index


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
    loaded = _loaded_after(_cold_main("drift", "--format", "json"))
    assert "lexdrift.stats" in loaded
    assert loaded.isdisjoint(INDEX_SIDE | {"lexdrift.svg"}), loaded


def test_skew_by_index_loads_no_stats_module(sample_index):
    loaded = _loaded_after(_cold_main("skew", "any(strong)", "--index", sample_index,
                                      "--year", "2023"))
    assert "lexdrift.index" in loaded
    assert loaded.isdisjoint({"lexdrift.stats", "lexdrift.svg"}), loaded


def test_query_by_index_loads_no_stats_module(sample_index):
    loaded = _loaded_after(_cold_main("query", "any(strong)", "--index", sample_index))
    assert "lexdrift.index" in loaded
    assert loaded.isdisjoint({"lexdrift.stats", "lexdrift.svg"}), loaded


def test_drift_by_index_loads_no_svg_module(sample_index):
    loaded = _loaded_after(_cold_main("drift", "strong", "--index", sample_index))
    assert {"lexdrift.index", "lexdrift.stats"} <= loaded
    assert "lexdrift.svg" not in loaded, loaded


def test_the_probe_sees_a_slow_module_that_code_loads():
    # So a probe that sees none of SLOW after a command shows it loaded none.
    assert {"hashlib", "_hashlib"} <= _modules_after("import hashlib")


def test_no_module_imports_hashlib():
    found = []
    for path in sorted((SRC / "lexdrift").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [path.name for alias in node.names if alias.name == "hashlib"]
            elif isinstance(node, ast.ImportFrom) and node.module == "hashlib":
                found.append(path.name)
    assert found == []


def test_index_build_loads_no_stats_module(tmp_path):
    from lexdrift import bundled_corpus_path

    loaded = _loaded_after(_cold_main("index", "--corpus", str(bundled_corpus_path()),
                                      "--out", str(tmp_path / "cold.idx")))
    assert (tmp_path / "cold.idx").exists()
    assert loaded.isdisjoint({"lexdrift.stats", "lexdrift.svg"}), loaded


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted((SRC / "lexdrift").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("lexdrift")):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


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


def test_each_public_name_is_used_in_src_or_named_in_the_readme():
    # A public name that only tests call is code kept for the tests' sake.
    used = set()
    for path in (SRC / "lexdrift").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    named = set(re.findall(r"\w+", readme.read_text(encoding="utf-8")))
    assert [name for name in lexdrift.__all__ if name not in used | named] == []


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lexdrift.no_such_name
    with pytest.raises(ImportError):
        exec("from lexdrift import no_such_name", {})


def _imports(path: Path) -> list[tuple[str, str | None]]:
    """The (module, name) pairs the file *path* imports, name None for an
    ``import module``; a relative module keeps its leading dots."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [("." * node.level + (node.module or ""), alias.name) for alias in node.names]
    return found


def test_the_test_side_references_share_no_code_with_the_package():
    # The README's index-file reader and the brute-force oracle are what the
    # package is checked against, so neither may run the package's own code.
    stdlib = sys.stdlib_module_names
    assert {module.split(".")[0] for module, _ in _imports(TESTS / "index_file.py")} <= stdlib
    taken = {(module, name) for module, name in _imports(TESTS / "conftest.py")
             if module.split(".")[0] not in stdlib | {"pytest"}}
    assert taken <= {("lexdrift", name) for name in ORACLE_NAMES}

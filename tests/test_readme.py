"""The README is the spec: each ``lexdrift`` line of its shell examples runs,
the ``drift group1`` output it shows is the actual output, and its library
example runs on the bundled corpus."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from lexdrift import bundled_corpus_path
from lexdrift.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# Corpus paths in the examples, all of them the bundled corpus here.
CORPORA = ("corpus.jsonl", "src/lexdrift/data/sample_corpus.jsonl")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_every_shell_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)[1:]
                for block in _blocks("sh") for line in block.splitlines()
                if line.startswith("lexdrift ")]
    assert len(commands) >= 8
    for argv in commands:
        argv = [str(bundled_corpus_path()) if a in CORPORA else a for a in argv]
        assert _run(argv)[0] == 0, argv
        assert capsys.readouterr().err == "", argv


def test_drift_output_is_the_one_shown():
    shown = next(b for b in _blocks("") if b.startswith("series: group1\n"))
    assert _run(["drift", "group1"]) == (0, shown)


def test_library_example_runs_on_the_bundled_corpus():
    (snippet,) = _blocks("python")
    snippet = snippet.replace('"corpus.jsonl"', repr(str(bundled_corpus_path())))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    counts, excess = out.getvalue().splitlines()
    assert counts.startswith("{2019: ")
    assert len(excess.split()) == 2

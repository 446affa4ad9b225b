"""Any command line ends in exit 0, 1 or 2, never a traceback, and a data
error (exit 1) is reported in one ``error:`` line. Each command starts from
a valid command line; awkward values then replace its arguments: non-finite
and huge numbers, zero or negative sizes, years and totals, reversed year
ranges, paths that are missing, a directory or binary, a corpus with
malformed records, integers past Python's 4,300-digit limit for converting
text (in a corpus, a lexicon, an index header and a query), and empty,
malformed or over-deep queries, and index files that are corrupt or cut
short. Each awkward value alone is a command line of the golden transcript
(``tests/golden.py``), whose every block ``test_golden.py`` holds to the
rule of :func:`check_exit`; hypothesis tries them here in combination."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexdrift import builtin_lexicon, bundled_corpus_path, bundled_counts_path, save_lexicon
from lexdrift.cli import main

import index_file
from conftest import SAMPLE_INDEX

NUMBERS = ("nan", "inf", "-inf", "1e308", "0", "-1", "-2.5", "3")
INTEGERS = ("0", "-1", "-2023", "1", "2019", "2101", str(10**30), "nan")
HUGE = "9" * 5000
# The index read where text is expected is SAMPLE_INDEX: bytes kept with
# the tests, since the errors quote them and deflate output may differ
# between zlib builds.
QUERIES = ("", "INTRICATE", "zebra", "atleast(2, strong)", "atleast(0, strong)",
           '"large language model"', "and", "any(", "¾",
           "(" * 150 + "intricate" + ")" * 150, f"atleast({HUGE}, strong)")
SERIES = ("group1", "strong", "intricate", "nosuch")
# Paths are filled in from the ``paths`` fixture: every readable kind of
# input (the index is the binary one where text is expected), plus missing
# and a directory. Outputs never overwrite an input.
INPUTS = ("{index}", "{corpus}", "{counts}", "{lexicon}", "{missing}", "{directory}")
# A corpus is also read with malformed records in it, so that index and
# both scans are held to the same exit codes and stderr shape, and with
# huge integers in it.
CORPORA = (*INPUTS, "{malformed}", "{huge_corpus}")
LEXICONS = (*INPUTS, "{huge_lexicon}")
# A saved index with one payload byte flipped, and one cut short of its header.
INDEXES = (*INPUTS, "{huge_index}", "{corrupt_index}", "{short_index}")
OUTPUTS = ("{out}", "{out_in_missing}", "{directory}")
ON_ERROR = ("skip",)
FORMATS = ("csv", "json")

# Per command: a valid command line, then the awkward values of each flag.
# QUERY and PATH replace the positional argument, SERIES adds a series name,
# and --index takes the place of --corpus, which it excludes.
COMMANDS = {
    "index": (["index", "--corpus", "{corpus}", "--out", "{out}"], {
        "--corpus": CORPORA, "--out": OUTPUTS, "--lexicon": LEXICONS,
        "--on-error": ON_ERROR, "--from": INTEGERS, "--to": INTEGERS}),
    "drift": (["drift", "group1"], {
        "SERIES": SERIES, "--counts": INPUTS, "--index": INDEXES, "--from": INTEGERS,
        "--to": INTEGERS, "--base-year": INTEGERS, "--target-year": INTEGERS,
        "--format": FORMATS, "--out": OUTPUTS}),
    "excess": (["excess", "group4"], {
        "SERIES": SERIES, "--counts": INPUTS, "--index": INDEXES, "--base-year": INTEGERS,
        "--target-year": INTEGERS, "--growth": NUMBERS, "--total": INTEGERS,
        "--format": FORMATS}),
    "query": (["query", "any(strong)", "--corpus", "{corpus}"], {
        "QUERY": QUERIES, "--index": INDEXES, "--corpus": CORPORA, "--lexicon": LEXICONS,
        "--on-error": ON_ERROR, "--from": INTEGERS, "--to": INTEGERS,
        "--format": FORMATS}),
    "plot": (["plot", "group1", "--out", "{out}"], {
        "SERIES": SERIES, "--counts": INPUTS, "--index": INDEXES,
        "--metric": ("yoy", "count"), "--from": INTEGERS, "--to": INTEGERS,
        "--width": INTEGERS, "--height": INTEGERS, "--out": OUTPUTS}),
    "skew": (["skew", "any(strong)", "--corpus", "{corpus}", "--year", "2023"], {
        "QUERY": QUERIES, "--index": INDEXES, "--corpus": CORPORA, "--lexicon": LEXICONS,
        "--on-error": ON_ERROR, "--year": INTEGERS, "--format": FORMATS}),
    "counts import": (["counts", "import", "{counts}"], {"PATH": INPUTS}),
    "counts export": (["counts", "export", "strong", "--index", "{index}", "--out", "{out}"], {
        "SERIES": SERIES, "--index": INDEXES, "--out": OUTPUTS}),
}


def make_inputs(tmp: Path) -> dict[str, str]:
    """Write the input files of the command lines above into *tmp*, and
    return every path by the name that stands for it there."""
    index = tmp / "sample.idx"
    index.write_bytes(SAMPLE_INDEX.read_bytes())
    save_lexicon(builtin_lexicon(), tmp / "lexicon.json")
    (tmp / "malformed.jsonl").write_text("".join(line + "\n" for line in [
        '{"id": "a", "year": 2023, "text": "a strong intricate plan", "categories": ["x"]}',
        'garbage',
        '{"id": "a", "year": 2023, "text": "a repeated id"}',
        '{"id": "b", "year": 2101, "text": "past the default range"}',
        '{"id": "c", "year": 2023, "text": "intricate", "categories": ["\\ud800"]}',
    ]), encoding="utf-8")
    (tmp / "huge.jsonl").write_text("".join(line + "\n" for line in [
        '{"id": "a", "year": 2023, "text": "a strong intricate plan"}',
        f'{{"id": "b", "year": 2023, "text": "intricate", "pages": {HUGE}}}',
        f'{{"id": "c", "year": {HUGE}, "text": "intricate"}}',
    ]), encoding="utf-8")
    (tmp / "huge_lexicon.json").write_text(json.dumps(
        {"name": "huge", "entries": [{"term": "intricate", "role": "adjective"}],
         "groups": {"strong": ["intricate"]}})[:-1] + f', "version": {HUGE}}}', encoding="utf-8")
    # The index with a header field past the digit limit, its checksum valid.
    header, columns, ids = index_file.parts(index.read_bytes())
    text = (json.dumps(header)[:-1] + f', "x": {HUGE}}}').encode()
    (tmp / "huge.idx").write_bytes(index_file.framed(index_file.packed(text, columns, ids)))
    data = bytearray(index.read_bytes())
    data[-1] ^= 1
    (tmp / "corrupt.idx").write_bytes(data)
    (tmp / "short.idx").write_bytes(data[:index_file.HEADER.size - 1])
    return {
        "index": str(index),
        "huge_index": str(tmp / "huge.idx"),
        "corrupt_index": str(tmp / "corrupt.idx"),
        "short_index": str(tmp / "short.idx"),
        "huge_corpus": str(tmp / "huge.jsonl"),
        "huge_lexicon": str(tmp / "huge_lexicon.json"),
        "corpus": str(bundled_corpus_path()),
        "malformed": str(tmp / "malformed.jsonl"),
        "counts": str(bundled_counts_path()),
        "lexicon": str(tmp / "lexicon.json"),
        "missing": str(tmp / "missing"),
        "directory": str(tmp),
        "out": str(tmp / "out.txt"),
        "out_in_missing": str(tmp / "missing" / "out.txt"),
    }


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict[str, str]:
    return make_inputs(tmp_path_factory.mktemp("cli_inputs"))


def command_line(command: str, changes: list[tuple[str, str]]) -> list[str]:
    """The valid command line of *command* with each (flag, value) of
    *changes* applied (a repeated flag overrides the earlier one, and an
    ``--index`` replaces a ``--corpus`` pair); paths are still named by
    their ``{placeholder}``."""
    argv = list(COMMANDS[command][0])
    position = len(command.split())
    for flag, value in changes:
        if flag in ("QUERY", "PATH"):
            argv[position] = value
        elif flag == "SERIES":
            argv.insert(position, value)
        elif flag == "--index" and "--corpus" in argv:
            at = argv.index("--corpus")
            argv[at:at + 2] = [flag, value]
        else:
            argv += [flag, value]
    return argv


def awkward_values_alone() -> Iterator[tuple[str, list[tuple[str, str]]]]:
    """Each command with no change, then with each awkward value alone, a
    reversed year range and a malformed corpus skipped."""
    for command, (_, flags) in COMMANDS.items():
        yield command, []
        for flag, values in flags.items():
            for value in values:
                yield command, [(flag, value)]
        if "--from" in flags:
            yield command, [("--from", "2023"), ("--to", "2019")]
        if "--on-error" in flags:
            yield command, [("--corpus", "{malformed}"), ("--on-error", "skip")]


def fill(argv: list[str], paths: dict[str, str]) -> list[str]:
    """*argv* with each ``{placeholder}`` replaced by its path."""
    return [arg.format(**paths) if arg.startswith("{") else arg for arg in argv]


def check_exit(code: int, err_lines: list[str], context: object) -> None:
    """The rule every command line keeps: exit 0, 1 or 2, and a data error
    (exit 1) reported in one ``error:`` line; under --on-error skip, the
    report of the skipped records may come before it."""
    assert code in (0, 1, 2), (context, code)
    assert not any("Traceback" in line for line in err_lines), context
    if code == 1:
        assert len(err_lines) in (1, 2) and err_lines[-1].startswith("error: "), \
            (context, err_lines)
        assert len(err_lines) == 1 or err_lines[0].startswith("skipped "), (context, err_lines)


def _check(command: str, changes: list[tuple[str, str]], paths: dict[str, str]) -> None:
    """Run :func:`command_line` of *command* and *changes*."""
    argv = fill(command_line(command, changes), paths)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # Output that a UTF-8 stdout cannot encode would end in a traceback.
    out.getvalue().encode("utf-8")
    check_exit(code, err.getvalue().splitlines(), argv)


@pytest.mark.parametrize("name", ["corrupt_index", "short_index"])
def test_a_broken_index_is_exit_1_with_one_line(tmp_path, name):
    import golden  # golden imports this module
    golden.check(tmp_path, *(command_line(command, [("--index", f"{{{name}}}")])
                             for command in ("query", "skew", "drift", "excess", "plot",
                                             "counts export")))


@st.composite
def _changes(draw) -> tuple[str, list[tuple[str, str]]]:
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command][1]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), min_size=2, max_size=4))
    return command, [(flag, draw(st.sampled_from(flags[flag]))) for flag in chosen]


@settings(max_examples=150, deadline=None)
@given(case=_changes())
def test_awkward_values_combined(paths, case):
    _check(*case, paths)

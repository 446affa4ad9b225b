"""Any command line ends in exit 0, 1 or 2, never a traceback, and a data
error (exit 1) is reported in one ``error:`` line. Each command starts from
a valid command line; awkward values then replace its arguments: non-finite
and huge numbers, zero or negative sizes, years and totals, reversed year
ranges, paths that are missing, a directory or binary, a corpus with
malformed records, integers past Python's 4,300-digit limit for converting
text (in a corpus, a lexicon, an index header and a query), and empty,
malformed or over-deep queries. Every awkward value is tried alone, and
hypothesis tries them in combination."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexdrift import builtin_lexicon, bundled_corpus_path, bundled_counts_path, save_lexicon
from lexdrift.cli import main

NUMBERS = ("nan", "inf", "-inf", "1e308", "0", "-1", "-2.5", "3")
INTEGERS = ("0", "-1", "-2023", "1", "2019", "2101", str(10**30), "nan")
HUGE = "9" * 5000
# An index file's container header: magic, version, payload length, SHA-256.
_CONTAINER = struct.Struct("<4sHQ32s")
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
INDEXES = (*INPUTS, "{huge_index}")
OUTPUTS = ("{out}", "{out_in_missing}", "{directory}")
ON_ERROR = ("skip",)
FORMATS = ("csv", "json")

# Per command: a valid command line, then the awkward values of each flag.
# QUERY and PATH replace the positional argument, SERIES adds a series name.
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


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict[str, str]:
    tmp = tmp_path_factory.mktemp("cli_inputs")
    index = tmp / "sample.idx"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["index", "--corpus", str(bundled_corpus_path()), "--out", str(index)]) == 0
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
    payload = zlib.decompress(index.read_bytes()[_CONTAINER.size:])
    (size,) = struct.unpack_from("<I", payload)
    header = payload[4:4 + size - 1] + f', "x": {HUGE}}}'.encode()
    blob = zlib.compress(struct.pack("<I", len(header)) + header + payload[4 + size:])
    container = _CONTAINER.pack(b"LXDX", 2, len(blob), hashlib.sha256(blob).digest())
    (tmp / "huge.idx").write_bytes(container + blob)
    return {
        "index": str(index),
        "huge_index": str(tmp / "huge.idx"),
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


def _check(command: str, changes: list[tuple[str, str]], paths: dict[str, str]) -> None:
    """Run the valid command line of *command* with each (flag, value) of
    *changes* applied (a repeated flag overrides the earlier one)."""
    argv = list(COMMANDS[command][0])
    position = len(command.split())
    for flag, value in changes:
        if flag in ("QUERY", "PATH"):
            argv[position] = value
        elif flag == "SERIES":
            argv.insert(position, value)
        else:
            argv += [flag, value]
    argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, code)
    # Output that a UTF-8 stdout cannot encode would end in a traceback.
    out.getvalue().encode("utf-8")
    assert not any("Traceback" in line for line in lines), argv
    if code == 1:
        # One error line; under --on-error skip, the report of the skipped
        # records may come before it.
        assert len(lines) in (1, 2) and lines[-1].startswith("error: "), (argv, lines)
        assert len(lines) == 1 or lines[0].startswith("skipped "), (argv, lines)


def test_each_awkward_value_alone(paths):
    for command, (_, flags) in COMMANDS.items():
        _check(command, [], paths)
        for flag, values in flags.items():
            for value in values:
                _check(command, [(flag, value)], paths)
        if "--from" in flags:
            _check(command, [("--from", "2023"), ("--to", "2019")], paths)
        if "--on-error" in flags:
            _check(command, [("--corpus", "{malformed}"), ("--on-error", "skip")], paths)


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

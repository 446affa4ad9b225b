"""The golden transcript of the command line, ``tests/data/cli-golden.txt``:
for a fixed list of command lines, the exit code, stdout, stderr and the
file written by ``--out``, each run through ``lexdrift.cli.main``.

    python tests/golden.py --write

The list runs every command on the bundled counts, the bundled corpus and
the index file kept in ``tests/data``, in each format and with ``--out``,
on an index built with a lexicon whose case-sensitive ``GPT`` stands
beside ``gpt``, and on an index of a generated corpus whose 2023 has more
than 256 category tuples, so that its category rows take two bytes a
document where the others take one; then each command line of
``test_cli_inputs.py`` with one awkward value, and last the command lines
that a rule refuses, each with a comment naming its rule, on inputs written
for them. ``test_golden.py`` replays it and names the first command line
whose output differs, so an intended change to any output shows as a diff
of the transcript, recorded anew; and it holds every block to the exit
rule of ``test_cli_inputs.check_exit``. A test that names a rule replays
the command lines of that rule alone through :func:`check`.

Paths are written as the ``{placeholder}`` that stands for them. An SVG is
recorded as its SHA-256, and an index file as the SHA-256 of its inflated
payload, every zlib stream of it, since deflate output may differ between
zlib builds. Of a usage error only argparse's last line is kept: the usage
text above it wraps with the terminal width.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import shlex
import sys
import tempfile
from pathlib import Path

from lexdrift import bundled_corpus_path, bundled_counts_path
from lexdrift.cli import main

import index_file
from test_cli_inputs import awkward_values_alone, command_line, fill, make_inputs

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "cli-golden.txt"
FORMATS = ("text", "csv", "json")
# Case-sensitive GPT beside gpt: "Gpt" names neither alone.
_CASED_LEXICON = {"name": "cased", "entries": [
    {"term": "GPT", "role": "disclosure", "case_sensitive": True},
    {"term": "gpt", "role": "disclosure"}]}
# 25 categories: each document of 2023 holds a pair of its own, 300 tuples.
_CATEGORIES = [f"c{i:02d}" for i in range(25)]
_FLOAT_MAX = int(sys.float_info.max)
# The rows of each count table of the refusals, under a header.
_TABLES = {
    "one_year": ["s,2023,5,100"],
    "header_only": [],
    "over_total": ["a,2022,9,5"],
    "count_past_float": [f"s,2022,{10**400},{10**400}"],
    "total_past_float": [f"s,2021,1,{2 * 10**323}", "s,2022,1,1"],
    # Every count fits a float, but the change from a share of 1/max is not finite.
    "yoy_past_float": [f"s,2021,1,{_FLOAT_MAX}", "s,2022,1,1"],
    "count_near_float_max": [f"s,2022,{_FLOAT_MAX},{_FLOAT_MAX}"],
}


def _bundled() -> list[list[str]]:
    cases = []
    for fmt in FORMATS:
        cases += [["drift", "--format", fmt], ["excess", "--format", fmt],
                  ["excess", "group4", "--growth", "0.1", "--total", "10000000",
                   "--format", fmt]]
    cases += [["drift", "group1", "--out", "{out}"], ["excess", "group4", "--out", "{out}"]]
    cases += [["plot", "--metric", metric] for metric in ("share", "yoy", "count")]
    cases += [["plot", "group1", "group5", "--out", "{out}"],
              ["counts", "import", "{counts}"], ["counts", "import", "{counts}", "--out", "{out}"]]
    return cases


def _corpus() -> list[list[str]]:
    cases = [["index", "--corpus", "{corpus}", "--out", "{out}"]]
    for fmt in FORMATS:
        for q in ("any(strong)", "atleast(2, strong) OR any(disclosure)", "intricate",
                  '"large language model"', "outwith"):
            cases.append(["query", q, "--corpus", "{corpus}", "--format", fmt])
        cases.append(["skew", "any(strong)", "--corpus", "{corpus}", "--year", "2023",
                      "--format", fmt])
    return cases


def _index_files() -> list[list[str]]:
    cases = []
    for fmt in FORMATS:
        cases += [["drift", "--index", "{index}", "--format", fmt],
                  ["excess", "--index", "{index}", "--format", fmt],
                  ["query", "any(strong) AND any(disclosure)", "--index", "{index}",
                   "--format", fmt],
                  ["skew", "any(strong)", "--index", "{index}", "--year", "2023",
                   "--format", fmt]]
    cases += [["plot", "--index", "{index}"], ["counts", "export", "--index", "{index}"]]
    for argv in (["drift", "strong"], ["excess", "strong"], ["query", "intricate"],
                 ["skew", "intricate", "--year", "2023"], ["plot", "strong"],
                 ["counts", "export", "strong"]):
        cases.append([*argv, "--index", "{index}", "--out", "{out}"])
    # A series named by a query, counted in combination.
    combined = "atleast(2, strong)"
    for fmt in FORMATS:
        cases += [[command, combined, "--index", "{index}", "--format", fmt]
                  for command in ("drift", "excess", "query")]
    cases += [["plot", combined, "--index", "{index}", "--metric", "count"],
              ["counts", "export", combined, "--index", "{index}"]]
    # A character that starts no token, alone, as an operand and as a member.
    cases += [["query", q, "--index", "{index}"] for q in ("'", "blue AND -", "any(strong, *)")]
    return cases


def _cased() -> list[list[str]]:
    cases = [["index", "--corpus", "{corpus}", "--lexicon", "{cased_lexicon}",
              "--out", "{cased_index}"]]
    for name in ("GPT", "gpt", "Gpt"):
        cases += [["drift", name, "--index", "{cased_index}"],
                  ["excess", name, "--index", "{cased_index}"],
                  ["plot", name, "--index", "{cased_index}"],
                  ["counts", "export", name, "--index", "{cased_index}"],
                  ["query", name, "--index", "{cased_index}"]]
    return cases


def _two_byte_rows() -> list[list[str]]:
    return [["index", "--corpus", "{wide_corpus}", "--out", "{wide_index}"],
            ["query", "any(strong)", "--index", "{wide_index}"],
            ["skew", "any(strong)", "--index", "{wide_index}", "--year", "2023"],
            ["drift", "strong", "--index", "{wide_index}"]]


def _wide_corpus() -> str:
    """Two years of documents: 2022 with one category each, 2023 with a
    pair of categories of its own each, so more than 256 tuples."""
    lines = []
    for year, tuples in ((2022, [(c,) for c in _CATEGORIES] * 2),
                         (2023, list(itertools.combinations(_CATEGORIES, 2)))):
        for i, cats in enumerate(tuples):
            words = [word for word, k in (("intricate", 3), ("meticulously", year - 2018),
                                          ("notable", 7)) if i % k == 0]
            lines.append(json.dumps({"id": f"w{year}-{i:03d}", "year": year,
                                     "text": " ".join(["a plain note", *words]),
                                     "categories": list(cats)}) + "\n")
    return "".join(lines)


def _refusals() -> list[list[str]]:
    """Command lines that a rule refuses, beside the awkward values of
    ``test_cli_inputs.py``, and the scans that skip what it refuses."""
    cases = [
        # index: a repeated id ends the build; a byte that is not UTF-8 is
        # a malformed record, which --on-error skip leaves out.
        ["index", "--corpus", "{repeated}", "--out", "{out}"],
        ["index", "--corpus", "{non_utf8}", "--out", "{out}"],
        ["index", "--corpus", "{non_utf8}", "--out", "{out}", "--on-error", "skip"],
        ["index"],
        # A series that names nothing, a table of one year (no base year
        # before the target), a table of no series.
        ["drift", "group99"],
        ["excess", "--counts", "{one_year}"],
        ["plot", "--counts", "{header_only}"],
        # A growth that is not finite, written with "=" since argparse reads
        # a bare -inf as an option; a total below 1; matches above the total.
        *(["excess", "group4", f"--growth={growth}"] for growth in ("nan", "inf", "-inf")),
        ["excess", "group4", "--total", "-10"],
        ["counts", "import", "{over_total}"],
        # A count past the float range, or a metric of counts near it, is
        # refused before a chart is written.
        ["drift", "--counts", "{total_past_float}"],
    ]
    cases += [["plot", "s", "--counts", f"{{{table}}}", "--metric", metric, "--out", "{out}"]
              for table, metric in (("count_past_float", "count"), ("total_past_float", "yoy"),
                                    ("yoy_past_float", "yoy"),
                                    ("count_near_float_max", "count"))]
    # A year window that holds no year names its bounds.
    for window in (["--from", "2030"], ["--to", "1990"], ["--from", "2030", "--to", "2031"]):
        cases += [["drift", "group1", *window], ["plot", "group1", *window]]
    # A query or skew of no indexed year.
    cases += [["query", "intricate", "--index", "{index}", "--from", "2030"],
              ["query", "intricate", "--index", "{index}", "--from", "2030", "--to", "2031"],
              ["skew", "intricate", "--index", "{index}", "--year", "2030"]]
    # A scan refuses a malformed record, or under --on-error skip leaves it
    # out and reports it, before the command's own error too.
    cases += [["query", "zebra", "--corpus", "{repeated}"],
              ["query", "zebra", "--corpus", "{repeated}", "--on-error", "skip",
               "--format", "csv"],
              ["skew", "zebra", "--corpus", "{repeated}", "--year", "2023"],
              ["skew", "zebra", "--corpus", "{repeated}", "--year", "2023",
               "--on-error", "skip", "--format", "csv"],
              ["query", "intricate", "--corpus", "{malformed}", "--on-error", "skip",
               "--from", "2030"],
              ["skew", "zebra", "--corpus", "{repeated}", "--on-error", "skip",
               "--year", "2030"]]
    # A category holding a lone surrogate is a malformed record in every format.
    cases += [["skew", "intricate", "--corpus", "{surrogate}", "--year", "2023", "--format", fmt]
              for fmt in FORMATS]
    cases.append(["skew", "intricate", "--corpus", "{surrogate}", "--year", "2023",
                  "--on-error", "skip", "--format", "csv"])
    # Query text the parser refuses, and a lexicon that is not UTF-8. The
    # parser stops at depth 100, so a deeper nest takes the same path.
    cases += [["query", q, "--index", "{index}"]
              for q in ("atleast(0, strong)", "any(strong",
                        "(" * 150 + "intricate" + ")" * 150)]
    cases.append(["query", "strong", "--lexicon", "{latin1_lexicon}", "--corpus", "{corpus}"])
    # One source is needed, and only one.
    cases += [["query", "intricate"], ["skew", "intricate", "--year", "2023"],
              ["query", "intricate", "--index", "{index}", "--corpus", "{corpus}"],
              ["skew", "intricate", "--year", "2023", "--corpus", "{corpus}",
               "--index", "{index}"],
              ["drift", "--index", "{index}", "--counts", "{counts}"],
              ["excess", "--counts", "{counts}", "--index", "{index}"],
              ["plot", "--index", "{index}", "--counts", "builtin"]]
    # A series that is no group or entry is read as a query, and its error
    # says so; only query and skew, which can scan, advise a scan.
    for name in ("group1", "nosuch"):
        cases += [[*command, name, "strong", "--index", "{index}"]
                  for command in (["drift"], ["excess"], ["plot"], ["counts", "export"])]
    cases += [["query", "nosuch", "--index", "{index}"],
              ["skew", "nosuch", "--index", "{index}", "--year", "2023"]]
    return cases


def command_lines() -> list[list[str]]:
    """Every command line of the transcript, in order."""
    pool = [command_line(command, changes) for command, changes in awkward_values_alone()]
    return (_bundled() + _corpus() + _index_files() + _cased() + _two_byte_rows() + pool
            + _refusals())


def _paths(tmp: Path) -> dict[str, str]:
    paths = make_inputs(tmp)
    (tmp / "cased.json").write_text(json.dumps(_CASED_LEXICON), encoding="utf-8")
    (tmp / "wide.jsonl").write_text(_wide_corpus(), encoding="utf-8")
    (tmp / "repeated.jsonl").write_text("".join(json.dumps(doc) + "\n" for doc in [
        {"id": "a", "year": 2023, "text": "a zebra crossing", "categories": ["x"]},
        {"id": "b", "year": 2022, "text": "no stripes", "categories": ["y"]},
        {"id": "a", "year": 2023, "text": "a repeated id"}]), encoding="utf-8")
    (tmp / "non_utf8.jsonl").write_bytes(b'{"id": "a", "year": 2023, "text": "x"}\n'
                                         b'{"id": "b", "year": 2023, "text": "caf\xe9"}\n')
    (tmp / "surrogate.jsonl").write_text(
        '{"id": "a", "year": 2023, "text": "an intricate plan", "categories": ["\\ud800x"]}\n'
        '{"id": "b", "year": 2023, "text": "plain", "categories": ["y"]}\n', encoding="utf-8")
    (tmp / "latin1.json").write_bytes(b"\xf6g=*")
    for name, rows in _TABLES.items():
        paths[name] = str(tmp / f"{name}.csv")
        Path(paths[name]).write_text("".join(
            row + "\n" for row in ["series,year,matches,total", *rows]), encoding="utf-8")
    paths.update(
        repeated=str(tmp / "repeated.jsonl"), non_utf8=str(tmp / "non_utf8.jsonl"),
        surrogate=str(tmp / "surrogate.jsonl"), latin1_lexicon=str(tmp / "latin1.json"),
        corpus=str(bundled_corpus_path()), counts=str(bundled_counts_path()),
        cased_lexicon=str(tmp / "cased.json"), cased_index=str(tmp / "cased.idx"),
        wide_corpus=str(tmp / "wide.jsonl"), wide_index=str(tmp / "wide.idx"))
    return paths


def _section(name: str, text: str) -> str:
    if text.startswith("<?xml"):
        text = f"sha256 {hashlib.sha256(text.encode('utf-8')).hexdigest()}\n"
    elif not text.endswith("\n"):
        text += "\n(no newline at end)\n"
    return f"--- {name}\n{text}"


def _run(argv: list[str], paths: dict[str, str]) -> str:
    """The transcript block of one command line."""
    out_path = Path(paths["out"])
    if out_path.is_file():
        out_path.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(fill(argv, paths))
    stderr = err.getvalue()
    if code == 2 and stderr.startswith("usage:"):
        stderr = stderr.splitlines(keepends=True)[-1]
    block = f"$ lexdrift {shlex.join(argv)}\nexit {code}\n"
    for name, text in (("stdout", out.getvalue()), ("stderr", stderr)):
        if text:
            block += _section(name, text)
    if out_path.is_file():
        data = out_path.read_bytes()
        if data.startswith(b"LXDX"):
            payload = b"".join(index_file.streams(data))
            block += f"--- {{out}}\nindex payload sha256 {hashlib.sha256(payload).hexdigest()}\n"
        else:
            block += _section("{out}", data.decode("utf-8"))
    # Longest first, so that a path is named before the directory holding it.
    for name, path in sorted(paths.items(), key=lambda item: -len(item[1])):
        block = block.replace(path, f"{{{name}}}")
    return block


def transcript(tmp: Path) -> list[str]:
    """The block of each command line, run with its input files in *tmp*."""
    paths = _paths(tmp)
    return [_run(argv, paths) for argv in command_lines()]


def check(tmp: Path, *argvs: list[str]) -> list[str]:
    """Run each of *argvs*, command lines of the transcript, with its input
    files in *tmp*, assert that it prints what the transcript holds, and
    return the blocks."""
    kept = {block.splitlines()[0]: block
            for block in split(GOLDEN.read_text(encoding="utf-8"))}
    paths = _paths(tmp)
    blocks = [_run(argv, paths) for argv in argvs]
    for block in blocks:
        command = block.splitlines()[0]
        assert command in kept, f"not in the transcript: {command}"
        assert block == kept[command], command
    return blocks


def split(text: str) -> list[str]:
    """The blocks of a transcript file."""
    blocks: list[str] = []
    for line in text.splitlines(keepends=True):
        if line.startswith("$ lexdrift ") or not blocks:
            blocks.append("")
        blocks[-1] += line
    return blocks


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        blocks = transcript(Path(tmp))
    GOLDEN.write_text("".join(blocks), encoding="utf-8")
    print(f"wrote {len(blocks)} command lines to {GOLDEN}")

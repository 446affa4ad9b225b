"""The golden transcript of the command line, ``tests/data/cli-golden.txt``:
for a fixed list of command lines, the exit code, stdout, stderr and the
file written by ``--out``, each run through ``lexdrift.cli.main``.

    python tests/golden.py --write

The list runs every command on the bundled counts, the bundled corpus and
the index files kept in ``tests/data``, in each format and with ``--out``,
on an index built with a lexicon whose case-sensitive ``GPT`` stands
beside ``gpt``, and on an index of a generated corpus whose 2023 has more
than 256 category tuples, so that its category rows take two bytes a
document where the others take one; then each command line of
``test_cli_inputs.py`` with one awkward value. ``test_golden.py`` replays
it and names the first command line whose output differs, so an intended
change to any output shows as a diff of the transcript, recorded anew.

Paths are written as the ``{placeholder}`` that stands for them. An SVG is
recorded as its SHA-256, and an index file as the SHA-256 of its inflated
payload, since deflate output may differ between zlib builds. Of a usage
error only argparse's last line is kept: the usage text above it wraps
with the terminal width.
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
import zlib
from pathlib import Path

from lexdrift import bundled_corpus_path, bundled_counts_path
from lexdrift.cli import main

from test_cli_inputs import awkward_values_alone, command_line, fill, make_inputs

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "cli-golden.txt"
FORMATS = ("text", "csv", "json")
# The size of a version 3 index file's header, before its deflated payload.
_INDEX_HEADER = 18
# Case-sensitive GPT beside gpt: "Gpt" names neither alone.
_CASED_LEXICON = {"name": "cased", "entries": [
    {"term": "GPT", "role": "disclosure", "case_sensitive": True},
    {"term": "gpt", "role": "disclosure"}]}
# 25 categories: each document of 2023 holds a pair of its own, 300 tuples.
_CATEGORIES = [f"c{i:02d}" for i in range(25)]


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
    for index in ("{v1}", "{v2}", "{v3}"):
        for fmt in FORMATS:
            cases += [["drift", "--index", index, "--format", fmt],
                      ["excess", "--index", index, "--format", fmt],
                      ["query", "any(strong) AND any(disclosure)", "--index", index,
                       "--format", fmt],
                      ["skew", "any(strong)", "--index", index, "--year", "2023",
                       "--format", fmt]]
        cases += [["plot", "--index", index], ["counts", "export", "--index", index]]
    for argv in (["drift", "strong"], ["excess", "strong"], ["query", "intricate"],
                 ["skew", "intricate", "--year", "2023"], ["plot", "strong"],
                 ["counts", "export", "strong"]):
        cases.append([*argv, "--index", "{v3}", "--out", "{out}"])
    # A series named by a query, counted in combination.
    combined = "atleast(2, strong)"
    for fmt in FORMATS:
        cases += [[command, combined, "--index", "{v3}", "--format", fmt]
                  for command in ("drift", "excess", "query")]
    cases += [["plot", combined, "--index", "{v3}", "--metric", "count"],
              ["counts", "export", combined, "--index", "{v3}"]]
    # A character that starts no token, alone, as an operand and as a member.
    cases += [["query", q, "--index", "{v3}"] for q in ("'", "blue AND -", "any(strong, *)")]
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


def command_lines() -> list[list[str]]:
    """Every command line of the transcript, in order."""
    pool = [command_line(command, changes) for command, changes in awkward_values_alone()]
    return _bundled() + _corpus() + _index_files() + _cased() + _two_byte_rows() + pool


def _paths(tmp: Path) -> dict[str, str]:
    paths = make_inputs(tmp)
    (tmp / "cased.json").write_text(json.dumps(_CASED_LEXICON), encoding="utf-8")
    (tmp / "wide.jsonl").write_text(_wide_corpus(), encoding="utf-8")
    paths.update(
        corpus=str(bundled_corpus_path()), counts=str(bundled_counts_path()),
        cased_lexicon=str(tmp / "cased.json"), cased_index=str(tmp / "cased.idx"),
        wide_corpus=str(tmp / "wide.jsonl"), wide_index=str(tmp / "wide.idx"),
        **{f"v{n}": str(DATA / f"sample-v{n}.idx") for n in (1, 2, 3)})
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
            payload = zlib.decompress(data[_INDEX_HEADER:])
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

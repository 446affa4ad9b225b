from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexdrift
from lexdrift import bundled_corpus_path
from lexdrift.cli import main

from conftest import brute_force_count
from lexdrift import load_corpus, parse_query, builtin_lexicon
from lexdrift import CountSeries, bundled_counts_path, excess_report, export_counts, import_counts


@pytest.fixture()
def sample_index(tmp_path):
    path = tmp_path / "sample.idx"
    code = main([
        "index", "--corpus", str(bundled_corpus_path()), "--out", str(path),
    ])
    assert code == 0
    return path


def _fresh_cli(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, as a user runs it, so a traceback
    would show; *env* is added to its environment."""
    src = str(Path(lexdrift.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-c", "from lexdrift.cli import main_entry; main_entry()", *argv],
        env=env, capture_output=True, text=True,
    )


def _write_corpus(tmp_path, lines: list[str]):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


# ------------------------------------------------------------------ index


def test_index_valid_corpus(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, [
        '{"id": "a", "year": 2023, "text": "intricate"}',
        '{"id": "b", "year": 2023, "text": "plain"}',
        '{"id": "c", "year": 2022, "text": "notable"}',
    ])
    out = tmp_path / "c.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "3 documents" in stdout
    assert out.exists()


def test_index_files_are_equal_under_any_hash_seed(tmp_path):
    # A set or dict ordered by string hashes would make the saved file vary
    # from one interpreter to the next.
    paths = [tmp_path / f"seed{seed}.idx" for seed in (1, 2)]
    for seed, path in zip((1, 2), paths):
        run = _fresh_cli("index", "--corpus", str(bundled_corpus_path()), "--out", str(path),
                         PYTHONHASHSEED=str(seed))
        assert run.returncode == 0, run.stderr
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_index_missing_corpus_exits_2(tmp_path, capsys):
    missing = tmp_path / "nowhere.jsonl"
    code = main(["index", "--corpus", str(missing), "--out", str(tmp_path / "x.idx")])
    assert code == 2
    assert "nowhere.jsonl" in capsys.readouterr().err


def test_index_duplicate_id_abort_exits_1(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, [
        '{"id": "a", "year": 2023, "text": "x"}',
        '{"id": "a", "year": 2023, "text": "y"}',
    ])
    code = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "x.idx")])
    assert code == 1
    assert "duplicate" in capsys.readouterr().err


def test_index_skip_policy(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, [
        '{"id": "a", "year": 2023, "text": "x"}',
        'garbage',
        '{"id": "b", "year": 2023, "text": "y"}',
    ])
    out = tmp_path / "c.idx"
    code = main([
        "index", "--corpus", str(corpus), "--out", str(out),
        "--on-error", "skip",
    ])
    assert code == 0
    assert "2 documents" in capsys.readouterr().out


def test_skip_policy_reports_skipped_lines(tmp_path, capsys):
    good = [f'{{"id": "d{i}", "year": 2023, "text": "x"}}' for i in range(3)]
    corpus = _write_corpus(tmp_path, [good[0], *["garbage"] * 7, *good[1:]])
    args = ["--corpus", str(corpus), "--on-error", "skip"]
    assert main(["index", *args, "--out", str(tmp_path / "c.idx")]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("indexed 3 documents")
    assert captured.err == "skipped 7 malformed records (lines 2, 3, 4, 5, 6, ...)\n"
    assert main(["query", "meticulous", *args]) == 0
    assert capsys.readouterr().err.startswith("skipped 7 malformed records")


def test_index_clean_corpus_reports_nothing(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, ['{"id": "a", "year": 2023, "text": "x"}'])
    args = ["index", "--corpus", str(corpus), "--out", str(tmp_path / "c.idx")]
    assert main([*args, "--on-error", "skip"]) == 0
    assert capsys.readouterr().err == ""


def test_index_non_utf8_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(
        b'{"id": "a", "year": 2023, "text": "x"}\n'
        b'{"id": "b", "year": 2023, "text": "caf\xe9"}\n'
    )
    args = ["index", "--corpus", str(corpus), "--out", str(tmp_path / "c.idx")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: not valid UTF-8 (byte 0xe9)\n"
    assert main([*args, "--on-error", "skip"]) == 0
    captured = capsys.readouterr()
    assert "indexed 1 documents" in captured.out
    assert captured.err == "skipped 1 malformed records (lines 2)\n"


def test_usage_error_exits_2(capsys):
    assert main(["index"]) == 2  # --corpus and --out are required
    assert main(["no-such-command"]) == 2


# ------------------------------------------------------------------ drift


def test_drift_normalization_example(tmp_path, capsys):
    counts = tmp_path / "c.csv"
    counts.write_text(
        "series,year,matches,total\ns,2022,200,10000\ns,2023,210,10000\n",
        encoding="utf-8",
    )
    assert main(["drift", "--counts", str(counts)]) == 0
    stdout = capsys.readouterr().out
    assert "+5.0%" in stdout
    assert "2.000%" in stdout and "2.100%" in stdout


def test_drift_group1_increase(capsys):
    assert main(["drift", "group1"]) == 0
    stdout = capsys.readouterr().out
    assert "83.5%" in stdout


def test_drift_group5_count_vs_share(capsys):
    assert main(["drift", "group5"]) == 0
    stdout = capsys.readouterr().out
    assert "11.6%" in stdout  # count increase from the raw fixture numbers
    assert "13.9%" in stdout  # share increase differs: totals shrank


def test_drift_single_year_series_renders_gap(tmp_path, capsys):
    counts = tmp_path / "c.csv"
    counts.write_text("series,year,matches,total\ns,2023,5,100\n", encoding="utf-8")
    assert main(["drift", "--counts", str(counts)]) == 0
    lines = capsys.readouterr().out.splitlines()
    row = next(l for l in lines if l.startswith("2023"))
    assert row.rstrip().endswith("-")


def test_drift_unknown_series_exits_1(capsys):
    assert main(["drift", "group99"]) == 1
    assert "group99" in capsys.readouterr().err


def test_drift_missing_counts_file_exits_2(tmp_path, capsys):
    assert main(["drift", "--counts", str(tmp_path / "ghost.csv")]) == 2
    assert "ghost.csv" in capsys.readouterr().err


def test_drift_json_and_csv_carry_identical_values(capsys):
    assert main(["drift", "group1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)[0]
    assert main(["drift", "group1", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [int(r["matches"]) for r in rows] == payload["matches"]
    assert [float(r["share"]) for r in rows] == payload["shares"]
    assert float(rows[1]["yoy"]) == payload["yoy"][1]
    assert float(rows[0]["count_increase"]) == payload["count_increase"]


def test_drift_out_file(tmp_path):
    out = tmp_path / "report.txt"
    assert main(["drift", "group1", "--out", str(out)]) == 0
    assert "83.5%" in out.read_text(encoding="utf-8")


def test_drift_year_window_from_index(sample_index, capsys):
    code = main([
        "drift", "strong", "--index", str(sample_index),
        "--from", "2021", "--to", "2023",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "2021" in stdout and "2019" not in stdout


@pytest.mark.parametrize("command", ["drift", "plot"])
@pytest.mark.parametrize("window, words", [
    (["--from", "2030"], "from 2030"),
    (["--to", "1990"], "to 1990"),
    (["--from", "2030", "--to", "2031"], "from 2030 to 2031"),
])
def test_a_window_without_years_names_its_bounds(command, window, words, capsys):
    assert main([command, "group1", *window]) == 1
    assert capsys.readouterr().err == f"error: series 'group1': no years {words}\n"


def test_a_window_keeps_the_change_of_its_first_year(tmp_path, capsys):
    # 2023's change is against 2022, which the window leaves out.
    assert main(["drift", "group1", "--format", "json"]) == 0
    whole = json.loads(capsys.readouterr().out)[0]
    assert main(["drift", "group1", "--from", "2023", "--format", "json"]) == 0
    window = json.loads(capsys.readouterr().out)[0]
    assert window["years"] == [2023] and whole["years"][-1] == 2023
    for field in ("matches", "totals", "shares", "yoy"):
        assert window[field] == whole[field][-1:]
    assert main(["drift", "group1", "--from", "2023"]) == 0
    assert capsys.readouterr().out.splitlines()[2].split() \
        == ["2023", "159655", "5260000", "3.035%", "+87.4%"]
    out = tmp_path / "yoy.svg"
    assert main(["plot", "group1", "--from", "2023", "--metric", "yoy", "--out", str(out)]) == 0
    markup = out.read_text(encoding="utf-8")
    assert markup.count('class="series-dot"') == 1 and markup.count('class="x-tick"') == 1


def test_a_count_past_the_float_range_is_refused_in_process(tmp_path, capsys):
    counts = tmp_path / "big.csv"
    counts.write_text(f"series,year,matches,total\ns,2022,1,{10**309}\n", encoding="utf-8")
    assert main(["drift", "--counts", str(counts)]) == 1
    assert capsys.readouterr().err \
        == "error: line 2: year, matches and total must fit a float\n"


# ----------------------------------------------------------------- excess


def test_excess_group4(capsys):
    assert main(["excess", "group4", "--growth", "0.05"]) == 0
    stdout = capsys.readouterr().out
    assert "666573" in stdout
    assert "85761" in stdout
    assert "1.63%" in stdout


def test_excess_group9(capsys):
    assert main(["excess", "group9", "--growth", "0.11"]) == 0
    stdout = capsys.readouterr().out
    assert "103232" in stdout
    assert "60514" in stdout


def test_excess_zero_growth_flat(tmp_path, capsys):
    counts = tmp_path / "c.csv"
    counts.write_text(
        "series,year,matches,total\ns,2022,50,100\ns,2023,50,100\n",
        encoding="utf-8",
    )
    assert main(["excess", "--counts", str(counts), "--growth", "0"]) == 0
    assert "excess: 0" in capsys.readouterr().out


def test_excess_total_override(capsys):
    assert main([
        "excess", "group4", "--growth", "0.05", "--total", "5260000",
        "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)[0]
    assert payload["excess"] == 85761
    assert round(payload["excess_share"] * 100, 2) == 1.63


def test_excess_missing_year_exits_1(tmp_path, capsys):
    counts = tmp_path / "c.csv"
    counts.write_text("series,year,matches,total\ns,2023,5,100\n", encoding="utf-8")
    assert main(["excess", "--counts", str(counts)]) == 1


def test_excess_growth_at_or_below_minus_one_exits_1(capsys):
    assert main(["excess", "group4", "--growth", "-1"]) == 1
    assert "growth" in capsys.readouterr().err
    assert main(["excess", "group4", "--growth", "-2.5"]) == 1


@pytest.mark.parametrize("growth", ["nan", "inf", "-inf"])
def test_excess_growth_not_finite_exits_1(growth):
    run = _fresh_cli("excess", "group4", f"--growth={growth}")
    assert run.returncode == 1
    assert run.stderr.startswith("error: growth must be finite")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


def test_excess_growth_overflowing_the_projection_exits_1():
    run = _fresh_cli("excess", "group4", "--growth", "1e308")
    assert run.returncode == 1
    assert run.stderr.startswith("error: growth 1e+308 projects")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


def test_excess_csv_row_is_the_excess_report(capsys):
    assert main(["excess", "group4", "--growth", "0.05", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    series = import_counts(bundled_counts_path())["group4"]
    rep = excess_report(series, base_year=series.years[0],
                        target_year=series.years[-1], growth=0.05)
    assert rows == [
        ["series", "base_year", "target_year", "growth", "expected", "actual",
         "excess", "excess_share"],
        ["group4", str(rep.base_year), str(rep.target_year), repr(rep.growth),
         str(rep.expected), str(rep.actual), str(rep.excess), repr(rep.excess_share)],
    ]


@pytest.mark.parametrize("total", [None, 10_000_000])
def test_excess_text_prints_the_report_denominator(total, capsys):
    assert main(["excess", "group4", *(["--total", str(total)] if total else [])]) == 0
    series = import_counts(bundled_counts_path())["group4"]
    rep = excess_report(series, base_year=series.years[0],
                        target_year=series.years[-1], growth=0.05, total=total)
    assert capsys.readouterr().out.endswith(
        f"excess: {rep.excess} ({rep.excess_share:.2%} of {rep.excess_denominator})\n")


def test_drift_counts_given_an_index_file_exits_1(sample_index, capsys):
    assert main(["drift", "--counts", str(sample_index)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: not valid UTF-8") and err.count("\n") == 1


def test_excess_nonpositive_total_exits_1(capsys):
    assert main(["excess", "group4", "--total", "0"]) == 1
    assert "total" in capsys.readouterr().err
    assert main(["excess", "group4", "--total", "-10"]) == 1


# ------------------------------------------------------------------ query


def test_query_counts_match_brute_force(sample_index, capsys):
    assert main([
        "query", "atleast(2, strong)", "--index", str(sample_index),
        "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    docs = load_corpus(bundled_corpus_path())
    q = parse_query("atleast(2, strong)", builtin_lexicon())
    for year, matches in zip(payload["years"], payload["matches"]):
        assert matches == brute_force_count(docs, q, year)


def test_query_disclosure_combination(sample_index, capsys):
    assert main([
        "query", "any(strong) AND any(disclosure)", "--index", str(sample_index),
    ]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("query: any(strong) AND any(disclosure)")
    assert len(stdout.splitlines()) == 7  # header + column row + 5 years


def test_query_parse_error_exits_1(sample_index, capsys):
    assert main(["query", "atleast(0, strong)", "--index", str(sample_index)]) == 1
    err = capsys.readouterr().err
    assert "at least 1" in err


def test_query_syntax_error_offset(sample_index, capsys):
    assert main(["query", "any(strong", "--index", str(sample_index)]) == 1
    assert "offset" in capsys.readouterr().err


def test_query_corpus_scan_for_unindexed_term(capsys):
    assert main([
        "query", "outwith", "--corpus", str(bundled_corpus_path()),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "2023" in stdout


def test_query_corpus_scans_a_term_outside_the_lexicon(capsys):
    corpus = bundled_corpus_path()
    assert main(["query", "zebra or outwith", "--corpus", str(corpus),
                 "--from", "2021", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    docs = load_corpus(corpus)
    q = parse_query("zebra or outwith", builtin_lexicon())
    assert payload["years"] == [2021, 2022, 2023]
    assert payload["matches"] == [brute_force_count(docs, q, y) for y in payload["years"]]
    assert payload["totals"] == [sum(d.year == y for d in docs) for y in payload["years"]]
    assert sum(payload["matches"]) > 0


def test_query_corpus_scan_applies_on_error(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, [
        '{"id": "a", "year": 2023, "text": "a zebra crossing"}',
        'garbage',
        '{"id": "b", "year": 2022, "text": "no stripes"}',
        '{"id": "a", "year": 2022, "text": "a repeated id"}',
    ])
    assert main(["query", "zebra", "--corpus", str(corpus)]) == 1
    assert capsys.readouterr().err == "error: line 2: invalid JSON (Expecting value)\n"
    assert main(["query", "zebra", "--corpus", str(corpus), "--on-error", "skip",
                 "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "year,matches,total\n2022,0,1\n2023,1,1\n"
    assert captured.err == "skipped 2 malformed records (lines 2, 4)\n"


def _stdout(capsys, argv: list[str]) -> str:
    assert main(argv) == 0, argv
    captured = capsys.readouterr()
    assert captured.err == "", argv
    return captured.out


# Three of the bundled corpus's categories renamed, so that skew prints
# categories that are not ASCII.
_NON_ASCII_CATEGORIES = {"biomedical": "informática", "engineering": "Ökologie",
                         "physical": "物理"}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_index_and_corpus_print_the_same(sample_index, tmp_path, capsys, fmt):
    bundled = str(bundled_corpus_path())
    docs = load_corpus(bundled)
    renamed = str(_write_corpus(tmp_path, [json.dumps(
        {**doc._asdict(), "categories": [_NON_ASCII_CATEGORIES.get(c, c) for c in doc.categories]},
        ensure_ascii=False) for doc in docs]))
    renamed_index = str(tmp_path / "renamed.idx")
    _stdout(capsys, ["index", "--corpus", renamed, "--out", renamed_index])
    years = sorted({doc.year for doc in docs})
    for corpus, index in ((bundled, str(sample_index)), (renamed, renamed_index)):
        for q in ["intricate", "any(strong)", "atleast(2, strong)", "any(weak) or outwith",
                  "any(strong) AND any(disclosure)", '"large language model"']:
            commands = [["query", q], ["query", q, "--from", "2021", "--to", "2022"]]
            commands += [["skew", q, "--year", str(year)] for year in years]
            for argv in commands:
                argv += ["--format", fmt]
                assert _stdout(capsys, [*argv, "--index", index]) \
                    == _stdout(capsys, [*argv, "--corpus", corpus]), argv


def test_corpus_scan_accepts_the_years_the_command_names(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, [
        '{"id": "a", "year": 1995, "text": "an intricate plan", "categories": ["x"]}',
        '{"id": "b", "year": 1996, "text": "a plain one", "categories": ["y"]}',
        '{"id": "c", "year": 1995, "text": "plain", "categories": ["y"]}',
    ])
    index = str(tmp_path / "old.idx")
    _stdout(capsys, ["index", "--corpus", str(corpus), "--out", index,
                     "--from", "1990", "--to", "1999"])
    commands = {"1990-2100": ["query", "intricate", "--from", "1990", "--to", "1999"],
                "1995-2100": ["skew", "intricate", "--year", "1995"]}
    for argv in commands.values():
        for fmt in ("text", "csv", "json"):
            assert _stdout(capsys, [*argv, "--format", fmt, "--index", index]) \
                == _stdout(capsys, [*argv, "--format", fmt, "--corpus", str(corpus)])
    # Without a window the default range applies.
    assert main(["query", "intricate", "--corpus", str(corpus)]) == 1
    assert capsys.readouterr().err == \
        "error: line 1: year 1995 outside allowed range 2000-2100\n"
    # A year outside both the default range and the named years is malformed.
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write('{"id": "d", "year": 1850, "text": "intricate"}\n')
    for accepted, argv in commands.items():
        assert main([*argv, "--corpus", str(corpus)]) == 1
        assert capsys.readouterr().err == \
            f"error: line 4: year 1850 outside allowed range {accepted}\n"
        expected = _stdout(capsys, [*argv, "--index", index])
        assert main([*argv, "--corpus", str(corpus), "--on-error", "skip"]) == 0
        assert capsys.readouterr() == (expected, "skipped 1 malformed records (lines 4)\n")


def test_a_scan_reads_the_years_between_a_named_year_and_the_default_range(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, [
        '{"id": "a", "year": 1950, "text": "an intricate plan"}',
        '{"id": "b", "year": 1975, "text": "intricate too"}',
    ])
    # --year 1950 accepts 1950-2100, so the 1975 record is read, then left
    # out by the window, not reported as malformed.
    assert main(["skew", "intricate", "--corpus", str(corpus), "--year", "1950"]) == 0
    assert capsys.readouterr() == ("year 1950: 1 of 1 documents match\n"
                                   "warning: no category metadata recorded for year 1950\n", "")
    # Under the default range, index rejects both records.
    out = str(tmp_path / "gap.idx")
    assert main(["index", "--corpus", str(corpus), "--out", out]) == 1
    assert capsys.readouterr().err == \
        "error: line 1: year 1950 outside allowed range 2000-2100\n"
    assert main(["index", "--corpus", str(corpus), "--out", out, "--on-error", "skip"]) == 0
    assert capsys.readouterr() == (f"indexed 0 documents into {out}\n",
                                   "skipped 2 malformed records (lines 1, 2)\n")


def test_a_failed_scan_reports_its_skipped_records_first(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, [
        '{"id": "a", "year": 2023, "text": "an intricate plan"}',
        'garbage',
        '{"id": "b", "year": 2030, "text": 7}',
    ])
    index = str(tmp_path / "c.idx")
    skipped = "skipped 2 malformed records (lines 2, 3)\n"
    assert main(["index", "--corpus", str(corpus), "--out", index, "--on-error", "skip"]) == 0
    assert capsys.readouterr().err == skipped
    for argv, error in ((["query", "intricate", "--from", "2030"],
                         "error: no indexed years in the requested range\n"),
                        (["skew", "intricate", "--year", "2030"],
                         "error: no documents in year 2030\n")):
        assert main([*argv, "--corpus", str(corpus), "--on-error", "skip"]) == 1
        assert capsys.readouterr() == ("", skipped + error), argv
        assert main([*argv, "--index", index]) == 1
        assert capsys.readouterr() == ("", error), argv


def test_query_nested_too_deep_exits_1(sample_index, capsys):
    text = "(" * 5000 + "intricate" + ")" * 5000
    assert main(["query", text, "--index", str(sample_index)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parentheses nested deeper") and err.count("\n") == 1


def test_query_bad_input_exits_1_with_one_line(tmp_path, capsys):
    lexicon = tmp_path / "latin1.json"
    lexicon.write_bytes(b"\xf6g=*")
    for args in (["¾"], ["strong", "--lexicon", str(lexicon)]):
        assert main(["query", *args, "--corpus", str(bundled_corpus_path())]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, args


def test_query_text_not_utf8_exits_1(tmp_path):
    out = tmp_path / "q.txt"
    # The byte 0xff reaches the command line as is.
    result = _fresh_cli("query", '"a\udcffb"', "--corpus", str(bundled_corpus_path()),
                        "--out", str(out))
    assert (result.returncode, result.stdout, result.stderr) == \
        (1, "", "error: query text is not valid UTF-8 (byte 0xff)\n")
    assert not out.exists()


def test_lone_surrogate_category_is_a_malformed_record(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, [
        '{"id": "a", "year": 2023, "text": "an intricate plan", "categories": ["\\ud800x"]}',
        '{"id": "b", "year": 2023, "text": "plain", "categories": ["y"]}',
    ])
    for fmt in ("text", "csv", "json"):
        assert main(["skew", "intricate", "--corpus", str(corpus), "--year", "2023",
                     "--format", fmt]) == 1
        assert capsys.readouterr() == (
            "", "error: line 1: field 'categories' holds a lone surrogate U+D800\n")
    assert main(["skew", "intricate", "--corpus", str(corpus), "--year", "2023",
                 "--on-error", "skip", "--format", "csv"]) == 0
    assert capsys.readouterr() == ("category,among_matches,among_all\ny,0.0,1.0\n",
                                   "skipped 1 malformed records (lines 1)\n")


@pytest.mark.parametrize("command", [["query", "intricate"],
                                     ["skew", "intricate", "--year", "2023"]])
def test_query_source_missing_exits_1(command, capsys):
    assert main(command) == 1
    assert capsys.readouterr().err == "error: either --index or --corpus is required\n"


@pytest.mark.parametrize("command", [
    ["query", "intricate", "--index", "s.idx", "--corpus", "c.jsonl"],
    ["skew", "intricate", "--year", "2023", "--corpus", "c.jsonl", "--index", "s.idx"],
    ["drift", "--index", "s.idx", "--counts", "c.csv"],
    ["excess", "--counts", "c.csv", "--index", "s.idx"],
    ["plot", "--index", "s.idx", "--counts", "builtin"],
])
def test_two_sources_are_a_usage_error(command, capsys):
    assert main(command) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_query_year_window_without_indexed_years_exits_1(sample_index, capsys):
    assert main(["query", "intricate", "--index", str(sample_index),
                 "--from", "2030", "--to", "2031"]) == 1
    assert capsys.readouterr().err == "error: no indexed years in the requested range\n"


def test_query_year_window(sample_index, capsys):
    assert main([
        "query", "any(strong)", "--index", str(sample_index),
        "--from", "2022", "--to", "2023", "--format", "csv",
    ]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "year,matches,total"
    assert len(rows) == 3


# ------------------------------------------------------------------- plot


def test_plot_two_series(sample_index, tmp_path):
    out = tmp_path / "chart.svg"
    code = main([
        "plot", "strong", "control", "--index", str(sample_index),
        "--metric", "share", "--out", str(out),
    ])
    assert code == 0
    markup = out.read_text(encoding="utf-8")
    assert markup.count("<polyline") == 2
    assert markup.count('class="x-tick"') == 5


def test_plot_byte_identical(sample_index, tmp_path):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    for out in (first, second):
        assert main([
            "plot", "strong", "--index", str(sample_index), "--out", str(out),
        ]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_plot_from_counts_fixture(tmp_path):
    out = tmp_path / "groups.svg"
    assert main([
        "plot", "group1", "group4", "--metric", "count", "--out", str(out),
    ]) == 0
    assert out.read_text(encoding="utf-8").count("<polyline") == 2


def test_plot_empty_selection_errors(tmp_path, capsys):
    counts = tmp_path / "c.csv"
    counts.write_text("series,year,matches,total\n", encoding="utf-8")
    assert main(["plot", "--counts", str(counts)]) == 1


_FLOAT_MAX = int(sys.float_info.max)


@pytest.mark.parametrize("rows, metric, message", [
    ([f"s,2022,{10**400},{10**400}"], "count",
     "error: line 2: year, matches and total must fit a float"),
    ([f"s,2021,1,{2 * 10**323}", "s,2022,1,1"], "yoy",
     "error: line 2: year, matches and total must fit a float"),
    # Every count fits a float, but the change from a share of 1/max is not finite.
    ([f"s,2021,1,{_FLOAT_MAX}", "s,2022,1,1"], "yoy",
     "error: metric 'yoy' is not finite in every year"),
    ([f"s,2022,{_FLOAT_MAX},{_FLOAT_MAX}"], "count",
     "error: metric 'count' is too large to scale an axis for"),
], ids=["count-past-float", "total-past-float", "yoy-not-finite", "count-near-float-max"])
def test_plot_of_counts_past_the_float_range_exits_1(tmp_path, rows, metric, message):
    counts = tmp_path / "big.csv"
    counts.write_text("\n".join(["series,year,matches,total", *rows]) + "\n", encoding="utf-8")
    run = _fresh_cli("plot", "s", "--counts", str(counts), "--metric", metric,
                     "--out", str(tmp_path / "big.svg"))
    assert run.returncode == 1
    assert run.stderr == message + "\n"
    assert not (tmp_path / "big.svg").exists()


# ----------------------------------------------------------------- counts


def test_counts_import_canonicalizes(tmp_path, capsys):
    messy = tmp_path / "messy.csv"
    messy.write_text(
        "series,year,matches,total\nb,2023,2,10\nb,2022,1,10\na,2022,3,10\n",
        encoding="utf-8",
    )
    assert main(["counts", "import", str(messy)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines() == [
        "series,year,matches,total",
        "b,2022,1,10",
        "b,2023,2,10",
        "a,2022,3,10",
    ]


def test_counts_import_invalid_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("series,year,matches,total\na,2022,9,5\n", encoding="utf-8")
    assert main(["counts", "import", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_counts_export_round_trips_through_import(sample_index, tmp_path, capsys):
    out = tmp_path / "exported.csv"
    assert main([
        "counts", "export", "strong", "weak", "--index", str(sample_index),
        "--out", str(out),
    ]) == 0
    exported = out.read_text(encoding="utf-8")
    assert main(["counts", "import", str(out)]) == 0
    assert capsys.readouterr().out == exported


def test_a_series_named_by_a_query_counts_what_query_counts(tmp_path, capsys):
    # The abstract's markers "in combination": a series name that is no
    # group or entry is a query, in every command that names series.
    name = "atleast(2, strong)"
    source = ["--index", str(Path(__file__).parent / "data" / "sample-v3.idx")]
    queried = json.loads(_stdout(capsys, ["query", name, *source, "--format", "json"]))
    assert queried["matches"] == [0, 0, 0, 0, 5]
    rows = list(zip(queried["years"], queried["matches"], queried["totals"]))
    for fmt in ("text", "csv", "json"):
        drift = _stdout(capsys, ["drift", name, *source, "--format", fmt])
        excess = _stdout(capsys, ["excess", name, *source, "--format", fmt])
        if fmt == "json":
            (drift,), (excess,) = json.loads(drift), json.loads(excess)
            assert (drift["series"], drift["matches"]) == (name, queried["matches"])
            assert excess["matches"] == queried["matches"]
            assert excess["actual"] == queried["matches"][-1]
        elif fmt == "csv":
            drift_rows = list(csv.DictReader(io.StringIO(drift)))
            assert [(int(r["year"]), int(r["matches"]), int(r["total"])) for r in drift_rows] \
                == rows
            (excess_row,) = csv.DictReader(io.StringIO(excess))
            assert int(excess_row["actual"]) == queried["matches"][-1]
        else:
            title, _, *table = drift.splitlines()
            assert title == f"series: {name}"
            assert [tuple(map(int, line.split()[:3])) for line in table] == rows
            assert f"actual 2023: {queried['matches'][-1]}\n" in excess
    exported = _stdout(capsys, ["counts", "export", name, *source])
    assert exported == export_counts({name: CountSeries(name, {
        year: (matches, total) for year, matches, total in rows})})
    counts = tmp_path / "counts.csv"
    counts.write_text(exported, encoding="utf-8")
    assert _stdout(capsys, ["plot", name, *source, "--metric", "count"]) \
        == _stdout(capsys, ["plot", name, "--counts", str(counts), "--metric", "count"])


@pytest.mark.parametrize("name, problem", [
    ("group1", "unexpected input '1' (byte offset 5)"),
    ("nosuch", "term 'nosuch' is not in the index vocabulary"),
])
def test_a_series_read_as_a_query_says_so(name, problem, capsys):
    # No command that counts a series can scan a corpus, so none of them
    # advises a scan.
    index = str(Path(__file__).parent / "data" / "sample-v3.idx")
    for command in (["drift"], ["excess"], ["plot"], ["counts", "export"]):
        assert main([*command, name, "strong", "--index", index]) == 1
        assert capsys.readouterr() == ("", f"error: series {name!r} is no group or entry of "
                                           f"the index; as a query: {problem}\n")
    # query and skew take --corpus, so they still advise one.
    for command in (["query"], ["skew", "--year", "2023"]):
        assert main([*command, "nosuch", "--index", index]) == 1
        assert capsys.readouterr().err == ("error: term 'nosuch' is not in the index vocabulary; "
                                           "evaluate it with a corpus scan instead\n")


# ------------------------------------------------------------------- skew


def test_skew_command(sample_index, capsys):
    assert main([
        "skew", "any(adjective)", "--index", str(sample_index), "--year", "2023",
    ]) == 0
    stdout = capsys.readouterr().out
    assert "documents match" in stdout
    assert "biomedical" in stdout


def test_skew_json(sample_index, capsys):
    assert main([
        "skew", "any(strong)", "--index", str(sample_index), "--year", "2023",
        "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matched"] == 8
    shares = [v["among_all"] for v in payload["categories"].values()]
    assert all(0 <= s <= 1 for s in shares)


def test_skew_corpus_scans_a_term_outside_the_lexicon(capsys):
    corpus = bundled_corpus_path()
    docs = load_corpus(corpus)
    q = parse_query("catalyst or intricate", builtin_lexicon())
    assert main(["skew", "catalyst or intricate", "--corpus", str(corpus),
                 "--year", "2023", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    matched = brute_force_count(docs, q, 2023)
    assert 0 < matched < payload["total"] == sum(d.year == 2023 for d in docs)
    assert payload["matched"] == matched
    assert payload["categories"]
    for cat, row in payload["categories"].items():
        in_cat = [d for d in docs if cat in d.categories]
        assert row["among_matches"] == brute_force_count(in_cat, q, 2023) / matched
        assert row["among_all"] == sum(d.year == 2023 for d in in_cat) / payload["total"]
    # A term outside the lexicon that no document holds.
    assert main(["skew", "zebra", "--corpus", str(corpus), "--year", "2023"]) == 0
    assert capsys.readouterr().out.startswith("year 2023: 0 of 20 documents match\n")


def test_skew_text_warns_of_a_year_without_categories(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, [
        '{"id": "a", "year": 2023, "text": "an intricate plan"}',
        '{"id": "b", "year": 2023, "text": "a plain one"}',
    ])
    assert main(["skew", "intricate", "--corpus", str(corpus), "--year", "2023"]) == 0
    assert capsys.readouterr().out == (
        "year 2023: 1 of 2 documents match\n"
        "warning: no category metadata recorded for year 2023\n"
    )


def test_skew_corpus_scan_applies_on_error(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, [
        '{"id": "a", "year": 2023, "text": "a zebra crossing", "categories": ["x"]}',
        'garbage',
        '{"id": "b", "year": 2023, "text": "no stripes", "categories": ["y"]}',
        '{"id": "a", "year": 2023, "text": "a repeated id"}',
    ])
    assert main(["skew", "zebra", "--corpus", str(corpus), "--year", "2023"]) == 1
    assert capsys.readouterr().err == "error: line 2: invalid JSON (Expecting value)\n"
    assert main(["skew", "zebra", "--corpus", str(corpus), "--year", "2023",
                 "--on-error", "skip", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "category,among_matches,among_all\nx,1.0,0.5\ny,0.0,0.5\n"
    assert captured.err == "skipped 2 malformed records (lines 2, 4)\n"
    index = str(tmp_path / "c.idx")
    assert main(["index", "--corpus", str(corpus), "--out", index, "--on-error", "skip"]) == 0
    capsys.readouterr()
    # A year with no documents is the same error from a scan and from an
    # index; the scan first reports the records it skipped.
    error = "error: no documents in year 2030\n"
    for source, expected in ((["--corpus", str(corpus), "--on-error", "skip"],
                              "skipped 2 malformed records (lines 2, 4)\n" + error),
                             (["--index", index], error)):
        assert main(["skew", "zebra", *source, "--year", "2030"]) == 1
        assert capsys.readouterr().err == expected

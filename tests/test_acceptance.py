"""Acceptance gate: eight end-to-end criteria, one visible PASS/FAIL line
each. Reference values come from the bundled count fixture; the equivalence
and performance criteria run on synthetic corpora generated in-test."""

from __future__ import annotations

import json
import random
import time

from lexdrift import (
    Document,
    IndexBuilder,
    Term,
    build_index,
    builtin_lexicon,
    bundled_counts_path,
    count_increase,
    eval_count,
    excess_report,
    implied_total_ratio,
    import_counts,
    load_index,
    save_index,
    series_from_index,
    tokenize,
    yoy_change,
)
from lexdrift.cli import main

from conftest import _matches, make_random_corpus, make_random_query


def _report(capsys, number: int, description: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[criterion {number}] {verdict}: {description}")
    assert ok, f"criterion {number} failed: {description} {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_table_reproduction(capsys):
    t0 = time.perf_counter()
    code = main(["drift", "group1", "group2", "group3", "group4", "group5"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    increases = [
        line.split(": ")[1]
        for line in out.splitlines()
        if line.startswith("count increase 2022->2023")
    ]
    expected = ["+83.5%", "+16.3%", "+9.3%", "+18.5%", "+11.6%"]
    ok = code == 0 and increases == expected and elapsed < 1.0
    _report(
        capsys, 1,
        "count-based 2022->2023 increases for groups 1-5 are "
        "83.5/16.3/9.3/18.5/11.6% at one decimal, in under 1 s",
        ok, f"(got {increases}, {elapsed:.3f}s)",
    )


def test_criterion_2_excess_reproduction(capsys):
    t0 = time.perf_counter()
    results = {}
    for group, growth in (("group4", "0.05"), ("group5", "0.05"),
                          ("group9", "0.11"), ("group10", "0.11")):
        code = main(["excess", group, "--growth", growth, "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)[0]
        results[group] = (payload["expected"], payload["excess"])
    elapsed = time.perf_counter() - t0
    want = {
        "group4": (666573, 85761),
        "group5": (1050914, 65772),
        "group9": (103232, 60514),
        "group10": (230338, 65735),
    }
    ok = results == want and elapsed < 1.0
    _report(
        capsys, 2,
        "excess projections reproduce (666573, 85761), (1050914, 65772), "
        "(103232, 60514), (230338, 65735) exactly, in under 1 s",
        ok, f"(got {results}, {elapsed:.3f}s)",
    )


def test_criterion_3_multi_term_rows(capsys):
    series_map = import_counts(bundled_counts_path())
    printed_share_based = {
        "group6": 4.684, "group7": 0.677, "group8": 0.351,
        "group9": 0.798, "group10": 0.457,
    }
    want_count_based = {
        "group6": "456.7", "group7": "64.2", "group8": "32.3",
        "group9": "76.1", "group10": "42.7",
    }
    got = {}
    ratios = {}
    for sid, share_inc in printed_share_based.items():
        series = series_map[sid]
        inc = count_increase(series.matches(2022), series.matches(2023))
        got[sid] = f"{inc * 100:.1f}"
        ratios[sid] = implied_total_ratio(inc, share_inc)
    ok = got == want_count_based and all(
        1.019 <= r <= 1.023 for r in ratios.values()
    )
    _report(
        capsys, 3,
        "rows 6-10 count increases are 456.7/64.2/32.3/76.1/42.7% and every "
        "implied totals ratio lies in [1.019, 1.023]",
        ok, f"(got {got}, ratios {ratios})",
    )


def test_criterion_4_normalization_example(capsys):
    change = yoy_change(0.0210, 0.0200)
    ok = abs(change - 0.05) < 1e-12 and f"{change * 100:+.1f}%" == "+5.0%"
    _report(
        capsys, 4,
        "yoy_change(0.0210, 0.0200) is +5.0% exactly",
        ok, f"(got {change!r})",
    )


def test_criterion_5_oracle_equivalence(capsys):
    rng = random.Random(2024)
    lexicon = builtin_lexicon()
    mismatches = 0
    checked = 0
    t0 = time.perf_counter()
    for _ in range(50):
        start = rng.randrange(2003, 2021)
        years = (start, start + 1, start + 2)
        docs = make_random_corpus(rng, lexicon, rng.randrange(50, 201), years)
        index = build_index(docs, lexicon)
        token_cache = [(d.year, tokenize(d.text)) for d in docs]
        for _ in range(100):
            q = make_random_query(rng, lexicon)
            year = rng.choice(years)
            fast = eval_count(index, q, year)
            slow = sum(
                1 for dy, toks in token_cache
                if dy == year and _matches(toks, q)
            )
            checked += 1
            if fast != slow:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and checked == 5000 and elapsed < 60.0
    _report(
        capsys, 5,
        "5000 random queries over 50 random corpora match per-document "
        "brute force with zero mismatches, in under 60 s",
        ok, f"({mismatches} mismatches, {elapsed:.1f}s)",
    )


def test_criterion_6_synthetic_injection(capsys):
    # Flat 20%-growth marker counts for four years, then a constructed jump:
    # 75 extra marked documents beyond the organic projection.
    totals = 1000
    organic = {2019: 125, 2020: 150, 2021: 180, 2022: 216}
    projection = 259  # 216 * 1.2, rounded half away from zero
    injected = 75
    year_counts = dict(organic)
    year_counts[2023] = projection + injected

    docs = []
    for year, marked in year_counts.items():
        for i in range(totals):
            text = "an intricate design" if i < marked else "a plain design"
            docs.append(Document(id=f"{year}-{i:04d}", year=year, text=text))

    index = build_index(docs, builtin_lexicon())
    series = series_from_index(index, "intricate")
    # The growth allowance is the largest year-on-year change of the share
    # before the injection.
    growth = max(series.yoy_at(year) for year in (2020, 2021, 2022))
    report = excess_report(
        series, base_year=2022, target_year=2023, growth=growth
    )
    ok = abs(report.excess - injected) <= 1
    _report(
        capsys, 6,
        "pipeline recovers a 75-document injected excess within +/-1 at the "
        "historically observed growth rate",
        ok, f"(growth {growth!r}, excess {report.excess})",
    )


def test_criterion_7_determinism_and_persistence(capsys, tmp_path):
    rng = random.Random(777)
    lexicon = builtin_lexicon()
    docs = make_random_corpus(rng, lexicon, 180, (2021, 2022, 2023))

    whole = build_index(docs, lexicon)
    shuffled = docs[:]
    rng.shuffle(shuffled)
    reordered = build_index(shuffled, lexicon)
    parts = [IndexBuilder(lexicon) for _ in range(3)]
    for i, doc in enumerate(docs):
        parts[i % 3].add(doc)
    parts[0].merge(parts[1])
    parts[0].merge(parts[2])
    partitioned = parts[0].finish()

    path = tmp_path / "round.idx"
    save_index(whole, path)
    reloaded = load_index(path)
    files_identical = True
    for other in (reordered, partitioned):
        other_path = tmp_path / "other.idx"
        save_index(other, other_path)
        files_identical &= other_path.read_bytes() == path.read_bytes()

    queries = [make_random_query(rng, lexicon) for _ in range(60)]
    identical = True
    for q in queries:
        for year in whole.years:
            reference = eval_count(whole, q, year)
            for other in (reordered, partitioned, reloaded):
                if eval_count(other, q, year) != reference:
                    identical = False

    counts_preserved = all(
        eval_count(reloaded, Term(t), y) == eval_count(whole, Term(t), y)
        for t in lexicon.terms() for y in whole.years
    ) and all(reloaded.total(y) == whole.total(y) for y in whole.years)

    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    for target in (first, second):
        code = main(["plot", "group1", "group4", "--metric", "count",
                     "--out", str(target)])
        assert code == 0
    plots_identical = first.read_bytes() == second.read_bytes()

    ok = identical and files_identical and counts_preserved and plots_identical
    _report(
        capsys, 7,
        "index build and file are order/partition invariant, save/load "
        "preserves all counts, and repeated plots are byte-identical",
        ok,
    )


def test_criterion_8_desk_scale_performance(capsys):
    rng = random.Random(88)
    lexicon = builtin_lexicon()
    marker_pool = [t for t in lexicon.terms() if " " not in t]
    filler_pool = [f"w{i:03d}" for i in range(600)]
    chunks = []
    for _ in range(400):
        words = [rng.choice(filler_pool) for _ in range(20)]
        if rng.random() < 0.5:
            words[rng.randrange(20)] = rng.choice(marker_pool)
        chunks.append(" ".join(words))
    docs = [
        Document(
            id=f"p{i:06d}",
            year=2019 + i % 5,
            text=" ".join(rng.choice(chunks) for _ in range(10)),
        )
        for i in range(100_000)
    ]

    t0 = time.perf_counter()
    index = build_index(docs, lexicon)
    elapsed = time.perf_counter() - t0

    ok = index.doc_count == 100_000 and elapsed < 60.0
    _report(
        capsys, 8,
        "indexing 100,000 ~200-word documents completes in under 60 s "
        "single-threaded",
        ok, f"({elapsed:.1f}s)",
    )

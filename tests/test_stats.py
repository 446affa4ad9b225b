from __future__ import annotations

import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexdrift import (
    And,
    CountsFormatError,
    DataError,
    Document,
    Lexicon,
    Or,
    Term,
    TermEntry,
    UndefinedChangeError,
    baseline_projection,
    build_index,
    bundled_counts_path,
    category_skew,
    count_increase,
    drift_report,
    excess,
    excess_report,
    export_counts,
    implied_total_ratio,
    import_counts,
    load_index,
    series_from_index,
    share,
    share_increase,
    yoy_change,
)
from lexdrift.cli import main
from lexdrift.index import scan_index
from lexdrift.stats import CountSeries

from conftest import SAMPLE_INDEX

from conftest import FILLER, make_random_corpus, make_random_query


# ------------------------------------------------------------- primitives


def test_share_examples():
    assert share(117, 1000) == 0.117
    assert share(0, 5) == 0
    assert share(5, 5) == 1


def test_share_errors():
    with pytest.raises(ValueError):
        share(1, 0)
    with pytest.raises(ValueError):
        share(6, 5)
    with pytest.raises(ValueError):
        share(-1, 5)


def test_yoy_normalization_example():
    assert yoy_change(0.0210, 0.0200) == pytest.approx(0.05, abs=1e-12)


def test_yoy_identity_and_gap():
    assert yoy_change(0.3, 0.3) == 0
    with pytest.raises(UndefinedChangeError):
        yoy_change(0.1, 0.0)


def test_count_increase_reference_rows():
    assert round(count_increase(86988, 159655), 3) == 0.835
    assert round(count_increase(574753, 668535), 3) == 0.163
    assert round(count_increase(3045, 16950), 3) == 4.567
    with pytest.raises(UndefinedChangeError):
        count_increase(0, 5)


def test_share_increase_flat_prevalence():
    assert share_increase(100, 1000, 150, 1500) == pytest.approx(0.0)


def test_share_increase_under_implied_totals():
    ratio = 1.0212
    n_curr_total = 1_000_000
    n_prev_total = round(n_curr_total * ratio)
    inc = share_increase(86988, n_prev_total, 159655, n_curr_total)
    assert round(inc, 3) == 0.874


@given(st.integers(1, 10**6), st.integers(0, 10**6), st.integers(1, 10**6))
def test_share_increase_equals_count_increase_when_totals_equal(n_prev, n_curr, total):
    n_prev = min(n_prev, total)
    n_curr = min(n_curr, total)
    assert share_increase(n_prev, total, n_curr, total) == pytest.approx(
        count_increase(n_prev, n_curr)
    )


def test_implied_total_ratio_reference_values():
    assert round(implied_total_ratio(0.835, 0.874), 4) == 1.0213
    assert round(implied_total_ratio(4.567, 4.684), 4) == 1.0210


@given(st.floats(-0.99, 10))
def test_implied_total_ratio_identity(c):
    assert implied_total_ratio(c, c) == pytest.approx(1.0)


def test_primitives_reject_arguments_outside_their_domain():
    with pytest.raises(UndefinedChangeError, match="totals"):
        share_increase(1, 0, 1, 10)
    with pytest.raises(UndefinedChangeError, match="previous count"):
        share_increase(0, 10, 1, 10)
    with pytest.raises(ValueError, match="greater than -1"):
        implied_total_ratio(-1.0, 0.5)
    with pytest.raises(ValueError, match="base count"):
        baseline_projection(-1, 0.05)


def test_baseline_projection_reference_values():
    assert baseline_projection(634831, 0.05) == 666573
    assert baseline_projection(1000870, 0.05) == 1050914  # the .5 tie
    assert baseline_projection(93002, 0.11) == 103232
    assert baseline_projection(207512, 0.11) == 230338


def test_baseline_projection_rounds_half_away_from_zero():
    assert baseline_projection(3, 0.5) == 5  # 4.5 -> 5, not banker's 4
    assert baseline_projection(5, -0.5) == 3  # 2.5 -> 3
    assert baseline_projection(50, 0.13) == 57  # 56.5, whose double is 56.49999999999999


def _exact_projection(n_base: int, growth: float) -> int:
    """The README's projection in exact arithmetic: round(n_base × (1 +
    growth)), half away from zero, growth read as its repr spells it."""
    return math.floor(n_base * (1 + Fraction(repr(growth))) + Fraction(1, 2))


# Growths of up to four decimals, and bases of which a growth of two decimals
# makes an exact half (50 * 1.13), which a product in doubles can round down.
@given(st.integers(0, 10**7) | st.integers(0, 10**5).map(lambda m: 50 * m),
       st.integers(-99, 10**3).map(lambda k: k / 100)
       | st.integers(-9999, 10**5).map(lambda k: k / 10**4)
       | st.floats(-1.0, 1e6, exclude_min=True, allow_nan=False))
def test_baseline_projection_is_exact(n_base, growth):
    assert baseline_projection(n_base, growth) == _exact_projection(n_base, growth)


@pytest.mark.parametrize("growth", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_baseline_projection_rejects_growth_not_finite_above_minus_one(growth):
    with pytest.raises(ValueError, match="growth"):
        baseline_projection(10, growth)


# 10 * (1 + 1e308) is infinite, and 10**400 has no float at all.
@pytest.mark.parametrize("n_base, growth", [(10, 1e308), (10**400, 0.05)])
def test_baseline_projection_past_the_float_range_is_a_value_error(n_base, growth):
    with pytest.raises(ValueError, match="growth"):
        baseline_projection(n_base, growth)


@given(st.integers(0, 10**9))
def test_baseline_projection_zero_growth_is_identity(n):
    assert baseline_projection(n, 0) == n


def test_excess_reference_values():
    assert excess(752334, 666573) == (85761, None)
    assert excess(163746, 103232) == (60514, None)
    assert excess(296073, 230338) == (65735, None)


def test_excess_shares_to_two_decimals():
    total = 5_260_000
    for actual, expected, want in (
        (752334, 666573, 1.63),
        (1116686, 1050914, 1.25),
        (163746, 103232, 1.15),
        (296073, 230338, 1.25),
    ):
        _, frac = excess(actual, expected, total)
        assert round(frac * 100, 2) == want


def test_excess_identity_and_negative():
    assert excess(10, 10) == (0, None)
    assert excess(5, 10)[0] == -5  # declining markers are reported as-is


@given(st.integers(1, 10**6), st.integers(0, 2 * 10**6),
       st.floats(0, 1), st.floats(0.001, 1))
def test_excess_decreases_as_growth_rises(base, actual, g, dg):
    lo, _ = excess(actual, baseline_projection(base, g))
    hi, _ = excess(actual, baseline_projection(base, g + dg))
    assert hi <= lo
    if base * dg >= 1:  # projection must move by >= 1 whole document
        assert hi < lo


@given(st.integers(0, 1000), st.integers(1, 1000), st.integers(1, 50))
def test_share_scale_invariance(matches, extra, factor):
    total = matches + extra
    assert share(matches * factor, total * factor) == pytest.approx(
        share(matches, total)
    )


# ------------------------------------------------------------ CountSeries


def _series(points: dict[int, tuple[int, int]], sid: str = "s") -> CountSeries:
    return CountSeries(sid, points)


def test_series_validation():
    with pytest.raises(DataError):
        _series({2022: (10, 5)})  # matches > total
    with pytest.raises(DataError):
        _series({2022: (1, 0)})
    with pytest.raises(DataError):
        CountSeries("", {2022: (1, 2)})


def test_series_names_a_missing_year():
    with pytest.raises(DataError, match="has no year 2022"):
        _series({2023: (5, 10)}).matches(2022)


def test_series_yoy_gap_for_zero_share():
    series = _series({2020: (0, 100), 2021: (5, 100)})
    assert series.yoy_at(2021) is None


def test_series_yoy_gap_for_missing_year():
    series = _series({2020: (5, 100), 2022: (5, 100)})
    assert series.yoy_at(2022) is None


def test_series_slice():
    series = _series({y: (y - 2018, 100) for y in range(2019, 2024)})
    window = series.slice(2020, 2022)
    assert window.years == (2020, 2021, 2022)
    with pytest.raises(DataError):
        series.slice(2030, 2031)


# ---------------------------------------------------------------- CSV I/O


def test_import_reference_fixture():
    series_map = import_counts(bundled_counts_path())
    assert set(series_map) == {f"group{i}" for i in range(1, 11)}
    g1 = series_map["group1"]
    assert g1.matches(2022) == 86988
    assert round(count_increase(g1.matches(2022), g1.matches(2023)), 3) == 0.835


def test_import_rejects_matches_over_total():
    with pytest.raises(CountsFormatError, match="line 2"):
        import_counts(io.StringIO("series,year,matches,total\na,2022,10,5\n"))


def test_import_rejects_duplicates():
    with pytest.raises(CountsFormatError, match="duplicate"):
        import_counts(io.StringIO(
            "series,year,matches,total\na,2022,1,5\na,2022,2,5\n"
        ))


def test_import_rejects_bad_header():
    with pytest.raises(CountsFormatError, match="header"):
        import_counts(io.StringIO("nope,year,matches,total\n"))


def test_import_rejects_non_integer():
    with pytest.raises(CountsFormatError, match="line 2"):
        import_counts(io.StringIO("series,year,matches,total\na,2022,x,5\n"))


def test_import_rejects_bytes_not_utf8_by_line(tmp_path):
    path = tmp_path / "c.csv"
    path.write_bytes(b"series,year,matches,total\ncaf\xc3\xa9,2022,1,5\ncaf\xe9,2023,1,5\n")
    with pytest.raises(CountsFormatError, match=r"line 3: not valid UTF-8 \(byte 0xe9\)") as err:
        import_counts(path)
    assert err.value.line == 3


def test_import_reads_a_binary_stream_like_text():
    # Each line is decoded as a file's is, so a bad byte is named by line.
    text = b"series,year,matches,total\r\ncaf\xc3\xa9,2022,1,5\r\n"
    assert import_counts(io.BytesIO(text)) == import_counts(io.StringIO(text.decode(), newline=""))
    with pytest.raises(CountsFormatError, match=r"^line 3: not valid UTF-8 \(byte 0xe9\)$") as err:
        import_counts(io.BytesIO(text + b"caf\xe9,2023,1,5\n"))
    assert err.value.line == 3


def test_import_rejects_a_nul_by_line_on_every_python(tmp_path, capsys):
    # csv refuses a NUL before Python 3.11 and keeps it from then on; the
    # table is refused alike on each.
    path = tmp_path / "c.csv"
    path.write_bytes(b"series,year,matches,total\na\0b,2022,1,5\n")
    with pytest.raises(CountsFormatError, match=r"^line 2: line contains NUL$") as err:
        import_counts(path)
    assert err.value.line == 2
    assert main(["counts", "import", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: line 2: line contains NUL\n")


def test_import_names_the_line_of_an_empty_series_id():
    text = "series,year,matches,total\na,2022,1,5\n  ,2023,1,5\n"
    with pytest.raises(CountsFormatError, match=r"^line 3: series id must be non-empty$") as err:
        import_counts(io.StringIO(text))
    assert err.value.line == 3


def test_import_rejects_a_field_past_the_csv_limit():
    text = "series,year,matches,total\n" + "a" * 200_000 + ",2022,1,5\n"
    with pytest.raises(CountsFormatError, match="line 2: field larger"):
        import_counts(io.StringIO(text))


def test_import_empty_file():
    with pytest.raises(CountsFormatError):
        import_counts(io.StringIO(""))


def test_export_round_trip_is_identity():
    original = bundled_counts_path().read_text(encoding="utf-8")
    assert export_counts(import_counts(bundled_counts_path())) == original


def test_export_sorts_years():
    series_map = import_counts(io.StringIO(
        "series,year,matches,total\na,2023,2,10\na,2022,1,10\n"
    ))
    text = export_counts(series_map)
    assert text.splitlines()[1:] == ["a,2022,1,10", "a,2023,2,10"]


def test_import_rejects_a_zero_total():
    with pytest.raises(CountsFormatError, match="line 2: matches must be >= 0"):
        import_counts(io.StringIO("series,year,matches,total\na,2022,0,0\n"))


# ---------------------------------------------------------------- reports


def test_drift_report_shares_and_yoy():
    series = _series({2022: (200, 10000), 2023: (210, 10000)})
    report = drift_report(series)
    assert report.shares == (0.02, 0.021)
    assert report.yoy[0] is None
    assert report.yoy[1] == pytest.approx(0.05, abs=1e-12)
    assert report.count_increase == pytest.approx(0.05, abs=1e-12)


def test_drift_report_single_year():
    report = drift_report(_series({2023: (5, 10)}))
    assert report.count_increase is None
    assert report.yoy == (None,)


def test_excess_report_reference_values():
    series_map = import_counts(bundled_counts_path())
    for sid, growth, want_expected, want_excess, want_share in (
        ("group4", 0.05, 666573, 85761, 1.63),
        ("group5", 0.05, 1050914, 65772, 1.25),
        ("group9", 0.11, 103232, 60514, 1.15),
        ("group10", 0.11, 230338, 65735, 1.25),
    ):
        report = excess_report(
            series_map[sid], base_year=2022, target_year=2023, growth=growth
        )
        assert report.expected == want_expected
        assert report.excess == want_excess
        assert round(report.excess_share * 100, 2) == want_share


def test_excess_report_total_override():
    series = _series({2022: (100, 1000), 2023: (160, 1000)})
    report = excess_report(
        series, base_year=2022, target_year=2023, growth=0.1, total=2000
    )
    assert report.expected == 110
    assert report.excess == 50
    assert report.excess_share == pytest.approx(0.025)


def test_excess_report_carries_the_share_denominator():
    series = _series({2022: (100, 1000), 2023: (160, 800)})
    for total, denominator in ((None, 800), (2000, 2000)):
        report = excess_report(series, base_year=2022, target_year=2023,
                               growth=0.1, total=total)
        assert report.excess_denominator == denominator
        assert report.excess_share == report.excess / denominator


def test_excess_report_zero_growth_flat_series():
    series = _series({2022: (100, 1000), 2023: (100, 1000)})
    report = excess_report(series, base_year=2022, target_year=2023, growth=0)
    assert report.excess == 0


# ------------------------------------------------------------------ index


def test_series_from_an_empty_index_is_a_data_error(lexicon):
    with pytest.raises(DataError, match="no documents"):
        series_from_index(build_index([], lexicon), "strong")


def _corpus_with_mix() -> list[Document]:
    docs = []
    for i in range(40):
        # engineering docs are twice as likely to carry the marker
        cat = "engineering" if i % 2 else "biomedical"
        marked = (i % 2 and i < 20) or (i % 2 == 0 and i < 10)
        text = "intricate results" if marked else "plain results"
        docs.append(Document(
            id=f"m{i}", year=2023, text=text, categories=(cat,),
        ))
    return docs


def test_series_from_index(lexicon):
    docs = [
        Document(id="a", year=2022, text="intricate"),
        Document(id="b", year=2022, text="plain"),
        Document(id="c", year=2023, text="intricate and meticulous"),
    ]
    index = build_index(docs, lexicon)
    series = series_from_index(index, "intricate")
    assert series.points == {2022: (1, 2), 2023: (1, 1)}
    strong = series_from_index(index, "strong")
    assert strong.matches(2023) == 1
    with pytest.raises(DataError, match="^series 'zzz' is no group or entry of the index; "
                       "as a query: term 'zzz' is not in the index vocabulary$"):
        series_from_index(index, "zzz")


def test_a_group_series_counts_what_atleast_one_of_its_members_counts():
    # A group name means any(group), which is atleast(1, group).
    index = load_index(SAMPLE_INDEX)
    group = series_from_index(index, "strong")
    assert group.points == series_from_index(index, "atleast(1, strong)").points
    assert any(matches for matches, _ in group.points.values())


def test_category_skew_recovers_constructed_mix(lexicon):
    index = build_index(_corpus_with_mix(), lexicon)
    skew = category_skew(index, Term("intricate"), 2023)
    assert skew.matched == 15
    among_matches = {cat: m for cat, (m, _) in skew.rows.items()}
    assert among_matches["engineering"] == pytest.approx(10 / 15)
    assert among_matches["biomedical"] == pytest.approx(5 / 15)
    among_all = {cat: a for cat, (_, a) in skew.rows.items()}
    assert among_all["engineering"] == pytest.approx(0.5)
    # skew ratio engineering : biomedical is 2 : 1
    ratio = (among_matches["engineering"] / among_all["engineering"]) / (
        among_matches["biomedical"] / among_all["biomedical"]
    )
    assert ratio == pytest.approx(2.0)


def test_category_skew_symmetric_mix(lexicon):
    docs = []
    for i in range(20):
        cat = ("x",) if i % 2 else ("y",)
        text = "intricate" if i < 10 else "plain"
        docs.append(Document(id=f"s{i}", year=2023, text=text, categories=cat))
    skew = category_skew(build_index(docs, lexicon), Term("intricate"), 2023)
    for cat, (among_matches, among_all) in skew.rows.items():
        assert among_matches == pytest.approx(among_all)


def test_category_skew_without_categories(lexicon):
    docs = [Document(id="a", year=2023, text="intricate")]
    skew = category_skew(build_index(docs, lexicon), Term("intricate"), 2023)
    assert skew.rows == {}
    assert skew.warning is not None


def test_category_skew_multi_category_doc(lexicon):
    docs = [
        Document(id="a", year=2023, text="intricate",
                 categories=("x", "y")),
        Document(id="b", year=2023, text="plain", categories=("x",)),
    ]
    skew = category_skew(build_index(docs, lexicon), Term("intricate"), 2023)
    assert skew.rows["x"] == (pytest.approx(1.0), pytest.approx(1.0))
    assert skew.rows["y"] == (pytest.approx(1.0), pytest.approx(0.5))


def test_category_skew_scan_equals_index_path(lexicon):
    # "GPT" is case-sensitive next to the builtin "gpt", and the random
    # corpora hold both spellings.
    cased = Lexicon("cased", lexicon.entries + (TermEntry("GPT", "disclosure", True),),
                    lexicon.strength)
    rng = random.Random(5)
    for lex in (lexicon, cased):
        # A scan over *lex* answers filler words, outside it, as an index
        # over a lexicon that holds them does.
        wider = Lexicon("wider", lex.entries + tuple(TermEntry(w, "extra") for w in FILLER),
                        lex.strength)
        for _ in range(20):
            docs = make_random_corpus(rng, lex, 60, (2022, 2023))
            index = build_index(docs, lex)
            q = make_random_query(rng, lex)
            outside = Term(rng.choice(FILLER))
            widened = And((q, outside)) if rng.random() < 0.5 else Or((q, outside))
            for year in (2022, 2023):
                assert category_skew(scan_index(docs, lex, q), q, year) == \
                    category_skew(index, q, year)
                assert category_skew(scan_index(docs, lex, widened), widened, year) == \
                    category_skew(build_index(docs, wider), widened, year)

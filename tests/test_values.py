"""The public value types: their reprs, equality, hashing, immutability,
construction and validation, pinned whatever implements them."""

from __future__ import annotations

import copy
import gc
import pickle

import pytest

from lexdrift import (
    And,
    AnyOf,
    AtLeastK,
    CategorySkew,
    CountSeries,
    DataError,
    DriftReport,
    Document,
    Lexicon,
    LexiconError,
    Or,
    Phrase,
    PlotSpec,
    Term,
    TermEntry,
    drift_report,
    eval_count,
)
from lexdrift.index import scan_index

ENTRY = TermEntry("a", "adjective")
LEXICON = Lexicon("x", (ENTRY,), {"strong": ("a",)})
SERIES = CountSeries("s", {2021: (1, 2), 2020: (1, 3)})
SKEW = CategorySkew(2020, 1, 2, {"c": (1.0, 0.5)})

# Each value, then its repr.
REPRS = [
    (Term("a"), "Term(term='a')"),
    (Phrase(("a", "b")), "Phrase(tokens=('a', 'b'))"),
    (AnyOf(("a",)), "AnyOf(members=('a',))"),
    (AtLeastK(1, ("a",)), "AtLeastK(k=1, members=('a',))"),
    (And((Term("a"), Phrase(("b", "c")))),
     "And(parts=(Term(term='a'), Phrase(tokens=('b', 'c'))))"),
    (Or((Term("a"),)), "Or(parts=(Term(term='a'),))"),
    (Document(id="a", year=2020, text="t"),
     "Document(id='a', year=2020, text='t', categories=())"),
    (ENTRY, "TermEntry(term='a', role='adjective', case_sensitive=False)"),
    (LEXICON, "Lexicon(name='x', entries=(TermEntry(term='a', role='adjective', "
              "case_sensitive=False),), strength={'strong': ('a',)})"),
    (SERIES, "CountSeries(series_id='s', points={2020: (1, 3), 2021: (1, 2)})"),
    (SKEW, "CategorySkew(year=2020, matched=1, total=2, rows={'c': (1.0, 0.5)}, "
           "warning=None)"),
    (PlotSpec(series=["a"]), "PlotSpec(series=('a',), metric='share', from_year=None, "
                             "to_year=None, width=900, height=480)"),
    (drift_report(SERIES),
     "DriftReport(series_id='s', years=(2020, 2021), matches=(1, 1), totals=(3, 2), "
     "shares=(0.3333333333333333, 0.5), yoy=(None, 0.5), base_year=2020, "
     "target_year=2021, count_increase=0.0, share_increase=0.5, growth=None, "
     "expected=None, actual=None, excess=None, excess_share=None, "
     "excess_denominator=None)"),
]

NODES = [Term("a"), Phrase(("a", "b")), AnyOf(("a", "b")), AtLeastK(1, ("a", "b")),
         And((Term("a"), Term("b"))), Or((Term("a"), Term("b")))]
HASHABLE = NODES + [Document("a", 2020, "t", ("c",)), ENTRY, PlotSpec(("a", "b"))]
UNHASHABLE = [LEXICON, SERIES, SKEW, drift_report(SERIES)]
FROZEN = HASHABLE + [LEXICON, SERIES, SKEW]


@pytest.mark.parametrize("value, text", REPRS, ids=[text.split("(")[0] for _, text in REPRS])
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", HASHABLE, ids=repr)
def test_equal_values_hash_alike(value):
    twin = eval(repr(value))
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    assert len({value, twin}) == 1


def test_query_nodes_equal_only_their_own_type():
    for a in NODES:
        for b in NODES:
            assert (a == b) == (a is b)
    assert Phrase(("a", "b")) != AnyOf(("a", "b"))
    assert And((Term("a"),)) != Or((Term("a"),))
    assert Term("a") != ("a",) and ("a",) != Term("a")
    assert AnyOf(("a",)) != ("a",)
    assert Term("a") != Term("b")
    assert AtLeastK(1, ("a", "b")) != AtLeastK(2, ("a", "b"))


@pytest.mark.parametrize("value", UNHASHABLE, ids=lambda v: type(v).__name__)
def test_values_with_a_dict_field_are_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)
    assert value == eval(repr(value))


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    field = repr(value).split("(")[1].split("=")[0]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before


@pytest.mark.parametrize("value", [value for value, _ in REPRS], ids=lambda v: type(v).__name__)
def test_copies_and_pickles_are_equal(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_named_tuple_records_are_tuples():
    # As the README says.
    assert Document("a", 2020, "t") == ("a", 2020, "t", ())
    assert tuple(ENTRY) == ("a", "adjective", False)
    assert SKEW == (2020, 1, 2, {"c": (1.0, 0.5)}, None)


def test_drift_report_fields_can_be_assigned():
    report = drift_report(SERIES)
    report.growth = 0.05
    assert report.growth == 0.05
    assert report != drift_report(SERIES)


def test_keyword_and_default_construction():
    assert Term(term="a") == Term("a")
    assert Phrase(tokens=("a", "b")).text == "a b"
    assert AnyOf(members=("a",)) == AnyOf(("a",))
    assert AtLeastK(k=1, members=("a",)) == AtLeastK(1, ("a",))
    assert And(parts=(Term("a"),)) == And((Term("a"),))
    assert Or(parts=(Term("a"),)) == Or((Term("a"),))
    doc = Document(id="a", year=2020, text="t")
    assert doc == Document("a", 2020, "t", ()) and doc.categories == ()
    assert TermEntry(term="a", role="adverb") == TermEntry("a", "adverb", False)
    assert TermEntry("a", "adverb", case_sensitive=True).case_sensitive is True
    lexicon = Lexicon(name="x", entries=[ENTRY])
    assert lexicon.entries == (ENTRY,) and lexicon.strength == {}
    assert Lexicon("x", [ENTRY], {"strong": ["a"]}) == LEXICON
    assert Lexicon("x", (ENTRY,)) != LEXICON
    assert CountSeries(series_id="s", points={2020: (1, 3), 2021: (1, 2)}) == SERIES
    assert list(SERIES.points) == [2020, 2021]
    assert CategorySkew(year=2020, matched=1, total=2, rows={}).warning is None
    spec = PlotSpec(series=("a",))
    assert (spec.metric, spec.from_year, spec.to_year, spec.width, spec.height) \
        == ("share", None, None, 900, 480)
    assert PlotSpec(("a",), "count", 2020, 2021, 300, 200).metric == "count"
    report = drift_report(SERIES)
    assert (report.growth, report.expected, report.excess_denominator) == (None, None, None)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Phrase(()), ValueError, "phrase needs at least one token"),
    (lambda: AnyOf(()), ValueError, r"any\(\) needs at least one member"),
    (lambda: AtLeastK(0, ("a",)), ValueError, "k must be at least 1"),
    (lambda: AtLeastK(2, ("a",)), ValueError, "k=2 exceeds the 1 listed members"),
    (lambda: And(()), ValueError, "and needs at least one operand"),
    (lambda: Or(()), ValueError, "or needs at least one operand"),
    (lambda: Lexicon("", ()), LexiconError, "lexicon name must be non-empty"),
    (lambda: Lexicon("x", (ENTRY, ENTRY)), LexiconError, "duplicate term 'a'"),
    (lambda: Lexicon("x", (ENTRY,), {"tiny": ("a",)}), LexiconError,
     "unknown strength group 'tiny'"),
    (lambda: CountSeries("", {}), DataError, "series id must be non-empty"),
    (lambda: CountSeries("s", {2020: (1, 0)}), DataError,
     "series 's' year 2020: total must be positive"),
    (lambda: CountSeries("s", {2020: (3, 2)}), DataError,
     r"series 's' year 2020: matches 3 outside 0\.\.2"),
    (lambda: CountSeries("s", {2020: (1, 2.5)}), DataError,
     "series 's' year 2020: year, matches and total must be integers"),
    (lambda: CountSeries("s", {2020: (True, 2)}), DataError,
     "series 's' year 2020: year, matches and total must be integers"),
    (lambda: CountSeries("s", {"2020": (1, 2)}), DataError,
     "series 's' year 2020: year, matches and total must be integers"),
    (lambda: CountSeries("s", {2020: (10**400, 10**400)}), DataError,
     "series 's' year 2020: year, matches and total must fit a float"),
    (lambda: CountSeries("s", {10**5000: (1, 2)}), DataError,
     "series 's': year is an integer of more than 4300 digits"),
    (lambda: PlotSpec(series=()), DataError, "plot needs at least one series"),
    (lambda: PlotSpec(series=("a",), metric="volume"), DataError, "unknown metric 'volume'"),
    (lambda: PlotSpec(series=("a",), height=149), DataError,
     "plot dimensions must be at least 200x150"),
], ids=["phrase", "any", "atleast-zero", "atleast-too-many", "and", "or", "lexicon-name",
        "lexicon-duplicate", "lexicon-group", "series-id", "series-total", "series-matches",
        "series-float-total", "series-bool-matches", "series-str-year", "series-past-float",
        "series-long-year", "plot-series", "plot-metric", "plot-size"])
def test_validation_errors(make, error, message):
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize("node", NODES, ids=repr)
def test_an_evaluated_query_node_is_the_value_it_was(node):
    # Evaluating a node leaves nothing on it: the index keeps the posting.
    twin = eval(repr(node))
    lexicon = Lexicon("x", (TermEntry("a", "adjective"), TermEntry("b", "adjective")))
    docs = [Document("d", 2020, "a b")]
    assert eval_count(scan_index(docs, lexicon, node), node, 2020) == 1
    assert gc.get_referents(node) == gc.get_referents(twin)
    assert node == twin and hash(node) == hash(twin) and repr(node) == repr(twin)
    assert pickle.dumps(node) == pickle.dumps(twin)
    for copied in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert type(copied) is type(node) and copied == twin and repr(copied) == repr(twin)
    with pytest.raises(AttributeError):
        setattr(node, node._fields[0], None)

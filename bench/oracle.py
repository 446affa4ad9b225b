"""Expected answers computed from the generators' planted sets alone.

Nothing here imports lexdrift: no tokenizer, matcher or evaluator. Queries
are plain tuples evaluated with set algebra over per-entry posting bitsets
(bit *i* = the *i*-th good record of the corpus), a different algorithm from
the index's per-document masks. Only the lexicon's entry and group names are
taken from the caller, because they are the specification of what may be
planted and queried.

Query nodes::

    ("term", entry)              ("phrase", entry-with-spaces)
    ("any", (name, ...))         ("atleast", k, (entry, ...))
    ("and", (node, ...))         ("or", (node, ...))

Names inside ``any`` may be group names; they expand like the README says.
"""

from __future__ import annotations

import csv
import math
import random

REL_TOL = 1e-9


class Oracle:
    def __init__(self, docs, terms, groups):
        self.terms = tuple(terms)
        self.groups = {g: tuple(m) for g, m in groups.items()}
        self.n_docs = len(docs)
        self.ids = [d[0] for d in docs]
        self.year_bits: dict[int, int] = {}
        self.postings = dict.fromkeys(self.terms, 0)
        self.cat_bits: dict[str, int] = {}
        for i, (_, year, cats, planted) in enumerate(docs):
            bit = 1 << i
            self.year_bits[year] = self.year_bits.get(year, 0) | bit
            for cat in cats:
                self.cat_bits[cat] = self.cat_bits.get(cat, 0) | bit
            for term in planted:
                self.postings[term] |= bit
        self.years = tuple(sorted(self.year_bits))
        self.all_bits = (1 << self.n_docs) - 1

    # -- primitive answers ---------------------------------------------------

    def totals(self) -> dict[int, int]:
        return {y: b.bit_count() for y, b in self.year_bits.items()}

    def members(self, name: str) -> tuple[str, ...]:
        return self.groups.get(name, (name,))

    def bits(self, node) -> int:
        kind = node[0]
        if kind in ("term", "phrase"):
            return self.postings[node[1]]
        if kind == "any":
            out = 0
            for name in node[1]:
                for term in self.members(name):
                    out |= self.postings[term]
            return out
        if kind == "atleast":
            k = node[1]
            # reach[j] = documents with at least j of the members seen so far
            reach = [self.all_bits] + [0] * k
            for term in node[2]:
                posting = self.postings[term]
                for j in range(k, 0, -1):
                    reach[j] |= reach[j - 1] & posting
            return reach[k]
        if kind == "and":
            out = self.all_bits
            for part in node[1]:
                out &= self.bits(part)
            return out
        if kind == "or":
            out = 0
            for part in node[1]:
                out |= self.bits(part)
            return out
        raise ValueError(f"unknown query node {kind!r}")

    def query_counts(self, node) -> dict[int, int]:
        hits = self.bits(node)
        return {y: (hits & b).bit_count() for y, b in self.year_bits.items()}

    def series(self, name: str) -> dict[int, tuple[int, int]]:
        """(matches, total) per year for a group or entry name."""
        counts = self.query_counts(("any", (name,)))
        totals = self.totals()
        return {y: (counts[y], totals[y]) for y in self.years}

    def skew(self, node, year: int) -> tuple[int, int, dict[str, tuple[float, float]]]:
        hits = self.bits(node) & self.year_bits[year]
        matched = hits.bit_count()
        total = self.year_bits[year].bit_count()
        rows = {}
        for cat in sorted(self.cat_bits):
            in_year = (self.cat_bits[cat] & self.year_bits[year]).bit_count()
            if in_year:
                among = (self.cat_bits[cat] & hits).bit_count()
                rows[cat] = (among / matched if matched else 0.0, in_year / total)
        return matched, total, rows


# -- queries ------------------------------------------------------------------


def random_query(shape: random.Random, pick: random.Random, terms, groups, depth: int = 3):
    """AST over the lexicon: terms, phrases, any() with group names,
    atleast(), nested AND/OR up to *depth* levels. *shape* draws the
    structure and *pick* the names, so a fixed *shape* seed keeps the cost
    of a query sequence alike across content seeds."""
    terms = sorted(terms)
    singles = [t for t in terms if " " not in t]
    phrases = [t for t in terms if " " in t]
    group_names = sorted(groups)

    def leaf():
        kind = shape.randrange(5)
        if kind == 0 and phrases:
            return ("phrase", pick.choice(phrases))
        if kind == 1:
            names = pick.sample(terms, shape.randrange(2, 6))
            if shape.random() < 0.5:
                names[0] = pick.choice(group_names)
            return ("any", tuple(names))
        if kind == 2:
            members = tuple(pick.sample(terms, shape.randrange(2, 6)))
            return ("atleast", shape.randrange(1, len(members) + 1), members)
        if kind == 3:
            return ("any", (pick.choice(group_names),))
        return ("term", pick.choice(singles))

    def node(d):
        if d <= 0 or shape.random() < 0.35:
            return leaf()
        parts = tuple(node(d - 1) for _ in range(shape.randrange(2, 4)))
        return ("and" if shape.random() < 0.5 else "or", parts)

    return node(depth)


def _name(name: str) -> str:
    return f'"{name}"' if " " in name else name


def render(node) -> str:
    """Query-language text for a node."""
    kind = node[0]
    if kind == "term":
        return node[1]
    if kind == "phrase":
        return f'"{node[1]}"'
    if kind == "any":
        return "any(" + ", ".join(_name(n) for n in node[1]) + ")"
    if kind == "atleast":
        return f"atleast({node[1]}, " + ", ".join(_name(n) for n in node[2]) + ")"
    joiner = " AND " if kind == "and" else " OR "
    return joiner.join(f"({render(p)})" for p in node[1])


# -- count-series arithmetic, straight from the README ------------------------


def close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


def round_half_away(x: float) -> int:
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def check_drift_payload(item: dict, name: str, points: dict[int, tuple[int, int]]) -> bool:
    """One entry of ``drift --format json`` against expected (matches,
    total) points; base and target are the first and last year."""
    years = sorted(points)
    matches = [points[y][0] for y in years]
    totals = [points[y][1] for y in years]
    shares = [m / t for m, t in zip(matches, totals)]
    yoy = [None] + [
        (shares[i] / shares[i - 1] - 1.0) if shares[i - 1] > 0 and years[i - 1] == years[i] - 1 else None
        for i in range(1, len(years))
    ]
    n0, t0, n1, t1 = matches[0], totals[0], matches[-1], totals[-1]
    count_inc = n1 / n0 - 1.0 if n0 > 0 else None
    share_inc = (n1 / t1) / (n0 / t0) - 1.0 if n0 > 0 else None
    return (
        item.get("series") == name
        and item.get("years") == years
        and item.get("matches") == matches
        and item.get("totals") == totals
        and len(item.get("shares", ())) == len(years)
        and all(close(a, b) for a, b in zip(item["shares"], shares))
        and len(item.get("yoy", ())) == len(years)
        and all(close(a, b) for a, b in zip(item["yoy"], yoy))
        and close(item.get("count_increase"), count_inc)
        and close(item.get("share_increase"), share_inc)
    )


def check_excess_payload(item: dict, name: str, points, growth: float) -> bool:
    years = sorted(points)
    base, target = years[0], years[-1]
    expected = round_half_away(points[base][0] * (1.0 + growth))
    actual = points[target][0]
    return (
        check_drift_payload(item, name, points)
        and item.get("expected") == expected
        and item.get("actual") == actual
        and item.get("excess") == actual - expected
        and close(item.get("excess_share"), (actual - expected) / points[target][1])
    )


def counts_csv(names, series_of) -> str:
    lines = ["series,year,matches,total"]
    for name in names:
        for year, (m, t) in sorted(series_of(name).items()):
            lines.append(f"{name},{year},{m},{t}")
    return "\n".join(lines) + "\n"


def read_fixture(path) -> dict[str, dict[int, tuple[int, int]]]:
    """The bundled count CSV, read with the csv module."""
    out: dict[str, dict[int, tuple[int, int]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["series"], {})[int(row["year"])] = (
                int(row["matches"]), int(row["total"]))
    return out

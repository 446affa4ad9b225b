#!/usr/bin/env python3
"""lexdrift benchmark: seeded workloads timed from outside the package.

    python3 bench/run.py --workload build-sparse --seed 1 --seconds 50 --trace 0

Run from anywhere; the repository root is the directory above this file.
lexdrift is used straight from ``src/``: cold commands start a fresh
interpreter with ``PYTHONPATH=src``, in-process calls import the same tree.
One client issues one operation at a time (closed loop).

Each run generates its corpus from ``--seed``, checks every answer against
an oracle built from what the generator planted (see ``oracle.py``) and
prints a table of metrics followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
makes a separate in-process pass over the same inputs with a span around
each public call and reports the per-layer metrics. The full run record
(interpreter, nproc, git SHA, generator parameters, corpus hash, sample
counts, failures) and the spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import Counter
from functools import partial
from pathlib import Path

import corpora
import oracle as orc
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"
FIXTURE = SRC / "lexdrift" / "data" / "group_counts.csv"

# Operation counts below are for this run length; --seconds scales them.
NOMINAL_SECONDS = 50
SETUP_REPS = 5
# Each in-process query runs this many times, at moments spread over the
# run, and counts its fastest run, so that the median and tail rank queries
# by their cost rather than by when the machine was slow.
QUERY_REPS = 3
# In-process queries are timed in batches of this many, one speed reference
# per batch.
QUERY_BATCH = 5
# What the in-process reference work and a bare interpreter start take at
# the speed every reported time is scaled to (about their medians on a
# 2.0 GHz Xeon vCPU of a shared host).
REF_NOMINAL_S = 0.008
START_NOMINAL_S = 0.070
# Measured and printed, but not in BENCHMARK.json (with their units): the
# median query cost falls where the costs of the fixed query set change
# steeply, so it moves by up to 0.2 of itself between runs of the same code.
UNGATED = {"query_p50_ms": "ms"}
# Sample groups timed in the benchmark's own process; the others are child
# processes.
IN_PROCESS = {"setup", "load", "query"}
CHILD_TIMEOUT_S = 60
CLI = "from lexdrift.cli import main_entry; main_entry()"
INDEX_KINDS = ("drift", "excess", "query", "skew", "plot", "counts_export")
FIXTURE_KINDS = ("drift_fixture", "excess_fixture")
SVG = "{http://www.w3.org/2000/svg}"

WORKLOADS = {
    # Tokenizing dominates and finish/load are nearly free (few distinct
    # masks); malformed lines exercise --on-error skip.
    "build-sparse": dict(generator="sparse", docs=4_000, setup_index=False,
                         index_runs=16, loads=50, cli_index=30, cli_fixture=20, queries=200, scans=14),
    # A dense corpus (nearly one mask per document, so finish, save and load
    # carry real weight) indexed in set-up; the read side, cold commands and
    # in-process queries, is where most of the run goes.
    "query-mix": dict(generator="dense", docs=4_000, setup_index=True,
                      index_runs=12, loads=50, cli_index=30, cli_fixture=20, queries=250, scans=14),
}


# -- sizing and statistics ------------------------------------------------------


def sized(spec: dict, seconds: float) -> dict:
    """Operation counts scale with *seconds*; the corpus keeps its stated
    size and only shrinks for runs shorter than the nominal one."""
    scale = seconds / NOMINAL_SECONDS
    out = dict(spec)
    out["docs"] = max(50, round(spec["docs"] * min(1.0, scale)))
    for key in ("index_runs", "loads", "queries", "scans"):
        out[key] = max(1, round(spec[key] * scale))
    out["cli_index"] = len(INDEX_KINDS) * max(1, round(spec["cli_index"] * scale / len(INDEX_KINDS)))
    out["cli_fixture"] = len(FIXTURE_KINDS) * max(1, round(spec["cli_fixture"] * scale / len(FIXTURE_KINDS)))
    return out


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest integer percentile (nearest rank) with at least ten
    samples above it, and that percentile; the maximum when there are fewer
    than twenty samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], q
    return ordered[-1], 100


# -- machine speed ----------------------------------------------------------------------
#
# On a shared host the speed of each vCPU changes by up to 1.7x, from one
# second to the next and, on average, from one minute to the next; it moves
# every time alike, down to a bare interpreter start. So every time is
# scaled to a fixed nominal speed, measured by references that use no
# lexdrift code:
#
# * an operation in the benchmark's own process, by a fixed piece of work
#   timed just before and just after it (same vCPU, same moment), at the
#   speed where that work takes REF_NOMINAL_S;
# * a child process, which may run on either vCPU, by the speed of the
#   whole run: the geometric mean of the speed the in-process reference
#   gives (median over the run) and the speed a bare interpreter start
#   (``python -c pass``, timed after every other child) gives, where a
#   start takes START_NOMINAL_S. A child is part interpreter start and
#   imports, part compute, and the two slow down by different amounts.
#
# The in-process reference mixes the kinds of work lexdrift does: a regex
# pass over text, JSON decoding into tuples, sorting and counting in a dict.

_REF_TOKEN = re.compile(r"[^\W\d_]+(?:['-][^\W\d_]+)*")
_REF_TEXT = " ".join(random.Random(0).choice(("alpha", "Beta", "gamma-ray", "delta's", "eps"))
                     for _ in range(4000))
_REF_BLOB = json.dumps([[f"d{i}", 2019 + i % 5, i * 7919 % 4096, ["a", "b"]] for i in range(3000)])


def reference_s() -> float:
    """Seconds the reference work takes now: the faster of two runs, so a
    cold cache after a child process does not count."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        counts: dict[str, int] = {}
        for tok in _REF_TOKEN.findall(_REF_TEXT.casefold()):
            counts[tok] = counts.get(tok, 0) + 1
        rows = [(i, y, m, tuple(c)) for i, y, m, c in json.loads(_REF_BLOB)]
        rows.sort(key=lambda r: (r[1], r[2]))
        best = min(best, time.perf_counter() - start)
    return best


class Speed:
    """Reference timings taken between operations."""

    def __init__(self, child):
        self.child = child
        self.refs = [reference_s()]
        self.starts: list[float] = []
        self.child_tasks = 0

    def step(self, task, samples: dict[str, list[float]], child: bool = False) -> None:
        """Run *task*, then time the reference. What *task* appends to the
        in-process groups of *samples* is scaled by REF_NOMINAL_S over the
        geometric mean of the reference timings just before and after it.
        After every other child-process task, a bare interpreter start is
        timed too."""
        marks = {k: len(v) for k, v in samples.items()}
        task()
        self.refs.append(reference_s())
        factor = REF_NOMINAL_S / math.sqrt(self.refs[-2] * self.refs[-1])
        for k in IN_PROCESS.intersection(samples):
            v = samples[k]
            v[marks[k]:] = [x * factor for x in v[marks[k]:]]
        if child:
            self.child_tasks += 1
            if self.child_tasks % 2:
                self.starts.append(self.child.run([sys.executable, "-c", "pass"])[0])

    def run_factor(self) -> float:
        """The scale for child processes: the geometric mean of the run's two
        speeds, REF_NOMINAL_S over the median reference timing and
        START_NOMINAL_S over the median bare interpreter start."""
        med = statistics.median
        return math.sqrt(REF_NOMINAL_S / med(self.refs) * START_NOMINAL_S / med(self.starts))


# -- bookkeeping ---------------------------------------------------------------------


class Tally:
    """Operations attempted and failed; a wrong answer, a nonzero exit or an
    exception all count as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def guarded(self, what: str, fn, *args):
        """``fn(*args)`` must return True; an exception is a failure too."""
        try:
            ok = bool(fn(*args))
        except Exception as exc:  # a failed operation, recorded and counted
            what = f"{what}: {type(exc).__name__}: {exc}"
            ok = False
        return self.check(what, ok)


class Child:
    """Runs commands in fresh processes started by ``launcher.py``."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        self.last_error = ""
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def run(self, argv: list[str]) -> tuple[float, int, float, str]:
        """(wall seconds, exit code, peak RSS in MB, stdout); the last line of
        stderr is kept in ``last_error``."""
        self.count += 1
        out_path = self.work / f"child-{self.count}.out"
        err_path = self.work / f"child-{self.count}.err"
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": CHILD_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        text = out_path.read_text(encoding="utf-8", errors="replace")
        errors = err_path.read_text(encoding="utf-8", errors="replace").strip()
        self.last_error = errors.splitlines()[-1] if errors else ""
        out_path.unlink()
        err_path.unlink()
        return reply["wall"], reply["code"], reply["maxrss_kb"] / 1024, text

    def cli(self, args) -> tuple[float, int, float, str]:
        return self.run([sys.executable, "-c", CLI, *map(str, args)])


# -- the benchmark state shared by both modes -----------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path, child: Child):
        self.name = workload
        self.seed = seed
        self.spec = sized(WORKLOADS[workload], seconds)
        self.work = work
        self.tally = Tally()
        self.child = child
        self.corpus_path = work / "corpus.jsonl"
        self.index_path = work / "setup.idx"
        self.on_error = ["--on-error", "skip"] if self.spec["generator"] == "sparse" else []
        from lexdrift import builtin_lexicon
        lexicon = builtin_lexicon()
        self.terms = lexicon.terms()
        self.groups = lexicon.groups()
        self.speed = Speed(child)
        self.setup_times: list[float] = []
        self.setup_builds: list[float] = []
        self.setup_rss: list[float] = []
        self.record: dict = {}

    def generate(self) -> corpora.Corpus:
        spec = self.spec
        if spec["generator"] == "dense":
            return corpora.dense(self.seed, spec["docs"], self.terms)
        return corpora.sparse(self.seed, spec["docs"], self.terms)

    def setup(self, reps: int) -> None:
        """Generate and write the corpus *reps* times (and, where the spec
        says so, build its index with ``lexdrift index``), each time scaled
        to the nominal speed."""
        hashes = set()
        times = {"setup": [], "build": []}
        for _ in range(reps):
            def once():
                nonlocal corpus
                start = time.perf_counter()
                corpus = self.generate()
                self.corpus_path.write_bytes(corpus.data)
                if self.spec["setup_index"]:
                    wall, code, rss, out = self.child.cli(
                        ["index", "--corpus", self.corpus_path, "--out", self.index_path, *self.on_error])
                    self.tally.check(f"set-up index exit {code} {self.child.last_error}",
                                     code == 0 and self.index_stdout_ok(out, corpus))
                    times["build"].append(wall)
                    self.setup_rss.append(rss)
                times["setup"].append(time.perf_counter() - start)
            corpus = None
            self.speed.step(once, times)
            hashes.add(corpus.sha256)
        self.tally.check("same seed, same corpus", len(hashes) == 1)
        self.setup_times, self.setup_builds = times["setup"], times["build"]
        self.corpus = corpus
        self.oracle = orc.Oracle(corpus.docs, self.terms, self.groups)
        self.plan = Plan(self)

    def index_stdout_ok(self, out: str, corpus: corpora.Corpus) -> bool:
        lines = out.splitlines()
        totals = Counter(year for _, year, _, _ in corpus.docs)
        return (
            bool(lines)
            and lines[0].startswith(f"indexed {len(corpus.docs)} documents")
            and lines[1:] == [f"  {y}: {n}" for y, n in sorted(totals.items())]
        )

    def check_index(self, index) -> bool:
        """The loaded index holds exactly the good records, with the planted
        entries counted per year."""
        from lexdrift import eval_count, parse_query
        o = self.oracle
        if sorted(m[0] for m in index.doc_marks()) != sorted(o.ids):
            return False
        if {y: index.total(y) for y in index.years} != o.totals():
            return False
        for term in self.terms:
            q = parse_query(f'"{term}"', index.lexicon)
            expected = o.query_counts(("term", term))
            if any(eval_count(index, q, y) != expected[y] for y in o.years):
                return False
        return True

    def index_totals_ok(self, index) -> bool:
        return {y: index.total(y) for y in index.years} == self.oracle.totals()


class Plan:
    """The operation sequence, identical in both modes. Its shape (the kind
    of each command, the structure of each query, how many names a command
    takes) is the same for every seed, so the work done stays alike across
    seeds; the seed picks the names, years and growth rates of the CLI
    commands. The in-process queries are the same for every seed: with
    names of their own per seed, their median cost moved by up to a quarter
    between seeds."""

    def __init__(self, b: Bench):
        rng = random.Random(f"{b.seed}-plan")
        self.shape = shape = random.Random("lexdrift-plan-shape")
        o = b.oracle
        spec = b.spec
        singles = sorted(t for t in b.terms if " " not in t)
        self.series_names = sorted(b.groups) + singles
        # Names present in every year; tiny corpora may have none.
        self.plot_names = [n for n in self.series_names
                           if all(m > 0 for m, _ in o.series(n).values())]
        self.plot_every_year = bool(self.plot_names)
        self.plot_names = self.plot_names or sorted(b.groups)
        self.queries = [orc.random_query(shape, shape, b.terms, b.groups)
                        for _ in range(spec["queries"])]
        self.scan_node = orc.random_query(shape, rng, b.terms, b.groups, depth=1)
        kinds = [k for k in INDEX_KINDS for _ in range(spec["cli_index"] // len(INDEX_KINDS))]
        shape.shuffle(kinds)
        self.index_ops = [self.op(rng, b, kind) for kind in kinds]
        kinds = [k for k in FIXTURE_KINDS for _ in range(spec["cli_fixture"] // len(FIXTURE_KINDS))]
        shape.shuffle(kinds)
        self.fixture = orc.read_fixture(FIXTURE)
        self.fixture_ops = [self.op(rng, b, kind) for kind in kinds]
        self.stats_names = rng.sample(self.plot_names, min(3, len(self.plot_names)))

    def op(self, rng: random.Random, b: Bench, kind: str):
        """(kind, argv, check(stdout) -> bool) for one CLI command."""
        o, shape = b.oracle, self.shape
        idx = ["--index", str(b.index_path)]
        if kind == "drift":
            names = rng.sample(self.series_names, shape.randrange(1, 4))
            return kind, ["drift", *names, *idx, "--format", "json"], \
                lambda out: _drift_ok(out, names, o.series)
        if kind == "excess":
            name, growth = rng.choice(self.series_names), rng.choice((0.0, 0.05, 0.1, 0.2))
            return kind, ["excess", name, *idx, "--growth", str(growth), "--format", "json"], \
                lambda out: _excess_ok(out, name, o.series(name), growth)
        if kind == "query":
            node = orc.random_query(shape, rng, b.terms, b.groups)
            return kind, ["query", orc.render(node), *idx, "--format", "json"], \
                lambda out: _query_ok(out, o, node)
        if kind == "skew":
            node, year = orc.random_query(shape, rng, b.terms, b.groups), rng.choice(o.years)
            return kind, ["skew", orc.render(node), *idx, "--year", str(year), "--format", "json"], \
                lambda out: _skew_ok(out, o.skew(node, year), year)
        if kind == "plot":
            names = rng.sample(self.plot_names, min(len(self.plot_names), shape.randrange(1, 4)))
            # yoy needs a name present in every year, else it may be undefined
            metric = shape.choice(("share", "count", "yoy") if self.plot_every_year else ("count",))
            path = b.work / "plot.svg"
            dots = len(o.years) - (metric == "yoy")
            return kind, ["plot", *names, *idx, "--metric", metric, "--out", str(path)], \
                lambda out: _svg_ok(path.read_bytes(), names, dots)
        if kind == "counts_export":
            names = rng.sample(self.series_names, shape.randrange(1, 4))
            return kind, ["counts", "export", *names, *idx], \
                lambda out: out == orc.counts_csv(names, o.series)
        fixture = self.fixture
        if kind == "drift_fixture":
            names = rng.sample(sorted(fixture), shape.randrange(1, 5))
            return kind, ["drift", *names, "--format", "json"], \
                lambda out: _drift_ok(out, names, fixture.__getitem__)
        if kind == "excess_fixture":
            name, growth = rng.choice(sorted(fixture)), rng.choice((0.0, 0.05, 0.1))
            return kind, ["excess", name, "--growth", str(growth), "--format", "json"], \
                lambda out: _excess_ok(out, name, fixture[name], growth)
        raise ValueError(kind)


def _drift_ok(out: str, names, series_of) -> bool:
    items = json.loads(out)
    return len(items) == len(names) and all(
        orc.check_drift_payload(item, name, series_of(name)) for item, name in zip(items, names))


def _excess_ok(out: str, name, points, growth) -> bool:
    items = json.loads(out)
    return len(items) == 1 and orc.check_excess_payload(items[0], name, points, growth)


def _query_ok(out: str, o: orc.Oracle, node) -> bool:
    got = json.loads(out)
    counts, totals = o.query_counts(node), o.totals()
    return (got["years"] == list(o.years)
            and got["matches"] == [counts[y] for y in o.years]
            and got["totals"] == [totals[y] for y in o.years])


def _skew_ok(out: str, expected, year: int) -> bool:
    got = json.loads(out)
    matched, total, rows = expected
    cats = got["categories"]
    return (got["year"] == year and got["matched"] == matched and got["total"] == total
            and sorted(cats) == sorted(rows)
            and all(orc.close(cats[c]["among_matches"], rows[c][0])
                    and orc.close(cats[c]["among_all"], rows[c][1]) for c in rows))


def _svg_ok(markup: bytes, names, dots: int) -> bool:
    """Well-formed SVG with one legend label and one line of *dots* points
    per requested series, in order."""
    root = ET.fromstring(markup)
    labels = [t.text for t in root.iter(SVG + "text") if t.get("class") == "legend-label"]
    lines = [g for g in root.iter(SVG + "g") if g.get("class") == "series"]
    return (root.tag == SVG + "svg" and labels == list(names) and len(lines) == len(names)
            and all(sum(1 for c in g if c.tag == SVG + "circle") == dots for g in lines))


# -- untraced run: end-to-end metrics --------------------------------------------------


def interleave(*groups: list) -> list:
    """The tasks of all groups in one sequence, each group spread evenly
    over it, so every metric samples the whole run and not one stretch of
    it (machine speed can drift within a run)."""
    keyed = [((i + 0.5) / len(g), j, i) for j, g in enumerate(groups) for i in range(len(g))]
    return [groups[j][i] for _, j, i in sorted(keyed)]


def measure(b: Bench, seconds: float) -> dict:
    """The end-to-end metrics. On a machine slow enough to take the run
    past *seconds*, the remaining child processes are skipped once every
    kind of operation has run."""
    from lexdrift import eval_count, load_index, parse_query

    deadline = time.perf_counter() + seconds

    spec, tally, o, plan = b.spec, b.tally, b.oracle, b.plan
    n_docs = len(b.corpus.docs)
    samples: dict[str, list[float]] = {"build": list(b.setup_builds), "load": [], "query": [],
                                       "cli_index": [], "cli_fixture": [], "scan": []}
    rss = list(b.setup_rss)
    loaded = []

    def build(k: int) -> None:
        path = b.work / f"run-{k}.idx"
        wall, code, peak, out = b.child.cli(
            ["index", "--corpus", b.corpus_path, "--out", path, *b.on_error])
        tally.check(f"index run {k} exit {code} {b.child.last_error}",
                    code == 0 and b.index_stdout_ok(out, b.corpus))
        samples["build"].append(wall)
        rss.append(peak)
        if k == 0:
            shutil.copyfile(path, b.index_path)
        else:
            tally.check("deterministic index file", path.read_bytes() == b.index_path.read_bytes())
        path.unlink()

    # In-process operations start after a full collection, so the garbage of
    # earlier ones does not land in their time.
    def load() -> None:
        gc.collect()
        start = time.perf_counter()
        try:
            index = load_index(b.index_path)
        except Exception as exc:  # counted as a failed load below
            index = exc
        samples["load"].append(time.perf_counter() - start)
        if tally.guarded(f"load {index}", b.index_totals_ok, index):
            loaded[:] = [index]

    query_ids: list[int] = []  # the query each sample of samples["query"] timed

    def queries(first: int, nodes) -> None:
        for i, node in enumerate(nodes, first):
            text = orc.render(node)
            gc.collect()
            start = time.perf_counter()
            try:
                index = loaded[0]
                q = parse_query(text, index.lexicon)
                got = [eval_count(index, q, y) for y in index.years]
            except Exception as exc:  # counted as a failed query below
                got = exc
            samples["query"].append(time.perf_counter() - start)
            query_ids.append(i)
            counts = o.query_counts(node)
            tally.check(f"query {text}: {got}", got == [counts[y] for y in o.years])

    def cli(group: str, argv, check) -> None:
        wall, code, _, out = b.child.cli(argv)
        samples[group].append(wall)
        tally.guarded(f"{argv} exit {code} {b.child.last_error}", lambda: code == 0 and check(out))

    scan_argv = ["query", orc.render(plan.scan_node), "--corpus", str(b.corpus_path),
                 *b.on_error, "--format", "json"]

    def scan_ok(out: str) -> bool:
        return _query_ok(out, o, plan.scan_node)

    # The oracle's bitsets and the corpus stay out of the collector's way.
    gc.collect()
    gc.freeze()
    b.speed.step(partial(build, 0), samples)
    tally.guarded("index content", lambda: b.check_index(load_index(b.index_path)))
    b.speed.step(load, samples)
    # Each batch runs QUERY_REPS times, spread over the run.
    batches = [(i, plan.queries[i:i + QUERY_BATCH])
               for i in range(0, len(plan.queries), QUERY_BATCH)] * QUERY_REPS
    for child, task in interleave(
        [(True, partial(build, k)) for k in range(1, spec["index_runs"])],
        [(False, load)] * (spec["loads"] - 1),
        [(False, partial(queries, first, nodes)) for first, nodes in batches],
        [(True, partial(cli, "cli_index", argv, check)) for _, argv, check in plan.index_ops],
        [(True, partial(cli, "cli_fixture", argv, check)) for _, argv, check in plan.fixture_ops],
        [(True, partial(cli, "scan", scan_argv, scan_ok))] * spec["scans"],
    ):
        # Past the deadline only the cheap in-process operations still run,
        # so the query set is always complete.
        if child and time.perf_counter() > deadline and all(samples.values()):
            continue
        b.speed.step(task, samples, child)
    loaded.clear()
    gc.unfreeze()
    best: dict[int, float] = {}
    for i, t in zip(query_ids, samples["query"]):
        best[i] = min(best.get(i, math.inf), t)
    samples["query"] = [best[i] for i in sorted(best)]
    run_factor = b.speed.run_factor()
    b.record["start_s"] = b.speed.starts
    for k in set(samples) - IN_PROCESS:
        samples[k] = [x * run_factor for x in samples[k]]

    cli_tail, cli_q = tail(samples["cli_index"])
    query_tail, query_q = tail(samples["query"])
    b.record["samples"] = {k: len(v) for k, v in samples.items()} | {
        "setup": len(b.setup_times), "reference": len(b.speed.refs), "start": len(b.speed.starts),
        "cli_index_tail_percentile": cli_q, "query_tail_percentile": query_q}
    b.record["index_file_bytes"] = b.index_path.stat().st_size
    b.record["samples_s"] = {"setup": b.setup_times, **samples}
    b.record["reference_s"] = b.speed.refs
    b.record["run_factor"] = run_factor
    med = statistics.median
    return {
        "setup_s": med(b.setup_times),
        "index_docs_per_s": n_docs / med(samples["build"]),
        "index_peak_rss_mb": med(rss),
        "index_bytes_per_doc": b.index_path.stat().st_size / n_docs,
        "load_s": med(samples["load"]),
        "cli_index_p50_ms": 1000 * med(samples["cli_index"]),
        "cli_index_tail_ms": 1000 * cli_tail,
        "cli_fixture_p50_ms": 1000 * med(samples["cli_fixture"]),
        "query_p50_ms": 1000 * med(samples["query"]),
        "query_tail_ms": 1000 * query_tail,
        "scan_query_s": med(samples["scan"]),
    }


# -- traced run: per-layer metrics ---------------------------------------------------------


def traced(b: Bench) -> dict:
    from lexdrift import (
        IndexBuilder, PlotSpec, YearTermIndex, builtin_lexicon, category_skew,
        drift_report, eval_count, eval_count_scan, excess_report, import_counts,
        iter_corpus, load_corpus, load_index, parse_query, render_line_chart, save_index,
        series_from_index, tokenize,
    )
    from lexdrift.cli import main

    tr, tally, o, plan = Tracer(), b.tally, b.oracle, b.plan
    med = statistics.median
    metrics: dict[str, float] = {}
    on_error = "skip" if b.on_error else "abort"
    gc.collect()
    gc.freeze()

    # Fresh interpreters: bare start-up, then start-up plus the CLI import.
    starts = [b.child.run([sys.executable, "-c", "pass"])[0] for _ in range(5)]
    imports = [b.child.run([sys.executable, "-c", "import lexdrift.cli"])[0] for _ in range(5)]
    metrics["cli.startup.s"] = med(starts)
    metrics["cli.import.s"] = med(imports) - med(starts)
    def in_process(argv, check):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = main([str(a) for a in argv])
            elapsed = time.perf_counter() - start
        tally.guarded(f"main {argv}", lambda: code == 0 and check(buf.getvalue()))
        return elapsed

    def traced_build(path):
        errors: list = []
        records = 0
        with tr.span("build"):
            builder = IndexBuilder(builtin_lexicon())
            for doc in tr.iterate("corpus.iter_corpus", iter_corpus(
                    b.corpus_path, on_error=on_error, errors=errors)):
                tr.call("index.add", builder.add, doc)
                records += 1
            index = tr.call("index.finish", builder.finish)
            tr.call("index.save", save_index, index, path)
        return index, records, errors

    # The same build three ways, in rounds: the untraced CLI child, the
    # untraced in-process main() (the reference for tracing overhead), and
    # the traced public calls. Medians over the rounds; per-layer busy times
    # are means per round.
    rounds = 3
    child_s, plain_s = [], []
    plain_path, traced_path = b.work / "plain.idx", b.work / "traced.idx"
    for _ in range(rounds):
        wall, code, _, out = b.child.cli(
            ["index", "--corpus", b.corpus_path, "--out", b.index_path, *b.on_error])
        tally.check("index", code == 0 and b.index_stdout_ok(out, b.corpus))
        child_s.append(wall)
        plain_s.append(in_process(
            ["index", "--corpus", b.corpus_path, "--out", plain_path, *b.on_error],
            lambda out: b.index_stdout_ok(out, b.corpus)))
        index, records, errors = traced_build(traced_path)
        tally.check("traced build writes the same file",
                    traced_path.read_bytes() == plain_path.read_bytes() == b.index_path.read_bytes())
        tally.check("skipped records = injected bad lines",
                    len(errors) == sum(b.corpus.bad_lines.values()))
    metrics["cli.index_child.s"] = med(child_s)
    metrics["cli.main.index.s"] = med(plain_s)
    metrics["trace.overhead_s"] = med(tr.durations("build")) - metrics["cli.main.index.s"]

    # Read again, so the traced build above holds no more than the plain one.
    docs = load_corpus(b.corpus_path, on_error=on_error)
    with tr.span("corpus.tokenize"):
        n_tokens = sum(len(tokenize(doc.text)) for doc in docs)

    marks = list(index.doc_marks())
    loaded = None
    for _ in range(3):
        loaded = tr.call("index.load", load_index, traced_path)
        tr.call("index.construct", YearTermIndex, index.lexicon, *index.year_range, marks)
    tally.guarded("index content", b.check_index, loaded)

    with tr.span("queries"):
        for node in plan.queries:
            q = tr.call("query.parse_query", parse_query, orc.render(node), loaded.lexicon)
            got = [tr.call("index.eval_count", eval_count, loaded, q, y) for y in loaded.years]
            counts = o.query_counts(node)
            tally.check(f"query {orc.render(node)}", got == [counts[y] for y in o.years])

    q = parse_query(orc.render(plan.scan_node), loaded.lexicon)
    counts = o.query_counts(plan.scan_node)
    with tr.span("scan"):
        for y in loaded.years:
            n = tr.call("index.eval_count_scan", eval_count_scan, docs, loaded.lexicon, q, y)
            tally.check("eval_count_scan = eval_count", n == eval_count(loaded, q, y) == counts[y])

    with tr.span("stats"):
        series = {n: tr.call("stats.series_from_index", series_from_index, loaded, n)
                  for n in plan.stats_names}
        years = loaded.years
        for name, s in series.items():
            tally.check(f"series {name}", s.points == o.series(name))
            rep = tr.call("stats.drift_report", drift_report, s)
            tally.check(f"drift_report {name}", list(rep.matches) == [o.series(name)[y][0] for y in years])
            rep = tr.call("stats.excess_report", excess_report, s,
                          base_year=years[0], target_year=years[-1], growth=0.05)
            tally.check(f"excess_report {name}", rep.expected == orc.round_half_away(
                o.series(name)[years[0]][0] * 1.05))
        node = plan.queries[0]
        skew = tr.call("stats.category_skew", category_skew, loaded,
                       parse_query(orc.render(node), loaded.lexicon), years[-1])
        matched, total, rows = o.skew(node, years[-1])
        tally.check("category_skew", (skew.matched, skew.total) == (matched, total)
                    and sorted(skew.rows) == sorted(rows) and all(orc.close(skew.rows[c][0], rows[c][0]) for c in rows))
        fixture = tr.call("stats.import_counts", import_counts, FIXTURE)
        tally.check("import_counts", {k: s.points for k, s in fixture.items()} == plan.fixture)
        markup = tr.call("svg.render_line_chart", render_line_chart,
                         PlotSpec(series=tuple(series), metric="share"), series)
        tally.guarded("render_line_chart", _svg_ok, markup.encode("utf-8"), list(series), len(years))

    seen = set()
    for kind, argv, check in plan.index_ops + plan.fixture_ops:
        if kind not in seen:
            seen.add(kind)
            metrics[f"cli.main.{kind}.s"] = in_process(argv, check)

    busy = tr.busy()
    build_layers = ("corpus.iter_corpus", "index.add", "index.finish", "index.save")
    for name in build_layers:
        busy[name] /= rounds
    spans_s = sum(busy[n] for n in build_layers)
    distinct = len({(y, m) for _, y, m, _ in marks})
    metrics.update({
        "corpus.iter_corpus.s": busy["corpus.iter_corpus"],
        "corpus.records": records,
        "corpus.skipped": len(errors),
        "corpus.bytes": b.corpus_path.stat().st_size,
        "corpus.tokenize.s": busy["corpus.tokenize"],
        "corpus.tokens": n_tokens,
        "index.add.s": busy["index.add"],
        "index.match.s": busy["index.add"] - busy["corpus.tokenize"],
        "index.finish.s": busy["index.finish"],
        "index.docs": index.doc_count,
        "index.distinct_masks": distinct,
        "index.distinct_ratio": distinct / index.doc_count,
        "index.save.s": busy["index.save"],
        "index.file_bytes": traced_path.stat().st_size,
        "index.load.s": med(tr.durations("index.load")),
        "index.construct.s": med(tr.durations("index.construct")),
        "index.eval_count.s": busy["index.eval_count"],
        "index.eval_count.calls": len(tr.durations("index.eval_count")),
        "index.masks_scanned": masks_tested(loaded, plan.queries),
        "query.parse_query.s": busy["query.parse_query"],
        "query.parse_query.calls": len(tr.durations("query.parse_query")),
        "index.eval_count_scan.s": busy["index.eval_count_scan"],
        "stats.series_from_index.s": busy["stats.series_from_index"],
        "stats.drift_report.s": busy["stats.drift_report"],
        "stats.excess_report.s": busy["stats.excess_report"],
        "stats.category_skew.s": busy["stats.category_skew"],
        "stats.import_counts.s": busy["stats.import_counts"],
        "svg.render_line_chart.s": busy["svg.render_line_chart"],
        "svg.bytes": len(markup.encode("utf-8")),
        "trace.spans": len(tr.spans),
        # child wall ~ start-up + import + build spans net of tracing cost
        "trace.build_accounted_ratio": (spans_s - metrics["trace.overhead_s"]
                                        + metrics["cli.startup.s"] + metrics["cli.import.s"])
                                       / metrics["cli.index_child.s"],
    })
    metrics["index.decode.s"] = metrics["index.load.s"] - metrics["index.construct.s"]
    gc.unfreeze()
    tr.write(OUT / f"spans-{b.name}-seed{b.seed}.jsonl")
    b.record["samples"] = {"startup": len(starts), "import": len(imports), "build_rounds": rounds,
                           "loads": 3, "queries": len(plan.queries)}
    return metrics


def masks_tested(index, nodes) -> int:
    """How many masks ``eval_count`` tests for *nodes* over every year: the
    calls of the predicate that ``compile_predicate`` hands it, counted in an
    untimed pass of its own."""
    import lexdrift.index as ix
    from lexdrift import eval_count, parse_query

    real = ix.compile_predicate
    calls = depth = 0

    def counting(idx, q):
        nonlocal depth
        depth += 1
        try:
            pred = real(idx, q)
        finally:
            depth -= 1
        if depth:  # an inner node of the query, called by its parent's predicate
            return pred

        def counted(mask):
            nonlocal calls
            calls += 1
            return pred(mask)
        return counted

    ix.compile_predicate = counting
    try:
        for node in nodes:
            q = parse_query(orc.render(node), index.lexicon)
            for year in index.years:
                eval_count(index, q, year)
    finally:
        ix.compile_predicate = real
    return calls


# -- command line --------------------------------------------------------------------------


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object (also written to
    ``.bench_out/``)."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    child = Child(work)
    try:
        b = Bench(workload, seed, seconds, work, child)
        # Write bytecode caches before anything is timed.
        child.run([sys.executable, "-c", "import lexdrift.cli"])
        b.setup(1 if trace else SETUP_REPS)
        start = time.perf_counter()
        metrics = traced(b) if trace else measure(b, seconds)
        measured_s = time.perf_counter() - start
    finally:
        child.close()
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads(SPEC_FILE.read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    tally = b.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    corpus = b.corpus
    b.record.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git": git_state(), "generator": corpus.params, "sizes": b.spec,
        "docs": len(corpus.docs), "bad_lines": corpus.bad_lines,
        "corpus_bytes": len(corpus.data), "corpus_sha256": corpus.sha256,
        "setup_s": b.setup_times, "measured_s": measured_s,
        "failed_ratio": tally.failed / tally.attempted, "failures": tally.failures,
        "ungated": {k: (metrics[k], UNGATED[k]) for k in UNGATED if k in metrics}
                   | {"failed_ratio": (tally.failed / tally.attempted, "ratio")},
    })
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"record": b.record, **result}, indent=1) + "\n")
    result["record"] = b.record
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lexdrift" / "cli.py").is_file() or not SPEC_FILE.is_file():
        print(f"error: {SRC / 'lexdrift'} or {SPEC_FILE} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = result.pop("record")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"docs {record['docs']}  corpus {record['corpus_sha256'][:16]}  "
          f"python {record['python']}  nproc {record['nproc']}  git {record['git']}")
    print(f"{'metric':34} {'value':>16}  unit")
    rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    rows += [(k, v, unit) for k, (v, unit) in record["ungated"].items()]
    for name, value, unit in rows:
        print(f"{name:34} {value:16.6g}  {unit}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark workloads: inputs, set-up, one timed pass and its checks.

Every workload is a closed loop with one caller in one process.  The seed
only permutes the order in which the fixed inputs are sent; the program
receives nothing but those inputs.  Calls go through module attributes
(``report.classify``, not a bound local name) so that the tracer's
wrappers are seen.  Output checks never abort a pass: each comparison is
counted as attempted, and as failed when it does not hold.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

from p2qbrace import braces, catalog, core, enumeration, expected, families, holomorph, report, ybe
from refclock import Interval, RefClock

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# Orders whose every table cell is encoded in p2qbrace.expected.  Each
# classify workload takes a subset that keeps its run short: (2,13) adds
# ~16 s per cold pass and no family that (2,5) lacks, (2,11) has the
# families of (2,7), and filling a (3,7) cache would double warm set-up.
COLD_ORDERS = ((2, 5), (2, 7), (3, 7))
WARM_ORDERS = ((2, 5), (2, 7), (2, 11))
# The normal budget refuses (5,2) Gk(1) only after computing its Aut(A)
# (order 12000) by brute force.  (7,2) is left out: its Gk(1) has 98784
# automorphisms to find before the same refusal, many minutes of work.
REFUSAL_ORDER = (5, 2)
CATALOG_ORDERS = ((2, 5), (2, 7), (3, 7), (5, 3))
ABELIAN = ("CyclicP2Q", "PxPQ")
# one pass of brace_ybe visits every class this many times, so that the
# 90th percentile of query latency has more than ten samples beyond it
BRACE_ROUNDS = 3


class Checks:
    """Counts output checks; a failed one is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def crashed(self, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.expect(False, f"{what} raised")


class Workload:
    """Base class: ``setup`` once, then ``run_pass`` any number of times."""

    name = ""

    def __init__(self, checks: Checks, workdir: Path, clock: RefClock):
        self.checks = checks
        self.workdir = workdir
        self.clock = clock

    def setup(self, rng) -> None:
        pass

    def run_pass(self, rng) -> list[Interval]:
        """One pass over every input; returns the interval of each call."""
        raise NotImplementedError


def _check_tables(checks: Checks, rep) -> None:
    """Every cell of the classification against the encoded tables."""
    p, q = rep.p, rep.q
    where = f"({p},{q})"
    checks.expect(rep.complete and not rep.skipped, f"{where} complete")
    exp = expected.expected_tables(p, q)
    totals = expected.expected_totals(p, q)
    nonab = {k: row for k, row in rep.rows.items() if not row["abelian"]}
    checks.expect(set(nonab) == set(exp), f"{where} nonabelian additive types")
    for key in sorted(set(nonab) & set(exp)):
        row, e = nonab[key], exp[key]
        cross = Counter()
        for (m, _), c in row["cells"].items():
            cross[m] += c
        for m in sorted(set(cross) | set(e.cross)):
            checks.expect(cross[m] == e.cross.get(m, 0), f"{where} {key} x {m}")
        if e.by_kernel is None:
            continue
        got = {(k, m): c for (m, k), c in row["cells"].items()}
        for cell in sorted(set(got) | set(e.by_kernel)):
            checks.expect(
                got.get(cell, 0) == e.by_kernel.get(cell, 0), f"{where} {key} x {cell}"
            )
    checks.expect(rep.b_total == totals["B"], f"{where} B total")
    if totals["A"] is not None:
        checks.expect(rep.a_total == totals["A"], f"{where} A total")
    if totals["s"] is not None:
        checks.expect(rep.s_total == totals["s"], f"{where} s total")


def _check_refusal(checks: Checks, rep) -> None:
    """(5,2): Gk(1) refused under the budget, the rest as at the seed."""
    ref = REFERENCE["classify_5x2"]
    checks.expect(rep.complete == ref["complete"], "(5,2) flagged incomplete")
    checks.expect(sorted(rep.skipped) == ref["skipped"], "(5,2) skipped families")
    checks.expect(sorted(rep.rows) == sorted(ref["rows"]), "(5,2) classified families")
    for key, cells in ref["rows"].items():
        got = rep.rows.get(key, {"cells": {}})["cells"]
        for m, k, c in cells:
            checks.expect(got.get((m, k), 0) == c, f"(5,2) {key} x {m} | ker {k}")
        checks.expect(len(got) == len(cells), f"(5,2) {key} cell count")
    checks.expect((rep.a_total, rep.b_total) == (ref["A"], ref["B"]), "(5,2) totals")


class ClassifyCold(Workload):
    """report.classify with an empty cache directory per order."""

    name = "classify_cold"
    orders = COLD_ORDERS + (REFUSAL_ORDER,)

    def run_pass(self, rng):
        latencies = []
        for p, q in rng.sample(self.orders, len(self.orders)):
            cache = tempfile.mkdtemp(prefix=f"cold-{p}x{q}-", dir=self.workdir)
            try:
                mark = self.clock.mark()
                rep = report.classify(p, q, cache_dir=cache)
                latencies.append(self.clock.since(mark))
            except Exception:
                self.checks.crashed(f"classify({p},{q})")
                continue
            finally:
                shutil.rmtree(cache)
            if (p, q) == REFUSAL_ORDER:
                _check_refusal(self.checks, rep)
            else:
                _check_tables(self.checks, rep)
        return latencies


class ClassifyWarm(Workload):
    """report.classify served from an orbit cache that set-up fills."""

    name = "classify_warm"
    orders = WARM_ORDERS

    def setup(self, rng):
        self.cache = tempfile.mkdtemp(prefix="warm-", dir=self.workdir)
        for p, q in rng.sample(self.orders, len(self.orders)):
            try:
                report.classify(p, q, cache_dir=self.cache)
            except Exception:
                self.checks.crashed(f"filling the cache for ({p},{q})")

    def run_pass(self, rng):
        latencies = []
        for p, q in rng.sample(self.orders, len(self.orders)):
            try:
                mark = self.clock.mark()
                rep = report.classify(p, q, cache_dir=self.cache)
                latencies.append(self.clock.since(mark))
            except Exception:
                self.checks.crashed(f"classify({p},{q}) from the cache")
                continue
            _check_tables(self.checks, rep)
        return latencies


class Catalog(Workload):
    """catalog.verify_catalog: witnesses against the enumeration."""

    name = "catalog"
    orders = CATALOG_ORDERS

    def run_pass(self, rng):
        latencies = []
        for p, q in rng.sample(self.orders, len(self.orders)):
            try:
                mark = self.clock.mark()
                reports = catalog.verify_catalog(p, q)
                latencies.append(self.clock.since(mark))
            except Exception:
                self.checks.crashed(f"verify_catalog({p},{q})")
                continue
            wanted = catalog.applicable_lemma_ids(p, q)
            got = [r.lemma_id for r in reports]
            self.checks.expect(bool(got) and got == wanted, f"({p},{q}) lemmas checked")
            for r in reports:
                self.checks.expect(r.ok, f"{r.summary()} {r.problems}")
        return latencies


class BraceYbe(Workload):
    """One query per orbit class: brace, invariants and Yang-Baxter checks."""

    name = "brace_ybe"

    def setup(self, rng):
        self.queries = []
        specs = REFERENCE["brace_ybe_classes"]
        for p, q, key, count in rng.sample(specs, len(specs)):
            try:
                label = core.GroupLabel.from_key(key)
                group = families.build_group(label, families.derive_params(p, q))
                hol = holomorph.Holomorph(group, core.compute_automorphisms(group))
                classes = enumeration.stratified_orbit_classes(hol)
            except Exception:
                self.checks.crashed(f"enumerating ({p},{q}) {key}")
                continue
            self.checks.expect(len(classes) == count, f"({p},{q}) {key} class count")
            self.queries.extend((hol, cl, key in ABELIAN) for cl in classes)

    def run_pass(self, rng):
        latencies = []
        for _ in range(BRACE_ROUNDS):
            for hol, cl, abelian in rng.sample(self.queries, len(self.queries)):
                try:
                    latencies.append(self._query(hol, cl, abelian))
                except Exception:
                    self.checks.crashed(f"query on n={hol.base.n}")
        return latencies

    def _query(self, hol, cl, abelian) -> Interval:
        mark = self.clock.mark()
        brace = braces.brace_from_regular(hol, cl.rep)
        axioms_ok, axioms_msg = braces.check_axioms(brace)
        inv = braces.invariants(brace)
        sol = ybe.solution_from_brace(brace)
        ybe_ok, ybe_msg = ybe.check_ybe(sol)
        nondegenerate = ybe.check_nondegenerate(sol)
        involutive = ybe.is_involutive(sol)
        text = ybe.export_solution(sol)
        elapsed = self.clock.since(mark)
        n = hol.base.n
        where = f"n={n} class {cl.mul_label.key()}/ker {cl.kernel_size}"
        expect = self.checks.expect
        expect(axioms_ok, f"{where}: {axioms_msg}")
        expect(ybe_ok, f"{where}: {ybe_msg}")
        expect(nondegenerate, f"{where}: degenerate solution")
        expect(involutive == abelian, f"{where}: involutive={involutive}")
        expect(inv.mul_label == cl.mul_label, f"{where}: multiplicative label")
        expect(inv.kernel_size == cl.kernel_size, f"{where}: kernel size")
        expect(text.count("\n") == n, f"{where}: exported rows")
        return elapsed


WORKLOADS = {w.name: w for w in (ClassifyCold, ClassifyWarm, Catalog, BraceYbe)}

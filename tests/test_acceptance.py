"""Acceptance suite: one test and one printed pass/fail line per criterion.

Criteria 9 (order 147), 10 (order 171) and 11 (order 333) are stretch
goals; they run only when the P2QBRACE_STRETCH environment variable is set
to 1, since the largest holomorph at order 147 has 14.5 million elements.
Orders 171 and 333 take seconds, and tier-1 runs the same table check on
them (``test_report.py::test_verify_tables_q1_modp2``).
"""

import os
import sys
import time

import numpy as np
import pytest

from p2qbrace.braces import brace_from_regular, check_axioms
from p2qbrace.catalog import verify_catalog
from p2qbrace.expected import expected_tables, regime
from p2qbrace.report import classify, export, verify_tables
from p2qbrace.ybe import check_nondegenerate, check_ybe, solution_from_brace
from helpers import (
    all_reps,
    brute_aut_of,
    classes_of,
    enumerate_dfs,
    enumerate_stratified,
    hol_of,
    label_keys,
    report_of,
    structured_of,
)

PROPERTY_ORDERS = ((2, 5), (2, 7), (2, 13), (3, 7), (5, 3))

# filled by _report; conftest echoes these lines after the run
RESULT_LINES: list[str] = []

stretch = pytest.mark.skipif(
    os.environ.get("P2QBRACE_STRETCH") != "1",
    reason="stretch case; set P2QBRACE_STRETCH=1 to run",
)


def _report(num, desc, problems, elapsed=None, limit=None):
    ok = not problems
    if limit is not None and elapsed is not None and elapsed > limit:
        ok = False
        problems = list(problems) + [f"runtime {elapsed:.1f}s over the {limit}s limit"]
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{timing}"
    RESULT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line + " :: " + "; ".join(map(str, problems))


def test_criterion_1_order20_cell_exact():
    t0 = time.monotonic()
    problems = []
    rep = report_of(2, 5)
    if (rep.s_total, rep.a_total, rep.b_total) != (43, 11, 32):
        problems.append(f"totals {(rep.s_total, rep.a_total, rep.b_total)} != (43, 11, 32)")
    ok, diffs = verify_tables(2, 5)
    problems.extend(diffs)
    # the quoted example row: additive Z5:Z4 (order-2 action) against the
    # five multiplicative types reads 2, 2, 2, 2, 4
    cross = {}
    for (m, _), c in rep.rows["QbyP2_ordP"]["cells"].items():
        cross[m] = cross.get(m, 0) + c
    want = {"CyclicP2Q": 2, "QbyP2_ordP": 2, "QbyP2_ordP2": 2, "PxPQ": 2, "PxQbyP": 4}
    if cross != want:
        problems.append(f"Z_q:Z_4 row {cross} != {want}")
    _report(1, "order 20 classification, s=43 A=11 B=32, cell-exact",
            problems, time.monotonic() - t0, 60)


def test_criterion_2_order28_cell_exact():
    t0 = time.monotonic()
    problems = []
    rep = report_of(2, 7)
    if (rep.s_total, rep.b_total) != (29, 20):
        problems.append(f"totals {(rep.s_total, rep.b_total)} != (29, 20)")
    ok, diffs = verify_tables(2, 7)
    problems.extend(diffs)
    _report(2, "order 28 classification, s=29 B=20, cell-exact",
            problems, time.monotonic() - t0, 60)


def test_criterion_3_order52():
    t0 = time.monotonic()
    problems = []
    rep = report_of(2, 13)
    if rep.s_total != 43:
        problems.append(f"s(52) = {rep.s_total} != 43")
    ok, diffs = verify_tables(2, 13)
    problems.extend(diffs)
    _report(3, "order 52 classification, s=43 with the q=1 mod 4 split",
            problems, time.monotonic() - t0, 300)


def test_criterion_4_order63_cell_exact():
    t0 = time.monotonic()
    problems = []
    rep = report_of(3, 7)
    if (rep.s_total, rep.a_total, rep.b_total) != (47, 11, 36):
        problems.append(f"totals {(rep.s_total, rep.a_total, rep.b_total)} != (47, 11, 36)")
    ok, diffs = verify_tables(3, 7)
    problems.extend(diffs)
    cross = {}
    for (m, _), c in rep.rows["QbyP2_ordP"]["cells"].items():
        cross[m] = cross.get(m, 0) + c
    if cross != {"CyclicP2Q": 6, "QbyP2_ordP": 12}:
        problems.append(f"Z_q:Z_p^2 row {cross} != 2p, 2p(p-1)")
    _report(4, "order 63 classification, s=47 A=11 B=36, cell-exact",
            problems, time.monotonic() - t0, 1800)


def test_criterion_5_order75_gf_row():
    t0 = time.monotonic()
    problems = []
    rep = report_of(5, 3)
    by_kernel = {}
    for (m, k), c in rep.rows["GF"]["cells"].items():
        by_kernel[k] = by_kernel.get(k, 0) + c
    if by_kernel != {1: 5, 3: 1, 25: 2, 75: 1}:
        problems.append(f"GF kernel strata {by_kernel} != {{1: 5, 3: 1, 25: 2, 75: 1}}")
    if rep.rows["GF"]["total"] != 9:
        problems.append(f"GF row total {rep.rows['GF']['total']} != 9")
    ok, diffs = verify_tables(5, 3)
    problems.extend(diffs)
    _report(5, "order 75 GF-additive strata 5/1/2/1 (total 9)",
            problems, time.monotonic() - t0, 900)


def test_criterion_6_property_suite():
    t0 = time.monotonic()
    problems = []
    for p, q in PROPERTY_ORDERS:
        n = p * p * q
        for key, hol, cl in all_reps(p, q):
            brace = brace_from_regular(hol, cl.rep)
            ok, msg = check_axioms(brace)
            if not ok:
                problems.append(f"axioms ({p},{q}) {key}: {msg}")
            sol = solution_from_brace(brace)
            ok, msg = check_ybe(sol)
            if not ok:
                problems.append(f"ybe ({p},{q}) {key}: {msg}")
            if not check_nondegenerate(sol):
                problems.append(f"degenerate solution ({p},{q}) {key}")
            # lambda(a o b) == lambda(a) . lambda(b), checked on the
            # permutations themselves so no composition table is needed
            imgs = brace.lambda_perms
            if not np.array_equal(imgs[brace.mul.mul], imgs[:, imgs]):
                problems.append(f"lambda not a homomorphism ({p},{q}) {key}")
            pi2 = len({row.tobytes() for row in imgs})
            if brace.kernel_size() * pi2 != n:
                problems.append(f"|ker|*|pi2| != n ({p},{q}) {key}")
        for key in label_keys(p, q):
            hol = hol_of(p, q, key)
            if set(enumerate_dfs(hol)) != set(enumerate_stratified(hol)):
                problems.append(f"strategies disagree ({p},{q}) {key}")
            if n <= 100:
                sa, brute = structured_of(p, q, key), brute_aut_of(p, q, key)
                if not np.array_equal(sa.aut.perms, brute.perms):
                    problems.append(f"structured aut != brute force ({p},{q}) {key}")
    _report(6, "property suite at orders 20, 28, 52, 63, 75",
            problems, time.monotonic() - t0, 600)


def test_criterion_7_catalog():
    t0 = time.monotonic()
    problems = []
    for p, q in ((2, 5), (2, 7), (3, 7), (5, 3)):
        for rep in verify_catalog(p, q):
            if not rep.ok:
                problems.append(rep.summary() + ": " + "; ".join(rep.problems))
    _report(7, "catalog witnesses at orders 20, 28, 63, 75",
            problems, time.monotonic() - t0)


def test_criterion_8_parameter_independence():
    t0 = time.monotonic()
    problems = []
    first = report_of(3, 7, choice="first")
    second = report_of(3, 7, choice="second")
    for fmt in ("md", "csv"):
        if export(first, fmt) != export(second, fmt):
            problems.append(f"{fmt} tables differ between parameter choices")
    _report(8, "order 63 tables byte-identical across parameter choices",
            problems, time.monotonic() - t0)


@stretch
def test_criterion_9_stretch_order147():
    t0 = time.monotonic()
    problems = []
    rep = classify(7, 3, budget="large")
    if rep.rows["P2SemidirectQ"]["total"] != 8:
        problems.append(f"Z49:Z3 row {rep.rows['P2SemidirectQ']['total']} != 8")
    if rep.rows["Gk(0)"]["total"] != 24:
        problems.append(f"Gk(0) row {rep.rows['Gk(0)']['total']} != 24")
    if rep.b_total != 114:
        problems.append(f"B(147) = {rep.b_total} != 114")
    exp = expected_tables(7, 3)
    for add_key, e in exp.items():
        cross = {}
        for (m, _), c in rep.rows[add_key]["cells"].items():
            cross[m] = cross.get(m, 0) + c
        if cross != e.cross:
            problems.append(f"{add_key} row {cross} != {e.cross}")
    _report(9, "order 147 stretch rows (8, 24) and B=114",
            problems, time.monotonic() - t0)


@stretch
def test_criterion_10_stretch_order171_q1_modp2():
    # q = 1 mod p^2 with p odd: the one regime no other criterion reaches
    t0 = time.monotonic()
    problems = []
    if regime(3, 19) != "q1_modp2":
        problems.append(f"regime(3, 19) = {regime(3, 19)}")
    ok, diffs = verify_tables(3, 19)
    problems.extend(diffs)
    _report(10, "order 171 tables, regime q1_modp2",
            problems, time.monotonic() - t0)


@stretch
def test_criterion_11_stretch_order333_q1_modp2():
    # the second prime pair of q = 1 mod p^2 with p odd, after (3, 19)
    t0 = time.monotonic()
    problems = []
    if regime(3, 37) != "q1_modp2":
        problems.append(f"regime(3, 37) = {regime(3, 37)}")
    ok, diffs = verify_tables(3, 37)
    problems.extend(diffs)
    _report(11, "order 333 tables, regime q1_modp2",
            problems, time.monotonic() - t0)

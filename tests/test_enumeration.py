"""Regular-subgroup enumeration against the DFS oracle, orbits, determinism."""

import collections
import functools
import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2qbrace import core, enumeration
from p2qbrace.braces import _anti_hom, brace_from_regular
from p2qbrace.catalog import applicable_lemma_ids, lemma_entry
from p2qbrace.core import AutGroup, GroupLabel, closure, generating_set, identify_p2q
from p2qbrace.enumeration import (
    circle_group,
    circle_labels,
    _orbit_of,
    _regular_closures,
    _strata,
    _stratified_reps,
    _stream,
    stratified_orbit_classes,
)
from p2qbrace.families import aut_order, derive_params, family_aut
from p2qbrace.report import NORMAL_HOL_LIMIT, _biskew_flags
from p2qbrace.holomorph import HolSubgroup, Holomorph
from helpers import (
    SMALL_PAIRS,
    all_reps,
    bi_skew_oracle,
    by_descending_order,
    classes_digest,
    classes_of,
    comp_table,
    enumerate_dfs,
    enumerate_stratified,
    hol_inv,
    hol_of,
    identify_p2q_oracle,
    identity_parts,
    kernel_rows,
    kernel_strata,
    label_keys,
    lift_search_oracle,
    lifts_oracle,
    old_value_closures,
    orbit_partition,
    packed_elements,
    pi2_corruption,
    regular_closure_oracle,
    stream_rows,
    stream_start_mismatch,
)


@pytest.mark.parametrize("key", label_keys(2, 5))
def test_both_strategies_agree_order20(key):
    hol = hol_of(2, 5, key)
    dfs = set(enumerate_dfs(hol))
    strat = set(enumerate_stratified(hol))
    assert dfs == strat
    # lambda tables are regular by construction; circle_group checks closure
    assert all(circle_group(hol, s).n == 20 for s in strat)


def test_both_strategies_agree_order28_nonabelian():
    hol = hol_of(2, 7, "QbyP2_ordP")
    assert set(enumerate_dfs(hol)) == set(enumerate_stratified(hol))


@pytest.mark.parametrize("pair_key", [((2, 5), key) for key in label_keys(2, 5)]
                         + [((2, 7), "QbyP2_ordP")])
def test_stratified_classes_match_the_dfs_oracle(pair_key):
    # the orbits of the DFS's complete subgroup list give the same
    # representatives, orbit sizes and labels, in the same order
    (p, q), key = pair_key
    hol = hol_of(p, q, key)
    oracle = orbit_partition(hol, enumerate_dfs(hol))
    assert [(c.rep, c.orbit_size, c.mul_label) for c in classes_of(p, q, key)] == [
        (c.rep, c.orbit_size, c.mul_label) for c in oracle
    ]


def test_every_subgroup_is_counted_once_by_orbits():
    hol = hol_of(2, 5, "QbyP2_ordP")
    subs = enumerate_stratified(hol)
    classes = orbit_partition(hol, subs)
    assert sum(c.orbit_size for c in classes) == len(subs)
    # orbit reps are themselves in the enumerated set
    reps = {c.rep for c in classes}
    assert reps <= set(subs)


def test_orbit_reps_are_pairwise_nonconjugate():
    hol = hol_of(2, 5, "QbyP2_ordP")
    classes = list(classes_of(2, 5, "QbyP2_ordP"))
    # conjugating a rep by every automorphism never lands on another rep
    rep_sets = [set(packed_elements(hol, c.rep)) for c in classes]
    for i, c in enumerate(classes):
        arr = packed_elements(hol, c.rep)
        for f in range(hol.n_aut):
            g = hol.pack(0, f)
            gi = hol_inv(hol, g)
            conj = {hol.compose(hol.compose(g, int(x)), gi) for x in arr}
            for j, other in enumerate(rep_sets):
                if conj == other:
                    assert i == j


def test_stratified_orbit_classes_deterministic():
    a = classes_of(2, 5, "QbyP2_ordP")
    hol = hol_of(2, 5, "QbyP2_ordP")
    b = tuple(stratified_orbit_classes(hol))
    assert [c.rep for c in a] == [c.rep for c in b]
    assert [c.mul_label for c in a] == [c.mul_label for c in b]


def test_circle_group_is_the_multiplicative_group():
    hol = hol_of(2, 5, "CyclicP2Q")
    for cl in classes_of(2, 5, "CyclicP2Q"):
        circ = circle_group(hol, cl.rep)
        assert circ.n == 20
        assert identify_p2q(circ, 2, 5).key() == cl.mul_label.key()


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_class_labels_match_the_oracle(pair):
    for key, hol, cl in all_reps(*pair):
        assert identify_p2q_oracle(circle_group(hol, cl.rep), *pair) == cl.mul_label, key


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_circle_kernels_do_not_depend_on_the_chunk_bound(monkeypatch, pair):
    # each representative, then a copy with lam[1] and lam[2] swapped, which
    # is a lambda table still but mostly not closed
    n = pair[0] ** 2 * pair[1]
    open_tables = 0
    for key in label_keys(*pair):
        hol = hol_of(*pair, key)
        reps = np.array([cl.rep.lam for cl in classes_of(*pair, key)], dtype=np.int32)
        swapped = reps.copy()
        swapped[:, [1, 2]] = swapped[:, [2, 1]]
        lams = np.stack([reps, swapped], axis=1).reshape(-1, n)
        got = []
        for cells in (n * n, core.CHUNK_CELLS):
            monkeypatch.setattr(core, "CHUNK_CELLS", cells)
            got.append((circle_labels(hol, lams), _biskew_flags(hol, lams)))
        assert got[0] == got[1], key
        labels, flags = got[0]
        assert labels[::2] == [cl.mul_label for cl in classes_of(*pair, key)], key
        # closed iff lambda_{a o b} = lambda_a lambda_b as permutations of A
        for lam, label in zip(lams, labels):
            perm = hol.aut.perms[lam]
            circ = hol.base.mul[np.arange(n)[:, None], perm]
            closed = np.array_equal(perm[circ], perm[np.arange(n)[:, None, None], perm])
            assert (label is not None) == closed, key
        open_tables += labels.count(None)
        # the bi-skew flags of a stack are those of its tables one at a time
        assert flags == [_anti_hom(hol.base, hol.aut.perms[lam][None])[0] for lam in lams], key
        assert flags[::2] == [bi_skew_oracle(brace_from_regular(hol, cl.rep))
                              for cl in classes_of(*pair, key)], key
    assert open_tables


def test_each_subgroup_of_a_picks_its_generators_once(monkeypatch):
    # one classify_cold pass, on fresh groups: every listed subgroup keeps
    # the generators it was built from, so A pays one generating_set call,
    # the key of its Aut(A), and the whole pass 34 picks and 255 closures
    # (a pick extends the subgroup it has reached and closes nothing; 330
    # when each pick re-closed from the identity); when each subgroup of A
    # was picked once greedily, the pass paid 635 picks (237 of them on A,
    # besides the keys) and 1 062 closures
    picks, closures = [], []
    pick, close = core.generating_set, core.closure

    def counted_pick(group, elements):
        picks.append(group)
        return pick(group, elements)

    def counted_closure(*args, **kwargs):
        closures.append(args[0])
        return close(*args, **kwargs)

    monkeypatch.setattr(core, "generating_set", counted_pick)
    for module in (core, enumeration):
        monkeypatch.setattr(module, "closure", counted_closure)
    bases, classes = [], []
    for p, q in ((2, 5), (2, 7), (3, 7), (5, 2)):
        params = derive_params(p, q, "first")
        for key in label_keys(p, q):
            if p * p * q * aut_order(GroupLabel.from_key(key), params) > NORMAL_HOL_LIMIT:
                continue  # refused by the normal budget, as classify does
            sa = family_aut(p, q, key)
            bases.append(sa.base)
            classes += stratified_orbit_classes(Holomorph(sa.base, sa.aut))
    assert [sum(group is base for group in picks) for base in bases] == [1] * len(bases)
    assert (len(picks), len(closures)) == (34, 255)
    assert (len(classes), sum(cl.orbit_size for cl in classes)) == (145, 1348)


def test_orbit_class_totals_order20():
    # 43 orbit classes across the five additive types (the skew brace count
    # of order 20), and orbit sizes add up to the raw subgroup counts
    n_classes = 0
    for key in label_keys(2, 5):
        hol = hol_of(2, 5, key)
        classes = classes_of(2, 5, key)
        n_classes += len(classes)
        assert sum(c.orbit_size for c in classes) == len(enumerate_stratified(hol))
    assert n_classes == 43


def test_trivial_regular_subgroup_is_always_found():
    # A x {id} is regular with trivial pi2; it must appear in every family
    for key in label_keys(2, 5):
        hol = hol_of(2, 5, key)
        elems = tuple(sorted(hol.pack(a, hol.aut.identity) for a in range(20)))
        subs = set(enumerate_stratified(hol))
        assert HolSubgroup.from_packed(hol, elems) in subs
        # its class is the additive type itself
        trivial = [c for c in classes_of(2, 5, key) if c.pi2_size == 1]
        assert len(trivial) == 1
        assert trivial[0].mul_label.key() == key


def test_pi2_is_a_subgroup_image():
    # |pi2(G)| divides |Aut(A)| and |G| / |ker| = |pi2|
    for key in label_keys(2, 7):
        hol = hol_of(2, 7, key)
        for cl in classes_of(2, 7, key):
            sub = cl.rep
            assert hol.n_aut % sub.pi2_size == 0
            assert 28 % sub.pi2_size == 0
            assert sub.pi2_size * sub.kernel_size() == 28


@pytest.mark.parametrize("pair_key", [((3, 7), "PxQbyP"), ((5, 3), "GF")])
def test_class_reps_are_lex_least_in_their_orbit(pair_key):
    (p, q), key = pair_key
    hol = hol_of(p, q, key)
    for cl in classes_of(p, q, key):
        assert _orbit_of(hol, cl.rep.arr)[0] == cl.rep.lam


def test_orbit_skip_matches_the_full_list_oracle():
    # at (5,3) GF, 495 of 504 stratum representatives lie in orbits already
    # walked; skipping them must not change reps, orbit sizes or labels
    hol = hol_of(5, 3, "GF")
    assert len(list(_stratified_reps(hol))) == 504
    skipped = list(classes_of(5, 3, "GF"))
    oracle = orbit_partition(hol, enumerate_stratified(hol))
    assert len(skipped) == 9
    assert [(c.rep, c.orbit_size, c.mul_label) for c in skipped] == [
        (c.rep, c.orbit_size, c.mul_label) for c in oracle
    ]
    assert sum(c.orbit_size for c in skipped) == 552


CHUNK_CELLS = core.CHUNK_CELLS


def assert_lift_search_matches_the_oracle(monkeypatch, hol):
    """The lifts of every stratum against the scalar filter, with the
    default chunks of kernels and with chunks of one kernel and of n cells,
    and the stratum representatives against one scalar closure per
    combination, in order, with the default chunks and with chunks of 1, 2
    and 7 rows; returns how many 7-row chunks hold rows of more than one
    stratum, and how many stacks hold more than one kernel (1 cell splits
    them into chunks of one kernel)."""
    want_lifts, want = [], []
    for k_rep, k_gens, elements, gens, _ in kernel_strata(hol):
        # kernel generators that generate the kernel, and the lifts of the
        # oracle's greedy pick
        assert closure(hol.base, gens) == list(elements)
        want_lifts.append(lifts_oracle(hol, k_gens, elements)[1])
        want.extend(lift_search_oracle(hol, k_rep, k_gens, elements))
    assert want_lifts
    for cells in (CHUNK_CELLS, 1, hol.base.n):
        monkeypatch.setattr(core, "CHUNK_CELLS", cells)
        got = [lifts for *_, lifts in kernel_strata(hol)]
        assert len(got) == len(want_lifts), cells
        for per_gen, oracle in zip(got, want_lifts):
            assert len(per_gen) == len(oracle), cells
            for lifts, lifts_want in zip(per_gen, oracle):
                assert lifts.dtype == lifts_want.dtype and np.array_equal(lifts, lifts_want), cells
    split = sum(len(kernels.reps) > 1 for _, _, kernels in _strata(hol))
    for cells in (CHUNK_CELLS, hol.base.n, 2 * hol.base.n, 7 * hol.base.n):
        monkeypatch.setattr(core, "CHUNK_CELLS", cells)
        got = [lam for _, lam in _stratified_reps(hol)][1:]
        assert len(got) == len(want), cells
        for lam, oracle in zip(got, want):
            assert lam.dtype == oracle.dtype and np.array_equal(lam, oracle), cells
    return sum(len(ks) > 1 for ks, _ in _stream(hol, 7)), split


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_lift_search_matches_the_scalar_closure_oracle(monkeypatch, pair):
    # the lifts are those of the scalar filter, and the closures of the
    # stream of all their combinations keep the tables, and the order, of
    # one scalar closure per combination; the (3,7) PxQbyP stratum of
    # 2 376 combinations spans three chunks of the default bound
    shared, split = np.sum([assert_lift_search_matches_the_oracle(monkeypatch, hol_of(*pair, key))
                            for key in label_keys(*pair)], axis=0)
    assert shared and split


@pytest.mark.parametrize("pair_key", [((2, 5), key) for key in label_keys(2, 5)]
                         + [((3, 7), "PxQbyP")])
def test_lift_search_matches_the_oracle_without_a_composition_table(monkeypatch, pair_key):
    (p, q), key = pair_key
    monkeypatch.setattr(AutGroup, "COMP_LIMIT", 0)
    sa = family_aut(p, q, key)
    hol = Holomorph(sa.base, sa.aut)
    assert comp_table(hol.aut) is None
    assert_lift_search_matches_the_oracle(monkeypatch, hol)


def closures_of_rows(hol, b, g):
    """``_regular_closures`` of one part: the rows of b with the
    automorphisms g, started from {e}."""
    return _regular_closures(hol, [(np.arange(hol.base.n) == hol.base.identity, np.array(b), g)])


def collision_cases(hol):
    """One-row cases (b, g, regular) of a family whose A has two generators."""
    base, aut = hol.base, hol.aut
    e, one = base.identity, aut.identity
    f = next(x for x in range(aut.k) if x != one)
    a = int(np.nonzero(np.asarray(base.element_orders) == 2)[0][0])
    gens = generating_set(base, by_descending_order(base))
    assert len(gens) == 2
    t = gens[0]
    return [
        # (e, f) meets the identity (e, id) in pi1 at once
        ([[e]], [f], False),
        # (t, id) and (t, f) write one cell in the same round
        ([[t, t]], [one, f], False),
        # one translation of order p closes to a proper subgroup
        ([[a, a]], [one, one], False),
        # the translations A x 1 are regular
        ([gens], [one, one], True),
    ]


def test_regular_closures_reject_collisions_and_proper_subgroups():
    hol = hol_of(2, 7, "PxPQ")
    one = hol.aut.identity
    cases = collision_cases(hol)
    for b, g, regular in cases:
        keep, got = closures_of_rows(hol, b, g)
        want = regular_closure_oracle(hol, [hol.pack(u, h) for u, h in zip(b[0], g)])
        assert len(got) == int(regular) and keep.tolist() == [0] * regular
        assert (want is not None) is regular
        if regular:
            assert np.array_equal(got[0], want)
            assert (got[0] == one).all()
    # rows are closed independently: of three, only the translations survive
    (proper, _, _), (translations, _, _) = cases[2], cases[3]
    e = hol.base.identity
    keep, rows = closures_of_rows(hol, proper + translations + [[e, e]], [one, one])
    assert keep.tolist() == [1] and (rows[0] == one).all()


def test_regular_closures_of_mixed_rows_are_those_of_each_case():
    # every case in one call, each a part of its own width, which the call
    # pads with (e, id) to the widest: the same rows survive with the same
    # tables
    hol = hol_of(2, 7, "PxPQ")
    cases = collision_cases(hol) * 2
    want_keep, want = [], []
    for r, (cb, cg, _) in enumerate(cases):
        keep, got = closures_of_rows(hol, cb, cg)
        want_keep.extend([r] * len(keep))
        want.extend(got)
    keep, got = _regular_closures(hol, identity_parts(hol, [list(zip(cb[0], cg)) for cb, cg, _ in cases]))
    assert keep.tolist() == want_keep == [3, 7]
    assert len(got) == len(want) and all(map(np.array_equal, got, want))


def test_regular_closures_on_every_two_generator_row_at_order12():
    # (2,3) PxPQ: every pair of translation parts against every pair of
    # automorphisms, so every two-generator row and the clashes within one
    # round that it can meet
    hol = hol_of(2, 3, "PxPQ")
    n, k = hol.base.n, hol.n_aut
    assert (n, k) == (12, 12)
    b = np.array(list(itertools.product(range(n), repeat=2)))
    regular = 0
    for g in itertools.product(range(k), repeat=2):
        _, got = closures_of_rows(hol, b, g)
        want = [regular_closure_oracle(hol, [hol.pack(u, h) for u, h in zip(row, g)])
                for row in b.tolist()]
        want = [lam for lam in want if lam is not None]
        assert len(got) == len(want), g
        for lam, oracle in zip(got, want):
            assert np.array_equal(lam, oracle), g
        regular += len(got)
    assert regular


@pytest.mark.parametrize("pair", SMALL_PAIRS + ((5, 2),))
def test_each_k_gets_one_generator_if_cyclic_else_two_where_two_suffice(pair):
    # the pick generates K; one element exactly when K is cyclic, and more
    # than two only when no pair of K's elements generates K (brute force)
    sizes = collections.Counter()
    for key in label_keys(*pair):
        hol = hol_of(*pair, key)
        aut = hol.aut
        for k_rep, k_gens in {k_rep: k_gens for k_rep, k_gens, _ in _strata(hol)}.items():
            assert closure(aut, k_gens) == list(k_rep), key
            cyclic = bool((aut.element_orders[list(k_rep)] == len(k_rep)).any())
            assert (len(k_gens) == 1) == cyclic, key
            if len(k_gens) > 2:
                assert all(len(closure(aut, xy)) < len(k_rep)
                           for xy in itertools.combinations(k_rep, 2)), key
            sizes[len(k_gens)] += 1
    # only (5,2) Gk(1) has K that no two of its elements generate (two of
    # order 50)
    assert sizes[1] and sizes[2] and bool(sizes[3]) == (pair == (5, 2))


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_rows_with_a_lower_power_lift_close_to_no_regular_subgroup(pair):
    # Lemma 2 of _lifts: each lift the lower-power test drops makes every
    # row of the lift sets without that test that holds it die
    dead = 0
    for key in label_keys(*pair):
        hol = hol_of(*pair, key)
        for _, k_gens, elements, gens, new in kernel_strata(hol):
            _, old = lifts_oracle(hol, k_gens, elements, drop_lower_powers=False)
            for b, g in kernel_rows(hol, k_gens, old, gens):
                kept = np.all([np.isin(b[:, i], lifts) for i, lifts in enumerate(new)], axis=0)
                if not kept.all():
                    assert not len(closures_of_rows(hol, b[~kept], g)[0]), key
                    dead += int((~kept).sum())
    assert dead


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_stratified_reps_are_those_of_index_order_generators_and_every_lift(pair):
    # Lemmas 1 and 2: per family, the tables are those that the index-order
    # generators of K (``generating_set``) and the lifts without the
    # lower-power test close to; only their order differs
    for key in label_keys(*pair):
        hol = hol_of(*pair, key)
        want = set()
        for k_rep, _, elements, gens, _ in kernel_strata(hol):
            k_gens = generating_set(hol.aut, k_rep)
            _, old = lifts_oracle(hol, k_gens, elements, drop_lower_powers=False)
            for b, g in kernel_rows(hol, k_gens, old, gens):
                want.update(lam.tobytes() for lam in closures_of_rows(hol, b, g)[1])
        got = [lam.tobytes() for _, lam in _stratified_reps(hol)][1:]
        assert len(got) == len(set(got)) and set(got) == want, key


@pytest.mark.parametrize("pair", SMALL_PAIRS + ((5, 2),))
def test_stream_rows_from_the_kernel_match_rows_with_kernel_generators(monkeypatch, pair):
    # the start lemma of _regular_closures on every stratum: the lifts
    # closed from N x 1 keep the rows and tables of the same lifts beside
    # N's kept generators closed from {e}, with the default chunks, where
    # one chunk holds one- and two-generator rows of several strata, and
    # with chunks of one row
    mixed = 0
    for key in label_keys(*pair):
        hol = hol_of(*pair, key)
        for cells in (CHUNK_CELLS, hol.base.n):
            monkeypatch.setattr(core, "CHUNK_CELLS", cells)
            assert stream_start_mismatch(hol) is None, (key, cells)
        mixed += any(len({len(g) for _, _, g in parts}) > 1 for _, parts in
                     _stream(hol, max(1, CHUNK_CELLS // hol.base.n)))
    assert mixed


@pytest.mark.parametrize("fault", ["outside", "missing"])
def test_stratified_reps_refuse_a_table_whose_pi2_is_not_k(fault, monkeypatch):
    # the first kept table with |K| >= 2 has every entry of its largest
    # value v other than the identity moved off K ("outside": still |K|
    # distinct values) or onto the identity ("missing": every value in K,
    # one fewer distinct)
    hol, planted = hol_of(2, 5, "CyclicP2Q"), []
    monkeypatch.setattr(enumeration, "_regular_closures",
                        pi2_corruption(enumeration._regular_closures, fault, planted))
    with pytest.raises(AssertionError):
        list(_stratified_reps(hol))
    assert planted


PI2_REFUSAL_SCRIPT = """
import sys
from p2qbrace import enumeration
from helpers import hol_of, pi2_corruption
if sys.flags.optimize != 1:
    sys.exit(3)
planted = []
enumeration._regular_closures = pi2_corruption(enumeration._regular_closures, sys.argv[1], planted)
try:
    list(enumeration._stratified_reps(hol_of(2, 5, "CyclicP2Q")))
except AssertionError:
    sys.exit(0 if planted else 2)
sys.exit(1)
"""


@pytest.mark.parametrize("fault", ["outside", "missing"])
def test_stratified_reps_refuse_a_bad_pi2_under_python_o(fault):
    # the same corruption in an interpreter run with -O, which strips
    # assert statements: the refusal must still be raised
    tests = pathlib.Path(__file__).resolve().parent
    path = [str(tests), str(tests.parent / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-O", "-c", PI2_REFUSAL_SCRIPT, fault], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def cold_families():
    """The holomorphs one ``classify_cold`` pass of the benchmark enumerates:
    (2,5), (2,7), (3,7) and (5,2), less what the normal budget refuses."""
    for p, q in ((2, 5), (2, 7), (3, 7), (5, 2)):
        params = derive_params(p, q, "first")
        for key in label_keys(p, q):
            if p * p * q * aut_order(GroupLabel.from_key(key), params) <= NORMAL_HOL_LIMIT:
                yield hol_of(p, q, key)


def catalog_families():
    """The holomorphs one ``catalog`` pass of the benchmark enumerates."""
    for p, q in ((2, 5), (2, 7), (3, 7), (5, 3)):
        for key in sorted({lemma_entry(lid)["additive"] for lid in applicable_lemma_ids(p, q)}):
            yield hol_of(p, q, key)


def test_stream_rows_on_the_benchmark_families():
    # the rows closed per pass: 22 948 and 22 548 with the index-order
    # generators of K and without the lower-power test
    assert sum(map(stream_rows, cold_families())) == 6002
    assert sum(map(stream_rows, catalog_families())) == 5690


@pytest.mark.parametrize("key, rows, digest", [
    ("QbyP2_ordP", 51_693, "c45790cd7822987322a3e3bad3e8571898fef45e4997b5fbd74063e4b38989d4"),
    ("PxQbyP", 95_029, "188d9d8c14c68a4ea2505b1e3c89b967a35b6dec76f2cc8b1ca876c3770c743c"),
])
def test_order333_stream_rows_and_classes_are_pinned(key, rows, digest):
    # (3,37): 2 771 125 and 4 666 555 rows with the index-order generators
    # of K and without the lower-power test, and the same classes (the
    # digests were taken from that enumeration)
    assert stream_rows(hol_of(3, 37, key)) == rows
    assert classes_digest(classes_of(3, 37, key)) == digest


PROPERTY_FAMILIES = (((2, 3), "PxPQ"), ((2, 5), "QbyP2_ordP"))


@functools.lru_cache(maxsize=None)
def stream_generator_rows(pair_key):
    """The rows of the family's stream as lists of generators (b, g): the
    lifts beside the kernel's kept generators (``kernel_rows``), which
    generate the stratum's subgroups from {e}."""
    (p, q), key = pair_key
    hol = hol_of(p, q, key)
    return hol, [
        list(zip(br, g.tolist()))
        for _, k_gens, _, gens, lifts in kernel_strata(hol)
        for b, g in kernel_rows(hol, k_gens, lifts, gens)
        for br in b.tolist()
    ]


@st.composite
def generator_rows(draw):
    """A family, its rows of 1 to 3 generators (b, g) each, some of them
    lift combinations of its stream and the rest drawn at random, and the
    same rows padded with (e, id) to width 3 as arrays b and g."""
    hol, pool = stream_generator_rows(draw(st.sampled_from(PROPERTY_FAMILIES)))
    n, k = hol.base.n, hol.n_aut
    random_row = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)),
                          min_size=1, max_size=3)
    rows = draw(st.lists(st.one_of(st.sampled_from(pool), random_row), min_size=1, max_size=12))
    b = np.full((len(rows), 3), hol.base.identity)
    g = np.full((len(rows), 3), hol.aut.identity)
    for r, row in enumerate(rows):
        b[r, :len(row)], g[r, :len(row)] = zip(*row)
    return hol, rows, b, g


@settings(max_examples=60, deadline=None)
@given(generator_rows())
def test_regular_closures_of_random_padded_rows_match_the_oracle(case):
    hol, rows, _, _ = case
    keep, got = _regular_closures(hol, identity_parts(hol, rows))
    want = [regular_closure_oracle(hol, [hol.pack(u, h) for u, h in row]) for row in rows]
    assert keep.tolist() == [r for r, lam in enumerate(want) if lam is not None]
    for r, lam in zip(keep.tolist(), got):
        assert lam.dtype == want[r].dtype and np.array_equal(lam, want[r])


def assert_old_value_rule_keeps_the_same_rows(hol, b, g):
    rows = [list(zip(br, gr)) for br, gr in zip(b.tolist(), g.tolist())]
    keep, got = _regular_closures(hol, identity_parts(hol, rows))
    old_keep, old_got, met = old_value_closures(hol, b, g)
    assert keep.tolist() == old_keep.tolist()
    assert all(map(np.array_equal, got, old_got))
    return met


def test_old_value_rule_on_every_two_generator_row_at_order12():
    # (2,3) PxPQ: every row of two generators, so every pair of writes that
    # can meet in one round; the rows that the same-round half of the clash
    # rule kills are killed by the other half or left with an empty cell
    hol = hol_of(2, 3, "PxPQ")
    n, k = hol.base.n, hol.n_aut
    x = np.array(list(itertools.product(range(n * k), repeat=2)))
    b, g = np.divmod(x, k)
    met = assert_old_value_rule_keeps_the_same_rows(hol, b, g)
    assert met.sum() > len(x) // 10


@settings(max_examples=60, deadline=None)
@given(generator_rows())
def test_old_value_rule_on_random_padded_rows(case):
    hol, _, b, g = case
    assert_old_value_rule_keeps_the_same_rows(hol, b, g)

"""Holomorph arithmetic, packed closures, regularity, Aut-subgroup classes."""

import numpy as np
import pytest

from p2qbrace.core import AutGroup, subgroups_of_order
from p2qbrace.enumeration import stratified_orbit_classes
from p2qbrace.families import family_aut
from p2qbrace.holomorph import HolSubgroup, Holomorph, aut_subgroup_classes, closure_packed
from helpers import (
    SMALL_PAIRS,
    aut_as_group,
    candidate_pool,
    classes_of,
    comp_table,
    hol_inv,
    hol_of,
    hol_power,
    hol_product,
    label_keys,
    meets_stabiliser_trivially,
    packed_elements,
    pi1_closure_bound,
    structured_of,
    subgroup_orbit_mismatch,
    table_orbit_mismatch,
    unpack,
)


def test_holomorph_is_a_group():
    hol = hol_of(2, 5, "CyclicP2Q")
    assert (hol.base.n, hol.n_aut) == (20, 8)
    rng = np.random.default_rng(7)
    xs = rng.integers(0, hol.base.n * hol.n_aut, size=40)
    for x in map(int, xs):
        assert hol.compose(x, hol.identity) == x
        assert hol.compose(hol.identity, x) == x
        assert hol.compose(x, hol_inv(hol, x)) == hol.identity
        a, f = unpack(hol, x)
        assert hol.pack(a, f) == x
    for x, y, z in zip(map(int, xs), map(int, xs[1:]), map(int, xs[2:])):
        assert hol.compose(hol.compose(x, y), z) == hol.compose(x, hol.compose(y, z))


def test_hol_mul_matches_semidirect_formula():
    hol = hol_of(2, 5, "QbyP2_ordP")
    base, aut = hol.base, hol.aut
    rng = np.random.default_rng(3)
    for _ in range(30):
        a, b = map(int, rng.integers(0, base.n, 2))
        f, g = map(int, rng.integers(0, aut.k, 2))
        x, y = hol.pack(a, f), hol.pack(b, g)
        expect = hol.pack(int(base.mul[a, aut.perms[f, b]]), aut.compose(f, g))
        assert hol.compose(x, y) == expect


def test_candidate_pool_and_powers_match_the_definition():
    # x qualifies iff x != e, its order k divides |A| and pi1(x^j) first
    # returns to the identity of A at j = k; orders and powers by hol_power
    hol = hol_of(2, 7, "PxPQ")
    n, e = hol.base.n, hol.identity
    pool, powers = candidate_pool(hol)
    assert np.all(np.diff(pool) > 0)
    expect = []
    for x in range(hol.base.n * hol.n_aut):
        walk = [hol_power(hol, x, j) for j in range(1, n + 1)]
        length = next(j for j, w in enumerate(walk, 1) if w // hol.n_aut == hol.base.identity)
        if x != e and n % length == 0 and walk[length - 1] == e:
            expect.append(x)
    assert pool.tolist() == expect
    orders = []
    for x, row in zip(map(int, pool), powers.tolist()):
        k = row.index(e) + 1
        assert n % k == 0
        assert all(hol_power(hol, x, k // d) != e for d in (2, 7) if k % d == 0)
        assert row == [hol_power(hol, x, j) for j in range(1, k + 1)] + [e] * (len(row) - k)
        orders.append(k)
    assert powers.shape == (len(pool), max(orders))


def test_product_is_the_vectorized_mul():
    for key in ("QbyP2_ordP", "PxQbyP"):
        hol = hol_of(2, 5, key) if key == "QbyP2_ordP" else hol_of(3, 7, key)
        rng = np.random.default_rng(5)
        xs, ys = rng.integers(0, hol.base.n * hol.n_aut, size=(2, 60))
        prod = hol_product(hol, xs[:, None], ys[None, :])
        assert prod.shape == (60, 60) and prod.dtype == np.int64
        assert prod.tolist() == [[hol.compose(x, y) for y in map(int, ys)] for x in map(int, xs)]


def test_closure_packed_gives_subgroups():
    hol = hol_of(2, 5, "CyclicP2Q")
    els = closure_packed(hol, [hol.pack(1, 0)])
    assert els is not None and len(els) == 20
    sub = set(els)
    for x in els:
        assert hol_inv(hol, int(x)) in sub
    assert closure_packed(hol, [hol.pack(1, 0)], limit=10) is None


def test_translation_subgroup_is_regular():
    for key in ("CyclicP2Q", "QbyP2_ordP"):
        hol = hol_of(2, 5, key)
        ident_aut = hol.aut.identity
        elems = tuple(sorted(hol.pack(a, ident_aut) for a in range(20)))
        assert meets_stabiliser_trivially(hol, elems)
        sub = HolSubgroup.from_packed(hol, elems)
        assert sub.lam == (ident_aut,) * 20
        assert sub.pi2_size == 1
        assert sub.kernel_size() == 20


def test_non_regular_subgroup_detected():
    hol = hol_of(2, 5, "CyclicP2Q")
    base, aut = hol.base, hol.aut
    # the point stabiliser 1 x Aut has order 8 and fixes the identity
    stab = closure_packed(hol, [hol.pack(base.identity, f) for f in aut.generators])
    assert len(stab) == 8
    # translations by an order-10 element and the inversion: order 20, but
    # pi1 covers only the index-2 subgroup
    t = next(x for x in range(20) if base.element_orders[x] == 10)
    inversion = next(f for f in range(aut.k) if np.array_equal(aut.perms[f], base.inv))
    dihedral = closure_packed(hol, [hol.pack(t, aut.identity), hol.pack(base.identity, inversion)])
    assert len(dihedral) == 20
    for els in (stab, dihedral):
        assert not meets_stabiliser_trivially(hol, els)
        with pytest.raises(ValueError, match="pi1 is not a bijection"):
            HolSubgroup.from_packed(hol, els)


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_stabiliser_criterion_accepts_every_class_representative(pair):
    # every representative is a subgroup (its elements close to themselves)
    # that the stabiliser criterion calls regular, and the lambda
    # constructor gives it back from those elements in any order
    for key in label_keys(*pair):
        hol = hol_of(*pair, key)
        for cl in classes_of(*pair, key):
            elems = packed_elements(hol, cl.rep)
            assert closure_packed(hol, elems, limit=hol.base.n) == elems
            assert meets_stabiliser_trivially(hol, elems)
            assert HolSubgroup.from_packed(hol, elems[::-1]) == cl.rep


def test_lambda_order_is_the_packed_tuple_order():
    # sorted packed elements are a * |Aut| + lam[a], so comparing lambda
    # tables compares element tuples; random pairs within each family
    rng = np.random.default_rng(11)
    for pair in SMALL_PAIRS:
        for key in label_keys(*pair):
            hol = hol_of(*pair, key)
            reps = [cl.rep for cl in classes_of(*pair, key)]
            for i, j in rng.integers(0, len(reps), size=(20, 2)):
                r, s = reps[i], reps[j]
                x, y = packed_elements(hol, r), packed_elements(hol, s)
                assert (r < s, r == s) == (x < y, x == y)


def test_pi1_closure_bound_contains_generated_a_parts():
    hol = hol_of(2, 5, "QbyP2_ordP")
    gens = [hol.pack(3, 2), hol.pack(5, 1)]
    bound = set(pi1_closure_bound(hol, gens))
    closed = closure_packed(hol, gens)
    if closed is not None:
        assert {int(x) // hol.n_aut for x in closed} <= bound


def test_candidate_pool_excludes_nothing_regular_needs():
    # every non-identity element of every regular subgroup lies in the pool
    hol = hol_of(2, 5, "QbyP2_ordP")
    pool = set(map(int, candidate_pool(hol)[0]))
    for cl in classes_of(2, 5, "QbyP2_ordP"):
        assert set(packed_elements(hol, cl.rep)) - {hol.identity} <= pool


def test_aut_subgroup_classes_against_brute_force():
    sa = structured_of(2, 5, "CyclicP2Q")
    aut_group = aut_as_group(sa.aut)
    for m in (1, 2, 4):
        classes = aut_subgroup_classes(sa.aut, m)
        brute = subgroups_of_order(aut_group, m)
        # every brute subgroup is conjugate to exactly one returned class;
        # Aut(Z20) is abelian so conjugacy is equality and counts agree
        assert len(classes) == len(brute)
        assert sorted(classes) == sorted(brute)


def test_aut_subgroup_classes_nonabelian_case():
    sa = structured_of(2, 5, "QbyP2_ordP")  # |Aut| = 40, nonabelian
    aut_group = aut_as_group(sa.aut)
    for m in (2, 4, 5, 10):
        classes = aut_subgroup_classes(sa.aut, m)
        brute = subgroups_of_order(aut_group, m)
        # classes must be pairwise non-conjugate and cover all subgroups
        seen = set()
        for sub in brute:
            hits = [
                c
                for c in classes
                if any(
                    tuple(sorted(int(aut_group.mul[aut_group.mul[g, x], aut_group.inv[g]]) for x in sub)) == c
                    for g in range(aut_group.n)
                )
            ]
            assert len(hits) == 1, (m, sub)
            seen.add(hits[0])
        assert seen == set(classes)


def test_subgroup_pi2_and_kernel_size():
    hol = hol_of(2, 5, "CyclicP2Q")
    for cl in classes_of(2, 5, "CyclicP2Q"):
        sub = cl.rep
        assert len(sub.lam) == 20
        assert sub.pi2_size * sub.kernel_size() == 20
        assert len(set(sub.lam)) == sub.pi2_size


@pytest.mark.parametrize("table", [True, False])
def test_conjugate_subgroup_matches_its_definition(monkeypatch, table):
    # the scatter of a lambda table through a conjugation row equals
    # (1,h) x (1,h)^-1 computed element by element with hol.compose and hol_inv,
    # with the composition table and without it; a stack of every
    # representative gives, row by row, the one-table calls
    if not table:
        monkeypatch.setattr(AutGroup, "COMP_LIMIT", 0)
    sa = family_aut(2, 5, "QbyP2_ordP")
    hol = Holomorph(sa.base, sa.aut)
    assert (comp_table(hol.aut) is not None) == table
    rng = np.random.default_rng(0)
    hs = list(hol.aut.generators) + [int(h) for h in rng.integers(0, hol.n_aut, 5)]
    classes = stratified_orbit_classes(hol)
    for cl in classes:
        for h in hs:
            g = hol.pack(hol.base.identity, h)
            gi = hol_inv(hol, g)
            conj = [hol.compose(hol.compose(g, x), gi) for x in packed_elements(hol, cl.rep)]
            got = hol.conjugate_subgroup(cl.rep.arr, h)
            assert got.dtype == cl.rep.arr.dtype
            assert tuple(got.tolist()) == HolSubgroup.from_packed(hol, conj).lam
    stack = np.array([cl.rep.lam for cl in classes], dtype=np.int32)
    for h in hs:
        got = hol.conjugate_subgroup(stack, h)
        assert got.shape == stack.shape and got.dtype == stack.dtype
        for row, lam in zip(got, stack):
            assert np.array_equal(row, hol.conjugate_subgroup(lam, h))
    cached = classes_of(2, 5, "QbyP2_ordP")
    assert [(c.rep, c.orbit_size, c.mul_label) for c in classes] == [
        (c.rep, c.orbit_size, c.mul_label) for c in cached
    ]


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_layered_orbits_match_the_member_by_member_oracle(pair):
    # the orbit of every stratum representative, by layers of stacked
    # conjugations, against the member-by-member walk over the definition;
    # and every walk of aut_subgroup_classes
    assert table_orbit_mismatch(*pair) is None
    assert subgroup_orbit_mismatch(*pair) is None


def test_layered_subgroup_orbits_match_the_oracle_at_order50():
    # (5,2): Gk(1) has 12 000 automorphisms and no composition table
    assert subgroup_orbit_mismatch(5, 2) is None

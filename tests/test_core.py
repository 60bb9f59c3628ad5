"""Group plumbing: tables, closures, subgroup scans, isomorphism, labels."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2qbrace import core
from p2qbrace.core import (
    FAMILIES,
    AutGroup,
    FiniteGroup,
    GroupLabel,
    associativity_failure,
    closure,
    compute_automorphisms,
    generating_set,
    identify_p2q,
    subgroups_of_order,
)
from p2qbrace.enumeration import circle_group
from p2qbrace.families import family_aut
from helpers import (
    LOOP5,
    SMALL_PAIRS,
    are_isomorphic,
    aut_order_oracle,
    brute_aut_of,
    by_descending_order,
    center_oracle,
    circle_labels_mismatch,
    class_sizes_oracle,
    classes_of,
    comp_table,
    comp_table_oracle,
    direct_product_table,
    exponent,
    extend_oracle,
    first_associativity_failure,
    generating_set_mismatch,
    group_of,
    hol_of,
    hom_images_oracle,
    identify_p2q_oracle,
    kept_generators_failure,
    label_keys,
    params_of,
    subgroups_of_order_oracle,
)


def cyclic(n):
    mul = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(mul.astype(np.int32))


def sym3():
    # permutations of {0,1,2} listed as images, composed left to right
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    idx = {p: i for i, p in enumerate(perms)}
    mul = np.zeros((6, 6), dtype=np.int32)
    for i, a in enumerate(perms):
        for j, b in enumerate(perms):
            mul[i, j] = idx[tuple(b[a[k]] for k in range(3))]
    return FiniteGroup(mul)


def z2xz6_identity_last():
    # Z2 x Z6 with (a, b) at index 11 - (6a + b), so the identity is index 11
    old = np.arange(12)
    a, b = old // 6, old % 6
    prod = 6 * ((a[:, None] + a[None, :]) % 2) + (b[:, None] + b[None, :]) % 6
    mul = 11 - prod[11 - old[:, None], 11 - old[None, :]]
    return FiniteGroup(mul.astype(np.int32))


def subgroups_by_subsets(group):
    """Distinct closures of all seeds of at most three elements.

    That is every subgroup of order m | p^2 q: a Sylow p-subgroup of order
    at most p^2 needs two generators, a Sylow q-subgroup one.
    """
    n = len(group.element_orders)
    return {
        tuple(closure(group, seed))
        for r in range(4)
        for seed in itertools.combinations(range(n), r)
    }


def test_cyclic_group_basics():
    g = cyclic(12)
    assert g.identity == 0
    assert g.is_abelian()
    assert exponent(g) == 12
    # order of k in Z12 is 12/gcd(k, 12)
    assert list(g.element_orders) == [1, 12, 6, 4, 3, 12, 2, 12, 3, 4, 6, 12]
    assert g.power(5, 7) == (5 * 7) % 12
    assert g.power(5, -1) == 7


def scalar_order(group, x):
    """The first j >= 1 at which x^j, by repeated ``compose``, is the identity."""
    j, y = 1, x
    while y != group.identity:
        j, y = j + 1, group.compose(y, x)
    return j


@pytest.mark.parametrize("table", [True, False], ids=["table", "no table"])
@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_element_orders_are_the_first_powers_at_the_identity(monkeypatch, pair, table):
    # A and Aut(A) of every family; without a table Aut(A) composes by
    # generator-image codes
    if not table:
        monkeypatch.setattr(AutGroup, "COMP_LIMIT", 0)
    for key in label_keys(*pair):
        sa = family_aut(*pair, key)
        assert (comp_table(sa.aut) is not None) == table
        for group in (sa.base, sa.aut):
            orders = group.element_orders
            assert orders.dtype == np.int64
            assert orders.tolist() == [scalar_order(group, x) for x in range(len(orders))], key


def test_element_orders_of_unchecked_tables():
    # not a group (row 1 repeats 2): the walk takes x^j = x^(j-1) x, so the
    # table gives orders, while in its transpose the powers of 1 stay at 2
    table = np.array([[0, 1, 2, 3], [1, 2, 2, 0], [2, 3, 0, 1], [3, 0, 1, 2]])
    assert FiniteGroup(table, check=False).element_orders.tolist() == [1, 4, 2, 4]
    with pytest.raises(RuntimeError, match="ran away"):
        FiniteGroup(table.T, check=False).element_orders


def test_nonassociative_table_rejected():
    bad = np.zeros((3, 3), dtype=np.int32)
    bad[1, 1] = 2
    bad[2, 2] = 1
    with pytest.raises(ValueError):
        FiniteGroup(bad)


@pytest.mark.parametrize("name", ["loop5", "loop5 x Z2", "Z2 x loop5"])
def test_nonassociative_loops_fail_at_the_first_triple(name):
    # identity and inverses hold, so only the associativity test can reject
    # them; in "loop5 x Z2" the first generator, (e, 1), passes Light's
    # test and the others must be tested too
    z2 = np.array([[0, 1], [1, 0]])
    table = {
        "loop5": LOOP5,
        "loop5 x Z2": direct_product_table(LOOP5, z2),
        "Z2 x loop5": direct_product_table(z2, LOOP5),
    }[name]
    witness = first_associativity_failure(table)
    assert witness is not None
    assert associativity_failure(FiniteGroup(table, check=False)) == witness
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(table)


def test_associativity_test_accepts_groups():
    for group in (cyclic(12), sym3(), z2xz6_identity_last(), group_of(2, 5, "QbyP2_ordP")):
        assert associativity_failure(group) is None
        assert first_associativity_failure(group.mul) is None


def test_sym3_structure():
    g = sym3()
    assert not g.is_abelian()
    assert sorted(g.element_orders) == [1, 2, 2, 2, 3, 3]
    # per-element class sizes: identity 1, two 3-cycles, three transpositions
    assert sorted(g.conjugacy_class_sizes) == [1, 2, 2, 3, 3, 3]
    assert g.center() == [g.identity]


@pytest.mark.parametrize("pair", ((2, 3),) + SMALL_PAIRS)
def test_center_and_class_sizes_match_the_loops(pair):
    # every family at the pair and the circle groups of its orbit classes
    groups = []
    for key in label_keys(*pair):
        groups.append(group_of(*pair, key))
        groups.extend(circle_group(hol_of(*pair, key), cl.rep) for cl in classes_of(*pair, key))
    for g in groups:
        sizes = g.conjugacy_class_sizes
        assert sizes.dtype == np.int32
        assert sizes.tolist() == class_sizes_oracle(g).tolist()
        assert g.center() == center_oracle(g)
        assert all(type(x) is int for x in g.center())

def test_closure_and_generating_set():
    g = cyclic(20)
    assert closure(g, [4]) == [0, 4, 8, 12, 16]
    assert closure(g, [4], limit=3) is None
    # greedy in the order given, with no default order
    with pytest.raises(TypeError):
        generating_set(g)
    gens = generating_set(g, by_descending_order(g))
    assert gens == [1]
    assert closure(g, gens) == list(range(20))
    assert generating_set(g, [4, 5, 1]) == [4, 5]
    s3 = sym3()
    assert len(generating_set(s3, by_descending_order(s3))) <= 2
    # a table given no generators takes the index-order pick, once
    for h in (g, s3, group_of(3, 7, "PxQbyP")):
        fresh = FiniteGroup(h.mul)
        assert fresh.generators == generating_set(h, range(h.n))
        assert fresh.generators is fresh.generators


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_generating_set_matches_the_oracle(pair):
    assert generating_set_mismatch(*pair) is None


def test_subgroups_of_order_against_hand_counts():
    s3 = sym3()
    # S3: three subgroups of order 2, one of order 3
    assert len(subgroups_of_order(s3, 2)) == 3
    assert len(subgroups_of_order(s3, 3)) == 1
    assert subgroups_of_order(s3, 6) == [tuple(range(6))]
    # a cyclic group has one subgroup per divisor
    z12 = cyclic(12)
    for d in (1, 2, 3, 4, 6, 12):
        assert len(subgroups_of_order(z12, d)) == 1
    # every returned tuple is closed
    for sub in subgroups_of_order(s3, 2):
        els = set(sub)
        assert all(int(s3.mul[a, b]) in els for a in sub for b in sub)
    # (Z2)^3: seven subgroups of order 2 and seven of order 4
    z2 = cyclic(2).mul
    z2_cubed = FiniteGroup(direct_product_table(direct_product_table(z2, z2), z2))
    counts = {m: len(subgroups_of_order(z2_cubed, m)) for m in (1, 2, 4, 8)}
    assert counts == {1: 1, 2: 7, 4: 7, 8: 1}
    # the solvability argument needs at most two distinct prime factors
    with pytest.raises(ValueError):
        subgroups_of_order(cyclic(60), 30)


def test_subgroups_of_order_when_the_identity_is_the_last_index():
    g = z2xz6_identity_last()
    assert g.identity == 11
    counts = {m: len(subgroups_of_order(g, m)) for m in (1, 2, 3, 4, 6, 12)}
    assert counts == {1: 1, 2: 3, 3: 1, 4: 1, 6: 3, 12: 1}


@pytest.mark.parametrize("case", ["Z2xZ6 relabelled", "QbyP2_ordP", "its Aut without table"])
def test_subgroups_of_order_against_closures_of_small_seeds(monkeypatch, case):
    if case == "Z2xZ6 relabelled":
        group, n = z2xz6_identity_last(), 12
    elif case == "QbyP2_ordP":
        group, n = group_of(2, 5, "QbyP2_ordP"), 20
    else:
        monkeypatch.setattr(AutGroup, "COMP_LIMIT", 0)
        group, n = family_aut(2, 5, "QbyP2_ordP").aut, 20
        assert comp_table(group) is None and group.k == 40
    oracle = subgroups_by_subsets(group)
    for m in range(1, n + 1):
        if n % m == 0:
            assert subgroups_of_order(group, m) == sorted(s for s in oracle if len(s) == m), m


@pytest.mark.parametrize("table", [True, False], ids=["table", "no table"])
@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_subgroups_of_order_against_the_pairwise_oracle(monkeypatch, pair, table):
    # A and Aut(A) of every family, fresh so that no list is cached yet, at
    # every order dividing both |A| and the group order
    p, q = pair
    n = p * p * q
    if not table:
        monkeypatch.setattr(AutGroup, "COMP_LIMIT", 0)
    for key in label_keys(p, q):
        sa = family_aut(p, q, key)
        assert (comp_table(sa.aut) is not None) == table
        for group in (sa.base, sa.aut):
            size = len(group.element_orders)
            for m in range(1, n + 1):
                if n % m == 0 and size % m == 0:
                    expect = subgroups_of_order_oracle(group, m)
                    assert subgroups_of_order(group, m) == expect, (key, m)


def test_subgroups_of_order_against_the_pairwise_oracle_at_order50():
    # (5,2) Gk(1): 12 000 automorphisms, past COMP_LIMIT, so no table
    aut = family_aut(5, 2, "Gk(1)").aut
    assert comp_table(aut) is None
    for m in (10, 25, 50):
        assert subgroups_of_order(aut, m) == subgroups_of_order_oracle(aut, m), m


def list_every_order(group, n):
    """``core.subgroups_of_order`` at every order dividing n and the group
    order, as the module holds it at call time."""
    size = len(group.element_orders)
    for m in range(1, n + 1):
        if n % m == 0 and size % m == 0:
            core.subgroups_of_order(group, m)


@pytest.mark.parametrize("pair", SMALL_PAIRS + ((5, 2),))
def test_kept_generators_generate_their_subgroups(pair):
    # A and Aut(A) of every family: each listed subgroup keeps generators
    # that generate it, at most Omega(|H|) of them; (5,2) Gk(1) has 12 000
    # automorphisms and no composition table
    p, q = pair
    for key in label_keys(p, q):
        sa = family_aut(p, q, key)
        for group in (sa.base, sa.aut):
            list_every_order(group, p * p * q)
            assert len(group.subgroups) > 1, key
            assert kept_generators_failure(group) is None, key


def test_kept_generators_without_the_coset_step_fail_with_a_witness(monkeypatch):
    # the wrong rule: keep N's generators and drop y, the step from N to H
    # (kept first), wherever H was not built from one generator
    real = core.subgroups_of_order

    def drop_y(group, m):
        fresh = m not in group.subgroups
        subs = real(group, m)
        if fresh and m in group.subgroups:
            group.subgroups[m] = {h: gens[1:] or gens for h, gens in group.subgroups[m].items()}
        return subs

    monkeypatch.setattr(core, "subgroups_of_order", drop_y)
    sa = family_aut(3, 7, "PxQbyP")
    for group in (sa.base, sa.aut):
        list_every_order(group, 63)
        m, sub, gens = kept_generators_failure(group)
        assert gens and len(closure(group, gens)) < len(sub) == m


def relabelled(g, perm):
    """The same group with element x renamed perm[x]."""
    inv = np.argsort(perm)
    return FiniteGroup(perm[g.mul[inv[:, None], inv[None, :]]].astype(np.int32))


def test_are_isomorphic_positive_and_negative():
    a = cyclic(6)
    b = relabelled(a, np.array([3, 1, 4, 0, 5, 2]))
    iso = are_isomorphic(a, b)
    assert iso is not None and iso.is_homomorphism() and iso.is_bijective()
    assert are_isomorphic(a, sym3()) is None


def assert_hom_images_match_the_oracle(src, dst):
    """Same tables, dtypes and order as the backtracking oracle; returns
    how many."""
    found = [row for chunk in core._hom_images(src, dst) for row in chunk]
    expect = list(hom_images_oracle(src, dst))
    assert len(found) == len(expect)
    for a, b in zip(found, expect):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return len(found)


# a small chunk bound puts chunk boundaries inside the searches, so order
# across them is checked too (13 to 51 candidate maps per chunk here)
SMALL_CHUNK = 2**10


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_hom_images_match_the_backtracking_oracle(monkeypatch, pair):
    monkeypatch.setattr(core, "CHUNK_CELLS", SMALL_CHUNK)
    for key in label_keys(*pair):
        g = group_of(*pair, key)
        assert assert_hom_images_match_the_oracle(g, g) == family_aut(*pair, key).aut.k, key


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_extend_matches_the_strided_fill(pair):
    # the structured path extends the generator images of every
    # automorphism, the brute-force path every candidate tuple of
    # _hom_images; both give the maps of the strided fill, values and dtype
    for key in label_keys(*pair):
        sa = family_aut(*pair, key)
        base = sa.base
        blocks = [sa.aut.perms[:, base.generators].astype(np.int64)]
        inv = core._element_invariants(base)
        cands = [np.array([y for y in range(base.n) if inv[y] == inv[s]]) for s in base.generators]
        blocks += core._product_rows(cands, 4096)
        got = list(core._extend(base, base, blocks))
        assert np.array_equal(got[0], sa.aut.perms), key
        for phi, imgs in zip(got, blocks, strict=True):
            want = extend_oracle(base, base, imgs)
            assert phi.dtype == want.dtype and np.array_equal(phi, want), key


def test_hom_images_between_different_tables_match_the_oracle(monkeypatch):
    monkeypatch.setattr(core, "CHUNK_CELLS", SMALL_CHUNK)
    g = group_of(3, 7, "PxQbyP")  # non-abelian, 504 candidate tuples
    h = relabelled(g, np.random.default_rng(0).permutation(g.n))
    assert assert_hom_images_match_the_oracle(g, h) == 252
    assert assert_hom_images_match_the_oracle(cyclic(6), sym3()) == 0


def test_automorphism_group_is_closed_and_faithful():
    aut = compute_automorphisms(cyclic(12))
    comp = comp_table(aut)
    assert comp is not None
    for f in range(aut.k):
        for g in range(aut.k):
            expect = aut.perms[f][aut.perms[g]]  # apply g then f
            assert np.array_equal(aut.perms[comp[f, g]], expect)
    assert len({p.tobytes() for p in aut.perms}) == aut.k


@pytest.mark.parametrize("source", ["structured", "brute force"])
def test_comp_table_from_generator_codes(source):
    # the table found by generator-image codes equals the lookup of whole
    # composed permutations in a dict keyed by row bytes
    if source == "structured":
        aut = family_aut(2, 5, "QbyP2_ordP").aut
    else:
        aut = brute_aut_of(2, 7, "PxQbyP")
    index = {row.tobytes(): i for i, row in enumerate(aut.perms)}
    gens = aut.base.generators
    # the generator images fix each automorphism
    assert len(np.unique(aut.perms[:, gens], axis=0)) == aut.k
    assert comp_table(aut) is not None
    for f in range(aut.k):
        for g in range(aut.k):
            assert comp_table(aut)[f, g] == index[aut.perms[f][aut.perms[g]].tobytes()]


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_comp_table_equals_the_ranked_oracle(pair):
    # the table of gathers from a few ranked rows equals the table with
    # every row ranked, for structured and brute-force Aut(A) alike
    for key in label_keys(*pair):
        for aut in (family_aut(*pair, key).aut, brute_aut_of(*pair, key)):
            comp = comp_table(aut)
            assert comp.dtype == np.int32 and np.array_equal(comp, comp_table_oracle(aut)), key


def test_comp_table_equals_the_ranked_oracle_at_order117():
    aut = family_aut(3, 13, "PxQbyP").aut
    assert aut.k == 936
    assert np.array_equal(comp_table(aut), comp_table_oracle(aut))


def test_comp_table_on_a_relabelled_brute_force_group():
    # the base identity is not element 0 here; the identity automorphism is
    # still row 0, the least permutation in the lex order of the rows
    base = group_of(2, 7, "PxQbyP")
    g = relabelled(base, np.random.default_rng(0).permutation(base.n))
    aut = compute_automorphisms(g)
    assert g.identity != 0 and aut.identity == 0
    assert np.array_equal(comp_table(aut), comp_table_oracle(aut))


@pytest.mark.parametrize("family", [(2, 5, "QbyP2_ordP"), (3, 7, "PxQbyP"), (5, 3, "GF")])
def test_rows_not_closed_under_composition_fail_on_the_first_product(family):
    # drop a self-inverse row: every other row keeps its inverse, so the
    # constructor passes, but the rest is not closed (the AutGroup lemma)
    aut = family_aut(*family).aut
    every = np.arange(aut.k)
    drop = every[(aut.inv == every) & (every != aut.identity)][0]
    cut = AutGroup(aut.base, np.delete(aut.perms, drop, axis=0))
    with pytest.raises(KeyError, match="images of no automorphism"):
        cut.product(0, 0)


@pytest.mark.parametrize("table", [True, False], ids=["table", "no table"])
@pytest.mark.parametrize("source", ["structured", "brute force"])
def test_identity_and_inverses_against_whole_rows(monkeypatch, source, table):
    # oracle: the identity row and each row's argsort, found among the rows
    if not table:
        monkeypatch.setattr(AutGroup, "COMP_LIMIT", 0)
    if source == "structured":
        aut = family_aut(3, 7, "PxQbyP").aut
    else:
        aut = compute_automorphisms(group_of(2, 7, "PxQbyP"))
    assert (comp_table(aut) is not None) == table
    index = {row.tobytes(): i for i, row in enumerate(aut.perms)}
    assert aut.identity == index[np.arange(aut.base.n, dtype=np.int32).tobytes()]
    inv = [index[np.argsort(row).astype(np.int32).tobytes()] for row in aut.perms]
    assert aut.inv.tolist() == inv
    assert all(aut.compose(f, inv[f]) == aut.identity for f in range(aut.k))


def test_equal_generator_images_are_duplicate_automorphisms():
    aut = family_aut(2, 5, "QbyP2_ordP").aut
    with pytest.raises(ValueError, match="duplicate automorphisms"):
        AutGroup(aut.base, np.vstack([aut.perms, aut.perms[3]]))
    # a second row that agrees with row 3 on the generators only
    gens = set(aut.base.generators)
    x, y = [x for x in range(aut.base.n) if x not in gens and x != aut.base.identity][:2]
    other = aut.perms[3].copy()
    other[[x, y]] = other[[y, x]]
    with pytest.raises(ValueError, match="duplicate automorphisms"):
        AutGroup(aut.base, np.vstack([aut.perms, other]))


def test_automorphism_group_orders():
    # |Aut(Z_n)| = phi(n); an independent Euler-phi count
    for n in (5, 8, 12, 20):
        phi = sum(1 for k in range(1, n) if np.gcd(k, n) == 1)
        assert compute_automorphisms(cyclic(n)).k == phi
    assert compute_automorphisms(sym3()).k == 6  # S3 is complete


def test_compute_automorphisms_refuses_groups_past_the_bound():
    with pytest.raises(ValueError, match=r"^group of order 201 exceeds the bound 200$"):
        compute_automorphisms(cyclic(core.BRUTE_FORCE_BOUND + 1))


def test_compute_automorphisms_names_the_trivial_group():
    with pytest.raises(ValueError, match="trivial group"):
        compute_automorphisms(FiniteGroup([[0]]))


@pytest.mark.parametrize("table", [True, False], ids=["table", "no table"])
@pytest.mark.parametrize("source", ["structured", "brute force"])
def test_composition_is_f_after_g(monkeypatch, source, table):
    # compose(f, g) and product(f, g) are f o g: apply g, then f.  Both
    # groups are non-abelian, so the other order would fail.
    if not table:
        monkeypatch.setattr(AutGroup, "COMP_LIMIT", 0)
    if source == "structured":
        aut = family_aut(2, 5, "QbyP2_ordP").aut
    else:
        aut = compute_automorphisms(group_of(2, 7, "PxQbyP"))
    assert (comp_table(aut) is not None) == table
    assert len({p.tobytes() for p in aut.perms}) == aut.k
    # the generator images fix each automorphism
    assert len(np.unique(aut.perms[:, aut.base.generators], axis=0)) == aut.k
    every = np.arange(aut.k)
    prod = aut.product(every[:, None], every[None, :])
    assert not np.array_equal(prod, prod.T)
    after = aut.perms[every[:, None, None], aut.perms[None, :, :]]  # f(g(x))
    assert np.array_equal(aut.perms[prod], after)
    assert all(aut.compose(f, g) == prod[f, g] for f in range(aut.k) for g in range(aut.k))


# ten prime pairs, 44 families, (7,2) Gk(1) with its 98 784 automorphisms
# included; the whole check takes a few seconds
LEMMA_PAIRS = ((2, 3), (3, 2), (2, 5), (2, 7), (3, 7), (5, 3), (5, 2), (2, 11), (3, 13), (7, 2))


@pytest.mark.parametrize("pair", LEMMA_PAIRS)
def test_key_code_order_is_the_lex_order_of_whole_rows(pair):
    # the lemma in the AutGroup docstring, from rows given in a shuffled order
    rng = np.random.default_rng(sum(pair))
    for key in label_keys(*pair):
        sa = family_aut(*pair, key)
        rows = sa.aut.perms[rng.permutation(sa.aut.k)]
        aut = AutGroup(sa.base, rows)
        assert np.array_equal(aut.perms, rows[aut_order_oracle(rows)]), key
        assert np.array_equal(aut.perms, sa.aut.perms), key


RELABEL_FAMILIES = [(p, q, key) for p, q in ((2, 3), (3, 2), (2, 5), (2, 7)) for key in label_keys(p, q)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RELABEL_FAMILIES), st.integers(min_value=0, max_value=2**32 - 1))
def test_key_code_order_on_relabelled_brute_force_groups(family, seed):
    # the identity lands anywhere and the generators are picked by element
    # order, so the key is not among them in general
    base = group_of(*family)
    g = relabelled(base, np.random.default_rng(seed).permutation(base.n))
    aut = compute_automorphisms(g)
    assert np.array_equal(aut_order_oracle(aut.perms), np.arange(aut.k))
    assert aut.key == generating_set(g, range(g.n))
    assert len(np.unique(aut.perms[:, g.generators], axis=0)) == aut.k
    assert np.array_equal(aut.perms[aut.identity], np.arange(g.n))


def test_rows_that_agree_on_the_key_are_duplicate_automorphisms():
    # a second row that differs from row 7 on the third GF generator only
    aut = family_aut(5, 3, "GF").aut
    other = aut.perms[7].copy()
    other[[15, 16]] = other[[16, 15]]
    assert not np.array_equal(other[aut.base.generators], aut.perms[7, aut.base.generators])
    with pytest.raises(ValueError, match="duplicate automorphisms"):
        AutGroup(aut.base, np.vstack([aut.perms, other]))


@pytest.mark.parametrize("gens", [[7], [-1], [2], [2, 4]], ids=["7", "-1", "2", "2 4"])
@pytest.mark.parametrize("check", [True, False])
def test_explicit_generators_must_be_elements_that_generate(gens, check):
    # on Z6, 7 and -1 are no elements and 2 and 4 generate only {0, 2, 4}
    table = (np.arange(6)[:, None] + np.arange(6)) % 6
    with pytest.raises(ValueError, match="generators must be elements that generate the group"):
        FiniteGroup(table, generators=gens, check=check)
    assert FiniteGroup(table, generators=[2, 3], check=check).generators == [2, 3]


def test_group_label_round_trips():
    for fam in FAMILIES:
        if fam == "Gk":
            continue
        lab = GroupLabel(fam)
        assert GroupLabel.from_key(lab.key()) == lab
    lab = GroupLabel("Gk", 3)
    assert GroupLabel.from_key(lab.key()) == lab
    with pytest.raises(ValueError):
        GroupLabel("Gk")  # k is required there
    with pytest.raises(ValueError):
        GroupLabel("CyclicP2Q", 1)  # and forbidden elsewhere
    with pytest.raises(ValueError):
        GroupLabel("NoSuchFamily")


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_identify_round_trips_every_family(pair):
    p, q = pair
    for key in label_keys(p, q):
        g = group_of(p, q, key)
        assert identify_p2q(g, p, q).key() == key


@pytest.mark.parametrize("pair", SMALL_PAIRS + ((5, 2), (7, 3), (13, 3), (11, 5)))
def test_stack_labels_match_the_oracle_on_every_base_group(pair):
    # the family groups share the identity 0, so they stack as they are;
    # identify_p2q labels each group as a stack of one through the same kernel
    p, q = pair
    keys = label_keys(p, q)
    groups = [group_of(p, q, key) for key in keys]
    want = [identify_p2q_oracle(g, p, q) for g in groups]
    assert want == [GroupLabel.from_key(key) for key in keys]
    assert [identify_p2q(g, p, q) for g in groups] == want
    assert {g.identity for g in groups} == {0}
    assert core.identify_stack(np.stack([g.mul for g in groups]), p, q, 0) == want


@pytest.mark.parametrize("pair", SMALL_PAIRS + ((5, 2),))
def test_stack_labels_match_the_oracle_on_every_circle_table(pair):
    assert circle_labels_mismatch(*pair) is None


def test_identify_is_presentation_independent():
    # rebuild Z20 as Z4 x Z5 (a different table for the same group)
    z4, z5 = cyclic(4), cyclic(5)
    mul = np.zeros((20, 20), dtype=np.int32)
    for a in range(20):
        for b in range(20):
            x = (z4.mul[a // 5, b // 5], z5.mul[a % 5, b % 5])
            mul[a, b] = int(x[0]) * 5 + int(x[1])
    assert identify_p2q(FiniteGroup(mul), 2, 5).key() == "CyclicP2Q"


def test_identify_distinguishes_the_two_qbyp2_actions():
    p, q = 2, 5
    a = group_of(p, q, "QbyP2_ordP")   # order-2 action
    b = group_of(p, q, "QbyP2_ordP2")  # faithful order-4 action
    assert are_isomorphic(a, b) is None


def test_derived_parameters_have_stated_orders():
    # r: multiplicative order p mod q (gate q = 1 mod p)
    pr = params_of(3, 7)
    assert pow(pr.r, 3, 7) == 1 and pr.r != 1
    assert pr.t is None and pr.g is None and pr.h is None and pr.xi is None
    # h: order p^2 mod q, with r tied as h^p (gate q = 1 mod p^2)
    pr2 = params_of(2, 5)
    assert pow(pr2.h, 4, 5) == 1 and pow(pr2.h, 2, 5) != 1
    assert pr2.r == pow(pr2.h, 2, 5)
    # t: order q mod p^2 (gate p = 1 mod q); g: order q mod p
    pr3 = params_of(7, 3)
    assert pow(pr3.t, 3, 49) == 1 and pr3.t != 1
    assert pow(pr3.g, 3, 7) == 1 and pr3.g != 1
    # xi: companion matrix of x^2 + xi*x + 1 acts with order q on F_p^2
    pr4 = params_of(5, 3)
    f = pr4.companion()
    assert (f[0][0] + f[1][1]) % 5 == (-pr4.xi) % 5
    x2 = (pr4.xi * pr4.xi - 4) % 5
    assert all(pow(s, 2, 5) != x2 for s in range(5))  # discriminant non-square

"""Group constructions per family and the structured Aut(A) parametrisation."""

import numpy as np
import pytest

from p2qbrace.core import GroupLabel, identify_p2q
from p2qbrace.families import (
    _assert_automorphisms,
    all_labels,
    aut_order,
    derive_params,
    generator_letters,
    gk_values,
    is_prime,
    mult_order,
    units_of_order,
)
from helpers import (
    SMALL_PAIRS,
    brute_aut_of,
    coords_of,
    exponent,
    group_of,
    label_keys,
    structured_of,
)


def test_prime_helpers():
    assert [m for m in range(2, 30) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert mult_order(2, 7) == 3
    assert mult_order(3, 7) == 6
    assert units_of_order(7, 3) == [2, 4]
    assert units_of_order(5, 4) == [2, 3]


def test_label_lists_match_classified_group_counts():
    # number of isomorphism types of groups of these orders, a textbook fact
    assert len(all_labels(2, 5)) == 5    # order 20
    assert len(all_labels(2, 7)) == 4    # order 28
    assert len(all_labels(2, 13)) == 5   # order 52
    assert len(all_labels(3, 7)) == 4    # order 63
    assert len(all_labels(5, 3)) == 3    # order 75
    assert len(all_labels(7, 3)) == 6    # order 147
    assert len(all_labels(2, 3)) == 5    # order 12
    assert len(all_labels(3, 5)) == 2    # order 45, only abelian


def test_gk_values_identify_k_with_its_inverse():
    # q = 7: k and k^{-1} mod 7 are the same group; 0, 1, -1 stay literal
    vals = gk_values(7)
    assert {0, 1, -1} <= set(vals)
    for k in vals:
        if k in (0, 1, -1):
            continue
        kinv = pow(k, -1, 7)
        assert kinv == k or kinv not in vals
    # q=7 units pair up as {2,4} and {3,5}; plus the specials
    assert sorted(vals) == [-1, 0, 1, 2, 3]


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_every_family_builds_a_group_of_the_right_shape(pair):
    p, q = pair
    n = p * p * q
    for key in label_keys(p, q):
        g = group_of(p, q, key)
        assert g.n == n
        assert identify_p2q(g, p, q).key() == key
        abelian_keys = {"CyclicP2Q", "PxPQ"}
        assert g.is_abelian() == (key in abelian_keys)
        if key == "CyclicP2Q":
            assert exponent(g) == n
        if key == "PxPQ":
            assert exponent(g) == p * q


def test_order147_families_build():
    p, q = 7, 3
    for key in label_keys(p, q):
        g = group_of(p, q, key)
        assert g.n == 147
        assert identify_p2q(g, p, q).key() == key


def test_generator_letters_have_the_stated_orders():
    for (p, q) in SMALL_PAIRS:
        for key in label_keys(p, q):
            g = group_of(p, q, key)
            letters = generator_letters(g.label)
            assert len(letters) == len(set(letters)) == len(g.generators), key


@pytest.mark.parametrize("pair", SMALL_PAIRS + ((2, 11), (5, 2)))
def test_structured_aut_equals_brute_force(pair):
    # identical sorted permutation tables, not merely equal cardinality
    p, q = pair
    for key in label_keys(p, q):
        if (pair, key) == ((5, 2), "Gk(1)"):
            continue  # 12 000 automorphisms: brute force takes ~24 s
        sa = structured_of(p, q, key)
        brute = brute_aut_of(p, q, key)
        assert sa.aut.k == brute.k, key
        assert np.array_equal(sa.aut.perms, brute.perms), key


def test_automorphism_check_catches_one_corrupted_row():
    sa = structured_of(7, 2, "PxPQ")
    perms = sa.aut.perms.copy()
    assert perms.shape[0] == 2016
    _assert_automorphisms(sa.base, perms)
    row = 1999  # a late row: every row is checked, not a sample
    x, y = [v for v in range(sa.base.n) if perms[row, v] != sa.base.identity][:2]
    perms[row, [x, y]] = perms[row, [y, x]]
    with pytest.raises(AssertionError):
        _assert_automorphisms(sa.base, perms)


def test_structured_aut_coordinate_codec_round_trips():
    # aut_index maps the coordinate tuples one-to-one onto the aut indices
    for p, q in ((2, 5), (2, 7), (3, 7), (5, 3), (5, 2)):
        for key in label_keys(p, q):
            if key == "Gk(1)":
                continue  # 12 000 automorphisms at (5,2)
            sa = structured_of(p, q, key)
            indices = sorted(sa.aut_index(**c) for c in coords_of(sa))
            assert indices == list(range(sa.aut.k)), (p, q, key)
    # composing two automorphisms stays inside the indexed set
    sa = structured_of(5, 3, "GF")
    a, b = 1 % sa.aut.k, 7 % sa.aut.k
    c = sa.aut.compose(a, b)
    assert 0 <= c < sa.aut.k


def test_aut_index_rejects_coordinates_of_no_automorphism():
    sa = structured_of(2, 7, "QbyP2_ordP")
    good = {"k": 1, "c": 3, "u": 5}
    assert 0 <= sa.aut_index(**good) < sa.aut.k
    bad = [
        {**good, "k": 2},  # out of range: k lives mod p = 2
        {**good, "c": -1},
        {**good, "bogus": 0},  # unknown name
        {"k": 1, "c": 3},  # missing name
        {**good, "u": 0},  # u must be a unit mod q
    ]
    for coords in bad:
        with pytest.raises(KeyError):
            sa.aut_index(**coords)
    with pytest.raises(KeyError):
        structured_of(2, 5, "CyclicP2Q").aut_index(u=2)  # not a unit mod 20
    gf = structured_of(5, 3, "GF")
    for w in (0, 1):
        with pytest.raises(KeyError):  # the singular plane map x*I + y*F = 0
            gf.aut_index(w=w, n=0, m=0, x=0, y=0)


def test_aut_order_is_the_product_of_the_factor_sizes():
    # the closed forms |Aut(A)| had before it was read off the factors;
    # nothing is built, so even (17,2) Gk(1) takes well under a second
    closed = {
        (7, 3, "Gk(1)"): 98_784,  # p^2 |GL_2(p)|
        (11, 2, "Gk(1)"): 1_597_200,
        (13, 3, "Gk(1)"): 4_429_152,
        (13, 3, "Gk(-1)"): 48_672,  # 2 p^2 (p-1)^2
        (13, 3, "PxPQ"): 52_416,  # |GL_2(p)| (q-1)
        (17, 2, "P2SemidirectQ"): 78_608,  # p^2 phi(p^2)
        (17, 2, "Gk(1)"): 22_639_104,
    }
    for (p, q, key), order in closed.items():
        assert aut_order(GroupLabel.from_key(key), derive_params(p, q)) == order, key


def test_derive_params_second_choice_differs():
    first = derive_params(3, 7, "first")
    second = derive_params(3, 7, "second")
    assert first.r != second.r
    assert {first.r, second.r} <= set(units_of_order(7, 3))
    with pytest.raises(ValueError):
        derive_params(4, 7)
    with pytest.raises(ValueError):
        derive_params(5, 5)

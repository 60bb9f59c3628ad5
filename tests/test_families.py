"""Group constructions per family and the structured Aut(A) parametrisation."""

import hashlib
import re

import numpy as np
import pytest

from p2qbrace import core
from p2qbrace.core import GroupLabel, _extend, _respects, identify_p2q
from p2qbrace.families import (
    _GL2,
    _assert_automorphisms,
    all_labels,
    aut_order,
    build_group,
    derive_params,
    family_aut,
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


# SHA-256 of each family's Cayley table followed by its generators, both as
# <i4 bytes.  Element indices must not move: caches, exports and witness
# recipes are written in them.
GROUP_DIGESTS = {
    (2, 3, "CyclicP2Q"): "96a1a2a0b5cac7a4c3ae8562e8620b88e9842a355bd351047a7b80f324ef60a3",
    (2, 3, "PxPQ"): "6a5147b6996a951552a6a981df3ffe39f401277c57a76846589b3bfb734f802b",
    (2, 3, "GF"): "e72593af719cded39c750cc6e8c555abffd5e6dd5d600c6e65f0ea23eaad6dcd",
    (2, 3, "QbyP2_ordP"): "e0ec43a66955675f78cdd28cb5c023d8e535e01a0cf753061895862e6020b314",
    (2, 3, "PxQbyP"): "3533a55c893bd6948754f43bf2fc227d8d676605a390476af5f5ec2fd524770a",
    (2, 5, "CyclicP2Q"): "42cba9559532d3d0c873159e1d1ea2a87725a2843664e7fb4ee47ca801f2dbe3",
    (2, 5, "PxPQ"): "b997076a5c13ed34a8e9f0114c591e2dc761b6d7a6361f85a36385eb885917e7",
    (2, 5, "QbyP2_ordP"): "6c5de7a49d9a8aa40c9955e354a8776c73f343991f624d0d4bd0a05c87d959fc",
    (2, 5, "QbyP2_ordP2"): "bbee50b6f365594820faa48daaac796d37eae6c30d7e45bd4a3a878fa235a78a",
    (2, 5, "PxQbyP"): "1092ab2714330ba260ed4631b9e607e8f46fda7698d28add42317200882a889c",
    (2, 7, "CyclicP2Q"): "4b1c2589c01a02a2d34efe9be4dd2e76d822930a8f5efa7ba924d9a14d71aa55",
    (2, 7, "PxPQ"): "eabc73e9e79b456d25cd86a12c4f0ac503ff0863b132b48b7f3109ee80759f50",
    (2, 7, "QbyP2_ordP"): "ea1fc1f49c34769691142d1d9193db8b783385793e33b540a9c1de7ec725a843",
    (2, 7, "PxQbyP"): "95fd7f3a9c46e3d2445430bd3269f5b7f0b46707c574c5db9851cd335c5cf79f",
    (2, 11, "CyclicP2Q"): "551c951984b4b698c3f47fcbc898f6cdee5bc38bebe9fff3fb645337bc03900d",
    (2, 11, "PxPQ"): "784bcaa57a9e5581bf29afb378e0f714dd04f6c838f6654f96e2e2e456e44382",
    (2, 11, "QbyP2_ordP"): "084895085a64a0026051cf80f2005ce0b3db974486000eda6203dce40eb33c3a",
    (2, 11, "PxQbyP"): "8b17ccf111ee699c165a30a668c8ec661767bea1d9092b0661f99da5ad255537",
    (2, 13, "CyclicP2Q"): "afe7c4a51b7818aae46463e7897c6de2df19882c29438b99c755618b449ac12f",
    (2, 13, "PxPQ"): "cd661024e4ba0a5b45334c1c7dc54274f1676d4883a8531643188ef4aa3d341b",
    (2, 13, "QbyP2_ordP"): "7ab4a7d5a7da93eaf880933435c6231191b52bcac4572964dc3e5af95466f023",
    (2, 13, "QbyP2_ordP2"): "422be069dcf8f455f5e44b7aca1577c0181fcf5205e4de0f75a5d86ceaa6aae3",
    (2, 13, "PxQbyP"): "a91ce536e13cb54be8aaaf551bcc23244813b383d7a95014b6c971092c2eb47a",
    (3, 7, "CyclicP2Q"): "87ab424b5ca0c926ec4f06bf5289c667efd8660e30fd945fdf804aa8bb026f9f",
    (3, 7, "PxPQ"): "c87e6ddcaea83ea81b578afbf567a68ac57fd1c6a5e38f2b19aef678eb6dd869",
    (3, 7, "QbyP2_ordP"): "b91470b01d64f19109df2bfac7766ac2dacb1fb7c9dc189a0e95cd8e8b187c8c",
    (3, 7, "PxQbyP"): "c786e993e2c8f20ddb3ab99958b4fcb12c15b49adad5ce511838a9ae915166fd",
    (3, 13, "CyclicP2Q"): "9da41e96936194cf1d4454f6e147d30736a9429c7e87d4e1d2034827ab3d833a",
    (3, 13, "PxPQ"): "4df3dadebab071436f16700cd4b6b31f112ad649358523c7573109eb89b701b2",
    (3, 13, "QbyP2_ordP"): "36c8214508a975c7bcca825fe156ade2a47bf8a5dcbf9071aecc37c781638998",
    (3, 13, "PxQbyP"): "657fa8e9bf5949f17c26345cb5029dabcb975811af1a97bc86fb076fd86eb33b",
    (3, 19, "CyclicP2Q"): "6cb6e6cf8a875dddc54f62b7e5ad0d563406ede430bd4a6c9c617a909cde74b8",
    (3, 19, "PxPQ"): "629756adb7e5061f95204dc1cf012a982b82eb8a2f69e474a8b14bb353d71fa8",
    (3, 19, "QbyP2_ordP"): "d54acda01a110d8f595b1bb23eefb9aa5baaf5c52aed7b7a7a32b6e25edec9cd",
    (3, 19, "QbyP2_ordP2"): "0f819e829f056796ee44fadf631470a481954bc7d020dc9ef6c32925723a04f7",
    (3, 19, "PxQbyP"): "ddafa50cebb95428d985792d19f1fe81c25c8f041783f2a074f6e570aa1a3afc",
    (5, 2, "CyclicP2Q"): "407cead5c3369247d53dcb29a9483ead9e68403fb30703909a3829b6d3c1b6b0",
    (5, 2, "PxPQ"): "3e6887e7b9b103bcc289b53ef652621215b416be246d615d96f93fe673413dfb",
    (5, 2, "P2SemidirectQ"): "4b88722a5ca73eacbd9292c7d4d15b98001202cd92022d74dab70cd7dabd6c39",
    (5, 2, "Gk(0)"): "57436105fc4506742c4c8be3bbf07e85061c6fe5ace390ee216d70dd1548db65",
    (5, 2, "Gk(1)"): "be2e14c064122fe7a5dd3eecdfce66412d7914d9b0552d9c6f5af4ba6d9f7280",
    (5, 3, "CyclicP2Q"): "9df6629dd55157800096dd8e80c1b5d898b94ef64e18709b304ae437f04ab1db",
    (5, 3, "PxPQ"): "9324e0ae0a7f686f9d21a2230d9d4b3fc78cde7cd0e336416f630497cc7d61da",
    (5, 3, "GF"): "9fec70ab466f47fda34d5f763985973909ec72395f584fe82e6295e164f001b3",
    (7, 2, "CyclicP2Q"): "cbba0e59754356fb1f61fc5d696b2bb39e9d2aa73d1067ed475c7acca8b5b5ad",
    (7, 2, "PxPQ"): "a00db39c92d7343d98c14b25764a4636b87744c7248d297932c4122a506c4071",
    (7, 2, "P2SemidirectQ"): "4b9fe2b63fc59732d2fa708799c17f8f3cd55d59820cc279b497bf6a7ae4b377",
    (7, 2, "Gk(0)"): "4fa689935cdfdc393338769175c2c696d40d6779b29415fbc8ecd1ccf6c7df81",
    (7, 2, "Gk(1)"): "37f95ce0f9dc5430bc2b82213eb89f93ec580d7e1ae02c5640c0b1caa2e587c3",
    (7, 3, "CyclicP2Q"): "420eed1bc6dad1e7388bb337791ba4717e82f5c946bfa8adaac3fec6bc95c327",
    (7, 3, "PxPQ"): "b6a934af81da65f98bd9ce789ed1098cae5216f2026f190bdcf527d5df578807",
    (7, 3, "P2SemidirectQ"): "ff1a14d6242fbed4c0b87a16d812075f796263d4284781d375fca54d29e30d7c",
    (7, 3, "Gk(0)"): "b3b8c47c72eea7c065bf4e1b653adbc6cc39246003669ea9628f367394c49e44",
    (7, 3, "Gk(1)"): "8f9183f80fb6ed043215e42bfc71bd0c2cd1c632a2e645366e0386ff1aeeac40",
    (7, 3, "Gk(-1)"): "7a36328af066cd4f036068793b4af774963298d86c3187908211ea96e8da6de8",
    (11, 3, "CyclicP2Q"): "f7afbd295877aac6f4a8ebf3f936932d86a235fbdf42e3b9ff1a8e9a3131e2ab",
    (11, 3, "PxPQ"): "883c3ad9c42f5b1cda20097803f0ef95fe7448d6f96b3ab6c5ca86d7528dde57",
    (11, 3, "GF"): "efafa21e50d751dff884b0f17f12186abf0d2fa55f6f1da7a82ef4ac79c08a27",
}


def test_cayley_tables_and_generators_match_their_digests():
    got = {}
    for p, q in sorted({(p, q) for p, q, _ in GROUP_DIGESTS}):
        for label in all_labels(p, q):
            g = build_group(label, derive_params(p, q))
            digest = hashlib.sha256(g.mul.astype("<i4").tobytes())
            digest.update(np.asarray(g.generators, dtype="<i4").tobytes())
            got[(p, q, label.key())] = digest.hexdigest()
    assert got == GROUP_DIGESTS


@pytest.mark.parametrize(
    ("p", "q", "key", "congruence"),
    [
        (2, 5, "GF", "q | p+1 and q > 2"),
        (2, 5, "P2SemidirectQ", "p = 1 mod q"),
        (2, 5, "Gk(0)", "p = 1 mod q"),
        (3, 5, "QbyP2_ordP", "q = 1 mod p"),
        (2, 7, "QbyP2_ordP2", "q = 1 mod p^2"),
        (3, 5, "PxQbyP", "q = 1 mod p"),
    ],
)
def test_build_group_names_the_congruence_a_family_needs(p, q, key, congruence):
    assert key not in label_keys(p, q)
    with pytest.raises(ValueError, match=re.escape(f"needs {congruence}")):
        build_group(GroupLabel.from_key(key), derive_params(p, q))


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
            letters = generator_letters(g.label, derive_params(p, q))
            assert len(letters) == len(set(letters)) == len(g.generators), key


@pytest.mark.parametrize("pair", SMALL_PAIRS + ((2, 11), (5, 2)))
def test_structured_aut_equals_brute_force(pair):
    # identical sorted permutation tables, not merely equal cardinality
    p, q = pair
    for key in label_keys(p, q):
        sa = structured_of(p, q, key)
        brute = brute_aut_of(p, q, key)
        assert sa.aut.k == brute.k, key
        assert np.array_equal(sa.aut.perms, brute.perms), key


DEFAULT_CELLS = core.CHUNK_CELLS


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_structured_aut_rows_do_not_depend_on_the_chunk_bound(monkeypatch, pair):
    # one automorphism a chunk, seven a chunk and the default, which puts
    # the 1 200 automorphisms of (5,3) GF in two chunks of at most 873: the
    # same rows, so every chunk boundary and the short last chunk land where
    # they belong
    for key in label_keys(*pair):
        n = group_of(*pair, key).n
        got = []
        for cells in (DEFAULT_CELLS, n, 7 * n):
            monkeypatch.setattr(core, "CHUNK_CELLS", cells)
            got.append(family_aut(*pair, key).aut.perms)
        assert all(np.array_equal(perms, got[0]) for perms in got[1:]), key


def test_automorphism_check_catches_one_corrupted_row():
    sa = structured_of(7, 2, "PxPQ")
    perms = sa.aut.perms.copy()
    assert perms.shape[0] == 2016
    _assert_automorphisms(sa.base, perms)
    row = 1999  # a late row: every row is checked, not a sample
    x, y = [v for v in range(sa.base.n) if perms[row, v] != sa.base.identity][:2]
    perms[row, [x, y]] = perms[row, [y, x]]
    with pytest.raises(AssertionError, match="non-homomorphism"):
        _assert_automorphisms(sa.base, perms)


def test_automorphism_check_rejects_homomorphisms_with_a_kernel():
    # both maps respect the generators, so only the kernel check rejects them
    sa = structured_of(7, 2, "PxPQ")
    base = sa.base
    trivial = np.full(base.n, base.identity, dtype=np.int32)
    p_power = np.array([base.power(x, 7) for x in range(base.n)], dtype=np.int32)
    for bad in (trivial, p_power):
        assert len(_respects(base, base, bad[None], base.generators)) == 1
        perms = sa.aut.perms.copy()
        perms[1999] = bad
        with pytest.raises(AssertionError, match="nontrivial kernel"):
            _assert_automorphisms(base, perms)


def test_structured_aut_coordinate_codec_round_trips():
    # aut_index maps the coordinate tuples one-to-one onto the aut indices,
    # and each index names the map that the coordinates' images extend to
    for p, q in ((2, 5), (2, 7), (3, 7), (5, 3), (5, 2)):
        for key in label_keys(p, q):
            if key == "Gk(1)":
                continue  # 12 000 automorphisms at (5,2)
            sa = structured_of(p, q, key)
            coords = list(coords_of(sa))
            indices = [sa.aut_index(**c) for c in coords]
            assert sorted(indices) == list(range(sa.aut.k)), (p, q, key)
            tuples = [tuple(c.values()) for c in coords]
            (built,) = _extend(sa.base, sa.base, [sa.images(tuples)])
            assert np.array_equal(sa.aut.perms[indices], built), (p, q, key)
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


def test_gl2_counts_its_matrices_without_listing_them(monkeypatch):
    for p in (2, 3, 5, 7, 11, 13):
        rows = list(_GL2(p))
        assert len(_GL2(p)) == len(rows) == len(set(rows)), p
        assert all((a * d - b * c) % p for a, b, c, d in rows), p

    def refuse(self):
        raise AssertionError("GL_2(p) was listed")

    monkeypatch.setattr(_GL2, "__iter__", refuse)
    params = derive_params(31, 2)
    assert aut_order(GroupLabel("PxPQ"), params) == (31**2 - 1) * (31**2 - 31)
    assert aut_order(GroupLabel("Gk", 1), params) == 31**2 * (31**2 - 1) * (31**2 - 31)


def test_derive_params_second_choice_differs():
    first = derive_params(3, 7, "first")
    second = derive_params(3, 7, "second")
    assert first.r != second.r
    assert {first.r, second.r} <= set(units_of_order(7, 3))
    with pytest.raises(ValueError):
        derive_params(4, 7)
    with pytest.raises(ValueError):
        derive_params(5, 5)

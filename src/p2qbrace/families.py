"""Constructors for the groups of order p^2*q and their automorphism groups.

For distinct primes p, q the groups of order p^2*q fall into eight families
(two abelian, six split extensions), gated by congruences between p and q:

* ``CyclicP2Q``       Z_{p^2 q}
* ``PxPQ``            Z_p x Z_{pq}
* ``P2SemidirectQ``   Z_{p^2} x| Z_q with t of order q mod p^2   (p = 1 mod q)
* ``Gk``              (Z_p)^2 x| Z_q, diagonal action diag(g, g^k) (p = 1 mod q);
                      k is canonical (k ~ k^{-1}), with 0, 1, -1 special
* ``GF``              (Z_p)^2 x| Z_q, irreducible action by the companion
                      matrix F of x^2 + xi*x + 1                 (q | p+1, q > 2)
* ``QbyP2_ordP``      Z_q x| Z_{p^2}, conjugation exponent r of order p (q = 1 mod p)
* ``QbyP2_ordP2``     Z_q x| Z_{p^2}, conjugation exponent h of order p^2 (q = 1 mod p^2)
* ``PxQbyP``          Z_p x (Z_q x| Z_p)                         (q = 1 mod p)

Each family has an explicit exponent encoding of its elements, a vectorised
Cayley-table constructor, and a coordinate parametrisation of its full
automorphism group, declared once in ``_family_coords`` as an ordered list
of factors (names, values, modulus) with the map from coordinates to the
images of the generators.  |Aut(A)| is the product of the factor sizes and
``StructuredAut.coord_moduli`` lists the moduli.  Automorphisms are realised
as permutation rows by extending generator images along a spanning tree of
the Cayley graph; the tests cross-check the result against brute-force Aut
for |G| <= 100.

Coordinate conventions (typical letters: s = sigma, t = tau, e = epsilon):

* P2SemidirectQ  (c, u):        s -> s^u,            t -> s^c t
* Gk generic     (n, m, a, b):  s -> s^a, t -> t^b,  e -> s^n t^m e
* Gk k=0         (n, a, b):     s -> s^a, t -> t^b,  e -> s^n e
* Gk k=1         (n, m, a, b, c, d):  GL_2 on the (s, t) plane, e -> s^n t^m e
* Gk k=-1        (w, n, m, a, b): w=0 as generic; w=1 swaps s -> t^b, t -> s^a
                  and inverts e -> s^n t^m e^{-1}
* GF             (w, n, m, x, y): plane map x*I + y*F (w=0, e -> s^n t^m e) or
                  (x*I + y*F)*X with X F X^{-1} = F^{-1} (w=1, e -> s^n t^m e^{-1})
* QbyP2_ordP     (k, c, u):     t -> t^u,            s -> t^c s^{kp+1}
* QbyP2_ordP2    (c, u):        t -> t^u,            s -> t^c s
* PxQbyP         (l, i, c, u):  s -> t^l e^c s, t -> t^i, e -> e^u
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from .core import AutGroup, FiniteGroup, GroupLabel

__all__ = [
    "FamilyParams",
    "StructuredAut",
    "derive_params",
    "build_group",
    "all_labels",
    "aut_order",
    "family_aut",
    "structured_aut",
    "gk_values",
    "generator_letters",
]


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def mult_order(x: int, m: int) -> int:
    if gcd(x, m) != 1:
        raise ValueError(f"{x} is not a unit mod {m}")
    o, cur = 1, x % m
    while cur != 1:
        cur = (cur * x) % m
        o += 1
    return o


def units(m: int) -> list[int]:
    return [x for x in range(1, m) if gcd(x, m) == 1]


def units_of_order(m: int, d: int) -> list[int]:
    return [x for x in units(m) if mult_order(x, m) == d]


@dataclass(frozen=True)
class FamilyParams:
    """Derived presentation parameters for a prime pair (p, q).

    Fields are None when the gating congruence fails.  ``r`` is defined
    whenever q = 1 mod p; if moreover q = 1 mod p^2 it is tied to h as
    r = h^p so that one witness recipe serves both regimes.
    """

    p: int
    q: int
    t: int | None = None   # order q mod p^2
    g: int | None = None   # order q mod p
    xi: int | None = None  # x^2 + xi x + 1 irreducible over F_p, companion of order q
    r: int | None = None   # order p mod q
    h: int | None = None   # order p^2 mod q

    def companion(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Companion matrix F of x^2 + xi*x + 1 over F_p (columns = images)."""
        p = self.p
        return ((0, (-1) % p), (1, (-self.xi) % p))

    def as_dict(self) -> dict[str, int]:
        out = {"p": self.p, "q": self.q}
        for name in ("t", "g", "xi", "r", "h"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out


# 2x2 matrices over F_p are row pairs ((a, b), (c, d)), acting on column
# vectors (x, y).


def _mat_mul(a, b, p):
    return (
        ((a[0][0] * b[0][0] + a[0][1] * b[1][0]) % p, (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % p),
        ((a[1][0] * b[0][0] + a[1][1] * b[1][0]) % p, (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % p),
    )


def _mat_add(a, b, p):
    return tuple(tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_scalar(k, p):
    return ((k % p, 0), (0, k % p))


def _mat_pow(m, k, p):
    out = _mat_scalar(1, p)
    for _ in range(k):
        out = _mat_mul(out, m, p)
    return out


def _mat_inv(m, p):
    """The inverse of m; ValueError if m is singular."""
    (a, b), (c, d) = m
    di = pow((a * d - b * c) % p, -1, p)
    return ((d * di % p, -b * di % p), (-c * di % p, a * di % p))


def _mat_apply(m, v, p):
    (a, b), (c, d) = m
    return ((a * v[0] + b * v[1]) % p, (c * v[0] + d * v[1]) % p)


def _mat_order(m, p, limit):
    ident = ((1, 0), (0, 1))
    cur, o = m, 1
    while cur != ident:
        cur = _mat_mul(cur, m, p)
        o += 1
        if o > limit:
            raise ValueError("matrix order exceeds limit")
    return o


def _valid_xis(p: int, q: int) -> list[int]:
    out = []
    for xi in range(1, p):
        if any((x * x + xi * x + 1) % p == 0 for x in range(p)):
            continue  # reducible
        f = ((0, (-1) % p), (1, (-xi) % p))
        if _mat_order(f, p, p + 1) == q:
            out.append(xi)
    return out


def derive_params(p: int, q: int, choice: str = "first") -> FamilyParams:
    """Smallest (or second-smallest) canonical presentation parameters."""
    if not (is_prime(p) and is_prime(q)) or p == q:
        raise ValueError(f"need distinct primes, got p={p}, q={q}")
    if choice not in ("first", "second"):
        raise ValueError(f"choice must be 'first' or 'second', got {choice!r}")

    def pick(cands: list[int]) -> int:
        if not cands:
            raise ValueError("no candidates")
        if choice == "second" and len(cands) > 1:
            return cands[1]
        return cands[0]

    t = g = xi = r = h = None
    if p % q == 1:
        t = pick(units_of_order(p * p, q))
        g = pick(units_of_order(p, q))
    if q > 2 and (p + 1) % q == 0:
        xi = pick(_valid_xis(p, q))
    if q % p == 1:
        if q % (p * p) == 1:
            h = pick(units_of_order(q, p * p))
            r = pow(h, p, q)
        else:
            r = pick(units_of_order(q, p))
    return FamilyParams(p=p, q=q, t=t, g=g, xi=xi, r=r, h=h)


def gk_values(q: int) -> list[int]:
    """Canonical k values for the Gk family: 0, 1, -1 then min(k, k^{-1})."""
    out = [0, 1]
    if q > 2:
        out.append(-1)
    generic = {min(k, pow(k, -1, q)) for k in range(2, q - 1)}
    out.extend(sorted(generic - {1, q - 1}))
    return out


def all_labels(p: int, q: int) -> list[GroupLabel]:
    """Isomorphism types of groups of order p^2*q, in canonical order."""
    labels = [GroupLabel("CyclicP2Q"), GroupLabel("PxPQ")]
    if p % q == 1:
        labels.append(GroupLabel("P2SemidirectQ"))
        labels.extend(GroupLabel("Gk", k) for k in gk_values(q))
    if q > 2 and (p + 1) % q == 0:
        labels.append(GroupLabel("GF"))
    if q % p == 1:
        labels.append(GroupLabel("QbyP2_ordP"))
        if q % (p * p) == 1:
            labels.append(GroupLabel("QbyP2_ordP2"))
        labels.append(GroupLabel("PxQbyP"))
    return labels


def _pow_table(b: int, count: int, mod: int) -> np.ndarray:
    out = np.empty(count, dtype=np.int64)
    cur = 1
    for k in range(count):
        out[k] = cur
        cur = (cur * b) % mod
    return out


# -- Cayley table constructors ------------------------------------------------


def _build_cyclic(pr: FamilyParams) -> FiniteGroup:
    n = pr.p * pr.p * pr.q
    mul = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(mul, generators=[1], label=GroupLabel("CyclicP2Q"), name=f"Z{n}")


def _build_pxpq(pr: FamilyParams) -> FiniteGroup:
    p, q = pr.p, pr.q
    idx = np.arange(p * p * q)
    y, x2, x1 = idx % q, (idx // q) % p, idx // (p * q)
    X1 = (x1[:, None] + x1[None, :]) % p
    X2 = (x2[:, None] + x2[None, :]) % p
    Y = (y[:, None] + y[None, :]) % q
    mul = (X1 * p + X2) * q + Y
    return FiniteGroup(
        mul, generators=[p * q, q, 1], label=GroupLabel("PxPQ"), name=f"Z{p}xZ{p*q}"
    )


def _build_p2sq(pr: FamilyParams) -> FiniteGroup:
    p2, q, t = pr.p * pr.p, pr.q, pr.t
    idx = np.arange(p2 * q)
    x, y = idx // q, idx % q
    tp = _pow_table(t, q, p2)
    X = (x[:, None] + tp[y][:, None] * x[None, :]) % p2
    Y = (y[:, None] + y[None, :]) % q
    mul = X * q + Y
    return FiniteGroup(
        mul, generators=[q, 1], label=GroupLabel("P2SemidirectQ"), name=f"Z{p2}:Z{q}"
    )


def _build_gk(pr: FamilyParams, k: int) -> FiniteGroup:
    p, q, g = pr.p, pr.q, pr.g
    idx = np.arange(p * p * q)
    z, y, x = idx % q, (idx // q) % p, idx // (p * q)
    gz = _pow_table(g, q, p)
    gkz = np.array([pow(g, (k * zz) % q, p) for zz in range(q)], dtype=np.int64)
    X = (x[:, None] + gz[z][:, None] * x[None, :]) % p
    Y = (y[:, None] + gkz[z][:, None] * y[None, :]) % p
    Z = (z[:, None] + z[None, :]) % q
    mul = (X * p + Y) * q + Z
    return FiniteGroup(
        mul, generators=[p * q, q, 1], label=GroupLabel("Gk", k), name=f"G({k})@{p}"
    )


def _build_gf(pr: FamilyParams) -> FiniteGroup:
    p, q = pr.p, pr.q
    idx = np.arange(p * p * q)
    z, y, x = idx % q, (idx // q) % p, idx // (p * q)
    f = np.array([_mat_pow(pr.companion(), e, p) for e in range(q)])[z, :, :, None]  # F^z
    X = (x[:, None] + f[:, 0, 0] * x[None, :] + f[:, 0, 1] * y[None, :]) % p
    Y = (y[:, None] + f[:, 1, 0] * x[None, :] + f[:, 1, 1] * y[None, :]) % p
    Z = (z[:, None] + z[None, :]) % q
    mul = (X * p + Y) * q + Z
    return FiniteGroup(
        mul, generators=[p * q, q, 1], label=GroupLabel("GF"), name=f"GF@{p},{q}"
    )


def _build_qp2(pr: FamilyParams, unit: int, label: GroupLabel) -> FiniteGroup:
    p2, q = pr.p * pr.p, pr.q
    idx = np.arange(p2 * q)
    y, x = idx // p2, idx % p2
    up = _pow_table(unit, p2, q)
    Y = (y[:, None] + up[x][:, None] * y[None, :]) % q
    X = (x[:, None] + x[None, :]) % p2
    mul = Y * p2 + X
    kind = "h" if label.family == "QbyP2_ordP2" else "r"
    return FiniteGroup(mul, generators=[1, p2], label=label, name=f"Z{q}:Z{p2}({kind})")


def _build_pxq(pr: FamilyParams) -> FiniteGroup:
    p, q, r = pr.p, pr.q, pr.r
    idx = np.arange(p * p * q)
    x, y, z = idx % p, (idx // p) % p, idx // (p * p)
    rp = _pow_table(r, p, q)
    Z = (z[:, None] + rp[x][:, None] * z[None, :]) % q
    Y = (y[:, None] + y[None, :]) % p
    X = (x[:, None] + x[None, :]) % p
    mul = (Z * p + Y) * p + X
    return FiniteGroup(
        mul, generators=[1, p, p * p], label=GroupLabel("PxQbyP"), name=f"Z{p}x(Z{q}:Z{p})"
    )


def build_group(label: GroupLabel, params: FamilyParams) -> FiniteGroup:
    fam = label.family
    if fam == "CyclicP2Q":
        return _build_cyclic(params)
    if fam == "PxPQ":
        return _build_pxpq(params)
    if fam == "P2SemidirectQ":
        if params.t is None:
            raise ValueError("P2SemidirectQ needs p = 1 mod q")
        return _build_p2sq(params)
    if fam == "Gk":
        if params.g is None:
            raise ValueError("Gk needs p = 1 mod q")
        return _build_gk(params, label.k)
    if fam == "GF":
        if params.xi is None:
            raise ValueError("GF needs q | p+1 and q > 2")
        return _build_gf(params)
    if fam == "QbyP2_ordP":
        if params.r is None:
            raise ValueError("QbyP2_ordP needs q = 1 mod p")
        return _build_qp2(params, params.r, label)
    if fam == "QbyP2_ordP2":
        if params.h is None:
            raise ValueError("QbyP2_ordP2 needs q = 1 mod p^2")
        return _build_qp2(params, params.h, label)
    if fam == "PxQbyP":
        if params.r is None:
            raise ValueError("PxQbyP needs q = 1 mod p")
        return _build_pxq(params)
    raise ValueError(f"unknown family {fam}")


# -- presentation letters for witness recipes ---------------------------------

_LETTERS = {
    "CyclicP2Q": ("s",),
    "PxPQ": ("s", "t", "e"),
    "P2SemidirectQ": ("s", "t"),
    "Gk": ("s", "t", "e"),
    "GF": ("s", "t", "e"),
    "QbyP2_ordP": ("s", "t"),
    "QbyP2_ordP2": ("s", "t"),
    "PxQbyP": ("s", "t", "e"),
}


def generator_letters(label: GroupLabel) -> tuple[str, ...]:
    """Letters naming the presentation generators, aligned with .generators."""
    return _LETTERS[label.family]


# -- structured automorphism groups -------------------------------------------


def _gl2(p: int) -> list[tuple[int, int, int, int]]:
    return [
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(p), repeat=4)
        if (a * d - b * c) % p
    ]


def _spanning_tree(group: FiniteGroup, gens: list[int]):
    n = group.n
    parent = np.full(n, -1, dtype=np.int32)
    via = np.full(n, -1, dtype=np.int32)
    seen = np.zeros(n, dtype=bool)
    seen[group.identity] = True
    order = [group.identity]
    for u in order:
        for gi, g in enumerate(gens):
            v = int(group.mul[u, g])
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                via[v] = gi
                order.append(v)
    if len(order) != n:
        raise ValueError("generators do not generate the group")
    return np.array(order, dtype=np.int32), parent, via


def _extend_batch(group: FiniteGroup, tree, gen_imgs: np.ndarray) -> np.ndarray:
    """Extend generator images (B, #gens) to full permutations (B, n)."""
    order, parent, via = tree
    out = np.empty((gen_imgs.shape[0], group.n), dtype=np.int32)
    out[:, order[0]] = group.identity
    for x in order[1:]:
        out[:, x] = group.mul[out[:, parent[x]], gen_imgs[:, via[x]]]
    return out


@dataclass
class StructuredAut:
    """A and Aut(A), with Aut(A) addressed by the family's coordinates.

    ``coord_moduli`` maps each coordinate name, in coordinate order, to the
    modulus its values lie below, and ``images`` maps a coordinate tuple in
    that order to the images of ``base.generators``.  No coordinates are
    stored per automorphism: ``aut_index`` looks the images up in ``aut``.
    """

    label: GroupLabel
    params: FamilyParams
    base: FiniteGroup
    aut: AutGroup
    coord_moduli: dict[str, int]
    images: Callable[[tuple[int, ...]], list[int]]

    @property
    def coord_names(self) -> tuple[str, ...]:
        return tuple(self.coord_moduli)

    def aut_index(self, **coords: int) -> int:
        """The index in ``aut`` of the automorphism with these coordinates.

        KeyError when a name is missing or unknown, a value lies outside
        range(modulus), or the coordinates name no automorphism.
        """
        if set(coords) != set(self.coord_moduli):
            raise KeyError(f"coordinates {sorted(coords)} are not {list(self.coord_moduli)}")
        coord = tuple(int(coords[name]) for name in self.coord_moduli)
        for (name, mod), v in zip(self.coord_moduli.items(), coord):
            if not 0 <= v < mod:
                raise KeyError(f"coordinate {name} = {v} is outside range({mod})")
        return int(self.aut.lookup(np.array([self.images(coord)]))[0])


def _residues(name: str, m: int):
    """The factor of a coordinate that ranges over Z_m."""
    return (name, [(x,) for x in range(m)], m)


def _units(name: str, m: int):
    """The factor of a coordinate that ranges over the units mod m."""
    return (name, [(x,) for x in units(m)], m)


def _family_coords(label: GroupLabel, pr: FamilyParams):
    """Aut(A) in coordinates: ``(factors, images)``.

    A factor ``(names, values, modulus)`` lists the tuples ``values`` that
    the one-letter coordinates in the string ``names`` take together, each
    coordinate below ``modulus``.  The product of the factors, in the order
    listed, is the list of coordinate tuples, one per automorphism, and
    ``images`` maps a tuple to the images of ``base.generators``.
    """
    p, q = pr.p, pr.q
    p2, n = p * p, p * p * q
    fam = label.family
    if fam == "CyclicP2Q":
        return [_units("u", n)], lambda c: [c[0]]
    if fam == "PxPQ":
        def imgs(c):
            a, b, cc, d, u = c
            return [(a * p + cc) * q, (b * p + d) * q, u]
        return [("abcd", _gl2(p), p), _units("u", q)], imgs
    if fam == "P2SemidirectQ":
        def imgs(c):
            cc, u = c
            return [u * q, cc * q + 1]
        return [_residues("c", p2), _units("u", p2)], imgs
    if fam == "Gk" and label.k == 0:
        def imgs(c):
            nn, a, b = c
            return [a * p * q, b * q, nn * p * q + 1]
        return [_residues("n", p), _units("a", p), _units("b", p)], imgs
    if fam == "Gk" and label.k == 1:
        def imgs(c):
            nn, m, a, b, cc, d = c
            return [(a * p + cc) * q, (b * p + d) * q, (nn * p + m) * q + 1]
        return [_residues("n", p), _residues("m", p), ("abcd", _gl2(p), p)], imgs
    if fam == "Gk":
        # only k = -1 has the swap s <-> t, which inverts e
        swap = [_residues("w", 2)] if label.k == -1 else []
        def imgs(c):
            w, nn, m, a, b = c if swap else (0, *c)
            if w == 0:
                return [a * p * q, b * q, (nn * p + m) * q + 1]
            return [b * q, a * p * q, (nn * p + m) * q + (q - 1)]
        return swap + [_residues("n", p), _residues("m", p), _units("a", p), _units("b", p)], imgs
    if fam == "GF":
        xi = pr.xi
        def imgs(c):
            w, nn, m, x, y = c
            if w == 0:
                # M = x*I + y*F
                a, b, cc, d = x, (-y) % p, y, (x - xi * y) % p
            else:
                # M = (x*I + y*F) * X with X = [[1, -xi], [0, -1]]
                a, b, cc, d = x, (y - xi * x) % p, y, (-x) % p
            ez = 1 if w == 0 else q - 1
            return [(a * p + cc) * q, (b * p + d) * q, (nn * p + m) * q + ez]
        # x*I + y*F is invertible unless x = y = 0: F has no eigenvalue in F_p
        plane = [(x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)]
        return [_residues("w", 2), _residues("n", p), _residues("m", p), ("xy", plane, p)], imgs
    if fam == "QbyP2_ordP":
        def imgs(c):
            k, cc, u = c
            return [cc * p2 + (k * p + 1) % p2, u * p2]
        return [_residues("k", p), _residues("c", q), _units("u", q)], imgs
    if fam == "QbyP2_ordP2":
        def imgs(c):
            cc, u = c
            return [cc * p2 + 1, u * p2]
        return [_residues("c", q), _units("u", q)], imgs
    if fam == "PxQbyP":
        def imgs(c):
            l, i, cc, u = c
            return [(cc * p + l) * p + 1, i * p, u * p2]
        return [_residues("l", p), _units("i", p), _residues("c", q), _units("u", q)], imgs
    raise ValueError(f"no structured automorphism group for {fam}")


def _assert_automorphisms(group: FiniteGroup, perms: np.ndarray) -> None:
    """Raise unless every row of ``perms`` is an automorphism of ``group``.

    A bijection phi with phi(e) = e and phi(x*s) = phi(x)*phi(s) for every x
    and every generator s is a homomorphism: induction on the length of a
    word in the generators gives phi(x*y) = phi(x)*phi(y) for every y.
    """
    if not (np.sort(perms, axis=1) == np.arange(group.n)).all():
        raise AssertionError("structured aut produced a non-bijective map")
    if not (perms[:, group.identity] == group.identity).all():
        raise AssertionError("structured aut moved the identity")
    mul = group.mul
    for s in group.generators:
        if not np.array_equal(perms[:, mul[:, s]], mul[perms, perms[:, [s]]]):
            raise AssertionError("structured aut produced a non-homomorphism")


def structured_aut(label: GroupLabel, params: FamilyParams) -> StructuredAut:
    """A and Aut(A) from the family's coordinate factors."""
    base = build_group(label, params)
    factors, images = _family_coords(label, params)
    tree = _spanning_tree(base, base.generators)
    coords = (
        sum(parts, ()) for parts in itertools.product(*(vals for _, vals, _ in factors))
    )
    blocks = []
    while chunk := list(itertools.islice(coords, 4096)):
        block = _extend_batch(base, tree, np.array([images(c) for c in chunk], dtype=np.int32))
        _assert_automorphisms(base, block)
        blocks.append(block)
    return StructuredAut(
        label=label,
        params=params,
        base=base,
        aut=AutGroup(base, np.vstack(blocks)),
        coord_moduli={name: mod for names, _, mod in factors for name in names},
        images=images,
    )


def aut_order(label: GroupLabel, params: FamilyParams) -> int:
    """|Aut(A)|, the product of the factor sizes, without building A."""
    return prod(len(vals) for _, vals, _ in _family_coords(label, params)[0])


def family_aut(p: int, q: int, key: str, choice: str = "first") -> StructuredAut:
    """The structured Aut(A), with A itself, of the additive family ``key``.

    Raises ValueError naming the valid keys when (p, q) has no such family.
    """
    params = derive_params(p, q, choice)
    labels = all_labels(p, q)
    label = next((lb for lb in labels if lb.key() == key), None)
    if label is None:
        keys = ", ".join(lb.key() for lb in labels)
        raise ValueError(f"no additive family {key!r} at ({p}, {q}); have: {keys}")
    return structured_aut(label, params)

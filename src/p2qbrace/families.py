"""Constructors for the groups of order p^2*q and their automorphism groups.

For distinct primes p, q the groups of order p^2*q fall into eight families
(two abelian, six split extensions), gated by congruences between p and q.
Each is a semidirect product N x| Z_m of a product N of cyclic groups by a
cyclic group, declared once in ``_presentation`` by its digit moduli (N's
digits first, the complement's digit c last), the matrix A by which the
complement's generator acts on N's digits, and the digit whose unit vector
each generator s, t, e is.  An element's index is the mixed-radix number of
its digits, the first digit most significant, and ``build_group`` applies
one rule, (v, c)(v', c') = (v + A^c v', c + c'), to all pairs at once:

    family         gate            digits                       A             s, t, e
    CyclicP2Q                      (c mod p^2 q)                none          c
    PxPQ                           (x, y mod p, c mod q)        I             x, y, c
    P2SemidirectQ  p = 1 mod q     (x mod p^2, c mod q)         [t]           x, c
    Gk(k)          p = 1 mod q     (x, y mod p, c mod q)        diag(g, g^k)  x, y, c
    GF             q | p+1, q > 2  (x, y mod p, c mod q)        F             x, y, c
    QbyP2_ordP     q = 1 mod p     (y mod q, c mod p^2)         [r]           c, y
    QbyP2_ordP2    q = 1 mod p^2   (y mod q, c mod p^2)         [h]           c, y
    PxQbyP         q = 1 mod p     (z mod q, y mod p, c mod p)  diag(r, 1)    c, y, z

t and g have order q mod p^2 and mod p, r and h order p and p^2 mod q, and
F is the companion matrix of x^2 + xi*x + 1, irreducible over F_p, of
order q, so the (x, y) plane is the field F_p[F] with x + yF standing for
(x, y).  k is canonical (k ~ k^{-1} mod q), with 0, 1 and -1 special.

Aut(A) is parametrised by coordinates, declared once in ``_family_coords``
as an ordered list of factors (names, values, modulus) with the map from
coordinates to the images of the generators, written as digit vectors.
|Aut(A)| is the product of the factor sizes and
``StructuredAut.coord_moduli`` lists the moduli.  Automorphisms are realised
as permutation rows by ``core._extend`` and checked, every row, by
``core._respects`` and a kernel test; the tests cross-check the result
against brute-force Aut for |G| <= 100.

Coordinate conventions (typical letters: s = sigma, t = tau, e = epsilon;
in the digits of the layout above, e -> s^n t^m e^{-1} is (n, m, -1)):

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

from . import core
from .core import AutGroup, FiniteGroup, GroupLabel, _extend, _factor, _respects

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
    return _factor(m) == [(m, 1)]


def _check_primes(p: int, q: int) -> None:
    """ValueError unless p and q are distinct primes."""
    if not (is_prime(p) and is_prime(q)) or p == q:
        raise ValueError(f"need distinct primes, got p={p}, q={q}")


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


# For q | p+1 the companion matrix F has no eigenvalue in F_p, so the plane
# F_p^2 is the field F_p[F], F^2 = -xi F - 1.  The pair (a, b) = a + bF is
# both the vector (a + bF)e_1 = a e_1 + b e_2 (F e_1 = e_2) and the plane map
# aI + bF, so applying a map to a vector is a product in the field.


def _gf_mul(u, v, p, xi):
    (a, b), (c, d) = u, v
    return ((a * c - b * d) % p, (a * d + b * c - xi * b * d) % p)


def _gf_pow(u, k, p, xi):
    out = (1, 0)
    for _ in range(k):
        out = _gf_mul(out, u, p, xi)
    return out


def _gf_inv(u, p, xi):
    """1/u, the conjugate a + bF' = (a - xi b) - bF over the norm
    a^2 - xi ab + b^2 (F' = -xi - F is the other root); ValueError at 0."""
    a, b = u
    ni = pow((a * a - xi * a * b + b * b) % p, -1, p)
    return ((a - xi * b) * ni % p, -b * ni % p)


def _valid_xis(p: int, q: int) -> list[int]:
    out = []
    for xi in range(1, p):
        if any((x * x + xi * x + 1) % p == 0 for x in range(p)):
            continue  # reducible
        # F is not I, so F^q = I says that F has the prime order q
        if _gf_pow((0, 1), q, p, xi) == (1, 0):
            out.append(xi)
    return out


def derive_params(p: int, q: int, choice: str = "first") -> FamilyParams:
    """Smallest (or second-smallest) canonical presentation parameters."""
    _check_primes(p, q)
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


# -- one rule for every family ------------------------------------------------


def _needs(value, family: str, congruence: str):
    """``value``, or ValueError naming the congruence that defines it."""
    if value is None:
        raise ValueError(f"{family} needs {congruence}")
    return value


def _presentation(label: GroupLabel, pr: FamilyParams):
    """The family as N x| Z_m (see the module docstring).

    Returns the digit moduli, the matrix A row by row, and a map from each
    generator letter, in generator order, to the digit whose unit vector it is.
    """
    p, q, fam = pr.p, pr.q, label.family
    ste = {"s": 0, "t": 1, "e": 2}
    if fam == "CyclicP2Q":
        return (p * p * q,), [], {"s": 0}
    if fam == "PxPQ":
        return (p, p, q), [[1, 0], [0, 1]], ste
    if fam == "P2SemidirectQ":
        return (p * p, q), [[_needs(pr.t, fam, "p = 1 mod q")]], {"s": 0, "t": 1}
    if fam == "Gk":
        g = _needs(pr.g, fam, "p = 1 mod q")
        return (p, p, q), [[g, 0], [0, pow(g, label.k % q, p)]], ste
    if fam == "GF":
        _needs(pr.xi, fam, "q | p+1 and q > 2")
        return (p, p, q), pr.companion(), ste
    if fam == "QbyP2_ordP":
        return (q, p * p), [[_needs(pr.r, fam, "q = 1 mod p")]], {"s": 1, "t": 0}
    if fam == "QbyP2_ordP2":
        return (q, p * p), [[_needs(pr.h, fam, "q = 1 mod p^2")]], {"s": 1, "t": 0}
    return (q, p, p), [[_needs(pr.r, fam, "q = 1 mod p"), 0], [0, 1]], {"s": 2, "t": 1, "e": 0}


def _encode(moduli, digits) -> np.ndarray:
    """The element indices of digit vectors (the last axis of ``digits``).

    Each digit is reduced mod its modulus; the first digit is the most
    significant.
    """
    return np.ravel_multi_index(np.moveaxis(np.asarray(digits), -1, 0), moduli, mode="wrap")


def build_group(label: GroupLabel, params: FamilyParams) -> FiniteGroup:
    """The family's group, (v, c)(v', c') = (v + A^c v', c + c').

    ValueError names the congruence when the family's parameter is
    undefined at (p, q).
    """
    moduli, action, gens = _presentation(label, params)
    size = len(moduli)
    # B = diag(A, 1) on whole digit vectors x = (v, c): x x' = x + B^c x'.
    # Row i of B^c is reduced mod digit i's modulus: where A is not
    # diagonal, N's digits share one modulus.
    b = np.eye(size, dtype=np.int64)
    b[:-1, :-1] = action
    powers = [np.eye(size, dtype=np.int64)]
    for _ in range(1, moduli[-1]):
        powers.append(b @ powers[-1] % np.array(moduli)[:, None])
    digits = np.stack(np.unravel_index(np.arange(prod(moduli)), moduli), axis=-1)
    acted = (np.array(powers) @ digits.T).transpose(0, 2, 1)  # [c, y] = B^c y
    return FiniteGroup(
        _encode(moduli, digits[:, None, :] + acted[digits[:, -1]]),
        generators=_encode(moduli, np.eye(size, dtype=np.int64)[list(gens.values())]),
        label=label,
    )


def generator_letters(label: GroupLabel, params: FamilyParams) -> tuple[str, ...]:
    """Letters naming the presentation generators, aligned with .generators."""
    return tuple(_presentation(label, params)[2])


# -- structured automorphism groups -------------------------------------------


class _GL2:
    """The invertible 2x2 matrices (a, b, c, d) over F_p, listed lazily.

    ``len`` is |GL_2(p)| = (p^2 - 1)(p^2 - p) in closed form, so that
    ``aut_order`` counts the matrices without listing them.
    """

    def __init__(self, p: int):
        self.p = p

    def __len__(self) -> int:
        return (self.p**2 - 1) * (self.p**2 - self.p)

    def __iter__(self):
        p = self.p
        return (
            (a, b, c, d)
            for a, b, c, d in itertools.product(range(p), repeat=4)
            if (a * d - b * c) % p
        )


@dataclass
class StructuredAut:
    """A and Aut(A), with Aut(A) addressed by the family's coordinates.

    ``coord_moduli`` maps each coordinate name, in coordinate order, to the
    modulus its values lie below, and ``images`` maps a list of coordinate
    tuples in that order to the rows of images of ``base.generators``.  No
    coordinates are stored per automorphism: ``aut_index`` finds the row of
    ``aut`` with those generator images.
    """

    label: GroupLabel
    params: FamilyParams
    base: FiniteGroup
    aut: AutGroup
    coord_moduli: dict[str, int]
    images: Callable[[list[tuple[int, ...]]], np.ndarray]

    def aut_index(self, **coords: int) -> int:
        """The index in ``aut`` of the automorphism with these coordinates.

        One scan of the generator columns of ``aut.perms``, O(k |gens|):
        at most one row matches, since the rows are distinct automorphisms
        and an automorphism is fixed by its images of generators.  KeyError
        when a name is missing or unknown, a value lies outside
        range(modulus), or the coordinates name no automorphism.
        """
        if set(coords) != set(self.coord_moduli):
            raise KeyError(f"coordinates {sorted(coords)} are not {list(self.coord_moduli)}")
        coord = tuple(int(coords[name]) for name in self.coord_moduli)
        for (name, mod), v in zip(self.coord_moduli.items(), coord):
            if not 0 <= v < mod:
                raise KeyError(f"coordinate {name} = {v} is outside range({mod})")
        match = self.aut.perms[:, self.base.generators] == self.images([coord])
        found = np.flatnonzero(match.all(axis=1))
        if not len(found):
            raise KeyError("generator images of no automorphism")
        return int(found[0])


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
    ``images`` maps a tuple to the digit vectors of the images of the
    presentation generators (see ``_presentation``).
    """
    p, q = pr.p, pr.q
    fam = label.family
    if fam == "CyclicP2Q":
        return [_units("u", p * p * q)], lambda c: [c]
    if fam == "PxPQ":
        def imgs(c):
            a, b, cc, d, u = c
            return [(a, cc, 0), (b, d, 0), (0, 0, u)]
        return [("abcd", _GL2(p), p), _units("u", q)], imgs
    if fam == "P2SemidirectQ":
        def imgs(c):
            cc, u = c
            return [(u, 0), (cc, 1)]
        return [_residues("c", p * p), _units("u", p * p)], imgs
    if fam == "Gk" and label.k == 0:
        def imgs(c):
            nn, a, b = c
            return [(a, 0, 0), (0, b, 0), (nn, 0, 1)]
        return [_residues("n", p), _units("a", p), _units("b", p)], imgs
    if fam == "Gk" and label.k == 1:
        def imgs(c):
            nn, m, a, b, cc, d = c
            return [(a, cc, 0), (b, d, 0), (nn, m, 1)]
        return [_residues("n", p), _residues("m", p), ("abcd", _GL2(p), p)], imgs
    if fam == "Gk":
        # only k = -1 has the swap s <-> t, which inverts e
        swap = [_residues("w", 2)] if label.k == -1 else []
        def imgs(c):
            w, nn, m, a, b = c if swap else (0, *c)
            if w == 0:
                return [(a, 0, 0), (0, b, 0), (nn, m, 1)]
            return [(0, b, 0), (a, 0, 0), (nn, m, -1)]
        return swap + [_residues("n", p), _residues("m", p), _units("a", p), _units("b", p)], imgs
    if fam == "GF":
        xi = pr.xi
        def imgs(c):
            w, nn, m, x, y = c
            # s and t go to the columns of M = x*I + y*F (w = 0) or of
            # M = (x*I + y*F) * X with X = [[1, -xi], [0, -1]] (w = 1)
            t = (-y, x - xi * y) if w == 0 else (y - xi * x, -x)
            return [(x, y, 0), (*t, 0), (nn, m, 1 - 2 * w)]
        # x*I + y*F is invertible unless x = y = 0: F has no eigenvalue in F_p
        plane = [(x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)]
        return [_residues("w", 2), _residues("n", p), _residues("m", p), ("xy", plane, p)], imgs
    if fam == "QbyP2_ordP":
        def imgs(c):
            k, cc, u = c
            return [(cc, k * p + 1), (u, 0)]
        return [_residues("k", p), _residues("c", q), _units("u", q)], imgs
    if fam == "QbyP2_ordP2":
        def imgs(c):
            cc, u = c
            return [(cc, 1), (u, 0)]
        return [_residues("c", q), _units("u", q)], imgs
    def imgs(c):  # PxQbyP
        l, i, cc, u = c
        return [(cc, l, 1), (0, i, 0), (u, 0, 0)]
    return [_residues("l", p), _units("i", p), _residues("c", q), _units("u", q)], imgs


def _assert_automorphisms(group: FiniteGroup, perms: np.ndarray) -> None:
    """Raise unless every row of ``perms`` is an automorphism of ``group``:
    it respects the generators and sends exactly one element to e (the
    lemma in ``core._respects``)."""
    if len(_respects(group, group, perms, group.generators)) < len(perms):
        raise AssertionError("structured aut produced a non-homomorphism")
    if not ((perms == group.identity).sum(axis=1) == 1).all():
        raise AssertionError("structured aut produced a map with a nontrivial kernel")


def structured_aut(label: GroupLabel, params: FamilyParams) -> StructuredAut:
    """A and Aut(A) from the family's coordinate factors."""
    base = build_group(label, params)
    factors, images = _family_coords(label, params)
    moduli = _presentation(label, params)[0]

    def codes(coords) -> np.ndarray:
        # flattened for np.fromiter: np.array over the nested tuples is slower
        digits = itertools.chain.from_iterable(itertools.chain.from_iterable(map(images, coords)))
        return _encode(moduli, np.fromiter(digits, np.int64).reshape(len(coords), -1, len(moduli)))

    coords = (
        sum(parts, ()) for parts in itertools.product(*(vals for _, vals, _ in factors))
    )
    chunks = iter(lambda: list(itertools.islice(coords, max(1, core.CHUNK_CELLS // base.n))), [])
    perms = np.empty((aut_order(label, params), base.n), dtype=np.int32)
    lo = 0
    for block in _extend(base, base, map(codes, chunks)):
        _assert_automorphisms(base, block)
        perms[lo:lo + len(block)] = block
        lo += len(block)
    if lo != len(perms):
        raise AssertionError(f"{lo} automorphisms built where |Aut| = {len(perms)}")
    return StructuredAut(
        label=label,
        params=params,
        base=base,
        aut=AutGroup(base, perms),
        coord_moduli={name: mod for names, _, mod in factors for name in names},
        images=codes,
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

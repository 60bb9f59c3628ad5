"""The holomorph Hol(A) = A x| Aut(A) and its regular subgroups.

Elements are packed integers a * |Aut| + f, so the packed order is the
lexicographic order on (a, f).  Multiplication is
(a, f)(b, g) = (a * f(b), f o g) and the natural action on A is
(a, f) . x = a * f(x); the action is faithful and (a, f) . 0 = a, so the
first-coordinate projection pi1 is the orbit map of the identity.

A subgroup G <= Hol(A) with |G| = |A| is regular iff pi1 restricted to G is
a bijection.  Then G = {(a, lam[a]) : a in A} for one table lam of
automorphism indices, and ``HolSubgroup`` stores nothing else.  The sorted
packed elements of G are a * |Aut| + lam[a] for a = 0, 1, ..., so the lex
order on lambda tables is the lex order on sorted element tuples.
Conjugating G by (1, h) sends (a, lam[a]) to (h(a), h lam[a] h^-1): one
scatter of the table, no sort.  ``closure_packed`` is ``core.closure``
on packed generators; no production path calls it: the tests use it as
the oracle of the lambda-table closures, and ``perfbench/tracer.py`` wraps
it by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import AutGroup, FiniteGroup, closure, subgroups_of_order

__all__ = [
    "Holomorph",
    "HolSubgroup",
    "closure_packed",
    "aut_subgroup_classes",
    "orbit",
]


class Holomorph:
    """A x| Aut(A) acting on A, with packed-integer elements."""

    def __init__(self, base: FiniteGroup, aut: AutGroup):
        if aut.base is not base:
            raise ValueError("automorphism group belongs to a different base group")
        self.base = base
        self.aut = aut
        self.n_aut = aut.k
        self.identity = self.pack(base.identity, aut.identity)

    def pack(self, a: int, f: int) -> int:
        return int(a) * self.n_aut + int(f)

    def compose(self, x: int, y: int) -> int:
        a, f = divmod(int(x), self.n_aut)
        b, g = divmod(int(y), self.n_aut)
        return int(self.base.mul[a, self.aut.perms[f, b]]) * self.n_aut + self.aut.compose(f, g)

    def conjugate_subgroup(self, lam: np.ndarray, h: int) -> np.ndarray:
        """The lambda tables of (1,h) G (1,h)^{-1}, G having the table ``lam``
        or each of the tables on the last axis of a stack ``lam``:
        (a, lam[a]) goes to (h(a), h lam[a] h^{-1})."""
        out = np.empty_like(lam)
        out[..., self.aut.perms[h]] = self.aut.conj_row(h)[lam]
        return out


@dataclass(frozen=True, order=True)
class HolSubgroup:
    """A regular subgroup {(a, lam[a]) : a in A} of Hol(A), stored as its
    lambda table; the order is the lex order of the sorted element tuples."""

    lam: tuple[int, ...]

    @classmethod
    def from_packed(cls, hol: Holomorph, elements) -> HolSubgroup:
        """The subgroup with these packed elements; ValueError unless pi1
        maps them bijectively onto A."""
        a, f = np.divmod(np.asarray(elements, dtype=np.int64), hol.n_aut)
        if not np.array_equal(np.sort(a), np.arange(hol.base.n)):
            raise ValueError("not a regular subgroup: pi1 is not a bijection onto A")
        lam = np.empty(hol.base.n, dtype=np.int64)
        lam[a] = f
        return cls(tuple(lam.tolist()))

    @cached_property
    def arr(self) -> np.ndarray:
        """The lambda table as a read-only int32 array."""
        arr = np.array(self.lam, dtype=np.int32)
        arr.setflags(write=False)
        return arr

    @cached_property
    def pi2_size(self) -> int:
        return len(np.unique(self.arr))

    def kernel_size(self) -> int:
        return len(self.lam) // self.pi2_size


def closure_packed(
    hol: Holomorph, generators, limit: int | None = None
) -> tuple[int, ...] | None:
    """Subgroup of Hol(A) generated by packed ``generators``.

    Returns the sorted element tuple, or None as soon as the size exceeds
    ``limit``: ``core.closure`` on the holomorph.
    """
    elems = closure(hol, generators, limit)
    return None if elems is None else tuple(elems)


# -- orbits -------------------------------------------------------------------


def orbit(start: np.ndarray, gens, act) -> np.ndarray:
    """The orbit of the array ``start`` under <gens>, as one stack of its
    members breadth first, told apart by their bytes.  h sends a stack of
    arrays x to ``act(x, h)``, row by row, so each breadth-first layer goes
    through each generator in one call, and its images are deduplicated in
    one pass."""
    seen = {start.tobytes()}
    layers = [start[None]]
    while len(layers[-1]):
        images = np.concatenate([act(layers[-1], h) for h in gens])
        fresh = []
        for i, key in enumerate(map(bytes, images)):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        layers.append(images[fresh])
    return np.concatenate(layers)


def aut_subgroup_classes(aut: AutGroup, m: int) -> list[tuple[int, ...]]:
    """Conjugacy-class representatives of the order-m subgroups of Aut(A),
    each the lexicographically least member of its class (as a sorted
    index tuple).  AssertionError if a conjugate is not in the enumeration.
    """
    subs = subgroups_of_order(aut, m)
    sub_set = set(subs)
    reps: list[tuple[int, ...]] = []
    visited: set[tuple[int, ...]] = set()
    for s in subs:  # subs sorted, so orbits are discovered from their minima
        if s in visited:
            continue
        members = orbit(np.array(s, dtype=np.int32), aut.generators,
                        lambda t, h: np.sort(aut.conj_row(h)[t], axis=-1))
        conjugates = set(map(tuple, members.tolist()))
        if not conjugates <= sub_set:
            raise AssertionError("conjugate of a subgroup not in the enumeration")
        visited |= conjugates
        reps.append(s)
    return reps

"""The holomorph Hol(A) = A x| Aut(A) and its regular subgroups.

Elements are packed integers a * |Aut| + f, so the packed order is the
lexicographic order on (a, f).  Multiplication is
(a, f)(b, g) = (a * f(b), f o g) and the natural action on A is
(a, f) . x = a * f(x); the action is faithful and (a, f) . 0 = a, so the
first-coordinate projection pi1 is the orbit map of the identity.

A subgroup G <= Hol(A) with |G| = |A| is regular iff pi1 restricted to G is
a bijection iff G meets 1 x Aut(A) trivially; both forms are checked and
asserted equal.  Closures abort early on a pi1 collision (two elements with
the same first coordinate kill regularity of every overgroup), which is the
main pruning device of the enumeration strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

import numpy as np

from .core import AutGroup, FiniteGroup, closure, subgroups_of_order

__all__ = [
    "Holomorph",
    "HolSubgroup",
    "is_regular",
    "pi1_closure_bound",
    "closure_packed",
    "candidate_pool",
    "aut_subgroup_classes",
]


class Holomorph:
    """A x| Aut(A) acting on A, with packed-integer elements."""

    def __init__(self, base: FiniteGroup, aut: AutGroup):
        if aut.base is not base:
            raise ValueError("automorphism group belongs to a different base group")
        self.base = base
        self.aut = aut
        self.n_aut = aut.k
        self.size = base.n * aut.k
        self.identity = self.pack(base.identity, aut.identity)

    def pack(self, a: int, f: int) -> int:
        return int(a) * self.n_aut + int(f)

    def unpack(self, x: int) -> tuple[int, int]:
        return divmod(int(x), self.n_aut)

    def mul(self, x: int, y: int) -> int:
        a, f = divmod(int(x), self.n_aut)
        b, g = divmod(int(y), self.n_aut)
        return int(self.base.mul[a, self.aut.perms[f, b]]) * self.n_aut + self.aut.compose(f, g)

    def inv(self, x: int) -> int:
        a, f = divmod(int(x), self.n_aut)
        fi = int(self.aut.inv[f])
        return int(self.aut.perms[fi, self.base.inv[a]]) * self.n_aut + fi

    def power(self, x: int, k: int) -> int:
        if k < 0:
            x, k = self.inv(x), -k
        acc, base = self.identity, x
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def order_of(self, x: int) -> int:
        """Order of a holomorph element = order of its action permutation."""
        a, f = divmod(int(x), self.n_aut)
        perm = self.base.mul[a, self.aut.perms[f]]
        seen = np.zeros(self.base.n, dtype=bool)
        o = 1
        for start in range(self.base.n):
            if seen[start]:
                continue
            length, cur = 0, start
            while not seen[cur]:
                seen[cur] = True
                cur = int(perm[cur])
                length += 1
            o = lcm(o, length)
        return o

    def act(self, x: int, pt: int) -> int:
        a, f = divmod(int(x), self.n_aut)
        return int(self.base.mul[a, self.aut.perms[f, pt]])

    def conjugate_subgroup(self, elements: np.ndarray, h: int) -> np.ndarray:
        """(1,h) G (1,h)^{-1} as a sorted packed array."""
        out = self.aut.perms[h][elements // self.n_aut].astype(np.int64) * self.n_aut
        out += self.aut.conj_row(h)[elements % self.n_aut]
        out.sort()
        return out


@dataclass(frozen=True)
class HolSubgroup:
    """A subgroup of Hol(A), stored as the sorted tuple of packed elements."""

    hol: Holomorph
    elements: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __hash__(self):
        return hash(self.elements)

    def __eq__(self, other):
        return isinstance(other, HolSubgroup) and self.elements == other.elements

    @cached_property
    def arr(self) -> np.ndarray:
        return np.array(self.elements, dtype=np.int64)

    @cached_property
    def a_parts(self) -> np.ndarray:
        return self.arr // self.hol.n_aut

    @cached_property
    def f_parts(self) -> np.ndarray:
        return self.arr % self.hol.n_aut

    @cached_property
    def pi2(self) -> tuple[int, ...]:
        return tuple(sorted(set(map(int, self.f_parts))))

    @property
    def pi2_size(self) -> int:
        return len(self.pi2)

    def kernel_size(self) -> int:
        return len(self.elements) // self.pi2_size


def is_regular(hol: Holomorph, sub: HolSubgroup) -> bool:
    """Both equivalent regularity tests, asserted to agree.

    (i) |G| = |A| and pi1 is a bijection onto A;
    (ii) |G| = |A| and G meets 1 x Aut(A) only in the identity.
    """
    n = hol.base.n
    if len(sub) != n:
        return False
    by_pi1 = len(np.unique(sub.a_parts)) == n
    stab = int(np.count_nonzero(sub.a_parts == hol.base.identity))
    by_stab = stab == 1
    assert by_pi1 == by_stab, "the two regularity criteria disagree"
    return by_pi1


def pi1_closure_bound(hol: Holomorph, generators) -> list[int]:
    """Subgroup of A guaranteed to contain pi1(<generators>).

    If G = <(u_i, f_i)> then pi1(G) lies in the subgroup generated by all
    h(u_i) with h in pi2(G) = <f_i>.  Sound only when applied to a complete
    generating set (appending generators can only grow the bound).
    """
    gens = [int(x) for x in generators]
    fparts = {g % hol.n_aut for g in gens}
    k = closure(hol.aut, fparts)
    seeds = {int(hol.aut.perms[h, g // hol.n_aut]) for h in k for g in gens}
    return closure(hol.base, seeds)


def closure_packed(
    hol: Holomorph,
    generators,
    limit: int | None = None,
    require_injective_pi1: bool = False,
    reject_below: int | None = None,
) -> tuple[int, ...] | None:
    """Subgroup of Hol(A) generated by packed ``generators``.

    Returns the sorted element tuple, or None as soon as (a) the size
    exceeds ``limit``, (b) ``require_injective_pi1`` is set and two elements
    share a first coordinate, or (c) ``reject_below`` is set and a
    non-generator element below that packed value appears (used for the
    canonical-chain rule of the DFS).
    """
    gens = sorted({int(g) for g in generators})
    e = hol.identity
    seen = {e}
    out = [e]
    pi1_seen = np.zeros(hol.base.n, dtype=bool)
    pi1_seen[hol.base.identity] = True
    n_aut = hol.n_aut
    queue = [e]
    for u in queue:
        for g in gens:
            v = hol.mul(u, g)
            if v in seen:
                continue
            if require_injective_pi1:
                a = v // n_aut
                if pi1_seen[a]:
                    return None
                pi1_seen[a] = True
            if reject_below is not None and v < reject_below and v not in gens:
                return None
            seen.add(v)
            out.append(v)
            if limit is not None and len(out) > limit:
                return None
            queue.append(v)
    return tuple(sorted(out))


def candidate_pool(hol: Holomorph) -> np.ndarray:
    """Packed elements that can live in a regular subgroup, sorted ascending.

    (a, f) qualifies iff its order divides |A| and the cycle of the identity
    under its action is the full order (so the cyclic group it generates has
    injective pi1).
    """
    n = hol.base.n
    aut_orders = hol.aut.element_orders
    pool = []
    amul = hol.base.mul
    perms = hol.aut.perms
    for f in range(hol.n_aut):
        if n % int(aut_orders[f]):
            continue
        action = amul[:, perms[f]]  # row a = action permutation of (a, f)
        for a in range(n):
            perm = action[a]
            # cycle containing the identity of A
            length, cur = 0, hol.base.identity
            while True:
                cur = int(perm[cur])
                length += 1
                if cur == hol.base.identity:
                    break
            if n % length:
                continue
            # full order = lcm of cycle lengths; must equal the 0-cycle
            seen = np.zeros(n, dtype=bool)
            o = 1
            for start in range(n):
                if seen[start]:
                    continue
                ln, cur = 0, start
                while not seen[cur]:
                    seen[cur] = True
                    cur = int(perm[cur])
                    ln += 1
                o = lcm(o, ln)
                if o > length:
                    break
            if o == length and (a, f) != (hol.base.identity, hol.aut.identity):
                pool.append(a * hol.n_aut + f)
    return np.array(sorted(pool), dtype=np.int64)


# -- subgroups of Aut(A) up to conjugacy --------------------------------------


def aut_subgroup_classes(aut: AutGroup, m: int) -> list[tuple[int, ...]]:
    """Conjugacy-class representatives of the order-m subgroups of Aut(A).

    Each class is represented by its lexicographically least member (as a
    sorted index tuple).
    """
    aut.ensure_comp()
    subs = subgroups_of_order(aut, m)
    sub_set = set(subs)
    gens = aut.generators
    reps: list[tuple[int, ...]] = []
    visited: set[tuple[int, ...]] = set()
    for s in subs:  # subs sorted, so orbits are discovered from their minima
        if s in visited:
            continue
        orbit = {s}
        queue = [s]
        for t in queue:
            for h in gens:
                u = tuple(sorted(map(int, aut.conj_row(h)[list(t)])))
                if u not in orbit:
                    if u not in sub_set:
                        raise AssertionError("conjugate of a subgroup not in the enumeration")
                    orbit.add(u)
                    queue.append(u)
        visited |= orbit
        reps.append(min(orbit))
    return sorted(reps)

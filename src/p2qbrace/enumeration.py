"""Enumeration of regular subgroups of Hol(A) and their conjugacy orbits.

Two independent strategies produce the full list of regular subgroups:

* ``enumerate_dfs`` grows generator chains g_1 < g_2 < ... where each new
  generator is the smallest element of the extended subgroup not already
  present.  Every subgroup has exactly one such chain (greedy minimality),
  so no deduplication is needed; a hash-set assertion keeps this honest.

* ``enumerate_stratified`` fixes the image K = pi2(G) up to conjugacy and
  the kernel N = pi1(G meet A x 1) and lifts generators of K through right
  coset representatives of N.  All combinations of lifts are closed at
  once, as partial lambda tables filled in rounds until nothing changes: a
  table closed under right multiplication by the generators is the
  subgroup they generate, and two values for one cell are a pi1 collision.
  The Aut(A)-orbit of each regular hit is then expanded by conjugation.

Both hand on each regular subgroup as its lambda table lam (G is
{(a, lam[a])}), and everything after the closures works on those tables:
an orbit walk conjugates a table by one scatter and keys it by its bytes,
pi2 is the set of its values, and the circle group a o b = a * lam[a](b)
is read off it.  ``cross_validate`` checks the two strategies agree
subgroup for subgroup.  Orbits under conjugation by 1 x Aut(A) correspond
to isomorphism classes of the attached algebraic structures;
``orbit_partition`` computes them with lex-least representatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FiniteGroup, GroupLabel, _factor, generating_set, identify_p2q, subgroups_of_order
from .holomorph import (
    HolSubgroup,
    Holomorph,
    aut_subgroup_classes,
    candidate_pool,
    pi1_closure_bound,
)

__all__ = [
    "OrbitClass",
    "enumerate_dfs",
    "enumerate_stratified",
    "orbit_partition",
    "stratified_orbit_classes",
    "cross_validate",
    "circle_group",
]


def _pq_of(n: int) -> tuple[int, int]:
    fac = dict(_factor(n))
    ps = [d for d, e in fac.items() if e == 2]
    qs = [d for d, e in fac.items() if e == 1]
    if len(ps) != 1 or len(qs) != 1:
        raise ValueError(f"{n} is not of the form p^2 q with p, q distinct primes")
    return ps[0], qs[0]


def _circle_table(hol: Holomorph, lam: np.ndarray) -> np.ndarray:
    """a o b = a * lam[a](b), the product of (a, lam[a]) and (b, lam[b])
    read in pi1; ValueError unless the lambda of a o b is lam[a] o lam[b],
    that is unless {(a, lam[a])} is closed, hence a subgroup."""
    circ = hol.base.mul[np.arange(hol.base.n)[:, None], hol.aut.perms[lam]]
    if not np.array_equal(lam[circ], hol.aut.product(lam[:, None], lam[None, :])):
        raise ValueError("lambda table is not closed under multiplication")
    return circ


def circle_group(hol: Holomorph, sub: HolSubgroup) -> FiniteGroup:
    """The subgroup itself as an abstract group, element a standing for
    (a, lam[a])."""
    return FiniteGroup(_circle_table(hol, sub.arr), check=False)


@dataclass(frozen=True)
class OrbitClass:
    """One conjugacy orbit of regular subgroups: one isomorphism class."""

    rep: HolSubgroup
    orbit_size: int
    mul_label: GroupLabel

    @property
    def pi2_size(self) -> int:
        return self.rep.pi2_size

    @property
    def kernel_size(self) -> int:
        return self.rep.kernel_size()


# -- depth-first search over canonical generator chains -----------------------


def enumerate_dfs(hol: Holomorph) -> list[HolSubgroup]:
    """All regular subgroups of Hol(A), by canonical-chain DFS."""
    if not hol.aut.ensure_comp():
        raise ValueError(
            "composition table too large for the DFS strategy; use the stratified one"
        )
    n = hol.base.n
    n_aut = hol.n_aut

    e = hol.identity
    # row i: the powers y, y^2, ..., y^ord(y) = e of pool member y, padded
    # with e; the identity-cycle length of a pool member equals its order
    pool, pool_pw = candidate_pool(hol)
    pool_ord = (pool_pw != e).sum(axis=1) + 1

    results: list[tuple[int, ...]] = []

    def extend(s_sorted: np.ndarray, s_set: set, pi1_mask: np.ndarray,
               gens: list[int], y: int):
        """Closure of <S, y>; None on pi1 collision, overflow, or a new
        element below y (canonical-chain violation)."""
        seen = set(s_set)
        seen.add(y)
        mask = pi1_mask.copy()
        ay = y // n_aut
        if mask[ay]:
            return None, None
        mask[ay] = True
        out = list(map(int, s_sorted)) + [y]
        all_gens = gens + [y]
        new_queue = [y]
        # old elements only need the new generator; new ones need all
        for u in map(int, s_sorted):
            v = hol.mul(u, y)
            if v in seen:
                continue
            if v < y:
                return None, None
            av = v // n_aut
            if mask[av]:
                return None, None
            mask[av] = True
            seen.add(v)
            out.append(v)
            if len(out) > n:
                return None, None
            new_queue.append(v)
        for u in new_queue:
            for g in all_gens:
                v = hol.mul(u, g)
                if v in seen:
                    continue
                if v < y:
                    return None, None
                av = v // n_aut
                if mask[av]:
                    return None, None
                mask[av] = True
                seen.add(v)
                out.append(v)
                if len(out) > n:
                    return None, None
                new_queue.append(v)
        return np.array(sorted(out), dtype=np.int64), mask

    def visit(s_sorted: np.ndarray, s_set: set, pi1_mask: np.ndarray,
              gens: list[int], last: int):
        m = len(s_sorted)
        lo = int(np.searchsorted(pool, last, side="right"))
        if lo >= len(pool):
            return
        idx = np.arange(lo, len(pool))
        cand = pool[lo:]
        cord = pool_ord[lo:]
        keep = (n % np.lcm(m, cord)) == 0
        pos = np.searchsorted(s_sorted, cand)
        pos = np.minimum(pos, m - 1)
        keep &= s_sorted[pos] != cand
        if not keep.any():
            return
        idx = idx[keep]
        cand = cand[keep]
        # products S * y and y * S for every candidate y, vectorized
        packed = np.concatenate(
            [
                hol.product(s_sorted[:, None], cand[None, :]),
                hol.product(cand[None, :], s_sorted[:, None]),
            ],
            axis=0,
        )
        bad = pi1_mask[packed // n_aut].any(axis=0)
        packed.sort(axis=0)
        # same first coordinate in two distinct products kills injectivity
        # (the same product appearing twice, e.g. 1*y = y*1, is fine)
        dup = (np.diff(packed // n_aut, axis=0) == 0) & (np.diff(packed, axis=0) != 0)
        bad |= dup.any(axis=0)
        bad |= packed[0] < cand
        if not (~bad).any():
            return
        idx = idx[~bad]
        cand = cand[~bad]
        # every power of y must already lie in S or be a fresh element >= y
        w = pool_pw[idx]
        in_s = s_sorted[np.minimum(np.searchsorted(s_sorted, w), m - 1)] == w
        ok = ~(~in_s & ((w < cand[:, None]) | pi1_mask[w // n_aut])).any(axis=1)
        for y in cand[ok]:
            y = int(y)
            grown, mask = extend(s_sorted, s_set, pi1_mask, gens, y)
            if grown is None:
                continue
            size = len(grown)
            if size == n:
                assert len(pi1_closure_bound(hol, gens + [y])) == n
                results.append(tuple(map(int, grown)))
            elif n % size == 0:
                visit(grown, set(map(int, grown)), mask, gens + [y], y)

    mask0 = np.zeros(n, dtype=bool)
    mask0[hol.base.identity] = True
    visit(np.array([e], dtype=np.int64), {e}, mask0, [], -1)

    assert len(set(results)) == len(results), "canonical-chain DFS produced a duplicate"
    return sorted(HolSubgroup.from_packed(hol, t) for t in results)


# -- stratified search: fix pi2 up to conjugacy and the kernel ----------------


_CHUNK_CELLS = 2**14  # lambda cells per chunk of combinations: bounded temporaries


def _regular_closures(hol: Holomorph, b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Lambda tables of the rows of generators that generate regular
    subgroups, in row order; row r holds the generators (b[r, j], g[j]).

    Row r starts as lam[e] = id.  Each round sends the cells (a, lam[a])
    filled in the round before through every generator (b, g), writing
    lam[a * lam[a](b)] = lam[a] o g into the empty cells; a row dies when
    a cell then disagrees with a write to it, an old value or a new one.
    """
    base, aut = hol.base, hol.aut
    rows, n = len(b), base.n
    lam = np.full((rows, n), -1, dtype=np.int32)
    lam[:, base.identity] = aut.identity
    flat = lam.reshape(-1)
    alive = np.ones(rows, dtype=bool)
    r, a = np.arange(rows), np.full(rows, base.identity)
    while r.size:
        f = lam[r, a]
        cell = r[:, None] * n + base.mul[a[:, None], aut.perms[f[:, None], b[r]]]
        val = aut.product(f[:, None], g[None, :])
        empty = flat[cell] < 0
        flat[cell[empty]] = val[empty]
        alive[r[(flat[cell] != val).any(axis=1)]] = False
        r, a = np.divmod(np.unique(cell[empty]), n)
        live = alive[r]
        r, a = r[live], a[live]
    return lam[alive & (lam >= 0).all(axis=1)]


def _lifts(hol: Holomorph, k_gens: list[int], kernel: tuple[int, ...]):
    """Generators of the kernel, and for each generator alpha of K the right
    coset representatives u of the kernel for which (u, alpha) can lie in a
    regular subgroup with that kernel."""
    base = hol.base
    aut = hol.aut
    n = base.n
    n_arr = np.array(kernel, dtype=np.int64)
    n_mask = np.zeros(n, dtype=bool)
    n_mask[n_arr] = True
    n_gens = generating_set(base, kernel)

    # right coset representatives of the kernel
    reps = []
    seen = np.zeros(n, dtype=bool)
    for u in range(n):
        if not seen[u]:
            reps.append(u)
            seen[base.mul[n_arr, u]] = True

    orders = aut.element_orders
    per_gen: list[np.ndarray] = []
    for alpha in k_gens:
        o = int(orders[alpha])
        good = []
        for u in reps:
            # (u, alpha) must normalize kernel x 1 ...
            if any(
                not n_mask[base.mul[base.mul[u, aut.perms[alpha, m]], base.inv[u]]]
                for m in n_gens
            ):
                continue
            # ... and its ord(alpha)-th power must fall into kernel x 1
            w = hol.power(hol.pack(u, alpha), o)
            wa, wf = divmod(w, hol.n_aut)
            if wf != aut.identity or not n_mask[wa]:
                continue
            good.append(u)
        per_gen.append(np.array(good, dtype=np.int64))
    return n_gens, per_gen


def _lift_search(hol: Holomorph, k_elems: tuple[int, ...], k_gens: list[int],
                 kernel: tuple[int, ...]) -> list[np.ndarray]:
    """Lambda tables of the regular subgroups with pi2 = <k_gens> exactly
    and kernel pi1 = kernel, in the order of the lift combinations.

    Every combination of admissible lifts, with the kernel generators, is a
    row of ``_regular_closures``, a chunk of rows at a time.  The cells of a
    live row are closed under right multiplication by the generators, so in
    a finite group they are the subgroup G the row generates, and a row dies
    exactly on a pi1 collision in G: a row is returned iff G is regular.
    """
    n_gens, lifts = _lifts(hol, k_gens, kernel)
    shape = tuple(map(len, lifts))
    g = np.array(list(k_gens) + [hol.aut.identity] * len(n_gens), dtype=np.int64)
    total, step = math.prod(shape), max(1, _CHUNK_CELLS // hol.base.n)
    found = []
    for lo in range(0, total, step):
        combo = np.unravel_index(np.arange(lo, min(lo + step, total)), shape)
        b = np.column_stack([lift[i] for lift, i in zip(lifts, combo)]
                            + [np.full(len(combo[0]), m) for m in n_gens])
        found.extend(_regular_closures(hol, b, g))
    for lam in found:
        assert np.array_equal(np.unique(lam), k_elems)
    return found


def _strata(hol: Holomorph):
    """(K, generators of K, kernel) for every class representative K of
    the subgroups of Aut(A) of order d > 1 dividing n, and every subgroup
    of A of order n / d."""
    n = hol.base.n
    for d in range(2, n + 1):
        if n % d or hol.aut.k % d:
            continue
        for k_rep in aut_subgroup_classes(hol.aut, d):
            k_gens = generating_set(hol.aut, k_rep)
            for kernel in subgroups_of_order(hol.base, n // d):
                yield k_rep, k_gens, kernel


def _stratified_reps(hol: Holomorph) -> list[np.ndarray]:
    """Lambda tables of one member per (pi2-class, kernel) stratum; not yet
    expanded."""
    out = [np.full(hol.base.n, hol.aut.identity, dtype=np.int32)]
    for k_rep, k_gens, kernel in _strata(hol):
        out.extend(_lift_search(hol, k_rep, k_gens, kernel))
    return out


def _orbit_of(hol: Holomorph, start: np.ndarray):
    """Conjugation orbit of a lambda table; returns (lex-min tuple, orbit
    size, member tables)."""
    gens = hol.aut.generators
    seen = {start.tobytes()}
    queue = [start]
    best = start.tolist()
    for lam in queue:
        for h in gens:
            nxt = hol.conjugate_subgroup(lam, h)
            key = nxt.tobytes()
            if key not in seen:
                seen.add(key)
                queue.append(nxt)
                cand = nxt.tolist()
                if cand < best:
                    best = cand
    return tuple(best), len(seen), queue


def enumerate_stratified(hol: Holomorph) -> list[HolSubgroup]:
    """All regular subgroups, via strata expanded by Aut(A)-conjugation."""
    all_sets: set[tuple[int, ...]] = set()
    for lam in _stratified_reps(hol):
        if tuple(lam.tolist()) in all_sets:
            continue
        _, _, orbit = _orbit_of(hol, lam)
        all_sets.update(tuple(member.tolist()) for member in orbit)
    return [HolSubgroup(t) for t in sorted(all_sets)]


def orbit_partition(hol: Holomorph, subs: list[HolSubgroup]) -> list[OrbitClass]:
    """Partition a complete list of regular subgroups into conjugacy orbits."""
    p, q = _pq_of(hol.base.n)
    universe = {s.arr.tobytes() for s in subs}
    remaining = set(universe)
    classes: list[OrbitClass] = []
    for sub in sorted(subs):
        if sub.arr.tobytes() not in remaining:
            continue
        best, size, orbit = _orbit_of(hol, sub.arr)
        keys = {member.tobytes() for member in orbit}
        if not keys <= universe:
            raise AssertionError(
                "conjugate of a regular subgroup missing: enumeration incomplete"
            )
        remaining -= keys
        rep = HolSubgroup(best)
        label = identify_p2q(circle_group(hol, rep), p, q)
        classes.append(OrbitClass(rep=rep, orbit_size=size, mul_label=label))
    return sorted(classes, key=lambda cl: cl.rep)


def stratified_orbit_classes(hol: Holomorph) -> list[OrbitClass]:
    """Orbit classes straight from the strata, each orbit walked once.

    Equivalent to ``orbit_partition(hol, enumerate_stratified(hol))`` but
    never materializes the full subgroup list; used for large holomorphs.
    Stratum representatives sharing a pi2 (one class representative K,
    several kernels) may lie in one orbit; a walk therefore remembers its
    members with pi2 exactly K, a slice of the orbit, and later
    representatives found there are skipped.  The representatives of one K
    come consecutively, so the slices are dropped when K changes.
    """
    p, q = _pq_of(hol.base.n)
    by_min: dict[tuple[int, ...], int] = {}
    walked: set[bytes] = set()
    pi2 = None
    for lam in _stratified_reps(hol):
        rep_pi2 = np.unique(lam)
        if pi2 is None or not np.array_equal(rep_pi2, pi2):
            walked.clear()
            pi2 = rep_pi2
        elif lam.tobytes() in walked:
            continue
        best, size, orbit = _orbit_of(hol, lam)
        assert best not in by_min, "a walk from an unseen representative met a known orbit"
        by_min[best] = size
        walked.update(
            member.tobytes() for member in orbit
            if np.array_equal(np.unique(member), pi2)
        )
    classes = []
    for key in sorted(by_min):
        rep = HolSubgroup(key)
        label = identify_p2q(circle_group(hol, rep), p, q)
        classes.append(OrbitClass(rep=rep, orbit_size=by_min[key], mul_label=label))
    return classes


def cross_validate(hol: Holomorph) -> tuple[bool, str]:
    """Run both strategies and compare the exact subgroup sets."""
    dfs = {s.lam for s in enumerate_dfs(hol)}
    strat = {s.lam for s in enumerate_stratified(hol)}
    if dfs == strat:
        return True, f"both strategies agree: {len(dfs)} regular subgroups"
    only_d = sorted(dfs - strat)
    only_s = sorted(strat - dfs)
    lines = [
        f"strategy mismatch: dfs={len(dfs)} stratified={len(strat)}",
        f"  dfs-only: {len(only_d)}, stratified-only: {len(only_s)}",
    ]
    for name, side in (("dfs", only_d), ("stratified", only_s)):
        if side:
            sub = HolSubgroup(side[0])
            lines.append(
                f"  first {name}-only subgroup: pi2 size {sub.pi2_size}, "
                f"lambda {side[0][:6]}..."
            )
    return False, "\n".join(lines)

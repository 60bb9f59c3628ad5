"""Enumeration of regular subgroups of Hol(A) and their conjugacy orbits.

``stratified_orbit_classes`` fixes the image K = pi2(G) up to conjugacy and
the kernel N = pi1(G meet A x 1) and lifts generators of K through right
coset representatives of N.  All combinations of lifts are closed at once,
as partial lambda tables filled in rounds until nothing changes: a table
closed under right multiplication by the generators is the subgroup they
generate, and two values for one cell are a pi1 collision.  The
Aut(A)-orbit of each regular hit is then walked by conjugation.

Each regular subgroup is handed on as its lambda table lam (G is
{(a, lam[a])}), and everything after the closures works on those tables:
an orbit walk conjugates a table by one scatter and keys it by its bytes,
pi2 is the set of its values, and the circle group a o b = a * lam[a](b)
is read off it.  Orbits under conjugation by 1 x Aut(A) correspond to
isomorphism classes of the attached algebraic structures; each class is
represented by the lex-least table of its orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteGroup, GroupLabel, _factor, _product_rows, generating_set
from .core import identify_p2q, subgroups_of_order
from .holomorph import HolSubgroup, Holomorph, aut_subgroup_classes, orbit

__all__ = [
    "OrbitClass",
    "stratified_orbit_classes",
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
    """Generators of the kernel N, and for each generator alpha of K, in
    ascending order, the right coset representatives u of N (the least
    element of N u) for which (u, alpha) normalises N x 1 and has its o-th
    power, o = ord(alpha), in N x 1, as in any regular subgroup with kernel
    N.  That power is (u alpha(u) ... alpha^(o-1)(u), alpha^o), and alpha^o
    is the identity, so only its first coordinate is tested.
    """
    base, aut = hol.base, hol.aut
    n_mask = np.zeros(base.n, dtype=bool)
    n_mask[list(kernel)] = True
    n_gens = generating_set(base, kernel)
    reps = np.nonzero(base.mul[list(kernel)].min(axis=0) == np.arange(base.n))[0]
    inv = base.inv[reps][:, None]
    per_gen: list[np.ndarray] = []
    for alpha in k_gens:
        row = aut.perms[alpha]
        normal = n_mask[base.mul[base.mul[reps[:, None], row[n_gens]], inv]].all(axis=1)
        power = image = reps
        for _ in range(int(aut.element_orders[alpha]) - 1):
            image = row[image]
            power = base.mul[power, image]
        per_gen.append(reps[normal & n_mask[power]])
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
    g = np.array(list(k_gens) + [hol.aut.identity] * len(n_gens), dtype=np.int64)
    found = []
    for b in _product_rows(lifts + [[m] for m in n_gens], max(1, _CHUNK_CELLS // hol.base.n)):
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
    members = orbit(start, hol.aut.generators, hol.conjugate_subgroup)
    return tuple(min(member.tolist() for member in members)), len(members), members


def stratified_orbit_classes(hol: Holomorph) -> list[OrbitClass]:
    """Orbit classes straight from the strata, each orbit walked once.

    The full subgroup list is never materialized.  Stratum representatives
    sharing a pi2 (one class representative K, several kernels) may lie in
    one orbit; a walk therefore remembers its members with pi2 exactly K, a
    slice of the orbit, and later representatives found there are skipped.
    The representatives of one K come consecutively, so the slices are
    dropped when K changes.
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
        best, size, members = _orbit_of(hol, lam)
        assert best not in by_min, "a walk from an unseen representative met a known orbit"
        by_min[best] = size
        walked.update(
            member.tobytes() for member in members
            if np.array_equal(np.unique(member), pi2)
        )
    classes = []
    for key in sorted(by_min):
        rep = HolSubgroup(key)
        label = identify_p2q(circle_group(hol, rep), p, q)
        classes.append(OrbitClass(rep=rep, orbit_size=by_min[key], mul_label=label))
    return classes

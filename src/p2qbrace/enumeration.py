"""Enumeration of regular subgroups of Hol(A) and their conjugacy orbits.

``stratified_orbit_classes`` fixes the image K = pi2(G) up to conjugacy and
the kernel N = pi1(G meet A x 1), a stratum, and lifts generators of K
through right coset representatives of N.  Any generating set of K finds
every regular subgroup of a stratum exactly once (Lemma 1, ``_strata``),
so K gets one generator, or two where it is 2-generated, and a row is one
lift per generator of K.  A lift (u, alpha) with a power (u, alpha)^d,
0 < d < ord(alpha), in N x 1 lies in no regular subgroup with kernel N
(Lemma 2, ``_lifts``) and joins no row.  The kernels of one order are
stacked, and the lifts of each generator of K are filtered on every
kernel of the stack by one pass of gathers.  The lift combinations of
every stratum form one stream of rows for the whole family, and each row
starts from its kernel's N x 1, which its lifts normalise.  The stream is
closed a chunk of rows at a time, as partial lambda tables filled in
rounds until nothing changes: a table started from N x 1 and closed under
right multiplication by its row's lifts is the subgroup <N x 1, lifts>,
and two values for one cell are a pi1 collision (``_regular_closures``,
which pads the narrower rows of a chunk with (e, id)).  A chunk may hold
rows of several strata and takes the rounds of its deepest row.  The
Aut(A)-orbit of each regular hit is then walked by conjugation, one
breadth-first layer at a time (``holomorph.orbit``).

Each regular subgroup is handed on as its lambda table lam (G is
{(a, lam[a])}), and everything after the closures works on those tables:
an orbit walk conjugates a whole layer of tables by one scatter per
generator and keys each table by its bytes,
pi2 is the set of its values, and the circle group a o b = a * lam[a](b)
is read off it; the classes of a family are labelled by the types of
their circle groups all at once (``circle_labels``).  Orbits under
conjugation by 1 x Aut(A) correspond to isomorphism classes of the
attached algebraic structures; each class is represented by the lex-least
table of its orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core
from .core import (
    AutGroup,
    FiniteGroup,
    GroupLabel,
    _factor,
    _product_rows,
    closure,
    generating_set,
)
from .holomorph import HolSubgroup, Holomorph, aut_subgroup_classes, orbit

__all__ = [
    "OrbitClass",
    "stratified_orbit_classes",
    "circle_group",
    "circle_labels",
]


def _pq_of(n: int) -> tuple[int, int]:
    fac = dict(_factor(n))
    ps = [d for d, e in fac.items() if e == 2]
    qs = [d for d, e in fac.items() if e == 1]
    if len(ps) != 1 or len(qs) != 1:
        raise ValueError(f"{n} is not of the form p^2 q with p, q distinct primes")
    return ps[0], qs[0]


def _circle_tables(hol: Holomorph, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The circle tables a o b = a * lam[a](b) of the (R, n) stack of
    lambda tables ``lams``, the products of (a, lam[a]) and (b, lam[b]) read
    in pi1, as one (R, n, n) gather; and for each table whether the lambda
    of a o b is lam[a] o lam[b] throughout, that is whether {(a, lam[a])}
    is closed, hence a subgroup."""
    base, aut = hol.base, hol.aut
    circ = base.mul[np.arange(base.n)[:, None], aut.perms[lams]]
    at = circ + (np.arange(len(lams)) * base.n)[:, None, None]
    lhs = lams.ravel().take(at)  # lam[a o b], each table read at its own cells
    closed = (lhs == aut.product(lams[:, :, None], lams[:, None, :])).all(axis=(1, 2))
    return circ, closed


def circle_group(hol: Holomorph, sub: HolSubgroup) -> FiniteGroup:
    """The subgroup itself as an abstract group, element a standing for
    (a, lam[a]); ValueError unless the lambda table is closed."""
    (circ,), (closed,) = _circle_tables(hol, sub.arr[None])
    if not closed:
        raise ValueError("lambda table is not closed under multiplication")
    return FiniteGroup(circ, check=False)


def circle_labels(hol: Holomorph, lams: np.ndarray) -> list[GroupLabel | None]:
    """The isomorphism type of the circle group of each lambda table of the
    (R, n) stack ``lams``, None for a table that is not closed: the circle
    tables (``_circle_tables``) and their labels (``core.identify_stack``)
    a chunk of max(1, ``core.CHUNK_CELLS`` // n^2) tables at a time."""
    n = hol.base.n
    p, q = _pq_of(n)
    step = max(1, core.CHUNK_CELLS // (n * n))
    out: list[GroupLabel | None] = []
    for lo in range(0, len(lams), step):
        circ, closed = _circle_tables(hol, lams[lo:lo + step])
        labels = iter(core.identify_stack(circ[closed], p, q, hol.base.identity))
        out += [next(labels) if c else None for c in closed.tolist()]
    return out


@dataclass(frozen=True)
class OrbitClass:
    """One conjugacy orbit of regular subgroups: one isomorphism class.

    ``orbit_size`` is the number of members, or None for a class read from
    a cache file, which stores representatives only."""

    rep: HolSubgroup
    orbit_size: int | None
    mul_label: GroupLabel

    @property
    def pi2_size(self) -> int:
        return self.rep.pi2_size

    @property
    def kernel_size(self) -> int:
        return self.rep.kernel_size()


# -- stratified search: fix pi2 up to conjugacy and the kernel ----------------


def _regular_closures(hol: Holomorph, parts) -> tuple[np.ndarray, np.ndarray]:
    """(indices, lambda tables) of the rows that close to regular
    subgroups, the indices running over the rows of all the ``parts`` in
    order.  A part (start, b, g) is an n-mask of a subgroup S of A, an
    (r, w) array b of elements of A and the w automorphisms g of its rows:
    row i holds the generators (b[i, j], g[j]).

    Each row starts with the cells of S x 1, lam[s] = id.  Each round sends
    the cells (a, lam[a]) filled in the round before through every
    generator (b, g), writing lam[a * lam[a](b)] = lam[a] o g into the
    empty cells; a row dies when a cell then disagrees with a write to it,
    an old value or a new one.  The rows run together, so the rounds are
    those of the deepest row.  One re-read after the scatter tests both
    kinds of value.  No input is known on which a clash of two new values
    decides the outcome (the row then always meets an old-value clash
    later or keeps an empty cell), and no proof of that either; the tests
    keep the old-value rule alone as ``old_value_closures``.

    Lemma (start): if every generator of a row normalises S x 1, the
    cells a row reaches are those of <S x 1, gens>, and the row is kept
    iff that subgroup is regular.  Right multiplication by the generators
    fills (S x 1) <gens>, which is a subgroup when <gens> normalises
    S x 1, and then equals <S x 1, gens>; two values for one cell are a
    pi1 collision in it.  Every generator normalises {e} x 1, and the
    lifts of ``_lifts`` normalise their kernel's N x 1.

    Lemma (padding): the generator (e, id) writes nothing and never
    clashes, so the rows of narrower parts are padded with it.  It sends
    (a, lam[a]) to the cell a * lam[a](e) = a with the value
    lam[a] o id = lam[a], which is that cell's own value.
    """
    base, aut = hol.base, hol.aut
    lens, n = [len(b) for _, b, _ in parts], base.n
    shape = (sum(lens), max((b.shape[1] for _, b, _ in parts), default=0))
    b, g = np.full(shape, base.identity, dtype=np.int64), np.full(shape, aut.identity, dtype=np.int64)
    lam = np.full((shape[0], n), -1, dtype=np.int32)
    for lo, (start, bs, gs) in zip(np.cumsum([0] + lens).tolist(), parts):
        at = slice(lo, lo + len(bs))
        b[at, :bs.shape[1]], g[at, :bs.shape[1]] = bs, gs
        lam[at, start] = aut.identity
    flat = lam.reshape(-1)
    alive = np.ones(shape[0], dtype=bool)
    r, a = np.nonzero(lam >= 0)
    while r.size:
        f = lam[r, a]
        cell = r[:, None] * n + base.mul[a[:, None], aut.perms[f[:, None], b[r]]]
        val = aut.product(f[:, None], g[r])
        empty = flat[cell] < 0
        flat[cell[empty]] = val[empty]
        alive[r[(flat[cell] != val).any(axis=1)]] = False
        # the cells written this round, once each and in order
        new = np.sort(cell[empty])
        r, a = np.divmod(new[np.diff(new, prepend=-1) != 0], n)
        live = alive[r]
        r, a = r[live], a[live]
    keep = np.flatnonzero(alive & (lam >= 0).all(axis=1))
    return keep, lam[keep]


class _Kernels(NamedTuple):
    """The subgroups N of A of one order, stacked as ``_lifts`` reads them
    and built once per order: the generators each was built from (kept by
    ``core.subgroups_of_order``) padded with e to the widest (no kept
    generator is e), their membership masks (kernels x n), and the right
    coset representatives u, the least element of N u, with their inverses
    (kernels x d each, d = n / |N|; the lemma of ``_strata``)."""

    gens: np.ndarray
    mask: np.ndarray
    reps: np.ndarray
    reps_inv: np.ndarray


def _kernels(base: FiniteGroup, m: int) -> _Kernels:
    elements = core.subgroups_of_order(base, m)
    kept = base.subgroups[m]
    gens = np.full((len(elements), max(map(len, kept.values()), default=0)), base.identity)
    for row, el in zip(gens, elements):
        row[:len(kept[el])] = kept[el]
    arr = np.array(elements, dtype=np.int64).reshape(len(elements), m)
    mask = np.zeros((len(elements), base.n), dtype=bool)
    mask[np.arange(len(elements))[:, None], arr] = True
    least = base.mul[arr].min(axis=1) == np.arange(base.n)
    reps = np.nonzero(least)[1].reshape(len(elements), base.n // m)
    return _Kernels(gens, mask, reps, base.inv[reps])


def _lifts(hol: Holomorph, k_gens: list[int], kernels: _Kernels) -> list[np.ndarray]:
    """For each generator alpha of K, in the order given, a (kernels x d)
    mask over the right coset representatives u of each kernel N: those
    for which (u, alpha) normalises N x 1, has its o-th power,
    o = ord(alpha), in N x 1 and no lower power in N x 1, as in any
    regular subgroup with kernel N.  The d-th power is
    (u alpha(u) ... alpha^(d-1)(u), alpha^d); one walk over d tests its
    first coordinate.  Every kernel of the stack goes through the same
    gathers, ``core.CHUNK_CELLS`` cells of conjugates at a time; a padding
    generator e passes the normaliser test, as u alpha(e) u^-1 = e lies in
    every N.

    Lemma 2: if (u, alpha)^d = (w, alpha^d) with w in N and
    0 < d < ord(alpha), no regular G with kernel N holds (u, alpha).  G
    would hold (w, 1), hence (w, 1)^-1 (u, alpha)^d = (e, alpha^d) with
    alpha^d != id beside (e, id), and pi1 would not be injective on G.
    """
    base, aut = hol.base, hol.aut
    count, d = kernels.reps.shape
    step = max(1, core.CHUNK_CELLS // (d * max(1, kernels.gens.shape[1])))
    masks = [np.empty((count, d), dtype=bool) for _ in k_gens]
    for lo in range(0, count, step):
        at = slice(lo, lo + step)
        reps, reps_inv = kernels.reps[at], kernels.reps_inv[at]
        # x lies in kernel i of the chunk iff mask[i n + x]
        offset = np.arange(len(reps))[:, None] * base.n
        mask = kernels.mask[at].ravel()
        for out, alpha in zip(masks, k_gens):
            row = aut.perms[alpha]
            moved = row[kernels.gens[at]][:, None, :]  # alpha(m), m generating N
            conj = base.mul[base.mul[reps[:, :, None], moved], reps_inv[:, :, None]]
            keep = mask[conj + offset[:, :, None]].all(axis=2)
            power = image = reps
            for _ in range(int(aut.element_orders[alpha]) - 1):
                keep &= ~mask[power + offset]  # Lemma 2
                image = row[image]
                power = base.mul[power, image]
            out[at] = keep & mask[power + offset]
    return masks


def _k_generators(aut: AutGroup, k_rep: tuple[int, ...]) -> list[int]:
    """One or two generators of K where K has such: the first element x of
    largest order, alone when it generates K, else with the first element,
    in descending element order, that generates K with x.  Where no
    partner exists (K is not 2-generated, as a generalised dihedral
    (Z_p)^2 : Z_2) the greedy ``generating_set`` over that order."""
    by_order = sorted(k_rep, key=lambda f: -aut.element_orders[f])
    x = by_order[0]
    if aut.element_orders[x] == len(k_rep):
        return [x]
    for y in by_order[1:]:
        if len(closure(aut, [x, y])) == len(k_rep):
            return [x, y]
    return generating_set(aut, by_order)


def _strata(hol: Holomorph):
    """(K, generators of K, kernels) for every class representative K of
    the subgroups of Aut(A) of order d > 1 dividing n, with the subgroups
    of A of order n / d as one stack; K's generators are picked once per K
    (``_k_generators``), and the stack is built once per d (``_kernels``).
    The strata of K are (K, N) for each kernel N of the stack, in order.

    Lemma 1: any generating set of K gives a complete stream.  A regular G
    with pi2(G) = K and kernel N holds, for each alpha in K, exactly one
    lift (u, alpha) with u the least element of its coset N u.  As
    G / (N x 1) is K, the lifts of K's generators and N x 1 generate G, so
    a row of those lifts started from N x 1 closes to G.  Fewer
    generators of K mean fewer rows for the same subgroups.

    Lemma: the coset representatives of the stack form a rectangular
    (kernels x d) array.  Each kernel N has order n / d, so A is the
    disjoint union of exactly d right cosets N u, each with one least
    element.
    """
    base, n = hol.base, hol.base.n
    for d in range(2, n + 1):
        if n % d or hol.aut.k % d or not (k_reps := aut_subgroup_classes(hol.aut, d)):
            continue
        kernels = _kernels(base, n // d)
        for k_rep in k_reps:
            yield k_rep, _k_generators(hol.aut, k_rep), kernels


def _stream(hol: Holomorph, step: int):
    """The lift combinations of every stratum in order, as chunks of
    ``step`` rows (the last may be short): the K of each part of the chunk
    and the parts (start, b, g) for ``_regular_closures``, each row of b
    one lift of each generator g of K, started from the stratum's N x 1."""
    ks, parts, size = [], [], 0
    for k_rep, k_gens, kernels in _strata(hol):
        masks = _lifts(hol, k_gens, kernels)
        for i, (start, reps) in enumerate(zip(kernels.mask, kernels.reps)):
            for b in _product_rows([reps[mask[i]] for mask in masks], step):
                while len(b):
                    ks.append(k_rep)
                    parts.append((start, b[:step - size], k_gens))
                    b, size = b[step - size:], size + len(parts[-1][1])
                    if size == step:
                        yield ks, parts
                        ks, parts, size = [], [], 0
    if parts:
        yield ks, parts


def _stratified_reps(hol: Holomorph):
    """(K, lambda table) of one member per (pi2-class, kernel) stratum, not
    yet expanded: first A x 1, then the regular subgroups with pi2 = K
    exactly and the stratum's kernel, stratum by stratum in the order of
    the lift combinations.

    The rows of every stratum form one stream, closed by
    ``_regular_closures`` a chunk at a time, each row from its kernel's
    N x 1, which its lifts normalise: a row is kept iff the subgroup
    G = <N x 1, lifts> of Lemma 1 (``_strata``) is regular.

    pi2 = K is checked once per chunk: every value of a kept table lies in
    its K, and the table holds |K| distinct values.
    """
    yield (hol.aut.identity,), np.full(hol.base.n, hol.aut.identity, dtype=np.int32)
    for ks, parts in _stream(hol, max(1, core.CHUNK_CELLS // hol.base.n)):
        keep, lams = _regular_closures(hol, parts)
        kept = np.repeat(np.arange(len(parts)), [len(b) for _, b, _ in parts])[keep]
        in_k = np.zeros((len(ks), hol.aut.k), dtype=bool)
        for r, k in enumerate(ks):
            in_k[r, list(k)] = True
        if not in_k[kept[:, None], lams].all():
            raise AssertionError("a kept table has a value outside its K")
        sorted_lams = np.sort(lams, axis=1)
        distinct = 1 + (sorted_lams[:, 1:] != sorted_lams[:, :-1]).sum(axis=1)
        if (distinct != np.array([len(k) for k in ks])[kept]).any():
            raise AssertionError("a kept table has fewer than |K| distinct values")
        for i, lam in zip(kept.tolist(), lams):
            yield ks[i], lam


def _orbit_of(hol: Holomorph, start: np.ndarray):
    """Conjugation orbit of a lambda table; returns (lex-min tuple, orbit
    size, member tables as one stack)."""
    members = orbit(start, hol.aut.generators, hol.conjugate_subgroup)
    return tuple(min(members.tolist())), len(members), members


def stratified_orbit_classes(hol: Holomorph) -> list[OrbitClass]:
    """Orbit classes straight from the strata, each orbit walked once.

    The full subgroup list is never materialized.  Stratum representatives
    sharing a pi2 (one class representative K, several kernels) may lie in
    one orbit; a walk therefore remembers its members with pi2 exactly K, a
    slice of the orbit, and later representatives found there are skipped.
    The representatives of one K come consecutively, so the slices are
    dropped when K changes.
    """
    by_min: dict[tuple[int, ...], int] = {}
    walked: set[bytes] = set()
    k = None
    for k_rep, lam in _stratified_reps(hol):
        if k_rep != k:
            walked.clear()
            k = k_rep
            in_k = np.zeros(hol.aut.k, dtype=bool)
            in_k[list(k)] = True
        elif lam.tobytes() in walked:
            continue
        best, size, members = _orbit_of(hol, lam)
        if best in by_min:
            raise AssertionError("a walk from an unseen representative met a known orbit")
        by_min[best] = size
        # a conjugate of K has |K| elements, so pi2 within K means pi2 = K
        walked.update(map(bytes, members[in_k[members].all(axis=1)]))
    keys = sorted(by_min)
    labels = circle_labels(hol, np.array(keys, dtype=np.int32))
    return [OrbitClass(rep=HolSubgroup(key), orbit_size=by_min[key], mul_label=label)
            for key, label in zip(keys, labels)]

"""Finite groups as dense multiplication tables.

Everything downstream (holomorphs, regular subgroups, braces) deals with
groups of order p^2*q for distinct primes p, q, so group orders stay small
(<= a few hundred) and a dense n x n Cayley table indexed by 0..n-1 is the
fastest honest representation.  Element 0 is *not* assumed to be the
identity; constructors locate it.

Aut(A) comes from ``families.structured_aut`` as an ``AutGroup`` of
permutation rows in one order: by the code of each row's images of the
key, the base elements picked greedily in index order, which is the lex
order of the rows (the lemma in its docstring).  The kernel below
(closure, generating sets, subgroups of each order, element orders)
serves it and Cayley tables alike.  Maps fixed by their images of
generators have one kernel too: ``_extend`` builds them along one
spanning tree and ``_respects`` tests them on generators, with the lemma
that makes that exact in its docstring.  ``structured_aut`` and the brace
checks use it, and so does the brute-force search ``_hom_images``, which
tries every tuple of generator images with matching invariants, a chunk
of tuples at a time as rows of NumPy arrays (``_product_rows``, which
also chunks the lift combinations of ``enumeration``).  That search
serves the oracle ``compute_automorphisms`` and the additive
isomorphisms of ``braces.brace_isomorphic``.

Each group picks its generators once, by one of two rules, and keeps
them; ``generating_set`` itself picks greedily in whatever order it is
given.  A ``FiniteGroup`` uses the generators it was built with, else the
elements picked in index order, which every check of its table shares.
An ``AutGroup`` picks by descending element order, which gives fewer
generators for its orbit walks.  Each subgroup that ``subgroups_of_order``
lists keeps the generators it was built from, with no pick at all.  One
breadth-first search (``_bfs``) gives both the closures and the spanning
trees; ``generating_set`` extends the subgroup it has reached instead.
Every batched kernel, here and in ``families``, ``enumeration``,
``braces`` and ``ybe``, bounds its temporaries by the one ``CHUNK_CELLS``,
read at call time: a chunk holds as many rows as fit at the kernel's row
width.  ``identify_stack`` labels a stack of group tables of order p^2 q
at once from their power maps x -> x^p and x -> x^q, with no element
order walked, and ``identify_p2q`` is it on one group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FiniteGroup",
    "GroupLabel",
    "AutGroup",
    "associativity_failure",
    "closure",
    "generating_set",
    "subgroups_of_order",
    "compute_automorphisms",
    "identify_p2q",
    "identify_stack",
]

FAMILIES = (
    "CyclicP2Q",      # Z_{p^2 q}
    "PxPQ",           # Z_p x Z_{pq}
    "P2SemidirectQ",  # Z_{p^2} x| Z_q           (p = 1 mod q)
    "Gk",             # (Z_p)^2 x| Z_q, split action with eigenvalue ratio k
    "GF",             # (Z_p)^2 x| Z_q, irreducible action (q | p+1)
    "QbyP2_ordP",     # Z_q x| Z_{p^2}, kernel of order p   (q = 1 mod p)
    "QbyP2_ordP2",    # Z_q x| Z_{p^2}, faithful action     (q = 1 mod p^2)
    "PxQbyP",         # Z_p x (Z_q x| Z_p)                  (q = 1 mod p)
)

# cells per chunk of every batched kernel (candidate maps, composition-table
# rows, automorphism rows, lift closures, Yang-Baxter checks): each reads it
# at call time and takes as many rows as fit, so temporaries stay bounded
CHUNK_CELLS = 2**16


@dataclass(frozen=True, order=True)
class GroupLabel:
    """Isomorphism-type tag for a group of order p^2*q.

    ``k`` is only meaningful for the Gk family and is canonical:
    k ~ k^{-1} mod q are identified (representative: min of the pair),
    with 0, 1 and -1 kept as written.
    """

    family: str
    k: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if (self.k is not None) != (self.family == "Gk"):
            raise ValueError("k is set exactly for the Gk family")

    def key(self) -> str:
        return f"Gk({self.k})" if self.family == "Gk" else self.family

    def display(self, p: int, q: int) -> str:
        pq, p2, n = p * q, p * p, p * p * q
        return {
            "CyclicP2Q": f"Z{n}",
            "PxPQ": f"Z{p}xZ{pq}",
            "P2SemidirectQ": f"Z{p2}:Z{q}",
            "GF": f"(Z{p})^2:Z{q} irred",
            "QbyP2_ordP": f"Z{q}:Z{p2} (r)",
            "QbyP2_ordP2": f"Z{q}:Z{p2} (h)",
            "PxQbyP": f"Z{p}x(Z{q}:Z{p})",
        }.get(self.family, f"(Z{p})^2:Z{q} k={self.k}")

    @staticmethod
    def from_key(key: str) -> "GroupLabel":
        if key.startswith("Gk(") and key.endswith(")"):
            return GroupLabel("Gk", int(key[3:-1]))
        return GroupLabel(key)


class FiniteGroup:
    """A finite group given by its full multiplication table."""

    def __init__(self, mul, generators=None, label=None, check=True):
        mul = np.ascontiguousarray(np.asarray(mul, dtype=np.int32))
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise ValueError("multiplication table must be square")
        self.n = int(mul.shape[0])
        if mul.min() < 0 or mul.max() >= self.n:
            raise ValueError("table entries out of range")
        self.mul = mul
        self.label = label
        ident = np.nonzero((mul == np.arange(self.n)).all(axis=1))[0]
        if len(ident) != 1:
            raise ValueError("table has no identity row")
        self.identity = int(ident[0])
        if not (mul[:, self.identity] == np.arange(self.n)).all():
            raise ValueError("identity is not two-sided")
        pos = np.argwhere(mul == self.identity)
        inv = np.full(self.n, -1, dtype=np.int32)
        inv[pos[:, 0]] = pos[:, 1]
        if (inv < 0).any() or not (mul[inv, np.arange(self.n)] == self.identity).all():
            raise ValueError("table has non-invertible elements")
        self.inv = inv
        if generators is not None:
            self.generators = gens = list(map(int, generators))
            # from the identity, right multiplication by them reaches all
            if not all(0 <= g < self.n for g in gens) or len(closure(self, gens)) != self.n:
                raise ValueError("generators must be elements that generate the group")
        self.subgroups: dict[int, dict[tuple[int, ...], list[int]]] = {}  # see subgroups_of_order
        if check and associativity_failure(self) is not None:
            raise ValueError("multiplication table is not associative")

    # -- basic element arithmetic -------------------------------------------

    def power(self, x: int, k: int) -> int:
        if k < 0:
            x, k = int(self.inv[x]), -k
        acc, base = self.identity, x
        while k:
            if k & 1:
                acc = int(self.mul[acc, base])
            base = int(self.mul[base, base])
            k >>= 1
        return acc

    @cached_property
    def _rows(self) -> list[list[int]]:
        return self.mul.tolist()

    def compose(self, a: int, b: int) -> int:
        return self._rows[a][b]

    def product(self, a, b) -> np.ndarray:
        """a b for broadcast index arrays ``a`` and ``b``."""
        return self.mul[a, b]

    @cached_property
    def element_orders(self) -> np.ndarray:
        # column x is right multiplication by x: x^j = x^(j-1) x on any table
        return _orders(self.mul.T, [self.identity])

    @cached_property
    def conjugacy_class_sizes(self) -> np.ndarray:
        # column x holds y x y^-1 for every y: the class of x
        conj = np.sort(self.mul[self.mul, self.inv[:, None]], axis=0)
        return (1 + (conj[1:] != conj[:-1]).sum(axis=0)).astype(np.int32)

    def is_abelian(self) -> bool:
        return np.array_equal(self.mul, self.mul.T)

    def center(self) -> list[int]:
        return np.flatnonzero((self.mul == self.mul.T).all(axis=1)).tolist()

    @cached_property
    def generators(self) -> list[int]:
        """The generators given, else the elements picked greedily in index
        order, picked once."""
        return generating_set(self, range(self.n))


# -- closure and subgroups ---------------------------------------------------
#
# One kernel for Cayley-table groups and automorphism groups alike: it needs
# only ``identity``, a scalar ``compose(a, b)``, a vectorized ``product(a, b)``,
# the ``inv`` array and ``element_orders``, whose length is the group order.
# Both kinds of group take their element orders from ``_orders``, the one
# element-order walk; ``identify_stack`` reads power maps instead.


def _orders(rows: np.ndarray, points) -> np.ndarray:
    """For each permutation row x of ``rows``, the first j >= 1 at which
    x^j fixes every one of ``points``, as int64; only the rows not yet
    done are walked.  No order in a group of k rows exceeds k, so a walk
    past k steps raises RuntimeError."""
    points = np.asarray(points)
    out = np.zeros(len(rows), dtype=np.int64)
    todo, images = np.arange(len(rows)), rows[:, points]
    j = 1
    while todo.size:
        done = (images == points).all(axis=1)
        if done.any():  # most steps finish no row, and compacting is not free
            out[todo[done]] = j
            todo, images = todo[~done], images[~done]
        if todo.size and j >= len(rows):
            raise RuntimeError("order computation ran away")
        images = rows[todo[:, None], images]
        j += 1
    return out


def _bfs(group, gens, limit: int | None = None) -> dict[int, int | None] | None:
    """The breadth-first search from the identity under right multiplication
    by ``gens``: every element reached, in the order reached, mapped to its
    parent u in the search tree, x = u g for some g in ``gens`` (None for
    the identity).  In a finite group the words in ``gens`` already hold
    their inverses, so the elements reached are the subgroup they
    generate.  With ``limit`` set, None as soon as they exceed it.  A map
    and a queue of ints, not a tuple per element: the tuples made every
    closure about twice as slow."""
    compose = group.compose
    parent: dict[int, int | None] = {group.identity: None}
    queue = [group.identity]
    for u in queue:
        for g in gens:
            x = compose(u, g)
            if x not in parent:
                parent[x] = u
                if limit is not None and len(parent) > limit:
                    return None
                queue.append(x)
    return parent


def closure(group, seed, limit: int | None = None) -> list[int] | None:
    """Subgroup generated by ``seed``, as a sorted list of element indices,
    or None as soon as it exceeds ``limit`` (``_bfs``)."""
    reached = _bfs(group, sorted({int(g) for g in seed}), limit)
    return None if reached is None else sorted(reached)


def _first_failure(ok: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first False entry of ``ok`` in C order, or None."""
    bad = np.argwhere(~ok)
    return tuple(int(x) for x in bad[0]) if len(bad) else None


def associativity_failure(group: FiniteGroup) -> tuple[int, int, int] | None:
    """The first (x, y, z) in C order with (xy)z != x(yz), or None.

    Light's test: the elements a with (xa)y = x(ay) for all x, y are closed
    under the product.  For a and b among them, (x(ab))y = ((xa)b)y =
    (xa)(by) = x(a(by)) = x((ab)y).  So if every generator passes and right
    multiplication by the generators reaches all n elements from the
    identity (which passes), the table is associative.  That costs two
    n x n gathers per generator; the n^3 scan runs only when the test does
    not pass, to name the first failing triple.  The generators are
    ``group.generators``: the group's own when it was given some, which
    ``FiniteGroup`` checks reach every element, else picked greedily in
    index order, which reach every element by construction, need no
    element orders and so work on any table with an identity.
    """
    t = group.mul
    gens = group.generators
    if np.array_equal(t[t[:, gens]], t[:, t[gens]]):
        return None
    return _first_failure(t[t, :] == t[:, t])


def generating_set(group, elements) -> list[int]:
    """A small generating set of the subgroup ``elements``, picked greedily
    in the order given: each element not yet reached joins the set.

    The subgroup H reached so far is closed under right multiplication by
    the earlier picks.  So when g joins, <H, g> is H together with all that
    right multiplication by every pick reaches from the products H g, and
    the search runs on the new elements only."""
    compose = group.compose
    gens: list[int] = []
    reached = [group.identity]
    have = set(reached)
    for x in elements:
        if x in have:
            continue
        g, old = int(x), len(reached)
        gens.append(g)
        for i, u in enumerate(reached):  # the loop sees what it appends
            for s in gens if i >= old else (g,):
                y = compose(u, s)
                if y not in have:
                    have.add(y)
                    reached.append(y)
        if len(have) == len(elements):
            break
    return gens


def _factor(m: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def subgroups_of_order(group, m: int) -> list[tuple[int, ...]]:
    """All subgroups of order ``m``, each a sorted tuple of element indices,
    for any ``m`` with at most two distinct prime factors.

    A group whose order has at most two prime factors is solvable
    (Burnside), so a subgroup H of order m > 1 has a normal subgroup N of
    some prime index r, and H = N u yN u ... u y^(r-1)N for any y in H
    outside N.  Conversely, if N has order m/r and y lies outside N,
    normalises N and has y^r in N, that union of cosets is a subgroup of
    order m.  So for each prime r | m and each N of order m/r, the
    candidates y of order dividing m are tested against the generators of
    N (y g y^-1 in N) and on y^r in N, all at once, and each H is built
    from its cosets; the elements of H are marked so that H is built once
    per N, and the first (r, N, y) that builds H gives its generators.

    Lemma: they are [y] when ord(y) = m, else y followed by N's
    generators.  H is the union of the cosets y^i N, so <N, y> = H; when
    ord(y) = m = |H|, <y> = H.  So no H has more generators than m has
    prime factors counted with multiplicity.  y comes first because the
    normaliser test of the next order filters by the first generator on
    every candidate: at (7,3) Gk(1) that order does fewer products than
    N's generators first, or the greedy pick in index order.

    The lists are kept on the group by order, each as one map, in sorted
    order, from every subgroup to its generators (``group.subgroups``), so
    the smaller ones are built once.  ValueError if m has more than two
    distinct prime factors.
    """
    if m in group.subgroups:
        return list(group.subgroups[m])
    orders = np.asarray(group.element_orders)
    size = len(orders)
    if m <= 0 or size % m:
        return []
    fac = _factor(m)
    if len(fac) > 2:
        raise ValueError(f"subgroup order {m} has more than two prime factors")
    found: dict[tuple[int, ...], list[int]] = {(group.identity,): []} if m == 1 else {}
    pool = np.nonzero(m % orders == 0)[0]
    for r, _ in fac:
        subgroups_of_order(group, m // r)
        for sub, gens in group.subgroups[m // r].items():
            in_sub = np.zeros(size, dtype=bool)
            in_sub[list(sub)] = True
            x = pool[~in_sub[pool]]
            for g in gens:
                x = x[in_sub[group.product(group.product(x, g), group.inv[x])]]
            power = x
            for _ in range(r - 1):
                power = group.product(power, x)
            done = in_sub.copy()
            coset = np.asarray(sub)
            for y in x[in_sub[power]].tolist():
                if done[y]:
                    continue
                cosets = [coset]
                for _ in range(r - 1):
                    cosets.append(group.product(y, cosets[-1]))
                h = np.sort(np.concatenate(cosets))
                done[h] = True
                found.setdefault(tuple(h.tolist()), [y] if orders[y] == m else [y, *gens])
    group.subgroups[m] = dict(sorted(found.items()))
    return list(group.subgroups[m])


# -- automorphisms and isomorphism -------------------------------------------


def _element_invariants(group: FiniteGroup) -> list[tuple[int, int]]:
    orders = group.element_orders
    sizes = group.conjugacy_class_sizes
    return [(int(orders[x]), int(sizes[x])) for x in range(group.n)]


def _product_rows(choices, step: int):
    """The tuples of ``itertools.product(*choices)``, in that order, as the
    rows of int arrays of ``step`` rows at a time (the last may be short)."""
    shape = tuple(map(len, choices))
    total = math.prod(shape)
    for lo in range(0, total, step):
        combo = np.unravel_index(np.arange(lo, min(lo + step, total)), shape)
        yield np.column_stack([np.asarray(c)[i] for c, i in zip(choices, combo)])


# -- maps fixed by their images of generators --------------------------------


def _spanning_levels(group: FiniteGroup) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The tree of ``_bfs`` over ``group.generators``, a spanning tree of
    ``group``, level by level: arrays (x, parent, generator index) with x =
    parent * generators[index], the first such index."""
    rows, gens = group._rows, group.generators
    depth, levels = {group.identity: 0}, []
    for x, u in _bfs(group, gens).items():
        if u is None:
            continue
        d = depth[x] = depth[u] + 1
        if d > len(levels):  # the search reaches the levels in order
            levels.append([])
        levels[-1].append((x, u, next(i for i, g in enumerate(gens) if rows[u][g] == x)))
    return [tuple(map(np.array, zip(*level))) for level in levels]


def _extend(src: FiniteGroup, dst: FiniteGroup, blocks):
    """For each array of rows of images of ``src.generators`` in
    ``blocks``, yield the rows of maps phi: src -> dst with phi(e) = e and
    phi(x s) = phi(x) phi(s) along one spanning tree of src.  Each is the
    only homomorphism with those images, if there is one."""
    levels = _spanning_levels(src)
    mul = dst.mul.ravel()
    for imgs in blocks:
        # one map per column: each level reads and writes whole rows, and
        # the product is one flat gather; transposed once at the end
        phi = np.empty((src.n, len(imgs)), dtype=np.int32)
        phi[src.identity] = dst.identity
        imgs = imgs.T.astype(np.int32)
        for xs, par, gi in levels:
            at = phi[par]
            at *= dst.n
            at += imgs[gi]
            phi[xs] = mul.take(at)
        yield np.ascontiguousarray(phi.T)


def _respects(src: FiniteGroup, dst: FiniteGroup, phi: np.ndarray, gens) -> np.ndarray:
    """Indices of the rows of ``phi`` (maps src -> dst) with phi(g x) =
    phi(g) phi(x) for every g in ``gens`` and every x, one generator at a
    time, dropping the rows that fail.

    Lemma: when ``gens`` generates src, these rows are exactly the
    homomorphisms.  The g that pass for a row are closed under products,
    phi(g h x) = phi(g) phi(h x) = phi(g) phi(h) phi(x) = phi(g h) phi(x),
    so they are all of src.  A homomorphism that sends exactly one element
    to e has a trivial kernel, so it is injective, and a bijection when
    src and dst have equal order.
    """
    keep = np.arange(len(phi))
    for g in gens:
        ok = (phi[:, src.mul[g]] == dst.mul[phi[:, g, None], phi]).all(axis=1)
        if not ok.all():
            keep, phi = keep[ok], phi[ok]
    return keep


def _hom_images(src: FiniteGroup, dst: FiniteGroup):
    """Yield the image tables of the bijective homomorphisms src -> dst, a
    chunk at a time as arrays of rows, in the ``itertools.product`` order
    of the candidate images of ``src.generators`` (the elements of dst
    with the same element order and class size).

    Each candidate tuple is extended to a map (``_extend``) and kept iff
    it sends exactly one element to e and respects the generators
    (``_respects``).
    """
    if src.n != dst.n:
        return
    inv_s = _element_invariants(src)
    inv_d = _element_invariants(dst)
    if sorted(inv_s) != sorted(inv_d):
        return
    gens = src.generators
    cands = [np.array([y for y in range(dst.n) if inv_d[y] == inv_s[g]]) for g in gens]
    for phi in _extend(src, dst, _product_rows(cands, max(1, CHUNK_CELLS // src.n))):
        phi = phi[(phi == dst.identity).sum(axis=1) == 1]
        yield phi[_respects(src, dst, phi, gens)]


class AutGroup:
    """The automorphism group of a base group, stored as permutation rows.

    The one key is ``key = generating_set(base, range(base.n))``, the base
    elements picked greedily in index order.  An automorphism is fixed by
    its key images, and ``perms`` has one row per automorphism, sorted by
    the mixed-radix code of its key images with the first key element most
    significant: an index is the rank of its code in ``codes``.

    Lemma: this is the lex order of the rows.  Let phi != psi and let i be
    the first index where their rows differ.  The elements below i generate
    a subgroup on which phi and psi agree, so i lies outside it, and the
    greedy pick put i in the key.  phi and psi agree on every key element
    below i, so i is the first key element where they differ.

    An index is found from the code of its key images only (``_rank``, or
    a dict in the table-less ``compose``).  ``compose(f, g)`` and
    ``product`` are f o g: apply g, then f.  They gather from the k x k
    composition table when k <= ``COMP_LIMIT``, built on the first of them,
    and rank key images otherwise.

    The table is built by right multiplication.  The identity's row is
    0, 1, ..., k - 1.  Then the least index x not yet reached gets its row
    ranked (``_ranked_product``), and the rows reached from the built ones
    by right multiplication with the ranked rows are gathered, one
    breadth-first layer at a time and a chunk of rows at a time: as
    (f o x) o g = f o (x o g), row f o x is row f read at row x, and its
    index is comp[f, x].  This repeats until every row is built.  The
    ranked rows are not ``generators``, which are picked through this
    table by descending element order.

    Lemma: the ranked rows raise KeyError exactly when the rows are not
    closed under composition.  If x o Aut lies in Aut for every ranked x,
    so does w o Aut for every word w in them, and every row is the
    identity, a ranked x or such a word.  So a row set that is not closed
    raises on the first product.
    """

    COMP_LIMIT = 4100

    def __init__(self, base: FiniteGroup, perms: np.ndarray):
        perms = np.asarray(perms, dtype=np.int32)
        self.base, self.k = base, len(perms)
        self.key = generating_set(base, range(base.n))
        self._radix = base.n ** np.arange(len(self.key) - 1, -1, -1, dtype=np.int64)
        codes = perms[:, self.key] @ self._radix
        order = np.argsort(codes)
        self.codes, self.perms = codes[order], perms[order]
        if (np.diff(self.codes) == 0).any():
            raise ValueError("duplicate automorphisms")
        self.identity = int(self._rank(self.key))
        # f^-1(s) is the point that f sends to s
        self.inv = self._rank(np.stack([np.argmax(self.perms == s, axis=1) for s in self.key], axis=1))
        self._conj_rows: dict[int, np.ndarray] = {}
        self.subgroups: dict[int, dict[tuple[int, ...], list[int]]] = {}  # see subgroups_of_order

    @cached_property
    def _comp(self) -> np.ndarray | None:
        if self.k > self.COMP_LIMIT:
            return None
        every = np.arange(self.k)
        comp = np.empty((self.k, self.k), dtype=np.int32)
        flat = comp.ravel()
        built = np.zeros(self.k, dtype=bool)
        comp[self.identity], built[self.identity] = every, True
        gens = np.empty(0, dtype=np.intp)
        src = np.empty(self.k, dtype=np.intp)
        step = max(1, CHUNK_CELLS // self.k)
        left = self.k - 1
        while left:
            x = int(np.argmin(built))
            comp[x], built[x] = self._ranked_product(x, every), True
            gens, left = np.append(gens, x), left - 1
            layer = np.flatnonzero(built)
            while left:
                # f o x for every f in the layer and ranked x
                heads = comp[layer[:, None], gens].ravel()
                at = np.flatnonzero(~built[heads])
                if not at.size:
                    break
                src[heads[at]] = at  # keep one pair per new row
                at = at[src[heads[at]] == at]
                f, x = np.divmod(at, len(gens))
                layer, fk, x = heads[at], (layer[f] * self.k).astype(np.int32), gens[x]
                for lo in range(0, len(layer), step):
                    # comp[f, y] is flat[f k + y]; "wrap" skips the bounds
                    # check of indices that are in range
                    rows = comp[x[lo:lo + step]] + fk[lo:lo + step, None]
                    comp[layer[lo:lo + step]] = flat.take(rows, mode="wrap")
                built[layer], left = True, left - len(layer)
        return comp

    def _rank(self, images: np.ndarray) -> np.ndarray:
        """Indices of the automorphisms with the key images on the last
        axis of ``images``; KeyError if some row fits none."""
        codes = np.asarray(images) @ self._radix
        pos = self.codes.searchsorted(codes)
        if (self.codes.take(pos, mode="clip") != codes).any():
            raise KeyError("images of no automorphism")
        return pos.astype(np.int32)

    def _ranked_product(self, f, g) -> np.ndarray:
        inner = self.perms[np.asarray(g)[..., None], self.key]  # g(s)
        return self._rank(self.perms[np.asarray(f)[..., None], inner])  # f(g(s))

    def product(self, f, g) -> np.ndarray:
        """f o g for broadcast index arrays ``f`` and ``g``: a gather from
        the table when there is one, else a rank of key images."""
        comp = self._comp
        return self._ranked_product(f, g) if comp is None else comp[f, g]

    def conj_row(self, h: int) -> np.ndarray:
        """The map f -> h f h^{-1} on every automorphism index (cached)."""
        if h not in self._conj_rows:
            images = self.perms[h][self.perms[:, self.perms[self.inv[h], self.key]]]
            self._conj_rows[h] = self._rank(images)
        return self._conj_rows[h]

    @cached_property
    def _code_index(self) -> tuple[dict[int, int], list[list[int]], list[int], memoryview]:
        # for compose without a table, as Python objects: code -> index,
        # each g's key images, the radix, and the rows
        index = dict(zip(self.codes.tolist(), range(self.k)))
        images = self.perms[:, self.key].tolist()
        return index, images, self._radix.tolist(), memoryview(self.perms)

    def compose(self, f: int, g: int) -> int:
        comp = self._comp
        if comp is not None:
            return int(comp[f, g])
        # the code of f o g: f's row read at g's key images
        index, images, radix, rows = self._code_index
        code = 0
        for x, r in zip(images[g], radix):
            code += rows[f, x] * r
        return index[code]

    @cached_property
    def element_orders(self) -> np.ndarray:
        # f is fixed by its key images
        return _orders(self.perms, self.key)

    @cached_property
    def generators(self) -> list[int]:
        # by descending element order: on the benchmark families that picks
        # at most 3 generators where index order picks up to 6, and an orbit
        # walk (``holomorph.orbit``) acts by every generator on every member
        return generating_set(self, np.argsort(-self.element_orders, kind="stable").tolist())


BRUTE_FORCE_BOUND = 200  # the largest group order compute_automorphisms takes


def compute_automorphisms(group: FiniteGroup) -> AutGroup:
    """Aut(G) by testing every tuple of generator images (``_hom_images``).

    Refuses groups larger than ``BRUTE_FORCE_BOUND``: the search costs
    O(n |gens|) per candidate tuple, the tuples number up to n^|gens|, and
    the rows kept are all of Aut(G), so it is meant for the ambient sizes
    of this project (order 147 takes seconds).  ValueError on the trivial group, which has
    no generators to map.
    """
    if group.n > BRUTE_FORCE_BOUND:
        raise ValueError(f"group of order {group.n} exceeds the bound {BRUTE_FORCE_BOUND}")
    if group.n == 1:
        raise ValueError("the trivial group has no generators to map; its Aut is trivial")
    return AutGroup(group, np.concatenate(list(_hom_images(group, group))))


# -- recognising groups of order p^2 q ---------------------------------------


def _dlog(base: int, target: int, p: int, max_exp: int) -> int:
    cur = base % p
    for j in range(1, max_exp + 1):
        if cur == target % p:
            return j
        cur = (cur * base) % p
    raise ValueError("discrete log not found")


def identify_p2q(group: FiniteGroup, p: int, q: int) -> GroupLabel:
    """Isomorphism type of a group of order p^2*q: ``identify_stack`` on a
    stack of one."""
    n = p * p * q
    if group.n != n:
        raise ValueError(f"group has order {group.n}, expected {n}")
    return identify_stack(group.mul[None], p, q, group.identity)[0]


def _power_map(tables: np.ndarray, k: int) -> np.ndarray:
    """x -> x^k on every table of the (R, n, n) stack, as an (R, n) array,
    by repeated squaring: one gather of the stack per product."""
    rows, n = tables.shape[:2]
    flat = tables.reshape(-1)
    at = (np.arange(rows, dtype=np.int64) * n * n)[:, None]
    acc, base = None, np.broadcast_to(np.arange(n), (rows, n))
    while True:
        if k & 1:
            acc = base if acc is None else flat.take(at + acc * n + base)
        k >>= 1
        if not k:
            return acc
        base = flat.take(at + base * n + base)


def identify_stack(tables: np.ndarray, p: int, q: int, identity: int) -> list[GroupLabel]:
    """Isomorphism types of the groups of order n = p^2*q whose tables are
    the (R, n, n) stack ``tables``, all with the identity ``identity``.

    For the whole stack at once: the power maps x -> x^p and x -> x^q
    (``_power_map``), then x^(p^2) = (x^p)^p and x^(pq) = (x^p)^q by one
    gather each, and the centre sizes.  No element order is walked.

    Lemma: ord(x) divides d iff x^d = e, and ord(x) divides n.  So the
    elements whose order divides p^2 are those with x^(p^2) = e; x has
    order p^2 iff x^(p^2) = e and x^p != e; and x has order n iff x^(pq)
    != e and x^(p^2) != e, since pq and p^2 are the maximal proper
    divisors of n.  Likewise the elements of order p are the x != e with
    x^p = e, and those of order q the x != e with x^q = e.

    Then the decision tree: abelian -> exponent; Sylow-p not normal (fewer
    or more than p^2 elements of order dividing p^2) -> one of the three
    types with normal Sylow-q, told apart by an element of order p^2 and
    the centre size; Sylow-p normal and cyclic -> the Z_{p^2} x| Z_q type;
    Sylow-p normal and elementary -> the eigenvalues of the order-q action
    over F_p (``_plane_label``), the only branch that runs per table.
    """
    tables = np.ascontiguousarray(tables)
    n = tables.shape[1]
    pow_p, pow_q = _power_map(tables, p), _power_map(tables, q)
    one_p2 = np.take_along_axis(pow_p, pow_p, axis=1) == identity
    one_pq = np.take_along_axis(pow_q, pow_p, axis=1) == identity
    one_p, one_q = pow_p == identity, pow_q == identity
    centre = (tables == tables.transpose(0, 2, 1)).all(axis=2).sum(axis=1)
    p_count = one_p2.sum(axis=1)
    has_p2 = (one_p2 & ~one_p).any(axis=1)
    cyclic = ~(one_pq | one_p2).all(axis=1)
    out = []
    for r, (z, count, p2, cyc) in enumerate(zip(centre.tolist(), p_count.tolist(),
                                                has_p2.tolist(), cyclic.tolist())):
        if z == n:
            out.append(GroupLabel("CyclicP2Q" if cyc else "PxPQ"))
        elif count != p * p:  # Sylow-p is not normal, so Sylow-q is
            out.append(GroupLabel("QbyP2_ordP" if z == p else "QbyP2_ordP2") if p2
                       else GroupLabel("PxQbyP"))
        elif p2:
            out.append(GroupLabel("P2SemidirectQ"))
        else:
            out.append(_plane_label(tables[r], identity, one_p[r], one_q[r], p, q))
    return out


def _plane_label(table: np.ndarray, identity: int, one_p: np.ndarray, one_q: np.ndarray,
                 p: int, q: int) -> GroupLabel:
    """GF or Gk with canonical k for a group table with an elementary
    abelian normal Sylow-p: diagonalise over F_p the conjugation action of
    an order-q element on the plane of the elements of order 1 or p, the x
    with x^p = e (``one_p``; ``one_q`` flags the x with x^q = e)."""
    p_elems = np.flatnonzero(one_p).tolist()
    e1 = next(x for x in p_elems if x != identity)
    # columns: right multiplication by e1, by e2 and by eps^-1
    by_e1 = table[:, e1].tolist()
    c1, x = {identity}, e1
    while x != identity:
        c1.add(x)
        x = by_e1[x]
    e2 = next(x for x in p_elems if x not in c1)
    by_e2 = table[:, e2].tolist()
    coord: dict[int, tuple[int, int]] = {}
    xi = identity
    for i in range(p):
        xj = xi
        for j in range(p):
            coord[xj] = (i, j)
            xj = by_e2[xj]
        xi = by_e1[xi]
    eps = next(x for x in np.flatnonzero(one_q).tolist() if x != identity)
    eps_row = table[eps].tolist()
    by_inv = table[:, eps_row.index(identity)].tolist()
    a, c = coord[by_inv[eps_row[e1]]]
    b, d = coord[by_inv[eps_row[e2]]]
    tr, det = (a + d) % p, (a * d - b * c) % p
    roots = [x for x in range(1, p) if (x * x - tr * x + det) % p == 0]
    if not roots:
        return GroupLabel("GF")
    if len(roots) == 1:
        # double eigenvalue; an order-q matrix is diagonalisable, hence scalar
        return GroupLabel("Gk", 1)
    lam, mu = roots
    if lam == 1 or mu == 1:
        return GroupLabel("Gk", 0)
    k1 = _dlog(lam, mu, p, q)
    k2 = _dlog(mu, lam, p, q)
    k = min(k1, k2)
    return GroupLabel("Gk", -1 if k == q - 1 else k)

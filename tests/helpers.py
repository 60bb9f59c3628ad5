"""Shared cached builders so expensive objects are computed once per run."""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
from dataclasses import dataclass
from math import lcm, prod
from pathlib import Path

import numpy as np

from p2qbrace import braces, catalog, core, enumeration, holomorph, ybe
from p2qbrace.braces import brace_from_regular
from p2qbrace.catalog import FamilyContext, RecipeError, Witness
from p2qbrace.core import (
    FiniteGroup,
    GroupLabel,
    _dlog,
    _element_invariants,
    _factor,
    _hom_images,
    _respects,
    _spanning_levels,
    closure,
    compute_automorphisms,
    generating_set,
    subgroups_of_order,
)
from p2qbrace.enumeration import (
    OrbitClass,
    _orbit_of,
    _pq_of,
    _stratified_reps,
    circle_group,
    stratified_orbit_classes,
)
from p2qbrace.families import (
    _family_coords,
    all_labels,
    build_group,
    derive_params,
    structured_aut,
)
from p2qbrace.holomorph import HolSubgroup, Holomorph, aut_subgroup_classes, closure_packed
from p2qbrace.report import CACHE_VERSION, classify

# the orders every fast test may lean on; (2,13) is reserved for acceptance
SMALL_PAIRS = ((2, 5), (2, 7), (3, 7), (5, 3))

# the (p, q, family key) whose classes the benchmark's brace_ybe workload queries
BRACE_YBE_FAMILIES = tuple(
    (p, q, key) for p, q, key, _ in json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
    )["brace_ybe_classes"]
)


@functools.lru_cache(maxsize=None)
def params_of(p, q, choice="first"):
    return derive_params(p, q, choice)


@functools.lru_cache(maxsize=None)
def group_of(p, q, key, choice="first"):
    return build_group(GroupLabel.from_key(key), params_of(p, q, choice))


@functools.lru_cache(maxsize=None)
def structured_of(p, q, key, choice="first"):
    return structured_aut(GroupLabel.from_key(key), params_of(p, q, choice))


@functools.lru_cache(maxsize=None)
def brute_aut_of(p, q, key):
    return compute_automorphisms(group_of(p, q, key))


@functools.lru_cache(maxsize=None)
def hol_of(p, q, key, choice="first"):
    sa = structured_of(p, q, key, choice)
    return Holomorph(sa.base, sa.aut)


@functools.lru_cache(maxsize=None)
def classes_of(p, q, key, choice="first"):
    return tuple(stratified_orbit_classes(hol_of(p, q, key, choice)))


@functools.lru_cache(maxsize=None)
def report_of(p, q, choice="first", budget="normal"):
    return classify(p, q, choice=choice, budget=budget)


def by_descending_order(group) -> list[int]:
    """The elements of ``group`` by descending element order, ties in index
    order: the order ``AutGroup.generators`` picks in."""
    return np.argsort(-np.asarray(group.element_orders), kind="stable").tolist()


def label_keys(p, q):
    return [lab.key() for lab in all_labels(p, q)]


def all_reps(p, q):
    """(label key, hol, OrbitClass) for every orbit class at order p^2*q."""
    for key in label_keys(p, q):
        hol = hol_of(p, q, key)
        for cl in classes_of(p, q, key):
            yield key, hol, cl


def packed_elements(hol, sub):
    """The sorted packed elements a * |Aut| + lam[a] of a lambda-form
    subgroup."""
    return tuple(a * hol.n_aut + f for a, f in enumerate(sub.lam))


def meets_stabiliser_trivially(hol, elements):
    """The stabiliser criterion for regularity: |G| = |A| and G meets
    1 x Aut(A), the stabiliser of the identity of A, only in the identity."""
    a_parts = np.asarray(elements, dtype=np.int64) // hol.n_aut
    return len(a_parts) == hol.base.n and int((a_parts == hol.base.identity).sum()) == 1


@dataclass(eq=False)
class Morphism:
    """A map between groups given by its full image table."""

    source: FiniteGroup
    target: FiniteGroup
    map: np.ndarray

    def is_homomorphism(self) -> bool:
        m = self.map
        return np.array_equal(self.target.mul[m[:, None], m[None, :]], m[self.source.mul])

    def is_bijective(self) -> bool:
        return self.source.n == self.target.n and len(np.unique(self.map)) == self.source.n


def unpack(hol, x):
    """The pair (a, f) of the packed holomorph element x = a * |Aut| + f."""
    return divmod(int(x), hol.n_aut)


def hol_inv(hol, x):
    """The inverse (f^-1(a^-1), f^-1) of the packed element x = (a, f)."""
    a, f = unpack(hol, x)
    fi = int(hol.aut.inv[f])
    return int(hol.aut.perms[fi, hol.base.inv[a]]) * hol.n_aut + fi


def hol_product(hol, x, y):
    """x y for broadcast packed arrays ``x`` and ``y``: the vectorized
    ``Holomorph.compose``."""
    a, f = np.divmod(np.asarray(x), hol.n_aut)
    b, g = np.divmod(np.asarray(y), hol.n_aut)
    out = hol.base.mul[a, hol.aut.perms[f, b]].astype(np.int64) * hol.n_aut
    out += hol.aut.product(f, g)
    return out


def hol_power(hol, x, k):
    """x^k for k >= 0, by k scalar products ``Holomorph.compose``."""
    acc = hol.identity
    for _ in range(k):
        acc = hol.compose(acc, x)
    return acc


def exponent(group):
    """The least common multiple of the element orders."""
    return int(lcm(*map(int, np.unique(group.element_orders))))


def aut_order_oracle(rows):
    """The permutation that sorts permutation rows lexicographically, whole
    row by whole row: the order ``AutGroup`` gets from key-image codes."""
    return np.lexsort(rows.T[::-1])


def comp_table(aut):
    """The k x k composition table of Aut(A), or None when k exceeds
    ``COMP_LIMIT``."""
    return aut._comp


def comp_table_oracle(aut):
    """The k x k composition table with every row ranked: each f o g found
    from the code of its key images, a chunk of rows at a time (bounded
    temporaries)."""
    every = np.arange(aut.k)
    comp = np.empty((aut.k, aut.k), dtype=np.int32)
    step = max(1, 2**16 // aut.k)
    for lo in range(0, aut.k, step):
        comp[lo:lo + step] = aut._ranked_product(every[lo:lo + step, None], every)
    return comp


def aut_as_group(aut):
    """The abstract group on automorphism indices (needs the comp table)."""
    if comp_table(aut) is None:
        raise ValueError("automorphism group too large for a Cayley table")
    return FiniteGroup(comp_table(aut), check=False)


def coords_of(sa):
    """Every coordinate tuple of ``sa``, by name: the product of the
    family's coordinate factors, in the declared order."""
    factors, _ = _family_coords(sa.label, sa.params)
    for parts in itertools.product(*(vals for _, vals, _ in factors)):
        yield dict(zip(sa.coord_moduli, sum(parts, ())))


# a loop of order 5 (identity 0, every element its own inverse); the
# groups of order 5 are cyclic, so it is not associative
LOOP5 = np.array([
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
])


def direct_product_table(t1, t2):
    """The product table of two tables on pairs (x1, x2) = x1 * n2 + x2."""
    n2 = len(t2)
    x1, x2 = np.divmod(np.arange(len(t1) * n2), n2)
    return np.asarray(t1)[x1[:, None], x1[None, :]] * n2 + np.asarray(t2)[x2[:, None], x2[None, :]]


def first_associativity_failure(table):
    """Oracle, triple by triple in C order: the first (x, y, z) with
    (xy)z != x(yz); None if the table is associative."""
    t = np.asarray(table).tolist()
    n = len(t)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if t[t[x][y]][z] != t[x][t[y][z]]:
                    return (x, y, z)
    return None


# -- the homomorphism oracle: generator-image backtracking ------------------
#
# ``core._hom_images`` extends each tuple of generator images along a
# spanning tree (``core._extend``) and tests the map on the generators
# (``core._respects``), a chunk of tuples at a time, yielding each chunk's
# kept rows as one array.  The oracle takes another road: it assigns one
# generator image at a time and propagates every product of known
# elements, backtracking on the first clash.  Both give the tables in
# ``itertools.product`` order of the candidate tuples.


def extend_oracle(src: FiniteGroup, dst: FiniteGroup, imgs: np.ndarray) -> np.ndarray:
    """``core._extend`` on one block of generator images, filled the first
    way: the maps are the rows of a C-order array, and each spanning-tree
    level is one strided gather over its columns."""
    phi = np.empty((len(imgs), src.n), dtype=np.int32)
    phi[:, src.identity] = dst.identity
    for xs, par, gi in _spanning_levels(src):
        phi[:, xs] = dst.mul[phi[:, par], imgs[:, gi]]
    return phi


def hom_images_oracle(src: FiniteGroup, dst: FiniteGroup):
    """Yield image tables of bijective homomorphisms src -> dst."""
    if src.n != dst.n:
        return
    inv_s = _element_invariants(src)
    inv_d = _element_invariants(dst)
    if sorted(inv_s) != sorted(inv_d):
        return
    gens = src.generators
    cands = [[y for y in range(dst.n) if inv_d[y] == inv_s[g]] for g in gens]
    sm, dm = src.mul, dst.mul

    img = np.full(src.n, -1, dtype=np.int32)
    used = np.zeros(dst.n, dtype=bool)
    img[src.identity] = dst.identity
    used[dst.identity] = True
    known: list[int] = [src.identity]

    def try_assign(x0: int, y0: int) -> bool:
        stack = [(x0, y0)]
        while stack:
            x, y = stack.pop()
            cur = img[x]
            if cur >= 0:
                if cur != y:
                    return False
                continue
            if used[y]:
                return False
            img[x] = y
            used[y] = True
            stack.append((int(sm[x, x]), int(dm[y, y])))
            for z in known:
                w = img[z]
                stack.append((int(sm[x, z]), int(dm[y, w])))
                stack.append((int(sm[z, x]), int(dm[w, y])))
            known.append(x)
        return True

    def rec(i: int):
        if i == len(gens):
            assert len(known) == src.n, "generators failed to close the group"
            yield img.copy()
            return
        for y in cands[i]:
            mark = len(known)
            if try_assign(gens[i], y):
                yield from rec(i + 1)
            for x in known[mark:]:
                used[img[x]] = False
                img[x] = -1
            del known[mark:]

    yield from rec(0)


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> Morphism | None:
    """First isomorphism that ``_hom_images`` yields, else None."""
    for chunk in _hom_images(g, h):
        if len(chunk):
            return Morphism(g, h, chunk[0])
    return None


def class_sizes_oracle(group: FiniteGroup) -> np.ndarray:
    """``FiniteGroup.conjugacy_class_sizes`` class by class: the distinct
    y x y^-1 over every y, written to each member of the class of x."""
    size = np.zeros(group.n, dtype=np.int32)
    idx = np.arange(group.n)
    for x in range(group.n):
        if size[x]:
            continue
        cls = np.unique(group.mul[group.mul[:, x], group.inv[idx]])
        size[cls] = len(cls)
    return size


def center_oracle(group: FiniteGroup) -> list[int]:
    """``FiniteGroup.center`` element by element: row x equals column x."""
    return [x for x in range(group.n) if np.array_equal(group.mul[x], group.mul[:, x])]


def identify_p2q_oracle(group: FiniteGroup, p: int, q: int) -> GroupLabel:
    """``core.identify_p2q`` one group at a time, the decision tree as it
    stood before the stack kernel: abelian -> exponent; Sylow-p normal +
    cyclic -> the Z_{p^2} x| Z_q type; Sylow-p normal + elementary ->
    eigenvalues of the order-q action over F_p (irreducible -> GF, split ->
    Gk with canonical k); Sylow-p non-normal -> one of the three types with
    normal Sylow-q, told apart by exponent and centre size."""
    n = p * p * q
    assert group.n == n
    orders = group.element_orders
    if group.is_abelian():
        return GroupLabel("CyclicP2Q" if orders.max() == n else "PxPQ")
    has_p2 = bool((orders == p * p).any())
    p_elems = [x for x in range(n) if (p * p) % orders[x] == 0]
    if len(p_elems) != p * p:
        if not has_p2:
            return GroupLabel("PxQbyP")
        zsize = len(center_oracle(group))
        return GroupLabel("QbyP2_ordP" if zsize == p else "QbyP2_ordP2")
    if has_p2:
        return GroupLabel("P2SemidirectQ")
    e1 = next(x for x in p_elems if orders[x] == p)
    c1 = set(closure(group, [e1]))
    e2 = next(x for x in p_elems if x not in c1)
    coord: dict[int, tuple[int, int]] = {}
    xi = group.identity
    for i in range(p):
        xj = xi
        for j in range(p):
            coord[xj] = (i, j)
            xj = int(group.mul[xj, e2])
        xi = int(group.mul[xi, e1])
    eps = next(x for x in range(n) if orders[x] == q)
    # eps x eps^-1 for x = e1, e2
    a, c = coord[int(group.mul[group.mul[eps, e1], group.inv[eps]])]
    b, d = coord[int(group.mul[group.mul[eps, e2], group.inv[eps]])]
    tr, det = (a + d) % p, (a * d - b * c) % p
    roots = [x for x in range(1, p) if (x * x - tr * x + det) % p == 0]
    if not roots:
        return GroupLabel("GF")
    if len(roots) == 1:
        return GroupLabel("Gk", 1)
    lam, mu = roots
    if lam == 1 or mu == 1:
        return GroupLabel("Gk", 0)
    k = min(_dlog(lam, mu, p, q), _dlog(mu, lam, p, q))
    return GroupLabel("Gk", -1 if k == q - 1 else k)


def ideals_oracle(brace) -> list[tuple[int, ...]]:
    """``braces.ideals`` as it stood before the mask test: every subgroup
    of (B, +), in order of size, kept when each generator map sends its
    element set onto itself, compared as Python sets."""
    out = []
    perms = brace.lambda_perms
    add_gens = brace.add.generators
    mul_gens = brace.mul.generators
    divisors = [d for d in range(1, brace.n + 1) if brace.n % d == 0]
    for d in divisors:
        for cand in subgroups_of_order(brace.add, d):
            s = set(cand)
            arr = np.array(cand)
            add_t, add_i = brace.add.mul, brace.add.inv
            mul_t, mul_i = brace.mul.mul, brace.mul.inv
            if any(set(map(int, perms[g][arr])) != s for g in mul_gens):
                continue
            if any(set(map(int, add_t[add_t[g, arr], add_i[g]])) != s for g in add_gens):
                continue
            if any(set(map(int, mul_t[mul_t[g, arr], mul_i[g]])) != s for g in mul_gens):
                continue
            out.append(cand)
    return out


def generating_set_oracle(group, elements) -> list[int]:
    """``core.generating_set`` as it stood before it extended the subgroup
    reached: each pick closes the whole set from the identity again."""
    gens: list[int] = []
    have = {group.identity}
    for x in elements:
        if x in have:
            continue
        gens.append(int(x))
        have = set(closure(group, gens))
        if len(have) == len(elements):
            break
    return gens


def ideals_mismatch(p, q, keys=None):
    """The first (family key, class index, ideals, oracle ideals) at
    order p^2 q where ``braces.ideals`` differs from ``ideals_oracle``,
    over the families ``keys`` (all by default), or None."""
    for key in keys or label_keys(p, q):
        hol = hol_of(p, q, key)
        for i, cl in enumerate(classes_of(p, q, key)):
            brace = brace_from_regular(hol, cl.rep)
            got, want = braces.ideals(brace), ideals_oracle(brace)
            if got != want:
                return key, i, got, want
    return None


def generating_set_mismatch(p, q):
    """The first (what, picks, oracle picks) at order p^2 q where
    ``core.generating_set`` differs from ``generating_set_oracle``: on A and
    on Aut(A) in index order, on Aut(A) by descending element order, and
    on every circle group in index order; or None."""
    for key in label_keys(p, q):
        hol = hol_of(p, q, key)
        aut = hol.aut
        groups = [("A", hol.base, range(hol.base.n)), ("Aut(A)", aut, range(aut.k)),
                  ("Aut(A) by order", aut, by_descending_order(aut))]
        groups += [(f"circle group {i}", circle_group(hol, cl.rep), range(hol.base.n))
                   for i, cl in enumerate(classes_of(p, q, key))]
        for what, group, elements in groups:
            got = core.generating_set(group, elements)
            want = generating_set_oracle(group, elements)
            if got != want:
                return f"{key} {what}", got, want
    return None


# -- the 2-D fancy reads that core._gather replaced -------------------------


def ranked_product_oracle(aut, f, g):
    """``AutGroup._ranked_product`` with its two reads of ``aut.perms`` as
    2-D fancy indexing."""
    inner = aut.perms[np.asarray(g)[..., None], aut.key]
    return aut._rank(aut.perms[np.asarray(f)[..., None], inner])


def lambda_oracle(brace):
    """``SkewBrace.lambda_perms`` by a 2-D fancy read: -a + a o b."""
    return brace.add.mul[brace.add.inv[:, None], brace.mul.mul]


def circle_tables_oracle(hol, lams):
    """``enumeration._circle_tables`` by 2-D fancy reads."""
    base, aut = hol.base, hol.aut
    circ = base.mul[np.arange(base.n)[:, None], aut.perms[lams]]
    lhs = lams[np.arange(len(lams))[:, None, None], circ]
    return circ, (lhs == aut.product(lams[:, :, None], lams[:, None, :])).all(axis=(1, 2))


def tau_oracle(brace):
    """tau of ``ybe.solution_from_brace`` by a 2-D fancy read:
    tau[x, y] = lambda_x(y)' o x o y."""
    circ, cinv = brace.mul.mul, brace.mul.inv
    return circ[cinv[brace.lambda_perms], circ]


def rack_oracle(s, t):
    """``ybe._rack`` with the tau read as 2-D fancy indexing."""
    n = len(s)
    rows = np.arange(n)[:, None]
    s_inv = np.empty_like(s)
    s_inv[rows, s] = np.arange(n)
    return np.take(s, np.arange(n) * n + t[rows, s_inv])


def lifts_fancy_oracle(hol, k_gens, kernels):
    """``enumeration._lifts`` on the whole stack at once, with the
    conjugates and the power walk read from the Cayley table by 2-D fancy
    indexing."""
    base, aut = hol.base, hol.aut
    offset = np.arange(len(kernels.reps))[:, None] * base.n
    mask = kernels.mask.ravel()
    masks = []
    for alpha in k_gens:
        row = aut.perms[alpha]
        moved = row[kernels.gens][:, None, :]
        conj = base.mul[base.mul[kernels.reps[:, :, None], moved], kernels.reps_inv[:, :, None]]
        keep = mask[conj + offset[:, :, None]].all(axis=2)
        power = image = kernels.reps
        for _ in range(int(aut.element_orders[alpha]) - 1):
            keep &= ~mask[power + offset]
            image = row[image]
            power = base.mul[power, image]
        masks.append(keep & mask[power + offset])
    return masks


def gather_mismatch(p, q):
    """The first (family key, what) at order p^2 q where a read through
    ``core._gather`` differs from the 2-D fancy read it replaced, or None.

    Each kind of read in turn, on every family: the products of A and its
    right-multiplication columns; the products of Aut(A) (the table, where
    there is one, and the ranked path) and their columns, at the
    generators, the identity and up to 32 more automorphisms; for every
    orbit class the circle tables, lambda, tau and the rack; and the lifts
    of every stratum."""
    hols = {key: hol_of(p, q, key) for key in label_keys(p, q)}

    def base_reads(key, hol):
        base, el = hol.base, np.arange(hol.base.n)
        yield "product", base.product(el[:, None], el), base.mul[el[:, None], el]
        yield "right", [base.right(g) for g in el], base.mul.T.tolist()

    def aut_reads(key, hol):
        aut, every = hol.aut, np.arange(hol.aut.k)
        spread = np.linspace(0, aut.k - 1, 32).astype(int).tolist()
        sample = np.unique(aut.generators + [aut.identity] + spread)
        want = ranked_product_oracle(aut, every[:, None], sample)
        yield "aut product", aut.product(every[:, None], sample), want
        yield "ranked product", aut._ranked_product(every[:, None], sample), want
        yield "aut right", [aut.right(g) for g in sample], want.T.tolist()

    def class_reads(key, hol):
        lams = np.array([cl.rep.arr for cl in classes_of(p, q, key)])
        got, want = enumeration._circle_tables(hol, lams), circle_tables_oracle(hol, lams)
        yield "circle tables", got[0], want[0]
        yield "closed flags", got[1], want[1]
        for cl in classes_of(p, q, key):
            brace = brace_from_regular(hol, cl.rep)
            sol = ybe.solution_from_brace(brace)
            s, t = sol.sigma.astype(np.intp), sol.tau.astype(np.intp)
            yield "lambda", brace.lambda_perms, lambda_oracle(brace)
            yield "tau", sol.tau, tau_oracle(brace)
            yield "rack", ybe._rack(s, t), rack_oracle(s, t)

    def lift_reads(key, hol):
        for _, k_gens, kernels in enumeration._strata(hol):
            got = enumeration._lifts(hol, k_gens, kernels)
            yield "lifts", np.stack(got), np.stack(lifts_fancy_oracle(hol, k_gens, kernels))

    for reads in (base_reads, aut_reads, class_reads, lift_reads):
        for key, hol in hols.items():
            for what, got, want in reads(key, hol):
                if not np.array_equal(got, want):
                    return key, what
    return None


def circle_labels_mismatch(p, q):
    """Where ``core.identify_stack`` on one stack of every circle table at
    order p^2 q differs from ``identify_p2q_oracle`` table by table, as
    (family key, class index, label, oracle label), or None.  The family
    groups share the identity 0, and so do their circle groups."""
    reps = [(key, i, circle_group(hol_of(p, q, key), cl.rep))
            for key in label_keys(p, q)
            for i, cl in enumerate(classes_of(p, q, key))]
    assert {circ.identity for _, _, circ in reps} == {0}
    got = core.identify_stack(np.stack([circ.mul for _, _, circ in reps]), p, q, 0)
    for (key, i, circ), label in zip(reps, got):
        want = identify_p2q_oracle(circ, p, q)
        if label != want:
            return key, i, label, want
    return None


def regular_closure_oracle(hol, generators):
    """The lambda table of the subgroup that packed ``generators`` generate,
    by one scalar closure, or None unless that subgroup is regular: it has
    |A| elements with distinct first coordinates."""
    n = hol.base.n
    elems = closure_packed(hol, generators, limit=n)
    if elems is None or len(elems) != n:
        return None
    a, f = np.divmod(np.array(elems, dtype=np.int64), hol.n_aut)
    if len(np.unique(a)) != n:
        return None
    return f.astype(np.int32)  # sorted, so a = 0, 1, ..., n - 1


def old_value_closures(hol, b, g):
    """``enumeration._regular_closures`` with half of its clash rule: a row
    dies only when a write meets a cell filled in an earlier round with
    another value, and two writes of one round into an empty cell are not
    compared.  Returns (indices, lambda tables, met): ``met`` flags the rows
    in which two such writes of one round disagreed."""
    base, aut = hol.base, hol.aut
    rows, n = len(b), base.n
    lam = np.full((rows, n), -1, dtype=np.int32)
    lam[:, base.identity] = aut.identity
    flat = lam.reshape(-1)
    alive = np.ones(rows, dtype=bool)
    met = np.zeros(rows, dtype=bool)
    r, a = np.arange(rows), np.full(rows, base.identity)
    while r.size:
        f = lam[r, a]
        cell = r[:, None] * n + base.mul[a[:, None], aut.perms[f[:, None], b[r]]]
        val = aut.product(f[:, None], g[r])
        old = flat[cell]
        empty = old < 0
        alive[r[(~empty & (old != val)).any(axis=1)]] = False
        flat[cell[empty]] = val[empty]
        met[r[(empty & (flat[cell] != val)).any(axis=1)]] = True
        new = np.sort(cell[empty])
        r, a = np.divmod(new[np.diff(new, prepend=-1) != 0], n)
        live = alive[r]
        r, a = r[live], a[live]
    keep = np.flatnonzero(alive & (lam >= 0).all(axis=1))
    return keep, lam[keep], met


def identity_parts(hol, rows):
    """Rows of generators, each a list of pairs (b, g), as the one-row
    parts (start, b, g) of ``enumeration._regular_closures``, each started
    from {e} and left unpadded."""
    start = np.arange(hol.base.n) == hol.base.identity
    return [(start, np.array([[u for u, _ in row]], dtype=np.int64), [h for _, h in row])
            for row in rows]


def regular_closure_mismatch(hol, rows):
    """The first of ``rows`` (lists of pairs (b, g)) that
    ``enumeration._regular_closures``, all of them in one call from {e},
    keeps or drops unlike ``regular_closure_oracle``, or keeps with another
    table; or None."""
    keep, got = enumeration._regular_closures(hol, identity_parts(hol, rows))
    tables = dict(zip(keep.tolist(), got))
    for r, row in enumerate(rows):
        want = regular_closure_oracle(hol, [hol.pack(u, h) for u, h in row])
        lam = tables.get(r)
        if (lam is None) != (want is None) or (lam is not None and not np.array_equal(lam, want)):
            return row
    return None


def lifts_oracle(hol, k_gens, kernel, drop_lower_powers=True):
    """``enumeration._lifts`` element by element: the right coset
    representatives found by a scan in index order, and for each of them
    the normaliser test, the ord(alpha)-th power and, unless
    ``drop_lower_powers`` is off, the lower powers (Lemma 2 of ``_lifts``),
    the powers (u, alpha)^d for d = 1 ... ord(alpha) taken by scalar
    products."""
    base, aut = hol.base, hol.aut
    n = base.n
    n_arr = np.array(kernel, dtype=np.int64)
    n_mask = np.zeros(n, dtype=bool)
    n_mask[n_arr] = True
    n_gens = generating_set(base, kernel)
    reps = []
    seen = np.zeros(n, dtype=bool)
    for u in range(n):
        if not seen[u]:
            reps.append(u)
            seen[base.mul[n_arr, u]] = True
    per_gen = []
    for alpha in k_gens:
        o = int(aut.element_orders[alpha])
        good = []
        for u in reps:
            # (u, alpha) must normalise kernel x 1 ...
            if any(
                not n_mask[base.mul[base.mul[u, aut.perms[alpha, m]], base.inv[u]]]
                for m in n_gens
            ):
                continue
            # ... and its ord(alpha)-th power must fall into kernel x 1 ...
            powers = list(itertools.accumulate(itertools.repeat(hol.pack(u, alpha), o), hol.compose))
            wa, wf = unpack(hol, powers[-1])
            if wf != aut.identity or not n_mask[wa]:
                continue
            # ... and no lower power may
            if drop_lower_powers and any(n_mask[unpack(hol, w)[0]] for w in powers[:-1]):
                continue
            good.append(u)
        per_gen.append(np.array(good, dtype=np.int64))
    return n_gens, per_gen


def kernel_strata(hol):
    """The strata of ``enumeration._strata`` one kernel at a time, with one
    ``enumeration._lifts`` call per stack of kernels: (K, generators of K,
    the kernel's elements, its generators without the padding e, and the
    lifts of each generator of K)."""
    e = hol.base.identity
    for k_rep, k_gens, kernels in enumeration._strata(hol):
        masks = enumeration._lifts(hol, k_gens, kernels)
        for i, (mask, gens, reps) in enumerate(zip(kernels.mask, kernels.gens, kernels.reps)):
            elements = tuple(np.flatnonzero(mask).tolist())
            yield k_rep, k_gens, elements, gens[gens != e].tolist(), [reps[m[i]] for m in masks]


def k_generators_oracle(aut, k_rep) -> list[int]:
    """The generators of K by the closure search that
    ``enumeration._k_generators`` replaced: the first element x of largest
    order, alone when it generates K, else with the first element, in
    descending element order, whose ``closure`` with x is K, else the
    greedy ``generating_set`` over that order."""
    by_order = sorted(k_rep, key=lambda f: -aut.element_orders[f])
    x = by_order[0]
    if aut.element_orders[x] == len(k_rep):
        return [x]
    for y in by_order[1:]:
        if len(closure(aut, [x, y])) == len(k_rep):
            return [x, y]
    return generating_set(aut, by_order)


def k_generators_mismatch(hol):
    """The first (K, its generators) of ``enumeration._strata`` whose
    generators differ from those of ``k_generators_oracle``, or None."""
    for k_rep, k_gens, _ in enumeration._strata(hol):
        if k_gens != k_generators_oracle(hol.aut, k_rep):
            return k_rep, k_gens
    return None


def kernel_rows(hol, k_gens, lifts, kernel_gens):
    """The rows of a stratum with its kernel written out as generators:
    every combination of ``lifts`` beside the kernel generators, with
    g = id, as arrays b and g, a few thousand rows at a time.  From {e}
    they close to the subgroups that the lifts alone close to from N x 1."""
    g = np.array(list(k_gens) + [hol.aut.identity] * len(kernel_gens))
    for b in core._product_rows(list(lifts) + [[m] for m in kernel_gens], 2**12):
        yield b, g


def stream_start_mismatch(hol):
    """Where the family's stream, each chunk of ``enumeration._stream``
    closed from its kernels' N x 1, and the same lifts beside N's kept
    generators closed from {e} (``kernel_rows``) first differ, as the pair
    of their first differing (row index, table bytes): a row kept by one
    and not the other, or kept with two tables; or None."""
    n = hol.base.n
    got, lo = [], 0
    for _, parts in enumeration._stream(hol, max(1, core.CHUNK_CELLS // n)):
        keep, lams = enumeration._regular_closures(hol, parts)
        got += zip((keep + lo).tolist(), map(bytes, lams))
        lo += sum(len(b) for _, b, _ in parts)
    start = np.arange(n) == hol.base.identity
    want, lo = [], 0
    for _, k_gens, _, gens, lifts in kernel_strata(hol):
        for b, g in kernel_rows(hol, k_gens, lifts, gens):
            keep, lams = enumeration._regular_closures(hol, [(start, b, g)])
            want += zip((keep + lo).tolist(), map(bytes, lams))
            lo += len(b)
    return next((x, y) for x, y in itertools.zip_longest(got, want) if x != y) if got != want else None


def pi2_corruption(real, fault, planted):
    """``enumeration._regular_closures`` as ``real`` computes it, with the
    first kept table with |K| >= 2 corrupted: every entry of its largest
    value v other than the identity moved off K ("outside": still |K|
    distinct values) or onto the identity ("missing": every value in K,
    one fewer distinct).  Each planted v is appended to ``planted``."""
    def corrupt(hol, parts):
        keep, lams = real(hol, parts)
        for lam in lams if not planted else ():
            values = set(lam.tolist())
            if len(values) >= 2:
                v = max(values - {hol.aut.identity})
                lam[lam == v] = (min(set(range(hol.aut.k)) - values) if fault == "outside"
                                 else hol.aut.identity)
                planted.append(v)
                break
        return keep, lams
    return corrupt


def lifts_mismatch(p, q):
    """The first (family key, K, kernel) at order p^2 q whose lifts
    (``kernel_strata``) differ from those of ``lifts_oracle``, or None."""
    for key in label_keys(p, q):
        hol = hol_of(p, q, key)
        for k_rep, k_gens, elements, _, lifts in kernel_strata(hol):
            want = lifts_oracle(hol, k_gens, elements)[1]
            if len(lifts) != len(want) or not all(map(np.array_equal, lifts, want)):
                return key, k_rep, elements
    return None


def stream_rows(hol):
    """The rows of the family's lift stream: over the strata, the product
    of the lift counts of K's generators."""
    return sum(prod(map(len, lifts)) for *_, lifts in kernel_strata(hol))


def classes_digest(classes):
    """SHA-256 of the (rep, orbit size, label) of each orbit class."""
    rows = [[list(c.rep.lam), c.orbit_size, c.mul_label.key()] for c in classes]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def lift_search_oracle(hol, k_elems, k_gens, kernel):
    """The regular subgroups of one stratum of ``enumeration._stratified_reps``
    by one scalar closure per combination of the lifts of ``lifts_oracle``,
    taken in ``itertools.product`` order."""
    n_gens, per_gen = lifts_oracle(hol, k_gens, kernel)
    kernel_packed = [hol.pack(m, hol.aut.identity) for m in n_gens]
    found = []
    for combo in itertools.product(*per_gen):
        gens = kernel_packed + [hol.pack(u, alpha) for u, alpha in zip(combo, k_gens)]
        lam = regular_closure_oracle(hol, gens)
        if lam is not None:
            assert np.array_equal(np.unique(lam), k_elems)
            found.append(lam)
    return found


# -- the enumeration oracle: canonical-chain DFS and the full subgroup list ---
#
# ``enumerate_dfs`` grows generator chains g_1 < g_2 < ... where each new
# generator is the smallest element of the extended subgroup not already
# present.  Every subgroup has exactly one such chain (greedy minimality), so
# no deduplication is needed; a hash-set assertion keeps this honest.  It
# shares no code with the strata and lift closures of ``enumeration``, and
# ``orbit_partition`` walks the orbits of a complete list, so together they
# check ``stratified_orbit_classes`` class for class.


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


def candidate_pool(hol: Holomorph) -> tuple[np.ndarray, np.ndarray]:
    """Packed elements that can live in a regular subgroup, sorted
    ascending, and a table of their powers.

    (a, f) qualifies iff it is not the identity, its order divides |A|, and
    the cycle of the identity of A under its action is as long as its order
    (so the cyclic group it generates has injective pi1).  One walk of
    powers x, x^2, ... over every (a, f) with ord(f) dividing |A| stops each
    x when pi1(x^j) returns to the identity of A, at the cycle length j; x
    qualifies iff x^j is the identity there and j divides |A|.  Row i of the
    table holds x^1, ..., x^ord(x) of pool member i, padded with the
    identity.
    """
    n, n_aut, e = hol.base.n, hol.n_aut, hol.identity
    fs = np.nonzero(n % hol.aut.element_orders == 0)[0]
    x = (np.arange(n)[:, None] * n_aut + fs[None, :]).ravel()  # ascending
    x = x[x != e]
    qualifies = np.zeros(len(x), dtype=bool)
    length = np.zeros(len(x), dtype=np.int64)
    steps = []  # (indices into x, their j-th powers) for j = 1, 2, ...
    live, cur = np.arange(len(x)), x
    j = 1
    while live.size:
        steps.append((live, cur))
        back = cur // n_aut == hol.base.identity
        length[live[back]] = j
        qualifies[live[back]] = (cur[back] == e) & (n % j == 0)
        live, cur = live[~back], cur[~back]
        cur = hol_product(hol, cur, x[live])
        j += 1
    members = np.nonzero(qualifies)[0]
    row = np.full(len(x), -1)
    row[members] = np.arange(len(members))
    powers = np.full((len(members), int(length[members].max(initial=0))), e, dtype=np.int64)
    for j, (live, cur) in enumerate(steps):
        keep = row[live] >= 0
        powers[row[live[keep]], j] = cur[keep]
    return x[members], powers


def enumerate_dfs(hol: Holomorph) -> list[HolSubgroup]:
    """All regular subgroups of Hol(A), by canonical-chain DFS."""
    if comp_table(hol.aut) is None:
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
            v = hol.compose(u, y)
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
                v = hol.compose(u, g)
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
                hol_product(hol, s_sorted[:, None], cand[None, :]),
                hol_product(hol, cand[None, :], s_sorted[:, None]),
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


def orbit_oracle(start: np.ndarray, gens, act) -> list[np.ndarray]:
    """The orbit of the array ``start`` under <gens>, h sending x to
    ``act(x, h)``: its members breadth first, told apart by their bytes."""
    seen = {start.tobytes()}
    members = [start]
    for x in members:
        for h in gens:
            y = act(x, h)
            key = y.tobytes()
            if key not in seen:
                seen.add(key)
                members.append(y)
    return members


def conjugation_oracle(hol, lam, h):
    """The lambda table of (1,h) G (1,h)^-1, G having the table ``lam``, by
    its definition: (a, lam[a]) goes to (h(a), h lam[a] h^-1), composed by
    ``aut.product`` rather than read off ``aut.conj_row``."""
    aut = hol.aut
    out = np.empty_like(lam)
    out[aut.perms[h]] = aut.product(aut.product(h, lam), aut.inv[h])
    return out


def walk_mismatch(starts, gens, act, oracle_act):
    """The first of ``starts`` whose orbit by ``holomorph.orbit`` under
    ``act`` differs from that of ``orbit_oracle`` under ``oracle_act`` in
    its member set, its size or its lex-least member, or None."""
    for start in starts:
        got = holomorph.orbit(start, gens, act)
        want = orbit_oracle(start, gens, oracle_act)
        if (len(got) != len(want) or set(map(bytes, got)) != {w.tobytes() for w in want}
                or min(got.tolist()) != min(w.tolist() for w in want)):
            return start
    return None


def table_orbit_mismatch(p, q):
    """The first (family key, table) of ``_stratified_reps`` at order
    p^2 q whose conjugation orbit (``Holomorph.conjugate_subgroup``) differs
    from the oracle's (``conjugation_oracle``), or None."""
    for key in label_keys(p, q):
        hol = hol_of(p, q, key)
        tables = [lam for _, lam in _stratified_reps(hol)]
        bad = walk_mismatch(tables, hol.aut.generators, hol.conjugate_subgroup,
                            functools.partial(conjugation_oracle, hol))
        if bad is not None:
            return key, bad
    return None


def subgroup_orbit_mismatch(p, q):
    """The first (family key, subgroup) at order p^2 q whose walk in
    ``aut_subgroup_classes``, from each class representative of each order
    d > 1 that divides |A| and |Aut(A)|, differs from the oracle's (each
    conjugate composed by ``aut.product``), or None."""
    n = p * p * q
    for key in label_keys(p, q):
        aut = hol_of(p, q, key).aut
        for d in range(2, n + 1):
            if n % d or aut.k % d:
                continue
            starts = [np.array(s, dtype=np.int32) for s in aut_subgroup_classes(aut, d)]
            bad = walk_mismatch(
                starts, aut.generators,
                lambda t, h: np.sort(aut.conj_row(h)[t], axis=-1),
                lambda t, h: np.sort(aut.product(aut.product(h, t), aut.inv[h])))
            if bad is not None:
                return key, bad
    return None


def enumerate_stratified(hol: Holomorph) -> list[HolSubgroup]:
    """All regular subgroups, via strata expanded by Aut(A)-conjugation."""
    all_sets: set[tuple[int, ...]] = set()
    for _, lam in _stratified_reps(hol):
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
        label = identify_p2q_oracle(circle_group(hol, rep), p, q)
        classes.append(OrbitClass(rep=rep, orbit_size=size, mul_label=label))
    return sorted(classes, key=lambda cl: cl.rep)


# -- the subgroup oracle: closures of pairs of smaller subgroups -------------
#
# ``core.subgroups_of_order`` builds each subgroup from a normal subgroup of
# prime index and one coset representative.  The oracle takes another road:
# one branch per factorisation shape of m, each closing pairs of smaller
# subgroups, with no cache.


def subgroups_of_order_oracle(group, m: int) -> list[tuple[int, ...]]:
    """All subgroups of order ``m``, each a sorted tuple of element indices.

    Supports the orders that occur inside groups of order p^2*q
    (1, r, r^2, r*s, r^2*s and the full order); enough for kernel scans,
    ideal lattices and the subgroups of Aut(A) that can be images pi2.
    Only elements of order dividing ``m`` seed the closures.
    """
    orders = np.asarray(group.element_orders)
    n = len(orders)
    if m <= 0 or n % m:
        return []
    if m == 1:
        return [(group.identity,)]
    if m == n:
        return [tuple(range(n))]
    fac = _factor(m)
    subs: set[tuple[int, ...]] = set()

    def some_generator(sub):
        return sub[0] if sub[0] != group.identity else sub[1]

    def join(gens):
        c = closure(group, gens, limit=m)
        if c is not None and len(c) == m:
            subs.add(tuple(c))

    if len(fac) == 1 and fac[0][1] == 1:
        for x in np.nonzero(orders == m)[0]:
            subs.add(tuple(closure(group, [x])))
    elif len(fac) == 1 and fac[0][1] == 2:
        r = fac[0][0]
        for x in np.nonzero(orders == m)[0]:
            subs.add(tuple(closure(group, [x])))
        small = subgroups_of_order_oracle(group, r)
        for s1, s2 in itertools.combinations(small, 2):
            join([some_generator(s1), some_generator(s2)])
    elif len(fac) == 2 and fac[0][1] == 1 and fac[1][1] == 1:
        r, s = fac[0][0], fac[1][0]
        small_s = subgroups_of_order_oracle(group, s)
        for s1 in subgroups_of_order_oracle(group, r):
            for s2 in small_s:
                join([some_generator(s1), some_generator(s2)])
    elif len(fac) == 2 and sorted(e for _, e in fac) == [1, 2]:
        r = next(d for d, e in fac if e == 2)
        s = next(d for d, e in fac if e == 1)
        small_s = subgroups_of_order_oracle(group, s)
        for s1 in subgroups_of_order_oracle(group, r * r):
            g1 = generating_set(group, s1)
            for s2 in small_s:
                join(g1 + [some_generator(s2)])
    else:
        raise ValueError(f"unsupported subgroup order {m}")
    return sorted(subs)


def list_every_order(group, n):
    """``core.subgroups_of_order`` at every order dividing n and the group
    order, as the module holds it at call time."""
    size = len(group.element_orders)
    for m in range(1, n + 1):
        if n % m == 0 and size % m == 0:
            core.subgroups_of_order(group, m)


def kept_generators_failure(group):
    """The first (order, subgroup, generators) among the lists kept on
    ``group`` by ``core.subgroups_of_order`` whose generators do not
    generate exactly that subgroup, or number more than Omega(order), the
    prime factors of the order counted with multiplicity; None if every
    subgroup passes."""
    for m, subs in sorted(group.subgroups.items()):
        omega = sum(e for _, e in _factor(m))
        for sub, gens in subs.items():
            if len(gens) > omega or closure(group, gens) != list(sub):
                return m, sub, gens
    return None


def gf_level_subgroup(ctx: FamilyContext, x: int, y: int) -> tuple[int, ...]:
    """The plane subgroup attached to a vector v = (x, y): generated by the
    two translation-automorphism pairs whose invariant is psi(x, y)."""
    p, xi = ctx.params.p, ctx.params.xi
    if xi is None:
        raise RecipeError("plane subgroups need the irreducible-action family")
    vt = ((-y - 1) % p, (x - xi * y - 1) % p)
    a1 = ctx.aut_of({"w": "0", "n": "1", "m": "0", "x": "1", "y": "0"}, {})
    a2 = ctx.aut_of({"w": "0", "n": "0", "m": "1", "x": "1", "y": "0"}, {})
    g1 = ctx.hol.pack(ctx.element_of_word((("s", str(vt[0])), ("t", str(vt[1]))), {}), a1)
    g2 = ctx.hol.pack(ctx.element_of_word((("s", str(x)), ("t", str(y))), {}), a2)
    elems = closure_packed(ctx.hol, [g1, g2], limit=p * p)
    if elems is None or len(elems) != p * p:
        raise RecipeError(f"plane subgroup at ({x}, {y}) does not have order p²")
    return elems


def check_ybe_oracle(sol) -> tuple[bool, str]:
    """The braid relation by four gathers through two n^3 index arrays:
    R12 = r x id and R23 = id x r as maps of the triples in C order, and
    R12 R23 R12 = R23 R12 R23."""
    n = sol.n
    r = sol.r_flat
    pts = np.arange(n)
    r12 = (r[:, None] * n + pts).ravel()
    r23 = (pts[:, None] * (n * n) + r).ravel()
    bad = r12[r23[r12]] != r23[r12[r23]]
    if not bad.any():
        return True, "braid relation holds on all triples"
    w = tuple(int(v) for v in np.unravel_index(int(np.argmax(bad)), (n, n, n)))
    return False, f"braid relation fails at (x, y, z) = {w}"


def braids_by_lemma_oracle(sol) -> bool:
    """Conditions (a), (b) and (c) of ``ybe.check_ybe``'s lemma, the
    reference for ``ybe._braids_by_lemma``: all three on the stacked sigma
    rows and psi columns, (b) on all n^2 pairs (y, z), each set of label
    quadruple codes deduplicated by ``np.unique``."""
    n = sol.n
    s = sol.sigma.astype(np.intp)
    t = sol.tau.astype(np.intp)
    rows = np.arange(n)[:, None]
    s_inv = np.empty_like(s)
    s_inv[rows, s] = np.arange(n)
    # rack[x, y] = x <| y = sigma_y(tau_{sigma_x^-1(y)}(x))
    rack = np.take(s, np.arange(n) * n + t[rows, s_inv])
    sig_rows, sig = ybe._row_labels(s)
    psi_rows, psi = ybe._row_labels(rack.T)
    psi += len(sig_rows)
    maps = np.vstack((sig_rows, psi_rows))
    sig_ids = np.arange(len(sig_rows))[:, None]
    return (
        compositions_agree_oracle(maps, sig[:, None], sig[None, :], sig[s], sig[t])
        and compositions_agree_oracle(maps, psi[None, :], psi[:, None], psi[rack], psi[None, :])
        and compositions_agree_oracle(maps, sig_ids, psi[None, :], psi[sig_rows], sig_ids)
    )


def compositions_agree_oracle(maps: np.ndarray, i, j, a, b) -> bool:
    """Whether maps[i] o maps[j] == maps[a] o maps[b] at every position of
    the broadcast label arrays, composing each distinct quadruple once."""
    m, n = maps.shape
    codes = ((i * m + j) * m + a) * m + b
    quads = np.unique(codes)
    flat = maps.ravel()
    step = max(1, max(core.CHUNK_CELLS, n * n) // max(n, 1))
    for k in range(0, len(quads), step):
        quad = quads[k:k + step]
        quad, b_ = np.divmod(quad, m)
        quad, a_ = np.divmod(quad, m)
        i_, j_ = np.divmod(quad, m)
        left = np.take(flat, (i_ * n)[:, None] + maps[j_])
        right = np.take(flat, (a_ * n)[:, None] + maps[b_])
        if (left != right).any():
            return False
    return True


def lemma_mismatch(sols):
    """The first solution with bijective sigma rows on which
    ``ybe._braids_by_lemma`` and ``braids_by_lemma_oracle`` disagree, or
    None; the lemma presupposes bijective rows, so others are passed over."""
    for sol in sols:
        if sol.sigma_bijective and ybe._braids_by_lemma(sol) != braids_by_lemma_oracle(sol):
            return sol
    return None


def rep_solutions(p, q, keys=None):
    """The solution of every orbit representative of the families ``keys``
    at (p, q), all families by default."""
    for key in keys or label_keys(p, q):
        hol = hol_of(p, q, key)
        for cl in classes_of(p, q, key):
            yield ybe.solution_from_brace(brace_from_regular(hol, cl.rep))


def compositions_width_mismatch(m: int, n: int = 7):
    """``ybe._compositions_agree`` against direct composition on m rotations
    x -> x + l mod n, or None when they agree.

    2000 random quadruples with i < m - 1 that agree, each twice, close with
    (m-1, m-1, m-1, m-1), the largest code m^4 - 1, so the set holds; the
    same set closed with (m-1, m-1, m-1, m-2) instead, the last distinct
    quadruple, fails there alone.  Returns the case that disagrees."""
    rng = np.random.default_rng(m)
    maps = (np.arange(n)[None, :] + np.arange(m)[:, None]) % n
    i, j, a = rng.integers(0, m - 1, (3, 2000))
    b0 = (i + j - a) % n
    b = b0 + n * rng.integers(0, (m - 1 - b0) // n + 1)
    quads = np.tile(np.stack((i, j, a, b)), 2)
    for last, want in (((m - 1,) * 4, True), ((m - 1, m - 1, m - 1, m - 2), False)):
        i_, j_, a_, b_ = np.column_stack((quads, last))
        direct = bool((maps[i_[:, None], maps[j_]] == maps[a_[:, None], maps[b_]]).all())
        assert direct is want
        if ybe._compositions_agree(maps, i_, j_, a_, b_) is not want:
            return last
    return None


def export_oracle(sol) -> str:
    """The export written cell by cell with f-strings."""
    rows = zip(sol.sigma.tolist(), sol.tau.tolist())
    return "\n".join(" ".join(f"{a},{b}" for a, b in zip(s, t)) for s, t in rows) + "\n"


def bi_skew_oracle(brace) -> bool:
    """The bi-skew law a + (b o c) = (a + b) o a' o (a + c) as the mu test:
    after a' o on the left it says that every mu_a(b) = a' o (a + b) is an
    endomorphism of (B, o), tested at the o-generators (``_respects``)."""
    mu = brace.mul.mul[brace.mul.inv[:, None], brace.add.mul]
    return len(_respects(brace.mul, brace.mul, mu, brace.mul.generators)) == brace.n


def bi_skew_mismatch(p, q):
    """The first (family key, class index) at order p^2 q where
    ``braces.is_bi_skew`` differs from ``bi_skew_oracle``, or None."""
    for key in label_keys(p, q):
        hol = hol_of(p, q, key)
        for i, cl in enumerate(classes_of(p, q, key)):
            brace = brace_from_regular(hol, cl.rep)
            if braces.is_bi_skew(brace) is not bi_skew_oracle(brace):
                return key, i
    return None


def opposite_tables(hol, lams):
    """The lambda tables of the opposite braces (Koch-Truman, J. Algebra
    546, 2020) of the (R, n) stack ``lams``, a +op b = b + a, moved onto A
    by x -> -x: lam*[a] = iota(-a) o lam[-a], with iota(x) the inner
    automorphism y -> x + y - x, ranked by its key images.

    The opposite has lam^op[a](b) = (a o b) - a = iota(a)(lam[a](b)), and
    x -> -x is an isomorphism from (A, +op) to (A, +) that commutes with
    every automorphism of A.  So taking the opposite twice gives lam back:
    iota(a) o iota(-a) is the identity."""
    base, aut = hol.base, hol.aut
    x = np.arange(base.n)[:, None]
    iota = aut._rank(base.mul[base.mul[x, aut.key], base.inv[x]])
    return aut.product(iota[base.inv], lams[:, base.inv])


def opposite_map(hol, classes):
    """For each orbit class of ``classes``, the index of the class of the
    opposite brace of its representative (``opposite_tables``), or the
    first fault as a string: an opposite table that is not closed
    (``circle_tables_oracle``), or one whose orbit's lex-least member is no
    representative of ``classes`` with the same circle type and orbit
    size, or a class map that is not an involution."""
    lams = np.array([cl.rep.lam for cl in classes], dtype=np.int32)
    opp = opposite_tables(hol, lams)
    _, closed = circle_tables_oracle(hol, opp)
    if not closed.all():
        return f"{int((~closed).sum())} of {len(closed)} opposite tables are not closed"
    index = {cl.rep.lam: i for i, cl in enumerate(classes)}
    out = []
    for i, lam in enumerate(opp):
        best, size, _ = _orbit_of(hol, lam)
        j = index.get(best)
        if j is None or (classes[j].orbit_size, classes[j].mul_label) != (size, classes[i].mul_label):
            return f"the opposite of class {i} is no class of the same circle type and orbit size"
        out.append(j)
    if any(out[j] != i for i, j in enumerate(out)):
        return "the opposite is not an involution on the classes"
    return out


def opposite_mismatch(p, q):
    """The first (family key, fault) at order p^2 q where ``opposite_map``
    names a fault, or maps a class of an abelian A to another class (x -> -x
    is then an automorphism, so each brace is its own opposite up to
    conjugation); else None and, per family key, the number of classes
    that are their own opposite and the number of classes."""
    fixed = {}
    for key in label_keys(p, q):
        hol = hol_of(p, q, key)
        out = opposite_map(hol, classes_of(p, q, key))
        if isinstance(out, str):
            return (key, out), fixed
        fixed[key] = (sum(i == j for i, j in enumerate(out)), len(out))
        if hol.base.is_abelian() and fixed[key][0] != len(out):
            return (key, "a class of an abelian A is not its own opposite"), fixed
    return None, fixed


def bi_skew_swap_mismatch(p, q):
    """The first (additive key, circle key) at order p^2 q whose bi-skew
    classes (``bi_skew_oracle``) are not as many as those with the two
    keys swapped, or None; and the number of bi-skew classes whose two
    keys differ.  (B, o, +) is a skew brace iff (B, +, o) is
    bi-skew (the lemma in ``braces._anti_hom``), and then it is bi-skew
    too, so swapping the roles is a bijection between those classes."""
    count = collections.Counter()
    for key, hol, cl in all_reps(p, q):
        if bi_skew_oracle(brace_from_regular(hol, cl.rep)):
            count[key, cl.mul_label.key()] += 1
    crossed = sum(c for (a, g), c in count.items() if a != g)
    return next(((a, g) for a, g in count if count[a, g] != count[g, a]), None), crossed


def cache_text_oracle(p, q, key, choice, hol, classes) -> str:
    """The cache file as ``json.dumps`` of the whole payload, each flag from
    the mu test on the brace of its class."""
    orbits = [
        {
            "rep": [[a, f] for a, f in enumerate(cl.rep.lam)],
            "pi2_size": int(cl.pi2_size),
            "mul_label": cl.mul_label.key(),
            "biskew": bi_skew_oracle(brace_from_regular(hol, cl.rep)),
        }
        for cl in classes
    ]
    payload = {
        "version": CACHE_VERSION,
        "p": p,
        "q": q,
        "additive": key,
        "choice": choice,
        "params": derive_params(p, q, choice).as_dict(),
        "orbits": orbits,
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def witness_oracle(witness: Witness, ctx: FamilyContext) -> HolSubgroup | None:
    """The witness closed as packed holomorph elements (``closure_packed``)
    and read back by ``HolSubgroup.from_packed``; None unless the closure
    is a regular subgroup."""
    env = {**ctx.env, **dict(witness.binding)}
    gens = [
        ctx.hol.pack(ctx.element_of_word(w, env), ctx.aut_of(None if c is None else dict(c), env))
        for w, c in witness.generators
    ]
    elems = closure_packed(ctx.hol, gens, limit=ctx.group.n)
    if elems is None or len(elems) != ctx.group.n:
        return None
    try:
        return HolSubgroup.from_packed(ctx.hol, elems)
    except ValueError:
        return None


# 2x2 matrices over F_p are row pairs ((a, b), (c, d)), acting on column
# vectors (x, y): the plane arithmetic of ``families`` and ``catalog`` done
# with matrices instead of in the field F_p[F].


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


def valid_xis_oracle(p: int, q: int) -> list[int]:
    """``families._valid_xis`` with F^q = I tested on the companion matrix."""
    out = []
    for xi in range(1, p):
        if any((x * x + xi * x + 1) % p == 0 for x in range(p)):
            continue  # reducible
        if _mat_pow(((0, (-1) % p), (1, (-xi) % p)), q, p) == ((1, 0), (0, 1)):
            out.append(xi)
    return out


def gf_vector_oracle(name: str, env: dict, params) -> tuple[int, int]:
    """The recipes ``ws``, ``wt``, ``uc`` and ``Fuc`` of
    ``catalog.gf_vector`` by 2x2 matrix arithmetic."""
    p, xi = params.p, params.xi
    F = params.companion()

    def char_poly(M):  # M^2 + xi M + 1
        return _mat_add(_mat_mul(_mat_add(M, _mat_scalar(xi, p), p), M, p), _mat_scalar(1, p), p)

    def minus_I(M):
        return _mat_add(M, _mat_scalar(-1, p), p)

    def inv(M):
        try:
            return _mat_inv(M, p)
        except ValueError:
            raise RecipeError("singular matrix in a vector recipe") from None

    if name in ("ws", "wt"):
        basis = (1, 0) if name == "ws" else (0, 1)
        return _mat_apply(inv(minus_I(F)), basis, p)
    if name in ("uc", "Fuc"):
        c = int(env["c"])
        M = inv(char_poly(_mat_pow(F, c + 1, p)))
        M = _mat_mul(M, inv(minus_I(F)), p)
        M = _mat_mul(M, minus_I(_mat_pow(F, c, p)), p)
        M = _mat_mul(M, minus_I(_mat_pow(F, c + 2, p)), p)
        u = _mat_apply(M, (1, 0), p)
        return _mat_apply(F, u, p) if name == "Fuc" else u
    raise RecipeError(f"unknown vector recipe {name!r}")


def gf_vector_mismatch(p, q):
    """The first (choice, recipe, c, outcome, oracle outcome) at the prime
    pair (p, q), q | p + 1, where ``catalog.gf_vector`` differs from
    ``gf_vector_oracle`` for c < 3q, a RecipeError counting as its text;
    or None."""
    def outcome(fn, name, env, params):
        try:
            return fn(name, env, params)
        except RecipeError as exc:
            return str(exc)

    for choice in ("first", "second"):
        params = derive_params(p, q, choice)
        for name in ("ws", "wt", "uc", "Fuc"):
            for c in range(3 * q):
                got = outcome(catalog.gf_vector, name, {"c": c}, params)
                want = outcome(gf_vector_oracle, name, {"c": c}, params)
                if got != want:
                    return choice, name, c, got, want
    return None

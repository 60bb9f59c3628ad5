"""Shared cached builders so expensive objects are computed once per run."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from p2qbrace.catalog import FamilyContext, RecipeError
from p2qbrace.core import FiniteGroup, GroupLabel, _hom_images, compute_automorphisms
from p2qbrace.enumeration import _lifts, stratified_orbit_classes
from p2qbrace.families import all_labels, build_group, derive_params, structured_aut
from p2qbrace.holomorph import Holomorph, closure_packed
from p2qbrace.report import classify

# the orders every fast test may lean on; (2,13) is reserved for acceptance
SMALL_PAIRS = ((2, 5), (2, 7), (3, 7), (5, 3))


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
def report_of(p, q, strategy="stratified", choice="first", budget="normal"):
    rep = classify(p, q, strategy=strategy, choice=choice, budget=budget)
    rep.check_consistency()
    return rep


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


def aut_as_group(aut):
    """The abstract group on automorphism indices (needs the comp table)."""
    if not aut.ensure_comp():
        raise ValueError("automorphism group too large for a Cayley table")
    return FiniteGroup(aut.comp, check=False, name=f"Aut({aut.base.name})")


def coords_of(sa, i):
    """The structured coordinates of automorphism ``i``, by name."""
    return dict(zip(sa.coord_names, sa.coords[i]))


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


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> Morphism | None:
    """First isomorphism found by generator-image backtracking, else None."""
    for m in _hom_images(g, h):
        return Morphism(g, h, m)
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


def lift_search_oracle(hol, k_elems, k_gens, kernel):
    """``enumeration._lift_search`` by one scalar closure per combination of
    admissible lifts, taken in ``itertools.product`` order."""
    n_gens, per_gen = _lifts(hol, k_gens, kernel)
    kernel_packed = [hol.pack(m, hol.aut.identity) for m in n_gens]
    found = []
    for combo in itertools.product(*per_gen):
        gens = kernel_packed + [hol.pack(u, alpha) for u, alpha in zip(combo, k_gens)]
        lam = regular_closure_oracle(hol, gens)
        if lam is not None:
            assert np.array_equal(np.unique(lam), k_elems)
            found.append(lam)
    return found


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

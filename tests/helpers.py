"""Shared cached builders so expensive objects are computed once per run."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from p2qbrace.core import FiniteGroup, GroupLabel, _hom_images, compute_automorphisms
from p2qbrace.enumeration import stratified_orbit_classes
from p2qbrace.families import all_labels, build_group, derive_params, structured_aut
from p2qbrace.holomorph import Holomorph
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


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> Morphism | None:
    """First isomorphism found by generator-image backtracking, else None."""
    for m in _hom_images(g, h):
        return Morphism(g, h, m)
    return None

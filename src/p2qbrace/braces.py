"""Skew braces built from regular subgroups of Hol(A).

A skew brace is a set with two group structures (B, +) and (B, o) tied by
a o (b + c) = a o b - a + a o c, and ``SkewBrace`` is just those two group
tables.  Everything else is read off them: the permutation
lambda_a(b) = -a + a o b, which is a homomorphism (B, o) -> Aut(B, +)
when the brace law holds.  A regular subgroup G <= Hol(A) induces a skew
brace on the carrier of A: each a has the unique lift (a, lambda_a) in G,
and a o b = a + lambda_a(b) is the circle table of ``enumeration``.

Invariants computed here: |ker lambda|, the multiplicative isomorphism
type, ideals (lambda-stable subgroups normal for both operations), direct
product decompositions over pairs of ideals, and the bi-skew property
(the swapped pair (B, o, +) is again a skew brace).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import core
from .core import (
    FiniteGroup,
    GroupLabel,
    _first_failure,
    _gather,
    _hom_images,
    _respects,
    associativity_failure,
    identify_p2q,
    subgroups_of_order,
)
from .enumeration import _pq_of, circle_group
from .holomorph import HolSubgroup, Holomorph

__all__ = [
    "SkewBrace",
    "BraceInvariants",
    "brace_from_regular",
    "check_axioms",
    "invariants",
    "is_bi_skew",
    "ideals",
    "direct_product_pairs",
    "brace_isomorphic",
]


@dataclass
class SkewBrace:
    """Two group tables, + and o, on a common carrier 0..n-1."""

    add: FiniteGroup
    mul: FiniteGroup

    def __post_init__(self):
        if self.add.n != self.mul.n:
            raise ValueError("additive and multiplicative carriers differ")
        if self.add.identity != self.mul.identity:
            raise ValueError("the two identities must coincide")

    @property
    def n(self) -> int:
        return self.add.n

    @cached_property
    def lambda_perms(self) -> np.ndarray:
        """Row a is the permutation b -> lambda_a(b) = -a + a o b."""
        return _gather(self.add.mul, self.add.inv[:, None], self.mul.mul)

    def kernel(self) -> list[int]:
        """Elements with lambda_a = identity.

        A subgroup under both operations (they agree on it) and normal in
        (B,o).  It need not be lambda-stable or normal in (B,+) unless the
        additive group is abelian, so it is not an ideal in general.
        """
        ident = (self.lambda_perms == np.arange(self.n)).all(axis=1)
        return np.flatnonzero(ident).tolist()

    def kernel_size(self) -> int:
        return len(self.kernel())

    def fix_set(self) -> list[int]:
        """Elements left in place by every lambda_a."""
        fixed = (self.lambda_perms == np.arange(self.n)[None, :]).all(axis=0)
        return [int(x) for x in np.nonzero(fixed)[0]]

    def labels(self) -> tuple[GroupLabel, GroupLabel]:
        p, q = _pq_of(self.n)
        add_label = self.add.label or identify_p2q(self.add, p, q)
        return add_label, identify_p2q(self.mul, p, q)


def brace_from_regular(hol: Holomorph, sub: HolSubgroup) -> SkewBrace:
    """The skew brace on the carrier of A induced by a regular subgroup;
    a -> (a, lambda_a) is an isomorphism (B, o) -> G."""
    brace = SkewBrace(add=hol.base, mul=circle_group(hol, sub))
    # lambda recovered from the tables must be the subgroup's automorphisms
    if not np.array_equal(brace.lambda_perms, hol.aut.perms[sub.arr]):
        raise AssertionError("lambda read off the circle group differs from the subgroup's")
    return brace


def _brace_law(plus: FiniteGroup, circ: FiniteGroup) -> np.ndarray:
    """Where a o (b + c) == (a o b) - a + (a o c), over all (a, b, c)."""
    add, mul = plus.mul, circ.mul
    a = np.arange(plus.n)
    lhs = mul[a[:, None, None], add[None, :, :]]
    rhs = add[add[mul[:, :, None], plus.inv[a][:, None, None]], mul[:, None, :]]
    return lhs == rhs


def check_axioms(brace: SkewBrace) -> tuple[bool, str]:
    """Check both group structures and the brace law, each exactly and each
    in O(n^2) per generator.

    - Associativity: Light's test (``core.associativity_failure``).
    - Brace law: a o (b + c) = a o b - a + a o c is, after adding -a on
      the left of both sides, lambda_a(b + c) = lambda_a(b) + lambda_a(c):
      every lambda_a is an endomorphism of (B, +), which
      ``core._respects`` tests on the additive generators (the lemma in
      ``core._respects``).

    Nothing else can fail.  Identity and inverses hold in both tables, since
    the ``FiniteGroup`` constructor refuses a table without them.  And once
    both group laws and the brace law hold, lambda is a homomorphism
    (B, o) -> Aut(B, +) (Guarnieri-Vendramin, Prop. 1.9): the brace law at
    b + (-b) = 0 gives a o (-b) = a - a o b + a, the identities coinciding,
    so lambda_a(lambda_b(c)) = -a + a o (-b) - a + a o (b o c) =
    -(a o b) + (a o b) o c = lambda_{a o b}(c).

    Returns (ok, message).  When the generator test of the brace law fails,
    the n^3 scan names the first counterexample (a, b, c) in C order.
    """
    for name, g in (("additive", brace.add), ("multiplicative", brace.mul)):
        bad = associativity_failure(g)
        if bad is not None:
            return False, f"{name} law is not associative at {bad}"
    if len(_respects(brace.add, brace.add, brace.lambda_perms, brace.add.generators)) < brace.n:
        witness = _first_failure(_brace_law(brace.add, brace.mul))
        return False, f"brace law fails at (a, b, c) = {witness}"
    return True, "all axioms hold"


def _anti_hom(add: FiniteGroup, lam: np.ndarray) -> np.ndarray:
    """Whether lambda_{a+g} = lambda_g o lambda_a for every a and every
    generator g of (B, +), two gathers of the whole stack per generator;
    row a of each n x n table of the stack ``lam`` (R, n, n) is the
    permutation lambda_a, and there is one flag per table.

    Lemma (Childs, Bi-skew braces and Hopf Galois structures, New York J.
    Math. 25, 2019): for any two group tables + and o on one carrier with
    a common identity, with lambda_a(c) = -a + a o c, lambda is an
    anti-homomorphism of (B, +) exactly when the swapped pair (B, o, +)
    satisfies the brace law a + b o x = (a + b) o a' o (a + x), a' the
    o-inverse.  The brace law of (B, +, o) is not needed.

    Proof.  Fix a and write x = -a + a o c, a bijection in c.  Then
    a o c = a + x, so lambda_{a+b}(c) = lambda_b(lambda_a(c)) reads
    -(a + b) + (a + b) o a' o (a + x) = -b + b o x, which is the swapped
    law after adding a + b on the left.  The b that satisfy it for every a
    form a subgroup of (B, +): lambda_0 = id, and if b and c pass then
    lambda_{a+b+c} = lambda_c lambda_b lambda_a = lambda_{b+c} lambda_a.
    So checking the generators is enough.
    """
    rows, n = len(lam), add.n
    at = lam + (np.arange(rows) * n)[:, None, None]
    ok = np.ones(rows, dtype=bool)
    for g in add.generators:
        # lambda_g o lambda_a: row g of each table read at that table's rows
        after = lam[:, g].ravel().take(at)
        ok &= (lam[:, add.mul[:, g]] == after).all(axis=(1, 2))
    return ok


def is_bi_skew(brace: SkewBrace) -> bool:
    """Whether (B, o, +) with the roles swapped is also a skew brace:
    a + (b o c) = (a + b) o a' o (a + c), with a' the o-inverse.  By the
    lemma in ``_anti_hom``, exactly when lambda is an anti-homomorphism of
    (B, +), tested at the additive generators.
    """
    return bool(_anti_hom(brace.add, brace.lambda_perms[None])[0])


def ideals(brace: SkewBrace) -> list[tuple[int, ...]]:
    """All ideals: lambda-stable subgroups normal in (B,+) and in (B,o),
    by order, each order as ``subgroups_of_order`` lists it.

    One boolean test of every subgroup H of (B, +) against every map f an
    ideal is stable under: lambda_g and x -> g o x o g^-1 for the
    generators g of (B, o), x -> g + x - g for those of (B, +).  Stability
    under the generators gives it under each group, and each f is a
    bijection, so f(H) = H iff f(x) lies in H for every x in H.
    """
    n, add, mul = brace.n, brace.add, brace.mul
    a, m = np.array(add.generators), np.array(mul.generators)
    maps = np.vstack((
        brace.lambda_perms[m],
        _gather(add.mul, add.mul[a], add.inv[a, None]),
        _gather(mul.mul, mul.mul[m], mul.inv[m, None]),
    ))
    subs = [h for d in range(1, n + 1) if n % d == 0 for h in subgroups_of_order(add, d)]
    masks = np.zeros((len(subs), n), dtype=bool)
    masks[np.repeat(np.arange(len(subs)), [len(h) for h in subs]), np.concatenate(subs)] = True
    step = max(1, core.CHUNK_CELLS // maps.size)
    ok = np.concatenate([(chunk[:, maps] | ~chunk[:, None]).all(axis=(1, 2))
                         for chunk in np.split(masks, range(step, len(subs), step))])
    return [h for h, keep in zip(subs, ok) if keep]


def direct_product_pairs(brace: SkewBrace) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Nontrivial ideal pairs (I, J) with I + J = B and I meet J = 0.

    Each pair exhibits the brace as a direct product of two smaller
    sub-braces (sizes multiplying to n makes I + J = B automatic); all
    pairs are scanned, whatever the two orders are.
    """
    n = brace.n
    ids = [i for i in ideals(brace) if 1 < len(i) < n]
    zero = brace.add.identity
    pairs = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if len(a) * len(b) != n:
                continue
            if set(a) & set(b) != {zero}:
                continue
            pairs.append((a, b) if len(a) <= len(b) else (b, a))
    return pairs


@dataclass(frozen=True)
class BraceInvariants:
    """The classification invariants of one skew brace."""

    kernel_size: int
    fix: tuple[int, ...]
    mul_label: GroupLabel
    bi_skew: bool
    direct_product: tuple[tuple[int, ...], tuple[int, ...]] | None


def invariants(brace: SkewBrace) -> BraceInvariants:
    pairs = direct_product_pairs(brace)
    return BraceInvariants(
        kernel_size=brace.kernel_size(),
        fix=tuple(brace.fix_set()),
        mul_label=brace.labels()[1],
        bi_skew=is_bi_skew(brace),
        direct_product=pairs[0] if pairs else None,
    )


def brace_isomorphic(b1: SkewBrace, b2: SkewBrace) -> np.ndarray | None:
    """A bijection preserving both operations, or None.

    Goes through the additive isomorphisms in the order ``_hom_images``
    yields them and keeps the first that also respects o on the
    o-generators, which is exact for an additive bijection (the lemma
    in ``core._respects``).  The identity map is tried first, so a brace
    compared with itself gets the identity witness.
    """
    if b1.n != b2.n:
        return None
    gens = b1.mul.generators
    ident = np.arange(b1.n)
    if np.array_equal(b1.add.mul, b2.add.mul) and len(_respects(b1.mul, b2.mul, ident[None], gens)):
        return ident
    for phi in _hom_images(b1.add, b2.add):
        kept = _respects(b1.mul, b2.mul, phi, gens)
        if len(kept):
            return phi[kept[0]]
    return None

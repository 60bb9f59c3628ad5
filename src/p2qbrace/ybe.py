"""Set-theoretic Yang-Baxter solutions attached to skew braces.

A solution on X = {0..n-1} is a map r(x, y) = (sigma_x(y), tau_y(x)) with
all sigma_x and tau_y bijective (non-degeneracy) satisfying the braid
relation (r x id)(id x r)(r x id) = (id x r)(r x id)(id x r) on X^3.

A skew brace yields one via r(a, b) = (lambda_a(b), lambda_a(b)' o a o b),
where ' is the o-inverse; the construction goes back to Guarnieri and
Vendramin (Math. Comp. 86, 2017).  sigma_a = lambda_a by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .braces import SkewBrace

__all__ = [
    "Solution",
    "solution_from_brace",
    "check_ybe",
    "check_nondegenerate",
    "is_involutive",
    "export_solution",
]


@dataclass
class Solution:
    """r as two (n, n) tables: sigma[x, y] and tau[x, y] = tau_y(x)."""

    sigma: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma)
        self.tau = np.asarray(self.tau)
        if self.sigma.shape != self.tau.shape or self.sigma.shape[0] != self.sigma.shape[1]:
            raise ValueError("sigma and tau must be square tables of equal size")

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    @cached_property
    def r_flat(self) -> np.ndarray:
        """Pair table: r_flat[x*n + y] = sigma[x,y]*n + tau[x,y]."""
        n = self.n
        return (self.sigma.astype(np.int64) * n + self.tau).reshape(n * n)


def solution_from_brace(brace: SkewBrace) -> Solution:
    circ = brace.mul.mul
    cinv = brace.mul.inv
    sigma = brace.lambda_perms
    tau = circ[cinv[sigma], circ]
    return Solution(sigma=sigma.astype(np.int32), tau=tau.astype(np.int32))


def check_ybe(sol: Solution) -> tuple[bool, str]:
    """Braid relation over all n^3 triples; the message names a witness.

    R12 = r x id and R23 = id x r are maps of the triples, flattened in C
    order, and the relation is R12 R23 R12 = R23 R12 R23.
    """
    n = sol.n
    dtype = np.int32 if n**3 < 2**31 else np.int64
    r = sol.r_flat.astype(dtype)
    pts = np.arange(n, dtype=dtype)
    r12 = (r[:, None] * n + pts).ravel()
    r23 = (pts[:, None] * (n * n) + r).ravel()
    bad = r12[r23[r12]] != r23[r12[r23]]
    if not bad.any():
        return True, "braid relation holds on all triples"
    w = tuple(int(v) for v in np.unravel_index(int(np.argmax(bad)), (n, n, n)))
    return False, f"braid relation fails at (x, y, z) = {w}"


def check_nondegenerate(sol: Solution) -> bool:
    """All sigma_x and all tau_y must be permutations."""
    n = sol.n
    ref = np.arange(n)
    rows = (np.sort(sol.sigma, axis=1) == ref[None, :]).all()
    cols = (np.sort(sol.tau, axis=0) == ref[:, None]).all()
    return bool(rows and cols)


def is_involutive(sol: Solution) -> bool:
    """Whether r o r is the identity on pairs."""
    return bool((sol.r_flat[sol.r_flat] == np.arange(sol.n * sol.n)).all())


def export_solution(sol: Solution) -> str:
    """Plain-text matrix, one row per x, entries "sigma_x(y),tau_y(x)"."""
    rows = zip(sol.sigma.tolist(), sol.tau.tolist())
    return "\n".join(" ".join(f"{a},{b}" for a, b in zip(s, t)) for s, t in rows) + "\n"

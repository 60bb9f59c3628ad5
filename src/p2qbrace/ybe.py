"""Set-theoretic Yang-Baxter solutions attached to skew braces.

A solution on X = {0..n-1} is a map r(x, y) = (sigma_x(y), tau_y(x)) with
all sigma_x and tau_y bijective (non-degeneracy) satisfying the braid
relation (r x id)(id x r)(r x id) = (id x r)(r x id)(id x r) on X^3.

A skew brace yields one via r(a, b) = (lambda_a(b), lambda_a(b)' o a o b),
where ' is the o-inverse; the construction goes back to Guarnieri and
Vendramin (Math. Comp. 86, 2017).  sigma_a = lambda_a by construction.

check_ybe is exact on all n^3 triples.  It evaluates the relation a block
of x at a time through the n x n tables, so its memory stays at a few
arrays of max(_BLOCK, n^2) int64 entries instead of n^3.
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

# triples per block of x in check_ybe; at least one x (n^2 triples) a block
_BLOCK = 1 << 15


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
    """Braid relation on all n^3 triples; the message names the first
    failing (x, y, z) in C order.

    The check is exact and runs a block of consecutive x at a time.
    r12 r23 r12 sends (x, y, z) to (r(a, c), d), with (a, b) = r(x, y) and
    (c, d) = r(b, z); r23 r12 r23 sends it to (g, r(h, f)), with
    (e, f) = r(y, z) and (g, h) = r(x, e); c, d are row gathers of sigma,
    tau at b and g, h gathers of the block's rows at e.  Both images are
    compared as codes u*n^2 + v*n + w.  Every gather reads one of the n x n
    tables sigma, tau or r_flat, and a block holds max(_BLOCK, n^2) triples,
    so the temporaries are a few int64 arrays of that length (under 2 MiB
    at n = 99) and no n^3 array is built.
    """
    n = sol.n
    s = sol.sigma.astype(np.intp)
    t = sol.tau.astype(np.intp)
    r = sol.r_flat
    rn = r * n
    step = max(1, _BLOCK // max(n * n, 1))
    for x0 in range(0, n, step):
        sx, tx = s[x0:x0 + step], t[x0:x0 + step]
        left = np.take(rn, (sx * n)[:, :, None] + np.take(s, tx, axis=0)) + np.take(t, tx, axis=0)
        right = np.take(sx * (n * n), s, axis=1) + np.take(r, np.take(tx * n, s, axis=1) + t)
        bad = left != right
        if bad.any():
            i, y, z = (int(v) for v in np.unravel_index(int(np.argmax(bad)), bad.shape))
            return False, f"braid relation fails at (x, y, z) = {(x0 + i, y, z)}"
    return True, "braid relation holds on all triples"


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
    names = np.array([str(v) for v in range(sol.n)], dtype=object)
    cells = names[sol.sigma] + "," + names[sol.tau]
    return "\n".join(" ".join(row) for row in cells.tolist()) + "\n"

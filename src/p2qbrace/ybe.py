"""Set-theoretic Yang-Baxter solutions attached to skew braces.

A solution on X = {0..n-1} is a map r(x, y) = (sigma_x(y), tau_y(x)) with
all sigma_x and tau_y bijective (non-degeneracy) satisfying the braid
relation (r x id)(id x r)(r x id) = (id x r)(r x id)(id x r) on X^3.

A skew brace yields one via r(a, b) = (lambda_a(b), lambda_a(b)' o a o b),
where ' is the o-inverse; the construction goes back to Guarnieri and
Vendramin (Math. Comp. 86, 2017).  sigma_a = lambda_a by construction.

check_ybe decides the relation exactly.  When every sigma_x is a
permutation it decides it through the derived rack (the lemma in its
docstring), composing each distinct quadruple of sigma rows or rack
columns once instead of visiting the n^3 triples; each condition of the
lemma is coded on its own labels, and its quadruples are deduplicated by
a sort.  Only when that hypothesis fails or the lemma answers False does
it scan the n^3 triples, a block of x at a time, to name the first
failing one.  Every temporary is an array of at most
max(core.CHUNK_CELLS, n^2) entries of at most 8 bytes: 512 KiB for
n <= 256.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import core
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
        # own read-only copies, so the range check and the cached
        # properties stay valid
        self.sigma = np.array(self.sigma)
        self.tau = np.array(self.tau)
        self.sigma.setflags(write=False)
        self.tau.setflags(write=False)
        shape = self.sigma.shape
        if shape != self.tau.shape or len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("sigma and tau must be square tables of equal size")
        n = shape[0]
        for name, table in (("sigma", self.sigma), ("tau", self.tau)):
            if not np.issubdtype(table.dtype, np.integer):
                raise ValueError(f"{name} must hold integers, not {table.dtype}")
            outside = (table < 0) | (table >= n)
            if outside.any():
                x, y = (int(v) for v in np.argwhere(outside)[0])
                raise ValueError(f"{name}[{x}, {y}] = {table[x, y]} lies outside [0, {n})")

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    @cached_property
    def r_flat(self) -> np.ndarray:
        """Pair table: r_flat[x*n + y] = sigma[x,y]*n + tau[x,y]."""
        n = self.n
        return (self.sigma.astype(np.int64) * n + self.tau).reshape(n * n)

    @cached_property
    def sigma_bijective(self) -> bool:
        """Whether every sigma_x is a permutation, tested once per solution."""
        return _permutation_rows(self.sigma)


def solution_from_brace(brace: SkewBrace) -> Solution:
    circ = brace.mul.mul
    cinv = brace.mul.inv
    sigma = brace.lambda_perms
    tau = core._gather(circ, cinv[sigma], circ)
    return Solution(sigma=sigma.astype(np.int32), tau=tau.astype(np.int32))


def check_ybe(sol: Solution) -> tuple[bool, str]:
    """Braid relation on all n^3 triples; the message names the first
    failing (x, y, z) in C order.

    Lemma (Soloviev, Math. Res. Lett. 7, 2000; Lebed and Vendramin, Adv.
    Math. 304, 2017).  Let every sigma_x be bijective and put
    x <| y = sigma_y tau_{sigma_x^-1(y)}(x) and psi_z(x) = x <| z.  Then r
    satisfies the braid relation iff
      (a) sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)} for all x, y;
      (b) (x <| y) <| z = (x <| z) <| (y <| z) for all x, y, z, that is
          psi_z psi_y = psi_{y <| z} psi_z;
      (c) every sigma_x is an automorphism of <|:
          sigma_x(y <| z) = sigma_x(y) <| sigma_x(z).
    Proof.  (a) is the first component of the braid relation, so it is
    necessary.  The guitar map J(x, y, z) = (x, sigma_x y, sigma_x sigma_y z)
    is a bijection of X^3.  Given (a), J r12 J^-1 = r'12 with
    r'(x, y) = (y, x <| y); and always J r23 J^-1 (x, u, v) =
    (x, v, u <|_x v), with u <|_x v = sigma_x(sigma_x^-1(u) <| sigma_x^-1(v)).
    Conjugating both sides of the relation by J, the two sides send
    (x, u, v) to (v, u <| v, (x <| u) <|_u v) and to
    (v, u <|_x v, (x <| v) <|_v (u <|_x v)).  The middle components agree
    for all x, u, v iff (c) holds; given (c) every <|_x is <|, and the last
    components agree iff (b) holds.  (c) cannot be dropped: on two points,
    sigma_x = (0 1) for both x and tau = 0 satisfy (a) and (b), yet the
    relation fails at (0, 0, 0).

    All three conditions are equations f o g = h o k between the distinct
    sigma rows and psi columns ((c) as sigma_x psi_z = psi_{sigma_x(z)}
    sigma_x), and each side depends only on the labels of its two maps, so
    every distinct label quadruple is composed once, n gathers a side.
    With k distinct sigma rows and m distinct psi columns there are at
    most min(k^4, n^2), min(m^3, n m) and k n quadruples for (a), (b) and
    (c), besides the O(n^2) labelling; (b) needs one z per psi label
    (``_braids_by_lemma``).  For a brace solution sigma_x = lambda_x, so
    k = |im lambda|.

    When some sigma_x is not bijective, or the lemma answers False, the
    triples are scanned a block of consecutive x at a time to name the
    witness.  r12 r23 r12 sends (x, y, z) to (r(a, c), d), with
    (a, b) = r(x, y) and (c, d) = r(b, z); r23 r12 r23 sends it to
    (g, r(h, f)), with (e, f) = r(y, z) and (g, h) = r(x, e); c, d are row
    gathers of sigma, tau at b and g, h gathers of the block's rows at e.
    Both images are compared as codes u*n^2 + v*n + w.  Every gather reads
    one of the n x n tables, and a block holds at least one x (n^2 triples)
    and at most max(core.CHUNK_CELLS, n^2) entries, so each temporary is an
    int64 array of that length (512 KiB for n <= 256) and no n^3 array is
    built.
    """
    if sol.sigma_bijective and _braids_by_lemma(sol):
        return True, "braid relation holds on all triples"
    return _scan_triples(sol)


def _permutation_rows(table: np.ndarray) -> bool:
    """Whether every row of a square table of entries in [0, n) is a
    permutation: each (row, value) pair is hit exactly once."""
    n = table.shape[0]
    hits = np.bincount((table + n * np.arange(n)[:, None]).ravel(), minlength=n * n)
    return bool((hits == 1).all())


def _braids_by_lemma(sol: Solution) -> bool:
    """Conditions (a), (b) and (c) of check_ybe's lemma; sigma rows bijective.

    Each condition is an equation maps[i] o maps[j] = maps[a] o maps[b]
    decided on its own labels: (a) between the distinct sigma rows, (b)
    between the distinct psi columns and (c) between both, read as
    sigma_x psi_z = psi_{sigma_x(z)} sigma_x for each distinct sigma_x.

    Lemma.  (b) needs one z per psi label.  For a fixed z, y <| z =
    psi_z(y), so z enters psi_z psi_y = psi_{y <| z} psi_z only through
    psi_z: if row l of the distinct psi columns is psi_z, the quadruples of
    z are (l, psi[y], psi[psi_l(y)], l) for y < n, n m_psi in all.
    """
    s = sol.sigma.astype(np.intp)
    t = sol.tau.astype(np.intp)
    rack = _rack(s, t)
    sig_rows, sig = _row_labels(s)
    psi_rows, psi = _row_labels(rack.T)
    k = len(sig_rows)
    sig_ids, psi_ids = np.arange(k)[:, None], np.arange(len(psi_rows))[:, None]
    return (
        _compositions_agree(sig_rows, sig[:, None], sig[None, :], sig[s], sig[t])
        and _compositions_agree(psi_rows, psi_ids, psi[None, :], psi[psi_rows], psi_ids)
        and _compositions_agree(np.vstack((sig_rows, psi_rows)), sig_ids, psi[None, :] + k,
                                psi[sig_rows] + k, sig_ids)
    )


def _rack(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """rack[x, y] = x <| y = sigma_y(tau_{sigma_x^-1(y)}(x)) for the sigma
    and tau tables ``s`` and ``t``; every sigma row bijective."""
    n = len(s)
    rows = np.arange(n)[:, None]
    s_inv = np.empty_like(s)
    s_inv[rows, s] = np.arange(n)
    # row y of s read at tau_{sigma_x^-1(y)}(x), for every x
    return core._gather(s, np.arange(n), core._gather(t, rows, s_inv))


def _row_labels(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a table and each row's index among them; rows
    are compared as raw bytes, which is exact and cheaper than axis=0."""
    table = np.ascontiguousarray(table)
    rows = table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel()
    _, first, labels = np.unique(rows, return_index=True, return_inverse=True)
    return table[first], labels.reshape(-1)


def _compositions_agree(maps: np.ndarray, i, j, a, b) -> bool:
    """Whether maps[i] o maps[j] == maps[a] o maps[b] at every position of
    the broadcast label arrays, composing each distinct quadruple once.

    The quadruples are coded as ((i m + j) m + a) m + b for m maps, in
    int32 when m^4 < 2^31 and in int64 otherwise, and deduplicated by one
    sort in place and a compare of each code with the one before it."""
    m, n = maps.shape
    width = np.int32 if m**4 < 2**31 else np.int64
    i, j, a, b = (np.asarray(v, dtype=width) for v in (i, j, a, b))
    codes = (((i * m + j) * m + a) * m + b).ravel()
    codes.sort()
    quads = codes[np.diff(codes, prepend=-1) != 0]
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


def _scan_triples(sol: Solution) -> tuple[bool, str]:
    """check_ybe on all n^3 triples, a block of x at a time."""
    n = sol.n
    s = sol.sigma.astype(np.intp)
    t = sol.tau.astype(np.intp)
    r = sol.r_flat
    rn = r * n
    step = max(1, core.CHUNK_CELLS // max(n * n, 1))
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
    return sol.sigma_bijective and _permutation_rows(sol.tau.T)


def is_involutive(sol: Solution) -> bool:
    """Whether r o r is the identity on pairs."""
    return bool((sol.r_flat[sol.r_flat] == np.arange(sol.n * sol.n)).all())


def export_solution(sol: Solution) -> str:
    """Plain-text matrix, one row per x, entries "sigma_x(y),tau_y(x)".

    One byte gather: the decimal digits of 0..n-1, NUL-padded to the width
    w of n-1, are gathered at sigma and tau into the (n, n, 2w + 2) cells
    "digits,digits " (the last of a row ends in a newline); the NUL bytes,
    which no digit or separator uses, are then dropped.
    """
    n = sol.n
    if n == 0:
        return "\n"
    w = len(str(n - 1))
    digits = np.arange(n).astype(f"S{w}").view(np.uint8).reshape(n, w)
    cells = np.empty((n, n, 2 * w + 2), np.uint8)
    cells[:, :, :w] = np.take(digits, sol.sigma, axis=0)
    cells[:, :, w] = ord(",")
    cells[:, :, w + 1:-1] = np.take(digits, sol.tau, axis=0)
    cells[:, :, -1] = ord(" ")
    cells[:, -1, -1] = ord("\n")
    return cells.tobytes().replace(b"\0", b"").decode()

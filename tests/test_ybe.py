"""Set-theoretic Yang-Baxter solutions derived from braces."""

import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2qbrace.braces import brace_from_regular
from p2qbrace.ybe import (
    Solution,
    check_nondegenerate,
    check_ybe,
    export_solution,
    is_involutive,
    solution_from_brace,
)
from p2qbrace import core, ybe
from helpers import (
    BRACE_YBE_FAMILIES,
    SMALL_PAIRS,
    all_reps,
    check_ybe_oracle,
    classes_of,
    compositions_width_mismatch,
    export_oracle,
    hol_of,
    lemma_mismatch,
    rep_solutions,
)


def braid_oracle(sol):
    """The braid relation by broadcasting sigma and tau over (n, n, n):
    first failing (x, y, z) in C order, or None."""
    s, t = sol.sigma, sol.tau
    n = sol.n
    x = np.arange(n)[:, None, None]
    z = np.arange(n)[None, None, :]
    xy_s = np.broadcast_to(s[:, :, None], (n, n, n))  # sigma[x, y]
    xy_t = np.broadcast_to(t[:, :, None], (n, n, n))  # tau[x, y]
    # left side: r12, r23, r12
    a1 = xy_s
    b1 = t[xy_t, z]
    m1 = s[xy_t, z]
    l1, l2, l3 = s[a1, m1], t[a1, m1], b1
    # right side: r23, r12, r23
    yz_s = np.broadcast_to(s[None, :, :], (n, n, n))
    yz_t = np.broadcast_to(t[None, :, :], (n, n, n))
    a2 = s[x, yz_s]
    b2 = t[x, yz_s]
    r1, r2, r3 = a2, s[b2, yz_t], t[b2, yz_t]
    bad = np.argwhere(~((l1 == r1) & (l2 == r2) & (l3 == r3)))
    return tuple(int(v) for v in bad[0]) if len(bad) else None


def involutive_oracle(sol):
    s, t = sol.sigma, sol.tau
    return bool(
        (s[s, t] == np.arange(sol.n)[:, None]).all()
        and (t[s, t] == np.arange(sol.n)[None, :]).all()
    )


def assert_agrees_with_oracle(sol):
    ok, msg = check_ybe(sol)
    witness = braid_oracle(sol)
    assert ok is (witness is None)
    if witness is not None:
        assert msg == f"braid relation fails at (x, y, z) = {witness}"
    assert (ok, msg) == check_ybe_oracle(sol)
    assert lemma_mismatch([sol]) is None
    assert is_involutive(sol) is involutive_oracle(sol)
    return ok


def flip(n):
    grid = np.indices((n, n))
    return Solution(sigma=grid[1].astype(np.int32), tau=grid[0].astype(np.int32))


def test_flip_solution_by_hand():
    sol = flip(4)
    ok, msg = check_ybe(sol)
    assert ok, msg
    assert check_nondegenerate(sol)
    assert is_involutive(sol)


def test_constant_map_is_not_a_solution():
    n = 3
    const = Solution(sigma=np.zeros((n, n), np.int32), tau=np.zeros((n, n), np.int32))
    assert not check_nondegenerate(const)
    # r(x, y) = (0, 0) sends every triple to (0, 0, 0) on both sides
    assert assert_agrees_with_oracle(const)


def test_noncommuting_twist_breaks_braid_relation():
    # r(x, y) = (f(y), g(x)) solves the YBE exactly when f and g commute;
    # f(y) = y + 1 and g(x) = 2x do not commute mod 5
    n = 5
    grid = np.indices((n, n))
    sol = Solution(
        sigma=((grid[1] + 1) % n).astype(np.int32),
        tau=((2 * grid[0]) % n).astype(np.int32),
    )
    assert check_nondegenerate(sol)
    assert not assert_agrees_with_oracle(sol)
    # while the commuting variant does solve it
    assert assert_agrees_with_oracle(
        Solution(
            sigma=((grid[1] + 1) % n).astype(np.int32),
            tau=((grid[0] + 2) % n).astype(np.int32),
        )
    )


def test_trivial_brace_gives_the_flip():
    # lambda = id on an abelian carrier: r(x, y) = (y, x)
    from p2qbrace.holomorph import HolSubgroup
    from helpers import hol_of

    hol = hol_of(2, 5, "CyclicP2Q")
    brace = brace_from_regular(hol, HolSubgroup((hol.aut.identity,) * 20))
    sol = solution_from_brace(brace)
    ref = flip(20)
    assert np.array_equal(sol.sigma, ref.sigma)
    assert np.array_equal(sol.tau, ref.tau)


def no_scan(sol):
    raise AssertionError("check_ybe scanned the n^3 triples of a passing solution")


@pytest.mark.parametrize("pair", [(2, 5), (3, 7)])
def test_every_orbit_rep_yields_a_verified_solution(pair, monkeypatch):
    # every sigma_x = lambda_x is bijective, so the lemma decides alone: a
    # return to the triple scan on a passing solution raises
    monkeypatch.setattr(ybe, "_scan_triples", no_scan)
    p, q = pair
    for key, hol, cl in all_reps(p, q):
        brace = brace_from_regular(hol, cl.rep)
        sol = solution_from_brace(brace)
        ok, msg = check_ybe(sol)
        assert ok, f"{key}: {msg}"
        assert (ok, msg) == check_ybe_oracle(sol), key
        assert export_solution(sol) == export_oracle(sol), key
        assert check_nondegenerate(sol)


def test_checks_agree_with_the_broadcast_oracles():
    # every (2,5) solution passes both; one corrupted tau entry fails both
    # braid checks at the same first witness
    for key, hol, cl in all_reps(2, 5):
        assert assert_agrees_with_oracle(solution_from_brace(brace_from_regular(hol, cl.rep)))
    key, hol, cl = next((k, h, c) for k, h, c in all_reps(2, 5) if k == "QbyP2_ordP")
    sol = solution_from_brace(brace_from_regular(hol, cl.rep))
    tau = sol.tau.copy()
    tau[7, 11] = (tau[7, 11] + 1) % sol.n
    bad = Solution(sigma=sol.sigma, tau=tau)
    assert braid_oracle(bad) is not None
    assert not assert_agrees_with_oracle(bad)


def corrupted(sol, table, x, y):
    """+1 at cell (x, y) of sigma or tau; "swap" exchanges sigma[x, y] with
    sigma[x, y - 1], so every sigma row stays a permutation."""
    sigma, tau = sol.sigma.copy(), sol.tau.copy()
    if table == "swap":
        sigma[x, [y, y - 1]] = sigma[x, [y - 1, y]]
        return Solution(sigma=sigma, tau=tau)
    t = sigma if table == "sigma" else tau
    t[x, y] = (t[x, y] + 1) % sol.n
    return Solution(sigma=sigma, tau=tau)


@pytest.mark.parametrize("table", ["sigma", "tau", "swap"])
@pytest.mark.parametrize("pair", [(3, 7), (3, 11)])
def test_witness_at_block_edges(pair, table, monkeypatch):
    # check_ybe runs blocks of `step` consecutive x; corrupt the last x of
    # the first block, the first x of the last block and the last entry of
    # a non-trivial PxPQ solution (n = 63 and n = 99).  The witness must not
    # depend on the block size either: one x a block down to one block.
    # A swap keeps the sigma rows bijective, so the lemma itself must say
    # False before the scan names the witness; +1 on sigma breaks a row and
    # goes straight to the scan.
    pxpq = classes_of(*pair, "PxPQ")[-1]
    sol = solution_from_brace(brace_from_regular(hol_of(*pair, "PxPQ"), pxpq.rep))
    n = sol.n
    step = max(1, core.CHUNK_CELLS // (n * n))
    assert 1 < step < n
    for x, y in ((step - 1, n // 2), ((n - 1) // step * step, n // 2), (n - 1, n - 1)):
        bad = corrupted(sol, table, x, y)
        witness = braid_oracle(bad)
        assert witness is not None
        assert ybe._permutation_rows(bad.sigma) is (table != "sigma")
        if table == "swap":
            assert not ybe._braids_by_lemma(bad)
        assert lemma_mismatch([bad]) is None
        expected = (False, f"braid relation fails at (x, y, z) = {witness}")
        assert check_ybe(bad) == check_ybe_oracle(bad) == expected
        for block in (1, 5 * n * n, n**3):
            monkeypatch.setattr(core, "CHUNK_CELLS", block)
            assert check_ybe(bad) == expected
        monkeypatch.undo()


@pytest.mark.parametrize("pair", SMALL_PAIRS)
def test_lemma_matches_the_oracle_on_every_orbit_rep(pair):
    # each condition on its own labels, (b) on one z per psi label, gives
    # the verdict of all three on the stacked labels and all n^2 pairs
    assert lemma_mismatch(rep_solutions(*pair)) is None


@pytest.mark.parametrize("family", BRACE_YBE_FAMILIES, ids=lambda f: "{}-{}-{}".format(*f))
def test_lemma_matches_the_oracle_on_the_brace_ybe_families(family):
    p, q, key = family
    assert lemma_mismatch(rep_solutions(p, q, [key])) is None


@pytest.mark.parametrize("block", ["n", "default"])
@pytest.mark.parametrize("m", [215, 216])
def test_compositions_at_the_edge_of_the_code_width(m, block, monkeypatch):
    # 215^4 < 2^31 <= 216^4: the codes are int32 at m = 215 and int64 at
    # m = 216, whose largest code m^4 - 1 would wrap in int32; a planted
    # disagreement in the last distinct quadruple must be found, in chunks
    # of n quadruples and in one chunk
    if block == "n":
        monkeypatch.setattr(core, "CHUNK_CELLS", 7)
    assert compositions_width_mismatch(m, 7) is None


@st.composite
def maps(draw):
    n = draw(st.integers(1, 9))
    cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    sigma = np.array(draw(cells), dtype=np.int32).reshape(n, n)
    tau = np.array(draw(cells), dtype=np.int32).reshape(n, n)
    return Solution(sigma=sigma, tau=tau)


@settings(max_examples=200, deadline=None)
@given(maps(), st.sampled_from([1, 20, core.CHUNK_CELLS]))
def test_braid_check_on_arbitrary_maps(sol, block):
    # degenerate maps included: the check never assumes bijective rows;
    # blocks of one x, of a few x and of every x
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "CHUNK_CELLS", block)
        assert_agrees_with_oracle(sol)


@st.composite
def left_nondegenerate_maps(draw):
    # sigma rows drawn from a pool of one to three permutations and tau a
    # random table, one permutation in every column, or the identity in
    # every column, so that many draws are solutions
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    sigma = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)])
    kind = draw(st.sampled_from(["arbitrary", "permutation", "identity"]))
    if kind == "arbitrary":
        cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
        tau = np.array(draw(cells)).reshape(n, n)
    else:
        column = draw(st.permutations(range(n))) if kind == "permutation" else range(n)
        tau = np.repeat(np.array(column)[:, None], n, axis=1)
    return Solution(sigma=sigma, tau=tau)


@settings(max_examples=300, deadline=None)
@given(left_nondegenerate_maps(), st.sampled_from([1, 20, core.CHUNK_CELLS]))
def test_lemma_on_left_nondegenerate_maps(sol, block):
    # every sigma row is bijective, so check_ybe decides through the lemma
    # and scans only for the witness of a failure
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "CHUNK_CELLS", block)
        assert_agrees_with_oracle(sol)


def lemma_conditions(sol):
    """Conditions (a), (b), (c) of check_ybe's lemma, read off the
    definitions one point at a time."""
    s, t, n = sol.sigma.tolist(), sol.tau.tolist(), sol.n
    s_inv = [[row.index(y) for y in range(n)] for row in s]

    def rack(x, y):
        return s[y][t[x][s_inv[x][y]]]

    pts = range(n)
    a = all(
        s[x][s[y][z]] == s[s[x][y]][s[t[x][y]][z]] for x in pts for y in pts for z in pts
    )
    b = all(
        rack(rack(x, y), z) == rack(rack(x, z), rack(y, z)) for x in pts for y in pts for z in pts
    )
    c = all(s[x][rack(y, z)] == rack(s[x][y], s[x][z]) for x in pts for y in pts for z in pts)
    return a, b, c


@pytest.mark.parametrize(
    "sigma, tau, holds",
    [
        # sigma_0 = id, sigma_1 = (0 1), tau_y(x) = 1 - y
        ([[0, 1], [1, 0]], [[1, 0], [1, 0]], (False, True, True)),
        # sigma_x = id, tau_0 = (0 1), tau_1 = 0: x <| y = tau_y(x)
        ([[0, 1], [0, 1]], [[1, 0], [0, 0]], (True, False, True)),
        # sigma_x = (0 1), tau = 0: x <| y = 1, which no sigma_x fixes
        ([[1, 0], [1, 0]], [[0, 0], [0, 0]], (True, True, False)),
    ],
    ids=["a", "b", "c"],
)
def test_each_lemma_condition_is_needed(sigma, tau, holds):
    # each map breaks exactly one condition and has bijective sigma rows:
    # the lemma says False and the scan names the oracle's witness
    sol = Solution(sigma=np.array(sigma), tau=np.array(tau))
    assert lemma_conditions(sol) == holds
    assert ybe._permutation_rows(sol.sigma)
    assert not ybe._braids_by_lemma(sol)
    assert not assert_agrees_with_oracle(sol)


@pytest.mark.parametrize("block", [1, core.CHUNK_CELLS])
def test_every_map_on_two_points(block, monkeypatch):
    # all 256 maps on {0, 1}; 21 of them fail first at x = 1, so a check
    # that skips the last block is caught
    monkeypatch.setattr(core, "CHUNK_CELLS", block)
    for cells in itertools.product((0, 1), repeat=8):
        sigma, tau = np.array(cells).reshape(2, 2, 2)
        assert_agrees_with_oracle(Solution(sigma=sigma, tau=tau))


def test_exports_are_pinned():
    # SHA-256 of every (2,5) orbit representative's export, concatenated in
    # the order of all_reps, as the f-string writer produced it
    digest = hashlib.sha256()
    for key, hol, cl in all_reps(2, 5):
        digest.update(export_solution(solution_from_brace(brace_from_regular(hol, cl.rep))).encode())
    assert digest.hexdigest() == "c2940ee12f7d1cd9cb677be6fb7ffeb5b6bd71d2920462d3892c83889047c874"


def test_involutive_exactly_for_abelian_additive():
    # r^2 = id holds iff the additive group is abelian
    seen = {True: 0, False: 0}
    for key, hol, cl in all_reps(2, 5):
        brace = brace_from_regular(hol, cl.rep)
        sol = solution_from_brace(brace)
        inv = is_involutive(sol)
        assert inv == brace.add.is_abelian(), key
        seen[inv] += 1
    assert seen[True] and seen[False]


def test_solution_apply_matches_tables():
    # r(x, y) = (lambda_x(y), lambda_x(y)' o x o y), entry by entry from the
    # brace, against the gathered sigma and tau tables
    for key, hol, cl in all_reps(2, 5):
        brace = brace_from_regular(hol, cl.rep)
        sol = solution_from_brace(brace)
        circ, cinv = brace.mul.mul, brace.mul.inv
        for x, y in ((3, 7), (0, 11), (19, 19)):
            s = int(hol.aut.perms[cl.rep.lam[x], y])
            t = int(circ[circ[cinv[s], x], y])
            assert (int(sol.sigma[x, y]), int(sol.tau[x, y])) == (s, t), key


def test_r_is_a_bijection_on_pairs():
    for key, hol, cl in all_reps(2, 5):
        brace = brace_from_regular(hol, cl.rep)
        sol = solution_from_brace(brace)
        n = sol.n
        assert len(set(map(int, sol.r_flat))) == n * n


def test_export_round_trip():
    sol = flip(3)
    text = export_solution(sol)
    # parse the matrix back: each cell is "sigma,tau"
    rows = [ln for ln in text.strip().splitlines() if "," in ln]
    cells = [[tuple(map(int, c.split(","))) for c in ln.split()] for ln in rows]
    got_sigma = np.array([[c[0] for c in row] for row in cells])
    got_tau = np.array([[c[1] for c in row] for row in cells])
    assert np.array_equal(got_sigma, sol.sigma)
    assert np.array_equal(got_tau, sol.tau)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64])
@pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 11, 99, 100, 101])
def test_export_at_every_digit_width_boundary(n, dtype):
    # random tables on both sides of each change in the width of n - 1;
    # n = 0 gives "\n", as the oracle does
    rng = np.random.default_rng(n)
    sigma, tau = rng.integers(0, max(n, 1), (2, n, n)).astype(dtype)
    sol = Solution(sigma=sigma, tau=tau)
    assert export_solution(sol) == export_oracle(sol)


def test_solution_owns_read_only_tables():
    # writing to the caller's arrays once changed the solution behind its
    # range check and left r_flat stale
    sigma = np.indices((4, 4))[1].astype(np.int32)
    tau = np.indices((4, 4))[0].astype(np.int32)
    sol = Solution(sigma=sigma, tau=tau)
    text, r_flat, verdict = export_solution(sol), sol.r_flat.copy(), check_ybe(sol)
    sigma[0, 0] = 3
    tau[:] = 9
    assert export_solution(sol) == text
    assert np.array_equal(sol.r_flat, r_flat)
    assert check_ybe(sol) == verdict == (True, "braid relation holds on all triples")
    with pytest.raises(ValueError, match="read-only"):
        sol.sigma[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        sol.tau[0, 0] = 1


@pytest.mark.parametrize(
    "sigma, tau, error",
    [
        # a float table once passed check_ybe as "braid relation holds"
        (np.indices((3, 3))[1] * 0.5, np.zeros((3, 3), int), "sigma must hold integers, not float64"),
        # sigma_x(y) = y - 3 once exported as "0,0 1,0 2,0", wrapped
        (np.indices((3, 3))[1] - 3, np.zeros((3, 3), int), "sigma[0, 0] = -3 lies outside [0, 3)"),
        # an entry past n once raised a bare IndexError
        (np.zeros((3, 3), int), np.full((3, 3), 3), "tau[0, 0] = 3 lies outside [0, 3)"),
    ],
    ids=["float", "negative", "too-large"],
)
def test_entries_outside_the_set_rejected(sigma, tau, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        Solution(sigma=sigma, tau=tau)


def test_rectangular_tables_rejected():
    with pytest.raises(ValueError):
        Solution(sigma=np.zeros((2, 3), np.int32), tau=np.zeros((2, 3), np.int32))
    with pytest.raises(ValueError):
        Solution(sigma=np.zeros((2, 2), np.int32), tau=np.zeros((3, 3), np.int32))

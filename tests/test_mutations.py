"""Planted faults in oracle-checked kernels must fail their oracle comparison.

Each case monkeypatches a kernel with a copy of its source in which one
line is known to be wrong, then runs the comparison that the kernel's
equality test runs, at the smallest order that shows the fault, and asserts
that the comparison names a mismatch.  A comparison that a wrong kernel
passes checks nothing.
"""

import inspect
import itertools
import textwrap

from p2qbrace import braces, core, enumeration, holomorph, ybe
from p2qbrace.core import AutGroup
from p2qbrace.holomorph import Holomorph
from helpers import (
    circle_labels_mismatch,
    compositions_width_mismatch,
    generating_set_mismatch,
    hol_of,
    ideals_mismatch,
    label_keys,
    lemma_mismatch,
    lifts_mismatch,
    regular_closure_mismatch,
    rep_solutions,
    stream_start_mismatch,
    table_orbit_mismatch,
)


def plant(monkeypatch, owner, name, old, new):
    """Replace ``owner.name``, a function of a module or a method of a
    class, by its source with the one text ``old`` read as ``new``,
    compiled in a copy of the namespace of the owner's module."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, f"{old!r} is not in {name} exactly once"
    namespace = dict(vars(inspect.getmodule(owner)))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def test_ideals_without_the_circle_conjugations_fail(monkeypatch):
    # the subgroups of (B, +) that are lambda-stable and normal in (B, +)
    # but not normal in (B, o) pass as ideals; order 20 already has them
    plant(monkeypatch, braces, "ideals", "        mul.mul[mul.mul[m], mul.inv[m, None]],\n", "")
    assert ideals_mismatch(2, 5) is not None


def test_labels_counting_p_th_roots_of_unity_fail(monkeypatch):
    # p_count from x^p = e counts p elements, not p^2, in the normal cyclic
    # Sylow-p of Z_{p^2} x| Z_q, which needs p = 1 mod q: (5,2) is the
    # first such pair of the oracle test
    plant(monkeypatch, core, "identify_stack", "p_count = one_p2.sum(axis=1)", "p_count = one_p.sum(axis=1)")
    assert all(circle_labels_mismatch(*pair) is None for pair in ((2, 5), (2, 7), (3, 7), (5, 3)))
    assert circle_labels_mismatch(5, 2) is not None


def test_generating_set_without_the_products_h_g_fails(monkeypatch):
    # a new pick reaches nothing, not even itself, so every element but
    # the identity is picked; order 20 shows it on A = Z20 already
    plant(monkeypatch, core, "generating_set", "for s in gens if i >= old else (g,):",
          "for s in gens if i >= old else ():")
    assert generating_set_mismatch(2, 5) is not None


def test_a_dedupe_dropping_the_last_distinct_code_fails(monkeypatch):
    # the planted disagreement sits in the last distinct quadruple, which
    # the faulty dedupe never composes; the agreeing sets still pass
    plant(monkeypatch, ybe, "_compositions_agree", "quads = codes[np.diff(codes, prepend=-1) != 0]",
          "quads = codes[np.diff(codes, prepend=-1) != 0][:-1]")
    assert compositions_width_mismatch(215) == (214, 214, 214, 213)


def test_the_rack_condition_on_the_wrong_label_fails(monkeypatch):
    # (b) reading y <| z from another psi label's row breaks the
    # self-distributivity of the racks at order 20 already
    plant(monkeypatch, ybe, "_braids_by_lemma", "psi[psi_rows]", "psi[psi_rows[::-1]]")
    assert lemma_mismatch(rep_solutions(2, 5)) is not None


def test_a_lift_walk_one_power_short_fails(monkeypatch):
    # the walk stops at (u, alpha)^(o-1): the o-th power test reads the
    # wrong power and Lemma 2 skips the (o-2)-th; order 20 shows it
    assert lifts_mismatch(2, 5) is None
    plant(monkeypatch, enumeration, "_lifts", "range(int(aut.element_orders[alpha]) - 1)",
          "range(int(aut.element_orders[alpha]) - 2)")
    assert lifts_mismatch(2, 5) is not None


def test_a_layered_walk_by_the_first_generator_only_fails(monkeypatch):
    # every family at order 20 whose Aut(A) needs two generators has an
    # orbit that the first one alone does not reach
    assert table_orbit_mismatch(2, 5) is None
    plant(monkeypatch, holomorph, "orbit", "for h in gens])", "for h in gens[:1]])")
    assert table_orbit_mismatch(2, 5) is not None


def test_a_conjugation_without_the_position_scatter_fails(monkeypatch):
    # h lam[a] h^-1 left at a instead of h(a)
    assert table_orbit_mismatch(2, 5) is None
    plant(monkeypatch, Holomorph, "conjugate_subgroup", "out[..., self.aut.perms[h]] =", "out[...] =")
    assert table_orbit_mismatch(2, 5) is not None


def test_stream_rows_started_from_e_instead_of_the_kernel_fail(monkeypatch):
    # a row of lifts alone from {e} reaches <lifts>, which misses N x 1
    # wherever N is not trivial; order 12 shows it in every family
    hols = [hol_of(2, 3, key) for key in label_keys(2, 3)]
    assert all(stream_start_mismatch(hol) is None for hol in hols)
    plant(monkeypatch, enumeration, "_stream", "parts.append((start, ",
          "parts.append((np.arange(hol.base.n) == hol.base.identity, ")
    assert any(stream_start_mismatch(hol) is not None for hol in hols)


def test_closures_without_the_old_value_clashes_fail(monkeypatch):
    # a write into a cell filled in an earlier round with another value no
    # longer kills the row: at order 12 a row of two generators then keeps
    # a full table of a subgroup that is not regular
    hol = hol_of(2, 3, "PxPQ")
    x = list(itertools.product(range(hol.base.n), range(hol.n_aut)))
    rows = [list(row) for row in itertools.product(x, repeat=2)]
    assert regular_closure_mismatch(hol, rows) is None
    plant(monkeypatch, enumeration, "_regular_closures", "alive[r[(flat[cell] != val).any(axis=1)]]",
          "alive[r[(empty & (flat[cell] != val)).any(axis=1)]]")
    assert regular_closure_mismatch(hol, rows) is not None


def test_a_conjugation_by_the_wrong_inverse_fails(monkeypatch):
    # h^-1 f h in place of h f h^-1 moves (a, f) to (h(a), h^-1 f h), which
    # leaves the orbit at order 12; the rows cached before the plant are
    # set aside for the test
    assert table_orbit_mismatch(2, 3) is None
    for key in label_keys(2, 3):
        monkeypatch.setattr(hol_of(2, 3, key).aut, "_conj_rows", {})
    plant(monkeypatch, AutGroup, "conj_row", "self.perms[h][self.perms[:, self.perms[self.inv[h], self.key]]]",
          "self.perms[self.inv[h]][self.perms[:, self.perms[h, self.key]]]")
    assert table_orbit_mismatch(2, 3) is not None

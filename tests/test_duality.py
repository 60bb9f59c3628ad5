"""Duality oracles: the opposite brace and the bi-skew swap.

Both are involutions of skew braces, so they check the enumerated classes
of a family, and of a pair of families, with no DFS, no encoded table and
no second Aut(A).  The number of classes of each family that are their own
opposite is printed (``pytest -rP`` shows it)."""

import pytest

from helpers import SMALL_PAIRS, bi_skew_swap_mismatch, opposite_mismatch

PAIRS = SMALL_PAIRS + ((5, 2),)


@pytest.mark.parametrize("pair", PAIRS)
def test_the_opposite_brace_is_an_involution_on_the_classes(pair):
    # each opposite table is closed and lies in the orbit of an enumerated
    # representative with its circle type and orbit size; the class map is
    # an involution and fixes every class of an abelian A
    bad, fixed = opposite_mismatch(*pair)
    for key, (own, total) in fixed.items():
        print(f"{pair} {key}: {own} of {total} classes are their own opposite")
    assert bad is None


@pytest.mark.parametrize("pair", PAIRS)
def test_bi_skew_classes_are_symmetric_in_the_two_types(pair):
    # every pair has bi-skew classes whose circle type differs from A's
    bad, crossed = bi_skew_swap_mismatch(*pair)
    assert bad is None and crossed

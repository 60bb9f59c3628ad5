"""Reference count tables and the closed-form totals."""

import pytest

from p2qbrace.catalog import eval_expr
from p2qbrace.expected import (
    _TABLES,
    REGIME_NAMES,
    conjecture_counts,
    expected_tables,
    expected_totals,
    regime,
)


def test_regime_dispatch():
    assert regime(2, 7) == "4q_3mod4"
    assert regime(2, 5) == "4q_1mod4"
    assert regime(2, 13) == "4q_1mod4"
    assert regime(3, 7) == "q1_modp"
    assert regime(2, 5) in REGIME_NAMES
    assert regime(3, 19) == "q1_modp2"   # 19 = 1 mod 9
    assert regime(5, 3) == "gf"          # 3 | 5 + 1
    assert regime(7, 3) == "3p2"         # 7 = 1 mod 3
    assert regime(3, 5) == "independent"
    assert regime(89, 11) == "p1_modq"   # 89 = 1 mod 11
    # every odd p is 1 mod 2, and q = 2 has its own regime
    assert [regime(p, 2) for p in (3, 5, 7, 11)] == ["2p2"] * 4
    assert all(regime(p, q) in REGIME_NAMES for p, q in ((89, 11), (5, 2)))
    with pytest.raises(ValueError):
        regime(2, 3)  # order 12 mixes regimes
    with pytest.raises(ValueError):
        regime(4, 7)
    with pytest.raises(ValueError):
        regime(5, 5)


def test_tables_reject_the_unencoded_regime():
    with pytest.raises(ValueError, match="p = 1 mod q with q > 3"):
        expected_tables(89, 11)
    with pytest.raises(ValueError, match=r"q = 2 \(order 2p\^2"):
        expected_tables(5, 2)


def test_internal_consistency_at_many_orders():
    # by-kernel refinements must add up to their cross rows (expected_tables
    # asserts this internally); exercise one point per encoded regime
    for p, q in ((2, 7), (2, 5), (3, 7), (3, 19), (5, 3), (7, 3), (3, 5), (2, 13)):
        tables = expected_tables(p, q)
        for add_key, t in tables.items():
            assert t.total() == sum(t.cross.values())
            assert all(v > 0 for v in t.cross.values())


def test_formulas_evaluate_as_python_expressions():
    # every table formula, in every regime, at the orders of the tier-1
    # tests: the package's evaluator against Python's own
    formulas = set()
    for reg in _TABLES.values():
        for spec in reg.values():
            formulas.update(spec["cross"].values())
            for kexpr, cells in spec.get("by_kernel", {}).items():
                formulas.add(kexpr)
                formulas.update(cells.values())
    assert len(formulas) > 20
    for p, q in ((2, 5), (2, 7), (3, 7), (5, 3), (2, 11), (5, 2), (7, 2), (2, 13), (7, 3), (11, 3)):
        for f in formulas:
            assert eval_expr(f, {"p": p, "q": q}) == eval(f, {"__builtins__": {}}, {"p": p, "q": q}), f


def test_order20_row_anchors():
    tables = expected_tables(2, 5)
    # additive Z5 : Z4 with the order-2 action: its cross row against the
    # five multiplicative types reads 2, 2, 2, 2, 4
    row = tables["QbyP2_ordP"]
    assert row.cross == {
        "CyclicP2Q": 2,
        "QbyP2_ordP": 2,
        "QbyP2_ordP2": 2,
        "PxPQ": 2,
        "PxQbyP": 4,
    }
    assert row.total() == 12
    # kernel refinement exists and is exact singletons except two cells
    assert sum(row.by_kernel.values()) == 12
    b_total = sum(t.total() for t in tables.values())
    assert b_total == 32


def test_order28_totals():
    tables = expected_tables(2, 7)
    assert sum(t.total() for t in tables.values()) == 20
    tot = expected_totals(2, 7)
    assert (tot["s"], tot["A"], tot["B"]) == (29, 9, 20)


def test_order63_row_anchors():
    tables = expected_tables(3, 7)
    row = tables["QbyP2_ordP"]
    # cross row of the additive Z7 : Z9 type: 2p cyclic, 2p(p-1) of its own
    assert row.cross == {"CyclicP2Q": 6, "QbyP2_ordP": 12}
    tot = expected_totals(3, 7)
    assert (tot["s"], tot["A"], tot["B"]) == (47, 11, 36)


def test_order75_row_anchors():
    tables = expected_tables(5, 3)
    row = tables["GF"]
    by_k = {}
    for (ksize, m), v in row.by_kernel.items():
        by_k[ksize] = by_k.get(ksize, 0) + v
    assert by_k == {1: 5, 3: 1, 25: 2, 75: 1}
    assert row.total() == 9
    tot = expected_totals(5, 3)
    assert tot["B"] == 9
    assert tot["A"] is None and tot["s"] is None  # no closed form at (5,3)


def test_order147_table2():
    tables = expected_tables(7, 3)
    assert tables["P2SemidirectQ"].total() == 8
    assert tables["Gk(0)"].total() == 24
    assert sum(t.total() for t in tables.values()) == 114


def test_conjecture_formulas():
    assert conjecture_counts(2, 5) == {"s": 43, "A": 11, "B": 32}
    assert conjecture_counts(2, 7) == {"s": 29, "A": 9, "B": 20}
    assert conjecture_counts(2, 13) == {"s": 43, "A": 11, "B": 32}
    assert conjecture_counts(3, 7) == {"s": 47, "A": 11, "B": 36}
    assert conjecture_counts(3, 19) == {"s": 6 * 9 + 18 + 8, "A": 14, "B": 6 * 9 + 12}
    assert conjecture_counts(3, 5) == {"s": 4, "A": 4, "B": 0}
    with pytest.raises(ValueError):
        conjecture_counts(2, 3)
    with pytest.raises(ValueError):
        conjecture_counts(5, 3)  # q < p + 1: outside the stated range
    with pytest.raises(ValueError):
        conjecture_counts(7, 3)


def test_closed_forms_match_table_sums_where_both_exist():
    for p, q in ((2, 5), (2, 7), (2, 13), (3, 7), (3, 19), (3, 5)):
        tot = expected_totals(p, q)
        conj = conjecture_counts(p, q)
        assert tot["B"] == conj["B"]
        if tot["A"] is not None:
            assert tot["A"] == conj["A"]
            assert tot["s"] == conj["s"]

"""Reference enumeration tables for skew braces of size p^2 q.

The tables live here as formula strings in p and q, grouped by arithmetic
regime.  ``expected_tables`` evaluates them for a prime pair and returns,
per nonabelian additive type, the expected orbit counts broken down by
multiplicative type ("cross") and additionally by |ker lambda|
("by_kernel", where available).  ``expected_totals`` adds the closed-form
s/A/B counts with their validity ranges.

Nothing here is computed: these are the target values the enumeration is
checked against, so edits to this module change what "correct" means.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import eval_expr
from .families import _check_primes

__all__ = [
    "regime",
    "expected_tables",
    "expected_totals",
    "conjecture_counts",
    "REGIME_NAMES",
]

REGIME_NAMES = {
    "independent": "no nonabelian groups (q != 1 mod p, p != +-1 mod q)",
    "4q_3mod4": "p = 2, q = 3 mod 4",
    "4q_1mod4": "p = 2, q = 1 mod 4",
    "q1_modp": "p > 2, q = 1 mod p, q != 1 mod p^2",
    "q1_modp2": "p > 2, q = 1 mod p^2",
    "gf": "q | p + 1, q > 2",
    "3p2": "q = 3, p = 1 mod 3",
    "p1_modq": "p = 1 mod q, q > 3",
    "2p2": "q = 2, p odd (Crespo's order 2p^2)",
}


def regime(p: int, q: int) -> str:
    _check_primes(p, q)
    if p * p * q == 12:
        raise ValueError("order 12 mixes regimes; its tables are not encoded")
    if p == 2:
        return "4q_1mod4" if q % 4 == 1 else "4q_3mod4"
    if q % (p * p) == 1:
        return "q1_modp2"
    if q % p == 1:
        return "q1_modp"
    if (p + 1) % q == 0 and q > 2:
        return "gf"
    if p % q == 1:
        return {2: "2p2", 3: "3p2"}.get(q, "p1_modq")
    return "independent"


# Cell values are formula strings in p and q; "-" cells are simply absent.
# by_kernel keys: kernel size expression -> {multiplicative type: formula}.

_QBYP2_ORDP_P_ODD = {
    "p": {"CyclicP2Q": "p-1", "QbyP2_ordP": "p*(p-1)"},
    "p*q": {"CyclicP2Q": "p", "QbyP2_ordP": "p*p-p-1"},
    "p*p": {"CyclicP2Q": "1"},
    "p*p*q": {"QbyP2_ordP": "1"},
}

_PXQBYP_P_ODD = {
    "1": {"PxQbyP": "p-1"},
    "p": {"PxPQ": "1", "PxQbyP": "2*p-1"},
    "q": {"PxQbyP": "p-1"},
    "p*q": {"PxPQ": "2", "PxQbyP": "2*(p-1)"},
    "p*p": {"PxPQ": "1"},
    "p*p*q": {"PxQbyP": "1"},
}

# QbyP2_ordP2 by kernel, shared by the q1_modp2 and 4q_1mod4 regimes
_QBYP2_ORDP2 = {
    "1": {"QbyP2_ordP2": "p*(p-1)"},
    "p": {"QbyP2_ordP": "p-1"},
    "q": {"CyclicP2Q": "1", "QbyP2_ordP": "p-1", "QbyP2_ordP2": "p*(p-2)"},
    "p*p": {"CyclicP2Q": "1"},
    "p*q": {"QbyP2_ordP2": "p-1"},
    "p*p*q": {"QbyP2_ordP2": "1"},
}

_TABLES: dict[str, dict[str, dict]] = {
    "q1_modp": {
        "QbyP2_ordP": {
            "cross": {"CyclicP2Q": "2*p", "QbyP2_ordP": "2*p*(p-1)"},
            "by_kernel": _QBYP2_ORDP_P_ODD,
        },
        "PxQbyP": {
            "cross": {"PxPQ": "4", "PxQbyP": "6*p-4"},
            "by_kernel": _PXQBYP_P_ODD,
        },
    },
    "q1_modp2": {
        "QbyP2_ordP": {
            "cross": {
                "CyclicP2Q": "2*p",
                "QbyP2_ordP": "2*p*(p-1)",
                "QbyP2_ordP2": "2*p*(p-1)",
            },
            "by_kernel": {
                "1": {"QbyP2_ordP2": "p*(p-1)"},
                "p": {"CyclicP2Q": "p-1", "QbyP2_ordP": "p*(p-1)"},
                "q": {"QbyP2_ordP2": "p*(p-1)"},
                "p*p": {"CyclicP2Q": "1"},
                "p*q": {"CyclicP2Q": "p", "QbyP2_ordP": "p*p-p-1"},
                "p*p*q": {"QbyP2_ordP": "1"},
            },
        },
        "QbyP2_ordP2": {
            "cross": {
                "CyclicP2Q": "2",
                "QbyP2_ordP": "2*(p-1)",
                "QbyP2_ordP2": "2*p*(p-1)",
            },
            "by_kernel": _QBYP2_ORDP2,
        },
        "PxQbyP": {
            "cross": {"PxPQ": "4", "PxQbyP": "6*p-4"},
            "by_kernel": _PXQBYP_P_ODD,
        },
    },
    "4q_3mod4": {
        "QbyP2_ordP": {
            "cross": {
                "CyclicP2Q": "2",
                "QbyP2_ordP": "2",
                "PxPQ": "2",
                "PxQbyP": "4",
            },
            "by_kernel": {
                "1": {"PxQbyP": "1"},
                "2": {"PxPQ": "1", "PxQbyP": "1", "QbyP2_ordP": "1"},
                "4": {"CyclicP2Q": "1"},
                "q": {"PxQbyP": "1"},
                "2*q": {"CyclicP2Q": "1", "PxPQ": "1", "PxQbyP": "1"},
                "4*q": {"QbyP2_ordP": "1"},
            },
        },
        "PxQbyP": {
            "cross": {
                "CyclicP2Q": "2",
                "QbyP2_ordP": "2",
                "PxPQ": "2",
                "PxQbyP": "4",
            },
            "by_kernel": {
                "2": {"CyclicP2Q": "1", "PxQbyP": "2", "QbyP2_ordP": "1"},
                "2*q": {"CyclicP2Q": "1", "PxPQ": "1", "PxQbyP": "1", "QbyP2_ordP": "1"},
                "4": {"PxPQ": "1"},
                "4*q": {"PxQbyP": "1"},
            },
        },
    },
    "4q_1mod4": {
        "QbyP2_ordP": {
            "cross": {
                "CyclicP2Q": "2",
                "QbyP2_ordP": "2",
                "QbyP2_ordP2": "2",
                "PxPQ": "2",
                "PxQbyP": "4",
            },
            "by_kernel": {
                "1": {"PxQbyP": "1", "QbyP2_ordP2": "1"},
                "2": {"PxPQ": "1", "PxQbyP": "1", "QbyP2_ordP": "1"},
                "q": {"PxQbyP": "1", "QbyP2_ordP2": "1"},
                "4": {"CyclicP2Q": "1"},
                "2*q": {"CyclicP2Q": "1", "PxPQ": "1", "PxQbyP": "1"},
                "4*q": {"QbyP2_ordP": "1"},
            },
        },
        "QbyP2_ordP2": {
            "cross": {
                "CyclicP2Q": "2",
                "QbyP2_ordP": "2",
                "QbyP2_ordP2": "4",
            },
            "by_kernel": _QBYP2_ORDP2,
        },
        "PxQbyP": {
            "cross": {
                "CyclicP2Q": "2",
                "QbyP2_ordP": "2",
                "QbyP2_ordP2": "2",
                "PxPQ": "2",
                "PxQbyP": "4",
            },
            "by_kernel": {
                "1": {"QbyP2_ordP2": "1"},
                "2": {"CyclicP2Q": "1", "PxQbyP": "2", "QbyP2_ordP": "1"},
                "4": {"PxPQ": "1"},
                "q": {"QbyP2_ordP2": "1"},
                "2*q": {"CyclicP2Q": "1", "PxPQ": "1", "PxQbyP": "1", "QbyP2_ordP": "1"},
                "4*q": {"PxQbyP": "1"},
            },
        },
    },
    "gf": {
        "GF": {
            "cross": {"PxPQ": "2", "GF": "p+2*q-4"},
            "by_kernel": {
                "1": {"GF": "p+q-3"},
                "q": {"PxPQ": "1"},
                "p*p": {"PxPQ": "1", "GF": "q-2"},
                "p*p*q": {"GF": "1"},
            },
        },
    },
    "3p2": {
        "P2SemidirectQ": {
            "cross": {"CyclicP2Q": "4", "P2SemidirectQ": "2*(q-1)"},
            "by_kernel": {
                "1": {"P2SemidirectQ": "q-1"},
                "p": {"CyclicP2Q": "1"},
                "q": {"CyclicP2Q": "2"},
                "p*p": {"CyclicP2Q": "1", "P2SemidirectQ": "q-2"},
                "p*p*q": {"P2SemidirectQ": "1"},
            },
        },
        "Gk(0)": {
            "cross": {"PxPQ": "2", "Gk(0)": "12", "Gk(-1)": "6", "Gk(1)": "4"},
        },
        "Gk(-1)": {
            "cross": {"PxPQ": "3", "Gk(0)": "p+14", "Gk(-1)": "p+8", "Gk(1)": "4"},
        },
        "Gk(1)": {
            "cross": {"PxPQ": "5", "Gk(0)": "16", "Gk(-1)": "10", "Gk(1)": "8"},
        },
    },
    "independent": {},
}


@dataclass(frozen=True)
class ExpectedType:
    """Expected counts for one nonabelian additive type."""

    cross: dict[str, int]
    by_kernel: dict[tuple[int, str], int] | None

    def total(self) -> int:
        return sum(self.cross.values())


def expected_tables(p: int, q: int) -> dict[str, ExpectedType]:
    """Expected counts per nonabelian additive type, keyed by label key."""
    reg = regime(p, q)
    if reg == "p1_modq":
        raise ValueError(
            "tables for p = 1 mod q with q > 3 are not encoded; "
            "only row data for q = 3 is available"
        )
    if reg == "2p2":
        raise ValueError("tables for q = 2 (order 2p^2, Crespo's case) are not encoded")
    env = {"p": p, "q": q}
    out: dict[str, ExpectedType] = {}
    for add_key, spec_ in _TABLES[reg].items():
        cross = {m: v for m, f in spec_["cross"].items() if (v := eval_expr(f, env))}
        bk = None
        if "by_kernel" in spec_:
            bk = {}
            for kexpr, cells in spec_["by_kernel"].items():
                ksize = eval_expr(kexpr, env)
                for m, f in cells.items():
                    v = eval_expr(f, env)
                    if v:
                        bk[(ksize, m)] = v
            # the kernel refinement must add up to the cross row
            sums: dict[str, int] = {}
            for (_, m), v in bk.items():
                sums[m] = sums.get(m, 0) + v
            if sums != cross:
                raise AssertionError(
                    f"inconsistent reference tables for {add_key} at ({p},{q})"
                )
        out[add_key] = ExpectedType(cross=cross, by_kernel=bk)
    return out


def expected_totals(p: int, q: int) -> dict[str, int | None]:
    """Closed-form s/A/B where the formulas are valid; None otherwise.

    B is always derivable by summing the regime tables; A (and hence s) is
    the closed form of ``conjecture_counts``, which holds for p = 2, q >= 5
    and for q > p + 1 > 3.
    """
    reg = regime(p, q)
    b_val = sum(t.total() for t in expected_tables(p, q).values())
    try:
        a_val: int | None = conjecture_counts(p, q)["A"]
    except ValueError:
        a_val = None
    return {
        "s": None if a_val is None else a_val + b_val,
        "A": a_val,
        "B": b_val,
        "regime": reg,
    }


def conjecture_counts(p: int, q: int) -> dict[str, int]:
    """The closed-form counts, raising outside their validity range."""
    _check_primes(p, q)
    if p == 2:
        if q < 5:
            raise ValueError("the 4q formulas need q >= 5")
        if q % 4 == 1:
            return {"s": 43, "A": 11, "B": 32}
        return {"s": 29, "A": 9, "B": 20}
    if not q > p + 1:
        raise ValueError("the p^2 q formulas need q > p + 1 > 3")
    if q % (p * p) == 1:
        return {"s": 6 * p * p + 6 * p + 8, "A": 2 * p + 8, "B": 6 * p * p + 4 * p}
    if q % p == 1:
        return {"s": 2 * p * p + 7 * p + 8, "A": p + 8, "B": 2 * p * p + 6 * p}
    return {"s": 4, "A": 4, "B": 0}

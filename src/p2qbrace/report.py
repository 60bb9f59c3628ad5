"""Classification pipeline driver: counts, table checks, exports, caching.

``classify`` runs the whole chain (group catalog -> holomorph -> regular
subgroups -> orbits) for every additive type of order p^2*q and assembles
a cross table of orbit counts.  One step per additive type gives its
orbit classes: read from its cache file when that file exists, else
enumerated (and written to the file when there is a cache directory).
``verify_tables`` diffs that table against the reference data in
:mod:`p2qbrace.expected`, and ``conjecture`` checks the closed-form
counts.  Reports serialize to json/csv/md; cached orbit representatives
are revalidated on load.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import core
from .braces import _anti_hom
from .core import GroupLabel
from .enumeration import OrbitClass, circle_labels, stratified_orbit_classes
from .expected import conjecture_counts, expected_tables, expected_totals, regime
from .families import all_labels, aut_order, derive_params, family_aut
from .holomorph import Holomorph, HolSubgroup

__all__ = [
    "ClassificationReport",
    "CacheError",
    "classify",
    "verify_tables",
    "conjecture",
    "export",
    "import_cache",
]

CACHE_VERSION = 1

# Per-group budget: skip holomorphs with more elements than this unless
# budget="large".  Covers every order up to 100 with plenty of slack.
NORMAL_HOL_LIMIT = 150_000


class CacheError(ValueError):
    """A cache file is unusable: wrong version, stale params, or bad data."""


@dataclass
class ClassificationReport:
    """Orbit counts per additive type.  Each row holds its cells and their
    sum; the totals A, B and s are sums over the rows, never stored."""

    p: int
    q: int
    regime: str
    params: dict[str, int]
    # label key -> {"display": str, "abelian": bool, "total": int,
    #               "cells": {(mul key, kernel size): count}}
    rows: dict[str, dict] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    complete: bool = True
    skipped: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.p * self.p * self.q

    @property
    def a_total(self) -> int:
        return sum(row["total"] for row in self.rows.values() if row["abelian"])

    @property
    def b_total(self) -> int:
        return sum(row["total"] for row in self.rows.values() if not row["abelian"])

    @property
    def s_total(self) -> int:
        return self.a_total + self.b_total

    def as_dict(self) -> dict:
        rows = {}
        for key, row in self.rows.items():
            rows[key] = {
                "display": row["display"],
                "abelian": row["abelian"],
                "total": row["total"],
                "cells": [
                    {"mul": m, "kernel": k, "count": c}
                    for (m, k), c in sorted(row["cells"].items())
                ],
            }
        return {
            "version": CACHE_VERSION,
            "p": self.p,
            "q": self.q,
            "n": self.n,
            "regime": self.regime,
            "strategy": "stratified",
            "params": self.params,
            "rows": rows,
            "totals": {"A": self.a_total, "B": self.b_total, "s": self.s_total},
            "complete": self.complete,
            "skipped": sorted(self.skipped),
            "timings": {k: round(v, 3) for k, v in self.timings.items()},
        }


def _one_group(args: tuple[int, int, str, str, str | None]) -> tuple[list, float]:
    """The (mul key, kernel size) cells of one additive type and the
    seconds they took: from its cache file when the file exists, else by
    enumeration, writing the file when ``cache_dir`` is set.  Top-level so
    process pools can run it."""
    p, q, key, choice, cache_dir = args
    t0 = time.perf_counter()
    path = None if cache_dir is None else cache_path(cache_dir, p, q, key, choice)
    if path is not None and os.path.exists(path):
        cached = import_cache(path)
        found = (cached["p"], cached["q"], cached["additive"], cached["choice"])
        if found != (p, q, key, choice):
            raise CacheError(
                f"cache file {path} holds (p, q, additive, choice) = {found}, "
                f"looked up {(p, q, key, choice)}"
            )
        classes = cached["classes"]
    else:
        sa = family_aut(p, q, key, choice)
        hol = Holomorph(sa.base, sa.aut)
        classes = stratified_orbit_classes(hol)
        if cache_dir is not None:
            write_cache(cache_dir, p, q, key, choice, hol=hol, classes=classes)
    cells = [(cl.mul_label.key(), cl.kernel_size) for cl in classes]
    return cells, time.perf_counter() - t0


def _hol_order(label: GroupLabel, params) -> int:
    """|Hol(A)| = p^2 q |Aut(A)|, read off the family's closed form."""
    return params.p ** 2 * params.q * aut_order(label, params)


def classify(
    p: int,
    q: int,
    *,
    additive: str | None = None,
    choice: str = "first",
    budget: str = "normal",
    jobs: int = 1,
    cache_dir: str | None = None,
) -> ClassificationReport:
    """Count skew brace classes of size p^2*q per additive/multiplicative type.

    ``additive`` restricts to one additive label key.  Groups whose
    holomorph exceeds the normal budget are skipped (report flagged
    incomplete) unless ``budget="large"``; the gate reads |Hol(A)| =
    p^2 q |Aut(A)| off the family's closed form and builds nothing.
    ``jobs`` > 1 classifies the families in that many worker processes;
    ValueError below 1.  With ``cache_dir`` set, orbit representatives are
    loaded from (or saved to) validated cache files.
    """
    if budget not in ("normal", "large"):
        raise ValueError(f"budget must be 'normal' or 'large', got {budget!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    params = derive_params(p, q, choice)
    try:
        reg = regime(p, q)
    except ValueError:
        reg = "unclassified"
    labels = all_labels(p, q)
    if additive is not None:
        labels = [lb for lb in labels if lb.key() == additive]
        if not labels:
            raise ValueError(f"no additive type {additive!r} at ({p}, {q})")

    report = ClassificationReport(p=p, q=q, regime=reg, params=params.as_dict())
    kept = []
    for label in labels:
        if budget == "normal" and _hol_order(label, params) > NORMAL_HOL_LIMIT:
            report.complete = False
            report.skipped.append(label.key())
        else:
            kept.append(label)

    args = [(p, q, label.key(), choice, cache_dir) for label in kept]
    if jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_one_group, args))
    else:
        results = [_one_group(a) for a in args]
    for label, (cells, secs) in zip(kept, results):
        report.rows[label.key()] = {
            "display": label.display(p, q),
            "abelian": label.family in ("CyclicP2Q", "PxPQ"),
            "total": len(cells),
            "cells": dict(Counter(cells)),
        }
        report.timings[label.key()] = secs
    return report


# -- reference-table comparison ------------------------------------------------


def verify_tables(p: int, q: int, *, choice: str = "first") -> tuple[bool, list[str]]:
    """Diff the computed classification against the reference tables.

    Returns (ok, diff lines); each line names the cell, the expected value
    and the computed one.  Raises for prime pairs whose regime has no
    encoded tables (order 12 in particular).
    """
    exp = expected_tables(p, q)  # raises outside encoded regimes
    totals = expected_totals(p, q)
    report = classify(p, q, choice=choice, budget="large")
    diffs: list[str] = []

    nonabelian = {k: r for k, r in report.rows.items() if not r["abelian"]}
    for add_key in sorted(set(exp) | set(nonabelian)):
        if add_key not in exp:
            diffs.append(f"{add_key}: additive type not in reference tables")
            continue
        if add_key not in nonabelian:
            diffs.append(f"{add_key}: additive type missing from computation")
            continue
        e, row = exp[add_key], nonabelian[add_key]
        cross, cells = _cross(row), row["cells"]
        for m in sorted(e.cross.keys() | cross.keys()):
            diffs += _diff(e.cross.get(m, 0), cross[m], f"{add_key} x {m}")
        if e.by_kernel is not None:
            exp_bk = {(m, k): c for (k, m), c in e.by_kernel.items()}
            for m, k in sorted(exp_bk.keys() | cells.keys()):
                diffs += _diff(exp_bk.get((m, k), 0), cells.get((m, k), 0),
                               f"{add_key} x {m} | ker {k}")
    got = {"B": report.b_total, "A": report.a_total, "s": report.s_total}
    for name, value in got.items():
        if totals[name] is not None:
            diffs += _diff(totals[name], value, f"{name}({report.n})")
    return not diffs, diffs


def _cross(row: dict) -> Counter:
    """A row's counts per multiplicative type, summed over kernel sizes."""
    cross: Counter = Counter()
    for (m, _), c in row["cells"].items():
        cross[m] += c
    return cross


def _diff(expected: int, got: int, name: str) -> list[str]:
    return [] if expected == got else [f"{name}: expected {expected}, got {got}"]


def conjecture(p: int, q: int, *, budget: str = "normal") -> dict:
    """Compare the computed s/A/B with the closed-form counts.

    The formula fields are None when (p, q) sits outside the validity
    range of the closed forms (order 12, or q <= p + 1 for odd p).
    """
    report = classify(p, q, budget=budget)
    if not report.complete:
        raise ValueError(
            f"classification at ({p}, {q}) incomplete under the normal budget; "
            "rerun with budget='large'"
        )
    out = {
        "p": p,
        "q": q,
        "n": report.n,
        "s_computed": report.s_total,
        "A_computed": report.a_total,
        "B_computed": report.b_total,
        "s_formula": None,
        "match": None,
    }
    try:
        formulas = conjecture_counts(p, q)
    except ValueError:
        return out
    out.update({f"{key}_formula": value for key, value in formulas.items()})
    out["match"] = all(out[f"{key}_computed"] == value for key, value in formulas.items())
    return out


# -- serialization ---------------------------------------------------------------


def export(report: ClassificationReport, fmt: str, path: str | None = None) -> str:
    """Serialize a report as json, csv, or md; optionally write it to path."""
    if fmt == "json":
        text = json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        lines = ["additive,multiplicative,kernel_size,count"]
        for add_key in sorted(report.rows):
            row = report.rows[add_key]
            for (m, k), c in sorted(row["cells"].items()):
                lines.append(f"{add_key},{m},{k},{c}")
        text = "\n".join(lines) + "\n"
    elif fmt == "md":
        text = _markdown_tables(report)
    else:
        raise ValueError(f"unknown format {fmt!r}; pick json, csv, or md")
    if path is not None:
        _atomic_write(path, text)
    return text


def _markdown_tables(report: ClassificationReport) -> str:
    p, q = report.p, report.q
    keys = [lb.key() for lb in all_labels(p, q)]
    summary = (f"s = {report.s_total}, abelian additive type A = {report.a_total}, "
               f"nonabelian additive type B = {report.b_total}")
    if not report.complete:
        summary += f" (incomplete; skipped: {', '.join(report.skipped)})"
    out = [f"# Skew braces of size {report.n} (p={p}, q={q})", "", summary + ".", ""]
    for title, abelian in (("abelian", True), ("nonabelian", False)):
        rows = [report.rows[k] for k in keys
                if k in report.rows and report.rows[k]["abelian"] == abelian]
        if not rows:
            continue
        crosses = [_cross(row) for row in rows]
        mul_keys = [k for k in keys if any(k in cross for cross in crosses)]
        disp = [GroupLabel.from_key(mk).display(p, q) for mk in mul_keys]
        out += [f"## Additive type {title}", "",
                "| additive \\ multiplicative | " + " | ".join(disp) + " | total |",
                "|---" * (len(mul_keys) + 2) + "|"]
        for row, cross in zip(rows, crosses):
            cells = " | ".join(str(cross[m] or "-") for m in mul_keys)
            out.append(f"| {row['display']} | {cells} | {row['total']} |")
        out.append("")
    return "\n".join(out)


def _atomic_write(path: str, text: str) -> None:
    """Write through a temporary file, which a failed write removes."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# -- orbit cache -----------------------------------------------------------------


def cache_path(cache_dir: str, p: int, q: int, key: str, choice: str) -> str:
    safe = key.replace("(", "_").replace(")", "").replace("-", "m")
    return os.path.join(cache_dir, f"orbits_{p}x{q}_{safe}_{choice}.json")


def write_cache(
    cache_dir: str,
    p: int,
    q: int,
    key: str,
    choice: str,
    *,
    hol: Holomorph,
    classes: list[OrbitClass],
) -> str:
    """Store the orbit classes of one additive type, enumerated in ``hol``,
    on disk.

    The classes come from ``stratified_orbit_classes``, which already built
    the circle table of every representative to label it
    (``enumeration.circle_labels``), and ``import_cache`` re-checks
    everything on load, so this builds no brace and no circle group: the
    bi-skew flags are read off the lambda rows alone, all classes as one
    stack (``_biskew_flags``).  The text is formatted directly, byte for
    byte the layout of ``json.dumps(payload, sort_keys=True, indent=1) +
    "\n"``: the scalar fields from ``json.dumps`` around one block per
    orbit and one ``[a, f]`` block per pair.
    """
    os.makedirs(cache_dir, exist_ok=True)
    header = {
        "version": CACHE_VERSION,
        "p": p,
        "q": q,
        "additive": key,
        "choice": choice,
        "params": derive_params(p, q, choice).as_dict(),
        "orbits": 0,  # the orbits text goes where this placeholder stands
    }
    head, tail = json.dumps(header, sort_keys=True, indent=1).split('"orbits": 0', 1)
    flags = _biskew_flags(hol, np.array([cl.rep.lam for cl in classes], dtype=np.int32))
    orbits = []
    for cl, flag in zip(classes, flags):
        pairs = ",\n".join(f"    [\n     {a},\n     {f}\n    ]" for a, f in enumerate(cl.rep.lam))
        biskew = "true" if flag else "false"
        orbits.append(
            f'  {{\n   "biskew": {biskew},\n   "mul_label": {json.dumps(cl.mul_label.key())},\n'
            f'   "pi2_size": {int(cl.pi2_size)},\n   "rep": [\n{pairs}\n   ]\n  }}'
        )
    body = "[\n" + ",\n".join(orbits) + "\n ]" if orbits else "[]"
    path = cache_path(cache_dir, p, q, key, choice)
    _atomic_write(path, f'{head}"orbits": {body}{tail}\n')
    return path


def _biskew_flags(hol: Holomorph, lams: np.ndarray) -> list[bool]:
    """The bi-skew flag of each lambda table of the (R, n) stack ``lams``:
    ``braces._anti_hom`` on its automorphism rows, a chunk of
    max(1, ``core.CHUNK_CELLS`` // n^2) tables at a time."""
    n = hol.base.n
    step = max(1, core.CHUNK_CELLS // (n * n))
    return [flag for lo in range(0, len(lams), step)
            for flag in _anti_hom(hol.base, hol.aut.perms[lams[lo:lo + step]]).tolist()]


def import_cache(path: str) -> dict:
    """Load and revalidate a cached orbit file, in two phases.

    The header must name ints p and q, strings for the family, and a list
    of orbits, for a family that exists with the stored params; each fault
    raises CacheError.  Phase one checks the structure of every orbit, in
    file order: an object whose ``rep`` is n pairs (a, f) of ints, each
    in range, with pi1 bijective onto A, so that the pairs are a lambda
    table, and no table met before.  Phase two recomputes, over the stack
    of all tables a chunk at a time (``enumeration.circle_labels`` and
    ``braces._anti_hom``), whether each table is closed (a closed finite
    non-empty subset of a group is a subgroup), its multiplicative label
    and its bi-skew flag, the flag by the same kernel that ``write_cache``
    uses.  Then, orbit by orbit in file order, it compares the closure,
    the label, the pi2 size (an int) and the flag, in that order.  So the
    first fault of phase one is raised if there is one, else the first
    fault of phase two, rather than silently reusing poisoned data.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheError(f"unreadable cache file {path}: {exc}") from exc
    kinds = {"version": int, "p": int, "q": int, "additive": str, "choice": str,
             "params": dict, "orbits": list}
    for name, kind in kinds.items():
        # type, not isinstance: bool is an int subclass, and not an int here
        if not isinstance(payload, dict) or type(payload.get(name)) is not kind:
            raise CacheError(f"cache file {path} lacks field {name!r} of type {kind.__name__}")
    if payload["version"] != CACHE_VERSION:
        raise CacheError(
            f"cache version {payload['version']} != expected {CACHE_VERSION}"
        )
    p, q, key, choice = (payload[name] for name in ("p", "q", "additive", "choice"))
    try:
        sa = family_aut(p, q, key, choice)
    except ValueError as exc:
        raise CacheError(f"cache file {path}: {exc}") from exc
    params = sa.params
    if params.as_dict() != payload["params"]:
        raise CacheError(f"cache params {payload['params']} are stale")
    n, hol = sa.base.n, Holomorph(sa.base, sa.aut)

    subs: list[HolSubgroup] = []
    seen: set[HolSubgroup] = set()
    for entry in payload["orbits"]:
        pairs = entry.get("rep") if isinstance(entry, dict) else None
        if not (isinstance(pairs, list) and len(pairs) == n and set(map(type, pairs)) == {list}
                and set(map(len, pairs)) == {2}):
            raise CacheError(f"cached subgroup is not a list of {n} pairs (a, f) of ints")
        flat = list(chain.from_iterable(pairs))
        # type, not isinstance, as above: true is not the element 1
        if set(map(type, flat)) != {int}:
            raise CacheError(f"cached subgroup is not a list of {n} pairs (a, f) of ints")
        a, f = flat[0::2], flat[1::2]
        if min(a) < 0 or max(a) >= n or min(f) < 0 or max(f) >= hol.n_aut:
            raise CacheError("cached element out of range")
        lam = dict(pairs)
        if len(lam) != n:
            raise CacheError("cached subgroup: not a regular subgroup: pi1 is not a bijection onto A")
        sub = HolSubgroup(tuple(map(lam.__getitem__, range(n))))
        if sub in seen:
            raise CacheError("cached orbit representatives are not distinct")
        seen.add(sub)
        subs.append(sub)

    lams = np.array([sub.lam for sub in subs], dtype=np.int32).reshape(len(subs), n)
    labels, flags = circle_labels(hol, lams), _biskew_flags(hol, lams)
    classes: list[OrbitClass] = []
    for entry, sub, mul_label, flag in zip(payload["orbits"], subs, labels, flags):
        if mul_label is None:
            raise CacheError("cached element set is not a subgroup: "
                             "lambda table is not closed under multiplication")
        if mul_label.key() != entry.get("mul_label"):
            raise CacheError(
                f"cached label {entry.get('mul_label')} != recomputed {mul_label.key()}"
            )
        size = entry.get("pi2_size")
        if type(size) is not int or sub.pi2_size != size:
            raise CacheError("cached pi2 size is not the int size of the recomputed pi2")
        if entry.get("biskew") is not flag:
            raise CacheError(f"cached biskew flag {entry.get('biskew')!r} != recomputed {flag}")
        classes.append(OrbitClass(rep=sub, orbit_size=None, mul_label=mul_label))
    return {"p": p, "q": q, "additive": key, "choice": choice,
            "params": params, "classes": classes}

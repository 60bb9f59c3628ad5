"""Span tracing of p2qbrace from outside the package.

``Tracer.install`` replaces each traced function, in every ``p2qbrace``
module namespace that holds it (the defining module and every module that
imported the name), with a wrapper that records a span: id, parent id,
name, start and end.  Calls made through those names, including calls
inside the package, are therefore seen without editing the package.
Methods are wrapped on their class.  ``uninstall`` restores the originals.

Spans stay in memory until ``write`` dumps them.  Self time of a span is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute); the module is the layer, and an attribute
# "Class.method" wraps a method.
TRACED = (
    ("families", "build_group"),
    ("families", "structured_aut"),
    ("core", "compute_automorphisms"),
    ("core", "subgroups_of_order"),
    ("core", "identify_p2q"),
    ("holomorph", "closure_packed"),
    ("holomorph", "Holomorph.conjugate_subgroup"),
    ("holomorph", "aut_subgroup_classes"),
    ("enumeration", "stratified_orbit_classes"),
    ("enumeration", "circle_group"),
    ("braces", "brace_from_regular"),
    ("braces", "check_axioms"),
    ("braces", "invariants"),
    ("braces", "is_bi_skew"),
    ("ybe", "solution_from_brace"),
    ("ybe", "check_ybe"),
    ("ybe", "check_nondegenerate"),
    ("ybe", "is_involutive"),
    ("ybe", "export_solution"),
    ("report", "classify"),
    ("report", "write_cache"),
    ("report", "import_cache"),
    ("catalog", "verify_catalog"),
    ("catalog", "evaluate_witness"),
)

SPAN_NAMES = tuple(f"{module}.{attr.split('.')[-1]}" for module, attr in TRACED)


def _closure_packed_counts(counts, args, result):
    hol = args[0]
    if result is not None and len(result) == hol.base.n:
        counts["holomorph.closure_packed.full"] += 1


def _orbit_counts(counts, args, result):
    counts["enumeration.orbit_classes"] += len(result)
    counts["enumeration.regular_subgroups"] += sum(cl.orbit_size for cl in result)


def _ybe_bytes(counts, args, result):
    # computed, not measured: one n^3 table of 64-bit integers per call
    counts["ybe.check_ybe.bytes_computed"] += args[0].n ** 3 * 8


RESULT_COUNTERS = {
    "holomorph.closure_packed": _closure_packed_counts,
    "enumeration.stratified_orbit_classes": _orbit_counts,
    "ybe.check_ybe": _ybe_bytes,
}


class Tracer:
    """Records spans around the traced p2qbrace functions while installed."""

    ROOT = 0

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._stack = [self.ROOT]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        clock = time.perf_counter
        on_result = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "p2qbrace" or key.startswith("p2qbrace."))
        ]
        for (module, attr), name in zip(TRACED, SPAN_NAMES):
            home = importlib.import_module(f"p2qbrace.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @staticmethod
    def span_cost(samples: int = 20000, repeats: int = 5) -> float:
        """Seconds the wrapper adds to one call, best of ``repeats`` on a no-op."""

        def noop():
            return None

        wrapped = Tracer()._wrap("probe", noop)
        clock = time.perf_counter
        best = float("inf")
        for _ in range(repeats):
            t0 = clock()
            for _ in range(samples):
                noop()
            t1 = clock()
            for _ in range(samples):
                wrapped()
            t2 = clock()
            best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
        return best

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return out

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(SPAN_NAMES, 0)
        for _, _, name, _, _ in self.spans:
            out[name] += 1
        return out

    def write(self, path) -> None:
        """Dump spans as gzipped JSON lines: id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

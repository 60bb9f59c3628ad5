"""The benchmark tracer's (module, attribute) names still exist in the package.

``perfbench/tracer.py`` wraps functions by name; a refactor that renames or
deletes one of them would break the traced benchmark run, so it fails here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    assert tracer.TRACED
    for module, attr in tracer.TRACED:
        home = importlib.import_module(f"p2qbrace.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = getattr(home, cls_name).__dict__.get(meth)
        else:
            target = getattr(home, attr, None)
        assert callable(target), f"{module}.{attr} is not a function of p2qbrace"


def test_every_result_counter_feeds_on_a_traced_span():
    # a counter keyed by a span name that no longer exists would read 0
    tracer = load_tracer()
    assert tracer.RESULT_COUNTERS
    for name in tracer.RESULT_COUNTERS:
        assert name in tracer.SPAN_NAMES, f"counter {name} has no traced span"

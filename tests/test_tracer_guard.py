"""The benchmark tracer wraps package functions by name; keep those names.

``perfbench/tracer.py`` looks every span up with ``vars(owner)[name]``, so a
renamed or deleted function would only surface as a KeyError in a traced
benchmark run.  This test fails on the rename instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    tracer = _load_tracer()
    assert set(tracer.SPANS) == set(tracer.LAYERS)
    missing = []
    for layer, groups in tracer.SPANS.items():
        mod = importlib.import_module(f"cantordim.{layer}")
        for owner_name, attrs in groups:
            owner = getattr(mod, owner_name, None) if owner_name else mod
            for attr in attrs:
                if owner is None or attr not in vars(owner):
                    missing.append(f"{layer}.{owner_name}.{attr}".replace("..", "."))
    assert missing == []


def test_tracer_counter_hooks_resolve():
    # the construction counters and the CLI dispatch table it patches
    hfun = importlib.import_module("cantordim.hfun")
    cli = importlib.import_module("cantordim.cli")
    assert "__init__" in vars(hfun.DyadicHFn)
    assert "make_budget" in vars(cli.RunConfig)
    assert set(cli.COMMANDS) == {"dim", "measure", "verify", "cover", "witness"}

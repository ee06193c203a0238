"""Every probe of the benchmark's tracer names a function that exists.

``perfbench/spans.py`` skips a probe whose function is gone, and its
per-layer metrics then read 0 with no error; ``pytest perfbench`` is not
part of this suite, so the names are resolved here, the way the tracer
resolves them: the attribute must be defined on its class or module
itself."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves():
    spans = _spans()
    missing = []
    for _, module, path, _, _ in spans.PROBES:
        mod = importlib.import_module(f"{spans.PACKAGE}.{module}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert not missing, f"probes naming no function: {missing}"

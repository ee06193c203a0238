"""Per-layer tracing of katz_forge from outside the package.

The tracer wraps functions and methods at the boundaries of the package's
modules (its layers).  A method is wrapped on its class; a module-level
function is replaced in every katz_forge module that holds it, so calls
through `from .x import f` are seen too.  A name that no longer exists is
recorded in `absent` and skipped: its metrics read 0.

Each wrapped call is a span (probe, start, end, parent, job).  A layer's
self time is the time inside its spans minus the time of the spans nested
in them.  Spans of coarse probes are kept in memory (up to MAX_SPANS) and
written when the worker ends; hot probes, which run hundreds of thousands
of times per job, only add to their totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "katz_forge"
MAX_SPANS = 200_000

# (layer, module, attribute path, hot, timer group)
# The timer group names an inclusive time: time is added when the outermost
# call of any probe in the group returns.
PROBES = (
    ("scalars", "scalars", "Cyclotomic.__add__", True, None),
    ("scalars", "scalars", "Cyclotomic.__sub__", True, None),
    ("scalars", "scalars", "Cyclotomic.__mul__", True, None),
    ("scalars", "scalars", "Cyclotomic.inverse", True, None),
    ("scalars", "scalars", "Scalar.make", True, None),
    ("scalars", "scalars", "Scalar.__add__", True, None),
    ("scalars", "scalars", "Scalar.__mul__", True, None),
    ("scalars", "scalars", "Scalar.__truediv__", True, None),
    ("scalars", "scalars", "Scalar.__pow__", True, None),
    ("scalars", "scalars", "poly_gcd", True, None),
    ("scalars", "scalars", "render_scalar", True, None),
    ("scalars", "scalars", "Scalar.root", False, "root"),
    ("scalars", "scalars", "parse_scalar", False, "parse"),
    ("scalars", "scalars", "parse_eigenvalue", False, "parse"),
    ("jordan", "jordan", "JordanData.make", True, None),
    ("jordan", "jordan", "JordanData.__add__", True, None),
    ("jordan", "jordan", "JordanData.tensor", False, None),
    ("jordan", "jordan", "JordanData.exterior", False, None),
    ("jordan", "jordan", "JordanData.push", True, None),
    ("jordan", "jordan", "JordanData.pull", True, None),
    ("jordan", "jordan", "JordanData.dual", True, None),
    ("jordan", "jordan", "JordanData.scale", True, None),
    ("jordan", "jordan", "JordanData.centralizer_dim", True, None),
    ("jordan", "jordan", "JordanData.invariants_dim", True, None),
    ("jordan", "jordan", "parse_jordan", False, None),
    ("elementary", "elementary", "ElementaryModule.make", True, None),
    ("elementary", "elementary", "ElementaryModule.normalize", True, "normalize"),
    ("elementary", "elementary", "ElementaryModule.dual", True, None),
    ("elementary", "elementary", "ElementaryModule.det", True, None),
    ("elementary", "elementary", "ElementaryModule.pullback", False, None),
    ("elementary", "elementary", "el_hom", True, "el_hom"),
    ("elementary", "elementary", "parse_elementary", False, None),
    ("formal_type", "formal_type", "FormalType.make", True, None),
    ("formal_type", "formal_type", "FormalType.end", False, "end"),
    ("formal_type", "formal_type", "FormalType.checks", False, None),
    ("formal_type", "formal_type", "FormalType.formal_monodromy", False, None),
    ("formal_type", "formal_type", "FormalType.exponential_torus_dim", False, "torus_dim"),
    ("formal_type", "formal_type", "FormalType.tensor", False, None),
    ("formal_type", "formal_type", "FormalType.exterior_cube", False, "exterior_cube"),
    ("formal_type", "formal_type", "parse_formal_type", False, None),
    ("formal_type", "formal_type", "formal_type_from_json", False, None),
    ("formal_type", "formal_type", "formal_type_to_json", False, None),
    ("fourier", "fourier", "vanishing_data", False, "fourier"),
    ("fourier", "fourier", "nearby_from_vanishing", False, "fourier"),
    ("fourier", "fourier", "sabbah_transform_raw", False, "fourier"),
    ("fourier", "fourier", "lft_zero_to_inf", False, "fourier"),
    ("fourier", "fourier", "lft_shifted", False, "fourier"),
    ("fourier", "fourier", "epsilon_twist_inf", False, "fourier"),
    ("fourier", "fourier", "lft_inf_to_s", False, "fourier"),
    ("engine", "engine", "ConnectionDescriptor.make", False, None),
    ("engine", "engine", "rigidity_index", False, "rigidity_index"),
    ("engine", "engine", "euler_char_middle", False, None),
    ("engine", "engine", "op_twist", False, "op_twist"),
    ("engine", "engine", "op_moebius", False, "op_moebius"),
    ("engine", "engine", "op_fourier", False, "op_fourier"),
    ("engine", "engine", "op_middle_convolution", False, "op_mc"),
    ("engine", "engine", "stationary_phase", False, None),
    ("engine", "engine", "fourier_rank", False, None),
    ("engine", "engine", "run_script", False, None),
    ("engine", "engine", "parse_script", False, None),
    ("engine", "engine", "descriptor_from_json", False, "json"),
    ("engine", "engine", "descriptor_to_json", False, "json"),
    ("engine", "engine", "load_descriptor", False, "json"),
    ("classify", "classify", "enumerate_slope_profiles", False, None),
    ("classify", "classify", "enumerate_local_invariants", False, None),
    ("classify", "classify", "computed_local_invariants", False, None),
    ("classify", "classify", "table_audit", False, "table_audit"),
    ("classify", "classify", "solve_rigidity_tuples", False, None),
    ("classify", "classify", "g2_pattern_check", False, None),
    ("classify", "classify", "classification_descriptor", False, None),
    ("classify", "classify", "verify_row", False, None),
    ("classify", "classify", "verify_classification", False, "verify"),
    ("classify", "classify", "kummer_pullback_descriptor", False, None),
    ("classify", "classify", "pullback_identities", False, "pullback"),
    ("cli", "cli", "main", False, None),
    ("cli", "formal_type", "render_formal_type", False, "render"),
    ("cli", "engine", "render_location", False, "render"),
)

LAYERS = ("scalars", "jordan", "elementary", "formal_type", "fourier",
          "engine", "classify", "cli")


class Tracer:
    """Installs the probes, keeps per-probe totals and the span list."""

    def __init__(self):
        self.absent: list = []
        self.names: list = []
        self.layer_of: list = []
        self.calls: list = []
        self.self_s: list = []
        self.group_s: dict = {}
        self.group_depth: dict = {}
        self.stack: list = []          # [probe index, start, child seconds]
        self.spans: list = []          # [probe index, start, end, parent span, job]
        self.open_spans: list = []     # span indices of the open coarse spans
        self.dropped = 0
        self.job = None                # id of the running job, set by the worker
        # counters that need the arguments: normalize and Cyclotomic.__mul__
        self.normalize_noop = 0
        self.normalize_seen: set = set()
        self.normalize_repeat = 0
        self.mul_seen: set = set()
        self.mul_repeat = 0
        self._restore: list = []

    # -- installing ---------------------------------------------------------
    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        for layer, module, path, hot, group in PROBES:
            name = f"{module}.{path}"
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                self.absent.append(name)
                continue
            idx = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
            self.self_s.append(0.0)
            if group is not None:
                self.group_s.setdefault(group, 0.0)
                self.group_depth.setdefault(group, 0)
            raw = vars(owner)[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = self._wrap(fn, idx, hot, group, path)
            if owner_name:
                # every class attribute bound to the function (e.g. __radd__)
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        self._restore.append((owner, key, value))
                        setattr(owner, key, staticmethod(wrapper) if is_static else wrapper)
            else:
                for m in self._modules():
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._restore.append((m, key, value))
                            setattr(m, key, wrapper)

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, fn, idx, hot, group, path):
        clock = time.perf_counter
        stack = self.stack
        calls = self.calls
        self_s = self.self_s
        group_s = self.group_s
        group_depth = self.group_depth
        spans = self.spans
        open_spans = self.open_spans
        tracer = self
        special = {"ElementaryModule.normalize": self._on_normalize,
                   "Cyclotomic.__mul__": self._on_cyc_mul}.get(path)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[idx] += 1
            if group is not None:
                group_depth[group] += 1
            if not hot:
                if len(spans) < MAX_SPANS:
                    parent = open_spans[-1] if open_spans else -1
                    open_spans.append(len(spans))
                    spans.append([idx, 0.0, 0.0, parent, tracer.job])
                else:
                    tracer.dropped += 1
                    open_spans.append(-1)
            frame = [idx, 0.0, 0.0]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[idx] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if group is not None:
                    group_depth[group] -= 1
                    if group_depth[group] == 0:
                        group_s[group] += dur
                if not hot:
                    si = open_spans.pop()
                    if si >= 0:
                        spans[si][1] = start
                        spans[si][2] = end
            if special is not None:
                special(args, result)
            return result

        return wrapper

    def _on_normalize(self, args, result):
        key = hash(args[0])
        if key in self.normalize_seen:
            self.normalize_repeat += 1
        else:
            self.normalize_seen.add(key)
        if result == args[0]:
            self.normalize_noop += 1

    def _on_cyc_mul(self, args, result):
        key = hash((args[0], args[1]))
        if key in self.mul_seen:
            self.mul_repeat += 1
        else:
            self.mul_seen.add(key)

    # -- results --------------------------------------------------------------
    def totals(self) -> dict:
        """Raw per-worker totals; run.py sums them over workers and turns
        them into metrics."""
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, layer in enumerate(self.layer_of):
            layer_self[layer] += self.self_s[i]
        return {
            "self_ms": {k: v * 1000.0 for k, v in layer_self.items()},
            "group_ms": {k: v * 1000.0 for k, v in self.group_s.items()},
            "calls": dict(zip(self.names, self.calls)),
            "normalize_noop": self.normalize_noop,
            "normalize_repeat": self.normalize_repeat,
            "cyclotomic_mul_repeat": self.mul_repeat,
            "spans": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            json.dump({"probes": self.names, "layers": self.layer_of,
                       "absent": self.absent, "dropped": self.dropped,
                       "fields": ["probe", "start_s", "end_s", "parent", "job"],
                       "spans": self.spans}, fh)

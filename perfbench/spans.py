"""Span tracer for the traced run, recorded from the benchmark's own files.

Every public function of the eight layer modules is wrapped wherever it is
bound in a `spinorspace.*` module namespace, so calls made inside `verify`
or `fixtures` are seen too. The value types are timed through their
`__post_init__` validation hooks. Each span records its name, start, end and
parent span; spans stay in memory (flat arrays) and are written out when the
run ends. Self time is a span's duration minus the time its child spans
cover (children of one span never overlap: the load is single-threaded).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("core", "spinor_maps", "rotation_algebra", "ks_covariance", "gauge_fixing",
          "fixtures", "verify", "cli")
ROOT = "bench.op"

# Functions whose inclusive time per call the traced run reports.
TIMED_FUNCTIONS = {
    "core": ("Spinor", "KSQuadruple", "SpinorRotation", "compose", "scaled_residual"),
    "spinor_maps": ("xi_from_cartesian", "eta_from_cartesian", "project_xi", "project_eta",
                    "u_to_v"),
    "rotation_algebra": ("so3_from_rotation", "su2_real4", "extract_so3", "rotate_spinor"),
    "ks_covariance": ("direction_from_ks", "build_frame", "frame_symmetry", "left_transport"),
    "gauge_fixing": ("psi_from_direction", "canonical_phase_plus", "rotation_between",
                     "stabilizer_check"),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self.stack = [-1]
        self.last_error = None
        self._patched = []

    def _id(self, name, layer):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def wrap(self, fn, name, layer):
        nid = self._id(name, layer)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        errors, stack, clock = self.error, self.stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            errors.append(0)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # Count an exception once, in the span it left first.
                if exc is not tracer.last_error:
                    tracer.last_error = exc
                    errors[index] = 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def root(self, fn):
        """Wrap one benchmark op, the parent of the layer spans it causes."""
        return self.wrap(fn, ROOT, "bench")

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spinorspace.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(value) and "__post_init__" in vars(value):
                    hook = vars(value)["__post_init__"]
                    self._patched.append((value, "__post_init__", hook))
                    setattr(value, "__post_init__", self.wrap(hook, name, layer))
                elif inspect.isfunction(value):
                    wrappers[value] = self.wrap(value, name, layer)
        for module_name, module in list(sys.modules.items()):
            if module_name != "spinorspace" and not module_name.startswith("spinorspace."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.last_error = None

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        error = np.frombuffer(self.error, dtype=np.int8)
        return name, parent, start, end, error

    def summary(self):
        """Per-layer calls, self time, self share and errors; per-function us/call."""
        name, parent, start, end, error = self._arrays()
        duration = (end - start).astype(float)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=name.size)
        self_ns = duration - covered
        layer_index = {layer: i for i, layer in enumerate(LAYERS + ("bench",))}
        span_layer = np.array([layer_index[self.layer_of[i]] for i in range(len(self.names))],
                              dtype=np.int64)[name] if name.size else np.zeros(0, dtype=np.int64)
        total = float(duration[~child].sum()) or 1.0
        out = {}
        for layer in LAYERS:
            mine = span_layer == layer_index[layer]
            out[f"{layer}.calls"] = int(mine.sum())
            out[f"{layer}.self_s"] = float(self_ns[mine].sum() / 1e9)
            out[f"{layer}.self_share"] = float(self_ns[mine].sum() / total)
            out[f"{layer}.errors"] = int(error[mine].sum())
        for layer, functions in TIMED_FUNCTIONS.items():
            for fn in functions:
                key = f"{layer}.{fn}"
                nid = self._ids.get(key)
                calls = duration[name == nid] if nid is not None else duration[:0]
                out[f"{key}.us_per_call"] = float(calls.mean() / 1e3) if calls.size else 0.0
        return out

    def save(self, path):
        name, parent, start, end, error = self._arrays()
        np.savez(path, name=name, parent=parent, start_ns=start, end_ns=end, error=error,
                 names=np.array(json.dumps(self.names)),
                 layers=np.array(json.dumps(self.layer_of)))

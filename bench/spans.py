"""Outside-in tracing of the ferasec layers.

:class:`Tracer` wraps every public function of each layer module and
patches the wrapper into every ``ferasec`` module namespace that holds
the function, because the package imports names into its calling
modules (``ferasec.harness.extract_features``,
``ferasec.features.rms_envelope`` and so on).  Nothing under ``src/``
changes.

Each call records a span (id, name, start, end, parent span, workload
id).  Spans stay in memory and are written out once, when the run ends.
The workload id is set by the caller; all spans of one set-up, one LOOCV
pass or one streamed item share it.  Self time is a span's duration minus the
durations of its direct children; with integer nanosecond clocks it
cannot be negative.

Some functions also feed work counters computed from their arguments,
results or output files (DTW cells, MLP rows and matmul FLOPs, feature
samples, bytes read and written).  Counts repeat exactly run to run for
a given seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from spec import LAYERS


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dtw_cells(args, kwargs, result):
    x, y = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y")
    return {"dtw.cells": np.shape(x)[1] * np.shape(y)[1]}


def _feature_samples(args, kwargs, result):
    raw = _arg(args, kwargs, 0, "raw")
    return {"features.samples": raw.m * raw.n}


def _matmul_dims(params) -> tuple[int, int]:
    """Sum of fan_in * fan_out over the layers, and that of the first layer."""
    dims = [w.shape for w, _ in params]
    return sum(a * b for a, b in dims), dims[0][0] * dims[0][1]


def _backprop_work(args, kwargs, result):
    rows = np.shape(_arg(args, kwargs, 1, "inputs"))[0]
    total, first = _matmul_dims(_arg(args, kwargs, 0, "params"))
    # Forward and weight-gradient matmuls on every layer, input-gradient
    # matmuls on all but the first: 2 FLOPs per multiply-add.
    return {"hmm.mlp_backprop.rows": rows, "hmm.mlp_backprop.flop": 2 * rows * (3 * total - first)}


def _posterior_rows(args, kwargs, result):
    return {"hmm.mlp_log_posteriors.rows": int(result.shape[0])}


def _design_matrix(args, kwargs, result):
    corpus = _arg(args, kwargs, 0, "corpus")
    rows = sum(np.shape(m)[1] for m, _ in corpus)
    cols = np.shape(corpus[0][0])[0] * result.config.context_window
    return {"hmm.train.design_bytes": rows * cols * 8}  # float64 spliced inputs


def _file_bytes(key, index, name):
    def count(args, kwargs, result):
        return {key: os.path.getsize(_arg(args, kwargs, index, name))}

    return count


COUNTERS = {
    "dtw.mddtw_distance": _dtw_cells,
    "features.extract_features": _feature_samples,
    "hmm.mlp_backprop": _backprop_work,
    "hmm.mlp_log_posteriors": _posterior_rows,
    "hmm.train": _design_matrix,
    "frames.load_frameset": _file_bytes("frames.load_frameset.bytes", 0, "path"),
    "frames.store_frameset": _file_bytes("frames.store_frameset.bytes", 1, "path"),
    "features.load_features": _file_bytes("features.load_features.bytes", 0, "path"),
    "features.store_features": _file_bytes("features.store_features.bytes", 1, "path"),
}


def layer_functions() -> dict[str, object]:
    """``"<layer>.<function>"`` -> function, for every public function of each layer."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ferasec.{layer}")
        for name, obj in vars(module).items():
            public = not name.startswith("_")
            if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Span recorder for one worker process; see the module docstring.

    One span stack and unlocked totals: the benchmark leaves
    ``FERASEC_THREADS`` at its default, so ferasec calls come from one thread.
    """

    def __init__(self) -> None:
        self.unit = ""  # workload id of the spans that follow
        self.phase = ""
        self.spans: list[tuple] = []
        self.functions = layer_functions()
        # (phase, "<layer>.<function>") -> [calls, busy_ns, self_ns]
        self._time = defaultdict(lambda: [0, 0, 0])
        self._counts = defaultdict(int)  # (phase, counter) -> total
        self._ids = itertools.count(1)
        self._stack: list[list[int]] = []  # [span id, child ns] of each open span
        self._patched: list[tuple[object, str, object]] = []

    def start_unit(self, phase: str, unit: str) -> None:
        """Tag the spans that follow with ``phase`` (setup or pass) and a unit id."""
        self.phase = phase
        self.unit = unit

    def _wrap(self, qualname: str, fn):
        counter = COUNTERS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]  # id, nanoseconds covered by child spans
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                phase = tracer.phase
                tracer.spans.append((span_id, qualname, start, end, parent, tracer.unit))
                agg = tracer._time[(phase, qualname)]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer._counts[(phase, key)] += value
            return result

        return traced

    def install(self) -> None:
        """Patch the wrappers in wherever a ferasec module looks a function up."""
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in self.functions.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ferasec" and not mod_name.startswith("ferasec."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def summary(self, per_phase: dict[str, int]) -> dict[str, float]:
        """Per-layer figures for one workload execution.

        ``per_phase`` maps each phase to how many times it ran (set-ups,
        timed passes); each phase's totals are divided by that, so the
        figures describe one set-up plus one timed pass.
        """
        out: dict[str, float] = {}
        for name in self.functions:
            calls = busy = self_ns = 0.0
            for phase, runs in per_phase.items():
                c, b, s = self._time.get((phase, name), (0, 0, 0))
                calls += c / runs
                busy += b / runs
                self_ns += s / runs
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = busy / 1e9
            out[f"{name}.self_s"] = self_ns / 1e9
        totals: dict[str, float] = defaultdict(float)
        for (phase, key), value in self._counts.items():
            totals[key] += value / per_phase[phase]
        out["dtw.cells"] = totals["dtw.cells"]
        busy = out["dtw.mddtw_distance.busy_s"]
        out["dtw.cells_per_s"] = totals["dtw.cells"] / busy if busy > 0 else 0.0
        out["features.samples"] = totals["features.samples"]
        out["hmm.mlp_backprop.rows"] = totals["hmm.mlp_backprop.rows"]
        out["hmm.mlp_backprop.gflop"] = totals["hmm.mlp_backprop.flop"] / 1e9
        out["hmm.mlp_log_posteriors.rows"] = totals["hmm.mlp_log_posteriors.rows"]
        out["hmm.train.design_mb"] = totals["hmm.train.design_bytes"] / 1e6
        for key in ("frames.load_frameset", "frames.store_frameset",
                    "features.load_features", "features.store_features"):
            out[f"{key}.bytes"] = totals[f"{key}.bytes"]
        out["trace.spans"] = float(len(self.spans))
        return out

    def write(self, path, header: dict) -> None:
        """Write the header and then one JSON object per span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, name, start, end, parent, unit in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "workload_id": unit}) + "\n")

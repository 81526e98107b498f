"""The library surface that ``bench/`` relies on.

``bench/run.py`` fails when a metric listed in ``BENCHMARK.json`` is not
produced, and ``bench/spans.py`` produces ``<layer>.<function>.*``
metrics only for module-level, non-underscore functions defined in
``ferasec.<layer>``.  Removing or renaming such a function, or changing
a type the workers read, must fail here, in the quick suite, rather than
in the benchmark.
"""

import importlib
import inspect
import json
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_per_layer_function_metrics_name_public_functions():
    layers = runpy.run_path(str(ROOT / "bench" / "spec.py"))["LAYERS"]
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    checked = set()
    for name in names:
        layer, _, rest = name.partition(".")
        function, dot, _ = rest.partition(".")
        if layer not in layers or not dot:
            continue  # a layer-wide counter such as dtw.cells, or trace.*
        module = importlib.import_module(f"ferasec.{layer}")
        obj = getattr(module, function, None)
        assert not function.startswith("_"), name
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, (
            f"{name}: ferasec.{layer}.{function} is not a public function of that module"
        )
        checked.add(f"{layer}.{function}")
    assert checked  # the guard must not pass by matching nothing


def test_bench_smoke_run_passes():
    # Every workload at tiny sizes, untraced and traced, with its output checks.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
    # Training steps through the traced public backprop, so its call count
    # in each training workload's table is not 0.
    backprop_calls, workload = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("== "):
            workload = line[3:]
        elif line.split()[:1] == ["hmm.mlp_backprop"]:
            backprop_calls[workload] = float(line.split()[1])
    for workload in ("loocv-hmm", "loocv-hmm-raw", "classify-stream"):
        assert backprop_calls.get(workload, 0) > 0, (workload, backprop_calls)

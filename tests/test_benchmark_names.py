"""Every per-layer benchmark metric named after a function names a real one.

``bench/run.py`` fails when a metric listed in ``BENCHMARK.json`` is not
produced, and ``bench/spans.py`` produces ``<layer>.<function>.*``
metrics only for module-level, non-underscore functions defined in
``ferasec.<layer>``.  Removing or renaming such a function must fail here,
in the quick suite, rather than in the benchmark.
"""

import importlib
import inspect
import json
import runpy
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

"""ferasec benchmark: pinned synthetic workloads through the public API.

Run from the repository root::

    python3 bench/run.py --workload loocv-dtw [--seed 2024] [--seconds 10] [--trace 0|1]
    python3 bench/run.py --workload all    # the four workloads, one after another
    python3 bench/run.py --smoke           # tiny sizes; checks every metric is emitted

Each workload runs in its own fresh worker process (``worker.py``), one at
a time, with the BLAS thread variables pinned to 1 before NumPy is
imported and ``FERASEC_THREADS`` left unset (program default).  With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` the
workload runs twice, untraced and then traced; the last line holds the
per-layer metrics, and the run is correct only if both report digests
agree.  Earlier lines give provenance and a readable table.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of bytecode caches

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
RUN_DEADLINE_S = 170.0  # a single-workload run must exit within 180 s
PINNED_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


class BenchError(Exception):
    pass


def load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker_env() -> dict:
    env = dict(os.environ)
    for var in PINNED_THREAD_VARS:
        env[var] = "1"
    env.pop("FERASEC_THREADS", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)  # the worker imports ferasec from this checkout's src/
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
               deadline: float) -> dict:
    """Run one workload in a fresh process and return its parsed results."""
    work = WORK / f"{workload}-{os.getpid()}-{int(trace)}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--work-dir", str(work)]
    if trace:
        cmd += ["--trace-file", str(WORK / "traces" / f"{workload}-seed{seed}.jsonl")]
    if smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: no time left for the worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded {timeout:.0f} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); a single value is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res: dict) -> dict[str, float]:
    wall = statistics.median(res["pass_s"])
    if res["latencies_s"]:
        latencies = res["latencies_s"]
    else:  # a LOOCV pass classifies all its items together: time per item of each pass
        latencies = [p / res["items_per_pass"] for p in res["pass_s"]]
    return {
        "setup_s": statistics.median(res["setup_s"]),
        "wall_s": wall,
        "items_per_s": res["items_per_pass"] / wall,
        "item_latency_p50_ms": 1e3 * percentile(latencies, 50),
        "item_latency_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict) -> dict[str, float]:
    out = dict(traced["layers"])
    out["accuracy_pct"] = traced["accuracy_pct"]
    traced_wall = statistics.median(traced["pass_s"])
    out["trace.overhead_s"] = traced_wall - statistics.median(untraced["pass_s"])
    return out


def select(values: dict[str, float], wanted: list[dict]) -> dict:
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def run_workload(name: str, seed: int, seconds: float, trace: bool, definition: dict,
                 smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; return the result object and all metric values."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    untraced = run_worker(name, seed, seconds, False, smoke, deadline)
    print("provenance: " + json.dumps(untraced["provenance"], sort_keys=True))
    runs = [untraced]
    values = end_to_end(untraced)
    values["accuracy_pct"] = untraced["accuracy_pct"]
    errors = list(untraced["errors"])
    if trace:
        traced = run_worker(name, seed, seconds, True, smoke, deadline)
        runs.append(traced)
        errors += traced["errors"]
        if traced["report_sha256"] != untraced["report_sha256"]:
            errors.append("traced and untraced report bytes differ")
        values.update(per_layer(traced, untraced))
    errors = sorted(set(errors))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    values["failed_ops_frac"] = failed / attempted
    print_table(name, values, trace)
    for err in errors[:10]:
        print(f"CHECK FAILED [{name}]: {err}")
    if len(errors) > 10:
        print(f"CHECK FAILED [{name}]: ... and {len(errors) - 10} more")
    wanted = definition["per_layer"] if trace else definition["end_to_end"]
    result = {"correct": not errors and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": select(values, wanted)}
    return result, values


def print_table(name: str, values: dict[str, float], trace: bool) -> None:
    print(f"== {name}")
    for key in ("setup_s", "wall_s", "items_per_s", "item_latency_p50_ms", "item_latency_p90_ms",
                "peak_rss_mb", "accuracy_pct", "failed_ops_frac"):
        print(f"  {key:<22} {values[key]:.6g}")
    if not trace:
        return
    print(f"  {'layer function':<34} {'calls':>10} {'busy_s':>10} {'self_s':>10}")
    functions = sorted({k.rsplit(".", 1)[0] for k in values if k.endswith(".self_s")},
                       key=lambda f: -values[f + ".self_s"])
    for f in functions:
        print(f"  {f:<34} {values[f + '.calls']:>10.6g} {values[f + '.busy_s']:>10.4f} "
              f"{values[f + '.self_s']:>10.4f}")
    for key in sorted(k for k in values if k.split(".")[-1] in
                      ("cells", "cells_per_s", "samples", "rows", "gflop", "bytes", "design_mb")):
        print(f"  {key:<34} {values[key]:.6g} (computed)")
    print(f"  trace.overhead_s {values['trace.overhead_s']:.4f}; spans {values['trace.spans']:.0f}")


def smoke(definition: dict) -> int:
    """Tiny-size run of every workload, untraced and traced."""
    problems = []
    e2e_names = {m["name"] for m in definition["end_to_end"]}
    for name in spec.SMOKE_WORKLOADS:
        result, values = run_workload(name, spec.DEFAULT_SEED, 0.0, True, definition, smoke=True)
        if not result["correct"]:
            problems.append(f"{name}: outputs not correct (see CHECK FAILED above)")
        for metric in definition["end_to_end"] + definition["per_layer"]:
            value = values.get(metric["name"])
            if value is None or not math.isfinite(value):
                problems.append(f"{name}: metric {metric['name']} missing or not finite")
            elif metric["name"] in e2e_names and value <= 0:
                problems.append(f"{name}: end-to-end metric {metric['name']} is {value}")
        problems += [f"{name}: negative self time {k} = {v}"
                     for k, v in values.items() if k.endswith(".self_s") and v < 0]
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="ferasec benchmark")
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; check metric names")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "ferasec" / "__init__.py").is_file():
        print(f"error: no ferasec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    definition = load_definition()
    try:
        if args.smoke:
            return smoke(definition)
        if args.workload != "all":
            result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                        definition)
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in spec.WORKLOADS:
            result, _ = run_workload(name, args.seed, args.seconds, bool(args.trace), definition)
            print(f"{name}: " + json.dumps(result))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

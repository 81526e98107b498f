"""Run one benchmark workload in this process and print its raw results.

Started by ``run.py`` in a fresh process per workload, with the BLAS
thread variables already pinned in the environment, so NumPy sees them
when it is first imported here.  Prints one JSON object on stdout:
set-up times, timed-pass times, item latencies, item counts, failed
checks, the report digest, peak RSS, provenance and, when traced, the
per-layer summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ferasec  # noqa: E402
from ferasec import dtw, features, frames, harness, hmm, synth  # noqa: E402
from ferasec.errors import FerasecError  # noqa: E402

if not Path(ferasec.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"ferasec was imported from {ferasec.__file__}, not from {SRC}")

def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file below ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: v for k, v in sorted(os.environ.items()) if "THREADS" in k or k.startswith("OMP_")
        },
        "ferasec_threads": os.environ.get(harness.THREADS_ENV_VAR, "unset (program default 1)"),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC),
    }


def hmm_config(w: spec.Workload, seed: int) -> hmm.HmmTrainingConfig:
    return hmm.HmmTrainingConfig(realignment_rounds=w.rounds, epochs_per_round=w.epochs, seed=seed)


def generate(w: spec.Workload, reps: int, seed: int, out: Path) -> frames.CorpusManifest:
    scripts, cfg = synth.vowel8_preset(w.difficulty)
    return synth.generate_corpus(scripts, reps, cfg, seed, out)


class LoocvWorkload:
    """Set-up generates the corpus; a timed pass is ``ferasec loocv`` on it."""

    def __init__(self, w: spec.Workload, seed: int) -> None:
        self.w, self.seed = w, seed
        self.report = None  # of the last pass that completed

    def setup(self, work: Path) -> str:
        generate(self.w, self.w.reps, self.seed, work / "corpus")
        self.manifest_path = work / "corpus" / "manifest.tsv"
        return tree_digest(work / "corpus")

    def run_pass(self, tracer, unit: str):
        if tracer:
            tracer.start_unit("pass", unit)
        manifest = frames.load_manifest(self.manifest_path)
        ids = [e.item_id for e in manifest.entries]
        try:
            report = harness.loocv(
                manifest,
                self.w.method,
                seed=self.seed,
                hmm_cfg=hmm_config(self.w, self.seed),
                fast=self.w.fast_groups is not None,
                fast_groups=self.w.fast_groups,
            )
        except FerasecError as exc:
            return {"items": len(ids), "failed": len(ids), "correct": 0,
                    "text": f"error: {exc}\n", "latencies": [], "errors": [str(exc)]}
        labels = set(report.labels)
        predicted = {rec.item_id: rec.predicted for rec in report.folds}
        failed = sum(1 for i in ids if predicted.get(i) not in labels)
        errors = []
        if sorted(predicted) != sorted(ids):
            errors.append("report folds do not match the corpus items")
        self.report = report
        return {"items": len(ids), "failed": failed, "correct": report.correct_count,
                "text": harness.report_to_text(report), "latencies": [], "errors": errors}

    def final_checks(self) -> list[str]:
        if self.w.method != "dtw" or self.report is None:
            return []
        return check_dtw(frames.load_manifest(self.manifest_path), self.report)


def reference_dtw(x: np.ndarray, y: np.ndarray) -> float:
    """Textbook full-matrix MD-DTW with Euclidean column cost, kept independent of ferasec."""
    cost = np.sqrt(((x[:, :, None] - y[:, None, :]) ** 2).sum(axis=0)).tolist()
    k1, k2 = len(cost), len(cost[0])
    acc = [[0.0] * k2 for _ in range(k1)]
    for i in range(k1):
        for j in range(k2):
            if i == 0 and j == 0:
                prev = 0.0
            elif i == 0:
                prev = acc[0][j - 1]
            elif j == 0:
                prev = acc[i - 1][0]
            else:
                prev = min(acc[i - 1][j], acc[i][j - 1], acc[i - 1][j - 1])
            acc[i][j] = cost[i][j] + prev
    return acc[-1][-1]


def check_dtw(manifest, report, probes: int = 2) -> list[str]:
    """For the first ``probes`` items: ``mddtw_distance`` to every other item
    must match the reference DTW (relative tolerance 1e-9), and the label
    LOOCV predicted must be that of a nearest neighbour."""
    feats = [
        features.extract_features(frames.load_frameset(manifest.resolve(e))).values
        for e in manifest.entries
    ]
    predicted = {rec.item_id: rec.predicted for rec in report.folds}
    errors, mismatches = [], []
    for i in range(probes):
        item = manifest.entries[i].item_id
        dist = {}
        for j, other in enumerate(manifest.entries):
            if j == i:
                continue
            dist[j] = reference_dtw(feats[i], feats[j])
            got = dtw.mddtw_distance(feats[i], feats[j])
            if abs(got - dist[j]) > 1e-9 * dist[j]:
                mismatches.append(f"mddtw_distance({item}, {other.item_id}) = {got!r}, "
                                  f"reference {dist[j]!r}")
        best = min(dist.values())
        label = predicted[item]
        best_of_label = min(d for j, d in dist.items() if manifest.entries[j].label == label)
        if best_of_label > best * (1 + 1e-9):
            errors.append(f"item {item}: predicted {label} at distance {best_of_label:.6f}, "
                          f"nearest neighbour is at {best:.6f}")
    if mismatches:
        errors.append(f"{len(mismatches)} DTW distances differ from the reference; "
                      f"first: {mismatches[0]}")
    return errors


class StreamWorkload:
    """Set-up trains and stores one model and generates a held-out corpus;
    a timed pass runs ``extract`` + ``classify`` on each held-out item,
    one at a time (one closed-loop client)."""

    def __init__(self, w: spec.Workload, seed: int) -> None:
        self.w, self.seed = w, seed

    def setup(self, work: Path) -> str:
        train_manifest = generate(self.w, self.w.reps, self.seed, work / "train")
        corpus = []
        for entry in train_manifest.entries:
            fs = frames.load_frameset(train_manifest.resolve(entry), label=entry.label)
            corpus.append((features.extract_features(fs).values, entry.label))
        model_path = work / "model.hmm"
        hmm.store_model(hmm.train(corpus, hmm_config(self.w, self.seed)), model_path)
        self.model = hmm.load_model(model_path)
        held_out = generate(self.w, self.w.held_out_reps, self.seed + spec.HELD_OUT_SEED_OFFSET,
                            work / "held_out")
        self.items = [(held_out.resolve(e), e.item_id, e.label) for e in held_out.entries]
        self.feature_dir = work / "features"
        self.feature_dir.mkdir(exist_ok=True)
        return tree_digest(work / "held_out") + hashlib.sha256(model_path.read_bytes()).hexdigest()

    def run_pass(self, tracer, unit: str):
        lines, latencies, errors = [], [], []
        failed = correct = 0
        for path, item_id, truth in self.items:
            if tracer:
                tracer.start_unit("pass", f"{unit}:{item_id}")
            out = self.feature_dir / (path.stem + ".ftm")
            start = time.perf_counter()
            try:
                matrix = features.extract_features(frames.load_frameset(path))
                features.store_features(matrix, out)
                loaded = features.load_features(out)
                label, scores = hmm.classify(self.model, loaded)
            except FerasecError as exc:
                failed += 1
                lines.append(f"{item_id}\terror: {exc}")
                continue
            latencies.append(time.perf_counter() - start)
            if not np.array_equal(loaded, matrix.values.astype(np.float32)):
                errors.append(f"{item_id}: stored features do not round-trip")
            if label != self.model.labels[int(np.argmax(scores))]:
                errors.append(f"{item_id}: label {label} is not the best-scoring class")
            correct += label == truth
            scores_text = ",".join(repr(float(s)) for s in scores)
            lines.append(f"{item_id}\t{truth}\t{label}\t{scores_text}")
        return {"items": len(self.items), "failed": failed, "correct": correct,
                "text": "\n".join(lines) + "\n", "latencies": latencies, "errors": errors}

    def final_checks(self) -> list[str]:
        return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args()

    table = spec.SMOKE_WORKLOADS if args.smoke else spec.WORKLOADS
    w = table[args.workload]
    job = LoocvWorkload(w, args.seed) if w.method else StreamWorkload(w, args.seed)
    unit_prefix = f"{w.name}:seed{args.seed}"

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    errors: list[str] = []
    setup_s: list[float] = []
    setup_digests = set()
    if args.smoke:
        min_reps, min_s = spec.SMOKE_SETUP_REPS, 0.0
    else:
        min_reps, min_s = spec.SETUP_MIN_REPS, spec.SETUP_MIN_S
    while len(setup_s) < min_reps or (sum(setup_s) < min_s and len(setup_s) < spec.SETUP_MAX_REPS):
        rep = len(setup_s)
        work = args.work_dir / f"setup{rep}"
        if tracer:
            tracer.start_unit("setup", f"{unit_prefix}:setup{rep}")
        start = time.perf_counter()
        digest = job.setup(work)
        setup_s.append(time.perf_counter() - start)
        setup_digests.add(digest)
        if rep:
            shutil.rmtree(args.work_dir / f"setup{rep - 1}")
    if len(setup_digests) != 1:
        errors.append("repeated set-ups produced different corpus or model bytes")

    pass_s: list[float] = []
    latencies: list[float] = []
    texts = set()
    attempted = failed = correct = 0
    timed_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        result = job.run_pass(tracer, f"{unit_prefix}:pass{len(pass_s)}")
        pass_s.append(time.perf_counter() - start)
        latencies.extend(result["latencies"])
        texts.add(result["text"])
        errors.extend(result["errors"])
        attempted += result["items"]
        failed += result["failed"]
        correct += result["correct"]
        elapsed = time.perf_counter() - timed_start
        if elapsed + statistics.median(pass_s) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    if len(texts) != 1:
        errors.append("timed passes produced different reports")
    accuracy_pct = 100.0 * correct / attempted
    if w.accuracy_floor_pct is not None and accuracy_pct < w.accuracy_floor_pct:
        errors.append(f"accuracy {accuracy_pct:.2f}% is below the {w.accuracy_floor_pct}% floor")
    errors.extend(job.final_checks())

    out = {
        "workload": w.name,
        "setup_s": setup_s,
        "pass_s": pass_s,
        "latencies_s": latencies,
        "items_per_pass": result["items"],
        "attempted": attempted,
        "failed": failed,
        "accuracy_pct": accuracy_pct,
        "errors": sorted(set(errors)),
        "report_sha256": hashlib.sha256(texts.pop().encode()).hexdigest(),
        "peak_rss_mb": peak_rss_mb,
        "provenance": provenance(args.seed),
    }
    if tracer:
        out["layers"] = tracer.summary({"setup": len(setup_s), "pass": len(pass_s)})
        if args.trace_file:
            args.trace_file.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.trace_file, {"workload": w.name, "seed": args.seed,
                                           "provenance": out["provenance"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

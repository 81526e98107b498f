"""Leave-one-out cross-validation, accuracy and confusion reporting.

Methods
-------
``dtw``                 FERASEC features + warping-distance 1-NN.
``hmm``                 FERASEC features + the hybrid MLP-HMM classifier.
``hmm-raw``             raw frames fed straight to the MLP-HMM (one
                        N-dimensional vector per slow-time index).
``hmm-clutterreduced``  the same with clutter-reduced frames.

Faithful LOOCV retrains per held-out item; ``fast=True`` trains once per
class-balanced split (holding out whole repetition sessions), which
keeps the no-leakage guarantee at a fraction of the cost.  Per-fold
seeds derive from the master seed plus the held-out items' identities,
so results are invariant to manifest ordering.

Serialized reports carry no timestamps or timings: identical seeds must
reproduce identical bytes.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .clutter import reduce_frameset
from .dtw import DtwConfig, mddtw_distances
from .errors import DomainError, TrainingError
from .features import FerasecConfig, extract_features
from .frames import CorpusManifest, ManifestEntry, load_frameset
from .hmm import HmmTrainingConfig, classify, train
from .seeding import derive_seed

__all__ = [
    "METHODS",
    "FoldRecord",
    "EvaluationReport",
    "item_features",
    "loocv",
    "format_report",
    "report_to_text",
    "write_report",
]

METHODS = ("dtw", "hmm", "hmm-raw", "hmm-clutterreduced")
THREADS_ENV_VAR = "FERASEC_THREADS"


@dataclass(frozen=True)
class FoldRecord:
    item_id: str
    truth: str
    predicted: str


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregate of one cross-validation run."""

    method: str
    labels: tuple[str, ...]
    confusion: np.ndarray  # (B, B) counts; rows = truth, columns = prediction
    folds: tuple[FoldRecord, ...]
    reps_per_class: int
    timing_s: float = 0.0  # informational only; never serialized

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        confusion = np.asarray(self.confusion, dtype=np.int64).copy()
        folds = tuple(self.folds)
        b = len(labels)
        if confusion.shape != (b, b):
            raise DomainError(f"confusion matrix must be {b}x{b}, got {confusion.shape}")
        if np.any(confusion < 0):
            raise DomainError("confusion counts must be non-negative")
        if int(confusion.sum()) != len(folds):
            raise DomainError("confusion total must equal the number of folds")
        confusion.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "confusion", confusion)
        object.__setattr__(self, "folds", folds)

    @property
    def item_count(self) -> int:
        return len(self.folds)

    @property
    def correct_count(self) -> int:
        return int(np.trace(self.confusion))

    @property
    def accuracy_percent(self) -> float:
        return 100.0 * self.correct_count / self.item_count

    @property
    def row_percentages(self) -> np.ndarray:
        """Row-relative percentages; rows with no items stay zero."""
        totals = self.confusion.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            pct = np.where(totals > 0, 100.0 * self.confusion / totals, 0.0)
        return pct


def _max_workers() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise DomainError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    return max(1, workers)


def _map_folds(fn: Callable, jobs: Sequence) -> list:
    """Run independent fold jobs, optionally across a thread pool.

    Results are collected by index, so the outcome is identical whatever
    the scheduling.
    """
    workers = min(_max_workers(), len(jobs)) if jobs else 1
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _canonical_order(entries: Sequence[ManifestEntry]) -> list[int]:
    return sorted(range(len(entries)), key=lambda i: (entries[i].label, entries[i].repetition, entries[i].position))


def item_features(manifest: CorpusManifest, method: str, cfg: FerasecConfig) -> list[np.ndarray]:
    """Per-item classifier inputs for ``method``, in manifest order.

    ``dtw`` and ``hmm`` take FERASEC features built with ``cfg``;
    ``hmm-raw`` takes raw frames and ``hmm-clutterreduced`` frames
    reduced with ``cfg.alpha``, one column per slow-time index.
    """
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    out: list[np.ndarray] = []
    for entry in manifest.entries:
        fs = load_frameset(manifest.resolve(entry), label=entry.label)
        if method in ("dtw", "hmm"):
            out.append(extract_features(fs, cfg).values)
        elif method == "hmm-raw":
            out.append(fs.data.T.astype(np.float64))
        else:  # hmm-clutterreduced
            out.append(reduce_frameset(fs, cfg.alpha).T.astype(np.float64))
    return out


def _distance_matrix(features: list[np.ndarray], dtw_cfg: DtwConfig) -> np.ndarray:
    """All pairwise warping distances, each pair computed once.

    Row ``i`` of the upper triangle is one batch from item ``i`` to every
    later item; the lower triangle mirrors it, which relies on the
    distance being exactly symmetric.
    """
    a = len(features)
    distances = np.zeros((a, a))
    for i in range(a - 1):
        distances[i, i + 1:] = mddtw_distances(features[i], features[i + 1:], dtw_cfg)
    return distances + distances.T


def _dtw_folds(
    manifest: CorpusManifest, features: list[np.ndarray], dtw_cfg: DtwConfig
) -> list[FoldRecord]:
    entries = manifest.entries
    distances = _distance_matrix(features, dtw_cfg)
    np.fill_diagonal(distances, np.inf)  # the held-out item is never its own reference
    records = []
    for i, entry in enumerate(entries):
        nearest = int(np.argmin(distances[i]))  # first minimum = earliest manifest order
        records.append(FoldRecord(entry.item_id, entry.label, entries[nearest].label))
    return records


def _fold_jobs(
    entries: Sequence[ManifestEntry], seed: int, fast: bool, groups: int | None
) -> list[tuple[list[int], int]]:
    """``(held-out indices, fold seed)`` for each model to train.

    Faithful LOOCV holds out one item per model, fast LOOCV one group of
    repetition sessions.  Seeds key on the held-out identities and jobs
    come in canonical item order, so results survive manifest permutation.
    """
    canonical = _canonical_order(entries)
    if not fast:
        if groups is not None:
            raise DomainError(f"{groups} splits given, but splits apply only to fast LOOCV")
        return [
            ([i], derive_seed(seed, "fold", entries[i].label, entries[i].repetition, entries[i].position))
            for i in canonical
        ]
    reps = sorted({e.repetition for e in entries})
    group_count = len(reps) if groups is None else groups
    if not 1 < group_count <= len(reps):
        raise DomainError(
            f"fast LOOCV needs between 2 and {len(reps)} splits, got {group_count}"
        )
    bounds = np.linspace(0, len(reps), group_count + 1).round().astype(int)
    rep_groups = [tuple(reps[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    return [
        (
            [j for j in canonical if entries[j].repetition in group],
            derive_seed(seed, "group", *[str(r) for r in group]),
        )
        for group in rep_groups
    ]


def _hmm_folds(
    entries: Sequence[ManifestEntry],
    features: list[np.ndarray],
    hmm_cfg: HmmTrainingConfig,
    jobs: Sequence[tuple[list[int], int]],
) -> list[FoldRecord]:
    """Train one model per job on every item it does not hold out (in
    canonical order), then classify the held-out items with it."""
    canonical = _canonical_order(entries)

    def run(job: tuple[list[int], int]) -> list[FoldRecord]:
        held_out, fold_seed = job
        held = set(held_out)
        train_idx = [j for j in canonical if j not in held]
        leaked = {entries[j].item_id for j in held_out}.intersection(
            entries[j].item_id for j in train_idx
        )
        if leaked:
            raise AssertionError(f"held-out items leaked into training: {sorted(leaked)}")
        model = train(
            [(features[j], entries[j].label) for j in train_idx], replace(hmm_cfg, seed=fold_seed)
        )
        return [
            FoldRecord(entries[j].item_id, entries[j].label, classify(model, features[j])[0])
            for j in held_out
        ]

    return [rec for recs in _map_folds(run, jobs) for rec in recs]


def loocv(
    manifest: CorpusManifest,
    method: str,
    *,
    seed: int,
    ferasec_cfg: FerasecConfig = FerasecConfig(),
    dtw_cfg: DtwConfig = DtwConfig(),
    hmm_cfg: HmmTrainingConfig = HmmTrainingConfig(),
    fast: bool = False,
    fast_groups: int | None = None,
) -> EvaluationReport:
    """Cross-validate a classification method over a labeled corpus.

    Every item is classified by references/models built strictly from the
    other items; an in-fold audit asserts that the held-out items appear
    in no training set.  Deterministic given ``seed``.
    """
    a = len(manifest.entries)
    b = manifest.class_count
    if a < 2 * b:
        raise DomainError(f"need at least two items per class, got {a} items for {b} classes")
    reps_per_class = manifest.reps_per_class

    started = time.perf_counter()
    # ``fast``/``fast_groups`` are validated before any item is featurized.
    if method == "dtw":
        if fast or fast_groups is not None:
            raise DomainError("fast LOOCV and its splits apply only to the MLP-HMM methods")
        jobs = None
    else:
        jobs = _fold_jobs(manifest.entries, seed, fast, fast_groups)
    features = item_features(manifest, method, ferasec_cfg)
    if jobs is None:
        records = _dtw_folds(manifest, features, dtw_cfg)
    else:
        try:
            records = _hmm_folds(manifest.entries, features, hmm_cfg, jobs)
        except TrainingError as exc:
            raise TrainingError(f"{method} cross-validation aborted: {exc}") from exc

    labels = tuple(sorted(manifest.labels))
    index = {label: i for i, label in enumerate(labels)}
    by_id = {rec.item_id: rec for rec in records}
    ordered = tuple(by_id[e.item_id] for e in manifest.entries)
    confusion = np.zeros((b, b), dtype=np.int64)
    for rec in ordered:
        confusion[index[rec.truth], index[rec.predicted]] += 1
    return EvaluationReport(
        method=method,
        labels=labels,
        confusion=confusion,
        folds=ordered,
        reps_per_class=reps_per_class,
        timing_s=time.perf_counter() - started,
    )


def format_report(report: EvaluationReport) -> str:
    """Human-readable table: accuracy plus the confusion matrix."""
    lines = [
        f"method: {report.method}",
        f"items: {report.item_count} ({len(report.labels)} classes x {report.reps_per_class} reps)",
        f"accuracy: {report.accuracy_percent:.2f}% ({report.correct_count}/{report.item_count})",
        "",
        "confusion (rows = truth; count and row-relative %):",
    ]
    label_w = max(len(label) for label in report.labels)
    cell_w = max(12, label_w + 2)
    header = " " * (label_w + 2) + "".join(f"{label:>{cell_w}}" for label in report.labels)
    lines.append(header)
    pct = report.row_percentages
    for i, label in enumerate(report.labels):
        cells = "".join(
            f"{f'{report.confusion[i, j]} ({pct[i, j]:.1f}%)':>{cell_w}}"
            for j in range(len(report.labels))
        )
        lines.append(f"{label:<{label_w}}  {cells}")
    return "\n".join(lines) + "\n"


def report_to_text(report: EvaluationReport) -> str:
    """Machine-readable key=value serialization; byte-stable across reruns."""
    for label in report.labels:
        if "," in label or "=" in label or "\n" in label:
            raise DomainError(f"label {label!r} cannot be serialized in key=value form")
    lines = [
        f"method={report.method}",
        f"classes={len(report.labels)}",
        f"items={report.item_count}",
        f"reps_per_class={report.reps_per_class}",
        f"correct={report.correct_count}",
        f"accuracy_percent={report.accuracy_percent:.6f}",
        "labels=" + ",".join(report.labels),
    ]
    for i, label in enumerate(report.labels):
        lines.append(f"confusion.{label}=" + ",".join(str(c) for c in report.confusion[i]))
    for rec in report.folds:
        lines.append(f"fold.{rec.item_id}={rec.truth},{rec.predicted}")
    return "\n".join(lines) + "\n"


def write_report(report: EvaluationReport, path: str | Path) -> None:
    Path(path).write_text(report_to_text(report), encoding="utf-8")

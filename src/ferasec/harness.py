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
and a manifest keeps its items in one canonical order, so no result
depends on the order of manifest lines.

A report is its method plus one ``(item, truth, predicted)`` fold per
item; its labels, confusion matrix, repetitions per class and accuracy
are all counted from those folds.  It carries no timestamps or timings:
identical seeds must reproduce identical bytes.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .clutter import reduce_frameset
from .dtw import DtwConfig, mddtw_distances
from .errors import DomainError, TrainingError, breaks_line
from .features import FerasecConfig, extract_features
from .frames import CorpusManifest, ManifestEntry, load_frameset
from .hmm import HmmTrainingConfig, _stack_columns, _train_rows, classify
from .seeding import derive_seed

__all__ = [
    "METHODS",
    "FoldRecord",
    "EvaluationReport",
    "item_features",
    "loocv",
    "format_report",
    "check_report_keys",
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
    """One cross-validation run: its method and one fold per item.

    Everything else is counted from the folds: ``labels`` (the sorted
    truth labels), ``confusion`` (rows = truth, columns = prediction) and
    ``reps_per_class``; so two reports are equal when their methods and
    folds are.
    """

    method: str
    folds: tuple[FoldRecord, ...]
    labels: tuple[str, ...] = field(init=False, compare=False)
    confusion: np.ndarray = field(init=False, compare=False)
    reps_per_class: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        folds = tuple(self.folds)
        if not folds:
            raise DomainError("a report needs at least one fold")
        labels = tuple(sorted({rec.truth for rec in folds}))
        index = {label: i for i, label in enumerate(labels)}
        confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
        for rec in folds:
            if rec.predicted not in index:
                raise DomainError(f"{rec.item_id!r} predicted as {rec.predicted!r}, no item's truth")
            confusion[index[rec.truth], index[rec.predicted]] += 1
        counts = set(confusion.sum(axis=1).tolist())
        if len(counts) != 1:
            raise DomainError(f"every class must hold the same number of items, got {sorted(counts)}")
        confusion.setflags(write=False)
        object.__setattr__(self, "folds", folds)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "confusion", confusion)
        object.__setattr__(self, "reps_per_class", counts.pop())

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
        """Row-relative percentages of the confusion matrix."""
        return 100.0 * self.confusion / self.reps_per_class


def _max_workers() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise DomainError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise DomainError(f"{THREADS_ENV_VAR} must be at least 1, got {raw!r}")
    return workers


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


def item_features(manifest: CorpusManifest, method: str, cfg: FerasecConfig) -> list[np.ndarray]:
    """Per-item classifier inputs for ``method``, in manifest order.

    ``dtw`` and ``hmm`` take float64 FERASEC features built with ``cfg``;
    ``hmm-raw`` takes raw frames and ``hmm-clutterreduced`` frames
    reduced with ``cfg.alpha``, one column per slow-time index, as the
    float32 values they are stored in (``train`` computes in float64).
    """
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    out: list[np.ndarray] = []
    for entry in manifest.entries:
        fs = load_frameset(manifest.resolve(entry))
        if method in ("dtw", "hmm"):
            out.append(extract_features(fs, cfg).values)
        elif method == "hmm-raw":
            out.append(fs.data.T)
        else:  # hmm-clutterreduced
            out.append(reduce_frameset(fs, cfg.alpha).T)
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


def _dtw_predictions(
    entries: Sequence[ManifestEntry], features: list[np.ndarray], dtw_cfg: DtwConfig
) -> list[str]:
    """The label of each item's nearest other item; of equal distances the
    first, i.e. the earliest item in canonical order, wins."""
    distances = _distance_matrix(features, dtw_cfg)
    np.fill_diagonal(distances, np.inf)  # the held-out item is never its own reference
    return [entries[j].label for j in distances.argmin(axis=1)]


def _fold_jobs(
    entries: Sequence[ManifestEntry], seed: int, fast: bool, groups: int | None
) -> list[tuple[list[int], int]]:
    """``(held-out indices, fold seed)`` for each model to train.

    Faithful LOOCV holds out one item per model, fast LOOCV one group of
    repetition sessions.  Seeds key on the held-out identities, and jobs
    follow ``entries``, a manifest's canonical order.
    """
    if not fast:
        if groups is not None:
            raise DomainError(f"{groups} splits given, but splits apply only to fast LOOCV")
        return [([i], derive_seed(seed, "fold", *e.key)) for i, e in enumerate(entries)]
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
            [j for j, e in enumerate(entries) if e.repetition in group],
            derive_seed(seed, "group", *[str(r) for r in group]),
        )
        for group in rep_groups
    ]


def _hmm_predictions(
    entries: Sequence[ManifestEntry],
    features: list[np.ndarray],
    hmm_cfg: HmmTrainingConfig,
    jobs: Sequence[tuple[list[int], int]],
) -> list[str]:
    """Train one model per job on every item it does not hold out (in
    the order of ``entries``), then label the held-out items with it.

    The items' columns are stacked once, (rows, dims) in their dtype and
    read-only, and ``features`` is emptied, so the stack alone holds
    them; every fold trains on row ranges of it and classifies from views
    of it, copying no item.
    """
    stack, ranges = _stack_columns(features)
    features.clear()
    predicted = [""] * len(entries)

    def run(job: tuple[list[int], int]) -> None:
        held_out, fold_seed = job
        held = set(held_out)
        train_idx = [j for j in range(len(entries)) if j not in held]
        leaked = {entries[j].item_id for j in held_out}.intersection(
            entries[j].item_id for j in train_idx
        )
        if leaked:
            raise AssertionError(f"held-out items leaked into training: {sorted(leaked)}")
        model = _train_rows(
            stack, [ranges[j] for j in train_idx], [entries[j].label for j in train_idx],
            replace(hmm_cfg, seed=fold_seed),
        )
        for j in held_out:
            predicted[j] = classify(model, stack[ranges[j]].T)[0]

    _map_folds(run, jobs)
    return predicted


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
    entries = manifest.entries
    reps = manifest.reps_per_class  # unequal class sizes fail here, before any fold
    if reps < 2:
        raise DomainError(f"need at least two items per class, got {reps}")
    # The environment, ``fast`` and ``fast_groups`` are validated before
    # any item is featurized.
    _max_workers()
    if method == "dtw":
        if fast or fast_groups is not None:
            raise DomainError("fast LOOCV and its splits apply only to the MLP-HMM methods")
        jobs = None
    else:
        jobs = _fold_jobs(entries, seed, fast, fast_groups)
    features = item_features(manifest, method, ferasec_cfg)
    if jobs is None:
        predicted = _dtw_predictions(entries, features, dtw_cfg)
    else:
        try:
            predicted = _hmm_predictions(entries, features, hmm_cfg, jobs)
        except TrainingError as exc:
            raise TrainingError(f"{method} cross-validation aborted: {exc}") from exc
    return EvaluationReport(
        method, tuple(FoldRecord(e.item_id, e.label, p) for e, p in zip(entries, predicted))
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


def check_report_keys(labels: Sequence[str], item_ids: Sequence[str]) -> None:
    """Reject a label or an item id that the key=value report cannot hold:
    one with ``,``, ``=`` or a line break."""
    for kind, names in (("label", labels), ("item id", item_ids)):
        for name in names:
            if "," in name or "=" in name or breaks_line(name):
                raise DomainError(f"{kind} {name!r} cannot be serialized in key=value form")


def report_to_text(report: EvaluationReport) -> str:
    """Machine-readable key=value serialization; byte-stable across reruns."""
    check_report_keys(report.labels, [rec.item_id for rec in report.folds])
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

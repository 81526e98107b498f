"""Multidimensional dynamic time warping and 1-nearest-neighbor classification.

The distance between two feature matrices (rows = feature dimensions,
columns = time) is the cumulative local cost of the cheapest monotone
warping path from (1, 1) to (K1, K2) with unit-weight steps
(+1, 0), (0, +1), (+1, +1), the symmetric step pattern of Sakoe & Chiba,
with one path shared by all rows (the dependent "DTW_D" form).  No
global path window and no path-length normalization: nearest-neighbor
comparisons happen among broadly similar lengths and the warping itself
absorbs duration variation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError

__all__ = ["METRICS", "DtwConfig", "mddtw_distance", "mddtw_distances", "classify_1nn"]

METRICS = ("euclidean", "manhattan")


@dataclass(frozen=True)
class DtwConfig:
    """Local metric over feature columns; the step pattern is fixed."""

    local_metric: str = "euclidean"

    def __post_init__(self) -> None:
        if self.local_metric not in METRICS:
            raise DomainError(f"local_metric must be one of {METRICS}, got {self.local_metric!r}")


def _as_feature_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError("feature input must be a non-empty 2-D array (dims x time)")
    return arr


# Bytes that one block of the batched recurrence may hold.  A query's
# references are split into equal chunks, and its rows into equal bands,
# so that a band of R rows holds at most (K2max + 3) x (R + d + 2) float64
# values per reference: R x K2max local costs, the d x K2max padded
# reference, 3 x (R + 1) + K2max + 1 recurrence values and a few scalars.
# Filling the costs takes at most an eighth more as scratch.
_BLOCK_BYTES = 2 * 1024 * 1024


def _bands(k1: int, k2: int, batch: int, d: int) -> int:
    """Fewest equal bands of ``k1`` query rows for a chunk of ``batch`` references to fit the block."""
    return -(-k1 // min(k1, max(1, _BLOCK_BYTES // (8 * (k2 + 3) * batch) - d - 2)))


def _chunk_count(k1: int, k2: int, batch: int, d: int) -> int:
    """Chunks of ``batch`` references that take the fewest anti-diagonal steps in all.

    A chunk in b bands takes K1 + b (K2max - 1) steps, each a few NumPy
    calls whose fixed cost sets the time.  The candidates run from the
    fewest chunks whose one-row bands fit the block to the fewest whose
    single full-height bands do; more chunks only add steps.  Ties go to
    fewer chunks.
    """
    fewest = -(-batch // max(1, _BLOCK_BYTES // (8 * (k2 + 3) * (1 + d + 2))))
    most = -(-batch // max(1, _BLOCK_BYTES // (8 * (k2 + 3) * (k1 + d + 2))))
    return min(range(fewest, most + 1),
               key=lambda c: c * (k1 + _bands(k1, k2, -(-batch // c), d) * (k2 - 1)))


def _column_costs(x: np.ndarray, y: np.ndarray, metric: str, out: np.ndarray,
                  scratch: np.ndarray) -> np.ndarray:
    """Write into ``out`` the local costs of the column pairs that ``x`` and ``y`` broadcast to.

    Axis 0 of both holds the feature rows.  Each row's squared (or
    absolute) difference is added into ``out`` in row order, through
    ``scratch`` (shaped like ``out``), so a cell's cost has the same bits
    whatever the shape of the block it is computed in.
    """
    for r in range(x.shape[0]):
        term = scratch if r else out
        np.subtract(x[r], y[r], out=term)
        if metric == "euclidean":
            term *= term
        else:
            np.abs(term, out=term)
        if r:
            out += term
    return np.sqrt(out, out=out) if metric == "euclidean" else out


def local_cost_matrix(x: np.ndarray, y: np.ndarray, metric: str) -> np.ndarray:
    """Pairwise column costs, shape (K1, K2); an unknown metric fails as in :class:`DtwConfig`."""
    metric = DtwConfig(metric).local_metric
    out = np.empty((x.shape[1], y.shape[1]))
    return _column_costs(x[:, :, None], y[:, None, :], metric, out, np.empty_like(out))


def _chunk_distances(xa: np.ndarray, refs: list[np.ndarray], metric: str) -> np.ndarray:
    """Warping distances from ``xa`` to each of ``refs``, one band of query rows at a time.

    The bands are equal and as tall as ``_BLOCK_BYTES`` allows with all
    of ``refs`` in each (:func:`_bands`); a band of R rows takes
    R + K2max - 1 diagonal steps.  A band first fills its local costs,
    shape (R, K2max, B), a few query columns at a time; then the
    recurrence reads its diagonal ``t`` as one strided view of that
    tensor.  ``above[j + 1]`` is ``D``
    on the row above the band at column ``j``, and ``above[0]`` the
    column before the first: the ``0`` origin above the first band, the
    ``inf`` border below it.  Each band overwrites ``above`` with its own
    last row.
    """
    d, k1 = xa.shape
    lengths = np.array([ya.shape[1] for ya in refs])
    k2, batch = int(lengths.max()), len(refs)
    padded = np.zeros((d, 1, k2, batch))  # axis 1 broadcasts over query columns
    for b, ya in enumerate(refs):
        padded[:, 0, :ya.shape[1], b] = ya
    rows = -(-k1 // _bands(k1, k2, batch, d))
    step = min(rows, max(1, _BLOCK_BYTES // 8 // (8 * k2 * batch)))  # columns per fill
    cost = np.empty((rows, k2, batch))
    flat = cost.reshape(rows * k2, batch)  # cell (i, t - i) is row t + i * (k2 - 1)
    stride = max(k2 - 1, 1)
    scratch = np.empty((step, k2, batch))
    above = np.full((k2 + 1, batch), np.inf)
    above[0] = 0.0
    for i0 in range(0, k1, rows):
        r = min(rows, k1 - i0)
        for c in range(0, r, step):
            n = min(step, r - c)
            _column_costs(xa[:, i0 + c:i0 + c + n, None, None], padded, metric,
                          cost[c:c + n], scratch[:n])
        # D on diagonals t - 2, t - 1 and t, indexed by band row + 1; index
        # 0 is the row above, at columns t - 1, t and t + 1.  The buffers
        # rotate without refilling: a row off its diagonal holds inf, or a
        # value that no later diagonal reads.
        prev2, prev1, cur = (np.full((r + 1, batch), np.inf) for _ in range(3))
        prev2[0], prev1[0] = above[0], above[1]
        for t in range(r + k2 - 1):
            lo, hi = max(0, t - k2 + 1), min(r - 1, t)
            best = cur[lo + 1:hi + 2]
            np.minimum(prev1[lo:hi + 1], prev2[lo:hi + 1], out=best)  # up, diagonal
            np.minimum(best, prev1[lo + 1:hi + 2], out=best)  # left
            np.add(flat[t + lo * (k2 - 1):t + hi * (k2 - 1) + 1:stride], best, out=best)
            if t + 2 <= k2:
                cur[0] = above[t + 2]
            if hi == r - 1:
                above[t - hi + 1] = cur[r]
            prev2, prev1, cur = prev1, cur, prev2
        above[0] = np.inf
    return above[lengths, np.arange(batch)]


def mddtw_distances(query, references: Sequence, cfg: DtwConfig = DtwConfig()) -> np.ndarray:
    """Warping distances from ``query`` to each of ``references``.

    The recurrence ``D[i, j] = cost[i, j] + min(D[i-1, j], D[i-1, j-1],
    D[i, j-1])`` (``inf`` border, ``0`` before the origin) is evaluated
    one anti-diagonal ``i + j = t`` at a time, for a chunk of references
    in the same array operations.  The references are split into equal
    chunks, as few or as many as take the fewest diagonal steps
    (:func:`_chunk_count`), and each chunk's query rows into equal bands
    that fit in ``_BLOCK_BYTES``; a chunk holds one reference at least,
    so memory per query does not grow with their number.  Each distance
    is read at its own ``(K1, K2)`` cell, which no monotone path through
    the zero padding of a chunk reaches, so every value equals the
    cell-by-cell recurrence bit for bit.
    """
    xa = _as_feature_array(query)
    if len(references) == 0:
        raise DomainError("reference list must not be empty")
    refs = [_as_feature_array(y) for y in references]
    d, k1 = xa.shape
    for index, ya in enumerate(refs):
        if ya.shape[0] != d:
            raise DimensionError(
                f"feature row-count mismatch: reference {index} has {ya.shape[0]} rows, "
                f"the query has {d}"
            )
    k2 = max(ya.shape[1] for ya in refs)
    batch = len(refs)
    chunks = _chunk_count(k1, k2, batch, d)
    out = np.empty(batch)
    for c in range(chunks):
        lo, hi = batch * c // chunks, batch * (c + 1) // chunks
        out[lo:hi] = _chunk_distances(xa, refs[lo:hi], cfg.local_metric)
    return out


def mddtw_distance(x, y, cfg: DtwConfig = DtwConfig()) -> float:
    """Cumulative cost of the optimal warping path between two matrices."""
    return float(mddtw_distances(x, [y], cfg)[0])


def classify_1nn(
    test,
    references: Sequence[tuple[object, str]],
    cfg: DtwConfig = DtwConfig(),
) -> tuple[str, float]:
    """Label of the reference with minimal warping distance to ``test``.

    Ties break toward the earliest reference in the list; a manifest's
    list is in canonical ``(label, repetition, position)`` order.
    """
    distances = mddtw_distances(test, [ref for ref, _ in references], cfg)
    nearest = int(np.argmin(distances))  # first minimum = earliest reference
    return references[nearest][1], float(distances[nearest])

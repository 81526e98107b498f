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


def _column_costs(x: np.ndarray, y: np.ndarray, metric: str) -> np.ndarray:
    """Local costs of the column pairs that ``x`` and ``y`` broadcast to.

    Axis 0 of both holds the feature rows.  The per-row terms are summed
    in row order, so a cell's cost has the same bits whatever the shape
    of the batch it is computed in.
    """
    terms = x - y
    if metric == "euclidean":
        terms *= terms
    else:
        np.abs(terms, out=terms)
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return np.sqrt(total, out=total) if metric == "euclidean" else total


def local_cost_matrix(x: np.ndarray, y: np.ndarray, metric: str) -> np.ndarray:
    """Pairwise column costs, shape (K1, K2); an unknown metric fails as in :class:`DtwConfig`."""
    return _column_costs(x[:, :, None], y[:, None, :], DtwConfig(metric).local_metric)


def mddtw_distances(query, references: Sequence, cfg: DtwConfig = DtwConfig()) -> np.ndarray:
    """Warping distances from ``query`` to each of ``references``.

    The recurrence ``D[i, j] = cost[i, j] + min(D[i-1, j], D[i-1, j-1],
    D[i, j-1])`` (``inf`` border, ``0`` before the origin) is evaluated
    one anti-diagonal ``i + j = t`` at a time, for every reference in the
    same array operations.  References shorter than the longest are
    zero-padded; each distance is read at its own ``(K1, K2)`` cell,
    which no monotone path through the padding reaches, so every value
    equals the cell-by-cell recurrence bit for bit.
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
    lengths = np.array([ya.shape[1] for ya in refs])
    k2 = int(lengths.max())
    batch = len(refs)
    # Time-reversed, zero-padded references with the batch axis last:
    # the cells (i, t - i) of a diagonal are consecutive columns here.
    rev = np.zeros((d, k2, batch))
    for b, ya in enumerate(refs):
        rev[:, k2 - ya.shape[1]:, b] = ya[:, ::-1]
    # D on diagonals t-2 and t-1, indexed by row + 1: row -1 is the inf
    # border, except for the origin D[-1, -1] = 0 before diagonal 0.
    prev2 = np.full((k1 + 1, batch), np.inf)
    prev2[0] = 0.0
    prev1 = np.full((k1 + 1, batch), np.inf)
    last_row = np.empty((k2, batch))  # D[K1-1, j]
    for t in range(k1 + k2 - 1):
        lo, hi = max(0, t - k2 + 1), min(k1 - 1, t)
        start = k2 - 1 - t
        cost = _column_costs(
            xa[:, lo:hi + 1, None], rev[:, start + lo:start + hi + 1], cfg.local_metric
        )
        best = np.minimum(prev1[lo:hi + 1], prev2[lo:hi + 1])  # up, diagonal
        np.minimum(best, prev1[lo + 1:hi + 2], out=best)  # left
        cur = np.full((k1 + 1, batch), np.inf)
        np.add(cost, best, out=cur[lo + 1:hi + 2])
        if hi == k1 - 1:
            last_row[t - hi] = cur[k1]
        prev2, prev1 = prev1, cur
    return last_row[lengths - 1, np.arange(batch)]


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

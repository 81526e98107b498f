"""Multidimensional dynamic time warping and 1-nearest-neighbor classification.

The distance between two feature matrices (rows = feature dimensions,
columns = time) is the cumulative local cost of the cheapest monotone
warping path from (1, 1) to (K1, K2) with unit-weight steps
(+1, 0), (0, +1), (+1, +1).  No global path window and no path-length
normalization: nearest-neighbor comparisons happen among broadly
similar lengths and the warping itself absorbs duration variation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError

__all__ = ["DtwConfig", "mddtw_distance", "classify_1nn"]

_METRICS = ("euclidean", "manhattan")


@dataclass(frozen=True)
class DtwConfig:
    """Local metric over feature columns; the step pattern is fixed."""

    local_metric: str = "euclidean"

    def __post_init__(self) -> None:
        if self.local_metric not in _METRICS:
            raise DomainError(f"local_metric must be one of {_METRICS}, got {self.local_metric!r}")


def _as_feature_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError("feature input must be a non-empty 2-D array (dims x time)")
    return arr


def local_cost_matrix(x: np.ndarray, y: np.ndarray, metric: str) -> np.ndarray:
    """Pairwise column costs, shape (K1, K2)."""
    diff = x[:, :, None] - y[:, None, :]
    if metric == "euclidean":
        return np.sqrt(np.einsum("dij,dij->ij", diff, diff))
    return np.abs(diff).sum(axis=0)


def mddtw_distance(x, y, cfg: DtwConfig = DtwConfig()) -> float:
    """Cumulative cost of the optimal warping path between two matrices."""
    xa = _as_feature_array(x)
    ya = _as_feature_array(y)
    if xa.shape[0] != ya.shape[0]:
        raise DimensionError(f"feature row-count mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    cost = local_cost_matrix(xa, ya, cfg.local_metric)
    k2 = cost.shape[1]
    rows = cost.tolist()

    # First row: only horizontal moves are legal.
    first = rows[0]
    prev = [0.0] * k2
    prev[0] = first[0]
    for j in range(1, k2):
        prev[j] = prev[j - 1] + first[j]
    for i in range(1, cost.shape[0]):
        row = rows[i]
        cur = [0.0] * k2
        left = prev[0] + row[0]
        cur[0] = left
        for j in range(1, k2):
            up = prev[j]
            diag = prev[j - 1]
            best = diag if diag < up else up
            if left < best:
                best = left
            left = row[j] + best
            cur[j] = left
        prev = cur
    return prev[-1]


def classify_1nn(
    test,
    references: Sequence[tuple[object, str]],
    cfg: DtwConfig = DtwConfig(),
) -> tuple[str, float]:
    """Label of the reference with minimal warping distance to ``test``.

    Ties break toward the earliest reference in the list, so results are
    deterministic for a fixed manifest order.
    """
    if not references:
        raise DomainError("reference list must not be empty")
    distances = [mddtw_distance(test, ref, cfg) for ref, _ in references]
    nearest = int(np.argmin(distances))  # first minimum = earliest reference
    return references[nearest][1], float(distances[nearest])

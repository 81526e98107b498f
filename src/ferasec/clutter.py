"""Loopback-filter clutter estimation and clutter reduction.

Clutter (echo energy from static or slowly moving scene elements) is
tracked per fast-time bin by a single-pole recursive filter and
subtracted from each incoming frame:

    c_m[n] = alpha * c_{m-1}[n] + (1 - alpha) * r_m[n]
    y_m[n] = r_m[n] - c_m[n]

``alpha`` close to 1 makes the estimate slow-moving, so articulator
motion survives in ``y`` while the static background cancels.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .frames import FrameSet

__all__ = ["DEFAULT_ALPHA", "reduce_frameset"]

DEFAULT_ALPHA = 0.95


def reduce_frameset(
    raw: FrameSet,
    alpha: float,
    *,
    init: str = "first_frame",
) -> np.ndarray:
    """Run the loopback filter over a raw frame set, row by slow-time row.

    Returns the reduced ``(M, N)`` map as a read-only float32 array; its
    values may be negative.  ``init`` selects the unobservable
    pre-first-frame clutter estimate: ``"first_frame"`` (default) seeds it
    with the first raw frame, which makes the first reduced row exactly
    zero and keeps the whole map linear in the input; ``"zero"`` starts
    from an empty scene estimate and admits a startup transient
    proportional to the static background.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if init not in ("first_frame", "zero"):
        raise DomainError(f"init must be 'first_frame' or 'zero', got {init!r}")

    data = raw.data.astype(np.float64)
    c = data[0].copy() if init == "first_frame" else np.zeros(raw.n, dtype=np.float64)
    reduced = np.empty_like(data)
    one_minus = 1.0 - alpha
    for m in range(raw.m):
        # Incremental form of alpha*c + (1-alpha)*r: it keeps the fixed
        # point exact, so a converged estimate reduces to exactly zero.
        c = c + one_minus * (data[m] - c)
        reduced[m] = data[m] - c
    reduced = reduced.astype(np.float32)  # the map keeps the raw samples' precision
    reduced.setflags(write=False)
    return reduced

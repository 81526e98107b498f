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
from .frames import _BLOCK_FRAMES, FrameSet

__all__ = ["DEFAULT_ALPHA", "reduce_frameset"]

DEFAULT_ALPHA = 0.95


def reduce_frameset(raw: FrameSet, alpha: float) -> np.ndarray:
    """Run the loopback filter over a raw frame set, row by slow-time row.

    Returns the reduced ``(M, N)`` map as a read-only float32 array; its
    values may be negative.  The unobservable pre-first-frame clutter
    estimate is the first raw frame, which makes the first reduced row
    exactly zero and keeps the whole map linear in the input.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")

    c = raw.data[0].astype(np.float64)
    step = np.empty_like(c)
    # The map keeps the raw samples' precision: frames are widened to
    # float64 a block at a time, reduced in place, and each block is
    # rounded to float32 once, as it is stored.
    block = np.empty((min(raw.m, _BLOCK_FRAMES), raw.n))
    reduced = np.empty(raw.data.shape, dtype=np.float32)
    one_minus = 1.0 - alpha
    for lo in range(0, raw.m, _BLOCK_FRAMES):
        frames = raw.data[lo : lo + _BLOCK_FRAMES]
        rows = block[: len(frames)]
        rows[...] = frames
        for row in rows:
            # Incremental form of alpha*c + (1-alpha)*r: it keeps the fixed
            # point exact, so a converged estimate reduces to exactly zero.
            np.subtract(row, c, out=step)
            step *= one_minus
            c += step
            np.subtract(row, c, out=row)
        reduced[lo : lo + len(rows)] = rows
    reduced.setflags(write=False)
    return reduced

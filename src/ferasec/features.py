"""FERASEC feature extraction over radar frame sets.

The extractor turns an ``M x N`` frame set into six feature rows of
length ``K = floor(M*N / D)``:

1. DC-removed, downsampled RMS envelope of the concatenated raw frames.
2. The same pipeline applied to the clutter-reduced map.
3, 4. Regression-weighted local slopes (deltas) of rows 1 and 2.
5, 6. Deltas of rows 3 and 4 (second derivatives).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clutter import DEFAULT_ALPHA, reduce_frameset
from .errors import ByteReader, DimensionError, DomainError, FormatError, Header, float32_bytes
from .frames import FrameSet

__all__ = [
    "FerasecConfig",
    "FeatureMatrix",
    "vectorize",
    "rms_envelope",
    "downsample",
    "remove_dc",
    "delta",
    "extract_features",
    "store_features",
    "load_features",
]

FEATURE_ROW_COUNT = 6
_HEADER = Header(b"FTM1", ("rows", "I"), ("length", "I"))
# Squared samples held at a time by the RMS envelope, in bytes.
_SQUARES_BYTES = 1 << 20


@dataclass(frozen=True)
class FerasecConfig:
    """The feature recipe: RMS window, downsampling factor, delta window
    and the clutter filter coefficient of row 2."""

    window: int = 400
    downsample: int = 1024
    delta_window: int = 9
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if not 2 <= self.window < 2**32 or self.window % 2 != 0:
            raise DomainError(f"window must be an even integer in [2, 2**32), got {self.window}")
        if not 1 <= self.downsample < 2**32:
            raise DomainError(f"downsample factor must lie in [1, 2**32), got {self.downsample}")
        if not 3 <= self.delta_window < 2**32 or self.delta_window % 2 == 0:
            raise DomainError(f"delta window must be an odd integer in [3, 2**32), got {self.delta_window}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Six feature rows of equal length K; rows 1 and 2 are zero-mean."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64).copy()
        if values.ndim != 2 or values.shape[0] != FEATURE_ROW_COUNT:
            raise DimensionError(f"feature matrix must have exactly {FEATURE_ROW_COUNT} rows")
        if values.shape[1] < 1:
            raise DomainError("feature matrix must have at least one column")
        if not np.all(np.isfinite(values)):
            raise DomainError("feature values must be finite")
        for row in (0, 1):
            # The absolute floor passes the rounding residue of a constant envelope.
            bound = 1e-9 * max(np.abs(values[row]).max(), 1.0)
            if abs(values[row].mean()) > bound:
                raise DomainError(f"envelope row {row + 1} is not DC-free")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def length(self) -> int:
        return int(self.values.shape[1])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.values, dtype=dtype)


def vectorize(frames: np.ndarray) -> np.ndarray:
    """Concatenate the rows of an ``(M, N)`` frame matrix top-to-bottom into one vector.

    Element ``(m, n)`` of the matrix lands at position ``(m-1)*N + n``
    (1-based) of the result.
    """
    return np.asarray(frames, dtype=np.float64).reshape(-1)


def rms_envelope(f: np.ndarray, window: int) -> np.ndarray:
    """Sliding-window RMS of ``f`` with step 1 and a fixed divisor.

    The window at 1-based position ``j`` spans samples
    ``max(1, j - W/2) .. min(len, j + W/2 - 1)``; the divisor is ``W``
    even for truncated edge windows, which damps the envelope toward the
    sequence ends.
    """
    FerasecConfig(window=window)  # checks the window as the config does
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise DimensionError("envelope input must be a non-empty 1-D vector")
    return _windowed_rms(f, window, slice(None))


def _windowed_rms(f: np.ndarray, window: int, kept: slice) -> np.ndarray:
    """:func:`rms_envelope` at ``kept``, a basic slice of positions.

    Only the samples inside the kept windows are squared, each at most
    once, in float64 (``f`` may be float32, frames as stored), and at
    most ``_SQUARES_BYTES`` of them at a time.  Each window is summed as
    one contiguous row of ``window`` squares; a window that runs past an
    end of ``f`` reads a zero-extended copy of its few samples.  A window
    of ``2 * len(f)`` samples or more covers every sample wherever it
    sits, so the envelope is one constant, summed once.
    """
    positions = range(f.size)[kept]
    f = np.ascontiguousarray(f)
    if window >= 2 * f.size:
        total = np.square(f, dtype=np.float64).sum()
        return np.full(len(positions), np.sqrt(total / window))
    # Window j covers samples starts[j] .. starts[j] + window - 1.  The
    # windows before ``inner`` start before sample 0 and those from
    # ``outer`` on end past the last sample; one window may do both.
    half = window // 2
    starts = range(positions.start - half, positions.stop - half, positions.step)
    step = starts.step
    inner = len(range(starts.start, 0, step))
    outer = max(inner, len(range(starts.start, f.size - window + 1, step)))
    # Overlapping windows (step < window) view the squares of the samples
    # they span; windows apart from each other square only their own
    # samples.  Either way ``count`` windows take ``(count - 1) * spacing
    # + window`` squares.
    spacing = min(step, window)
    chunk = min(len(starts), max(1, (_SQUARES_BYTES // 8 - window) // spacing + 1))
    squares = np.empty((chunk - 1) * spacing + window)
    sums = np.empty(len(starts))
    for j0, j1 in ((0, inner), (inner, outer), (outer, len(starts))):
        if j0 == j1:
            continue
        lo, hi = starts[j0], starts[j1 - 1] + window
        samples = f[lo:hi] if 0 <= lo and hi <= f.size else _zero_extended(f, lo, hi)
        for i in range(0, j1 - j0, chunk):
            count = min(chunk, j1 - j0 - i)
            span = samples[i * step : i * step + (count - 1) * step + window]
            if step < window:
                span = np.square(span, out=squares[: len(span)], dtype=np.float64)
                rows = _windows(span, count, step, window)
            else:
                rows = squares[: count * window].reshape(count, window)
                np.square(_windows(span, count, step, window), out=rows, dtype=np.float64)
            np.add.reduce(rows, axis=1, out=sums[j0 + i : j0 + i + count])
    sums /= window
    return np.sqrt(sums, out=sums)


def _windows(a: np.ndarray, count: int, step: int, window: int) -> np.ndarray:
    """``sliding_window_view(a, window)[::step]`` of ``count`` windows over the
    contiguous ``a``, built directly: the last window ends at ``a``'s last element."""
    return np.ndarray((count, window), a.dtype, a, 0, (step * a.itemsize, a.itemsize))


def _zero_extended(f: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Samples ``lo .. hi - 1`` of ``f``, zero outside ``0 .. len(f) - 1``."""
    out = np.zeros(hi - lo, dtype=f.dtype)
    out[max(lo, 0) - lo : min(hi, f.size) - lo] = f[max(lo, 0) : min(hi, f.size)]
    return out


def _kept_samples(length: int, factor: int) -> slice:
    """Positions ``factor * k`` (1-based), k = 1..floor(length/factor)."""
    if length < factor:
        raise DomainError(
            f"frame set too short: {length} envelope samples < downsample factor {factor}"
        )
    return slice(factor - 1, factor * (length // factor), factor)


def downsample(e: np.ndarray, factor: int) -> np.ndarray:
    """Strided selection ``v_k = e[factor * k]`` (1-based), k = 1..floor(len/factor).

    No anti-alias filtering: the RMS window already smooths the envelope.
    """
    FerasecConfig(downsample=factor)  # checks the factor as the config does
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 1:
        raise DimensionError("downsample input must be 1-D")
    return e[_kept_samples(e.size, factor)].copy()


def remove_dc(v: np.ndarray) -> np.ndarray:
    """Subtract the mean so the sequence sums to zero."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError("remove_dc input must be a non-empty 1-D vector")
    return v - v.mean()


def delta(z: np.ndarray, delta_window: int) -> np.ndarray:
    """Regression-weighted local slope over a symmetric window.

    ``out_k = sum_l l * z[k+l] / sum_l l**2`` for ``l`` in
    ``-floor(L/2) .. floor(L/2)``; out-of-range samples count as zero,
    so lags past ``K - 1`` add nothing and are not visited.
    A second application yields the second derivative.
    """
    FerasecConfig(delta_window=delta_window)  # checks the window as the config does
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise DimensionError("delta input must be a non-empty 1-D vector")
    half = delta_window // 2
    reach = min(half, z.size - 1)
    denom = half * (half + 1) * (2 * half + 1) // 3  # 2 * sum of l**2 for l = 1..half, exactly
    padded = np.concatenate((np.zeros(reach), z, np.zeros(reach)))
    out = np.zeros_like(z)
    for l in range(-reach, reach + 1):
        if l == 0:
            continue
        out += l * padded[reach + l : reach + l + z.size]
    return out / float(denom)


def extract_features(raw: FrameSet, cfg: FerasecConfig = FerasecConfig()) -> FeatureMatrix:
    """Run the full six-row pipeline; rows 1-2 sum only the windows downsampling keeps."""
    def envelope_row(f: np.ndarray) -> np.ndarray:
        return remove_dc(_windowed_rms(f, cfg.window, _kept_samples(f.size, cfg.downsample)))

    # Rows of the float32 maps, concatenated as vectorize does, without a float64 copy.
    row1 = envelope_row(raw.data.reshape(-1))
    row2 = envelope_row(reduce_frameset(raw, cfg.alpha).reshape(-1))
    row3 = delta(row1, cfg.delta_window)
    row4 = delta(row2, cfg.delta_window)
    row5 = delta(row3, cfg.delta_window)
    row6 = delta(row4, cfg.delta_window)
    return FeatureMatrix(np.vstack((row1, row2, row3, row4, row5, row6)))


def store_features(matrix: FeatureMatrix | np.ndarray, path: str | Path) -> None:
    """Write a feature matrix: magic, row count, K, then row-major float32 values."""
    values = np.asarray(matrix, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
        raise DimensionError("feature matrix must be a non-empty 2-D array")
    payload = float32_bytes(values, np.isfinite, "feature value {i} is {value}, not finite as a float32")
    header = _HEADER.pack(rows=values.shape[0], length=values.shape[1])
    Path(path).write_bytes(header + payload)


def load_features(path: str | Path) -> np.ndarray:
    """Read a feature matrix written by :func:`store_features`."""
    reader = ByteReader(path)
    shape = _HEADER.take(reader)
    for name, size in shape.items():
        if size == 0:
            raise FormatError("feature matrix dimensions must be positive", offset=_HEADER.offsets[name])
    rows, length = shape["rows"], shape["length"]
    values = reader.floats(rows * length, np.isfinite, "feature values must be finite")
    reader.end()
    return values.reshape(rows, length).astype(np.float64)

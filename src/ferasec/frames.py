"""Radar frame-set data model, persistence, and the positioning aid.

A *frame* is one received radar sweep: a vector of normalized echo
amplitudes over ``N`` fast-time bins (bin ``n`` of ``N`` spans
``(n/N) * range_m`` meters from the antenna).  A *frame set* stacks ``M``
consecutive frames in slow-time order into an ``M x N`` matrix.

A frame set is a raw capture: every amplitude lies in [0, 100].
Amplitudes are stored as little-endian IEEE-754 32-bit floats both in
memory and on disk, so persistence round-trips are bit-exact.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    DomainError,
    FormatError,
    read_utf8,
)

__all__ = [
    "FrameSet",
    "ManifestEntry",
    "CorpusManifest",
    "store_frameset",
    "load_frameset",
    "pearson_correlation",
    "positioning_check",
    "load_manifest",
    "store_manifest",
]

FRAMESET_MAGIC = b"FRS1"
_HEADER = struct.Struct("<4sIIffB3s")  # magic, N, M, frame_rate_hz, range_m, kind, reserved
HEADER_SIZE = _HEADER.size
DEFAULT_BIN_COUNT = 256
DEFAULT_FRAME_RATE_HZ = 200.0
DEFAULT_RANGE_M = 1.0


@dataclass(frozen=True)
class FrameSet:
    """``M x N`` matrix of raw amplitudes in [0, 100] with slow-time/fast-time
    semantics.  Instances are immutable.
    """

    data: np.ndarray
    frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ
    range_m: float = DEFAULT_RANGE_M
    label: str | None = None

    def __post_init__(self) -> None:
        data = np.array(self.data, dtype=np.float32, copy=True)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise DimensionError("frame-set data must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(data)):
            raise DomainError("frame-set amplitudes must be finite")
        if data.min() < 0.0 or data.max() > 100.0:
            raise DomainError("raw frame-set amplitudes must lie in [0, 100]")
        # Headers persist as 32-bit floats; coerce now so round-trips are exact.
        rate = float(np.float32(self.frame_rate_hz))
        rng = float(np.float32(self.range_m))
        if not rate > 0.0:
            raise DomainError(f"frame_rate_hz must be positive, got {self.frame_rate_hz}")
        if not rng > 0.0:
            raise DomainError(f"range_m must be positive, got {self.range_m}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "frame_rate_hz", rate)
        object.__setattr__(self, "range_m", rng)

    @property
    def m(self) -> int:
        """Number of frames (slow-time length)."""
        return int(self.data.shape[0])

    @property
    def n(self) -> int:
        """Fast-time bin count."""
        return int(self.data.shape[1])

    def frame(self, m: int) -> np.ndarray:
        """Return the frame at 1-based slow-time index ``m`` as float64 amplitudes."""
        if not 1 <= m <= self.m:
            raise DomainError(f"slow-time index {m} outside 1..{self.m}")
        return self.data[m - 1].astype(np.float64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameSet):
            return NotImplemented
        return (
            self.data.shape == other.data.shape
            and bool(np.all(self.data == other.data))
            and self.frame_rate_hz == other.frame_rate_hz
            and self.range_m == other.range_m
            and self.label == other.label
        )


def store_frameset(fs: FrameSet, path: str | Path) -> None:
    """Write ``fs`` in the binary frame-set format (see module docstring).

    The class label, if any, is not part of the file; labels travel in the
    corpus manifest.
    """
    header = _HEADER.pack(
        FRAMESET_MAGIC,
        fs.n,
        fs.m,
        np.float32(fs.frame_rate_hz),
        np.float32(fs.range_m),
        0,  # kind byte: a raw capture, the only kind
        b"\x00\x00\x00",
    )
    payload = np.ascontiguousarray(fs.data, dtype="<f4").tobytes()
    Path(path).write_bytes(header + payload)


def load_frameset(path: str | Path, label: str | None = None) -> FrameSet:
    """Read a frame set written by :func:`store_frameset`."""
    blob = Path(path).read_bytes()
    if len(blob) < HEADER_SIZE:
        raise FormatError(f"file too short for header: {len(blob)} bytes", offset=len(blob))
    magic, n, m, rate, range_m, kind_byte, reserved = _HEADER.unpack_from(blob, 0)
    if magic != FRAMESET_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {FRAMESET_MAGIC!r}", offset=0)
    if n == 0:
        raise FormatError("fast-time bin count must be positive", offset=4)
    if m == 0:
        raise FormatError("frame count must be positive", offset=8)
    if kind_byte != 0:
        raise FormatError(f"kind byte must be 0 (raw capture), got {kind_byte}", offset=20)
    if reserved != b"\x00\x00\x00":
        raise FormatError("reserved bytes must be zero", offset=21)
    expected = m * n * 4
    actual = len(blob) - HEADER_SIZE
    if actual != expected:
        raise FormatError(
            f"payload holds {actual} bytes but dimensions {m}x{n} require {expected}",
            offset=HEADER_SIZE + min(actual, expected),
        )
    data = np.frombuffer(blob, dtype="<f4", count=m * n, offset=HEADER_SIZE).reshape(m, n)
    try:
        return FrameSet(data, rate, range_m, label)
    except DomainError as exc:
        raise FormatError(f"stored values violate frame-set invariants: {exc}", offset=HEADER_SIZE)


def pearson_correlation(p: Sequence[float] | np.ndarray, q: Sequence[float] | np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length finite vectors.

    Raises :class:`DegenerateInputError` when either vector has zero
    variance; a constant radar frame indicates a broken capture and must
    surface rather than silently yielding 0 or NaN.
    """
    pv = np.asarray(p, dtype=np.float64)
    qv = np.asarray(q, dtype=np.float64)
    if pv.ndim != 1 or qv.ndim != 1:
        raise DimensionError("correlation inputs must be 1-D vectors")
    if pv.size != qv.size:
        raise DimensionError(f"length mismatch: {pv.size} vs {qv.size}")
    if pv.size < 2:
        raise DomainError("correlation needs at least two samples")
    if not (np.all(np.isfinite(pv)) and np.all(np.isfinite(qv))):
        raise DomainError("correlation inputs must be finite")
    pc = pv - pv.mean()
    qc = qv - qv.mean()
    pp = float(pc @ pc)
    qq = float(qc @ qc)
    if pp == 0.0 or qq == 0.0:
        raise DegenerateInputError("zero-variance input to Pearson correlation")
    rho = float(pc @ qc) / np.sqrt(pp * qq)
    return float(min(1.0, max(-1.0, rho)))


def positioning_check(reference: np.ndarray, live: np.ndarray, threshold: float) -> tuple[float, bool]:
    """Correlate a live frame against the preset-position reference frame.

    Both frames are 1-D amplitude vectors over the same fast-time bins.
    Returns ``(rho, passed)`` with ``passed == (rho > threshold)``.  The
    threshold gates whether the articulators are back at the preset
    position and angle within tolerance.
    """
    if not 0.0 < threshold < 1.0:
        raise DomainError(f"threshold must lie in (0, 1), got {threshold}")
    rho = pearson_correlation(reference, live)
    return rho, rho > threshold


POSITION_TAGS = ("upper", "lower")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    repetition: int
    position: str
    seed: int

    def __post_init__(self) -> None:
        if self.position not in POSITION_TAGS:
            raise DomainError(f"position must be one of {POSITION_TAGS}, got {self.position!r}")
        if self.repetition < 0:
            raise DomainError("repetition index must be non-negative")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        if "\t" in self.path or "\t" in self.label:
            raise DomainError("path and label must not contain tab characters")

    @property
    def item_id(self) -> str:
        return self.path


@dataclass(frozen=True)
class CorpusManifest:
    """Labeled index of frame-set files belonging to one corpus."""

    entries: tuple[ManifestEntry, ...]
    root: Path = field(default_factory=Path)

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not entries:
            raise DomainError("manifest must contain at least one entry")
        seen: set[tuple[str, int, str]] = set()
        paths: set[str] = set()
        for e in entries:
            key = (e.label, e.repetition, e.position)
            if key in seen:
                raise DomainError(f"duplicate (class, repetition, position) entry: {key}")
            seen.add(key)
            # The path is the item's identity: a repeated file would be
            # scored against itself in cross-validation.
            path = os.path.normpath(e.path)
            if path in paths:
                raise DomainError(f"duplicate frame-set path: {e.path!r}")
            paths.add(path)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "root", Path(self.root))

    @property
    def labels(self) -> tuple[str, ...]:
        """Distinct class labels in first-appearance order."""
        out: list[str] = []
        for e in self.entries:
            if e.label not in out:
                out.append(e.label)
        return tuple(out)

    @property
    def class_count(self) -> int:
        return len(self.labels)

    @property
    def reps_per_class(self) -> int:
        counts = {label: 0 for label in self.labels}
        for e in self.entries:
            counts[e.label] += 1
        values = set(counts.values())
        if len(values) != 1:
            raise DomainError(f"classes have unequal item counts: {counts}")
        return values.pop()

    def resolve(self, entry: ManifestEntry) -> Path:
        return self.root / entry.path


def store_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    """Write one tab-separated line per entry: path, label, repetition, position, seed."""
    lines = [
        f"{e.path}\t{e.label}\t{e.repetition}\t{e.position}\t{e.seed}"
        for e in manifest.entries
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_manifest(path: str | Path) -> CorpusManifest:
    """Read a manifest; frame-set paths resolve relative to the manifest's directory."""
    path = Path(path)
    entries: list[ManifestEntry] = []
    for lineno, line in enumerate(read_utf8(path).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(fields)}")
        rel, label, rep, position, seed = fields
        try:
            entries.append(ManifestEntry(rel, label, int(rep), position, int(seed)))
        except (ValueError, DomainError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not entries:
        raise FormatError(f"{path}: manifest is empty")
    try:
        return CorpusManifest(tuple(entries), root=path.parent)
    except DomainError as exc:
        raise FormatError(f"{path}: {exc}") from None

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ByteReader,
    DegenerateInputError,
    DimensionError,
    DomainError,
    FormatError,
    Header,
    breaks_line,
    positive_float32,
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

_HEADER = Header(b"FRS1", ("n", "I"), ("m", "I"), ("frame_rate_hz", "f"), ("range_m", "f"), ("kind", "B"),
                 ("reserved", "3s"))
DEFAULT_BIN_COUNT = 256
DEFAULT_FRAME_RATE_HZ = 200.0
DEFAULT_RANGE_M = 1.0
# Frames widened to float64 at a time by the code that renders or filters
# a frame set: one float64 block of this many frames beside the float32 map.
_BLOCK_FRAMES = 1024


def _immutable_float32(data) -> np.ndarray:
    """``data`` as float32 amplitudes that nothing else can change.

    A read-only float32 view of a ``bytes`` object (what
    :func:`load_frameset` reads) is already immutable and is adopted as
    it is; anything else is copied.
    """
    if isinstance(data, np.ndarray) and data.dtype == np.float32 and not data.flags.writeable:
        base = data
        while isinstance(base, np.ndarray):
            base = base.base
        if type(base) is bytes:
            return data
    return np.array(data, dtype=np.float32, copy=True)


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
        data = _immutable_float32(self.data)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise DimensionError("frame-set data must be a non-empty 2-D matrix")
        # NaN and +-inf fail the range check too; only then is the mask built.
        if not (data.min() >= 0.0 and data.max() <= 100.0):
            if not np.all(np.isfinite(data)):
                raise DomainError("frame-set amplitudes must be finite")
            raise DomainError("raw frame-set amplitudes must lie in [0, 100]")
        # Headers persist as 32-bit floats; coerce now so round-trips are exact.
        for name in ("frame_rate_hz", "range_m"):
            value = positive_float32(getattr(self, name))
            if value is None:
                raise DomainError(f"{name} must be positive and finite as a float32, got {getattr(self, name)}")
            object.__setattr__(self, name, value)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

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
    # The rate and range are float32 values already; kind 0 is a raw capture, the only kind.
    header = _HEADER.pack(n=fs.n, m=fs.m, frame_rate_hz=fs.frame_rate_hz, range_m=fs.range_m, kind=0,
                          reserved=b"\x00\x00\x00")
    payload = np.ascontiguousarray(fs.data, dtype="<f4").tobytes()
    Path(path).write_bytes(header + payload)


def load_frameset(path: str | Path, label: str | None = None) -> FrameSet:
    """Read a frame set written by :func:`store_frameset`."""
    reader = ByteReader(path)
    header = _HEADER.take(reader)
    n, m, rate, range_m = header["n"], header["m"], header["frame_rate_hz"], header["range_m"]
    at = _HEADER.offsets
    if n == 0:
        raise FormatError("fast-time bin count must be positive", offset=at["n"])
    if m == 0:
        raise FormatError("frame count must be positive", offset=at["m"])
    if positive_float32(rate) is None:
        raise FormatError(f"frame rate must be positive and finite, got {rate}", offset=at["frame_rate_hz"])
    if positive_float32(range_m) is None:
        raise FormatError(f"detection range must be positive and finite, got {range_m}", offset=at["range_m"])
    if header["kind"] != 0:
        raise FormatError(f"kind byte must be 0 (raw capture), got {header['kind']}", offset=at["kind"])
    if header["reserved"] != b"\x00\x00\x00":
        raise FormatError("reserved bytes must be zero", offset=at["reserved"])
    start = reader.pos
    data = reader.floats(m * n)
    try:
        fs = FrameSet(data.reshape(m, n), rate, range_m, label)  # checks the amplitudes' range once
    except DomainError:  # the header fields passed above, so an amplitude failed
        good = (data >= 0.0) & (data <= 100.0)  # NaN fails both comparisons
        i = int(np.argmin(good))
        raise FormatError(f"amplitude {i} must be finite and lie in [0, 100], got {data[i]}",
                          offset=start + 4 * i) from None
    reader.end()
    return fs


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
        if any("\t" in text or breaks_line(text) for text in (self.path, self.label)):
            raise DomainError("path and label must not contain a tab or a line break")

    @property
    def item_id(self) -> str:
        return self.path

    @property
    def key(self) -> tuple[str, int, str]:
        """``(label, repetition, position)``: unique within a manifest, and its sort key."""
        return (self.label, self.repetition, self.position)


@dataclass(frozen=True)
class CorpusManifest:
    """Labeled index of frame-set files belonging to one corpus; ``entries``
    are kept sorted by :attr:`ManifestEntry.key`, whatever order they come in."""

    entries: tuple[ManifestEntry, ...]
    root: Path = field(default_factory=Path)

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.entries, key=lambda e: e.key))
        if not entries:
            raise DomainError("manifest must contain at least one entry")
        seen: set[tuple[str, int, str]] = set()
        paths: set[str] = set()
        for e in entries:
            if e.key in seen:
                raise DomainError(f"duplicate (class, repetition, position) entry: {e.key}")
            seen.add(e.key)
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
        """Distinct class labels in sorted order, the order of the entries."""
        return tuple(dict.fromkeys(e.label for e in self.entries))

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

"""Synthetic IR-UWB frame-set generation.

Articulatory-style gestures are modeled as reflectors whose distance to
the antenna follows a base offset plus Gaussian bumps in time.  Each
slow-time frame renders every reflector as a Gaussian echo across
fast-time bins on top of a static clutter profile, plus white noise,
clamped to the raw amplitude range [0, 100].

These corpora are algorithm-validation fixtures: trajectories are not
calibrated to human articulation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError, GenerationError
from .frames import (
    DEFAULT_BIN_COUNT,
    DEFAULT_FRAME_RATE_HZ,
    DEFAULT_RANGE_M,
    CorpusManifest,
    FrameSet,
    ManifestEntry,
    store_frameset,
    store_manifest,
)
from .seeding import derive_seed

__all__ = [
    "GestureBump",
    "Reflector",
    "GestureScript",
    "SimConfig",
    "render_frameset",
    "generate_corpus",
    "vowel8_preset",
    "DIFFICULTIES",
    "parse_scripts_text",
]

DIFFICULTIES = ("easy", "medium", "hard")

# The simulated radar: one pulse shape, echo strength and room background
# for every corpus, on the frame grid of ``frames.DEFAULT_*``.
PULSE_WIDTH_BINS = 2.0
ECHO_AMPLITUDE = 40.0


def _clutter_profile() -> np.ndarray:
    """Static background: three fixed Gaussian humps, peak amplitude <= 60."""
    n = DEFAULT_BIN_COUNT
    bins = np.arange(1, n + 1, dtype=np.float64)
    humps = ((0.12 * n, 0.035 * n, 55.0), (0.45 * n, 0.060 * n, 35.0), (0.80 * n, 0.045 * n, 20.0))
    profile = np.zeros(n)
    for center, width, amp in humps:
        profile += amp * np.exp(-((bins - center) ** 2) / (2.0 * width * width))
    profile = np.clip(profile, 0.0, 60.0)
    profile.setflags(write=False)
    return profile


CLUTTER_PROFILE = _clutter_profile()


@dataclass(frozen=True)
class GestureBump:
    """Gaussian distance excursion: center and width in seconds, amplitude in meters."""

    center_s: float
    width_s: float
    amplitude_m: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.center_s, self.width_s, self.amplitude_m))):
            raise DomainError(
                f"bump fields must be finite, got ({self.center_s}, {self.width_s}, {self.amplitude_m})"
            )
        if not self.width_s > 0.0:
            raise DomainError(f"bump width must be positive, got {self.width_s}")


@dataclass(frozen=True)
class Reflector:
    base_distance_m: float
    bumps: tuple[GestureBump, ...] = ()
    reflectivity: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base_distance_m) and self.base_distance_m > 0.0):
            raise DomainError(f"base distance must be finite and positive, got {self.base_distance_m}")
        if not 0.0 < self.reflectivity <= 1.0:
            raise DomainError(f"reflectivity must lie in (0, 1], got {self.reflectivity}")
        object.__setattr__(self, "bumps", tuple(self.bumps))

    def distance_at(self, t: np.ndarray, time_scale: float, shift_s: float) -> np.ndarray:
        """Distance trajectory with bump timing scaled and shifted."""
        d = np.full_like(t, self.base_distance_m, dtype=np.float64)
        for bump in self.bumps:
            center = bump.center_s * time_scale + shift_s
            width = bump.width_s * time_scale
            d += bump.amplitude_m * np.exp(-((t - center) ** 2) / (2.0 * width * width))
        return d


@dataclass(frozen=True)
class GestureScript:
    """A labeled gesture; an empty reflector tuple renders pure clutter."""

    label: str
    reflectors: tuple[Reflector, ...]
    duration_s: float

    def __post_init__(self) -> None:
        if not self.label:
            raise DomainError("script label must be non-empty")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0.0):
            raise DomainError(f"duration must be finite and positive, got {self.duration_s}")
        object.__setattr__(self, "reflectors", tuple(self.reflectors))


@dataclass(frozen=True)
class SimConfig:
    """Per-corpus scene variation: white noise and per-item jitter."""

    noise_sigma: float = 0.0
    onset_jitter_s: float = 0.2
    duration_jitter_fraction: float = 0.1
    # Per-item rigid shift of every reflector: articulators never rest at
    # exactly the preset position between repetitions.
    position_jitter_m: float = 0.0

    def __post_init__(self) -> None:
        for name in ("noise_sigma", "onset_jitter_s", "position_jitter_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise DomainError(f"{name} must be finite and non-negative, got {value}")
        for name in ("onset_jitter_s", "position_jitter_m"):
            value = getattr(self, name)
            if not math.isfinite(2.0 * value):
                raise DomainError(f"2 * {name}, its uniform draw's width, must be finite, got {value}")
        if not 0.0 <= self.duration_jitter_fraction < 0.5:
            raise DomainError(
                f"duration_jitter_fraction must lie in [0, 0.5), got {self.duration_jitter_fraction}"
            )


def render_frameset(script: GestureScript, cfg: SimConfig, seed: int) -> FrameSet:
    """Render one labeled raw frame set; identical seeds give identical bytes.

    Onset, duration, and position jitter are drawn first from the item's
    own generator (in that fixed order), so every random stream is a pure
    function of the seed.  The position jitter shifts all reflectors
    rigidly; the clutter background stays fixed to the room.
    """
    rng = np.random.default_rng(seed)
    onset_shift = float(rng.uniform(-cfg.onset_jitter_s, cfg.onset_jitter_s))
    time_scale = float(1.0 + rng.uniform(-cfg.duration_jitter_fraction, cfg.duration_jitter_fraction))
    position_shift = float(rng.uniform(-cfg.position_jitter_m, cfg.position_jitter_m))
    frame_count = int(round(script.duration_s * time_scale * DEFAULT_FRAME_RATE_HZ))
    if frame_count < 1:
        raise GenerationError("jittered duration renders zero frames")

    t = np.arange(1, frame_count + 1, dtype=np.float64) / DEFAULT_FRAME_RATE_HZ
    bins = np.arange(1, DEFAULT_BIN_COUNT + 1, dtype=np.float64)
    data = np.tile(CLUTTER_PROFILE, (frame_count, 1))
    denom = 2.0 * PULSE_WIDTH_BINS**2
    for reflector in script.reflectors:
        dist = reflector.distance_at(t, time_scale, onset_shift) + position_shift
        if dist.min() <= 0.0 or dist.max() >= DEFAULT_RANGE_M:
            raise GenerationError(
                f"reflector trajectory leaves (0, {DEFAULT_RANGE_M}) m for script {script.label!r}"
            )
        center_bins = dist * DEFAULT_BIN_COUNT / DEFAULT_RANGE_M  # 1-based, continuous
        data += reflector.reflectivity * ECHO_AMPLITUDE * np.exp(
            -((bins[None, :] - center_bins[:, None]) ** 2) / denom
        )
    if cfg.noise_sigma > 0.0:
        data += rng.normal(0.0, cfg.noise_sigma, size=data.shape)
    np.clip(data, 0.0, 100.0, out=data)
    return FrameSet(
        data,
        frame_rate_hz=DEFAULT_FRAME_RATE_HZ,
        range_m=DEFAULT_RANGE_M,
        label=script.label,
    )


_FILENAME_SAFE = re.compile(r"[^A-Za-z0-9_.-]+")


def generate_corpus(
    scripts: list[GestureScript] | tuple[GestureScript, ...],
    reps: int,
    cfg: SimConfig,
    master_seed: int,
    out_dir: str | Path,
) -> CorpusManifest:
    """Render ``reps`` repetitions of every script and write a manifest.

    Per-item seeds derive from the master seed plus the class label and
    repetition index, so corpus bytes are a pure function of
    (scripts, cfg, master_seed) and items may be re-rendered in isolation.
    Every item is tagged with the ``upper`` position.
    """
    if len(scripts) < 2:
        raise DomainError("corpus needs at least 2 classes")
    if reps < 2:
        raise DomainError("corpus needs at least 2 repetitions per class")
    labels = [s.label for s in scripts]
    if len(set(labels)) != len(labels):
        raise DomainError("script labels must be unique")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    entries: list[ManifestEntry] = []
    for script in scripts:
        safe = _FILENAME_SAFE.sub("-", script.label)
        for rep in range(1, reps + 1):
            item_seed = derive_seed(master_seed, "item", script.label, rep)
            rel = f"{safe}_{rep:03d}.frs"
            store_frameset(render_frameset(script, cfg, item_seed), out / rel)
            entries.append(ManifestEntry(rel, script.label, rep, "upper", item_seed))
    manifest = CorpusManifest(tuple(entries), root=out)
    store_manifest(manifest, out / "manifest.tsv")
    return manifest


def vowel8_preset(difficulty: str) -> tuple[list[GestureScript], SimConfig]:
    """Eight two-bump gesture classes plus a matching scene config.

    One articulator reflector carries a two-bump trajectory between two
    static reflectors of different strengths; when echoes overlap their
    amplitudes add, so overlap depth, direction, and speed leave strong
    signatures in windowed frame energy.  The class axes (first-bump
    direction, second-bump depth, second-bump speed) all survive elastic
    time alignment, which absorbs timing-only differences.  The
    difficulty knob shrinks the axes and raises the noise floor.
    """
    if difficulty not in DIFFICULTIES:
        raise DomainError(f"difficulty must be one of {DIFFICULTIES}, got {difficulty!r}")
    separation, noise_sigma, position_jitter = {
        "easy": (1.0, 1.5, 0.01),
        "medium": (0.6, 3.0, 0.025),
        "hard": (0.35, 6.0, 0.04),
    }[difficulty]

    duration = 1.2
    base = 0.30
    scripts: list[GestureScript] = []
    for i in range(8):
        toward = 1.0 if i & 1 else -1.0
        deep = bool(i & 2)
        slow = bool(i & 4)
        bump1 = GestureBump(
            center_s=0.35,
            width_s=0.09,
            amplitude_m=toward * (0.040 + 0.035 * separation),
        )
        bump2 = GestureBump(
            center_s=0.82,
            width_s=0.080 + (0.095 * separation if slow else 0.0),
            amplitude_m=-(0.025 + (0.065 if deep else 0.010) * separation),
        )
        scripts.append(
            GestureScript(
                label=f"v{i}",
                reflectors=(
                    Reflector(base, (bump1, bump2), reflectivity=0.9),
                    Reflector(0.225, (), reflectivity=0.5),
                    Reflector(0.375, (), reflectivity=0.85),
                ),
                duration_s=duration,
            )
        )
    cfg = SimConfig(noise_sigma=noise_sigma, position_jitter_m=position_jitter)
    return scripts, cfg


_HEADER_RE = re.compile(r"^\[(?P<label>[^\]]+)\]\s+duration=(?P<duration>[0-9.]+)\s*$")
_BUMP_RE = re.compile(r"bump\(\s*([^,()]+)\s*,\s*([^,()]+)\s*,\s*([^,()]+)\s*\)")


def parse_scripts_text(text: str) -> list[GestureScript]:
    """Parse gesture scripts from text.

    Format: a ``[label] duration=<seconds>`` header starts each script,
    followed by one reflector per line:
    ``base_distance; bump(center,width,amp)*; reflectivity``.
    Blank lines and ``#`` comments are ignored.
    """
    scripts: list[GestureScript] = []
    label: str | None = None
    duration = 0.0
    reflectors: list[Reflector] = []

    def flush() -> None:
        nonlocal reflectors
        if label is not None:
            try:
                scripts.append(GestureScript(label, tuple(reflectors), duration))
            except DomainError as exc:
                raise FormatError(f"script {label!r}: {exc}") from None
            reflectors = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        header = _HEADER_RE.match(line)
        if header:
            flush()
            label = header.group("label").strip()
            try:
                duration = float(header.group("duration"))
            except ValueError:
                raise FormatError(f"line {lineno}: bad duration in {line!r}") from None
            continue
        if label is None:
            raise FormatError(f"line {lineno}: reflector before any [label] header")
        parts = line.split(";")
        if len(parts) != 3:
            raise FormatError(
                f"line {lineno}: expected 'base; bump(...)*; reflectivity', got {line!r}"
            )
        bump_field = parts[1].strip()
        if _BUMP_RE.sub("", bump_field).strip():
            raise FormatError(f"line {lineno}: malformed bump() expression in {bump_field!r}")
        try:
            bumps = tuple(
                GestureBump(float(c), float(w), float(a))
                for c, w, a in _BUMP_RE.findall(bump_field)
            )
            reflectors.append(
                Reflector(float(parts[0]), bumps, float(parts[2]))
            )
        except (ValueError, DomainError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    flush()
    if not scripts:
        raise FormatError("no scripts found in text")
    return scripts

"""Exception hierarchy shared by all modules, the two file readers and the writers' float32 check.

Input-validation failures map to CLI exit code 2, numeric failures to 3.

:func:`read_utf8` reads the text files (manifests, gesture scripts);
:class:`ByteReader` reads the binary ones (frame sets, feature matrices,
models).  A malformed binary file is a :class:`FormatError` at a byte
offset, by one rule for every format: a bad header field at the field's
offset, a bad value at the value's offset, a short file at its end
(where the missing bytes should be) and trailing bytes at the end of
the payload.  The feature and model writers put their values through
:func:`float32_bytes`, so they refuse, before writing any byte, a value
that the reader would reject once rounded to float32.
:func:`positive_float32` is the one rule for a float32 field that must
be positive and finite, and :func:`breaks_line` the one test for a
field of a line-based text record.  Each binary format declares its
:class:`Header` once, and the offset of each header field follows from it.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Callable

import numpy as np


class FerasecError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FerasecError):
    """An argument is outside the operation's valid domain."""


class DimensionError(DomainError):
    """Array shapes or lengths are inconsistent."""


class DegenerateInputError(DomainError):
    """A correlation input has zero variance (e.g. a constant radar frame)."""


class FormatError(FerasecError):
    """A binary or text file does not conform to its declared format."""

    def __init__(self, message: str, *, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class GenerationError(DomainError):
    """A synthetic trajectory left the simulated detection range."""


class TrainingError(FerasecError):
    """The training corpus cannot be used to fit a model."""


class NumericError(FerasecError):
    """A computation produced non-finite values."""


def read_utf8(path: str | Path) -> str:
    """Read a UTF-8 text file; undecodable bytes raise :class:`FormatError`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})", offset=exc.start) from None


class ByteReader:
    """Cursor over the bytes of a binary file; each read advances it."""

    def __init__(self, path: str | Path):
        self.blob = Path(path).read_bytes()
        self.pos = 0

    def _advance(self, size: int) -> int:
        start, end = self.pos, self.pos + size
        if end > len(self.blob):
            raise FormatError(f"file truncated: {end} bytes needed, {len(self.blob)} present", offset=len(self.blob))
        self.pos = end
        return start

    def take(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.blob, self._advance(struct.calcsize(fmt)))

    def take_bytes(self, count: int) -> bytes:
        return self.blob[self._advance(count) : self.pos]

    def floats(self, count: int, ok: Callable | None = None, message: str = "") -> np.ndarray:
        """``count`` little-endian float32 values as a read-only view.  The
        first value where the mask ``ok(values)`` is false fails at its own
        offset with ``message``, formatted with its index ``i`` and ``value``."""
        start = self._advance(4 * count)
        values = np.frombuffer(self.blob, dtype="<f4", count=count, offset=start)
        if ok is not None:
            good = ok(values)
            if not good.all():
                i = int(np.argmin(good))
                raise FormatError(message.format(i=i, value=values[i]), offset=start + 4 * i)
        return values

    def end(self) -> None:
        if self.pos != len(self.blob):
            raise FormatError(f"{len(self.blob) - self.pos} trailing bytes after the payload", offset=self.pos)


class Header:
    """A binary format's fixed header: its magic, then named little-endian
    fields, each a :mod:`struct` code.  ``offsets[name]`` is the byte where
    a field starts (where the codes before it end), so a loader raises a
    bad field there."""

    def __init__(self, magic: bytes, *fields: tuple[str, str]):
        self.magic = magic
        codes = [f"{len(magic)}s", *(code for _, code in fields)]
        self.format = "<" + "".join(codes)
        self.offsets = {name: struct.calcsize("<" + "".join(codes[: i + 1])) for i, (name, _) in enumerate(fields)}

    def pack(self, **fields) -> bytes:
        return struct.pack(self.format, self.magic, *(fields[name] for name in self.offsets))

    def take(self, reader: ByteReader) -> dict:
        """The header's fields by name; a wrong magic fails at offset 0."""
        magic, *values = reader.take(self.format)
        if magic != self.magic:
            raise FormatError(f"bad magic {magic!r}, expected {self.magic!r}", offset=0)
        return dict(zip(self.offsets, values))


def positive_float32(value) -> float | None:
    """``value`` rounded to float32, or None unless that is positive and
    finite: the rule for every f32 header field that must be positive."""
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        image = np.float32(value)
    return float(image) if np.isfinite(image) and image > 0.0 else None


def breaks_line(text: str) -> bool:
    """Whether ``text`` holds a character on which :meth:`str.splitlines`
    breaks, so that a one-line record holding it would not read back."""
    return len((text + ".").splitlines()) > 1


def float32_bytes(values, ok: Callable, message: str) -> bytes:
    """``values`` as the little-endian float32 bytes a reader takes.  The
    first value where the mask ``ok(image)`` is false on that float32
    image is a :class:`NumericError` with ``message``, formatted as in
    :meth:`ByteReader.floats`."""
    with np.errstate(over="ignore"):  # an overflow to inf fails ``ok`` below
        image = np.ascontiguousarray(values, dtype="<f4")
    good = ok(image).reshape(-1)
    if not good.all():
        i = int(np.argmin(good))
        raise NumericError(message.format(i=i, value=np.asarray(values).reshape(-1)[i]))
    return image.tobytes()

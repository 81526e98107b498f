"""Deterministic seed derivation.

Every random stream in the package is keyed by an explicit integer seed.
Sub-seeds (per corpus item, per cross-validation fold) are derived from a
master seed plus stable string/int components, so results do not depend on
iteration order, thread scheduling, or Python's randomized string hashing.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DomainError

__all__ = ["derive_seed"]


def _component_to_int(part: int | str) -> int:
    if isinstance(part, bool):  # bool is an int subclass; reject to avoid surprises
        raise DomainError("seed components must be int or str, not bool")
    if isinstance(part, int):
        if not 0 <= part < 2**64:
            raise DomainError(f"seed components must lie in [0, 2**64), got {part}")
        return part
    digest = hashlib.sha256(part.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed(master_seed: int, *parts: int | str) -> int:
    """Derive a 64-bit sub-seed from ``master_seed`` and stable components."""
    entropy = [_component_to_int(master_seed)] + [_component_to_int(p) for p in parts]
    state = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint32)
    return int(state[0]) | (int(state[1]) << 32)

"""Stable seed derivation.

Python's builtin hash() is salted per process, so every seed that feeds a
random stream is derived through sha256 instead.  This keeps parallel and
serial runs, and reruns in fresh processes, bit-for-bit identical.
"""

from __future__ import annotations

import hashlib
import random

_SEP = b"\x1f"


def stable_hash(*parts) -> int:
    """63-bit integer hash of the UTF-8 string forms of ``parts`` joined by ``_SEP``, stable
    across processes."""
    joined = _SEP.join(str(p).encode("utf-8") for p in parts)
    return int.from_bytes(hashlib.sha256(joined).digest()[:8], "big") >> 1


def derive_seed(*parts) -> int:
    return stable_hash(*parts)


def derive_rng(*parts) -> random.Random:
    """Fresh ``random.Random`` seeded from the stable hash of ``parts``."""
    return random.Random(stable_hash(*parts))

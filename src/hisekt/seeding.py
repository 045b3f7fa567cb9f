"""Stable seed derivation.

Python's builtin hash() is salted per process, so every seed that feeds a
random stream is derived through sha256 instead.  This keeps parallel and
serial runs, and reruns in fresh processes, bit-for-bit identical.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable

_SEP = b"\x1f"


def hash_joined(chunks: Iterable[bytes]) -> int:
    """63-bit integer hash of ``chunks`` joined by ``_SEP``, stable across processes."""
    return int.from_bytes(hashlib.sha256(_SEP.join(chunks)).digest()[:8], "big") >> 1


def stable_hash(*parts) -> int:
    """:func:`hash_joined` of the UTF-8 string forms of ``parts``."""
    return hash_joined(str(p).encode("utf-8") for p in parts)


def derive_seed(*parts) -> int:
    return stable_hash(*parts)


def derive_rng(*parts) -> random.Random:
    """Fresh ``random.Random`` seeded from the stable hash of ``parts``."""
    return random.Random(stable_hash(*parts))

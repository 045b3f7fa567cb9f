"""Stable seed derivation.

Python's builtin hash() is salted per process, so every seed that feeds a
random stream is derived through sha256 instead.  This keeps parallel and
serial runs, and reruns in fresh processes, bit-for-bit identical.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterable

_SEP = b"\x1f"


def _hash_int(h) -> int:
    return int.from_bytes(h.digest()[:8], "big") >> 1


def hash_joined(chunks: Iterable[bytes]) -> int:
    """63-bit integer hash of ``chunks`` joined by ``_SEP``, stable across processes."""
    return _hash_int(hashlib.sha256(_SEP.join(chunks)))


def stable_hash(*parts) -> int:
    """:func:`hash_joined` of the UTF-8 string forms of ``parts``."""
    return hash_joined(str(p).encode("utf-8") for p in parts)


def derive_seed(*parts) -> int:
    return stable_hash(*parts)


def seeds_after(*prefix) -> Callable[[object], int]:
    """``lambda last: derive_seed(*prefix, last)`` that hashes ``prefix`` once, not per call."""
    head = hashlib.sha256(b"".join(str(p).encode("utf-8") + _SEP for p in prefix))

    def seed(last) -> int:
        h = head.copy()
        h.update(str(last).encode("utf-8"))
        return _hash_int(h)

    return seed


def derive_rng(*parts) -> random.Random:
    """Fresh ``random.Random`` seeded from the stable hash of ``parts``."""
    return random.Random(stable_hash(*parts))

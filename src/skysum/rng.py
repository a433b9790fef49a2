"""Deterministic random-number streams for reproducible simulations.

All stochastic code in this package draws from Philox counter-based
generators keyed by an integer seed plus a derivation path.  The same
``(seed, path)`` always yields the same stream, independent of how many
other streams were created before it, so parallel trials and per-track
simulations are bit-reproducible.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


def _path_key(item) -> int:
    """Map a path element to a stable unsigned 32-bit integer.

    Integers outside [0, 2**32) are refused rather than wrapped, so no two
    integer paths share a stream.
    """
    if isinstance(item, (int, np.integer)):
        if not 0 <= item < 2**32:
            raise ValueError(f"integer path element {item} outside [0, 2**32)")
        return int(item)
    return _text_key(str(item))


@functools.lru_cache(maxsize=1024)
def _text_key(text: str) -> int:
    """First four bytes of the SHA-256 of ``text``, little-endian; cached,
    since a few names ("track", "sweep" ...) key most streams."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def stream(seed: int, *path) -> np.random.Generator:
    """Return a Philox generator derived from ``seed`` and a derivation path.

    Path elements may be integers in [0, 2**32) or strings (strings are
    hashed).  Streams with different paths are statistically independent.
    """
    spawn_key = tuple(_path_key(p) for p in path)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))

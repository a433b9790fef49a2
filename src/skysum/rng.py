"""Deterministic random-number streams for reproducible simulations.

All stochastic code in this package draws from Philox counter-based
generators keyed by an integer seed plus a derivation path, through one
derivation: the path's words are the spawn key of numpy's ``SeedSequence``
(NEP 19), whose state keys the Philox.  The same ``(seed, path)`` always
yields the same stream, independent of how many other streams were created
before it, so parallel trials and per-track simulations are
bit-reproducible.  ``stream`` derives one path; ``streams`` derives a run of
paths that differ in their last integer all at once, bit for bit.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

# SeedSequence's hash constants, on 32-bit words.
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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


@functools.lru_cache(maxsize=64)
def _hash_columns(extra: int) -> tuple[np.ndarray, ...]:
    """Rows of four uint32 constants, entry i for pool word i: the xor and
    the multiplier that hash the last path word, the xor and the
    multiplier of ``generate_state``'s hash, and the two mix multipliers.
    The hash constant has advanced 16 + 4 steps per entropy word past the
    fourth (``extra`` of them) when the last word is mixed in, and one
    step per pool word after that."""
    a = _INIT_A * pow(_MULT_A, 16 + 4 * extra, 2**32) & _MASK
    powers_a = [a * pow(_MULT_A, i, 2**32) & _MASK for i in range(5)]
    powers_b = [_INIT_B * pow(_MULT_B, i, 2**32) & _MASK for i in range(5)]
    columns = np.array([powers_a[:4], powers_a[1:], powers_b[:4],
                        powers_b[1:], [_MIX_L] * 4, [_MIX_R] * 4],
                       dtype=np.uint32)
    columns.flags.writeable = False
    return tuple(columns)


def streams(seed: int, prefix: tuple, first: int, count: int):
    """Yield ``stream(seed, *prefix, first + k)`` for k < count, bit for
    bit, from one key pass.  The same generator is re-keyed before each
    yield, so draw from each stream before asking for the next.

    The prefix's pool is numpy's own.  Its entropy is the seed's words,
    padded to four when there is a spawn key, then the prefix.  The last
    word is mixed into all four pool words at once and
    ``generate_state(2, uint64)`` applied, as (count, 4) uint32 arrays
    whose products wrap as the hash's do; the constants come per entropy
    length from ``_hash_columns``.  Each key re-keys one Philox, seeded
    from the prefix's sequence (any seed would do) so that it reads no OS
    entropy.
    """
    _path_key(first), _path_key(first + max(count - 1, 0))
    spawn_key = tuple(_path_key(p) for p in prefix)
    sequence = np.random.SeedSequence(int(seed), spawn_key=spawn_key)
    extra = max(0, (int(seed).bit_length() + 31) // 32 - 4) + len(spawn_key)
    xor_a, mul_a, xor_b, mul_b, mix_l, mix_r = _hash_columns(extra)
    value = np.arange(first, first + count, dtype=np.uint32)[:, None] ^ xor_a
    value *= mul_a                        # hashmix of the last word ...
    value ^= value >> 16
    value *= mix_r
    value = np.subtract(mix_l * sequence.pool, value, out=value)
    value ^= value >> 16                  # ... mixed into each pool word
    value ^= xor_b                        # generate_state's hash of it
    value *= mul_b
    value ^= value >> 16
    keys = value.astype("<u4", copy=False).view("<u8").tolist()
    bit_generator = np.random.Philox(sequence)
    generator, state = np.random.Generator(bit_generator), bit_generator.state
    # As lists of ints the state is set in half the time of numpy arrays.
    state["state"]["counter"] = state["buffer"] = [0] * 4
    for key in keys:
        state["state"]["key"] = key
        bit_generator.state = state
        yield generator

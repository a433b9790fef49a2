import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skysum import stream
from skysum.rng import streams


class TestStream:
    def test_out_of_range_int_paths_refused(self):
        # Wrapping ints to 32 bits would give 0, 2**32 and -2**32 one stream.
        for bad in (2**32, -2**32, -1):
            with pytest.raises(ValueError):
                stream(1, "x", bad)
        assert not np.array_equal(stream(1, "x", 0).random(4),
                                  stream(1, "x", 2**32 - 1).random(4))

    def test_streams_are_pinned(self):
        # Values drawn before string keys were cached: the cache must not
        # change any stream.
        for _ in range(2):
            assert stream(7, "track", 5).random(4).tolist() == [
                0.4341047540119488, 0.30378176758823194, 0.647866460620911,
                0.7079044877213987]


def _reference_uniforms(seed, prefix, first, sizes):
    """numpy's own derivation, written out: strings are the first four
    bytes of their SHA-256, little-endian."""
    words = tuple(
        int.from_bytes(hashlib.sha256(p.encode()).digest()[:4], "little")
        if isinstance(p, str) else p for p in prefix)
    return np.concatenate([np.empty(0)] + [
        np.random.Generator(np.random.Philox(np.random.SeedSequence(
            seed, spawn_key=(*words, first + k)))).random(size)
        for k, size in enumerate(sizes)])


SEEDS = st.one_of(st.just(0), st.integers(0, 2**32 - 1),
                  st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**200))
PREFIXES = st.lists(st.one_of(st.text(max_size=6),
                              st.integers(0, 2**32 - 1)), max_size=4)


def _stream_uniforms(seed, prefix, first, sizes):
    """The first ``sizes[k]`` uniforms of each ``streams`` yield k, one
    stream after another."""
    return np.concatenate([np.empty(0)] + [
        g.random(size)
        for g, size in zip(streams(seed, prefix, first, len(sizes)), sizes)])


class TestStreamUniforms:
    """The first uniforms of each stream of one key pass are numpy's."""

    @given(seed=SEEDS, prefix=PREFIXES, first=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(0, 5), max_size=8))
    @settings(max_examples=300, deadline=None)
    @example(seed=0, prefix=[], first=0, sizes=[3])
    @example(seed=7, prefix=["track"], first=0, sizes=[0, 4, 0, 2])
    @example(seed=2**32 - 1, prefix=[5], first=2**32 - 1, sizes=[1])
    @example(seed=2**64, prefix=["a", 3, "b"], first=2**32 - 3,
             sizes=[2, 0, 1])
    def test_equals_seed_sequence(self, seed, prefix, first, sizes):
        first = min(first, 2**32 - max(len(sizes), 1))
        with warnings.catch_warnings():
            # Any overflow warning of the uint64 hashing is an error here,
            # not only a RuntimeWarning.
            warnings.simplefilter("error")
            out = _stream_uniforms(seed, tuple(prefix), first, sizes)
        np.testing.assert_array_equal(
            out, _reference_uniforms(seed, prefix, first, sizes))

    @pytest.mark.parametrize("prefix, first, n", [
        (("x",), 2**32, 1), (("x",), -1, 1), (("x",), 2**32 - 1, 2),
        ((2**32,), 0, 1), ((-1,), 0, 1), (("x",), -1, 0)])
    def test_out_of_range_int_paths_refused(self, prefix, first, n):
        with pytest.raises(ValueError):
            stream(1, *prefix, first + n - 1 if n else first)
        with pytest.raises(ValueError):
            list(streams(1, prefix, first, n))


class TestStreams:
    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS, prefix=PREFIXES, first=st.integers(0, 2**32 - 1),
           count=st.integers(0, 5))
    @example(seed=3, prefix=["track"], first=0, count=4)
    def test_each_yield_draws_as_its_stream(self, seed, prefix, first,
                                            count):
        # Re-keying one generator gives each stream's draws of every kind
        # (uniforms, multinomials, normals), whatever the stream before it
        # drew and however far it got.
        first = min(first, 2**32 - max(count, 1))
        got = []
        for k, g in enumerate(streams(seed, tuple(prefix), first, count)):
            got.append(_draws(g, k))
        want = [_draws(stream(seed, *prefix, first + k), k)
                for k in range(count)]
        assert len(got) == count
        for a, b in zip(got, want):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)


def _draws(g, k):
    return (g.random(k + 3), g.multinomial([5, 40], [0.2, 0.5, 0.3]),
            g.normal(0.0, [1.0, 2.0]), g.random(2 * k + 1))


def test_import_loads_neither_numpy_random_nor_yaml():
    # Both load on first use.  numpy.random loaded at import raised the
    # benchmark's peak memory by 1.2-1.5 %; yaml serves only the spec and
    # run-directory code.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, skysum; "
            "print(sorted({'numpy.random', 'yaml'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

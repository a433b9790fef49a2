import numpy as np
import pytest

from skysum import stream


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

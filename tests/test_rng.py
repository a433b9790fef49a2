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

"""Byte-identity of the random streams: fixed-seed draws through every
sampler branch hash to digests recorded before the table lookup became a
guided search.  A change here is a change of random-stream consumption or
of the numbers drawn, and must be announced as one."""

import hashlib

import numpy as np

from skysum import (
    StochasticModel,
    infer,
    monte_carlo_sigma,
    quantize,
    sample_pulse_sums,
    stream,
)

MODEL = StochasticModel(0.4)


def digest(a) -> str:
    a = np.asarray(a)
    return hashlib.sha256(a.astype(a.dtype.newbyteorder("<")).tobytes()
                          ).hexdigest()


def test_stochastic_inference():
    layer = quantize(stream(0, "golden", "layer").uniform(-1, 1, (8, 4)))
    x = stream(0, "golden", "input").integers(0, 41, 8)
    out = infer(layer, x, mode="stochastic", stochastic=MODEL, seed=11,
                trials=1000)
    assert out.shape == (1000, 4)
    assert digest(out) == (
        "e9aa6763a51f4b3e7898e3d535b243e5dc40839699c604d35b511693e5ad53e6")


def test_monte_carlo_sigma():
    sigma = monte_carlo_sigma(MODEL, 100, 20000, seed=5)
    assert digest(np.float64(sigma)) == (
        "a4e05ca11bdc08e0e3388a137ec391f7048479b90d9ea7d0a3f116df046c588a")


def test_array_form_mixing_both_branches():
    # At 1000 totals, entries 0, 1, 4, 5 and 7 take the table and
    # entries 2, 3 and 6 (1200 possible totals) the multinomial.
    w = np.array([0.5, 0.3, 1.5, 2.0, 0.7, 0.0, 1.2, 2.3])
    n = np.array([400, 30, 400, 400, 400, 40, 400, 10])
    sums = sample_pulse_sums(w, MODEL, stream(0, "golden", "mixed"), n, 1000)
    assert sums.shape == (1000, 8)
    assert digest(sums) == (
        "ed29f007be3ed9c19b0bf6645f75a2819239d28105c2856ee109f8bf313fcdb7")


def test_scalar_calls():
    # One stream through scalar calls of both branches: one-pulse and
    # N-pulse totals, a size-1 draw, a full block, a point mass, zero
    # pulses, p_bar at 0 and 1, and a support longer than MC_BLOCK.
    g = stream(0, "golden", "scalar")
    sums = np.concatenate([
        sample_pulse_sums(w, StochasticModel(p_bar), g, n, size)
        for w, p_bar, n, size in [
            (1.0, 0.4, 1, 1), (2.3, 0.4, 40, 1), (0.7, 0.2, 1, 50),
            (1.0, 0.4, 100, 8192), (0.0, 0.4, 5, 3), (1.5, 1.0, 0, 4),
            (2.3, 0.0, 7, 2), (1.2, 0.4, 3000, 10)]])
    assert sums.shape == (8263,)
    assert digest(sums) == (
        "acc95f30f53b159fd8603bc298d2f582a7e1f2d4fd55e584ab19eb6c8223c04e")
    assert g.random() == 0.8289558480622129

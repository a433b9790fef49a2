"""Byte-identity of the random streams: fixed-seed draws through every
sampler kernel hash to recorded digests.  A change here is a change of
random-stream consumption or of the numbers drawn, and must be announced
as one.  The scalar-call digest was re-recorded when single totals moved
to the per-pulse kernel; the others date from before the table lookup
became a guided search."""

import dataclasses
import hashlib

import numpy as np

from skysum import (
    InputVector,
    PulseTrain,
    StochasticModel,
    build_crossbar,
    infer,
    monte_carlo_sigma,
    paper2024,
    quantize,
    run_weighted_sum,
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
    # One stream through scalar calls of every kernel: one-pulse and
    # N-pulse totals, two size-1 draws (per pulse), a full block, a point
    # mass, zero pulses, p_bar at 0 and 1, and a support longer than
    # MC_BLOCK (multinomial).
    g = stream(0, "golden", "scalar")
    sums = np.concatenate([
        sample_pulse_sums(w, StochasticModel(p_bar), g, n, size)
        for w, p_bar, n, size in [
            (1.0, 0.4, 1, 1), (2.3, 0.4, 40, 1), (0.7, 0.2, 1, 50),
            (1.0, 0.4, 100, 8192), (0.0, 0.4, 5, 3), (1.5, 1.0, 0, 4),
            (2.3, 0.0, 7, 2), (1.2, 0.4, 3000, 10)]])
    assert sums.shape == (8263,)
    assert digest(sums) == (
        "48aff9de711c6fa4eb3b42d6d9d2ddacd6f1377c0e6467a234cf8a5bd861a3fb")
    assert g.random() == 0.15581350562151075


def test_kinematic_weighted_sum():
    # 40 pulses at the reference current carry skyrmions into the next
    # zone and off the track; a capacity of 20 clamps about half of the
    # crossings.
    cal = dataclasses.replace(paper2024(), track_length=170.0)
    weights = stream(0, "golden", "crossbar").uniform(0.0, 2.0, (8, 16))
    config = build_crossbar(cal, weights, capacity=20)
    inputs = InputVector(
        (PulseTrain(40, cal.current_ref, cal.duration_ref),) * 8)
    res = run_weighted_sum(config, inputs, MODEL, cal, seed=13)
    assert (res.per_track == 20).any() and (res.per_track < 20).any()
    assert digest(res.per_track) == (
        "a9668dbf0022b855f68cd8b457fb63c0e29b81764dbb3439b1af1a93158daa41")

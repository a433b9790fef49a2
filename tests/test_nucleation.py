import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skysum import (
    InputVector,
    InsufficientData,
    PulseTrain,
    SingularFit,
    StochasticModel,
    analytic_sigma,
    build_crossbar,
    estimate_pbar_from_trace,
    expected_cumulative,
    fit_weight,
    infer,
    monte_carlo_sigma,
    paper2024,
    pulse_distribution,
    quantize,
    sample_pulse_sums,
    simulate_cumulative,
    stream,
)
from skysum.crossbar import monte_carlo_column_counts
from skysum.nucleation import MC_BLOCK, _sum_cdf

from laws import assert_follows, sum_pmf

LAW_DRAWS = 20_000


class TestStochasticModel:
    def test_bounds(self):
        StochasticModel(0.0)
        StochasticModel(1.0)
        with pytest.raises(ValueError):
            StochasticModel(-0.1)
        with pytest.raises(ValueError):
            StochasticModel(1.1)

    def test_even_split(self):
        assert StochasticModel(0.4).deviation_probabilities() == (0.2, 0.2)


class TestSamplePulseCount:
    """One pulse's count, drawn as a total over one pulse."""

    def test_deterministic_unit_weight(self):
        model = StochasticModel(0.0)
        g = stream(0, "t")
        assert all(sample_pulse_sums(1.0, model, g, 1, 1)[0] == 1
                   for _ in range(200))

    def test_zero_weight_creates_nothing(self):
        model = StochasticModel(0.9)
        counts = sample_pulse_sums(0.0, model, stream(1, "z"), 1, 5000)
        assert not counts.any()

    def test_unit_weight_distribution(self):
        # p_bar = 0.4 gives {0: 0.2, 1: 0.6, 2: 0.2}.
        model = StochasticModel(0.4)
        counts = sample_pulse_sums(1.0, model, stream(2, "d"), 1, 200_000)
        freqs = np.bincount(counts, minlength=3) / counts.size
        assert set(np.unique(counts)) <= {0, 1, 2}
        assert freqs[0] == pytest.approx(0.2, abs=0.01)
        assert freqs[1] == pytest.approx(0.6, abs=0.01)
        assert freqs[2] == pytest.approx(0.2, abs=0.01)

    def test_fractional_weight_mean(self):
        # w = 2.5, no deviations: half 2s, half 3s, mean 2.5.
        model = StochasticModel(0.0)
        counts = sample_pulse_sums(2.5, model, stream(3, "f"), 1, 1_000_000)
        assert set(np.unique(counts)) == {2, 3}
        se = 0.5 / math.sqrt(counts.size)
        assert counts.mean() == pytest.approx(2.5, abs=3 * se)

    def test_unit_weight_mean_is_exact_in_expectation(self):
        model = StochasticModel(0.6)
        counts = sample_pulse_sums(1.0, model, stream(4, "m"), 1, 500_000)
        se = counts.std() / math.sqrt(counts.size)
        assert counts.mean() == pytest.approx(1.0, abs=3 * se)

    def test_support_window(self):
        # Support stays within {b-1 .. b+2} of the nominal count.
        model = StochasticModel(1.0)
        counts = sample_pulse_sums(3.42, model, stream(5, "s"), 1, 100_000)
        assert counts.min() >= 2 and counts.max() <= 5

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            sample_pulse_sums(-0.1, StochasticModel(0.0), stream(0, "n"),
                              1, 1)


class TestPulseLaw:
    def test_unit_weight_law(self):
        values, probs = pulse_distribution(1.0, StochasticModel(0.4))
        law = np.bincount(values, weights=probs)
        np.testing.assert_allclose(law, [0.2, 0.6, 0.2, 0.0], atol=1e-15)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            pulse_distribution(-0.1, StochasticModel(0.0))

    @settings(deadline=None)
    @given(w=st.floats(0.0, 4.0), p_bar=st.floats(0.0, 1.0),
           n_pulses=st.integers(0, 30))
    @example(w=0.0, p_bar=0.4, n_pulses=10)
    @example(w=1.5, p_bar=0.0, n_pulses=10)
    @example(w=2.0, p_bar=0.0, n_pulses=10)
    @example(w=0.3, p_bar=1.0, n_pulses=10)
    @example(w=1.0, p_bar=0.4, n_pulses=0)
    def test_samplers_follow_the_law(self, w, p_bar, n_pulses):
        model = StochasticModel(p_bar)
        values, probs = pulse_distribution(w, model)
        assert values.min() >= 0 and values.max() <= math.floor(w) + 2
        assert probs.min() >= 0 and math.isclose(probs.sum(), 1.0)
        # Deviations are symmetric, so only the clamp at zero moves the mean.
        mean = float(values @ probs)
        assert mean >= w - 1e-12
        if w >= 1:
            assert mean == pytest.approx(w, abs=1e-12)
        key = repr((w, p_bar, n_pulses))
        pulses = sample_pulse_sums(w, model, stream(0, "law", key), 1,
                                   LAW_DRAWS)
        assert_follows(pulses, sum_pmf(w, model, 1))
        sums = sample_pulse_sums(w, model, stream(0, "sum-law", key),
                                 n_pulses, LAW_DRAWS)
        assert_follows(sums, sum_pmf(w, model, n_pulses))


def table_length(w, model, n_pulses):
    """Support length of the n-pulse sum: the batch size from which
    ``sample_pulse_sums`` draws from the cached table."""
    values, _ = pulse_distribution(w, model)
    return int(values[-1] - values[0]) * n_pulses + 1


class TestSumKernels:
    @pytest.mark.parametrize("w, p_bar, n_pulses", [
        (w, p_bar, n) for w in (0.0, 0.25, 1.0, 2.3)
        for p_bar in (0.0, 0.4, 1.0) for n in (0, 1, 40)
    ] + [(2.3, 0.4, 1000)])
    @pytest.mark.parametrize("below", [True, False],
                             ids=["multinomial", "table"])
    def test_kernel_follows_the_law(self, w, p_bar, n_pulses, below):
        # Batches one below the table length take the multinomial, batches
        # at it the table; either way the totals follow the exact law.
        model = StochasticModel(p_bar)
        size = table_length(w, model, n_pulses) - below
        g = stream(0, "kernel", repr((w, p_bar, n_pulses, below)))
        before = _sum_cdf.cache_info()
        n_batches = min(-(-LAW_DRAWS // max(size, 1)), 1000)
        batches = [sample_pulse_sums(w, model, g, n_pulses, size)
                   for _ in range(n_batches)]
        after = _sum_cdf.cache_info()
        used_table = after.hits + after.misses > before.hits + before.misses
        assert used_table == (not below)
        sums = np.concatenate(batches)
        assert sums.shape == (size * len(batches),)
        if size:
            assert_follows(sums, sum_pmf(w, model, n_pulses))

    def test_cold_cache_draws_equal_warm(self):
        model = StochasticModel(0.4)
        layer = quantize(stream(0, "layer").uniform(-1, 1, (6, 3)))
        x = np.arange(1, 7) * 5

        def draw():
            return (sample_pulse_sums(2.3, model, stream(0, "c"), 40, 4096),
                    infer(layer, x, mode="stochastic", stochastic=model,
                          seed=3, trials=1000))

        _sum_cdf.cache_clear()
        cold = draw()
        built = _sum_cdf.cache_info().misses
        warm = draw()
        assert built > 0 and _sum_cdf.cache_info().misses == built
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a, b)

    def test_table_is_read_only(self):
        offset, cdf = _sum_cdf(2.3, 0.4, 10)
        assert offset == 10 and cdf.size == 31 and cdf[-1] == np.inf
        with pytest.raises(ValueError):
            cdf[0] = 0.0

    def test_no_table_longer_than_a_block(self):
        # 3001 pulses at w = 1 have 9004 possible totals, more than
        # MC_BLOCK: even a longer batch keeps the multinomial, so a cached
        # table never exceeds MC_BLOCK entries.
        model = StochasticModel(0.4)
        assert table_length(1.0, model, 3001) > MC_BLOCK
        before = _sum_cdf.cache_info()
        sums = sample_pulse_sums(1.0, model, stream(0, "long"), 3001,
                                 2 * MC_BLOCK)
        assert sums.shape == (2 * MC_BLOCK,)
        assert _sum_cdf.cache_info() == before

    def test_cache_holds_a_quantised_layer(self):
        # Stochastic inference on a 64 x 16 layer at 15 states with inputs
        # of up to 40 pulses draws one law per (non-zero level, pulse
        # count), about 560 of them.  All fit, so a second pass over them
        # builds no table.
        model = StochasticModel(0.4)
        layer = quantize(stream(1, "layer").uniform(-1, 1, (64, 16)))
        levels = np.unique(np.concatenate([layer.w_pos, layer.w_neg]))
        laws = [(w, n) for w in levels[levels > 0] for n in range(1, 41)]
        assert len(laws) >= 500
        _sum_cdf.cache_clear()
        for _ in range(2):
            for w, n in laws:
                sample_pulse_sums(w, model, stream(0, "ws"), n, 1000)
        info = _sum_cdf.cache_info()
        assert info.misses == info.currsize == len(laws)


class TestSigma:
    def test_analytic_values(self):
        assert analytic_sigma(StochasticModel(0.0), 50) == 0.0
        assert analytic_sigma(StochasticModel(0.4), 100) == pytest.approx(
            math.sqrt(0.4 / 100), rel=1e-12)
        assert analytic_sigma(StochasticModel(0.4), 100) == pytest.approx(
            0.0632, abs=1e-4)
        assert analytic_sigma(StochasticModel(0.4), 10) == pytest.approx(
            0.2, rel=1e-12)

    def test_analytic_requires_pulses(self):
        with pytest.raises(ValueError):
            analytic_sigma(StochasticModel(0.4), 0)

    def test_monte_carlo_deterministic_limit(self):
        assert monte_carlo_sigma(StochasticModel(0.0), 50, 10_000, seed=0) == 0.0

    def test_monte_carlo_matches_analytic(self):
        got = monte_carlo_sigma(StochasticModel(0.4), 100, 100_000, seed=7)
        assert got == pytest.approx(0.0632, abs=1e-3)

    def test_monte_carlo_all_deviation(self):
        got = monte_carlo_sigma(StochasticModel(1.0), 4, 100_000, seed=8)
        assert got == pytest.approx(0.5, abs=0.01)

    def test_monte_carlo_reproducible(self):
        a = monte_carlo_sigma(StochasticModel(0.3), 20, 5000, seed=11)
        b = monte_carlo_sigma(StochasticModel(0.3), 20, 5000, seed=11)
        assert a == b

    def test_monte_carlo_needs_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_sigma(StochasticModel(0.3), 20, 500, seed=0)

    def test_memory_bounded(self):
        # 1e5 trials x 1000 pulses on one crossing: per-pulse arrays would
        # take gigabytes; sum sampling keeps the peak in megabytes.
        cal = paper2024()
        model = StochasticModel(0.4)
        config = build_crossbar(cal, [[1.0]], enforce_capacity=False)
        inputs = InputVector(
            (PulseTrain(1000, cal.current_ref, cal.duration_ref),))
        tracemalloc.start()
        try:
            monte_carlo_column_counts(config, inputs, model, 100_000, seed=0)
            _, column_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            monte_carlo_sigma(model, 1000, 100_000, seed=0)
            _, sigma_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert column_peak < 64e6
        assert sigma_peak < 64e6


class TestPbarEstimator:
    def test_clean_trace(self):
        assert estimate_pbar_from_trace([1] * 10) == 0.0

    def test_documented_trace(self):
        counts = [0, 1, 2, 1, 1, 1, 2, 0, 1, 1]
        assert estimate_pbar_from_trace(counts) == pytest.approx(0.4)

    def test_accepts_events(self):
        events = iter(np.array([0, 1, 2, 1, 1, 1, 2, 0, 1, 1]))
        assert estimate_pbar_from_trace(events) == pytest.approx(0.4)

    def test_round_trip(self):
        model = StochasticModel(0.4)
        counts = sample_pulse_sums(1.0, model, stream(9, "rt"), 1, 10_000)
        assert estimate_pbar_from_trace(counts) == pytest.approx(0.4, abs=0.01)

    def test_too_few_events(self):
        with pytest.raises(InsufficientData):
            estimate_pbar_from_trace([1, 1, 1, 1])
        with pytest.raises(InsufficientData):
            estimate_pbar_from_trace([])

    def test_only_unit_weight(self):
        with pytest.raises(ValueError):
            estimate_pbar_from_trace([1] * 10, w_nominal=2.0)


class TestFitWeight:
    def test_exact_line(self):
        fit = fit_weight([(0, 0), (10, 10), (20, 20)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.slope_std == pytest.approx(0.0, abs=1e-12)

    def test_noise_free_cumulative_recovers_weight(self):
        w = 3.42
        cum = expected_cumulative(w, 20)
        pts = list(zip(range(21), cum))
        fit = fit_weight(pts)
        assert fit.slope == pytest.approx(w, abs=1e-9)
        # consistent with tens of skyrmions in 20 pulses at the floor field
        assert cum[-1] == pytest.approx(68.4) and cum[-1] > 50

    def test_stochastic_slope_within_sigma_bound(self):
        model = StochasticModel(0.4)
        cum = simulate_cumulative(1.0, model, 20, stream(12, "fit"))
        fit = fit_weight(list(zip(range(21), cum)))
        assert abs(fit.slope - 1.0) <= math.sqrt(0.4 / 20) + 3 * fit.slope_std

    def test_needs_three_points(self):
        with pytest.raises(InsufficientData):
            fit_weight([(0, 0), (20, 68)])

    def test_singular(self):
        with pytest.raises(SingularFit):
            fit_weight([(5, 1), (5, 2), (5, 3)])

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            fit_weight([(0, 0), (2, 2), (1, 1)])

    def test_stack_equals_single_fits(self):
        # A (2, 3, n, 2) stack gives (2, 3) arrays, each entry bit-equal to
        # the float fit of its own point set.
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.uniform(0.5, 2.0, size=(2, 3, 8)), axis=-1)
        y = np.cumsum(rng.integers(0, 3, size=(2, 3, 8)), axis=-1)
        stack = np.stack([x, y], axis=-1)
        fits = fit_weight(stack)
        for part in fits:
            assert isinstance(part, np.ndarray) and part.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            single = fit_weight(stack[idx])
            assert all(type(v) is float for v in single)
            assert single == tuple(part[idx] for part in fits)

    def test_stack_checks_every_fit(self):
        good = [(0, 0), (1, 1), (2, 2)]
        with pytest.raises(SingularFit):
            fit_weight([good, [(5, 1), (5, 2), (5, 3)]])
        with pytest.raises(ValueError, match="increasing"):
            fit_weight([good, [(0, 0), (2, 2), (1, 1)]])
        with pytest.raises(InsufficientData):
            fit_weight([[(0, 0), (1, 1)]])

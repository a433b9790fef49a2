import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from skysum import (
    InputVector,
    OutOfRange,
    PulseTrain,
    StochasticModel,
    analytic_sigma,
    build_crossbar,
    field_for_weight,
    infer,
    monte_carlo_column_counts,
    paper2024,
    pulse_distribution,
    quantize,
    stream,
    weight_from_field,
)


class TestFieldForWeight:
    def test_anchors(self, cal):
        assert field_for_weight(cal, 0.0).h_z == 26.0
        assert field_for_weight(cal, 1.14).h_z == pytest.approx(24.0, rel=1e-12)
        assert field_for_weight(cal, 3.42).h_z == pytest.approx(20.0, rel=1e-12)

    def test_out_of_range(self, cal):
        with pytest.raises(OutOfRange):
            field_for_weight(cal, 3.43)
        with pytest.raises(OutOfRange):
            field_for_weight(cal, -0.1)

    @given(st.floats(min_value=0.0, max_value=3.42))
    def test_round_trip(self, w):
        cal = paper2024()
        field = field_for_weight(cal, w)
        assert weight_from_field(cal, field) == pytest.approx(w, abs=1e-12)


class TestQuantize:
    def test_two_state_signs_exact(self):
        layer = quantize(np.array([[-1.0, 1.0]]), states=2)
        assert np.array_equal(layer.quantized, [[-1.0, 1.0]])

    def test_documented_grid_point(self):
        layer = quantize(np.array([[0.37, 1.0]]), states=15)
        assert layer.quantized[0, 0] == pytest.approx(5.0 / 14.0, rel=1e-12)
        err = abs(layer.quantized[0, 0] - 0.37)
        assert err == pytest.approx(0.013, abs=1e-3)
        assert err <= 1.0 / 14.0 / 2.0

    def test_identity_exact(self):
        layer = quantize(np.eye(3), states=15)
        assert np.array_equal(layer.quantized, np.eye(3))
        assert np.all(layer.field_neg == 26.0)

    def test_all_zero_matrix(self):
        layer = quantize(np.zeros((2, 2)), states=15)
        assert np.all(layer.quantized == 0.0)
        assert np.all(layer.field_pos == 26.0)

    def test_signed_split_nonnegative(self):
        layer = quantize(np.array([[-0.5, 0.25], [0.75, -1.0]]), states=15)
        assert np.all(layer.w_pos >= 0) and np.all(layer.w_neg >= 0)
        assert np.all((layer.w_pos == 0) | (layer.w_neg == 0))

    def test_states_validated(self):
        with pytest.raises(ValueError):
            quantize(np.eye(2), states=1)

    def test_top_level_clamped_at_the_ceiling(self, cal):
        # At this slope (a 34 200 sk/pulse ceiling) rounding puts the top
        # level of this matrix an ulp above the ceiling: it is clamped,
        # not refused.
        steep = dataclasses.replace(cal, weight_field_slope=-5700.0)
        ceiling = weight_from_field(steep, steep.field_min)
        w = np.random.default_rng(297).uniform(-1, 1, (8, 4))
        layer = quantize(w, states=15, cal=steep)
        assert max(layer.w_pos.max(), layer.w_neg.max()) <= ceiling

    @settings(max_examples=200)
    @given(hnp.arrays(np.float64, (3, 4),
                      elements=st.floats(-10.0, 10.0, allow_nan=False)))
    @example(np.full((3, 4), 5e-324))
    def test_error_bound_property(self, w):
        layer = quantize(w, states=15)
        w_max = np.max(np.abs(w))
        if w_max == 0:
            assert np.all(layer.quantized == 0.0)
        else:
            bound = w_max / 14.0 / 2.0
            assert np.max(np.abs(layer.quantized - w)) <= bound + 1e-12

    def test_programming_schedule(self):
        layer = quantize(np.array([[0.5], [-0.5]]), states=3)
        schedule = layer.programming_schedule()
        assert len(schedule) == 4
        entry = schedule[0]
        assert set(entry) == {"track", "column", "polarity_column", "h_z_mT"}
        # fields stay inside the operating window
        assert all(20.0 <= e["h_z_mT"] <= 26.0 for e in schedule)


class TestInfer:
    def test_zero_input(self):
        layer = quantize(np.eye(2), states=15)
        assert np.array_equal(infer(layer, [0, 0]), [0.0, 0.0])

    def test_identity_map(self):
        layer = quantize(np.eye(2), states=15)
        assert np.allclose(infer(layer, [3, 5]), [3.0, 5.0])

    def test_expected_equals_quantized_product(self):
        w = np.array([[0.8, -0.3], [-0.2, 0.6], [0.1, 0.9]])
        layer = quantize(w, states=15)
        x = np.array([4, 2, 7])
        assert np.allclose(infer(layer, x), x @ layer.quantized, atol=1e-12)

    def test_signed_weights_via_differential_pairs(self):
        layer = quantize(np.array([[-1.0]]), states=15)
        assert infer(layer, [5])[0] == pytest.approx(-5.0)

    def test_dimension_mismatch(self):
        layer = quantize(np.eye(2), states=15)
        with pytest.raises(ValueError):
            infer(layer, [1, 2, 3])

    def test_negative_input_rejected(self):
        layer = quantize(np.eye(2), states=15)
        with pytest.raises(ValueError):
            infer(layer, [-1, 2])

    @pytest.mark.parametrize("mode", ["expected", "stochastic"])
    def test_fractional_input_rejected(self, mode):
        layer = quantize(np.eye(2), states=15)
        with pytest.raises(ValueError, match="integers"):
            infer(layer, [2.7, 1], mode=mode,
                  stochastic=StochasticModel(0.4))

    def test_stochastic_mean_matches_expected(self):
        layer = quantize(np.array([[1.0, -0.5], [0.25, 0.75]]), states=15)
        x = [12, 8]
        expected = infer(layer, x)
        out = infer(layer, x, mode="stochastic",
                    stochastic=StochasticModel(0.4), seed=17, trials=10_000)
        assert np.allclose(out.mean(axis=0), expected, rtol=0.02, atol=0.02)

    def test_stochastic_requires_model(self):
        layer = quantize(np.eye(2), states=15)
        with pytest.raises(ValueError):
            infer(layer, [1, 1], mode="stochastic")

    def test_stochastic_needs_a_trial(self):
        layer = quantize(np.eye(2), states=15)
        with pytest.raises(ValueError, match="trials"):
            infer(layer, [1, 1], mode="stochastic",
                  stochastic=StochasticModel(0.4), trials=0)

    def test_stochastic_without_capacity_ignores_zone_size(self, cal):
        # A 3 um skyrmion leaves a 6 um zone no room at 3-diameter
        # spacing; with capacity off the zone size must not matter.
        big = dataclasses.replace(cal, skyrmion_diameter=3000.0)
        layer = quantize(np.eye(2), states=15, cal=big)
        out = infer(layer, [2, 1], mode="stochastic", cal=big,
                    stochastic=StochasticModel(0.0), trials=3)
        assert out.shape == (3, 2)
        # At least 3 sk/pulse, where the zone's own capacity would be 1.
        assert np.all(out / layer.scale > [5.5, 2.5])

    def test_no_capacity_draws_as_the_largest_reachable_one(self, cal):
        # Stochastic inference clamps at a capacity that no count reaches,
        # so it gives the bytes of the differential-pair crossbar at the
        # largest total any crossing can reach: its pulses times its
        # weight's top outcome.  A capacity below that binds on this layer.
        layer = quantize(stream(3, "layer").uniform(-1, 1, (8, 4)), cal=cal)
        x = stream(3, "input").integers(0, 41, 8)
        model = StochasticModel(0.4)
        weights = np.hstack([layer.w_pos, layer.w_neg])
        values, probs = pulse_distribution(weights, model)
        top = np.where(probs > 0, values, 0).max(axis=-1)
        reach = int((x[:, None] * top).max())
        pulses = InputVector(tuple(
            PulseTrain(int(n), cal.current_ref, cal.duration_ref) for n in x))
        for trials in (1, 200):
            got = infer(layer, x, mode="stochastic", cal=cal,
                        stochastic=model, seed=4, trials=trials)
            for capacity, same in ((reach, True), (reach // 2, False)):
                config = build_crossbar(cal, weights, zone_pitch=0.0,
                                        capacity=capacity)
                counts = monte_carlo_column_counts(config, pulses, model,
                                                   trials, 4).astype(float)
                want = (counts[:, :4] * layer.scale
                        - counts[:, 4:] * layer.scale)
                if trials == 1:
                    want = want[0]
                assert (got.tobytes() == want.tobytes()) == same

    def test_mac_error_bounded_by_sigma_law(self):
        # Relative spread of the stochastic MAC stays within the analytic
        # fluctuation law plus the quantisation bound (10% slack).
        m, n_pulse, p_bar = 4, 20, 0.4
        w = np.full((m, 1), 1.0)
        layer = quantize(w, states=15)
        x = [n_pulse] * m
        out = infer(layer, x, mode="stochastic",
                    stochastic=StochasticModel(p_bar), seed=23, trials=10_000)
        expected = float(infer(layer, x)[0])
        rel_std = float(np.std(out[:, 0], ddof=1)) / expected
        sigma_bound = analytic_sigma(StochasticModel(p_bar), n_pulse) / math.sqrt(m)
        quant_bound = (1.0 / 14.0 / 2.0) / 1.0
        assert rel_std <= (sigma_bound + quant_bound) * 1.1

    def test_linear_ahe_readout(self, cal):
        layer = quantize(np.eye(2), states=15)
        out = infer(layer, [3, 5], readout="linear_ahe", cal=cal)
        # identity layer maps to 3.42 sk/pulse on the diagonal
        assert out[0] == pytest.approx(3 * 3.42 * 22.0, rel=1e-9)

    def test_stochastic_memory_is_bounded(self, cal):
        # A 64 x 16 layer (a 64 x 32 crossbar) at 1000 trials: the counts
        # are drawn a chunk of 16 rows, about 2 * MC_BLOCK uniforms, at a
        # time, so the peak (1.04 MB) is the (32, trials) column totals of
        # 256 kB beside one chunk's temporaries of 128 kB each: its
        # uniforms, bucket and table indices, cdf values and totals.
        layer = quantize(stream(1, "layer").uniform(-1, 1, (64, 16)),
                         cal=cal)
        x = stream(1, "input").integers(0, 41, 64)
        model = StochasticModel(0.4)
        infer(layer, x, mode="stochastic", cal=cal, stochastic=model,
              seed=0, trials=1000)
        tracemalloc.start()
        try:
            infer(layer, x, mode="stochastic", cal=cal, stochastic=model,
                  seed=0, trials=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 32 * 1000 * 8

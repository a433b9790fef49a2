import dataclasses

import numpy as np
import pytest

from skysum import (
    CrossbarConfig,
    InputVector,
    MtjConfig,
    ProtocolError,
    PulseTrain,
    StochasticModel,
    analytic_sigma,
    build_crossbar,
    check_current_uniformity,
    current_uniformity,
    expected_sums,
    monte_carlo_column_counts,
    monte_carlo_sum_relative_std,
    paper2024,
    run_fig4_protocol,
    run_weighted_sum,
    sample_pulse_counts,
    stream,
)
from skysum.crossbar import simulate_track_counts
from skysum.transport import (
    SkyrmionPopulation,
    advance,
    apply_capacity,
    count_in_zone,
)

J4 = 116.0  # two-track operating density; v = 1.64 m/s keeps spans short
T4 = 50.0


def two_track(cal4, w=(1.0, 1.0), **kwargs):
    return build_crossbar(cal4, [[w[0]], [w[1]]], **kwargs)


def inputs(n1, n2, duration=(T4, T4)):
    return InputVector((PulseTrain(n1, J4, duration[0]),
                        PulseTrain(n2, J4, duration[1])))


def track_births(config, track, n_pulses, model, seed):
    """(N, L) births of one track, drawn as ``simulate_track_counts``
    draws them: one call per column on the track's stream."""
    rng = stream(seed, "track", track)
    return np.stack([sample_pulse_counts(w, model, rng, (n_pulses,))
                     for w in config.weights[track]], axis=1)


def replay_track(config, cal, track, pulse, births):
    """Reference transport: the whole population is advanced on every
    pulse, then each column's births are spawned at its site."""
    zones = config.zones[track]
    single = PulseTrain(1, pulse.current_density, pulse.duration)
    pop = SkyrmionPopulation.empty()
    for k in range(pulse.count):
        pop = advance(pop, single, cal)
        for j, zone in enumerate(zones):
            pop = pop.spawn(int(births[k, j]), zone.bounds[0], cal.notch_y)
    if config.enforce_capacity:
        for zone in zones:
            pop = apply_capacity(pop, zone)
    return np.array([count_in_zone(pop, zone) for zone in zones])


class TestConfig:
    def test_shapes_validated(self, cal4):
        cfg = two_track(cal4)
        assert cfg.m_tracks == 2 and cfg.l_columns == 1
        assert cfg.track_resistances == (130.0, 120.0)

    def test_negative_weight_rejected(self, cal4):
        with pytest.raises(ValueError):
            two_track(cal4, w=(1.0, -0.5))

    def test_series_ratio_enforced(self, cal4):
        with pytest.raises(ValueError):
            two_track(cal4, series_resistance=1000.0)

    def test_mtj_mode_needs_config(self, cal4):
        with pytest.raises(ValueError):
            two_track(cal4, readout_mode="mtj")

    def test_zone_grid_mismatch(self, cal4, zone):
        with pytest.raises(ValueError):
            CrossbarConfig(weights=[[1.0], [1.0]], zones=((zone,),),
                           track_resistances=(130.0, 120.0))

    def test_input_polarity(self):
        with pytest.raises(ValueError):
            InputVector((PulseTrain(1, J4, T4, polarity="reverse"),))


class TestExpectedSum:
    def test_zero_inputs(self, cal4):
        cfg = two_track(cal4)
        assert expected_sums(cfg, inputs(0, 0))[0] == 0.0

    def test_equal_weights(self, cal4):
        cfg = two_track(cal4, w=(1.0, 1.0))
        assert expected_sums(cfg, inputs(20, 20))[0] == 40.0

    def test_suppressed_track(self, cal4):
        cfg = two_track(cal4, w=(1.0, 0.0))
        assert expected_sums(cfg, inputs(30, 30))[0] == 30.0

    def test_bilinear(self, cal4):
        cfg1 = two_track(cal4, w=(0.7, 1.3))
        cfg2 = two_track(cal4, w=(1.4, 2.6))
        assert expected_sums(cfg2, inputs(5, 9))[0] == pytest.approx(
            2.0 * expected_sums(cfg1, inputs(5, 9))[0], rel=1e-12)

    def test_dimension_mismatch(self, cal4):
        cfg = two_track(cal4)
        with pytest.raises(ValueError):
            expected_sums(cfg, InputVector((PulseTrain(3, J4, T4),)))


class TestRunWeightedSum:
    def test_deterministic_composition(self, cal4):
        cfg = two_track(cal4)
        res = run_weighted_sum(cfg, inputs(20, 20), StochasticModel(0.0),
                               cal4, seed=0)
        assert res.n_detec[0] == 40
        assert res.output[0] == 880.0
        assert res.expected[0] == 40.0

    def test_track_additivity_same_seed_partition(self, cal4):
        # A track's counts depend only on its own derived stream, so the
        # two-track run equals the single-track runs summed.
        cfg = two_track(cal4, w=(1.0, 1.0))
        model = StochasticModel(0.4)
        res = run_weighted_sum(cfg, inputs(20, 20), model, cal4, seed=9)
        alone = [
            simulate_track_counts(cfg, cal4, i, PulseTrain(20, J4, T4),
                                  model, stream(9, "track", i))
            for i in range(2)
        ]
        assert res.per_track[0, 0] == alone[0][0]
        assert res.per_track[1, 0] == alone[1][0]
        assert res.n_detec[0] == alone[0][0] + alone[1][0]
        assert res.output[0] == 22.0 * res.n_detec[0]

    def test_zero_weight_track_contributes_nothing(self, cal4):
        cfg = two_track(cal4, w=(1.0, 0.0))
        res = run_weighted_sum(cfg, inputs(20, 20), StochasticModel(0.4),
                               cal4, seed=5)
        assert res.per_track[1, 0] == 0

    def test_mtj_mode(self, cal4):
        mtj = MtjConfig(junction_area=5.0)
        cfg = two_track(cal4, readout_mode="mtj", mtj=mtj)
        res = run_weighted_sum(cfg, inputs(10, 10), StochasticModel(0.0),
                               cal4, seed=0)
        assert res.output[0] > mtj.read_current * mtj.r_parallel * 1e-3

    def test_capacity_limits_counts(self, cal4):
        cfg = two_track(cal4, w=(3.0, 3.0), capacity=25)
        res = run_weighted_sum(cfg, inputs(20, 20), StochasticModel(0.0),
                               cal4, seed=0)
        assert res.n_detec[0] == 50  # 25 per crossing

    def test_lossless_kinematic_counts_equal_births(self, cal4):
        # At J4, 15 pulses move a skyrmion 1.2 um: every one stays in the
        # zone it was born at, so each crossing counts its own births.
        cfg = build_crossbar(cal4, [[1.0, 2.5], [1.5, 0.5]])
        model = StochasticModel(0.3)
        res = run_weighted_sum(cfg, inputs(15, 15), model, cal4, seed=4)
        births = np.array([track_births(cfg, i, 15, model, 4).sum(axis=0)
                           for i in range(2)])
        assert np.array_equal(res.per_track, births)

    def test_noisy_column_is_read_once(self, cal4):
        # Sixteen empty tracks: the column output is one measurement, so
        # its spread is sigma_meas, not sqrt(16) sigma_meas.
        cfg = build_crossbar(cal4, np.zeros((16, 1)))
        iv = InputVector((PulseTrain(1, J4, T4),) * 16)
        out = [run_weighted_sum(cfg, iv, StochasticModel(0.4), cal4,
                                seed=s, noise=True).output[0]
               for s in range(400)]
        assert np.std(out, ddof=1) == pytest.approx(25.0, rel=0.15)


def _lossless(cal4):
    return cal4, build_crossbar(cal4, [[1.0, 2.5], [1.5, 0.5]]), \
        PulseTrain(15, J4, T4)


def _lossy(cal4):
    # 40 pulses of 0.72 um at 171 GA/m^2 carry skyrmions out of their
    # 6 um zone into the next column's and across the far track edge.
    cal = dataclasses.replace(paper2024(), track_length=170.0)
    weights = np.random.default_rng(7).uniform(0.0, 2.0, size=(3, 16))
    return cal, build_crossbar(cal, weights), \
        PulseTrain(40, cal.current_ref, cal.duration_ref)


def _crowded(cal4):
    return cal4, build_crossbar(cal4, [[2.0, 3.0], [2.5, 1.0]],
                                capacity=5), PulseTrain(15, J4, T4)


class TestCohortPlacement:
    """Placing each cohort by its age reproduces per-pulse transport."""

    @pytest.mark.parametrize("make", [_lossless, _lossy, _crowded],
                             ids=["lossless", "lossy", "capacity"])
    def test_matches_per_pulse_replay(self, cal4, make):
        cal, cfg, pulse = make(cal4)
        model = StochasticModel(0.4)
        iv = InputVector((pulse,) * cfg.m_tracks)
        res = run_weighted_sum(cfg, iv, model, cal, seed=11)
        ref = np.array([
            replay_track(cfg, cal, i, pulse,
                         track_births(cfg, i, pulse.count, model, 11))
            for i in range(cfg.m_tracks)])
        assert np.array_equal(res.per_track, ref)

    def test_lossy_case_loses_and_gains(self, cal4):
        # The lossy case is not lossless in disguise: some crossings count
        # fewer than their births (exits), some more (upstream arrivals).
        cal, cfg, pulse = _lossy(cal4)
        model = StochasticModel(0.4)
        res = run_weighted_sum(cfg, InputVector((pulse,) * cfg.m_tracks),
                               model, cal, seed=11)
        births = np.array([track_births(cfg, i, pulse.count, model, 11)
                           .sum(axis=0) for i in range(cfg.m_tracks)])
        assert np.any(res.per_track < births)
        assert np.any(res.per_track > births)
        assert res.per_track.sum() < births.sum()

    def test_capacity_case_is_crowded(self, cal4):
        _, cfg, pulse = _crowded(cal4)
        res = run_weighted_sum(cfg, InputVector((pulse,) * 2),
                               StochasticModel(0.4), cal4, seed=11)
        assert np.all(res.per_track == 5)

    def test_no_pulses(self, cal4):
        cfg = build_crossbar(cal4, [[1.0, 2.0]])
        counts = simulate_track_counts(cfg, cal4, 0, PulseTrain(0, J4, T4),
                                       StochasticModel(0.4), stream(0))
        assert counts.tolist() == [0, 0]


class TestMonteCarlo:
    def test_mean_converges_to_expected(self, cal4):
        # Valid in the w >= 1 operating regime, where the clamp-at-zero
        # bias of the per-pulse sampler vanishes.
        cfg = two_track(cal4, w=(1.0, 2.5), enforce_capacity=False)
        model = StochasticModel(0.4)
        counts = monte_carlo_column_counts(cfg, inputs(20, 20), model,
                                           trials=10_000, seed=3)
        expected = expected_sums(cfg, inputs(20, 20))[0]
        assert counts.mean() == pytest.approx(expected, rel=0.02)

    def test_sqrt_m_law(self):
        model = StochasticModel(0.4)
        got = monte_carlo_sum_relative_std(10, 20, model, 20_000, seed=6)
        want = analytic_sigma(model, 20) / np.sqrt(10)
        assert got == pytest.approx(want, rel=0.05)


class TestUniformity:
    def test_equal_resistances(self):
        assert current_uniformity((100.0, 100.0), 12000.0) == 0.0

    def test_paper_circuit(self, cal4):
        cfg = two_track(cal4)
        got = check_current_uniformity(cfg)
        assert got == pytest.approx(2.073e-4, rel=1e-3)
        assert got < 1e-3

    def test_no_series_resistors_breaks_budget(self):
        got = current_uniformity((130.0, 120.0), 0.0)
        assert got == pytest.approx(0.04, abs=1e-3)
        assert got > 1e-3


class TestFig4Protocol:
    def test_phase_structure(self, cal4):
        cfg = two_track(cal4)
        specs = [PulseTrain(20, J4, T4), PulseTrain(20, J4, T4)]
        trace = run_fig4_protocol(cfg, specs, cal4, StochasticModel(0.0),
                                  seed=0, noise=False)
        names = [name for name, _ in trace.phase_blocks()]
        assert names == ["baseline", "pulsing", "hold", "pulsing", "hold",
                         "reset", "post"]
        assert len(trace) == 20 + 20 + 20 + 20 + 20 + 1 + 10

    def test_two_equal_ramps(self, cal4):
        cfg = two_track(cal4)
        specs = [PulseTrain(20, J4, T4), PulseTrain(20, J4, T4)]
        trace = run_fig4_protocol(cfg, specs, cal4, StochasticModel(0.0),
                                  seed=0, noise=False)
        holds = [s for n, s in trace.phase_blocks() if n == "hold"]
        assert trace.delta_v[holds[0]].mean() == 440.0
        assert trace.delta_v[holds[1]].mean() == 880.0
        post = trace.mask("post")
        assert np.all(trace.delta_v[post] == 0.0)

    def test_zero_weight_second_track(self, cal4):
        cfg = two_track(cal4, w=(1.0, 0.0))
        specs = [PulseTrain(20, J4, T4), PulseTrain(20, J4, 30.0)]
        trace = run_fig4_protocol(cfg, specs, cal4, StochasticModel(0.0),
                                  seed=0, noise=False)
        holds = [s for n, s in trace.phase_blocks() if n == "hold"]
        assert trace.delta_v[holds[0]].mean() == trace.delta_v[holds[1]].mean()

    def test_flat_when_both_weights_zero(self, cal4):
        cfg = two_track(cal4, w=(0.0, 0.0))
        specs = [PulseTrain(20, J4, T4), PulseTrain(20, J4, T4)]
        trace = run_fig4_protocol(cfg, specs, cal4, StochasticModel(0.0),
                                  seed=0, noise=False)
        assert np.all(trace.delta_v == 0.0)

    def test_track_count_enforced(self, cal4):
        cfg = build_crossbar(cal4, [[1.0]])
        with pytest.raises(ProtocolError):
            run_fig4_protocol(cfg, [PulseTrain(20, J4, T4)] * 2, cal4,
                              StochasticModel(0.0))

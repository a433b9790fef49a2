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
    stream,
)
from skysum.crossbar import simulate_track_counts
from skysum.transport import (
    SkyrmionPopulation,
    advance,
    apply_capacity,
    count_in_zone,
)

from laws import assert_follows, sum_pmf

J4 = 116.0  # two-track operating density; v = 1.64 m/s keeps spans short
T4 = 50.0


def two_track(cal4, w=(1.0, 1.0), **kwargs):
    return build_crossbar(cal4, [[w[0]], [w[1]]], **kwargs)


def inputs(n1, n2, duration=(T4, T4)):
    return InputVector((PulseTrain(n1, J4, duration[0]),
                        PulseTrain(n2, J4, duration[1])))


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


def steady_births(config, track, pulse):
    """(N, L) births of one track when every pulse nucleates exactly its
    site's weight (integer weights, p_bar = 0)."""
    return np.tile(config.weights[track].astype(int), (pulse.count, 1))


def reference_windows(config, cal, track, pulse):
    """(L, L) windows of one track from the particle reference: row s
    counts, per zone, the pulses whose skyrmion born at site s ends there."""
    free = dataclasses.replace(config, enforce_capacity=False)
    one_site = np.eye(config.l_columns, dtype=int)
    return np.array([
        replay_track(free, cal, track, pulse,
                     np.tile(one_site[s], (pulse.count, 1)))
        for s in range(config.l_columns)])


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

    def test_zone_outside_track_rejected(self, cal4):
        # Column 1's zone starts at the far end of the track.
        with pytest.raises(ValueError, match="column 1 falls outside"):
            build_crossbar(cal4, [[1.0, 1.0], [1.0, 1.0]],
                           zone_pitch=cal4.track_length - 5.0)

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

    def test_lossless_kinematic_equals_ideal(self, cal4):
        # At J4, 15 pulses move a skyrmion 1.2 um: every one stays in the
        # zone it was born at, so the windows are the ideal ones and both
        # count paths draw the same sums from the same per-track streams.
        cfg = build_crossbar(cal4, [[1.0, 2.5], [1.5, 0.5]])
        model = StochasticModel(0.3)
        res = run_weighted_sum(cfg, inputs(15, 15), model, cal4, seed=4)
        ideal = monte_carlo_column_counts(cfg, inputs(15, 15), model,
                                          trials=1, seed=4)
        assert np.array_equal(res.n_detec, ideal[0])

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


def _lossy_crowded(cal4):
    cal, cfg, pulse = _lossy(cal4)
    zones = [[dataclasses.replace(z, capacity=20) for z in row]
             for row in cfg.zones]
    return cal, dataclasses.replace(cfg, zones=zones), pulse


LAYOUTS = pytest.mark.parametrize(
    "make", [_lossless, _lossy, _crowded, _lossy_crowded],
    ids=["lossless", "lossy", "capacity", "lossy-capacity"])


class TestCohortPlacement:
    """Exact pulse sums over transport windows reproduce per-pulse
    transport."""

    @LAYOUTS
    def test_matches_per_pulse_replay(self, cal4, make):
        # Integer weights (some 0) at p_bar = 0: every pulse nucleates
        # exactly w_ij, so the particle reference needs no random stream.
        cal, cfg, pulse = make(cal4)
        cfg = dataclasses.replace(cfg, weights=np.floor(1.5 * cfg.weights))
        res = run_weighted_sum(cfg, InputVector((pulse,) * cfg.m_tracks),
                               StochasticModel(0.0), cal, seed=11)
        ref = np.array([
            replay_track(cfg, cal, i, pulse, steady_births(cfg, i, pulse))
            for i in range(cfg.m_tracks)])
        assert np.array_equal(res.per_track, ref)

    @pytest.mark.parametrize("make", [_lossy, _lossy_crowded],
                             ids=["lossy", "lossy-capacity"])
    def test_counts_follow_window_law(self, cal4, make):
        # Each crossing's count is the sum over sites s of an exact
        # K[s, j]-pulse sum at weight w_is, clamped at the zone capacity.
        cal, cfg, pulse = make(cal4)
        model = StochasticModel(0.4)
        iv = InputVector((pulse,) * cfg.m_tracks)
        counts = np.array([run_weighted_sum(cfg, iv, model, cal,
                                            seed=s).per_track
                           for s in range(300)])
        for i in range(cfg.m_tracks):
            windows = reference_windows(cfg, cal, i, pulse)
            for j, zone in enumerate(cfg.zones[i]):
                pmf = np.ones(1)
                for s, k in enumerate(windows[:, j]):
                    pmf = np.convolve(pmf, sum_pmf(cfg.weights[i, s],
                                                   model, k))
                if cfg.enforce_capacity and pmf.size > zone.capacity + 1:
                    pmf[zone.capacity] = pmf[zone.capacity:].sum()
                    pmf = pmf[:zone.capacity + 1]
                assert_follows(counts[:, i, j], pmf)

    def test_lossy_case_loses_and_gains(self, cal4):
        # The lossy case is not lossless in disguise: some crossings count
        # fewer than their births (exits), some more (upstream arrivals).
        cal, cfg, pulse = _lossy(cal4)
        cfg = dataclasses.replace(cfg, weights=np.floor(1.5 * cfg.weights))
        res = run_weighted_sum(cfg, InputVector((pulse,) * cfg.m_tracks),
                               StochasticModel(0.0), cal, seed=11)
        births = pulse.count * cfg.weights
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

    @pytest.mark.parametrize("pitch", [3.0, 6.0, 6.0005])
    def test_zones_too_close_rejected_before_drawing(self, cal4, pitch):
        # 6 um zones: overlapping, touching, or so close that a skyrmion
        # crowded out of one zone would be parked inside the next.
        cfg = build_crossbar(cal4, [[1.0, 1.0]], zone_pitch=pitch)
        rng = stream(0)
        with pytest.raises(ValueError, match="zones of track 0"):
            simulate_track_counts(cfg, cal4, 0, PulseTrain(5, J4, T4),
                                  StochasticModel(0.4), rng)
        assert rng.random() == stream(0).random()
        with pytest.raises(ValueError):
            run_weighted_sum(cfg, InputVector((PulseTrain(5, J4, T4),)),
                             StochasticModel(0.4), cal4)


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

    def test_sum_std_at_fractional_weight(self):
        # The exact std of the M*N-pulse total, normalised by M*N*w: the
        # weight divides the std as well as scaling the counts.
        model = StochasticModel(0.4)
        m, n, w = 4, 5, 2.3
        pmf = sum_pmf(w, model, m * n)
        k = np.arange(pmf.size)
        want = np.sqrt((k - k @ pmf) ** 2 @ pmf) / (m * n * w)
        got = monte_carlo_sum_relative_std(m, n, model, 20_000, seed=8, w=w)
        assert got == pytest.approx(want, rel=0.03)

    @pytest.mark.parametrize("m, n_pulse, w, match", [
        (0, 20, 1.0, "m must"),
        (-2, 20, 1.0, "m must"),
        (-2, -10, 1.0, "m must"),
        (10, 0, 1.0, "n_pulse must"),
        (10, 20, 0.0, "w must"),
        (10, 20, -1.0, "w must"),
    ])
    def test_sum_std_rejects_bad_arguments(self, m, n_pulse, w, match):
        with pytest.raises(ValueError, match=match):
            monte_carlo_sum_relative_std(m, n_pulse, StochasticModel(0.4),
                                         1000, seed=0, w=w)

    def test_input_length_must_match_tracks(self, cal4):
        cfg = two_track(cal4)
        iv = InputVector((PulseTrain(3, J4, T4),) * 3)
        with pytest.raises(ValueError, match="does not match"):
            monte_carlo_column_counts(cfg, iv, StochasticModel(0.4),
                                      trials=10, seed=0)

    def test_needs_a_trial(self, cal4):
        cfg = two_track(cal4)
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_column_counts(cfg, inputs(3, 3), StochasticModel(0.4),
                                      trials=0, seed=0)


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

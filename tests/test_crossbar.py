import dataclasses
import tracemalloc

import numpy as np
import pytest

from skysum import (
    CrossbarConfig,
    InputVector,
    ProtocolError,
    PulseTrain,
    StochasticModel,
    analytic_sigma,
    build_crossbar,
    current_uniformity,
    expected_sums,
    hall_voltage,
    monte_carlo_column_counts,
    monte_carlo_sum_relative_std,
    paper2024,
    run_fig4_protocol,
    run_weighted_sum,
    stream,
)
from skysum import crossbar
from skysum.crossbar import _windows
from skysum.nucleation import MC_BLOCK, PULSE_BLOCK, pulse_distribution
from skysum.transport import SkyrmionPopulation, advance

from laws import (
    UNBOUNDED,
    apply_capacity,
    assert_follows,
    count_in_zone,
    sum_pmf,
    track_counts,
    trajectory_windows,
    window_column_counts,
    window_weighted_sum,
)

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
    for zone in zones:
        pop = apply_capacity(pop, zone)
    return np.array([count_in_zone(pop, zone) for zone in zones])


def unbounded(config):
    """``config`` with every zone's capacity out of reach."""
    return dataclasses.replace(config, zones=[
        [dataclasses.replace(z, capacity=UNBOUNDED) for z in row]
        for row in config.zones])


def steady_births(config, track, pulse):
    """(N, L) births of one track when every pulse nucleates exactly its
    site's weight (integer weights, p_bar = 0)."""
    return np.tile(config.weights[track].astype(int), (pulse.count, 1))


def reference_windows(config, cal, track, pulse):
    """(L, L) windows of one track from the particle reference: row s
    counts, per zone, the pulses whose skyrmion born at site s ends there."""
    free = unbounded(config)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, cal4, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            build_crossbar(cal4, [[bad, 1.0]])

    def test_series_ratio_enforced(self, cal4):
        with pytest.raises(ValueError):
            two_track(cal4, series_resistance=1000.0)

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
        alone = [track_counts(cfg, cal4, i, PulseTrain(20, J4, T4), model, 9)
                 for i in range(2)]
        assert res.per_track[0, 0] == alone[0][0]
        assert res.per_track[1, 0] == alone[1][0]
        assert res.n_detec[0] == alone[0][0] + alone[1][0]
        assert res.output[0] == 22.0 * res.n_detec[0]

    def test_zero_weight_track_contributes_nothing(self, cal4):
        cfg = two_track(cal4, w=(1.0, 0.0))
        res = run_weighted_sum(cfg, inputs(20, 20), StochasticModel(0.4),
                               cal4, seed=5)
        assert res.per_track[1, 0] == 0

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

    def test_noisy_outputs_equal_column_loop(self, cal4):
        # The columns are read in one array call: the values of one scalar
        # call per column, in column order, on the "readout" stream.
        cal, cfg, pulse = _lossy(cal4)
        iv = InputVector((pulse,) * cfg.m_tracks)
        for seed in range(3):
            res = run_weighted_sum(cfg, iv, StochasticModel(0.4), cal,
                                   seed=seed, noise=True, sigma_meas=12.0)
            g = stream(seed, "readout")
            assert res.output.tolist() == [
                hall_voltage(int(n), cal, noise=True, rng=g, sigma_meas=12.0)
                for n in res.n_detec]


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
                if pmf.size > zone.capacity + 1:
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
        pulse = PulseTrain(0, J4, T4)
        res = run_weighted_sum(cfg, InputVector((pulse,)),
                               StochasticModel(0.4), cal4, seed=0)
        assert res.per_track.tolist() == [[0, 0]]
        assert track_counts(cfg, cal4, 0, pulse, StochasticModel(0.4),
                            0).tolist() == [0, 0]

    @pytest.mark.parametrize("pitch", [3.0, 6.0, 6.0005])
    def test_zones_too_close_rejected_before_drawing(self, cal4, pitch,
                                                     monkeypatch):
        # 6 um zones: overlapping, touching, or so close that a skyrmion
        # crowded out of one zone would be parked inside the next.  Track
        # 1's row is refused before track 0, whose row is fine, draws.
        cfg = build_crossbar(cal4, [[1.0, 1.0], [1.0, 1.0]])
        close = build_crossbar(cal4, [[1.0, 1.0]], zone_pitch=pitch)
        cfg = dataclasses.replace(cfg, zones=(cfg.zones[0], close.zones[0]))
        drawn = []
        monkeypatch.setattr(crossbar, "sample_stream_sums",
                            lambda *args: drawn.append(args) or iter(()))
        with pytest.raises(ValueError, match="zones of track 1"):
            run_weighted_sum(cfg, inputs(5, 5), StochasticModel(0.4), cal4)
        assert drawn == []


def _lossy_at(current):
    def make(cal4):
        cal, cfg, pulse = _lossy(cal4)
        return cal, cfg, dataclasses.replace(pulse, current_density=current)
    return make


def _lossy_equal(cal4):
    # Once the test below adds 0.37 to columns 1::3, column 2::3 equals
    # column 1::3 bit for bit: every (track, site) with a weight shares it
    # with its neighbours, across tracks too, but for track 1's sites 7-8.
    cal, cfg, pulse = _lossy(cal4)
    weights = np.ones(cfg.weights.shape)
    weights[1, 6:9] = 0.6
    weights[:, 2::3] = weights[:, 1::3] + 0.37
    return cal, dataclasses.replace(cfg, weights=weights), pulse


class TestStreamIdentity:
    """One sampler call per track draws, bit for bit, what one scalar call
    per window drew on the same per-track streams."""

    @pytest.mark.parametrize("make", [
        _lossless, _lossy, _lossy_at(150.0), _lossy_at(200.0), _crowded,
        _lossy_crowded, _lossy_equal,
    ], ids=["lossless", "lossy-171", "lossy-150", "lossy-200", "capacity",
            "lossy-capacity", "lossy-equal-weights"])
    def test_weighted_sum_equals_window_loop(self, cal4, make):
        cal, cfg, pulse = make(cal4)
        weights = cfg.weights.copy()
        weights[:, ::3] = 0.0
        weights[:, 1::3] += 0.37   # fractional, some above 1
        cfg = dataclasses.replace(cfg, weights=weights)
        # Each track has a train of its own, so windows of its own.
        iv = InputVector(tuple(
            dataclasses.replace(pulse, count=max(pulse.count - 9 * i, 0))
            for i in range(cfg.m_tracks)))
        model = StochasticModel(0.4)
        for seed in range(3):
            res = run_weighted_sum(cfg, iv, model, cal, seed=seed)
            ref = window_weighted_sum(cfg, iv, model, cal, seed)
            np.testing.assert_array_equal(res.per_track, ref)

    @pytest.mark.parametrize("trials", [1, 1000])
    def test_column_counts_equal_window_loop(self, cal4, trials):
        weights = np.random.default_rng(3).uniform(0.0, 3.0, (4, 3))
        weights[1, 2] = 0.0
        cfg = build_crossbar(cal4, weights, capacity=60)
        iv = InputVector(tuple(PulseTrain(n, J4, T4) for n in (0, 10, 40, 3)))
        model = StochasticModel(0.4)
        np.testing.assert_array_equal(
            monte_carlo_column_counts(cfg, iv, model, trials, seed=9),
            window_column_counts(cfg, iv, model, trials, seed=9))

    def test_mixed_branch_call_equals_window_loop(self, cal4):
        # 400 pulses: weights below 1 span 2N = 800 < 1000 trials and take
        # the table, weights above 1 span 3N = 1200 and take the
        # multinomial, so one track's call alternates between the two.
        n, trials = 400, 1000
        weights = [[0.5, 1.5, 2.0, 0.3, 0.7, 1.2]]
        values, _ = pulse_distribution(np.array(weights[0]),
                                       StochasticModel(0.4))
        span = (values[:, -1] - values[:, 0]) * n
        assert (span < trials).tolist() == [True, False, False, True, True,
                                            False]
        assert span.max() < MC_BLOCK
        cfg = build_crossbar(cal4, weights, zone_start_x=1.0, zone_pitch=6.5,
                             capacity=UNBOUNDED)
        iv = InputVector((PulseTrain(n, J4, T4),))
        model = StochasticModel(0.4)
        np.testing.assert_array_equal(
            monte_carlo_column_counts(cfg, iv, model, trials, seed=2),
            window_column_counts(cfg, iv, model, trials, seed=2))


    def test_window_over_the_cap_equals_window_loop(self, cal4):
        # A 0.05 ns pulse moves a skyrmion by 0.08 nm, so MC_BLOCK + 100
        # pulses leave every one in the zone it was born in: track 0's
        # windows hold more than MC_BLOCK pulses and take the multinomial,
        # while track 1's take the per-pulse kernel.
        cfg = build_crossbar(cal4, [[1.0, 0.4], [2.3, 0.0]],
                             capacity=UNBOUNDED)
        iv = InputVector((PulseTrain(MC_BLOCK + 100, J4, 0.05),
                          PulseTrain(30, J4, T4)))
        assert _windows(cfg.zones[0], iv.pulses_per_track[0],
                        cal4).max() > MC_BLOCK
        model = StochasticModel(0.4)
        for seed in range(2):
            res = run_weighted_sum(cfg, iv, model, cal4, seed=seed)
            np.testing.assert_array_equal(
                res.per_track, window_weighted_sum(cfg, iv, model, cal4, seed))


    @pytest.mark.parametrize("capacity", [40, UNBOUNDED],
                             ids=["capacity", "no-capacity"])
    def test_long_track_equals_window_loop(self, cal4, capacity):
        # A track of more than MC_BLOCK pulses whose skyrmions move on and
        # out: its windows are short and take the per-pulse kernel, drawn
        # with the other track's from one block of uniforms.
        cfg = build_crossbar(cal4, [[1.3, 0.4], [2.3, 0.0]],
                             capacity=capacity)
        iv = InputVector((PulseTrain(MC_BLOCK + 808, J4, T4),
                          PulseTrain(30, J4, T4)))
        windows = _windows(cfg.zones[0], iv.pulses_per_track[0], cal4)
        assert 0 < windows.max() <= MC_BLOCK
        model = StochasticModel(0.4)
        for seed in range(2):
            res = run_weighted_sum(cfg, iv, model, cal4, seed=seed)
            np.testing.assert_array_equal(
                res.per_track, window_weighted_sum(cfg, iv, model, cal4, seed))

    def test_single_trial_column_counts_equal_window_loop(self, cal4):
        # One trial, as stochastic inference at trials=1 draws: tracks over
        # MC_BLOCK pulses take the multinomial, the others one uniform per
        # pulse, over several blocks of PULSE_BLOCK uniforms held across
        # tracks; tracks without pulses and zero weights draw nothing.
        weights = np.random.default_rng(4).uniform(0.0, 3.0, (24, 6))
        weights[::5, 2] = 0.0
        cfg = build_crossbar(cal4, weights, zone_start_x=1.0, zone_pitch=6.5,
                             capacity=9000)
        counts = [MC_BLOCK + 5 if i % 7 == 3 else 0 if i % 7 == 5 else 8000
                  for i in range(24)]
        assert sum(counts) * 6 > 2 * PULSE_BLOCK
        iv = InputVector(tuple(PulseTrain(n, J4, T4) for n in counts))
        model = StochasticModel(0.4)
        for seed in range(2):
            np.testing.assert_array_equal(
                monte_carlo_column_counts(cfg, iv, model, 1, seed=seed),
                window_column_counts(cfg, iv, model, 1, seed=seed))

    def test_many_pulses_in_bounded_memory(self, cal4):
        # 16 tracks of 8 columns and 8000 pulses that stay in their zones:
        # 1 024 000 uniforms, drawn and transformed a block of tracks at a
        # time, the same counts as the window loop.
        cal = dataclasses.replace(cal4, track_length=170.0)
        weights = np.random.default_rng(5).uniform(0.0, 2.5, (16, 8))
        cfg = build_crossbar(cal, weights, capacity=UNBOUNDED)
        iv = InputVector((PulseTrain(8000, J4, 0.05),) * 16)
        assert 16 * 8 * 8000 > 8 * PULSE_BLOCK
        model = StochasticModel(0.4)
        run_weighted_sum(cfg, iv, model, cal, seed=3)
        tracemalloc.start()
        try:
            res = run_weighted_sum(cfg, iv, model, cal, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        np.testing.assert_array_equal(
            res.per_track, window_weighted_sum(cfg, iv, model, cal, 3))


class TestWindowCache:
    def test_windows_are_read_only_and_shared(self, cal4):
        # Both tracks share one zone row and one train: one lookup.
        _, cfg, pulse = _lossless(cal4)
        _windows.cache_clear()
        run_weighted_sum(cfg, InputVector((pulse,) * 2), StochasticModel(0.4),
                         cal4, seed=0)
        info = _windows.cache_info()
        assert (info.misses, info.hits) == (1, 0)
        windows = _windows(cfg.zones[0], pulse, cal4)
        assert windows.dtype == np.int64
        with pytest.raises(ValueError):
            windows[0, 0] = 1

    def test_equal_trains_share_one_lookup(self, cal4):
        # 64 tracks, each with its own but equal train, look their
        # windows up once, and draw what one shared train draws.
        _, cfg, pulse = _lossless(cal4)
        cfg = build_crossbar(cal4, np.resize(cfg.weights, (64, 2)))
        trains = tuple(dataclasses.replace(pulse) for _ in range(64))
        assert len({id(t) for t in trains}) == 64
        model = StochasticModel(0.4)
        _windows.cache_clear()
        res = run_weighted_sum(cfg, InputVector(trains), model, cal4, seed=4)
        info = _windows.cache_info()
        assert (info.misses, info.hits) == (1, 0)
        shared = run_weighted_sum(cfg, InputVector((pulse,) * 64), model,
                                  cal4, seed=4)
        np.testing.assert_array_equal(res.per_track, shared.per_track)

    def test_trains_give_their_own_windows(self, cal4):
        cal, cfg, pulse = _lossy(cal4)
        row = cfg.zones[0]
        trains = [pulse, dataclasses.replace(pulse, count=12),
                  dataclasses.replace(pulse, current_density=150.0)]
        got = [_windows(row, train, cal) for train in trains]
        for train, windows in zip(trains, got):
            np.testing.assert_array_equal(
                windows, trajectory_windows(row, train, cal))
        assert not np.array_equal(got[0], got[1])
        assert not np.array_equal(got[0], got[2])

    def test_tracks_with_different_trains(self, cal4):
        # Integer weights at p_bar = 0: each crossing counts exactly
        # sum_s w_s K[s, j] with its own track's windows.
        cal, cfg, pulse = _lossy(cal4)
        cfg = dataclasses.replace(unbounded(cfg), weights=np.ones((3, 16)))
        trains = (pulse, dataclasses.replace(pulse, count=12),
                  dataclasses.replace(pulse, current_density=150.0))
        res = run_weighted_sum(cfg, InputVector(trains), StochasticModel(0.0),
                               cal, seed=0)
        want = [trajectory_windows(cfg.zones[i], train, cal).sum(axis=0)
                for i, train in enumerate(trains)]
        np.testing.assert_array_equal(res.per_track, want)
        assert len({tuple(row) for row in want}) == 3


class TestMonteCarlo:
    def test_mean_converges_to_expected(self, cal4):
        # Valid in the w >= 1 operating regime, where the clamp-at-zero
        # bias of the per-pulse sampler vanishes.
        cfg = two_track(cal4, w=(1.0, 2.5), capacity=UNBOUNDED)
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

    @pytest.mark.parametrize("trials", [1, 50, 200, 1000, 9000])
    @pytest.mark.parametrize("capacity", [60, UNBOUNDED],
                             ids=["capacity", "no-capacity"])
    def test_column_counts_equal_track_draws(self, cal4, trials, capacity):
        # One call draws every track's crossings from its own stream, what
        # one scalar call per crossing gives on the (seed, "track", i)
        # streams.  At 20 pulses and 50 trials, weights below 1 span 40
        # totals and take the table and weights above 1 span 60 and do
        # not, so track 0 mixes kernels; track 1 has no pulses, track 2
        # only zero weights, and 3000 pulses span 6000 or 9000 totals
        # around MC_BLOCK.
        weights = np.array([[0.5, 1.5, 0.0, 0.3, 2.3, 1.0],
                            [1.0, 2.0, 0.5, 0.0, 0.7, 3.0],
                            [0.0] * 6,
                            [0.4, 1.2, 0.0, 2.6, 0.9, 1.0],
                            [0.2, 0.0, 3.4, 1.1, 0.6, 2.0]])
        cfg = build_crossbar(cal4, weights, zone_start_x=1.0, zone_pitch=6.5,
                             capacity=capacity)
        pulses = (20, 0, 35, 3000 if trials == 9000 else 40, 7)
        iv = InputVector(tuple(PulseTrain(n, J4, T4) for n in pulses))
        model = StochasticModel(0.4)
        got = monte_carlo_column_counts(cfg, iv, model, trials, seed=5)
        assert got.shape == (trials, 6) and got.flags.c_contiguous
        np.testing.assert_array_equal(
            got, window_column_counts(cfg, iv, model, trials, seed=5))
        if capacity != UNBOUNDED:
            free = monte_carlo_column_counts(unbounded(cfg), iv, model,
                                             trials, seed=5)
            assert (got <= free).all() and (got < free).any()

    @pytest.mark.parametrize("below", [0, 1], ids=["skipped", "taken"])
    def test_clamp_only_where_a_count_can_pass_capacity(self, cal4,
                                                         monkeypatch, below):
        # Two pulses at w = 1.5 and 0.5 total at most (floor(w) + 2) * 2 =
        # 6 and 4.  At capacity 6 no count can pass it and the clamp is
        # skipped; at 5 it is taken, and binds on the trials where the
        # first crossing totals 6.
        cfg = build_crossbar(cal4, [[1.5, 0.5]], zone_start_x=1.0,
                             zone_pitch=6.5, capacity=6 - below)
        iv = InputVector((PulseTrain(2, J4, T4),))
        model = StochasticModel(0.4)
        clamps, minimum = [], np.minimum

        def spy(*args, **kwargs):
            clamps.append(args)
            return minimum(*args, **kwargs)

        monkeypatch.setattr(np, "minimum", spy)
        got = monte_carlo_column_counts(cfg, iv, model, 1000, seed=3)
        monkeypatch.undo()
        assert len(clamps) == below
        assert got[:, 0].max() == 6 - below
        np.testing.assert_array_equal(
            got, window_column_counts(cfg, iv, model, 1000, seed=3))

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
        got = current_uniformity(cfg.track_resistances,
                                 cfg.series_resistance)
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

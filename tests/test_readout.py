import dataclasses
import math

import numpy as np
import pytest

from skysum import (
    DetectionZone,
    InsufficientData,
    InvalidRatio,
    MeasurementTrace,
    MtjConfig,
    ProtocolError,
    PulseTrain,
    SequencedTrack,
    StochasticModel,
    drift_correct,
    estimate_diameter,
    field_for_weight,
    full_reversal_voltage,
    hall_voltage,
    mtj_activation,
    mtj_coverage,
    mtj_voltage_from_coverage,
    notch_position,
    paper2024,
    run_phases,
    sample_pulse_sums,
    stream,
    synaptic_weight,
)
from skysum.nucleation import _lookup, _sum_cdf
from skysum.transport import SkyrmionPopulation, advance

from laws import UNBOUNDED, apply_capacity, count_in_zone, field_reset


def unit_weight_track(cal, zone, rng):
    # w = 1 at J = 150 GA/m^2 (slow transport keeps everything in the box).
    field = field_for_weight(cal, 1.0, 50.0, 150.0)
    return SequencedTrack(zone=zone, notch=notch_position(cal),
                          weight=synaptic_weight(cal, field, 50.0, 150.0),
                          pulse=PulseTrain(1, 150.0, 50.0),
                          stochastic=StochasticModel(0.0), rng=rng)


def detection_plan(pulses=20):
    """Baseline, pulse-and-measure, field reset, post-reset samples."""
    return (("baseline", 10, None), ("pulsing", pulses, 0),
            ("reset", 1, None), ("post", 10, None))


def measure(cal, zone, rng, plan=detection_plan(), **kwargs):
    """A detection plan on a unit-weight track whose ``rng`` draws the
    births and then the measurement noise."""
    return run_phases(plan, [unit_weight_track(cal, zone, rng)], cal,
                      meas_rng=rng, **kwargs)


class TestHallVoltage:
    def test_zero(self, cal):
        assert hall_voltage(0, cal) == 0.0

    def test_linear_exact(self, cal):
        assert hall_voltage(8, cal) == 176.0

    def test_additivity(self, cal):
        for a, b in [(0, 5), (3, 7), (20, 20)]:
            assert hall_voltage(a + b, cal) == (hall_voltage(a, cal)
                                                + hall_voltage(b, cal))

    def test_negative_rejected(self, cal):
        with pytest.raises(ValueError):
            hall_voltage(-1, cal)

    def test_noise_statistics(self, cal):
        g = stream(0, "noise")
        samples = np.array([hall_voltage(1, cal, noise=True, rng=g)
                            for _ in range(20_000)])
        assert samples.mean() == pytest.approx(22.0, abs=0.6)
        expected_std = math.sqrt(7.0**2 + 25.0**2)
        assert samples.std() == pytest.approx(expected_std, abs=0.6)

    def test_noise_needs_rng(self, cal):
        with pytest.raises(ValueError):
            hall_voltage(1, cal, noise=True)

    def test_array_equals_scalar_loop(self, cal):
        # One draw over an array of counts gives the scalar calls' values
        # in order and leaves the stream where they leave it.
        counts = np.array([0, 3, 40, 1, 17, 0, 250])
        g, ref = stream(2, "readout"), stream(2, "readout")
        out = hall_voltage(counts, cal, noise=True, rng=g, sigma_meas=9.0)
        assert out.tolist() == [hall_voltage(int(n), cal, noise=True, rng=ref,
                                             sigma_meas=9.0) for n in counts]
        assert g.random() == ref.random()
        assert hall_voltage(counts, cal).tolist() == [
            hall_voltage(int(n), cal) for n in counts]

    def test_negative_in_array_rejected(self, cal):
        with pytest.raises(ValueError):
            hall_voltage(np.array([3, -1, 2]), cal)


class TestMeasureProtocol:
    """The single-track detection plan on ``run_phases``."""

    def test_detection_sequence_composition(self, cal, zone):
        track = unit_weight_track(cal, zone, stream(1, "p"))
        assert track.weight == pytest.approx(1.0, rel=1e-12)
        trace = run_phases(detection_plan(), [track], cal,
                           meas_rng=track.rng)
        pulsing = trace.mask("pulsing")
        assert trace.delta_v[pulsing][-1] == 440.0
        assert trace.n_detec[pulsing][-1] == 20
        # counts climb one per pulse while everything stays in the box
        assert list(trace.n_detec[pulsing]) == list(range(1, 21))

    def test_reset_returns_to_zero(self, cal, zone):
        trace = measure(cal, zone, stream(2, "p"))
        post = trace.mask("post", "reset")
        assert np.all(trace.delta_v[post] == 0.0)
        assert np.all(trace.n_detec[post] == 0)

    def test_zero_pulses_flat(self, cal, zone):
        trace = measure(cal, zone, stream(3, "p"), detection_plan(pulses=0))
        assert np.all(trace.delta_v == 0.0)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            MeasurementTrace(index=np.array([1, 1]), phase=("baseline",) * 2,
                             delta_v=np.zeros(2), n_detec=np.zeros(2, int))
        with pytest.raises(ValueError):
            MeasurementTrace(index=np.array([1, 2]), phase=("nope",) * 2,
                             delta_v=np.zeros(2), n_detec=np.zeros(2, int))


def replay_phases(plan, tracks, cal, meas_rng, noise):
    """Reference sequencer: each track's skyrmions are advanced, spawned at
    its notch and crowded as particles, pulse by pulse.  Like
    ``run_phases``, it draws every pulse's births up front, track by
    track, as one-pulse totals."""
    births = [iter(sample_pulse_sums(
        track.weight, track.stochastic, track.rng, 1,
        sum(s for phase, s, u in plan if phase == "pulsing" and u == t)))
        for t, track in enumerate(tracks)]
    pops = [SkyrmionPopulation.empty() for _ in tracks]
    in_zone = [0] * len(tracks)
    counts, volts = [], []
    for phase, samples, t in plan:
        if phase == "reset":
            pops = [field_reset(pop) for pop in pops]
            in_zone = [0] * len(tracks)
        for _ in range(samples):
            if phase == "pulsing":
                track = tracks[t]
                born = int(next(births[t]))
                single = PulseTrain(1, track.pulse.current_density,
                                    track.pulse.duration)
                pop = advance(pops[t], single, cal).spawn(born, *track.notch)
                pops[t] = pop = apply_capacity(pop, track.zone)
                in_zone[t] = count_in_zone(pop, track.zone)
            counts.append(sum(in_zone))
            volts.append(hall_voltage(counts[-1], cal, noise=noise,
                                      rng=meas_rng))
    return counts, volts


# Each case: per-track (J, weight, p_bar, zone centre x, capacity) and a
# plan; UNBOUNDED is a capacity that never binds.  Notches sit at x = 5 um,
# so a zone centred beyond 8 um is entered only some pulses after birth; at
# 171 GA/m^2 a skyrmion leaves a 6 um box after 9 pulses, at 190 GA/m^2 it
# reaches the far track edge after 16.
REPLAY_CASES = {
    "two-tracks": (
        [(171.0, 2.3, 0.4, 8.0, 81), (150.0, 0.7, 0.4, 18.0, 81)],
        [("baseline", 3, None), ("pulsing", 25, 0), ("hold", 4, None),
         ("pulsing", 30, 1), ("pulsing", 10, 0), ("hold", 2, None),
         ("reset", 1, None), ("post", 3, None)]),
    "mid-reset": (
        [(160.0, 1.5, 0.6, 8.0, 6)],
        [("baseline", 2, None), ("pulsing", 20, 0), ("reset", 1, None),
         ("pulsing", 30, 0), ("post", 2, None)]),
    "capacity-bound": (
        [(171.0, 3.2, 0.8, 14.0, 5), (150.0, 2.9, 0.2, 8.0, 7)],
        [("pulsing", 40, 0), ("pulsing", 40, 1), ("hold", 2, None),
         ("pulsing", 15, 0)]),
    "lossy": (
        [(190.0, 2.6, 0.4, 20.0, 4), (190.0, 2.6, 0.4, 20.0, UNBOUNDED)],
        [("pulsing", 30, 0), ("pulsing", 30, 1), ("post", 2, None)]),
}


ONE_TRACK = [(171.0, 2.3, 0.4, 8.0, 81)]


def replay_tracks(seed, specs):
    return [SequencedTrack(
        zone=DetectionZone(center_x=cx, center_y=3.0, capacity=capacity),
        notch=(5.0, 1.02), weight=w, pulse=PulseTrain(1, j, 50.0),
        stochastic=StochasticModel(p_bar), rng=stream(seed, "replay", t))
        for t, (j, w, p_bar, cx, capacity) in enumerate(specs)]


class TestCohortSequencer:
    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_particle_replay(self, case, seed):
        cal = paper2024()
        specs, plan = REPLAY_CASES[case]
        ref_counts, ref_volts = replay_phases(
            plan, replay_tracks(seed, specs), cal, stream(seed, "meas"),
            noise=True)
        trace = run_phases(plan, replay_tracks(seed, specs), cal,
                           meas_rng=stream(seed, "meas"), noise=True)
        assert trace.n_detec.tolist() == ref_counts
        assert trace.delta_v.tolist() == ref_volts

    def test_shared_stream_matches_particle_replay(self):
        # A detection run draws births and measurement noise from one
        # stream: all births first, then the noise.
        cal = paper2024()
        specs, plan = REPLAY_CASES["mid-reset"]
        tracks = replay_tracks(5, specs)
        ref_counts, ref_volts = replay_phases(plan, tracks, cal,
                                              tracks[0].rng, noise=True)
        tracks = replay_tracks(5, specs)
        trace = run_phases(plan, tracks, cal, meas_rng=tracks[0].rng,
                           noise=True)
        assert trace.n_detec.tolist() == ref_counts
        assert trace.delta_v.tolist() == ref_volts


    @pytest.mark.parametrize("w, p_bar", [(2.3, 0.4), (1.0, 1.0),
                                          (0.4, 0.6)])
    def test_one_pulse_track(self, w, p_bar):
        # A track pulsed once draws its birth from one uniform of its
        # stream, placed on the one-pulse table.
        cal = paper2024()
        plan = [("pulsing", 1, 0), ("post", 1, None)]
        table = _sum_cdf(w, p_bar, 1)
        for seed in range(60):
            tracks = replay_tracks(seed, [(171.0, w, p_bar, 8.0, 81)])
            trace = run_phases(plan, tracks, cal)
            u = stream(seed, "replay", 0).random((1, 1))
            born = _lookup([table], u)[0, 0]
            assert trace.n_detec.tolist() == [born, born]


class TestDriftCorrect:
    def trace(self, cal, zone, drift, noise=False, sigma=0.0):
        return measure(cal, zone, stream(4, "d"), noise=noise,
                       sigma_meas=sigma, drift_rate=drift)

    def test_drift_free_unchanged(self, cal, zone):
        trace = self.trace(cal, zone, 0.0)
        corrected = drift_correct(trace)
        assert np.allclose(corrected.delta_v, trace.delta_v, atol=1e-9)

    def test_linear_drift_removed(self, cal, zone):
        trace = self.trace(cal, zone, 0.5)
        corrected = drift_correct(trace)
        baseline = corrected.mask("baseline")
        assert abs(corrected.delta_v[baseline].mean()) < 0.1

    def test_constant_offset_removed(self, cal, zone):
        trace = self.trace(cal, zone, 0.0)
        shifted = MeasurementTrace(index=trace.index, phase=trace.phase,
                                   delta_v=trace.delta_v + 100.0,
                                   n_detec=trace.n_detec)
        corrected = drift_correct(shifted)
        assert abs(corrected.delta_v[corrected.mask("baseline")].mean()) < 1e-9

    def test_idempotent(self, cal, zone):
        trace = self.trace(cal, zone, 0.7)
        once = drift_correct(trace)
        twice = drift_correct(once)
        assert np.allclose(once.delta_v, twice.delta_v, atol=1e-9)

    def test_insufficient_data(self):
        trace = MeasurementTrace(index=np.array([1, 2]),
                                 phase=("pulsing", "pulsing"),
                                 delta_v=np.zeros(2),
                                 n_detec=np.zeros(2, int))
        with pytest.raises(InsufficientData):
            drift_correct(trace)


class TestMtj:
    def test_parallel_state(self, cal):
        mtj = MtjConfig(r_parallel=1000.0, tmr=1.0, read_current=10.0)
        assert mtj_activation(0, mtj, cal) == 10.0

    def test_half_coverage(self):
        mtj = MtjConfig(r_parallel=1000.0, tmr=1.0, read_current=10.0)
        # G = 0.75 mS -> 13.33 mV
        assert mtj_voltage_from_coverage(0.5, mtj) == pytest.approx(
            40.0 / 3.0, rel=1e-12)

    def test_saturation_endpoint_exact(self):
        mtj = MtjConfig(r_parallel=1000.0, tmr=1.0, read_current=10.0)
        assert mtj_voltage_from_coverage(1.0, mtj) == \
            mtj.read_current * mtj.r_parallel * (1.0 + mtj.tmr) * 1e-3

    def test_tmr_zero_is_constant(self, cal):
        mtj = MtjConfig(tmr=0.0)
        outs = {mtj_activation(n, mtj, cal) for n in range(0, 60, 5)}
        assert len(outs) == 1

    def test_monotone_and_convex(self, cal):
        mtj = MtjConfig(r_parallel=2000.0, tmr=1.5, junction_area=1.0)
        xs = np.linspace(0.0, 1.0, 101)
        v = np.array([mtj_voltage_from_coverage(x, mtj) for x in xs])
        assert np.all(np.diff(v) > 0)
        assert np.all(np.diff(v, 2) >= -1e-9)
        counts = np.arange(0, 60)
        vn = np.array([mtj_activation(int(n), mtj, cal) for n in counts])
        assert np.all(np.diff(vn) >= 0)

    def test_coverage_clamps(self, cal):
        mtj = MtjConfig(junction_area=0.1)
        assert mtj_coverage(1000, mtj, cal) == 1.0

    def test_array_readout_equals_scalar_loop(self, cal):
        # An array of counts, below and beyond saturation, gives the bytes
        # of one scalar call per count; a scalar still gives a float.
        mtj = MtjConfig(r_parallel=2000.0, tmr=1.5, junction_area=0.1)
        counts = np.concatenate([np.arange(0, 120, 3), [10**6]])
        for n in (counts, counts + 0.25):
            for f, args in ((mtj_coverage, (mtj, cal)),
                            (mtj_activation, (mtj, cal))):
                got = f(n, *args)
                assert got.dtype == np.float64 and got.shape == n.shape
                want = [f(k, *args) for k in n.tolist()]
                assert all(type(v) is float for v in want)
                assert got.tobytes() == np.array(want).tobytes()
            assert mtj_coverage(n, mtj, cal)[-1] == 1.0
        xs = np.linspace(0.0, 1.0, 101)
        assert mtj_voltage_from_coverage(xs, mtj).tobytes() == np.array(
            [mtj_voltage_from_coverage(x, mtj) for x in xs.tolist()]
        ).tobytes()

    def test_array_readout_refuses_any_bad_entry(self, cal):
        mtj = MtjConfig()
        with pytest.raises(ValueError, match="n_detec"):
            mtj_activation(np.array([3, -1]), mtj, cal)
        for x in ([0.5, 1.5], [-0.1, 0.5], [0.5, np.nan]):
            with pytest.raises(ValueError, match="coverage"):
                mtj_voltage_from_coverage(np.array(x), mtj)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MtjConfig(r_parallel=0.0)
        with pytest.raises(ValueError):
            MtjConfig(tmr=-0.5)


class TestDiameter:
    def test_round_trip(self, cal, zone):
        dv_full = full_reversal_voltage(cal, zone)
        d = estimate_diameter(22.0, dv_full, zone)
        assert d == pytest.approx(222.0, rel=1e-6)

    def test_small_signal_limit(self, cal, zone):
        dv_full = full_reversal_voltage(cal, zone)
        assert estimate_diameter(1e-6, dv_full, zone) < 1.0

    def test_scale_invariance(self, cal, zone):
        dv_full = full_reversal_voltage(cal, zone)
        a = estimate_diameter(22.0, dv_full, zone)
        b = estimate_diameter(44.0, 2.0 * dv_full, zone)
        assert a == b

    def test_invalid_ratio(self, zone):
        with pytest.raises(InvalidRatio):
            estimate_diameter(30.0, 20.0, zone)
        with pytest.raises(ValueError):
            estimate_diameter(-1.0, 20.0, zone)


class TestPlanChecks:
    """``run_phases`` refuses a bad plan or track before any draw."""

    def refused(self, error, plan, specs, zone=None):
        tracks = replay_tracks(6, specs)
        if zone is not None:
            tracks[0] = dataclasses.replace(tracks[0], zone=zone)
        with pytest.raises(error):
            run_phases(plan, tracks, paper2024(), meas_rng=stream(6, "meas"),
                       noise=True)
        for t, track in enumerate(tracks):
            assert track.rng.random() == stream(6, "replay", t).random()

    def test_unknown_phase(self):
        self.refused(ProtocolError, [("baseline", 2, None), ("pulsing", 3, 0),
                                     ("afterparty", 1, None)], ONE_TRACK)

    def test_negative_count(self):
        self.refused(ProtocolError, [("pulsing", 3, 0), ("post", -2, None)],
                     ONE_TRACK)

    def test_pulsing_without_track(self):
        self.refused(ProtocolError, [("pulsing", 3, 0), ("pulsing", 3, None)],
                     ONE_TRACK)

    @pytest.mark.parametrize("t", [2, -1])
    def test_pulsing_track_out_of_range(self, t):
        self.refused(ProtocolError, [("pulsing", 3, 0), ("pulsing", 3, t)],
                     ONE_TRACK * 2)

    def test_zone_outside_track(self):
        self.refused(ValueError, [("pulsing", 3, 0)], ONE_TRACK,
                     zone=DetectionZone(2.0, 3.0))

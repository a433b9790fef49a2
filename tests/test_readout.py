import math
from dataclasses import replace

import numpy as np
import pytest

from skysum import (
    DetectionZone,
    FieldSetting,
    InsufficientData,
    InvalidRatio,
    MeasurementTrace,
    MtjConfig,
    ProtocolError,
    ProtocolSpec,
    PulseTrain,
    StochasticModel,
    TrackDevice,
    drift_correct,
    estimate_diameter,
    field_for_weight,
    full_reversal_voltage,
    hall_voltage,
    measure_protocol,
    mtj_activation,
    mtj_coverage,
    mtj_voltage_from_coverage,
    paper2024,
    sample_pulse_sums,
    stream,
)
from skysum.readout import SequencedTrack, run_phases
from skysum.transport import (
    SkyrmionPopulation,
    advance,
    apply_capacity,
    count_in_zone,
    field_reset,
)


def unit_weight_device(cal, zone, p_bar=0.0):
    # w = 1 at J = 150 GA/m^2 (slow transport keeps everything in the box).
    field = field_for_weight(cal, 1.0, 50.0, 150.0)
    return TrackDevice(cal=cal, zone=zone, field=field,
                       pulse=PulseTrain(1, 150.0, 50.0),
                       stochastic=StochasticModel(p_bar))


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


class TestMeasureProtocol:
    def test_detection_sequence_composition(self, cal, zone):
        device = unit_weight_device(cal, zone)
        trace = measure_protocol(device, ProtocolSpec.standard(),
                                 rng=stream(1, "p"))
        pulsing = trace.mask("pulsing")
        assert trace.delta_v[pulsing][-1] == 440.0
        assert trace.n_detec[pulsing][-1] == 20
        # counts climb one per pulse while everything stays in the box
        assert list(trace.n_detec[pulsing]) == list(range(1, 21))

    def test_reset_returns_to_zero(self, cal, zone):
        device = unit_weight_device(cal, zone)
        trace = measure_protocol(device, ProtocolSpec.standard(),
                                 rng=stream(2, "p"))
        post = trace.mask("post", "reset")
        assert np.all(trace.delta_v[post] == 0.0)
        assert np.all(trace.n_detec[post] == 0)

    def test_zero_pulses_flat(self, cal, zone):
        device = unit_weight_device(cal, zone)
        spec = ProtocolSpec.standard(pulses=0)
        trace = measure_protocol(device, spec, rng=stream(3, "p"))
        assert np.all(trace.delta_v == 0.0)

    def test_malformed_order(self):
        with pytest.raises(ProtocolError):
            ProtocolSpec((("pulsing", 5), ("baseline", 10)))
        with pytest.raises(ProtocolError):
            ProtocolSpec((("baseline", 10), ("afterparty", 1)))

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
                if track.enforce_capacity:
                    pop = apply_capacity(pop, track.zone)
                pops[t] = pop
                in_zone[t] = count_in_zone(pop, track.zone)
            counts.append(sum(in_zone))
            volts.append(hall_voltage(counts[-1], cal, noise=noise,
                                      rng=meas_rng))
    return counts, volts


# Each case: per-track (J, weight, p_bar, zone centre x, capacity,
# enforce_capacity) and a plan.  Notches sit at x = 5 um, so a zone centred
# beyond 8 um is entered only some pulses after birth; at 171 GA/m^2 a
# skyrmion leaves a 6 um box after 9 pulses, at 190 GA/m^2 it reaches the
# far track edge after 16.
REPLAY_CASES = {
    "two-tracks": (
        [(171.0, 2.3, 0.4, 8.0, 81, True), (150.0, 0.7, 0.4, 18.0, 81, True)],
        [("baseline", 3, None), ("pulsing", 25, 0), ("hold", 4, None),
         ("pulsing", 30, 1), ("pulsing", 10, 0), ("hold", 2, None),
         ("reset", 1, None), ("post", 3, None)]),
    "mid-reset": (
        [(160.0, 1.5, 0.6, 8.0, 6, True)],
        [("baseline", 2, None), ("pulsing", 20, 0), ("reset", 1, None),
         ("pulsing", 30, 0), ("post", 2, None)]),
    "capacity-bound": (
        [(171.0, 3.2, 0.8, 14.0, 5, True), (150.0, 2.9, 0.2, 8.0, 7, True)],
        [("pulsing", 40, 0), ("pulsing", 40, 1), ("hold", 2, None),
         ("pulsing", 15, 0)]),
    "lossy": (
        [(190.0, 2.6, 0.4, 20.0, 4, True), (190.0, 2.6, 0.4, 20.0, 4, False)],
        [("pulsing", 30, 0), ("pulsing", 30, 1), ("post", 2, None)]),
}


def replay_tracks(seed, specs):
    return [SequencedTrack(
        zone=DetectionZone(center_x=cx, center_y=3.0, capacity=capacity),
        notch=(5.0, 1.02), weight=w, pulse=PulseTrain(1, j, 50.0),
        stochastic=StochasticModel(p_bar), rng=stream(seed, "replay", t),
        enforce_capacity=enforce)
        for t, (j, w, p_bar, cx, capacity, enforce) in enumerate(specs)]


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
        # measure_protocol draws births and measurement noise from one
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


    def test_rng_free_track_raises_only_when_pulsed(self):
        # Without an rng only an integer weight has a count, and a
        # fractional weight is an error only on a track the plan pulses.
        cal = paper2024()
        tracks = [replace(t, rng=None) for t in replay_tracks(
            0, [(171.0, 1.0, 0.0, 8.0, 81, True),
                (150.0, 0.7, 0.0, 18.0, 81, True)])]
        plan = [("pulsing", 5, 0), ("post", 2, None)]
        trace = run_phases(plan, tracks, cal)
        assert trace.n_detec.tolist() == [1, 2, 3, 4, 5, 5, 5]
        with pytest.raises(ProtocolError, match="fractional weight"):
            run_phases(plan + [("pulsing", 1, 1)], tracks, cal)


class TestDriftCorrect:
    def trace(self, cal, zone, drift, noise=False, sigma=0.0):
        device = unit_weight_device(cal, zone)
        return measure_protocol(device, ProtocolSpec.standard(),
                                rng=stream(4, "d"), noise=noise,
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


class TestTrackDevice:
    def test_weight_property(self, cal, zone):
        device = unit_weight_device(cal, zone)
        assert device.weight == pytest.approx(1.0, rel=1e-12)

    def test_zone_must_fit(self, cal):
        field = FieldSetting(24.0)
        with pytest.raises(ValueError):
            TrackDevice(cal=cal, zone=DetectionZone(2.0, 3.0), field=field,
                        pulse=PulseTrain(1, 171.0, 50.0),
                        stochastic=StochasticModel(0.0))

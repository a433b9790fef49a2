"""Electrical readout: Hall voltage, measurement protocols, MTJ activation.

Each skyrmion inside the detection box lowers the mean out-of-plane
magnetisation and contributes a fixed Hall-voltage step (22 nV at the
100 uA read current), so the anomalous Hall signal counts skyrmions
linearly.  An MTJ replaces the linear transducer with a saturating
two-channel conduction law and doubles as the neuron activation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .device import DeviceCalibration, PulseTrain
from .errors import InsufficientData, InvalidRatio, ProtocolError
from .nucleation import StochasticModel, sample_pulse_sums
from .transport import DetectionZone, trajectory, zone_within_track

#: Post-averaging measurement noise (nV), one std per recorded sample.
#: Sits inside the 21..42 nV per-point scatter band of the two-track runs.
DEFAULT_SIGMA_MEAS_NV = 25.0

#: Valid protocol phase tags, in canonical order.  'hold' marks stability
#: samples taken between pulsing blocks of multi-track protocols.
PHASES = ("baseline", "pulsing", "hold", "reset", "post")


@dataclass(frozen=True)
class MeasurementTrace:
    """Time-ordered Hall-voltage samples with protocol phase tags.

    delta_v is in nV relative to the saturated state; n_detec is the
    skyrmion count inside the detection zone at sampling time.
    """

    index: np.ndarray
    phase: tuple
    delta_v: np.ndarray
    n_detec: np.ndarray

    def __post_init__(self):
        n = len(self.index)
        if not (len(self.phase) == len(self.delta_v) == len(self.n_detec) == n):
            raise ValueError("trace columns must have equal length")
        idx = np.asarray(self.index)
        if n > 1 and np.any(np.diff(idx) <= 0):
            raise ValueError("sample indices must be strictly increasing")
        bad = set(self.phase) - set(PHASES)
        if bad:
            raise ValueError(f"unknown phase tags: {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.index)

    def mask(self, *phases: str) -> np.ndarray:
        return np.asarray([p in phases for p in self.phase], dtype=bool)

    def phase_blocks(self) -> list[tuple[str, slice]]:
        """Contiguous runs of equal phase, in order."""
        blocks = []
        start = 0
        for i in range(1, len(self.phase) + 1):
            if i == len(self.phase) or self.phase[i] != self.phase[start]:
                blocks.append((self.phase[start], slice(start, i)))
                start = i
        return blocks

    def rows(self):
        """(index, phase, delta_v_nV, n_detec) tuples for CSV export."""
        return list(zip(np.asarray(self.index, dtype=np.int64).tolist(),
                        self.phase,
                        np.asarray(self.delta_v, dtype=float).tolist(),
                        np.asarray(self.n_detec, dtype=np.int64).tolist()))


def hall_voltage(n_detec, cal: DeviceCalibration, noise: bool = False,
                 rng: np.random.Generator | None = None,
                 sigma_meas: float = DEFAULT_SIGMA_MEAS_NV):
    """Hall voltage step (nV) for ``n_detec`` skyrmions in the zone: a float
    for one count, an array for an ndarray of counts.

    Noise-free mode is exactly linear.  Noisy mode adds the per-skyrmion
    dispersion (7 nV each, summed in quadrature) and the post-averaging
    measurement noise, as one Gaussian draw per count, in order.
    """
    array = isinstance(n_detec, np.ndarray)
    if (n_detec.min(initial=0) if array else n_detec) < 0:
        raise ValueError("n_detec must be >= 0")
    volts = n_detec * cal.per_skyrmion_voltage_mean
    if noise:
        if rng is None:
            raise ValueError("noisy mode needs an explicit rng")
        var = n_detec * cal.per_skyrmion_voltage_std**2 + sigma_meas**2
        volts = volts + rng.normal(0.0, np.sqrt(var) if array
                                   else math.sqrt(var))
    return volts if array else float(volts)


@dataclass(frozen=True)
class SequencedTrack:
    """One track as the phase sequencer drives it.

    ``pulse`` is the template of the forward pulse applied per pulsing
    sample (its count is not read) and ``rng`` supplies the nucleation
    draws.
    """

    zone: DetectionZone
    notch: tuple[float, float]
    weight: float
    pulse: PulseTrain
    stochastic: StochasticModel
    rng: np.random.Generator


def run_phases(plan, tracks: list[SequencedTrack], cal: DeviceCalibration,
               meas_rng: np.random.Generator | None = None,
               noise: bool = False,
               sigma_meas: float = DEFAULT_SIGMA_MEAS_NV,
               drift_rate: float = 0.0) -> MeasurementTrace:
    """Run a plan of (phase, samples, track) steps and record the summed
    Hall trace of all tracks.

    A 'pulsing' step pulses ``tracks[track]`` once (nucleation, transport,
    crowding) before each of its samples; a 'reset' step erases every track
    before its samples; other steps only sample.  Measurement noise is
    drawn from ``meas_rng``.  ``drift_rate`` injects a linear instrumental
    drift (nV per sample index) so the drift correction can be exercised.

    Each track is held as skyrmion counts per birth pulse (its cohorts):
    the cohort born a pulses ago is in the zone iff the notch
    ``trajectory`` is after a pulses.  Crowding parks the youngest in-zone
    skyrmions past the zone, never to return, so they leave their cohort.
    The births of all of a track's pulses are drawn from its ``rng``
    before the first sample, one track after another, as one-pulse totals.

    Before any draw, a plan with an unknown phase, a negative sample count
    or a pulsing step whose track is not in ``tracks`` raises
    ``ProtocolError``, and a zone outside its track raises ``ValueError``.
    """
    for phase, samples, t in plan:
        if phase not in PHASES:
            raise ProtocolError(f"unknown phase {phase!r}")
        if samples < 0:
            raise ProtocolError(f"phase {phase!r} has negative count")
        if phase == "pulsing" and t not in range(len(tracks)):
            raise ProtocolError(f"pulsing step on no track: {t!r}")
    if not all(zone_within_track(track.zone, cal) for track in tracks):
        raise ValueError("detection zone must lie within the track")
    inside, births, cohorts = [], [], []
    for t, track in enumerate(tracks):
        n = sum(s for phase, s, u in plan if phase == "pulsing" and u == t)
        x, y, alive = trajectory([track.notch], track.pulse, cal, n)
        inside.append(alive[:, 0] & track.zone.contains(x[:, 0], y[:, 0]))
        # Kept apart from the cohorts, which a reset zeroes.
        births.append(sample_pulse_sums(track.weight, track.stochastic,
                                        track.rng, 1, n) if n
                      else np.zeros(0, dtype=np.int64))
        cohorts.append(np.zeros(n, dtype=np.int64))
    pulses = [0] * len(tracks)
    # In-zone counts change only when a track is pulsed or reset.
    in_zone = [0] * len(tracks)
    idx, phases, volts, counts = [], [], [], []
    i = 0
    for phase, samples, t in plan:
        if phase == "reset":
            for born in cohorts:
                born[:] = 0
            in_zone = [0] * len(tracks)
        pulsed = tracks[t] if phase == "pulsing" else None
        for _ in range(samples):
            if pulsed is not None:
                k = pulses[t]
                pulses[t] += 1
                born = cohorts[t]
                born[k] = births[t][k]
                # held[j]: skyrmions born on pulse j, now k - j pulses old,
                # that sit in the zone.
                held = born[:k + 1] * inside[t][k::-1]
                in_zone[t] = int(held.sum())
                excess = in_zone[t] - pulsed.zone.capacity
                if excess > 0:
                    younger = np.cumsum(held[::-1])[::-1] - held
                    born[:k + 1] -= np.clip(excess - younger, 0, held)
                    in_zone[t] = pulsed.zone.capacity
            i += 1
            n = sum(in_zone)
            v = hall_voltage(n, cal, noise=noise, rng=meas_rng,
                             sigma_meas=sigma_meas)
            idx.append(i)
            phases.append(phase)
            volts.append(v + drift_rate * i)
            counts.append(n)

    return MeasurementTrace(
        index=np.asarray(idx, dtype=np.int64),
        phase=tuple(phases),
        delta_v=np.asarray(volts, dtype=float),
        n_detec=np.asarray(counts, dtype=np.int64),
    )


def drift_correct(trace: MeasurementTrace) -> MeasurementTrace:
    """Remove the linear-in-index voltage drift.

    The drift line is fitted on baseline and post samples only (both taken
    at magnetic saturation, so their true level is zero) and subtracted from
    the whole trace.  Idempotent.
    """
    sel = trace.mask("baseline", "post")
    if int(sel.sum()) < 2:
        raise InsufficientData(
            "drift correction needs >= 2 baseline/post samples")
    x = np.asarray(trace.index, dtype=float)[sel]
    y = np.asarray(trace.delta_v, dtype=float)[sel]
    slope, intercept = np.polyfit(x, y, 1)
    corrected = trace.delta_v - (slope * np.asarray(trace.index, dtype=float)
                                 + intercept)
    return replace(trace, delta_v=corrected)


@dataclass(frozen=True)
class MtjConfig:
    """Magnetic tunnel junction used as a saturating skyrmion counter.

    r_parallel     Ohm, resistance of the fully parallel state
    tmr            tunnel magnetoresistance ratio, R_AP = R_P (1 + tmr)
    junction_area  um^2
    read_current   uA
    """

    r_parallel: float = 1000.0
    tmr: float = 1.0
    junction_area: float = 1.0
    read_current: float = 10.0

    def __post_init__(self):
        if self.r_parallel <= 0:
            raise ValueError("r_parallel must be positive")
        if self.tmr < 0:
            raise ValueError("tmr must be >= 0")
        if self.junction_area <= 0:
            raise ValueError("junction_area must be positive")
        if self.read_current <= 0:
            raise ValueError("read_current must be positive")


def mtj_coverage(n_detec, mtj: MtjConfig, cal: DeviceCalibration):
    """Fraction of the junction area covered by reversed (skyrmion) domains:
    a float for one count, an array for an ndarray of counts."""
    array = isinstance(n_detec, np.ndarray)
    if (n_detec.min(initial=0) if array else n_detec) < 0:
        raise ValueError("n_detec must be >= 0")
    x = np.minimum(n_detec * cal.skyrmion_area_um2 / mtj.junction_area, 1.0)
    return x if array else float(x)


def mtj_voltage_from_coverage(x, mtj: MtjConfig):
    """Junction voltage (mV) at coverage fraction ``x``: a float for one
    fraction, an array for an ndarray of them.

    Two-channel conduction G(x) = (1-x)/R_P + x/(R_P (1+tmr)); the output
    rises from I R_P at x = 0 to I R_P (1+tmr) at full coverage, strictly
    increasing and convex for tmr > 0.
    """
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("coverage must lie in [0, 1]")
    # (1-x)(1+tmr) + x is the conductance denominator; written this way the
    # x = 1 endpoint evaluates to exactly 1.
    den = (1.0 - x) * (1.0 + mtj.tmr) + x
    volts = mtj.read_current * mtj.r_parallel * (1.0 + mtj.tmr) * 1e-3 / den
    return volts if isinstance(x, np.ndarray) else float(volts)


def mtj_activation(n_detec, mtj: MtjConfig, cal: DeviceCalibration):
    """MTJ output voltage (mV) for ``n_detec`` skyrmions under the junction:
    a float for one count, an array for an ndarray of counts, with the
    same bytes as one call per count."""
    return mtj_voltage_from_coverage(mtj_coverage(n_detec, mtj, cal), mtj)


def full_reversal_voltage(cal: DeviceCalibration, zone: DetectionZone) -> float:
    """Hall-voltage shift (nV) for full magnetisation reversal of the zone.

    Forward model: one skyrmion of area a contributes a fraction a/A_zone of
    the full reversal, so dV_full = dV_sk * A_zone / a.
    """
    return (cal.per_skyrmion_voltage_mean * zone.area_um2
            / cal.skyrmion_area_um2)


def estimate_diameter(delta_v_per_sk: float, delta_v_full_reversal: float,
                      zone: DetectionZone) -> float:
    """Skyrmion diameter (nm) from the per-skyrmion / full-reversal voltage
    ratio, assuming circular fully reversed domains.

    d = sqrt(4 A_zone (dV_sk / dV_full) / pi).
    """
    if delta_v_per_sk <= 0 or delta_v_full_reversal <= 0:
        raise ValueError("voltages must be positive")
    ratio = delta_v_per_sk / delta_v_full_reversal
    if ratio >= 1.0:
        raise InvalidRatio(
            "per-skyrmion voltage must be below the full-reversal voltage")
    d_um = math.sqrt(4.0 * zone.area_um2 * ratio / math.pi)
    return d_um * 1e3

"""Crossbar composition: M input tracks, L detection columns, one output
voltage per column.

Each track i crosses column j at a nucleation site with weight ``w_ij``
(skyrmions per pulse) feeding a detection zone at that crossing.  The
column output is the readout of the summed in-zone count,
``f(sum_i n_ij)``: linear Hall summation or a saturating MTJ activation.
The parallel read circuit uses large series resistors so every track sees
the same dc read current.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import (
    FORWARD,
    DeviceCalibration,
    PulseTrain,
)
from .errors import ProtocolError
from .nucleation import StochasticModel, monte_carlo_sigma, sample_pulse_sums
from .readout import (
    DEFAULT_SIGMA_MEAS_NV,
    MeasurementTrace,
    MtjConfig,
    SequencedTrack,
    hall_voltage,
    mtj_activation,
    run_phases,
)
from .rng import stream
from .transport import (
    CAPACITY_DISPLACEMENT_UM,
    DetectionZone,
    default_capacity,
    trajectory,
    zone_within_track,
)

LINEAR_AHE = "linear_ahe"
MTJ = "mtj"

#: Minimum series-to-track resistance ratio for the uniform-current budget.
MIN_SERIES_RATIO = 50.0


@dataclass(frozen=True)
class CrossbarConfig:
    """Geometry, weights and read circuit of an M x L crossbar.

    weights            (M, L) skyrmions/pulse, non-negative
    zones              nested (M, L) grid of DetectionZone, one per crossing
    track_resistances  Ohm per track
    series_resistance  Ohm, calibrated resistor at each end of each track
    readout_mode       'linear_ahe' or 'mtj'
    """

    weights: np.ndarray
    zones: tuple
    track_resistances: tuple
    series_resistance: float = 12000.0
    readout_mode: str = LINEAR_AHE
    mtj: MtjConfig | None = None
    enforce_capacity: bool = True

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.weights, dtype=float))
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "weights", w)
        m, l = w.shape
        zones = tuple(tuple(row) for row in self.zones)
        if len(zones) != m or any(len(row) != l for row in zones):
            raise ValueError("zones grid must match the weight matrix shape")
        object.__setattr__(self, "zones", zones)
        res = tuple(float(r) for r in self.track_resistances)
        if len(res) != m:
            raise ValueError("one track resistance per track required")
        if any(r <= 0 for r in res):
            raise ValueError("track resistances must be positive")
        if self.series_resistance < MIN_SERIES_RATIO * max(res):
            raise ValueError(
                f"series_resistance must be >= {MIN_SERIES_RATIO} x the "
                "largest track resistance")
        object.__setattr__(self, "track_resistances", res)
        if self.readout_mode not in (LINEAR_AHE, MTJ):
            raise ValueError("readout_mode must be 'linear_ahe' or 'mtj'")
        if self.readout_mode == MTJ and self.mtj is None:
            raise ValueError("mtj readout requires an MtjConfig")

    @property
    def m_tracks(self) -> int:
        return self.weights.shape[0]

    @property
    def l_columns(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class InputVector:
    """One pulse train per track; the pulse count encodes the input value."""

    pulses_per_track: tuple

    def __post_init__(self):
        pulses = tuple(self.pulses_per_track)
        for p in pulses:
            if not isinstance(p, PulseTrain):
                raise ValueError("inputs must be PulseTrain instances")
            if p.polarity != FORWARD:
                raise ValueError("input pulses must be forward polarity")
        object.__setattr__(self, "pulses_per_track", pulses)

    def __len__(self) -> int:
        return len(self.pulses_per_track)


def build_crossbar(cal: DeviceCalibration, weights, *,
                   track_resistances=None, series_resistance: float = 12000.0,
                   readout_mode: str = LINEAR_AHE, mtj: MtjConfig | None = None,
                   zone_start_x: float = 5.0, zone_pitch: float = 10.0,
                   zone_side: float = 6.0, capacity: int | None = None,
                   enforce_capacity: bool = True) -> CrossbarConfig:
    """Lay out a crossbar with evenly pitched detection zones.

    Column j's zone starts at ``zone_start_x + j * zone_pitch`` (its left
    edge doubles as the nucleation site) and is centred on the track.
    Every track has the same row, so one row of frozen zones is laid out
    and shared.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    m, l = w.shape
    if capacity is None:
        capacity = default_capacity(zone_side, cal.skyrmion_diameter)
    row = []
    for j in range(l):
        zone = DetectionZone(
            center_x=zone_start_x + j * zone_pitch + zone_side / 2.0,
            center_y=cal.track_width / 2.0,
            side=zone_side,
            capacity=capacity,
        )
        if not zone_within_track(zone, cal):
            raise ValueError(f"zone for column {j} falls outside the track")
        row.append(zone)
    if track_resistances is None:
        track_resistances = (130.0, 120.0) if m == 2 else (125.0,) * m
    return CrossbarConfig(
        weights=w,
        zones=(tuple(row),) * m,
        track_resistances=track_resistances,
        series_resistance=series_resistance,
        readout_mode=readout_mode,
        mtj=mtj,
        enforce_capacity=enforce_capacity,
    )


def _pulse_counts(config: CrossbarConfig,
                  input_vector: InputVector) -> np.ndarray:
    """Pulses per track, refusing an input of the wrong length."""
    if len(input_vector) != config.m_tracks:
        raise ValueError(
            f"input length {len(input_vector)} does not match "
            f"{config.m_tracks} tracks")
    return np.array([p.count for p in input_vector.pulses_per_track],
                    dtype=np.int64)


def expected_sums(config: CrossbarConfig, input_vector: InputVector) -> np.ndarray:
    """Deterministic expectation per column: sum_i w_ij N_pulse_i."""
    return _pulse_counts(config, input_vector) @ config.weights


def _draw_columns(config: CrossbarConfig, track: int, windows: np.ndarray,
                  stochastic: StochasticModel, rng: np.random.Generator,
                  size: int) -> np.ndarray:
    """(size, L) in-zone counts of one track from its windows.

    ``windows[s, j]`` pulses of site s leave their skyrmion in zone j, so
    each window adds an exact sum of that many pulses at weight ``w_s`` to
    column j.  A window of zero pulses or zero weight draws nothing.  Each
    crossing is clamped at its zone's capacity when the config enforces it.
    """
    weights = config.weights[track]
    counts = np.zeros((size, config.l_columns), dtype=np.int64)
    for s, j in zip(*np.nonzero(windows)):
        if weights[s]:
            counts[:, j] += sample_pulse_sums(weights[s], stochastic, rng,
                                              windows[s, j], size)
    if config.enforce_capacity:
        np.minimum(counts, [z.capacity for z in config.zones[track]],
                   out=counts)
    return counts


def simulate_track_counts(config: CrossbarConfig, cal: DeviceCalibration,
                          track: int, pulse: PulseTrain,
                          stochastic: StochasticModel,
                          rng: np.random.Generator) -> np.ndarray:
    """In-zone counts per column after running one track's pulse train.

    Every pulse moves every skyrmion by the same step, so the skyrmion born
    at site s on the k-th of N pulses ends where its site's ``trajectory``
    is after N-1-k pulses.  Counting those ages per zone gives the windows
    that ``_draw_columns`` samples.  A skyrmion crowded out of a full zone
    is parked ``CAPACITY_DISPLACEMENT_UM`` past it, so the zones must be
    further apart than that for the clamp to be exact.
    """
    zones_row = config.zones[track]
    edges = sorted(zone.bounds[:2] for zone in zones_row)
    if any(b[0] - a[1] <= CAPACITY_DISPLACEMENT_UM
           for a, b in zip(edges, edges[1:])):
        raise ValueError(f"zones of track {track} overlap or lie within "
                         f"{CAPACITY_DISPLACEMENT_UM} um of each other")
    sites = np.column_stack([[zone.bounds[0] for zone in zones_row],
                             np.full(len(zones_row), cal.notch_y)])
    x, y, alive = trajectory(sites, pulse, cal, pulse.count)
    windows = np.column_stack([(alive & zone.contains(x, y)).sum(axis=0)
                               for zone in zones_row])
    return _draw_columns(config, track, windows, stochastic, rng, 1)[0]


@dataclass(frozen=True)
class WeightedSumResult:
    """Outcome of one stochastic weighted-sum evaluation.

    output is in nV for linear readout, mV for MTJ readout.
    """

    n_detec: np.ndarray       # (L,) summed in-zone counts
    output: np.ndarray        # (L,) column readout
    per_track: np.ndarray     # (M, L) in-zone counts per crossing
    expected: np.ndarray      # (L,) deterministic expectation
    seed: int


def run_weighted_sum(config: CrossbarConfig, input_vector: InputVector,
                     stochastic: StochasticModel, cal: DeviceCalibration,
                     seed: int = 0, noise: bool = False,
                     sigma_meas: float = DEFAULT_SIGMA_MEAS_NV) -> WeightedSumResult:
    """Evaluate the weighted sum once: nucleate, transport, count, read out.

    Each track draws from its own derived stream, so a track's counts do
    not depend on which other tracks are present (linear-mode outputs are
    therefore exactly additive across tracks when noise is off).  Each
    column is read once, from its summed count.
    """
    expected = expected_sums(config, input_vector)
    m, l = config.m_tracks, config.l_columns
    per_track = np.zeros((m, l), dtype=np.int64)
    for i in range(m):
        rng = stream(seed, "track", i)
        per_track[i] = simulate_track_counts(
            config, cal, i, input_vector.pulses_per_track[i], stochastic, rng)
    n_detec = per_track.sum(axis=0)

    output = np.empty(l, dtype=float)
    if config.readout_mode == LINEAR_AHE:
        meas_rng = stream(seed, "readout") if noise else None
        for j in range(l):
            output[j] = hall_voltage(int(n_detec[j]), cal, noise=noise,
                                     rng=meas_rng, sigma_meas=sigma_meas)
    else:
        for j in range(l):
            output[j] = mtj_activation(int(n_detec[j]), config.mtj, cal)
    return WeightedSumResult(n_detec=n_detec, output=output,
                             per_track=per_track, expected=expected,
                             seed=seed)


def monte_carlo_column_counts(config: CrossbarConfig, input_vector: InputVector,
                              stochastic: StochasticModel, trials: int,
                              seed: int) -> np.ndarray:
    """(trials, L) matrix of summed column counts under ideal transport:
    every nucleated skyrmion reaches its own zone and stays there.

    This is the transport-free counterpart of ``run_weighted_sum``: the
    same sampler on the same per-track streams, with the ideal windows
    (all N pulses of site j land in zone j).  Capacity is applied per
    crossing when the config enforces it; zone geometry is not read.
    """
    pulses = _pulse_counts(config, input_vector)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ideal = np.eye(config.l_columns, dtype=np.int64)
    totals = np.zeros((trials, config.l_columns), dtype=np.int64)
    for i, n in enumerate(pulses):
        totals += _draw_columns(config, i, n * ideal, stochastic,
                                stream(seed, "track", i), trials)
    return totals


def current_uniformity(track_resistances, series_resistance: float) -> float:
    """Largest relative deviation of the per-track read currents.

    Each track sees I_k proportional to 1 / (R_k + 2 R_series); the value
    returned is max |I_k / mean(I) - 1|.
    """
    r = np.asarray(track_resistances, dtype=float)
    currents = 1.0 / (r + 2.0 * series_resistance)
    return float(np.max(np.abs(currents / currents.mean() - 1.0)))


def check_current_uniformity(config: CrossbarConfig) -> float:
    return current_uniformity(config.track_resistances,
                              config.series_resistance)


def run_fig4_protocol(config: CrossbarConfig, per_track_pulse_specs,
                      cal: DeviceCalibration, stochastic: StochasticModel,
                      seed: int = 0, noise: bool = False,
                      sigma_meas: float = DEFAULT_SIGMA_MEAS_NV,
                      baseline: int = 20, hold: int = 20,
                      post: int = 10) -> MeasurementTrace:
    """Two-track demonstration sequence.

    Phases: ``baseline`` samples, track-1 pulsing (one sample per pulse), a
    ``hold`` stability block, track-2 pulsing, a second hold block, field
    reset, ``post`` samples.  The voltage is the summed Hall signal of both
    tracks throughout.
    """
    if config.m_tracks != 2:
        raise ProtocolError("the two-track protocol needs exactly 2 tracks")
    if config.l_columns != 1:
        raise ProtocolError("the two-track protocol reads a single column")
    specs = list(per_track_pulse_specs)
    if len(specs) != 2:
        raise ProtocolError("need one pulse spec per track")

    tracks = [
        SequencedTrack(
            zone=config.zones[t][0],
            notch=(config.zones[t][0].bounds[0], cal.notch_y),
            weight=config.weights[t, 0],
            pulse=specs[t],
            stochastic=stochastic,
            rng=stream(seed, "track", t),
            enforce_capacity=config.enforce_capacity)
        for t in range(2)
    ]
    plan = (("baseline", baseline, None), ("pulsing", specs[0].count, 0),
            ("hold", hold, None), ("pulsing", specs[1].count, 1),
            ("hold", hold, None), ("reset", 1, None), ("post", post, None))
    return run_phases(plan, tracks, cal, meas_rng=stream(seed, "meas"),
                      noise=noise, sigma_meas=sigma_meas)


def monte_carlo_sum_relative_std(m: int, n_pulse: int,
                                 model: StochasticModel, trials: int,
                                 seed: int, w: float = 1.0,
                                 path: tuple = ()) -> float:
    """Relative std of an M-synapse sum over seeded Monte Carlo trials.

    Every synapse receives ``n_pulse`` pulses at weight ``w``; the sum of
    all counts is normalised by M * N * w, its expectation for w >= 1.
    The M * N pulses are independent and alike, so each trial's sum is
    one (M * N)-pulse total drawn by ``monte_carlo_sigma``.  For w = 1
    this converges to sqrt(p_bar / N) / sqrt(M).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n_pulse < 1:
        raise ValueError("n_pulse must be >= 1")
    if not w > 0:
        raise ValueError("w must be > 0")
    return monte_carlo_sigma(model, m * n_pulse, trials, seed, w,
                             ("sum", *path)) / w

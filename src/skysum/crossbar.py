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

import functools
from dataclasses import dataclass

import numpy as np

from .device import (
    FORWARD,
    DeviceCalibration,
    PulseTrain,
)
from .errors import ProtocolError
from .nucleation import (
    MC_BLOCK,
    TABLE,
    StochasticModel,
    _block_edges,
    _kernel,
    _lookup,
    _sum_cdf,
    monte_carlo_sigma,
    pulse_distribution,
    pulse_totals,
    sample_pulse_sums,
)
from .readout import (
    DEFAULT_SIGMA_MEAS_NV,
    MeasurementTrace,
    MtjConfig,
    SequencedTrack,
    hall_voltage,
    mtj_activation,
    run_phases,
)
from .rng import stream, stream_uniforms, streams
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

    weights            (M, L) skyrmions/pulse, finite and non-negative
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
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("weights must be finite and non-negative")
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
    """(L, size) in-zone counts of one track from its windows, one row per
    column.

    ``windows[s, j]`` pulses of site s leave their skyrmion in zone j, so
    each window adds an exact sum of that many pulses at weight ``w_s`` to
    column j.  A window of zero pulses or zero weight draws nothing; the
    others are drawn by one ``sample_pulse_sums`` call in (s, j) order.
    Each crossing is clamped at its zone's capacity when the config
    enforces it.
    """
    weights = config.weights[track]
    s, j = np.nonzero(windows * (weights > 0)[:, None])
    sums = sample_pulse_sums(weights[s], stochastic, rng, windows[s, j],
                             size).T
    counts = np.zeros((config.l_columns, size), dtype=np.int64)
    # The windows on one diagonal (one j - s) lie in distinct columns, so
    # each diagonal is one fancy-index add.
    diagonal = j - s
    for d in set(diagonal.tolist()):
        on = diagonal == d
        counts[j[on]] += sums[on]
    if config.enforce_capacity:
        np.minimum(counts, [[z.capacity] for z in config.zones[track]],
                   out=counts)
    return counts


@functools.lru_cache(maxsize=256)
def _windows(zones_row: tuple, pulse: PulseTrain,
             cal: DeviceCalibration) -> np.ndarray | None:
    """Read-only (L, L) windows of a zone row under a pulse train: entry
    [s, j] counts the pulses whose skyrmion, born at site s, is in zone j
    when the train ends.

    Every pulse moves every skyrmion by the same step, so the skyrmion born
    at site s on the k-th of N pulses ends where its site's ``trajectory``
    is after N-1-k pulses.  A skyrmion crowded out of a full zone is parked
    ``CAPACITY_DISPLACEMENT_UM`` past it, so the zones must be further
    apart than that for the capacity clamp to be exact; a row whose zones
    are not gives None.
    """
    edges = sorted(zone.bounds[:2] for zone in zones_row)
    if any(b[0] - a[1] <= CAPACITY_DISPLACEMENT_UM
           for a, b in zip(edges, edges[1:])):
        return None
    sites = np.column_stack([[zone.bounds[0] for zone in zones_row],
                             np.full(len(zones_row), cal.notch_y)])
    x, y, alive = trajectory(sites, pulse, cal, pulse.count)
    windows = np.column_stack([(alive & zone.contains(x, y)).sum(axis=0)
                               for zone in zones_row]).astype(np.int64)
    windows.flags.writeable = False
    return windows


def _track_windows(config: CrossbarConfig, cal: DeviceCalibration,
                   track: int, pulse: PulseTrain) -> np.ndarray:
    """``_windows`` of a track, refusing a row whose zones are too close
    for the capacity clamp."""
    windows = _windows(config.zones[track], pulse, cal)
    if windows is None:
        raise ValueError(f"zones of track {track} overlap or lie within "
                         f"{CAPACITY_DISPLACEMENT_UM} um of each other")
    return windows


def simulate_track_counts(config: CrossbarConfig, cal: DeviceCalibration,
                          track: int, pulse: PulseTrain,
                          stochastic: StochasticModel,
                          rng: np.random.Generator) -> np.ndarray:
    """In-zone counts per column after running one track's pulse train.

    The track's windows come from ``_windows``, computed once per zone row
    and pulse train, and ``_draw_columns`` samples them.  A row whose zones
    are too close for the capacity clamp is refused before anything is
    drawn.
    """
    windows = _track_windows(config, cal, track, pulse)
    return _draw_columns(config, track, windows, stochastic, rng, 1)[:, 0]


def _kinematic_counts(config: CrossbarConfig, input_vector: InputVector,
                      stochastic: StochasticModel, cal: DeviceCalibration,
                      seed: int) -> np.ndarray:
    """(M, L) in-zone counts of one kinematic evaluation, bit for bit what
    ``simulate_track_counts`` draws track by track on the
    ``(seed, "track", i)`` streams.

    A track's sampler call draws one total per window of non-zero pulses
    and weight, and when no window holds more than MC_BLOCK pulses every
    one takes the per-pulse kernel: one uniform per pulse, all in one
    ``random`` call.  So each track draws just those uniforms from its own
    stream (one ``stream_uniforms`` call keys a block's streams), one
    ``pulse_totals`` call turns the uniforms of a block of tracks (all of
    them, unless they hold more than PULSE_BLOCK pulses) into window
    totals, and one ``bincount`` adds them up by crossing.  A
    track of more than MC_BLOCK pulses, whose windows may exceed the cap,
    is drawn by ``simulate_track_counts``.  The windows are looked up once
    per distinct zone row object and pulse train value of the evaluation,
    so equal trains share a lookup even when they are distinct objects.
    """
    m, l = config.m_tracks, config.l_columns
    pulses = input_vector.pulses_per_track
    looked_up, long_tracks = {}, []
    windows = np.zeros((m, l, l), dtype=np.int32)
    for i, pulse in enumerate(pulses):
        key = id(config.zones[i]), pulse
        track_windows = looked_up.get(key)
        if track_windows is None:
            track_windows = looked_up[key] = _track_windows(config, cal, i,
                                                            pulse)
        if pulse.count > MC_BLOCK:
            long_tracks.append(i)
        else:
            windows[i] = track_windows
    windows *= config.weights[:, :, None] > 0
    sizes = windows.sum(axis=(1, 2))
    counts = np.zeros(m * l)
    edges = _block_edges(sizes)
    for a, b in zip(edges, edges[1:]):
        track, site, column = np.nonzero(windows[a:b])
        track += a
        n_pulses = windows[track, site, column]
        u = stream_uniforms(seed, ("track",), a, sizes[a:b].tolist(),
                            np.empty(sizes[a:b].sum()))
        counts += np.bincount(track * l + column, minlength=m * l,
                              weights=pulse_totals(config.weights[track, site],
                                                   stochastic, n_pulses, u))
    counts = counts.astype(np.int64).reshape(m, l)
    for i in long_tracks:
        counts[i] = simulate_track_counts(config, cal, i, pulses[i],
                                          stochastic, stream(seed, "track", i))
    if config.enforce_capacity:
        np.minimum(counts, [[z.capacity for z in row] for row in config.zones],
                   out=counts)
    return counts


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
    therefore exactly additive across tracks when noise is off), and they
    equal what ``simulate_track_counts`` draws for the track alone.  The
    tracks only supply per-pulse uniforms: one ``pulse_totals`` call per
    block of PULSE_BLOCK pulses turns those of every window of its tracks
    into counts, which are added up by crossing and clamped at capacity
    (see ``_kinematic_counts``).  The columns are read at once, from their
    summed counts.
    """
    expected = expected_sums(config, input_vector)
    per_track = _kinematic_counts(config, input_vector, stochastic, cal, seed)
    n_detec = per_track.sum(axis=0)
    if config.readout_mode == LINEAR_AHE:
        output = hall_voltage(n_detec, cal, noise=noise,
                              rng=stream(seed, "readout") if noise else None,
                              sigma_meas=sigma_meas)
    else:
        output = mtj_activation(n_detec, config.mtj, cal)
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

    A track whose crossings of non-zero weight all take the table kernel
    (``_kernel``, from the arguments alone) draws what ``_draw_columns``
    would: one uniform per trial and crossing, crossing after crossing.
    It draws them a chunk of crossings of about MC_BLOCK uniforms at a
    time, and one ``_lookup`` call turns each chunk into counts that are
    clamped and added to their columns in place.  Any other track is drawn
    by ``_draw_columns``.  The track streams come from one key pass.
    """
    pulses = _pulse_counts(config, input_vector)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    weights, p_bar = config.weights, float(stochastic.p_bar)
    # _kernel reads the (M, L, 4) outcomes transposed, tracks last, so the
    # pulse counts broadcast along them.
    outcomes, _ = pulse_distribution(weights, stochastic)
    table = _kernel(outcomes, pulses, trials).T == TABLE
    ideal = np.eye(config.l_columns, dtype=np.int64)
    totals = np.zeros((config.l_columns, trials), dtype=np.int64)
    rows = max(1, MC_BLOCK // trials)
    buffer = np.empty(rows * trials)
    for i, rng in enumerate(streams(seed, ("track",), 0, config.m_tracks)):
        n = int(pulses[i])
        cols = np.flatnonzero(weights[i] > 0) if n else np.empty(0, int)
        if not table[i, cols].all():
            totals += _draw_columns(config, i, n * ideal, stochastic, rng,
                                    trials)
            continue
        for a in range(0, cols.size, rows):
            chunk = cols[a:a + rows]
            u = buffer[:chunk.size * trials].reshape(chunk.size, trials)
            rng.random(out=u)
            counts = _lookup([_sum_cdf(w, p_bar, n)
                              for w in weights[i, chunk].tolist()], u)
            for j, row in zip(chunk.tolist(), counts):
                if config.enforce_capacity:
                    np.minimum(row, config.zones[i][j].capacity, out=row)
                totals[j] += row
    return np.ascontiguousarray(totals.T)


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

"""Crossbar composition: M input tracks, L detection columns, one output
voltage per column.

Each track i crosses column j at a nucleation site with weight ``w_ij``
(skyrmions per pulse) feeding a detection zone at that crossing.  The
column count is the summed in-zone count ``sum_i n_ij`` and the column
output is its Hall voltage.  Any other transfer function of the count,
such as ``readout.mtj_activation``, is applied to ``n_detec``.
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
    StochasticModel,
    monte_carlo_sigma,
    sample_stream_sums,
)
from .readout import (
    DEFAULT_SIGMA_MEAS_NV,
    MeasurementTrace,
    SequencedTrack,
    hall_voltage,
    run_phases,
)
from .rng import stream, streams
from .transport import (
    CAPACITY_DISPLACEMENT_UM,
    DetectionZone,
    default_capacity,
    trajectory,
    zone_within_track,
)

#: Minimum series-to-track resistance ratio for the uniform-current budget.
MIN_SERIES_RATIO = 50.0


@dataclass(frozen=True)
class CrossbarConfig:
    """Geometry, weights and read circuit of an M x L crossbar.

    weights            (M, L) skyrmions/pulse, finite and non-negative
    zones              nested (M, L) grid of DetectionZone, one per crossing
    track_resistances  Ohm per track
    series_resistance  Ohm, calibrated resistor at each end of each track
    """

    weights: np.ndarray
    zones: tuple
    track_resistances: tuple
    series_resistance: float = 12000.0

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
                   zone_start_x: float = 5.0, zone_pitch: float = 10.0,
                   capacity: int | None = None) -> CrossbarConfig:
    """Lay out a crossbar with evenly pitched detection zones.

    Column j's zone starts at ``zone_start_x + j * zone_pitch`` (its left
    edge doubles as the nucleation site), is centred on the track and has
    ``DetectionZone``'s default side.
    Every track has the same row, so one row of frozen zones is laid out
    and shared.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    m, l = w.shape
    side = DetectionZone.side
    if capacity is None:
        capacity = default_capacity(side, cal.skyrmion_diameter)
    row = []
    for j in range(l):
        zone = DetectionZone(
            center_x=zone_start_x + j * zone_pitch + side / 2.0,
            center_y=cal.track_width / 2.0,
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


def _capacities(config: CrossbarConfig) -> np.ndarray:
    """(M, L) zone capacities, read once per distinct zone row object."""
    rows = dict(zip(map(id, config.zones), config.zones))
    index = dict(zip(rows, range(len(rows))))
    return np.array([[zone.capacity for zone in row] for row in rows.values()],
                    dtype=np.int64).take(
        list(map(index.__getitem__, map(id, config.zones))), axis=0)


def expected_sums(config: CrossbarConfig, input_vector: InputVector) -> np.ndarray:
    """Deterministic expectation per column: sum_i w_ij N_pulse_i."""
    return _pulse_counts(config, input_vector) @ config.weights


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


def _kinematic_counts(config: CrossbarConfig, input_vector: InputVector,
                      stochastic: StochasticModel, cal: DeviceCalibration,
                      seed: int) -> np.ndarray:
    """(M, L) in-zone counts of one kinematic evaluation.

    Each window of non-zero pulses and weight is one (track, site, column,
    pulses) entry, and ``sample_stream_sums`` draws track i's entries in
    (s, j) order from the ``(seed, "track", i)`` stream: one exact sum of
    that many pulses at weight ``w_is``.  The entries are found by flat
    index on an (M, cells) grid, over only the (s, j) cells that some
    track's windows fill.  One ``bincount`` per block adds the totals up
    by crossing, and one clamp applies every capacity.  The windows and
    capacities are looked up, all before anything is drawn, once per
    distinct zone row object and pulse train value, so equal trains share
    a lookup even when they are distinct objects.
    """
    m, l = config.m_tracks, config.l_columns
    trains = input_vector.pulses_per_track
    keys = list(zip(map(id, config.zones), map(id, trains)))
    by_value, index, found, capacity = {}, {}, [], []
    for key, (row, pulse) in dict(zip(keys, zip(config.zones,
                                                trains))).items():
        index[key] = k = by_value.setdefault((key[0], pulse), len(found))
        if k == len(found):
            found.append(_windows(row, pulse, cal))
            if found[k] is None:
                raise ValueError(f"zones of track {keys.index(key)} overlap "
                                 f"or lie within {CAPACITY_DISPLACEMENT_UM} "
                                 "um of each other")
            capacity.append([zone.capacity for zone in row])
    which = np.array(list(map(index.__getitem__, keys)))
    windows = np.stack(found).reshape(len(found), l * l)
    cells = np.flatnonzero(windows.any(axis=0))
    site = cells // l
    pulses = windows.take(cells, axis=1).take(which, axis=0)
    weights = config.weights.take(site, axis=1)
    entry = np.flatnonzero((pulses > 0) & (weights > 0))
    # Divided once: numpy's integer ``%`` costs several times ``//``.
    track = entry // cells.size
    crossing = (cells - site * l).take(entry - track * cells.size)
    crossing += track * l
    counts = np.zeros(m * l)
    for entries, totals in sample_stream_sums(
            weights.take(entry), stochastic, pulses.take(entry), 1, track,
            streams(seed, ("track",), 0, m)):
        counts += np.bincount(crossing[entries], weights=totals[:, 0],
                              minlength=m * l)
    counts = counts.astype(np.int64).reshape(m, l)
    return np.minimum(counts, np.take(capacity, which, axis=0), out=counts)


@dataclass(frozen=True)
class WeightedSumResult:
    """Outcome of one stochastic weighted-sum evaluation."""

    n_detec: np.ndarray       # (L,) summed in-zone counts
    output: np.ndarray        # (L,) column Hall voltage (nV)
    per_track: np.ndarray     # (M, L) in-zone counts per crossing
    expected: np.ndarray      # (L,) deterministic expectation
    seed: int


def run_weighted_sum(config: CrossbarConfig, input_vector: InputVector,
                     stochastic: StochasticModel, cal: DeviceCalibration,
                     seed: int = 0, noise: bool = False,
                     sigma_meas: float = DEFAULT_SIGMA_MEAS_NV) -> WeightedSumResult:
    """Evaluate the weighted sum once: nucleate, transport, count, read out.

    Each track draws from its own derived stream, so a track's counts do
    not depend on which other tracks are present (outputs are therefore
    exactly additive across tracks when noise is off).  Every window of
    every track is one entry of a ``sample_stream_sums`` call, whose totals
    are added up by crossing and clamped at capacity (see
    ``_kinematic_counts``).  The columns are read at once, from their
    summed counts.
    """
    expected = expected_sums(config, input_vector)
    per_track = _kinematic_counts(config, input_vector, stochastic, cal, seed)
    n_detec = per_track.sum(axis=0)
    output = hall_voltage(n_detec, cal, noise=noise,
                          rng=stream(seed, "readout") if noise else None,
                          sigma_meas=sigma_meas)
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
    (all N pulses of site j land in zone j).  Each crossing of non-zero
    weight on a track with pulses is one entry, drawn by
    ``sample_stream_sums`` in column order from its track's stream.  Each
    entry's row of trials is clamped at its zone's capacity, the one
    crowding rule, and added to its column; zone geometry is not read.
    The clamp is skipped when it cannot bind: when no entry's largest
    total, ``(floor(w) + 2) * n`` for n pulses at weight w, exceeds its
    capacity, as at a capacity that no int64 count reaches.
    """
    pulses = _pulse_counts(config, input_vector)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    track, column = np.nonzero((config.weights > 0) & (pulses > 0)[:, None])
    weights, n = config.weights[track, column], pulses[track]
    capacity = _capacities(config)[track, column, None]
    clamp = not ((np.floor(weights) + 2) * n <= capacity[:, 0]).all()
    totals = np.zeros((config.l_columns, trials), dtype=np.int64)
    for entries, counts in sample_stream_sums(
            weights, stochastic, n, trials, track,
            streams(seed, ("track",), 0, config.m_tracks)):
        if clamp:
            np.minimum(counts, capacity[entries], out=counts)
        for j, row in zip(column[entries].tolist(), counts):
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
            rng=stream(seed, "track", t))
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

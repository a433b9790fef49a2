"""Exact pulse-sum laws, a chi-squared check against them, a
window-by-window reference for the crossbar's count draws, and the
particle reference for crowding, counting and the field reset."""

from dataclasses import replace

import numpy as np

from skysum import pulse_distribution, sample_pulse_sums, stream
from skysum.transport import (
    CAPACITY_DISPLACEMENT_UM,
    SkyrmionPopulation,
    trajectory,
)

#: Upper 1e-6 quantile of chi-squared with 7 degrees of freedom.  Outcomes
#: are merged into at most 8 bins and the quantile grows with the degrees
#: of freedom, so a correct sampler fails a check below with probability
#: at most 1e-6.
CHI2_CRIT = 40.52

#: A zone capacity that no count reaches: the clamp never binds.
UNBOUNDED = np.iinfo(np.int64).max


def sum_pmf(w, model, n_pulses):
    """Exact law of the total over n_pulses pulses: the n-fold
    convolution of the one-pulse law, indexed by count."""
    values, probs = pulse_distribution(w, model)
    one = np.bincount(values, weights=probs)
    pmf = np.ones(1)
    for _ in range(n_pulses):
        pmf = np.convolve(pmf, one)
    return pmf


def assert_follows(samples, pmf):
    """Samples never land where pmf is 0, and pass a chi-squared test with
    adjacent counts merged into bins of probability >= 1/8."""
    observed = np.bincount(samples)
    assert observed.size <= pmf.size
    observed = np.pad(observed, (0, pmf.size - observed.size))
    assert not observed[pmf == 0].any()
    bins_o, bins_p = [0], [0.0]
    for o, p in zip(observed, pmf):
        if bins_p[-1] >= 1 / 8:
            bins_o.append(0)
            bins_p.append(0.0)
        bins_o[-1] += o
        bins_p[-1] += p
    if len(bins_p) > 1 and bins_p[-1] < 1 / 8:
        o, p = bins_o.pop(), bins_p.pop()
        bins_o[-1] += o
        bins_p[-1] += p
    expected = samples.size * np.array(bins_p)
    chi2 = float(np.sum((np.array(bins_o) - expected) ** 2 / expected))
    assert chi2 < CHI2_CRIT


def trajectory_windows(zones, pulse, cal):
    """(L, L) windows of one zone row: entry [s, j] counts the pulses whose
    skyrmion, born at site s, is inside zone j after the train."""
    sites = [(zone.bounds[0], cal.notch_y) for zone in zones]
    x, y, alive = trajectory(sites, pulse, cal, pulse.count)
    return np.array([[np.sum(alive[:, s] & zone.contains(x[:, s], y[:, s]))
                      for zone in zones] for s in range(len(zones))])


def draw_windows(config, track, windows, model, rng, size):
    """(size, L) counts of one track, one scalar ``sample_pulse_sums`` call
    per window of non-zero pulses and weight in ``np.nonzero`` (s, j)
    order, clamped at each zone's capacity."""
    weights = config.weights[track]
    counts = np.zeros((size, config.l_columns), dtype=np.int64)
    for s, j in zip(*np.nonzero(windows)):
        if weights[s]:
            counts[:, j] += sample_pulse_sums(weights[s], model, rng,
                                              windows[s, j], size)
    return np.minimum(counts, [z.capacity for z in config.zones[track]])


def track_counts(config, cal, track, pulse, model, seed):
    """(L,) in-zone counts of one track of a kinematic weighted sum:
    ``draw_windows`` over the track's ``trajectory`` windows, from its
    (seed, "track", i) stream."""
    windows = trajectory_windows(config.zones[track], pulse, cal)
    return draw_windows(config, track, windows, model,
                        stream(seed, "track", track), 1)[0]


def window_weighted_sum(config, input_vector, model, cal, seed):
    """(M, L) ``per_track`` of a kinematic weighted sum, drawn track by
    track and window by window."""
    return np.array([track_counts(config, cal, i, pulse, model, seed)
                     for i, pulse in enumerate(input_vector.pulses_per_track)])


def window_column_counts(config, input_vector, model, trials, seed):
    """(trials, L) summed column counts under ideal transport, drawn window
    by window: all N pulses of site j land in zone j."""
    ideal = np.eye(config.l_columns, dtype=np.int64)
    return sum(draw_windows(config, i, pulse.count * ideal, model,
                            stream(seed, "track", i), trials)
               for i, pulse in enumerate(input_vector.pulses_per_track))


def field_reset(pop):
    """Saturating out-of-plane field: every skyrmion is erased."""
    return SkyrmionPopulation.empty()


def count_in_zone(pop, zone):
    """Live skyrmions whose centre lies inside the closed detection box."""
    if pop.ids.size == 0:
        return 0
    return int(np.count_nonzero(pop.alive & zone.contains(pop.x, pop.y)))


def apply_capacity(pop, zone):
    """Crowd out skyrmions beyond the zone capacity.

    The most recently arrived skyrmions (highest ids) are displaced just
    past the downstream zone boundary so the in-zone count never exceeds
    ``zone.capacity``.
    """
    if pop.ids.size == 0:
        return pop
    inside = pop.alive & zone.contains(pop.x, pop.y)
    excess = int(np.count_nonzero(inside)) - zone.capacity
    if excess <= 0:
        return pop
    inside_idx = np.flatnonzero(inside)
    order = inside_idx[np.argsort(pop.ids[inside_idx])]
    x = pop.x.copy()
    x[order[-excess:]] = zone.bounds[1] + CAPACITY_DISPLACEMENT_UM
    return replace(pop, x=x)

"""Stochastic per-pulse skyrmion generation and its fluctuation law.

A pulse at weight ``w`` nominally creates ``floor(w)`` skyrmions plus one
more with probability ``frac(w)``.  Thermal stochasticity then perturbs the
count by +/-1 with total probability ``p_bar`` (split evenly), and the
result clamps at zero.  At the unit operating point this reproduces the
observed outcome set {0, 1, 2} and the relative deviation of the
accumulated count follows ``sigma = sqrt(p_bar / n_pulse)``.

A pulse's count therefore takes at most four values, so the total over N
independent pulses is exactly multinomial over them, or equivalently the
N-fold convolution of the one-pulse law.  ``pulse_distribution`` is the
only definition of that law, and ``sample_pulse_sums`` the only sampler:
it draws totals with no per-pulse array, a batch by inverse CDF from a
cached table (O(log N) per total after the one-off table) and a single
total from one multinomial.  A pulse-by-pulse record is a batch of
one-pulse totals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InsufficientData, SingularFit
from .rng import stream

#: Trials per derived stream in blocked Monte Carlo loops.  Trial t lives in
#: block t // MC_BLOCK, so any parallel split at block boundaries reproduces
#: the sequential result bit for bit.
MC_BLOCK = 8192


@dataclass(frozen=True)
class StochasticModel:
    """Per-pulse count fluctuation model.

    p_bar  probability that a pulse's count deviates from its nominal value
    """

    p_bar: float

    def __post_init__(self):
        if not 0.0 <= self.p_bar <= 1.0:
            raise ValueError("p_bar must lie in [0, 1]")

    def deviation_probabilities(self) -> tuple[float, float]:
        """(p(-1), p(+1)) for one pulse; the even split is what makes the
        sqrt(p_bar/N) law exact."""
        return self.p_bar / 2.0, self.p_bar / 2.0


def pulse_distribution(w: float, model: StochasticModel
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of one pulse's count as (values, probabilities).

    The outcomes are ``max(floor(w) - 1 + k, 0)`` for k = 0..3: nominal
    count ``floor(w)`` or ``floor(w) + 1`` (probability ``frac(w)``), then
    a -1/0/+1 deviation, clamped at zero per pulse.  Values may repeat
    where the clamp folds -1 onto 0.  At exactly zero weight the single
    outcome is 0: the device is at its cutoff field and there is no
    attempt for the thermal fluctuation to act on.
    """
    if w < 0:
        raise ValueError("weight must be >= 0")
    if w == 0:
        return np.zeros(1, dtype=np.int64), np.ones(1)
    base = math.floor(w)
    frac = w - base
    p_minus, p_plus = model.deviation_probabilities()
    p_stay = 1.0 - p_minus - p_plus
    probs = np.array([(1.0 - frac) * p_minus,
                      (1.0 - frac) * p_stay + frac * p_minus,
                      (1.0 - frac) * p_plus + frac * p_stay,
                      frac * p_plus])
    values = np.maximum(np.arange(base - 1, base + 3, dtype=np.int64), 0)
    return values, probs


@functools.lru_cache(maxsize=1024)
def _sum_cdf(w: float, p_bar: float, n_pulses: int
             ) -> tuple[int, np.ndarray]:
    """(offset, cdf) of the total of ``n_pulses`` pulses, from the n-fold
    convolution of ``pulse_distribution`` by repeated squaring.  Entry k
    of the read-only ``cdf`` is P(total <= offset + k); the last is
    ``inf``, so every uniform in [0, 1) lands in the support.  The cache
    holds the ~560 laws of a quantised 15-state layer at up to 40 pulses.
    """
    values, probs = pulse_distribution(w, StochasticModel(p_bar))
    power = np.bincount(values - values[0], weights=probs)
    pmf = np.ones(1)
    n = n_pulses
    while n:
        if n & 1:
            pmf = np.convolve(pmf, power)
        n >>= 1
        if n:
            power = np.convolve(power, power)
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    cdf[-1] = np.inf
    cdf.flags.writeable = False
    return int(values[0]) * n_pulses, cdf


def sample_pulse_sums(w: float, model: StochasticModel,
                      rng: np.random.Generator, n_pulses: int,
                      size) -> np.ndarray:
    """Total count of ``n_pulses`` independent pulses, ``size`` times.

    The totals follow the exact law of the sum.  A batch at least as long
    as the law's support, for a support of at most MC_BLOCK values, draws
    each total with one uniform against the CDF from ``_sum_cdf``: O(log N)
    per total once the table is built, and later batches of the same law
    reuse it.  The cap bounds a table's memory and its one-off build time,
    which grows with the square of its length.  Any other draw, such as
    one total per crossing of the kinematic crossbar, takes the number of
    pulses landing on each outcome of ``pulse_distribution`` from one
    multinomial.  The choice depends only on the arguments, so the random
    stream does not depend on the cache.
    """
    values, probs = pulse_distribution(w, model)
    span = (values[-1] - values[0]) * n_pulses   # table length - 1
    if span < size and span < MC_BLOCK:
        offset, cdf = _sum_cdf(float(w), float(model.p_bar), int(n_pulses))
        return offset + np.searchsorted(cdf, rng.random(size), side="right")
    return rng.multinomial(n_pulses, probs, size=size) @ values


def simulate_cumulative(w: float, model: StochasticModel, n_pulses: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Cumulative skyrmion count after 0..n_pulses pulses (length n+1)."""
    counts = sample_pulse_sums(w, model, rng, 1, n_pulses)
    out = np.zeros(n_pulses + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def expected_cumulative(w: float, n_pulses: int) -> np.ndarray:
    """Noise-free expected accumulation: k * w for k = 0..n_pulses."""
    return np.arange(n_pulses + 1, dtype=float) * w


def analytic_sigma(model: StochasticModel, n_pulse: int) -> float:
    """Relative standard deviation of N_sk / N_pulse: sqrt(p_bar / N)."""
    if n_pulse < 1:
        raise ValueError("n_pulse must be >= 1")
    return math.sqrt(model.p_bar / n_pulse)


def monte_carlo_sigma(model: StochasticModel, n_pulse: int, trials: int,
                      seed: int, w: float = 1.0, path: tuple = ()) -> float:
    """Empirical std of (sum of counts)/n_pulse over independent trials.

    Each trial's sum is drawn exactly by ``sample_pulse_sums``.  Trials
    come from Philox streams derived per block of MC_BLOCK trials, so
    memory stays bounded, reruns with the same seed are bit-identical and
    blocks can be distributed across workers.  ``path`` decorrelates
    repeated calls that share a seed (e.g. points of a parameter sweep).
    """
    if trials < 1000:
        raise ValueError("trials must be >= 1000 for a stable estimate")
    if n_pulse < 1:
        raise ValueError("n_pulse must be >= 1")
    means = np.empty(trials)
    done = 0
    block_index = 0
    while done < trials:
        nb = min(MC_BLOCK, trials - done)
        g = stream(seed, "mc-sigma", *path, block_index)
        means[done:done + nb] = sample_pulse_sums(w, model, g, n_pulse,
                                                  nb) / n_pulse
        done += nb
        block_index += 1
    return float(means.std(ddof=1))


def estimate_pbar_from_trace(events: Iterable, w_nominal: float = 1.0) -> float:
    """Fraction of pulses whose count (``events``: per-pulse skyrmion
    counts) deviated from the nominal value.

    Unbiased for p_bar in the unit-weight regime, which is the only regime
    the estimator is defined for.
    """
    if w_nominal != 1.0:
        raise ValueError("estimator is defined for w_nominal = 1 only")
    counts = np.asarray([int(e) for e in events], dtype=np.int64)
    if counts.size < 10:
        raise InsufficientData(
            f"need at least 10 events, got {counts.size}")
    return float(np.mean(counts != 1))


class WeightFit(NamedTuple):
    slope: float
    intercept: float
    slope_std: float


def fit_weight(cumulative: Sequence[tuple[float, float]]) -> WeightFit:
    """Ordinary least-squares line through (n_pulses, n_sk) points.

    The slope is the empirical synaptic weight dN_sk/dN_pulses;
    ``slope_std`` is the standard OLS slope uncertainty from the residuals.
    An ``(n, 2)`` array of points gives floats; a stack ``(..., n, 2)`` is
    fitted point set by point set and gives arrays of shape ``(...)``.
    """
    pts = np.asarray(cumulative, dtype=float)
    if pts.ndim < 2 or pts.shape[-1] != 2:
        raise ValueError("expected a sequence of (n_pulses, n_sk) pairs")
    if pts.shape[-2] < 3:
        raise InsufficientData("need at least 3 points to fit")
    x, y = pts[..., 0], pts[..., 1]
    if np.any(np.diff(x, axis=-1) <= 0):
        if np.any(np.all(x == x[..., :1], axis=-1)):
            raise SingularFit("all n_pulses identical; slope undefined")
        raise ValueError("n_pulses must be strictly increasing")
    x_mean, y_mean = x.mean(axis=-1), y.mean(axis=-1)
    dx = x - x_mean[..., None]
    sxx = np.sum(dx ** 2, axis=-1)
    if np.any(sxx == 0.0):
        raise SingularFit("no spread in n_pulses")
    slope = np.sum(dx * (y - y_mean[..., None]), axis=-1) / sxx
    intercept = y_mean - slope * x_mean
    resid = y - (slope[..., None] * x + intercept[..., None])
    dof = x.shape[-1] - 2
    s2 = (resid[..., None, :] @ resid[..., :, None])[..., 0, 0] / dof
    fit = WeightFit(slope, intercept, np.sqrt(np.maximum(s2, 0.0) / sxx))
    return WeightFit(*map(float, fit)) if pts.ndim == 2 else fit

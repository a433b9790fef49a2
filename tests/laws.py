"""Exact pulse-sum laws and a chi-squared check against them."""

import numpy as np

from skysum import pulse_distribution

#: Upper 1e-6 quantile of chi-squared with 7 degrees of freedom.  Outcomes
#: are merged into at most 8 bins and the quantile grows with the degrees
#: of freedom, so a correct sampler fails a check below with probability
#: at most 1e-6.
CHI2_CRIT = 40.52


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

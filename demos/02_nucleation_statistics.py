"""Stochastic nucleation and the sqrt(p_bar / N) fluctuation law.

Pulses tuned for one skyrmion each sometimes make zero or two.  Averaged
over many pulses the relative error of the accumulated count falls off
as sqrt(p_bar / N_pulse); Monte Carlo sampling matches the closed form.
"""

import numpy as np

from skysum import (
    StochasticModel,
    analytic_sigma,
    estimate_pbar_from_trace,
    monte_carlo_sigma,
    sample_pulse_sums,
    stream,
)

model = StochasticModel(p_bar=0.4)  # the prototype's p(1) ~ 0.6

print("== per-pulse outcomes at the one-skyrmion operating point ==")
# One-pulse totals: the count of each of 100 000 pulses.
counts = sample_pulse_sums(1.0, model, stream(42, "demo"), 1, 100_000)
for value in (0, 1, 2):
    frac = float(np.mean(counts == value))
    print(f"  {value} skyrmions: {frac:.3f}  {'#' * int(frac * 40)}")
print(f"  estimated p_bar from the first 1000 pulses: "
      f"{estimate_pbar_from_trace(counts[:1000]):.3f}")

print("\n== relative deviation of N_sk/N_pulse vs pulse count ==")
print(f"  {'N':>6} {'Monte Carlo':>12} {'sqrt(p/N)':>12}")
for n in (1, 2, 5, 10, 20, 50, 100, 500, 1000):
    mc = monte_carlo_sigma(model, n, trials=50_000, seed=7, path=(n,))
    print(f"  {n:>6} {mc:>12.4f} {analytic_sigma(model, n):>12.4f}")

print("\n== the law for several deviation probabilities "
      "(the data behind `skysum emit <run> 5b`) ==")
print(f"  {'p(1)':>6} {'N=10':>10} {'N=100':>10} {'N=1000':>10}")
for p_bar in (0.2, 0.4, 0.6, 0.8):
    m = StochasticModel(p_bar)
    row = [monte_carlo_sigma(m, n, 20_000, seed=11, path=(int(10 * p_bar), n))
           for n in (10, 100, 1000)]
    print(f"  {1 - p_bar:>6.1f} {row[0]:>10.4f} {row[1]:>10.4f} "
          f"{row[2]:>10.4f}")
print("larger pulse budgets buy precision; so does a more deterministic "
      "nucleation process")

"""Scaling to M inputs and L outputs: crossbar sums and MTJ activation.

More tracks simply add their skyrmion counts per column, so the summed
fluctuation follows sigma(N)/sqrt(M).  A column's output is a function of
its count: the crossbar reads the linear Hall voltage, and reading the same
counts through a magnetic tunnel junction (``mtj_activation``) applies a
saturating nonlinearity at the column output.
"""

import math

import numpy as np

from skysum import (
    InputVector,
    MtjConfig,
    PulseTrain,
    StochasticModel,
    analytic_sigma,
    build_crossbar,
    expected_sums,
    monte_carlo_column_counts,
    monte_carlo_sum_relative_std,
    mtj_activation,
    paper2024,
)

cal = paper2024()
model = StochasticModel(0.4)

print("== a 4-track, 2-column crossbar, linear Hall readout ==")
weights = [[1.0, 0.5], [2.0, 1.0], [0.0, 1.5], [1.0, 0.0]]
config = build_crossbar(cal, weights)
iv = InputVector(tuple(PulseTrain(n, 171.0, 50.0) for n in (10, 5, 8, 12)))
print(f"  expected column sums: {expected_sums(config, iv)}")
n_detec = monte_carlo_column_counts(config, iv, model, trials=1, seed=42)[0]
print(f"  one stochastic run:   {n_detec} skyrmions -> "
      f"{n_detec * cal.per_skyrmion_voltage_mean} nV")

print("\n== the sqrt(M) averaging of synaptic noise ==")
print(f"  {'M':>4} {'measured':>10} {'sigma(N)/sqrt(M)':>18}")
for m in (1, 2, 5, 10, 20):
    got = monte_carlo_sum_relative_std(m, 20, model, 20_000, seed=4,
                                       path=(m,))
    want = analytic_sigma(model, 20) / math.sqrt(m)
    print(f"  {m:>4} {got:>10.4f} {want:>18.4f}")

print("\n== MTJ readout: saturation doubles as the activation function ==")
mtj = MtjConfig(r_parallel=1000.0, tmr=1.5, junction_area=1.0,
                read_current=10.0)
print(f"  {'N under MTJ':>12} {'V_out (mV)':>11}")
for n in (0, 5, 10, 15, 20, 26, 40):
    v = mtj_activation(n, mtj, cal)
    print(f"  {n:>12} {v:>11.2f}  {'#' * int((v - 9.9) * 3)}")
print(f"  floor I R_P = {mtj.read_current * mtj.r_parallel * 1e-3:.0f} mV, "
      f"ceiling I R_P (1+TMR) = "
      f"{mtj.read_current * mtj.r_parallel * (1 + mtj.tmr) * 1e-3:.0f} mV")

print("\n== the 4 x 2 crossbar's column counts read through the MTJ ==")
counts = monte_carlo_column_counts(config, iv, model, trials=5, seed=42)
for row, v in zip(counts, mtj_activation(counts, mtj, cal)):
    print(f"  counts {row} -> {np.round(v, 2)} mV")

"""Precision and energy figures of merit for the weighted-sum operation.

With M synapses receiving N pulses each, the accumulated sum is M N and its
relative fluctuation is sqrt(p_bar / (M N)), so

    precision = 1 - sqrt(p_bar / (M N))
    energy    = M N E_sk

where E_sk is the cost of nucleating one skyrmion.  Sweeping N traces the
energy/precision trade-off curve for a given nucleation technology.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

from .errors import RangeWarning

#: Energy per nucleated skyrmion (J) for the four nucleation technologies:
#: the measured thermal device, an optimised thermal process, VCMA gating,
#: and the thermodynamic barrier limit (about 500 kT at room temperature).
ENERGY_PRESETS = {
    "thermal_measured": 20e-12,
    "thermal_optimized": 10e-12,
    "vcma": 100e-15,
    "barrier_limit": 2e-18,
}

#: Tolerance absorbing float division artefacts in level counting
#: (e.g. 2.8 / 0.2 = 13.999...).
_STATE_EPS = 1e-9


@dataclass(frozen=True)
class EnergyModel:
    """Energy cost of one skyrmion nucleation, in joules."""

    e_per_skyrmion: float

    def __post_init__(self):
        if self.e_per_skyrmion <= 0:
            raise ValueError("e_per_skyrmion must be positive")

    @classmethod
    def from_preset(cls, name: str) -> "EnergyModel":
        try:
            return cls(ENERGY_PRESETS[name])
        except KeyError:
            raise ValueError(
                f"unknown energy preset {name!r}; "
                f"available: {sorted(ENERGY_PRESETS)}") from None


def sum_precision(m: int, n_pulse: int, p_bar: float) -> float:
    """Precision of an M-synapse, N-pulse weighted sum.

    1 - sqrt(p_bar / (M N)), clamped at zero (with a RangeWarning) in the
    degenerate small-MN corner where the formula goes negative.
    """
    if m < 1 or n_pulse < 1:
        raise ValueError("m and n_pulse must be >= 1")
    if not 0.0 <= p_bar <= 1.0:
        raise ValueError("p_bar must lie in [0, 1]")
    value = 1.0 - math.sqrt(p_bar / (m * n_pulse))
    if value < 0.0:
        warnings.warn("precision formula went negative; clamped to 0",
                      RangeWarning, stacklevel=2)
        return 0.0
    return value


def sum_energy(m: int, n_pulse: int, model: EnergyModel) -> float:
    """Mean energy (J) of the sum: M N nucleations at E_sk each."""
    if m < 1 or n_pulse < 1:
        raise ValueError("m and n_pulse must be >= 1")
    return m * n_pulse * model.e_per_skyrmion


def pareto_curve(m: int, p_bar: float, model: EnergyModel,
                 n_pulse_range: Iterable[int]) -> list[tuple[float, float]]:
    """(precision, energy) points over a range of pulse counts.

    Both coordinates increase with N, so the curve is the attainable
    energy/precision frontier for this nucleation technology.
    """
    points = [(sum_precision(m, n, p_bar), sum_energy(m, n, model))
              for n in n_pulse_range]
    if not points:
        raise ValueError("n_pulse_range must be non-empty")
    return points


def synaptic_state_count(span_mt: float, step_mt: float = 0.2) -> int:
    """Distinguishable weight levels over a field span at a given increment.

    Counts the field steps inclusively: floor(span / step) + 1.  The
    default 0.2 mT increment over the 2.8 mT usable span gives 15 states.
    The same count holds on the weight axis: a 3.42 sk/pulse range at a
    0.1 sk/pulse precision gives 35 levels.
    """
    if step_mt <= 0:
        raise ValueError("step_mt must be positive")
    if span_mt < 0:
        raise ValueError("span_mt must be >= 0")
    return int(math.floor(span_mt / step_mt + _STATE_EPS)) + 1


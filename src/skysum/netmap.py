"""Mapping trained weight matrices onto crossbar programming.

Signed network weights are split into non-negative (positive, negative)
parts carried by differential column pairs; each part is quantised onto a
uniform grid of ``states`` levels, converted to a device weight in
skyrmions/pulse and finally to the out-of-plane field that programs it.
Inference encodes inputs as pulse counts and reads the difference of the
paired column outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossbar import (
    CrossbarConfig,
    InputVector,
    monte_carlo_column_counts,
)
from .device import (
    DeviceCalibration,
    PulseTrain,
    field_for_weight,
    paper2024,
    weight_from_field,
)
from .nucleation import StochasticModel
from .readout import hall_voltage
from .transport import DetectionZone

IDENTITY = "identity"
LINEAR_AHE = "linear_ahe"


@dataclass(frozen=True)
class QuantizedLayer:
    """A weight matrix quantised and mapped to device programming.

    weight_matrix  original weights
    quantized      signed quantised weights (network units)
    w_pos, w_neg   device weights (skyrmions/pulse) of the differential
                   column pair carrying each entry
    scale          network weight units per skyrmion/pulse
    field_pos/neg  programming fields (mT) per site
    """

    weight_matrix: np.ndarray
    quantized: np.ndarray
    w_pos: np.ndarray
    w_neg: np.ndarray
    states: int
    scale: float
    field_pos: np.ndarray
    field_neg: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.weight_matrix.shape

    def programming_schedule(self) -> list[dict]:
        """JSON-ready site list: field and polarity column per entry."""
        rows = []
        m, l = self.shape
        for i in range(m):
            for j in range(l):
                for polarity, h in (("positive", self.field_pos[i, j]),
                                    ("negative", self.field_neg[i, j])):
                    rows.append({
                        "track": i,
                        "column": j,
                        "polarity_column": polarity,
                        "h_z_mT": float(h),
                    })
        return rows


def quantize(weights, states: int = 15,
             cal: DeviceCalibration | None = None) -> QuantizedLayer:
    """Quantise a real matrix onto ``states`` uniform non-negative levels
    per differential column.

    Each part (positive, negative) lands on the grid
    {k * w_max / (states - 1)}, so the absolute quantisation error is at
    most half a level spacing.  The largest magnitude maps to the weight
    ceiling of the calibration; rounding can leave a device weight an ulp
    above it, so device weights are clamped at the ceiling.  A matrix whose
    level spacing would be subnormal quantises to zero.
    """
    if states < 2:
        raise ValueError("states must be >= 2")
    if cal is None:
        cal = paper2024()
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    w_max = float(np.max(np.abs(w))) if w.size else 0.0
    ceiling = weight_from_field(cal, cal.field_min)

    spacing = w_max / (states - 1)
    if min(spacing, w_max / ceiling) < np.finfo(float).tiny:
        # All zero, or so small that the level spacing or the scale would
        # leave the normal floats: flush to zero.
        q_pos = np.zeros_like(w)
        q_neg = np.zeros_like(w)
        scale = 1.0
    else:
        q_pos = np.round(np.maximum(w, 0.0) / spacing) * spacing
        q_neg = np.round(np.maximum(-w, 0.0) / spacing) * spacing
        scale = w_max / ceiling

    w_pos_dev = np.minimum(q_pos / scale, ceiling)
    w_neg_dev = np.minimum(q_neg / scale, ceiling)

    return QuantizedLayer(
        weight_matrix=w,
        quantized=q_pos - q_neg,
        w_pos=w_pos_dev,
        w_neg=w_neg_dev,
        states=states,
        scale=float(scale),
        field_pos=field_for_weight(cal, w_pos_dev).h_z,
        field_neg=field_for_weight(cal, w_neg_dev).h_z,
    )


def _readout(counts: np.ndarray, readout: str, scale: float,
             cal: DeviceCalibration) -> np.ndarray:
    """Apply the column transfer function f to (possibly fractional)
    count sums: network units, or the noise-free Hall voltage (nV)."""
    if readout == IDENTITY:
        return counts * scale
    if readout == LINEAR_AHE:
        return hall_voltage(counts, cal)
    raise ValueError(f"unknown readout {readout!r}")


def infer(layer: QuantizedLayer, input_vector, mode: str = "expected",
          readout: str = IDENTITY, cal: DeviceCalibration | None = None,
          stochastic: StochasticModel | None = None, seed: int = 0,
          trials: int = 1) -> np.ndarray:
    """Run an input of whole pulse counts through the mapped layer.

    Expected mode evaluates f(sum w+ x) - f(sum w- x) per differential
    pair; with the identity readout this is exactly the quantised
    matrix-vector product.  Stochastic mode draws the column counts with
    ``monte_carlo_column_counts``: the crossbar's window sampler under
    ideal transport (every nucleated skyrmion reaches its zone, at a
    capacity that no count reaches), one random stream per track.  It
    returns one row per trial (shape (trials, L); a single trial returns
    shape (L,)).
    """
    x = np.asarray(input_vector)
    m, l = layer.shape
    if x.shape != (m,):
        raise ValueError(f"input length {x.size} does not match {m} tracks")
    if np.any(x % 1 != 0):
        raise ValueError("pulse counts must be integers")
    if np.any(x < 0):
        raise ValueError("pulse counts must be >= 0")
    x = x.astype(np.int64)
    if cal is None:
        cal = paper2024()

    if mode == "expected":
        pos = x @ layer.w_pos
        neg = x @ layer.w_neg
        return (_readout(pos, readout, layer.scale, cal)
                - _readout(neg, readout, layer.scale, cal))
    if mode != "stochastic":
        raise ValueError("mode must be 'expected' or 'stochastic'")
    if stochastic is None:
        raise ValueError("stochastic mode needs a StochasticModel")

    # Differential pairs as a 2L-column crossbar.  Ideal transport reads no
    # geometry or resistance: every track shares one row of zones that only
    # carry a capacity no int64 count reaches, so nothing is clamped.
    weights = np.concatenate([layer.w_pos, layer.w_neg], axis=1)
    zone = DetectionZone(0.0, 0.0, capacity=np.iinfo(np.int64).max)
    config = CrossbarConfig(weights, ((zone,) * 2 * l,) * m, (125.0,) * m)
    pulses = InputVector(tuple(
        PulseTrain(int(n), cal.current_ref, cal.duration_ref) for n in x))
    counts = monte_carlo_column_counts(config, pulses, stochastic,
                                       trials, seed)
    pos, neg = counts[:, :l].astype(float), counts[:, l:].astype(float)
    out = (_readout(pos, readout, layer.scale, cal)
           - _readout(neg, readout, layer.scale, cal))
    return out[0] if trials == 1 else out

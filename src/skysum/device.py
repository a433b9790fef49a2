"""Calibrated device constants and the deterministic control laws.

Units follow the lab conventions the constants were measured in: magnetic
field in mT, pulse duration in ns, current density in GA/m^2, lengths in
micrometres (unless the name says nm), voltages in nV at the 100 uA read
current.

The synaptic weight (expected skyrmions nucleated per pulse) factorises as

    w(H_z, t, J) = w_field(H_z) * s_duration(t) * s_current(J)

where the field law carries the absolute scale and the duration / current
factors are normalised to 1 at the reference operating point
(t = 50 ns, J = 171 GA/m^2).
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    ExtrapolationError,
    OutOfRange,
    RangeWarning,
    StripeDomainRegime,
)

#: Default velocity calibration knots (J in GA/m^2, v in m/s) spanning the
#: measured window: a few m/s at 150 GA/m^2 up to tens of m/s at 200 GA/m^2.
DEFAULT_VELOCITY_POINTS = ((150.0, 3.0), (200.0, 30.0))

#: Longitudinal position of the nucleation notch on the track (um).
DEFAULT_NOTCH_X_UM = 5.0

FORWARD = "forward"
REVERSE = "reverse"


@dataclass(frozen=True)
class DeviceCalibration:
    """Phenomenological constants of one synaptic track.

    weight_field_slope   skyrmions per pulse per mT (negative)
    field_max            mT, field at which the weight is exactly zero
    field_min            mT, floor below which stripe domains form
    duration_ref         ns, pulse duration with unit duration factor
    duration_zero        ns, pulse duration at which the weight vanishes
    current_ref          GA/m^2, density with unit current factor
    current_threshold    GA/m^2, nucleation threshold of the quadratic law
    velocity_points      ((J, v), ...) knots for piecewise-linear velocity
    hall_angle           degrees, skyrmion Hall deflection from the current
    per_skyrmion_voltage_mean  nV per skyrmion at 100 uA read current
    per_skyrmion_voltage_std   nV, per-skyrmion voltage dispersion
    skyrmion_diameter    nm
    track_width          um
    track_length         um
    notch_depth_fraction fraction of the track width taken by the notch
    multilayer_thickness nm, total magnetic stack thickness

    Every field is finite.
    """

    weight_field_slope: float = -0.57
    field_max: float = 26.0
    field_min: float = 20.0
    duration_ref: float = 50.0
    duration_zero: float = 30.0
    current_ref: float = 171.0
    current_threshold: float = 140.0
    velocity_points: tuple = DEFAULT_VELOCITY_POINTS
    hall_angle: float = 15.0
    per_skyrmion_voltage_mean: float = 22.0
    per_skyrmion_voltage_std: float = 7.0
    skyrmion_diameter: float = 222.0
    track_width: float = 6.0
    track_length: float = 40.0
    notch_depth_fraction: float = 0.17
    multilayer_thickness: float = 85.0

    def __post_init__(self):
        points = tuple((float(j), float(v)) for j, v in self.velocity_points)
        for f in fields(self):
            values = (sum(points, ()) if f.name == "velocity_points"
                      else (getattr(self, f.name),))
            # nan, inf and an int too large for a float all fail this.
            if not all(abs(v) <= sys.float_info.max for v in values):
                raise ValueError(f"{f.name} must be finite")
        if not self.field_min < self.field_max:
            raise ValueError("field_min must be below field_max")
        if not self.weight_field_slope < 0:
            raise ValueError("weight_field_slope must be negative")
        if len(points) < 2:
            raise ValueError("velocity_points needs at least two knots")
        js = [p[0] for p in points]
        vs = [p[1] for p in points]
        if any(b <= a for a, b in zip(js, js[1:])):
            raise ValueError("velocity_points must be strictly increasing in J")
        if any(b <= a for a, b in zip(vs, vs[1:])):
            raise ValueError("velocity_points must be strictly increasing in v")
        if vs[0] <= 0:
            raise ValueError("velocity_points must have positive velocities")
        if not 0.0 < self.notch_depth_fraction < 1.0:
            raise ValueError("notch_depth_fraction must lie in (0, 1)")
        for name in ("duration_ref", "duration_zero", "current_ref",
                     "track_width", "track_length", "multilayer_thickness",
                     "per_skyrmion_voltage_mean", "skyrmion_diameter"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.duration_zero < self.duration_ref:
            raise ValueError("duration_zero must be below duration_ref")
        if not 0 <= self.current_threshold < self.current_ref:
            raise ValueError("current_threshold must lie in [0, current_ref)")
        object.__setattr__(self, "velocity_points", points)

    @property
    def notch_y(self) -> float:
        """Transverse notch position (um), measured from the near edge."""
        return self.notch_depth_fraction * self.track_width

    @property
    def velocity_window(self) -> tuple[float, float]:
        """(J_min, J_max) in GA/m^2: the densities the velocity table spans."""
        return self.velocity_points[0][0], self.velocity_points[-1][0]

    @property
    def hall_angle_rad(self) -> float:
        return math.radians(self.hall_angle)

    @property
    def skyrmion_area_um2(self) -> float:
        """Area of one skyrmion treated as a circular reversed domain (um^2)."""
        d_um = self.skyrmion_diameter * 1e-3
        return math.pi * d_um * d_um / 4.0

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["velocity_points"] = [list(p) for p in self.velocity_points]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceCalibration":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown calibration fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "velocity_points" in kwargs:
            kwargs["velocity_points"] = tuple(
                tuple(p) for p in kwargs["velocity_points"])
        return cls(**kwargs)


def paper2024() -> DeviceCalibration:
    """Calibration of the single-track building block (all defaults)."""
    return DeviceCalibration()


def paper2024_fig4() -> DeviceCalibration:
    """Calibration preset for the two-track demonstrator.

    That device operates at a lower pulse density (about 116 GA/m^2), so its
    current reference sits at the operating point, the nucleation threshold
    is lowered accordingly, and the velocity table is extended down to
    100 GA/m^2.
    """
    return replace(
        paper2024(),
        current_ref=116.0,
        current_threshold=100.0,
        velocity_points=((100.0, 1.0), (150.0, 3.0), (200.0, 30.0)),
    )


PRESETS = {
    "paper2024": paper2024,
    "paper2024_fig4": paper2024_fig4,
}


def calibration_preset(name: str) -> DeviceCalibration:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown calibration preset {name!r}; "
            f"available: {sorted(PRESETS)}") from None


@dataclass(frozen=True)
class PulseTrain:
    """A train of identical electrical pulses applied to one track.

    count            number of pulses, an integer >= 0
    current_density  GA/m^2
    duration         ns
    polarity         'forward' (nucleate and advance) or 'reverse' (erase)
    """

    count: int
    current_density: float
    duration: float
    polarity: str = FORWARD

    def __post_init__(self):
        if not isinstance(self.count, numbers.Integral):
            raise ValueError("count must be an integer")
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.current_density <= 0:
            raise ValueError("current_density must be positive")
        if self.polarity not in (FORWARD, REVERSE):
            raise ValueError("polarity must be 'forward' or 'reverse'")


@dataclass(frozen=True)
class FieldSetting:
    """Out-of-plane applied field, mT."""

    h_z: float


def _as_field(field) -> float:
    return field.h_z if isinstance(field, FieldSetting) else float(field)


def weight_from_field(cal: DeviceCalibration, field) -> float:
    """Synaptic weight (skyrmions/pulse) set by the out-of-plane field.

    Linear law ``|slope| * (field_max - h_z)``: exactly zero at ``field_max``
    and monotone decreasing in the field.  Below ``field_min`` the device
    leaves the skyrmion regime entirely, which is an error rather than a
    weight.  Above ``field_max`` the weight clamps to zero and a
    ``RangeWarning`` is emitted.
    """
    h_z = _as_field(field)
    if h_z < cal.field_min:
        raise StripeDomainRegime(
            f"h_z = {h_z} mT is below the {cal.field_min} mT floor: "
            "elongated stripe domains would form")
    if h_z > cal.field_max:
        warnings.warn(
            f"h_z = {h_z} mT exceeds the {cal.field_max} mT cutoff; "
            "weight clamped to 0", RangeWarning, stacklevel=2)
        return 0.0
    return abs(cal.weight_field_slope) * (cal.field_max - h_z)


def weight_scale_duration(cal: DeviceCalibration, duration: float) -> float:
    """Dimensionless duration factor: 1 at ``duration_ref``, 0 at
    ``duration_zero``, linear in between and clamped at zero below."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    return max(0.0, (duration - cal.duration_zero)
               / (cal.duration_ref - cal.duration_zero))


def weight_scale_current(cal: DeviceCalibration, j: float) -> float:
    """Dimensionless current factor, quadratic above the nucleation
    threshold: ``(J^2 - J_th^2) / (J_ref^2 - J_th^2)``, clamped at zero."""
    if j <= 0:
        raise ValueError("current density must be positive")
    # numpy's squares, the same bits as Python's, overflow to inf, not raise.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        th2 = np.float64(cal.current_threshold) ** 2
        return float(np.maximum(0.0, (j * j - th2)
                                / (np.float64(cal.current_ref) ** 2 - th2)))


def synaptic_weight(cal: DeviceCalibration, field, duration: float,
                    current_density: float) -> float:
    """Composite weight: field law times duration and current factors."""
    return (weight_from_field(cal, field)
            * weight_scale_duration(cal, duration)
            * weight_scale_current(cal, current_density))


def field_for_weight(cal: DeviceCalibration, weight,
                     duration: float | None = None,
                     current_density: float | None = None) -> FieldSetting:
    """Field that programs ``weight`` sk/pulse (scalar or array): the
    inverse of ``synaptic_weight``.

    The pulse defaults to the reference one, whose duration and current
    factors are 1.  Weights below zero, above the ceiling at ``field_min``,
    or out of reach because the pulse factors vanish are refused.
    """
    factor = 1.0
    if duration is not None:
        factor *= weight_scale_duration(cal, duration)
    if current_density is not None:
        factor *= weight_scale_current(cal, current_density)
    if factor <= 0:
        raise OutOfRange(
            "duration/current factors vanish; target weight unreachable")
    w = weight / factor
    ceiling = weight_from_field(cal, cal.field_min)
    if np.any(w < 0) or np.any(w > ceiling):
        raise OutOfRange(f"weight {w} outside [0, {ceiling}], the range "
                         f"programmable above {cal.field_min} mT")
    return FieldSetting(cal.field_max - w / abs(cal.weight_field_slope))


def velocity_from_current(cal: DeviceCalibration, j: float) -> float:
    """Skyrmion velocity (m/s) interpolated from the calibration table.

    Only interpolation inside the table is allowed; the velocity law was
    measured in a finite window and extrapolating it is refused.
    """
    j_min, j_max = cal.velocity_window
    if j < j_min or j > j_max:
        raise ExtrapolationError(
            f"J = {j} GA/m^2 outside the calibrated window [{j_min}, {j_max}]")
    js = [p[0] for p in cal.velocity_points]
    vs = [p[1] for p in cal.velocity_points]
    return float(np.interp(j, js, vs))


def current_density(total_current: float, cal: DeviceCalibration) -> float:
    """Average current density (GA/m^2) from a total current in mA.

    The convention divides the total current by track width times the full
    magnetic multilayer thickness.
    """
    if total_current <= 0:
        raise ValueError("total_current must be positive")
    return 1000.0 * total_current / (cal.track_width * cal.multilayer_thickness)


def step_displacement(cal: DeviceCalibration, pulse: PulseTrain) -> tuple[float, float]:
    """Displacement (dx, dy) in um produced by a single pulse.

    dx = v(J) * t;  dy = dx * tan(hall_angle).
    """
    v = velocity_from_current(cal, pulse.current_density)
    dx = v * pulse.duration * 1e-3  # m/s * ns -> um
    dy = dx * math.tan(cal.hall_angle_rad)
    return dx, dy

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from skysum import (
    DeviceCalibration,
    ExtrapolationError,
    FieldSetting,
    PulseTrain,
    RangeWarning,
    StripeDomainRegime,
    calibration_preset,
    current_density,
    paper2024,
    step_displacement,
    synaptic_weight,
    velocity_from_current,
    weight_from_field,
    weight_scale_current,
    weight_scale_duration,
)


class TestCalibration:
    def test_defaults_are_valid(self, cal):
        assert cal.weight_field_slope == -0.57
        assert cal.field_max == 26.0

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            DeviceCalibration(field_min=26.0, field_max=20.0)
        with pytest.raises(ValueError):
            DeviceCalibration(weight_field_slope=0.1)
        with pytest.raises(ValueError):
            DeviceCalibration(velocity_points=((150, 3), (140, 30)))
        with pytest.raises(ValueError):
            DeviceCalibration(velocity_points=((150, 3), (200, 2)))
        with pytest.raises(ValueError):
            DeviceCalibration(notch_depth_fraction=1.5)

    def test_non_positive_velocity_rejected(self):
        for points in (((150, -5), (200, 30)), ((150, 0), (200, 30))):
            with pytest.raises(ValueError, match="positive velocities"):
                DeviceCalibration(velocity_points=points)

    def test_dict_round_trip(self, cal):
        assert DeviceCalibration.from_dict(cal.to_dict()) == cal

    def test_unknown_field_rejected(self, cal):
        data = cal.to_dict()
        data["bogus"] = 1.0
        with pytest.raises(ValueError, match="bogus"):
            DeviceCalibration.from_dict(data)

    def test_presets(self):
        assert calibration_preset("paper2024") == paper2024()
        assert calibration_preset("paper2024_fig4").current_ref == 116.0
        with pytest.raises(ValueError):
            calibration_preset("nope")


class TestWeightFromField:
    def test_cutoff_is_exactly_zero(self, cal):
        assert weight_from_field(cal, FieldSetting(26.0)) == 0.0

    def test_one_to_one_regime(self, cal):
        assert weight_from_field(cal, 24.0) == pytest.approx(1.14, rel=1e-12)

    def test_floor_field(self, cal):
        assert weight_from_field(cal, 20.0) == pytest.approx(3.42, rel=1e-12)

    def test_below_floor_is_stripe_regime(self, cal):
        with pytest.raises(StripeDomainRegime):
            weight_from_field(cal, 19.9)

    def test_above_cutoff_clamps_with_warning(self, cal):
        with pytest.warns(RangeWarning):
            assert weight_from_field(cal, 27.0) == 0.0

    def test_affine_slope(self, cal):
        # Finite differences recover the configured slope to 1e-12 relative.
        h = [20.0 + 0.25 * k for k in range(25)]
        for a, b in zip(h, h[1:]):
            fd = (weight_from_field(cal, b) - weight_from_field(cal, a)) / (b - a)
            assert fd == pytest.approx(cal.weight_field_slope, rel=1e-12)

    def test_monotone_decreasing(self, cal):
        values = [weight_from_field(cal, h) for h in (20.0, 22.0, 24.0, 26.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestScaleFactors:
    def test_duration_reference_points(self, cal):
        assert weight_scale_duration(cal, 50.0) == 1.0
        assert weight_scale_duration(cal, 30.0) == 0.0
        assert weight_scale_duration(cal, 40.0) == 0.5

    def test_duration_clamps_below(self, cal):
        assert weight_scale_duration(cal, 10.0) == 0.0

    def test_duration_degenerate(self):
        with pytest.raises(ValueError, match="duration_zero"):
            DeviceCalibration(duration_zero=50.0)

    def test_current_reference_points(self, cal):
        assert weight_scale_current(cal, 171.0) == 1.0
        assert weight_scale_current(cal, 140.0) == 0.0

    def test_current_quadratic_value(self, cal):
        expected = (160.0**2 - 140.0**2) / (171.0**2 - 140.0**2)
        got = weight_scale_current(cal, 160.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.622, abs=1e-3)

    def test_current_degenerate(self):
        # The law needs 0 <= J_th < J_ref: J_th >= J_ref zeroes or flips
        # its denominator, and a negative threshold is not a threshold.
        for threshold in (171.0, 200.0, -1.0):
            with pytest.raises(ValueError, match="current_threshold"):
                DeviceCalibration(current_threshold=threshold)

    @given(st.floats(min_value=0.1, max_value=3.0))
    def test_separability(self, factor):
        # Scaling one factor scales the composite weight proportionally.
        cal = paper2024()
        base = synaptic_weight(cal, 24.0, 40.0, 160.0)
        expected = (weight_from_field(cal, 24.0)
                    * weight_scale_duration(cal, 40.0)
                    * weight_scale_current(cal, 160.0))
        assert base == pytest.approx(expected, rel=1e-12)
        scaled_t = 30.0 + (40.0 - 30.0) * factor
        assert synaptic_weight(cal, 24.0, scaled_t, 160.0) == pytest.approx(
            base * factor, rel=1e-9)


class TestVelocity:
    def test_knots_exact(self, cal):
        for j, v in cal.velocity_points:
            assert velocity_from_current(cal, j) == v

    def test_interpolation(self, cal):
        assert velocity_from_current(cal, 175.0) == pytest.approx(16.5, rel=1e-12)

    def test_endpoints(self, cal):
        assert velocity_from_current(cal, 150.0) == 3.0
        assert velocity_from_current(cal, 200.0) == 30.0

    def test_extrapolation_forbidden(self, cal):
        with pytest.raises(ExtrapolationError):
            velocity_from_current(cal, 149.9)
        with pytest.raises(ExtrapolationError):
            velocity_from_current(cal, 200.1)

    def test_monotone(self, cal):
        vals = [velocity_from_current(cal, j) for j in (150, 160, 175, 190, 200)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestCurrentDensity:
    def test_read_current(self, cal):
        # 51 uA over 6 um x 85 nm is 0.1 GA/m^2.
        assert current_density(0.051, cal) == pytest.approx(0.1, rel=1e-12)

    def test_pulse_current(self, cal):
        assert current_density(81.6, cal) == pytest.approx(160.0, rel=1e-12)

    def test_zero_rejected(self, cal):
        with pytest.raises(ValueError):
            current_density(0.0, cal)


class TestPulseTrain:
    def test_validation(self):
        with pytest.raises(ValueError):
            PulseTrain(-1, 171.0, 50.0)
        with pytest.raises(ValueError):
            PulseTrain(1, 171.0, 0.0)
        with pytest.raises(ValueError):
            PulseTrain(1, 0.0, 50.0)
        with pytest.raises(ValueError):
            PulseTrain(1, 171.0, 50.0, polarity="sideways")

    @pytest.mark.parametrize("count", [2.7, 2.0, np.float64(3.0)])
    def test_count_must_be_an_integer(self, count):
        # Both crossbar count paths read their pulse counts from here, so a
        # count that is not an integer must fail before either runs.
        with pytest.raises(ValueError, match="integer"):
            PulseTrain(count, 171.0, 50.0)


class TestStepDisplacement:
    def test_kinematics(self):
        # v = 10 m/s for 50 ns moves 0.5 um along and 0.5 tan(15 deg) across.
        cal = DeviceCalibration(velocity_points=((150.0, 10.0), (200.0, 40.0)))
        dx, dy = step_displacement(cal, PulseTrain(1, 150.0, 50.0))
        assert dx == pytest.approx(0.5, rel=1e-12)
        assert dy == pytest.approx(0.5 * math.tan(math.radians(15.0)), rel=1e-12)
        assert dy == pytest.approx(0.134, abs=5e-4)

    def test_vanishes_with_duration(self):
        cal = DeviceCalibration(velocity_points=((150.0, 10.0), (200.0, 40.0)))
        dx, dy = step_displacement(cal, PulseTrain(1, 150.0, 1e-9))
        assert abs(dx) < 1e-10 and abs(dy) < 1e-10

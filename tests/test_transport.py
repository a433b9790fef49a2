import math

import numpy as np
import pytest

from skysum import (
    DetectionZone,
    DeviceCalibration,
    ExtrapolationError,
    PulseTrain,
    SkyrmionPopulation,
    advance,
    build_crossbar,
    default_capacity,
    notch_position,
    reverse_erase,
    stream,
    trajectory,
    zone_within_track,
)

from laws import apply_capacity, count_in_zone, field_reset

# Velocity table chosen so J = 150 gives exactly 10 m/s (0.5 um per 50 ns).
KCAL = DeviceCalibration(velocity_points=((150.0, 10.0), (200.0, 40.0)))
STEP = PulseTrain(1, 150.0, 50.0)
TAN15 = math.tan(math.radians(15.0))


class TestPopulation:
    def test_empty(self):
        pop = SkyrmionPopulation.empty()
        assert pop.n_alive == 0

    def test_unique_ids_enforced(self):
        with pytest.raises(ValueError):
            SkyrmionPopulation(
                ids=np.array([1, 1]), x=np.zeros(2), y=np.zeros(2),
                alive=np.ones(2, dtype=bool), pinned=np.zeros(2, dtype=bool))

    def test_spawn_assigns_fresh_ids(self):
        pop = SkyrmionPopulation.at_positions([(10.0, 2.0)])
        pop = pop.spawn(3, 5.0, 1.0)
        assert pop.n_alive == 4
        assert len(set(pop.ids.tolist())) == 4


class TestAdvance:
    def test_single_step_kinematics(self):
        pop = SkyrmionPopulation.at_positions([(10.0, 2.0)])
        out = advance(pop, STEP, KCAL)
        assert out.x[0] == pytest.approx(10.5, rel=1e-12)
        assert out.y[0] == pytest.approx(2.0 + 0.5 * TAN15, rel=1e-12)

    def test_trajectory_slope_exact(self):
        pop = SkyrmionPopulation.at_positions([(10.0, 1.0)])
        out = advance(pop, STEP, KCAL)
        assert (out.y[0] - 1.0) / (out.x[0] - 10.0) == pytest.approx(
            TAN15, rel=1e-15)

    def test_cumulative_deflection(self):
        # 15 um of longitudinal travel deflects by 15 tan(15 deg) = 4.019 um.
        pop = SkyrmionPopulation.at_positions([(5.0, 1.02)])
        for _ in range(30):
            pop = advance(pop, STEP, KCAL)
        assert pop.x[0] == pytest.approx(20.0, abs=1e-9)
        assert pop.y[0] - 1.02 == pytest.approx(15.0 * TAN15, abs=1e-6)
        assert pop.alive[0]  # 1.02 + 4.019 stays inside the 6 um width

    def test_far_edge_annihilates(self):
        pop = SkyrmionPopulation.at_positions([(10.0, 5.9)])
        out = advance(pop, STEP, KCAL)
        assert out.n_alive == 0

    def test_track_end_annihilates(self):
        pop = SkyrmionPopulation.at_positions([(39.8, 1.0)])
        out = advance(pop, STEP, KCAL)
        assert out.n_alive == 0

    def test_nucleation_enters_at_notch(self):
        nx, ny = notch_position(KCAL)
        pop = advance(SkyrmionPopulation.empty(), STEP, KCAL).spawn(2, nx, ny)
        assert pop.n_alive == 2
        assert np.all(pop.x == nx) and np.all(pop.y == ny)

    def test_motion_never_creates(self):
        pop = SkyrmionPopulation.at_positions([(10.0, 2.0), (12.0, 3.0)])
        out = advance(pop, STEP, KCAL)
        assert out.n_alive <= pop.n_alive

    def test_polarity_and_count_enforced(self):
        pop = SkyrmionPopulation.empty()
        with pytest.raises(ValueError):
            advance(pop, PulseTrain(1, 150.0, 50.0, polarity="reverse"), KCAL)
        with pytest.raises(ValueError):
            advance(pop, PulseTrain(2, 150.0, 50.0), KCAL)

    def test_extrapolation_propagates(self):
        pop = SkyrmionPopulation.at_positions([(10.0, 2.0)])
        with pytest.raises(ExtrapolationError):
            advance(pop, PulseTrain(1, 100.0, 50.0), KCAL)


class TestTrajectory:
    def test_rows_equal_advance_steps(self):
        # The second site reaches the far edge after 6 pulses, the third
        # passes the track end after 7.
        sites = [(5.0, 1.02), (10.0, 5.2), (37.0, 2.0), (20.0, 3.0)]
        x, y, alive = trajectory(sites, PulseTrain(40, 150.0, 50.0), KCAL, 12)
        pop = SkyrmionPopulation.at_positions(sites)
        for k in range(12):
            assert np.array_equal(alive[k], pop.alive)
            assert np.array_equal(x[k][pop.alive], pop.x[pop.alive])
            assert np.array_equal(y[k][pop.alive], pop.y[pop.alive])
            pop = advance(pop, STEP, KCAL)
        assert alive[-1].tolist() == [True, False, False, True]

    def test_advance_is_row_one(self):
        # A live skyrmion, one at the far edge, one past the track end, a
        # dead one and two notch-pinned residuals: advance moves the live
        # ones to row 1, keeps the dead one where it lies and releases the
        # pinned.
        sites = np.array([(10.0, 2.0), (10.0, 5.9), (39.8, 1.0), (12.0, 3.0),
                          notch_position(KCAL), notch_position(KCAL)])
        pop = SkyrmionPopulation(
            ids=np.arange(6), x=sites[:, 0], y=sites[:, 1],
            alive=np.array([True, True, True, False, True, True]),
            pinned=np.array([False, False, False, False, True, True]))
        x, y, alive = trajectory(sites, STEP, KCAL, 2)
        out = advance(pop, STEP, KCAL)
        assert out.alive.tolist() == [True, False, False, False, True, True]
        assert np.array_equal(out.alive, pop.alive & alive[1])
        assert np.array_equal(out.x[pop.alive], x[1][pop.alive])
        assert np.array_equal(out.y[pop.alive], y[1][pop.alive])
        assert (out.x[3], out.y[3]) == (12.0, 3.0)
        assert not out.pinned.any()

    def test_reverse_pulse_refused(self):
        with pytest.raises(ValueError):
            trajectory([(5.0, 1.0)], PulseTrain(1, 150.0, 50.0,
                                                polarity="reverse"), KCAL, 3)

    def test_velocity_law_read_only_for_pulses(self):
        outside = PulseTrain(1, 100.0, 50.0)
        x, _, _ = trajectory([(5.0, 1.0)], outside, KCAL, 0)
        assert x.shape == (0, 1)
        with pytest.raises(ExtrapolationError):
            trajectory([(5.0, 1.0)], outside, KCAL, 1)


class TestReverseErase:
    def test_round_trip_positions(self):
        # Forward 5 steps then 5 reverse pulses with no losses returns the
        # skyrmion to its start to within 1e-9 um.
        pop = SkyrmionPopulation.at_positions([(15.0, 2.0)])
        for _ in range(5):
            pop = advance(pop, STEP, KCAL)
        back = PulseTrain(5, 150.0, 50.0, polarity="reverse")
        pop = reverse_erase(pop, back, KCAL, residual_prob=0.0,
                            rng=stream(0, "rt"))
        assert pop.n_alive == 1
        assert pop.x[0] == pytest.approx(15.0, abs=1e-9)
        assert pop.y[0] == pytest.approx(2.0, abs=1e-9)

    def test_zero_pulses_is_identity(self):
        pop = SkyrmionPopulation.at_positions([(15.0, 2.0)])
        back = PulseTrain(0, 150.0, 50.0, polarity="reverse")
        out = reverse_erase(pop, back, KCAL, 0.5, stream(1, "z"))
        assert np.array_equal(out.x, pop.x) and out.n_alive == 1

    def test_full_erase(self):
        pop = SkyrmionPopulation.at_positions([(8.0, 2.0), (9.0, 2.5)])
        back = PulseTrain(50, 150.0, 50.0, polarity="reverse")
        out = reverse_erase(pop, back, KCAL, 0.0, stream(2, "e"))
        assert out.n_alive == 0

    def test_residual_survivors_pin_at_notch(self):
        means = []
        back = PulseTrain(60, 150.0, 50.0, polarity="reverse")
        for s in range(300):
            pop = SkyrmionPopulation.at_positions([(10.0, 2.0)] * 20)
            out = reverse_erase(pop, back, KCAL, 0.05, stream(s, "res"))
            means.append(out.n_alive)
            if out.n_alive:
                nx, ny = notch_position(KCAL)
                assert np.all(out.x[out.alive] == nx)
                assert np.all(out.pinned[out.alive])
        # Binomial(20, 0.05): one expected survivor.
        assert np.mean(means) == pytest.approx(1.0, abs=0.2)

    def test_forward_pulse_releases_pinned(self):
        pop = SkyrmionPopulation.at_positions([(6.0, 2.0)] * 5)
        back = PulseTrain(20, 150.0, 50.0, polarity="reverse")
        out = reverse_erase(pop, back, KCAL, 1.0, stream(3, "pin"))
        assert out.n_alive == 5 and out.pinned.all()
        released = advance(out, STEP, KCAL)
        assert not released.pinned.any()
        nx, _ = notch_position(KCAL)
        assert np.all(released.x[released.alive] > nx)

    def test_polarity_enforced(self):
        pop = SkyrmionPopulation.empty()
        with pytest.raises(ValueError):
            reverse_erase(pop, STEP, KCAL, 0.0, stream(4, "p"))


class TestFieldReset:
    def test_erases_everything(self):
        pop = SkyrmionPopulation.at_positions([(10.0, 2.0)] * 53)
        assert field_reset(pop).n_alive == 0

    def test_idempotent_on_empty(self):
        pop = field_reset(SkyrmionPopulation.empty())
        assert field_reset(pop).n_alive == 0


class TestDetectionZone:
    def test_counts_inside(self, zone):
        pop = SkyrmionPopulation.at_positions([(8.0, 3.0)] * 8)
        assert count_in_zone(pop, zone) == 8

    def test_empty_population(self, zone):
        assert count_in_zone(SkyrmionPopulation.empty(), zone) == 0

    def test_closed_boundary(self, zone):
        # Corner (5, 0) is on the boundary and counts as inside.
        pop = SkyrmionPopulation.at_positions([(5.0, 0.0), (11.0, 6.0)])
        assert count_in_zone(pop, zone) == 2

    def test_outside_hard_cutoff(self, zone):
        pop = SkyrmionPopulation.at_positions([(11.001, 3.0), (4.999, 3.0)])
        assert count_in_zone(pop, zone) == 0

    def test_dead_not_counted(self, zone):
        pop = SkyrmionPopulation.at_positions([(8.0, 3.0)])
        assert count_in_zone(field_reset(pop), zone) == 0

    def test_geometry_validation(self, cal, zone):
        assert zone_within_track(zone, cal)
        assert not zone_within_track(DetectionZone(2.0, 3.0), cal)
        with pytest.raises(ValueError):
            DetectionZone(8.0, 3.0, side=-1.0)
        with pytest.raises(ValueError):
            DetectionZone(8.0, 3.0, capacity=0)

    def test_default_capacity_heuristic(self):
        assert default_capacity(6.0, 222.0) == 81
        # A zone holds at least one skyrmion, so the default is always a
        # valid capacity.
        assert default_capacity(6.0, 3000.0) == 1

    @pytest.mark.parametrize("diameter", [1.0e-160, 5e-324])
    def test_default_capacity_that_is_not_finite_refused(self, diameter):
        # (side / 3 d)**2 overflows, or 3 d underflows to zero: a ValueError,
        # which the command line reports with exit 3, not a traceback.
        with pytest.raises(ValueError, match="not a finite number"):
            default_capacity(6.0, diameter)
        cal = DeviceCalibration(skyrmion_diameter=diameter)
        with pytest.raises(ValueError, match="not a finite number"):
            build_crossbar(cal, [[1.0]])


class TestApplyCapacity:
    def test_identity_below_capacity(self, zone):
        pop = SkyrmionPopulation.at_positions([(8.0, 3.0)] * 5)
        assert apply_capacity(pop, zone) is pop

    def test_excess_displaced_downstream(self):
        zone = DetectionZone(8.0, 3.0, capacity=20)
        pop = SkyrmionPopulation.at_positions([(8.0, 3.0)] * 25)
        out = apply_capacity(pop, zone)
        assert count_in_zone(out, zone) == 20
        displaced = out.x > zone.bounds[1]
        assert displaced.sum() == 5
        # Most recently arrived (highest ids) are crowded out.
        assert set(out.ids[displaced]) == {20, 21, 22, 23, 24}
        assert out.n_alive == 25  # displaced, not destroyed

    def test_monotone_fill_until_capacity(self):
        zone = DetectionZone(8.0, 3.0, capacity=10)
        pop = SkyrmionPopulation.empty()
        counts = []
        for _ in range(15):
            pop = advance(pop, STEP, KCAL).spawn(1, *notch_position(KCAL))
            pop = apply_capacity(pop, zone)
            counts.append(count_in_zone(pop, zone))
        saturated = counts.index(10)
        ramp = counts[:saturated + 1]
        assert all(b >= a for a, b in zip(ramp, ramp[1:]))
        assert max(counts) == 10

import math

import pytest

from skysum import (
    ENERGY_PRESETS,
    EnergyModel,
    pareto_curve,
    sum_energy,
    sum_precision,
    synaptic_state_count,
)


class TestEnergyModel:
    def test_presets(self):
        assert ENERGY_PRESETS["thermal_measured"] == 20e-12
        assert ENERGY_PRESETS["thermal_optimized"] == 10e-12
        assert ENERGY_PRESETS["vcma"] == 100e-15
        assert ENERGY_PRESETS["barrier_limit"] == 2e-18

    def test_from_preset(self):
        assert EnergyModel.from_preset("vcma").e_per_skyrmion == 100e-15
        with pytest.raises(ValueError):
            EnergyModel.from_preset("fusion")

    def test_positive(self):
        with pytest.raises(ValueError):
            EnergyModel(0.0)


class TestSumPrecision:
    def test_deterministic_limit(self):
        assert sum_precision(5, 7, 0.0) == 1.0

    def test_formula_value(self):
        assert sum_precision(10, 10, 0.4) == pytest.approx(
            1.0 - math.sqrt(0.4 / 100), rel=1e-12)
        assert sum_precision(10, 10, 0.4) == pytest.approx(0.9368, abs=1e-4)

    def test_degenerate_corner_hits_zero(self):
        # sqrt(p_bar/(m n)) <= 1 for valid inputs, so the boundary is
        # reached exactly but never crossed; the clamp is a pure guard.
        assert sum_precision(1, 1, 1.0) == 0.0

    def test_m_n_interchangeable(self):
        for m, n in [(2, 30), (5, 12), (10, 6)]:
            assert sum_precision(m, n, 0.3) == pytest.approx(
                sum_precision(1, m * n, 0.3), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            sum_precision(0, 10, 0.4)
        with pytest.raises(ValueError):
            sum_precision(10, 10, 1.5)


class TestSumEnergy:
    def test_vcma_example(self):
        assert sum_energy(10, 10, EnergyModel.from_preset("vcma")) == \
            pytest.approx(10e-12, rel=1e-12)

    def test_barrier_limit_example(self):
        e = sum_energy(10, 1, EnergyModel.from_preset("barrier_limit"))
        assert e == pytest.approx(20e-18, rel=1e-12)
        # per synapse: 2 aJ, inside the 1-100 aJ single-operation window
        assert 1e-18 <= e / 10 <= 100e-18

    def test_bilinear(self):
        model = EnergyModel(3e-15)
        assert sum_energy(4, 5, model) == pytest.approx(
            20 * 3e-15, rel=1e-12)
        assert sum_energy(2, 10, model) == sum_energy(4, 5, model)

    def test_requires_pulses(self):
        with pytest.raises(ValueError):
            sum_energy(10, 0, EnergyModel.from_preset("vcma"))


class TestParetoCurve:
    def test_deterministic_flat_precision(self):
        curve = pareto_curve(10, 0.0, EnergyModel(1e-12), range(1, 11))
        assert all(p == 1.0 for p, _ in curve)
        energies = [e for _, e in curve]
        assert energies == sorted(energies)

    def test_documented_endpoints(self):
        curve = pareto_curve(10, 0.4, EnergyModel.from_preset(
            "thermal_measured"), range(1, 101))
        p0, e0 = curve[0]
        p1, e1 = curve[-1]
        assert p0 == pytest.approx(0.8, rel=1e-12)
        assert e0 == pytest.approx(0.2e-9, rel=1e-12)
        assert p1 == pytest.approx(0.98, rel=1e-12)
        assert e1 == pytest.approx(20e-9, rel=1e-12)

    def test_monotone(self):
        curve = pareto_curve(10, 0.4, EnergyModel(2e-18), range(1, 200))
        precisions = [p for p, _ in curve]
        energies = [e for _, e in curve]
        assert precisions == sorted(precisions)
        assert energies == sorted(energies)

    def test_presets_differ_by_constant_ratio(self):
        a = pareto_curve(10, 0.4, EnergyModel.from_preset("thermal_measured"),
                         range(1, 50))
        b = pareto_curve(10, 0.4, EnergyModel.from_preset("thermal_optimized"),
                         range(1, 50))
        for (pa, ea), (pb, eb) in zip(a, b):
            assert pa == pb
            assert ea / eb == pytest.approx(2.0, rel=1e-12)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            pareto_curve(10, 0.4, EnergyModel(1e-12), range(0))


class TestStateCount:
    def test_paper_window(self):
        # 0.2 mT steps over the 2.8 mT usable span: 15 states.
        assert synaptic_state_count(2.8, 0.2) == 15

    def test_zero_span(self):
        assert synaptic_state_count(0.0, 0.2) == 1

    def test_full_window(self):
        assert synaptic_state_count(6.0, 0.2) == 31

    def test_precision_variant(self):
        # A weight range at a weight precision counts the same way.
        assert synaptic_state_count(3.42, 0.1) == 35
        assert synaptic_state_count(0.0, 0.1) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            synaptic_state_count(2.8, 0.0)
        with pytest.raises(ValueError):
            synaptic_state_count(-1.0, 0.1)

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them inline).  Tolerances are fixed here, not tuned at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from skysum import (
    DetectionZone,
    MtjConfig,
    PulseTrain,
    SequencedTrack,
    SkyrmionPopulation,
    StochasticModel,
    advance,
    analytic_sigma,
    build_crossbar,
    current_uniformity,
    estimate_diameter,
    expected_cumulative,
    field_for_weight,
    fit_weight,
    full_reversal_voltage,
    monte_carlo_sigma,
    monte_carlo_sum_relative_std,
    mtj_voltage_from_coverage,
    notch_position,
    paper2024,
    paper2024_fig4,
    reverse_erase,
    run_fig4_protocol,
    run_phases,
    simulate_cumulative,
    stream,
    sum_energy,
    sum_precision,
    synaptic_weight,
)
from skysum.analysis import ENERGY_PRESETS, EnergyModel
from skysum.config import spec_from_dict
from skysum.device import DeviceCalibration
from skysum.experiments import run_experiment


def report(number: int, description: str, passed: bool):
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: "
          f"{description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_weight_law_recovery(tmp_path):
    """Fitted slope of skyrmions/pulse vs H_z recovers -0.57 +/- 0.05."""
    spec = spec_from_dict({
        "name": "weight-law", "protocol": "nucleation_sweep", "seed": 42,
        "output_dir": str(tmp_path),
        "nucleation_sweep": {"p_bar": 0.4, "pulses": 20, "repeats": 100},
    })
    t0 = time.monotonic()
    run_dir = run_experiment(spec)
    elapsed = time.monotonic() - t0
    summary = json.loads((run_dir / "summary.json").read_text())
    slope = summary["slope_vs_field"]
    ok = abs(slope - (-0.57)) <= 0.05 and elapsed < 10.0
    report(1, f"weight-law slope {slope:.4f} (target -0.57 +/- 0.05), "
              f"{elapsed:.1f}s (< 10s)", ok)


def _r_squared(x, y, slope, intercept):
    y = np.asarray(y, dtype=float)
    resid = y - (slope * np.asarray(x, dtype=float) + intercept)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return 1.0 if float(resid @ resid) < 1e-18 else 0.0
    return 1.0 - float(resid @ resid) / sst


def test_criterion_02_linearity():
    """Noise-free slopes exact per preset; stochastic slope inside the
    analytic sigma bound at the one-to-one point."""
    cal = paper2024()
    presets = [(j, 50.0) for j in (150.0, 160.0, 171.0, 194.0)]
    presets += [(171.0, t) for t in (30.0, 40.0)]
    exact_ok = True
    for j, t in presets:
        w = synaptic_weight(cal, 24.0, t, j)
        cum = expected_cumulative(w, 20)
        fit = fit_weight(list(zip(range(21), cum)))
        r2 = _r_squared(range(21), cum, fit.slope, fit.intercept)
        exact_ok &= abs(fit.slope - w) <= 1e-9 and r2 == pytest.approx(1.0,
                                                                       abs=1e-12)

    # One-to-one point: w = 1, p_bar = 0.4, N = 20.  The 1.0 +/- 0.14 bar
    # is the one-sigma error of the per-pulse rate estimate, so the
    # estimator's scatter over replicates must obey it.
    bound = math.sqrt(0.4 / 20)
    model = StochasticModel(0.4)
    ols_errors, rate_errors = [], []
    for r in range(200):
        cum = simulate_cumulative(1.0, model, 20, stream(42, "lin", r))
        fit = fit_weight(list(zip(range(21), cum)))
        ols_errors.append(abs(fit.slope - 1.0))
        rate_errors.append(float(cum[-1]) / 20 - 1.0)
    median_err = float(np.median(ols_errors))
    rate_std = float(np.std(rate_errors, ddof=1))
    stochastic_ok = median_err <= bound and rate_std <= 1.1 * bound
    report(2, f"noise-free slopes exact; stochastic median |slope-1| "
              f"{median_err:.3f} <= {bound:.3f}, rate-estimator std "
              f"{rate_std:.3f}", exact_ok and stochastic_ok)


def test_criterion_03_sigma_oracle():
    """Monte Carlo sigma within 5% of sqrt(p_bar/N) across the grid."""
    t0 = time.monotonic()
    worst = 0.0
    for pi, p_bar in enumerate(0.1 * np.arange(1, 10)):
        model = StochasticModel(float(p_bar))
        for ni, n in enumerate((10, 100, 1000)):
            got = monte_carlo_sigma(model, n, 100_000, seed=1234,
                                    path=(pi, ni))
            want = analytic_sigma(model, n)
            worst = max(worst, abs(got / want - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 0.05 and elapsed < 30.0
    report(3, f"sigma Monte Carlo vs analytic: worst 5.2%-grid error "
              f"{worst:.4f} (<= 0.05), {elapsed:.1f}s (< 30s)", ok)


def test_criterion_04_sqrt_m_law():
    """10-synapse sum fluctuation equals sigma(N)/sqrt(10) within 5%."""
    model = StochasticModel(0.4)
    got = monte_carlo_sum_relative_std(10, 20, model, 100_000, seed=77)
    want = analytic_sigma(model, 20) / math.sqrt(10)
    ok = abs(got / want - 1.0) <= 0.05
    report(4, f"sqrt(M) law: {got:.5f} vs {want:.5f}", ok)


def _detection_run(cal, rng, **kwargs):
    """Baseline, 20 pulse-and-measure steps, field reset and post-reset
    samples on a unit-weight track; ``rng`` draws births, then noise."""
    zone = DetectionZone(center_x=8.0, center_y=3.0, side=6.0, capacity=81)
    field = field_for_weight(cal, 1.0, 50.0, 150.0)
    track = SequencedTrack(zone=zone, notch=notch_position(cal),
                           weight=synaptic_weight(cal, field, 50.0, 150.0),
                           pulse=PulseTrain(1, 150.0, 50.0),
                           stochastic=StochasticModel(0.0), rng=rng)
    plan = (("baseline", 10, None), ("pulsing", 20, 0), ("reset", 1, None),
            ("post", 10, None))
    return run_phases(plan, [track], cal, meas_rng=rng, **kwargs)


def test_criterion_05_detection_chain():
    """20 pulses x 22 nV = 440 nV exactly; noisy post-reset baseline within
    75 nV in >= 99% of seeded runs."""
    cal = paper2024()
    trace = _detection_run(cal, stream(0, "acc5"))
    pulsing = trace.mask("pulsing")
    exact_ok = trace.delta_v[pulsing][-1] == 440.0 \
        and trace.n_detec[pulsing][-1] == 20

    hits = 0
    runs = 1000
    for s in range(runs):
        noisy = _detection_run(cal, stream(s, "acc5-noise"), noise=True,
                               sigma_meas=25.0)
        post = noisy.mask("post")
        if abs(float(noisy.delta_v[post].mean())) <= 75.0:
            hits += 1
    ok = exact_ok and hits >= 0.99 * runs
    report(5, f"detection chain: final 440 nV exact, post baseline within "
              f"75 nV in {hits}/{runs} runs", ok)


def test_criterion_06_fig4_additivity():
    """Second plateau doubles the first within 3%; zero-weight track 2
    changes the total by less than one noise std."""
    # Noise-free core with injected measurement noise only: the
    # per-skyrmion dispersion is zeroed so sigma_meas is the sole noise.
    from dataclasses import replace
    cal = replace(paper2024_fig4(), per_skyrmion_voltage_std=0.0)
    field = field_for_weight(cal, 1.0, 50.0, 116.0)
    w_equal = [[synaptic_weight(cal, field, 50.0, 116.0)] for _ in range(2)]
    config = build_crossbar(cal, w_equal)
    specs = [PulseTrain(30, 116.0, 50.0), PulseTrain(30, 116.0, 50.0)]
    trace = run_fig4_protocol(config, specs, cal, StochasticModel(0.0),
                              seed=2024, noise=True, sigma_meas=25.0)
    holds = [s for name, s in trace.phase_blocks() if name == "hold"]
    p1 = float(trace.delta_v[holds[0]].mean())
    p2 = float(trace.delta_v[holds[1]].mean())
    ratio_ok = abs(p2 / p1 - 2.0) <= 0.06  # 3% of the 2x target

    w_zero = [[synaptic_weight(cal, field, 50.0, 116.0)],
              [synaptic_weight(cal, field, 30.0, 116.0)]]
    config0 = build_crossbar(cal, w_zero)
    specs0 = [PulseTrain(30, 116.0, 50.0), PulseTrain(30, 116.0, 30.0)]
    trace0 = run_fig4_protocol(config0, specs0, cal, StochasticModel(0.0),
                               seed=2024, noise=True, sigma_meas=25.0)
    holds0 = [s for name, s in trace0.phase_blocks() if name == "hold"]
    q1 = float(trace0.delta_v[holds0[0]].mean())
    q2 = float(trace0.delta_v[holds0[1]].mean())
    flat_ok = abs(q2 - q1) < 25.0  # one measurement-noise std
    report(6, f"fig4: plateau ratio {p2 / p1:.3f} (2 +/- 3%), zero-weight "
              f"change {abs(q2 - q1):.1f} nV (< 25)", ratio_ok and flat_ok)


def test_criterion_07_diameter_round_trip():
    """Diameter estimator inverts the forward model; +/-7 nV moves the
    estimate by 33..36 nm, bracketing the reported spread."""
    cal = paper2024()
    zone = DetectionZone(center_x=8.0, center_y=3.0, side=6.0)
    dv_full = full_reversal_voltage(cal, zone)
    d0 = estimate_diameter(22.0, dv_full, zone)
    round_trip_ok = abs(d0 / 222.0 - 1.0) <= 1e-6
    d_hi = estimate_diameter(29.0, dv_full, zone)
    d_lo = estimate_diameter(15.0, dv_full, zone)
    half_width = (d_hi - d_lo) / 2.0
    ok = round_trip_ok and 33.0 <= half_width <= 36.0
    report(7, f"diameter: round trip {d0:.3f} nm, +/-7 nV half-width "
              f"{half_width:.1f} nm in [33, 36]", ok)


def test_criterion_08_precision_energy_tables():
    """Precision and energy tables across all four presets; barrier-limit
    per-synapse cost stays inside 1-100 aJ up to N = 50."""
    ok = True
    for n in range(1, 101):
        want = 1.0 - math.sqrt(0.4 / (10 * n))
        ok &= sum_precision(10, n, 0.4) == pytest.approx(want, rel=1e-12)
    for name, e_sk in ENERGY_PRESETS.items():
        model = EnergyModel.from_preset(name)
        for n in (1, 10, 100):
            ok &= sum_energy(10, n, model) == pytest.approx(10 * n * e_sk,
                                                            rel=1e-12)
    # documented curve endpoints for the measured thermal device
    thermal = EnergyModel.from_preset("thermal_measured")
    ok &= sum_precision(10, 1, 0.4) == pytest.approx(0.8, rel=1e-12)
    ok &= sum_energy(10, 1, thermal) == pytest.approx(0.2e-9, rel=1e-12)
    ok &= sum_precision(10, 100, 0.4) == pytest.approx(0.98, rel=1e-12)
    ok &= sum_energy(10, 100, thermal) == pytest.approx(20e-9, rel=1e-12)
    barrier = EnergyModel.from_preset("barrier_limit")
    ok &= barrier.e_per_skyrmion == 2e-18
    for n in range(1, 51):
        per_op = sum_energy(10, n, barrier) / 10
        # window check with float slack at the exact 100 aJ edge
        ok &= 1e-18 * (1 - 1e-12) <= per_op <= 100e-18 * (1 + 1e-12)
    report(8, "precision/energy tables match the analytic laws and the "
              "1-100 aJ window", ok)


def test_criterion_09_mtj_activation():
    """Monotone, convex activation for 1000 random junctions; tmr = 0 is
    constant; the saturation endpoint is exact."""
    rng = np.random.default_rng(99)
    xs = np.linspace(0.0, 1.0, 41)
    ok = True
    for _ in range(1000):
        tmr = float(rng.uniform(0.05, 4.0))
        r_p = float(rng.uniform(100.0, 10_000.0))
        mtj = MtjConfig(r_parallel=r_p, tmr=tmr, read_current=10.0)
        v = np.array([mtj_voltage_from_coverage(x, mtj) for x in xs])
        ok &= bool(np.all(np.diff(v) > 0))
        ok &= bool(np.all(np.diff(v, 2) >= -1e-9 * v.max()))
        ok &= v[-1] == mtj.read_current * r_p * (1.0 + tmr) * 1e-3
    flat = MtjConfig(r_parallel=1000.0, tmr=0.0, read_current=10.0)
    vals = {mtj_voltage_from_coverage(x, flat) for x in xs}
    ok &= len(vals) == 1
    report(9, "MTJ activation monotone/convex over 1000 junction draws, "
              "exact endpoints", ok)


def test_criterion_10_circuit_uniformity():
    """The 130/120 Ohm tracks with 12 kOhm series resistors stay inside the
    0.1% read-current budget."""
    cal = paper2024_fig4()
    config = build_crossbar(cal, [[1.0], [1.0]])
    got = current_uniformity(config.track_resistances,
                             config.series_resistance)
    ok = got < 0.001
    report(10, f"current uniformity {got:.2e} < 1e-3 "
               f"(130/120 Ohm, 12 kOhm series)", ok)


def test_criterion_11_transport_geometry():
    """15 um of travel deflects by 15 tan(15 deg); forward/reverse retraces
    to 1e-9 um."""
    cal = DeviceCalibration(velocity_points=((150.0, 10.0), (200.0, 40.0)))
    step = PulseTrain(1, 150.0, 50.0)
    pop = SkyrmionPopulation.at_positions([(5.0, 1.02)])
    for _ in range(30):
        pop = advance(pop, step, cal)
    deflection = float(pop.y[0]) - 1.02
    target = 15.0 * math.tan(math.radians(15.0))
    deflection_ok = abs(deflection - target) <= 1e-6

    pop = SkyrmionPopulation.at_positions([(20.0, 2.0)])
    for _ in range(10):
        pop = advance(pop, step, cal)
    back = PulseTrain(10, 150.0, 50.0, polarity="reverse")
    pop = reverse_erase(pop, back, cal, residual_prob=0.0,
                        rng=stream(0, "acc11"))
    round_trip_ok = (pop.n_alive == 1
                     and abs(float(pop.x[0]) - 20.0) <= 1e-9
                     and abs(float(pop.y[0]) - 2.0) <= 1e-9)
    report(11, f"deflection {deflection:.6f} um vs {target:.6f}, round trip "
               f"to 1e-9", deflection_ok and round_trip_ok)


def test_criterion_12_determinism(tmp_path):
    """Identical seeds produce byte-identical CSV outputs."""
    doc = {
        "name": "det", "protocol": "nucleation_sweep", "seed": 7,
        "nucleation_sweep": {"repeats": 10, "pulses": 15},
    }
    runs = []
    for sub in ("one", "two"):
        spec = spec_from_dict({**doc, "output_dir": str(tmp_path / sub)})
        runs.append(run_experiment(spec))
    csvs = sorted(p.name for p in runs[0].glob("*.csv"))
    ok = bool(csvs)
    for name in csvs:
        ok &= (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    doc2 = {
        "name": "mc", "protocol": "montecarlo_sigma", "seed": 3,
        "montecarlo_sigma": {"trials": 2000, "p_bars": [0.4],
                             "n_pulses": [10, 100]},
    }
    sig = []
    for sub in ("one", "two"):
        spec = spec_from_dict({**doc2, "output_dir": str(tmp_path / sub)})
        sig.append(run_experiment(spec))
    ok &= (sig[0] / "sigma.csv").read_bytes() == \
        (sig[1] / "sigma.csv").read_bytes()
    report(12, f"byte-identical reruns across {len(csvs) + 1} CSV files", ok)

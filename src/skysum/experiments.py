"""Experiment orchestration: protocol runners, persistence, figure data.

Every run writes a self-describing directory: a config snapshot that fully
reproduces it, a manifest with the seed and package versions, the bulk
traces as CSV and the derived statistics as JSON.  All numeric output is
formatted deterministically, so rerunning a spec with the same seed
produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import __version__
from .analysis import ENERGY_PRESETS, EnergyModel, pareto_curve
from .config import (
    ExperimentSpec,
    get_bool,
    get_float,
    get_int,
    get_numbers,
    get_str,
)
from .crossbar import (
    build_crossbar,
    check_current_uniformity,
    run_fig4_protocol,
)
from .device import (
    DeviceCalibration,
    PulseTrain,
    field_for_weight,
    synaptic_weight,
)
from .errors import MissingArtifact, OutOfRange, ValidationError
from .nucleation import (
    StochasticModel,
    analytic_sigma,
    fit_weight,
    monte_carlo_sigma,
    sample_pulse_counts,
)
from .netmap import infer, quantize
from .readout import (
    DEFAULT_SIGMA_MEAS_NV,
    ProtocolSpec,
    TrackDevice,
    drift_correct,
    measure_protocol,
)
from .rng import stream
from .transport import DetectionZone, zone_within_track


# ---------------------------------------------------------------------------
# deterministic writers

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_csv(path: Path) -> list[dict]:
    if not path.exists():
        raise MissingArtifact(f"missing expected output {path}")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_yaml(path: Path, obj):
    with open(path, "w") as fh:
        yaml.safe_dump(_jsonable(obj), fh, sort_keys=True)


# ---------------------------------------------------------------------------
# shared helpers

def _zone_from_params(params: dict, path: str, cal: DeviceCalibration) -> DetectionZone:
    block = params.get("zone", {})
    if not isinstance(block, dict):
        raise ValidationError(f"{path}.zone", "expected a mapping")
    zone = DetectionZone(
        center_x=get_float(block, "center_x", f"{path}.zone.", default=8.0),
        center_y=get_float(block, "center_y", f"{path}.zone.",
                           default=cal.track_width / 2.0),
        side=get_float(block, "side", f"{path}.zone.", default=6.0,
                       positive=True),
        capacity=get_int(block, "capacity", f"{path}.zone.", default=81,
                         minimum=1),
    )
    if not zone_within_track(zone, cal):
        raise ValidationError(f"{path}.zone", "must lie within the track")
    return zone


# ---------------------------------------------------------------------------
# protocol runners

def run_nucleation_sweep(cal: DeviceCalibration, params: dict, seed: int,
                         outdir: Path) -> dict:
    """Sweep one control knob, fit the per-value nucleation slope.

    For a field sweep the summary includes the regression of slope versus
    field, which recovers the weight-field law.
    """
    p = "nucleation_sweep."
    sweep = get_str(params, "sweep", p, default="field")
    if sweep not in ("field", "current", "duration"):
        raise ValidationError(p + "sweep",
                              "must be 'field', 'current' or 'duration'")
    if "values" in params:
        values = get_numbers(params, "values", p, positive=sweep != "field")
    elif sweep == "field":
        values = [20.0 + 0.5 * k for k in range(13)]
    else:
        raise ValidationError(p + "values",
                              "required for current/duration sweeps")
    # Each repeat fits a line through pulses + 1 points; the fit needs 3.
    pulses = get_int(params, "pulses", p, default=20, minimum=2)
    repeats = get_int(params, "repeats", p, default=100, minimum=1)
    p_bar = get_float(params, "p_bar", p, default=0.4, minimum=0.0,
                      maximum=1.0)
    base_field = get_float(params, "field", p, default=24.0)
    base_j = get_float(params, "current_density", p, default=cal.current_ref,
                       positive=True)
    base_t = get_float(params, "duration", p, default=cal.duration_ref,
                       positive=True)
    model = StochasticModel(p_bar)

    def weight_at(value: float) -> float:
        h = value if sweep == "field" else base_field
        j = value if sweep == "current" else base_j
        t = value if sweep == "duration" else base_t
        return synaptic_weight(cal, h, t, j)

    slope_rows, trace_rows, mean_rows, per_value = [], [], [], []
    x_axis = np.arange(pulses + 1, dtype=float)
    for vi, value in enumerate(values):
        w = weight_at(value)
        counts = sample_pulse_counts(w, model, stream(seed, "sweep", vi),
                                     (repeats, pulses))
        cumulative = np.concatenate(
            [np.zeros((repeats, 1), dtype=np.int64),
             np.cumsum(counts, axis=1)], axis=1)
        slopes = np.empty(repeats)
        for r in range(repeats):
            fit = fit_weight(np.column_stack([x_axis, cumulative[r]]))
            slopes[r] = fit.slope
            slope_rows.append((sweep, value, r, fit.slope, fit.intercept))
        for k in range(pulses + 1):
            c = int(counts[0, k - 1]) if k > 0 else 0
            trace_rows.append((value, k, c, int(cumulative[0, k])))
        mean_rows.append((value, float(slopes.mean()),
                          float(slopes.std(ddof=1)) if repeats > 1 else 0.0))
        per_value.append({"value": value, "weight": w,
                          "slope_mean": float(slopes.mean()),
                          "slope_std": float(slopes.std(ddof=1))
                          if repeats > 1 else 0.0})

    write_csv(outdir / "slopes.csv",
              ("sweep", "value", "repeat", "slope", "intercept"), slope_rows)
    write_csv(outdir / "slopes_mean.csv",
              ("value", "slope_mean", "slope_std"), mean_rows)
    write_csv(outdir / "traces.csv",
              ("value", "pulse_index", "count", "cumulative"), trace_rows)

    summary = {"sweep": sweep, "per_value": per_value}
    if sweep == "field" and len(values) >= 3:
        fit = fit_weight([(v, row["slope_mean"])
                          for v, row in zip(values, per_value)])
        summary["slope_vs_field"] = fit.slope
        summary["slope_vs_field_std"] = fit.slope_std
        summary["field_intercept"] = fit.intercept
    return summary


def run_detection_run(cal: DeviceCalibration, params: dict, seed: int,
                      outdir: Path) -> dict:
    """Single-track detection sequence: baseline, pulse-and-measure, field
    reset, post-reset samples."""
    p = "detection_run."
    baseline = get_int(params, "baseline", p, default=10, minimum=0)
    pulses = get_int(params, "pulses", p, default=20, minimum=0)
    reset = get_int(params, "reset", p, default=1, minimum=0)
    post = get_int(params, "post", p, default=10, minimum=0)
    weight = get_float(params, "weight", p, default=1.0)
    j_min, j_max = cal.velocity_window
    j = get_float(params, "current_density", p, default=150.0, positive=True,
                  minimum=j_min, maximum=j_max)
    t = get_float(params, "duration", p, default=cal.duration_ref,
                  positive=True)
    p_bar = get_float(params, "p_bar", p, default=0.0, minimum=0.0,
                      maximum=1.0)
    noise = get_bool(params, "noise", p, default=False)
    sigma_meas = get_float(params, "sigma_meas", p,
                           default=DEFAULT_SIGMA_MEAS_NV)
    drift_rate = get_float(params, "drift_rate", p, default=0.0)
    zone = _zone_from_params(params, "detection_run", cal)

    try:
        field = field_for_weight(cal, weight, t, j)
    except OutOfRange as exc:
        raise ValidationError(p + "weight", str(exc))
    device = TrackDevice(
        cal=cal, zone=zone, field=field,
        pulse=PulseTrain(1, j, t),
        stochastic=StochasticModel(p_bar),
    )
    protocol = ProtocolSpec.standard(baseline=baseline, pulses=pulses,
                                     reset=reset, post=post)
    trace = measure_protocol(device, protocol, rng=stream(seed, "detection"),
                             noise=noise, sigma_meas=sigma_meas,
                             drift_rate=drift_rate)
    corrected = drift_correct(trace)

    write_csv(outdir / "trace.csv",
              ("index", "phase", "delta_v_nV", "n_detec"), trace.rows())
    write_csv(outdir / "trace_corrected.csv",
              ("index", "phase", "delta_v_nV", "n_detec"), corrected.rows())

    pulsing = corrected.mask("pulsing")
    post_mask = corrected.mask("post")
    return {
        "weight": device.weight,
        "field_mT": field.h_z,
        "final_pulsing_delta_v_nV":
            float(corrected.delta_v[pulsing][-1]) if pulsing.any() else 0.0,
        "final_n_detec":
            int(corrected.n_detec[pulsing][-1]) if pulsing.any() else 0,
        "post_mean_nV":
            float(corrected.delta_v[post_mask].mean()) if post_mask.any()
            else 0.0,
    }


def run_fig4_twotrack(cal: DeviceCalibration, params: dict, seed: int,
                      outdir: Path) -> dict:
    """Two-track weighted-sum demonstration with duration-tuned weights."""
    p = "fig4_twotrack."
    pulses = get_int(params, "pulses", p, default=20, minimum=0)
    durations = get_numbers(params, "durations", p, default=[50.0, 50.0],
                            positive=True)
    if len(durations) != 2:
        raise ValidationError(p + "durations", "expected two numbers")
    j_min, j_max = cal.velocity_window
    j = get_float(params, "current_density", p, default=116.0, positive=True,
                  minimum=j_min, maximum=j_max)
    weight = get_float(params, "weight", p, default=1.0)
    p_bar = get_float(params, "p_bar", p, default=0.0, minimum=0.0,
                      maximum=1.0)
    noise = get_bool(params, "noise", p, default=True)
    sigma_meas = get_float(params, "sigma_meas", p,
                           default=DEFAULT_SIGMA_MEAS_NV)
    baseline = get_int(params, "baseline", p, default=20, minimum=0)
    hold = get_int(params, "hold", p, default=20, minimum=0)
    post = get_int(params, "post", p, default=10, minimum=0)

    try:
        field = field_for_weight(cal, weight, durations[0], j)
    except OutOfRange as exc:
        raise ValidationError(p + "weight", str(exc))
    weights = [[synaptic_weight(cal, field, d, j)] for d in durations]
    config = build_crossbar(cal, weights)
    specs = [PulseTrain(pulses, j, d) for d in durations]
    trace = run_fig4_protocol(config, specs, cal, StochasticModel(p_bar),
                              seed=seed, noise=noise, sigma_meas=sigma_meas,
                              baseline=baseline, hold=hold, post=post)
    write_csv(outdir / "trace.csv",
              ("index", "phase", "delta_v_nV", "n_detec"), trace.rows())

    holds = [s for name, s in trace.phase_blocks() if name == "hold"]
    post_mask = trace.mask("post")
    pulsing = trace.mask("pulsing")
    plateau1 = float(trace.delta_v[holds[0]].mean()) if holds else 0.0
    plateau2 = float(trace.delta_v[holds[1]].mean()) if len(holds) > 1 else 0.0
    n_final = int(trace.n_detec[pulsing][-1]) if pulsing.any() else 0
    return {
        "field_mT": field.h_z,
        "weights": [w[0] for w in weights],
        "columns": [{
            "expected_sum": float(sum(w[0] * pulses for w in weights)),
            "n_detec": n_final,
            "output_voltage_nV": plateau2,
            "seed": seed,
        }],
        "plateau1_mean_nV": plateau1,
        "plateau2_mean_nV": plateau2,
        "plateau_ratio": plateau2 / plateau1 if plateau1 else 0.0,
        "post_mean_nV":
            float(trace.delta_v[post_mask].mean()) if post_mask.any() else 0.0,
        "current_uniformity": check_current_uniformity(config),
    }


def run_montecarlo_sigma(cal: DeviceCalibration, params: dict, seed: int,
                         outdir: Path) -> dict:
    """Monte Carlo fluctuation sweep against the analytic sigma law."""
    p = "montecarlo_sigma."
    p_bars = get_numbers(params, "p_bars", p,
                         default=[0.0, 0.2, 0.4, 0.6, 0.8],
                         minimum=0.0, maximum=1.0)
    n_pulses = get_numbers(params, "n_pulses", p,
                           default=[1, 2, 5, 10, 20, 50, 100, 200, 500, 1000],
                           integer=True, minimum=1)
    trials = get_int(params, "trials", p, default=10000, minimum=1000)

    rows = []
    max_rel_err = 0.0
    for pi, p_bar in enumerate(p_bars):
        model = StochasticModel(p_bar)
        for ni, n in enumerate(n_pulses):
            sigma_mc = monte_carlo_sigma(model, n, trials, seed,
                                         path=(pi, ni))
            sigma_th = analytic_sigma(model, n)
            rows.append((p_bar, 1.0 - p_bar, n, sigma_mc, sigma_th))
            if sigma_th > 0:
                max_rel_err = max(max_rel_err,
                                  abs(sigma_mc / sigma_th - 1.0))
    write_csv(outdir / "sigma.csv",
              ("p_bar", "p_one", "n_pulse", "sigma_mc", "sigma_analytic"),
              rows)
    return {"trials": trials, "max_rel_err_nonzero_pbar": max_rel_err}


def run_pareto(cal: DeviceCalibration, params: dict, seed: int,
               outdir: Path) -> dict:
    """Energy versus precision tables for each nucleation energy preset."""
    p = "pareto."
    m = get_int(params, "m", p, default=10, minimum=1)
    p_bar = get_float(params, "p_bar", p, default=0.4, minimum=0.0,
                      maximum=1.0)
    presets = params.get("presets", sorted(ENERGY_PRESETS))
    if not isinstance(presets, list) or not presets:
        raise ValidationError(p + "presets", "expected a non-empty list")
    n_min = get_int(params, "n_pulse_min", p, default=1, minimum=1)
    n_max = get_int(params, "n_pulse_max", p, default=100, minimum=1)
    if n_max < n_min:
        raise ValidationError(p + "n_pulse_max", "must be >= n_pulse_min")

    rows = []
    for preset in presets:
        if preset not in ENERGY_PRESETS:
            raise ValidationError(p + "presets",
                                  f"unknown energy preset {preset!r}")
        model = EnergyModel.from_preset(preset)
        curve = pareto_curve(m, p_bar, model, range(n_min, n_max + 1))
        for n, (precision, energy) in zip(range(n_min, n_max + 1), curve):
            rows.append((preset, n, precision, energy))
    write_csv(outdir / "pareto.csv",
              ("preset", "n_pulse", "precision", "energy_J"), rows)
    return {"m": m, "p_bar": p_bar, "presets": list(presets)}


def _load_weights(params: dict, path: str) -> np.ndarray:
    if "weights" in params:
        w = params["weights"]
        if isinstance(w, str):
            try:
                return np.atleast_2d(np.loadtxt(w, delimiter=",", ndmin=2))
            except OSError as exc:
                raise ValidationError(f"{path}.weights", str(exc))
        if isinstance(w, list):
            try:
                return np.atleast_2d(np.asarray(w, dtype=float))
            except ValueError:
                raise ValidationError(f"{path}.weights",
                                      "expected a numeric matrix")
    raise ValidationError(f"{path}.weights",
                          "required: inline matrix or CSV path")


def run_netsim(cal: DeviceCalibration, params: dict, seed: int,
               outdir: Path) -> dict:
    """Quantise a weight matrix, emit its programming schedule and run
    inference through the simulated crossbar."""
    p = "netsim."
    weights = _load_weights(params, "netsim")
    states = get_int(params, "states", p, default=15, minimum=2)
    inputs = get_numbers(params, "input", p, integer=True, minimum=0)
    if len(inputs) != weights.shape[0]:
        raise ValidationError(p + "input",
                              f"length must match {weights.shape[0]} rows")
    trials = get_int(params, "trials", p, default=0, minimum=0)
    p_bar = get_float(params, "p_bar", p, default=0.4, minimum=0.0,
                      maximum=1.0)
    readout = get_str(params, "readout", p, default="identity")
    if readout not in ("identity", "linear_ahe"):
        raise ValidationError(p + "readout",
                              "must be 'identity' or 'linear_ahe'")

    layer = quantize(weights, states=states, cal=cal)
    write_json(outdir / "schedule.json", layer.programming_schedule())

    expected = infer(layer, inputs, mode="expected", readout=readout, cal=cal)
    rows = []
    stoch_mean = stoch_std = None
    if trials > 0:
        out = infer(layer, inputs, mode="stochastic", readout=readout,
                    cal=cal, stochastic=StochasticModel(p_bar), seed=seed,
                    trials=trials)
        out = np.atleast_2d(out)
        stoch_mean = out.mean(axis=0)
        stoch_std = out.std(ddof=1, axis=0) if trials > 1 else np.zeros_like(
            stoch_mean)
    for jcol in range(weights.shape[1]):
        row = [jcol, float(expected[jcol])]
        if stoch_mean is not None:
            row += [float(stoch_mean[jcol]), float(stoch_std[jcol])]
        rows.append(tuple(row))
    header = ("column", "expected") + (
        ("stochastic_mean", "stochastic_std") if stoch_mean is not None else ())
    write_csv(outdir / "outputs.csv", header, rows)

    q_err = float(np.max(np.abs(layer.quantized - layer.weight_matrix))) \
        if weights.size else 0.0
    return {
        "states": states,
        "scale": layer.scale,
        "max_quantization_error": q_err,
        "trials": trials,
    }


class Protocol(NamedTuple):
    """A protocol's runner and the calibration preset it defaults to."""

    run: Callable[[DeviceCalibration, dict, int, Path], dict]
    preset: str = "paper2024"


PROTOCOLS = {
    "nucleation_sweep": Protocol(run_nucleation_sweep),
    "detection_run": Protocol(run_detection_run),
    "fig4_twotrack": Protocol(run_fig4_twotrack, "paper2024_fig4"),
    "montecarlo_sigma": Protocol(run_montecarlo_sigma),
    "pareto": Protocol(run_pareto),
    "netsim": Protocol(run_netsim),
}


# ---------------------------------------------------------------------------
# run orchestration

def run_experiment(spec: ExperimentSpec) -> Path:
    """Execute one experiment spec into a self-describing run directory.

    The run is built in a temporary sibling directory and renamed into
    place only when it has finished, so a failed run leaves an existing
    directory untouched and a successful one replaces it whole: no run
    directory is ever half-written or holds another run's files.
    """
    outdir = Path(spec.output_dir) / spec.name
    outdir.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{outdir.name}.", dir=outdir.parent))
    try:
        # mkdtemp makes the directory owner-only; give it the permissions
        # of an ordinary new directory.
        umask = os.umask(0)
        os.umask(umask)
        tmp.chmod(0o777 & ~umask)
        _write_run(spec, tmp)
        if outdir.exists():
            old = tmp.with_name(tmp.name + ".old")
            os.rename(outdir, old)
            os.rename(tmp, outdir)
            shutil.rmtree(old)
        else:
            os.rename(tmp, outdir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return outdir


def _write_run(spec: ExperimentSpec, outdir: Path) -> None:
    write_yaml(outdir / "config_snapshot.yaml", {
        "name": spec.name,
        "protocol": spec.protocol,
        "seed": spec.seed,
        "output_dir": spec.output_dir,
        "calibration": spec.calibration_source,
        "calibration_resolved": spec.calibration.to_dict(),
        spec.protocol: spec.params,
    })
    write_json(outdir / "manifest.json", {
        "name": spec.name,
        "protocol": spec.protocol,
        "seed": spec.seed,
        "versions": {
            "skysum": __version__,
            "numpy": np.__version__,
            "python": "%d.%d" % sys.version_info[:2],
        },
    })

    summary = PROTOCOLS[spec.protocol].run(spec.calibration, spec.params,
                                           spec.seed, outdir)
    summary = {"name": spec.name, "protocol": spec.protocol,
               "seed": spec.seed, **summary}
    write_json(outdir / "summary.json", summary)


def _manifest(run_dir: Path) -> dict:
    path = Path(run_dir) / "manifest.json"
    if not path.exists():
        raise MissingArtifact(f"{run_dir} has no manifest.json")
    return json.loads(path.read_text())


class Figure(NamedTuple):
    """Where a figure's data comes from: the run protocol (and, for
    nucleation sweeps, the swept knob), the source CSV, and the output
    columns as {output header: source column}."""

    protocol: str
    sweep: str | None
    source: str
    columns: dict


_TRACE_COLUMNS = {"index": "index", "phase": "phase",
                  "delta_v_nV": "delta_v_nV", "n_detec": "n_detec"}

FIGURES = {
    "2e": Figure("nucleation_sweep", "current", "traces.csv",
                 {"j_GA_m2": "value", "n_pulses": "pulse_index",
                  "n_sk": "cumulative"}),
    "2g": Figure("nucleation_sweep", "field", "traces.csv",
                 {"h_z_mT": "value", "n_pulses": "pulse_index",
                  "n_sk": "cumulative"}),
    "2h": Figure("nucleation_sweep", "field", "slopes_mean.csv",
                 {"h_z_mT": "value", "slope_sk_per_pulse": "slope_mean"}),
    "3": Figure("detection_run", None, "trace.csv", _TRACE_COLUMNS),
    "4e": Figure("fig4_twotrack", None, "trace.csv", _TRACE_COLUMNS),
    "5b": Figure("montecarlo_sigma", None, "sigma.csv",
                 {"p_one": "p_one", "n_pulse": "n_pulse",
                  "sigma": "sigma_mc"}),
    "5c": Figure("pareto", None, "pareto.csv",
                 {"precision": "precision", "energy_J": "energy_J",
                  "preset": "preset"}),
}

FIGURE_IDS = tuple(FIGURES)


def emit_figure_data(run_dir, figure_id: str) -> Path:
    """Write one tidy, plot-ready CSV for the requested figure."""
    run_dir = Path(run_dir)
    if figure_id not in FIGURES:
        raise ValidationError("figure_id",
                              f"unknown figure id {figure_id!r}; "
                              f"known: {list(FIGURE_IDS)}")
    fig = FIGURES[figure_id]
    protocol = _manifest(run_dir).get("protocol")
    if protocol != fig.protocol:
        raise MissingArtifact(
            f"figure {figure_id} needs a {fig.protocol} run, found {protocol}")
    if fig.sweep is not None:
        rows = read_csv(run_dir / "slopes.csv")
        if not rows or rows[0]["sweep"] != fig.sweep:
            raise MissingArtifact(
                f"figure {figure_id} needs a {fig.sweep} sweep")
    out = run_dir / f"figure_{figure_id}.csv"
    rows = [tuple(r[c] for c in fig.columns.values())
            for r in read_csv(run_dir / fig.source)]
    write_csv(out, tuple(fig.columns), rows)
    return out


# ---------------------------------------------------------------------------
# calibration fitting and spec sweeps

def calibrate_weight_law(rows) -> dict:
    """Fit the weight-field law from measured traces.

    ``rows`` are mappings with h_z_mT, n_pulses, n_sk.  Per-field slopes
    come from OLS on the cumulative counts; the slope of those slopes
    versus field gives the weight-field coefficient and its zero crossing
    the cutoff field.
    """
    by_field: dict[float, list] = {}
    for r in rows:
        by_field.setdefault(float(r["h_z_mT"]), []).append(
            (float(r["n_pulses"]), float(r["n_sk"])))
    if len(by_field) < 3:
        raise ValidationError("traces",
                              "need at least 3 distinct fields to calibrate")
    per_field = []
    for h in sorted(by_field):
        fit = fit_weight(sorted(by_field[h]))
        per_field.append({"h_z_mT": h, "slope": fit.slope,
                          "slope_std": fit.slope_std})
    law = fit_weight([(e["h_z_mT"], e["slope"]) for e in per_field])
    field_max = -law.intercept / law.slope if law.slope != 0 else float("nan")
    return {
        "weight_field_slope": law.slope,
        "weight_field_slope_std": law.slope_std,
        "field_max": field_max,
        "per_field": per_field,
    }


def _set_dotted(doc: dict, dotted: str, value):
    keys = dotted.split(".")
    node = doc
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ValidationError(dotted, "path does not address a mapping")
    node[keys[-1]] = value


def expand_sweep(doc: dict) -> list[dict]:
    """Cross product of a spec document over its ``sweep`` block."""
    sweep = doc.get("sweep")
    if not isinstance(sweep, dict) or not sweep:
        raise ValidationError("sweep", "expected a non-empty mapping of "
                                       "dotted paths to value lists")
    items = sorted(sweep.items())
    for key, values in items:
        if not isinstance(values, list) or not values:
            raise ValidationError(f"sweep.{key}", "expected a value list")
    base = {k: v for k, v in doc.items() if k != "sweep"}
    combos = [{}]
    for key, values in items:
        combos = [dict(c, **{key: v}) for c in combos for v in values]
    docs = []
    for i, combo in enumerate(combos):
        d = json.loads(json.dumps(base))  # deep copy
        for key, value in combo.items():
            _set_dotted(d, key, value)
        d["name"] = f"{base.get('name', 'sweep')}-{i:03d}"
        docs.append(d)
    return docs

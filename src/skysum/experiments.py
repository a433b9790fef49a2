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
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import __version__
from .analysis import ENERGY_PRESETS, EnergyModel, pareto_curve
from .config import ExperimentSpec, Param, with_dotted
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
from .errors import (
    MissingArtifact,
    OutOfRange,
    RangeWarning,
    StripeDomainRegime,
    ValidationError,
)
from .nucleation import (
    StochasticModel,
    analytic_sigma,
    fit_weight,
    monte_carlo_sigma,
    sample_pulse_sums,
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
# protocol runners
#
# Each runner takes its protocol's parameters, resolved against the table
# beside it, as keyword arguments.  Checks that span two parameters or need
# the calibration sit in the protocol's check, which ``spec_from_dict`` runs
# on the resolved parameters, so they fail before any run starts.

def _check_pulse(cal: DeviceCalibration, protocol: str, weight: float,
                 duration: float, current_density: float) -> None:
    """The pulse's current density must lie in the calibration's velocity
    window, and some field must program ``weight`` with this pulse."""
    j_min, j_max = cal.velocity_window
    if not j_min <= current_density <= j_max:
        raise ValidationError(f"{protocol}.current_density",
                              f"must lie in the velocity window "
                              f"[{j_min}, {j_max}]")
    try:
        field_for_weight(cal, weight, duration, current_density)
    except OutOfRange as exc:
        raise ValidationError(f"{protocol}.weight", str(exc))


_P_BAR = Param("float", 0.4, minimum=0.0, maximum=1.0)
_FIELD_GRID = [20.0 + 0.5 * k for k in range(13)]  # mT


NUCLEATION_SWEEP = {
    "sweep": Param("str", "field", choices=("field", "current", "duration")),
    # A field sweep defaults to 20..26 mT; other sweeps must give values.
    "values": Param("floats", lambda _, got: _FIELD_GRID
                    if got["sweep"] == "field" else None, positive=True),
    # Each repeat fits a line through pulses + 1 points; the fit needs 3.
    "pulses": Param("int", 20, minimum=2),
    "repeats": Param("int", 100, minimum=1),
    "p_bar": _P_BAR,
    "field": Param("float", 24.0),
    "current_density": Param("float", lambda cal, _: cal.current_ref,
                             positive=True),
    "duration": Param("float", lambda cal, _: cal.duration_ref,
                      positive=True),
}


def _sweep_weights(cal: DeviceCalibration, sweep, values, field,
                   current_density, duration, **_) -> list[float]:
    """The weight at each swept value, the other knobs held."""
    return [synaptic_weight(cal, value if sweep == "field" else field,
                            value if sweep == "duration" else duration,
                            value if sweep == "current" else current_density)
            for value in values]


def _check_nucleation_sweep(cal: DeviceCalibration, params: dict) -> None:
    # A field below field_min is bad input.  Above field_max the weight
    # clamps to 0, and the run itself gives the RangeWarning.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RangeWarning)
            _sweep_weights(cal, **params)
    except StripeDomainRegime as exc:
        raise ValidationError(
            "nucleation_sweep."
            + ("values" if params["sweep"] == "field" else "field"), str(exc))


def run_nucleation_sweep(cal: DeviceCalibration, seed: int, outdir: Path, *,
                         sweep, values, pulses, repeats, p_bar, field,
                         current_density, duration) -> dict:
    """Sweep one control knob, fit the per-value nucleation slope.

    For a field sweep the summary includes the regression of slope versus
    field, which recovers the weight-field law.
    """
    model = StochasticModel(p_bar)
    weights = _sweep_weights(cal, sweep, values, field, current_density,
                             duration)

    slope_rows, trace_rows, per_value = [], [], []
    for vi, (value, w) in enumerate(zip(values, weights)):
        # One-pulse totals, one row per repeat, after a leading zero
        # column: the cumulative count before any pulse.
        counts = np.pad(sample_pulse_sums(w, model, stream(seed, "sweep", vi),
                                          1, repeats * pulses
                                          ).reshape(repeats, pulses),
                        ((0, 0), (1, 0)))
        cumulative = np.cumsum(counts, axis=1)
        # One least-squares fit per repeat, through pulses + 1 points.
        fits = fit_weight(np.stack(np.broadcast_arrays(
            np.arange(pulses + 1.0), cumulative), axis=-1))
        slope_rows += [(sweep, value, r, *fit) for r, fit in
                       enumerate(zip(fits.slope, fits.intercept))]
        trace_rows += [(value, k, int(c), int(n)) for k, (c, n) in
                       enumerate(zip(counts[0], cumulative[0]))]
        per_value.append({
            "value": value, "weight": w,
            "slope_mean": float(fits.slope.mean()),
            "slope_std": float(fits.slope.std(ddof=1)) if repeats > 1
            else 0.0})

    write_csv(outdir / "slopes.csv",
              ("sweep", "value", "repeat", "slope", "intercept"), slope_rows)
    write_csv(outdir / "slopes_mean.csv",
              ("value", "slope_mean", "slope_std"),
              [(v["value"], v["slope_mean"], v["slope_std"])
               for v in per_value])
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


DETECTION_RUN = {
    "baseline": Param("int", 10, minimum=0),
    "pulses": Param("int", 20, minimum=0),
    "reset": Param("int", 1, minimum=0),
    "post": Param("int", 10, minimum=0),
    "weight": Param("float", 1.0),
    "current_density": Param("float", 150.0, positive=True),
    "duration": Param("float", lambda cal, _: cal.duration_ref,
                      positive=True),
    "p_bar": _P_BAR._replace(default=0.0),
    "noise": Param("bool", False),
    "sigma_meas": Param("float", DEFAULT_SIGMA_MEAS_NV),
    "drift_rate": Param("float", 0.0),
    "zone": {
        "center_x": Param("float", 8.0),
        "center_y": Param("float", lambda cal, _: cal.track_width / 2.0),
        "side": Param("float", 6.0, positive=True),
        "capacity": Param("int", 81, minimum=1),
    },
}


def _check_detection_run(cal: DeviceCalibration, params: dict) -> None:
    if not zone_within_track(DetectionZone(**params["zone"]), cal):
        raise ValidationError("detection_run.zone",
                              "must lie within the track")
    _check_pulse(cal, "detection_run", params["weight"], params["duration"],
                 params["current_density"])


def run_detection_run(cal: DeviceCalibration, seed: int, outdir: Path, *,
                      baseline, pulses, reset, post, weight, current_density,
                      duration, p_bar, noise, sigma_meas, drift_rate,
                      zone) -> dict:
    """Single-track detection sequence: baseline, pulse-and-measure, field
    reset, post-reset samples."""
    field = field_for_weight(cal, weight, duration, current_density)
    device = TrackDevice(
        cal=cal, zone=DetectionZone(**zone), field=field,
        pulse=PulseTrain(1, current_density, duration),
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


FIG4_TWOTRACK = {
    "pulses": Param("int", 20, minimum=0),
    "durations": Param("floats", (50.0, 50.0), positive=True),
    "current_density": Param("float", 116.0, positive=True),
    "weight": Param("float", 1.0),
    "p_bar": _P_BAR._replace(default=0.0),
    "noise": Param("bool", True),
    "sigma_meas": Param("float", DEFAULT_SIGMA_MEAS_NV),
    "baseline": Param("int", 20, minimum=0),
    "hold": Param("int", 20, minimum=0),
    "post": Param("int", 10, minimum=0),
}


def _check_fig4_twotrack(cal: DeviceCalibration, params: dict) -> None:
    if len(params["durations"]) != 2:
        raise ValidationError("fig4_twotrack.durations",
                              "expected two numbers")
    _check_pulse(cal, "fig4_twotrack", params["weight"],
                 params["durations"][0], params["current_density"])


def run_fig4_twotrack(cal: DeviceCalibration, seed: int, outdir: Path, *,
                      pulses, durations, current_density, weight, p_bar,
                      noise, sigma_meas, baseline, hold, post) -> dict:
    """Two-track weighted-sum demonstration with duration-tuned weights."""
    field = field_for_weight(cal, weight, durations[0], current_density)
    weights = [[synaptic_weight(cal, field, d, current_density)]
               for d in durations]
    config = build_crossbar(cal, weights)
    specs = [PulseTrain(pulses, current_density, d) for d in durations]
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


MONTECARLO_SIGMA = {
    "p_bars": Param("floats", (0.0, 0.2, 0.4, 0.6, 0.8), minimum=0.0,
                    maximum=1.0),
    "n_pulses": Param("ints", (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000),
                      minimum=1),
    "trials": Param("int", 10000, minimum=1000),
}


def run_montecarlo_sigma(cal: DeviceCalibration, seed: int, outdir: Path, *,
                         p_bars, n_pulses, trials) -> dict:
    """Monte Carlo fluctuation sweep against the analytic sigma law."""
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


PARETO = {
    "m": Param("int", 10, minimum=1),
    "p_bar": _P_BAR,
    "presets": Param("strs", sorted(ENERGY_PRESETS), choices=ENERGY_PRESETS),
    "n_pulse_min": Param("int", 1, minimum=1),
    "n_pulse_max": Param("int", 100, minimum=1),
}


def _check_pareto(cal: DeviceCalibration, params: dict) -> None:
    if params["n_pulse_max"] < params["n_pulse_min"]:
        raise ValidationError("pareto.n_pulse_max", "must be >= n_pulse_min")


def run_pareto(cal: DeviceCalibration, seed: int, outdir: Path, *,
               m, p_bar, presets, n_pulse_min, n_pulse_max) -> dict:
    """Energy versus precision tables for each nucleation energy preset."""
    pulse_counts = range(n_pulse_min, n_pulse_max + 1)
    rows = []
    for preset in presets:
        curve = pareto_curve(m, p_bar, EnergyModel.from_preset(preset),
                             pulse_counts)
        for n, (precision, energy) in zip(pulse_counts, curve):
            rows.append((preset, n, precision, energy))
    write_csv(outdir / "pareto.csv",
              ("preset", "n_pulse", "precision", "energy_J"), rows)
    return {"m": m, "p_bar": p_bar, "presets": presets}


NETSIM = {
    "weights": Param("matrix"),
    "states": Param("int", 15, minimum=2),
    "input": Param("ints", minimum=0),
    "trials": Param("int", 0, minimum=0),
    "p_bar": _P_BAR,
    "readout": Param("str", "identity", choices=("identity", "linear_ahe")),
}


def _check_netsim(cal: DeviceCalibration, params: dict) -> None:
    rows = params["weights"].shape[0]
    if len(params["input"]) != rows:
        raise ValidationError("netsim.input",
                              f"length must match {rows} rows")


def run_netsim(cal: DeviceCalibration, seed: int, outdir: Path, *,
               weights, states, input, trials, p_bar, readout) -> dict:
    """Quantise a weight matrix, emit its programming schedule and run
    inference through the simulated crossbar."""
    layer = quantize(weights, states=states, cal=cal)
    write_json(outdir / "schedule.json", layer.programming_schedule())

    columns = {"column": range(weights.shape[1]),
               "expected": infer(layer, input, mode="expected",
                                 readout=readout, cal=cal)}
    if trials > 0:
        out = np.atleast_2d(infer(
            layer, input, mode="stochastic", readout=readout, cal=cal,
            stochastic=StochasticModel(p_bar), seed=seed, trials=trials))
        columns["stochastic_mean"] = out.mean(axis=0)
        columns["stochastic_std"] = (out.std(ddof=1, axis=0) if trials > 1
                                     else np.zeros(out.shape[1]))
    write_csv(outdir / "outputs.csv", tuple(columns), zip(*columns.values()))

    q_err = float(np.max(np.abs(layer.quantized - layer.weight_matrix))) \
        if weights.size else 0.0
    return {
        "states": states,
        "scale": layer.scale,
        "max_quantization_error": q_err,
        "trials": trials,
    }


class Protocol(NamedTuple):
    """A protocol's runner, its parameter table, the check of the resolved
    parameters against each other and the calibration, and its default
    calibration preset.  ``check(cal, params)`` raises ValidationError;
    the runner is called as ``run(cal, seed, outdir, **params)``."""

    run: Callable[..., dict]
    params: dict
    check: Callable[[DeviceCalibration, dict], None] = lambda cal, params: None
    preset: str = "paper2024"


PROTOCOLS = {
    "nucleation_sweep": Protocol(run_nucleation_sweep, NUCLEATION_SWEEP,
                                 _check_nucleation_sweep),
    "detection_run": Protocol(run_detection_run, DETECTION_RUN,
                              _check_detection_run),
    "fig4_twotrack": Protocol(run_fig4_twotrack, FIG4_TWOTRACK,
                              _check_fig4_twotrack, "paper2024_fig4"),
    "montecarlo_sigma": Protocol(run_montecarlo_sigma, MONTECARLO_SIGMA),
    "pareto": Protocol(run_pareto, PARETO, _check_pareto),
    "netsim": Protocol(run_netsim, NETSIM, _check_netsim),
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

    summary = PROTOCOLS[spec.protocol].run(spec.calibration, spec.seed,
                                           outdir, **spec.params)
    summary = {"name": spec.name, "protocol": spec.protocol,
               "seed": spec.seed, **summary}
    write_json(outdir / "summary.json", summary)


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
    manifest = run_dir / "manifest.json"
    if not manifest.exists():
        raise MissingArtifact(f"{run_dir} has no manifest.json")
    protocol = json.loads(manifest.read_text()).get("protocol")
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
        d = base
        for key, value in combo.items():
            d = with_dotted(d, key, value)
        docs.append(dict(d, name=f"{base.get('name', 'sweep')}-{i:03d}"))
    return docs

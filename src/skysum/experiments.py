"""Experiment orchestration: protocol runners, persistence, figure data.

Every run writes a self-describing directory: a config snapshot that fully
reproduces it, a manifest with the seed and package versions, the bulk
traces as CSV and the derived statistics as JSON.  All numeric output is
formatted deterministically, so rerunning a spec with the same seed
produces byte-identical files.

CSV files are formatted a column at a time, in blocks of rows:
``write_csv`` picks one formatter per column from the type its values
share, and formats a column of mixed types cell by cell.
A figure emit takes a nucleation sweep's kind from ``summary.json``, so
it reads one CSV file: its source, whose columns it copies as read.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np
import yaml

from . import __version__
from .analysis import ENERGY_PRESETS, EnergyModel, pareto_curve
from .config import ExperimentSpec, Param, with_dotted
from .crossbar import build_crossbar, current_uniformity, run_fig4_protocol
from .device import (
    DeviceCalibration,
    PulseTrain,
    field_for_weight,
    synaptic_weight,
    weight_from_field,
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
    SequencedTrack,
    drift_correct,
    run_phases,
)
from .rng import stream, streams
from .transport import (
    DetectionZone,
    default_capacity,
    notch_position,
    zone_within_track,
)


# ---------------------------------------------------------------------------
# deterministic writers

def _format_column(column) -> list:
    """Each value as text: true or false, an integer in full, a float to 12
    significant digits, else ``str``; one type walk for a one-type column."""
    kinds = set(map(type, column))
    if len(kinds) > 1:
        return [_format_column((value,))[0] for value in column]
    kind = kinds.pop() if kinds else str
    if issubclass(kind, (bool, np.bool_)):
        return ["true" if v else "false" for v in column]
    if issubclass(kind, (int, np.integer)):
        return list(map(str, map(int, column)))
    if issubclass(kind, (float, np.floating)):
        return [format(v, ".12g") for v in map(float, column)]
    return list(map(str, column))


def _format_rows(rows: list):
    """Every value of ``rows`` formatted by ``_format_column``; rows of
    equal length a column at a time."""
    widths = set(map(len, rows))
    if len(widths) == 1 and widths != {0}:
        return zip(*map(_format_column, zip(*rows)))
    return list(map(_format_column, rows))


#: Rows formatted at once, which bounds the formatted cells held in memory.
_CSV_BLOCK = 256


def write_csv(path: Path, header, rows):
    """Write ``header`` and ``rows``, formatted by ``_format_column``."""
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        while block := list(itertools.islice(rows, _CSV_BLOCK)):
            writer.writerows(_format_rows(block))


def read_csv(path: Path) -> list[dict]:
    """One {header: cell} dict per row, skipping blank lines as
    ``csv.DictReader`` does."""
    if not path.exists():
        raise MissingArtifact(f"missing expected output {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return [dict(zip(header, row)) for row in reader if row]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_yaml(path: Path, obj):
    """``yaml.safe_dump`` with sorted keys, through libyaml when PyYAML has
    it (the same bytes, faster)."""
    with open(path, "w") as fh:
        yaml.dump(_jsonable(obj), fh, sort_keys=True,
                  Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))


# ---------------------------------------------------------------------------
# protocol runners
#
# Each runner takes its protocol's parameters, resolved against the table
# beside it, as keyword arguments.  Checks that span two parameters or need
# the calibration, and the run's worst cases, sit in the protocol's check,
# which ``spec_from_dict`` runs on the resolved parameters before any run.

def _most(w: float, pulses: int):
    """The most ``pulses`` pulses at weight ``w`` draw, or inf past 2**63."""
    return (math.floor(w) + 2) * pulses if w < 2.0**63 else math.inf


def _pulse_worst_cases(cal: DeviceCalibration, protocol: str, path: str,
                       params: dict, durations):
    """Checks the pulse's current density against the velocity window and
    its ``weight`` against the field that programs it at the first
    duration; yields at ``path`` each duration's ``_most`` at that field."""
    j, (j_min, j_max) = params["current_density"], cal.velocity_window
    if not j_min <= j <= j_max:
        raise ValidationError(f"{protocol}.current_density", f"must lie in "
                              f"the velocity window [{j_min}, {j_max}]")
    try:
        field = field_for_weight(cal, params["weight"], durations[0], j)
    except OutOfRange as exc:
        raise ValidationError(f"{protocol}.weight", str(exc))
    for duration in durations:
        yield path, _most(synaptic_weight(cal, field, duration, j),
                          params["pulses"])


def _hall_worst_cases(cal: DeviceCalibration, protocol: str, params: dict,
                      most):
    """``hall_voltage``'s mean at ``most`` skyrmions, the most the run's
    zones can hold, and with noise on its variance, term by term."""
    yield ("calibration.overrides.per_skyrmion_voltage_mean",
           most * np.float64(cal.per_skyrmion_voltage_mean))
    if params["noise"]:
        var = most * np.float64(cal.per_skyrmion_voltage_std) ** 2
        yield "calibration.overrides.per_skyrmion_voltage_std", var
        yield (f"{protocol}.sigma_meas",
               var + np.float64(params["sigma_meas"]) ** 2)


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


def _check_nucleation_sweep(cal: DeviceCalibration, params: dict):
    # A field below field_min is bad input.  Above field_max the weight
    # clamps to 0, and the run itself gives the RangeWarning.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RangeWarning)
            weights = _sweep_weights(cal, **params)
    except StripeDomainRegime as exc:
        raise ValidationError(
            "nucleation_sweep."
            + ("values" if params["sweep"] == "field" else "field"), str(exc))
    # A field sweep fits a line through its slopes at increasing fields.
    values = params["values"]
    if params["sweep"] == "field" and len(values) >= 3:
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValidationError("nucleation_sweep.values", "must increase")
        yield "nucleation_sweep.values", np.var(values) * len(values)
    for w in weights:
        yield "nucleation_sweep.values", _most(w, params["pulses"])


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
    # Value vi draws from the (seed, "sweep", vi) stream; one key pass
    # derives them all.
    for value, w, rng in zip(values, weights,
                             streams(seed, ("sweep",), 0, len(values))):
        # One-pulse totals, one row per repeat, after a leading zero
        # column: the cumulative count before any pulse.
        counts = np.pad(sample_pulse_sums(w, model, rng, 1, repeats * pulses
                                          ).reshape(repeats, pulses),
                        ((0, 0), (1, 0)))
        cumulative = np.cumsum(counts, axis=1)
        # One least-squares fit per repeat, through pulses + 1 points.
        fits = fit_weight(np.stack(np.broadcast_arrays(
            np.arange(pulses + 1.0), cumulative), axis=-1))
        slope_rows += [(sweep, value, r, *fit) for r, fit in
                       enumerate(zip(fits.slope.tolist(),
                                     fits.intercept.tolist()))]
        trace_rows += [(value, k, c, n) for k, (c, n) in
                       enumerate(zip(counts[0].tolist(),
                                     cumulative[0].tolist()))]
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
    "sigma_meas": Param("float", DEFAULT_SIGMA_MEAS_NV, minimum=0.0),
    "drift_rate": Param("float", 0.0),
    "zone": {
        "center_x": Param("float", 8.0),
        "center_y": Param("float", lambda cal, _: cal.track_width / 2.0),
        "side": Param("float", 6.0, positive=True),
        "capacity": Param("int", 81, minimum=1),
    },
}


def _check_detection_run(cal: DeviceCalibration, params: dict):
    if not zone_within_track(DetectionZone(**params["zone"]), cal):
        raise ValidationError("detection_run.zone",
                              "must lie within the track")
    yield from _pulse_worst_cases(cal, "detection_run", "detection_run.weight",
                                  params, [params["duration"]])
    capacity = params["zone"]["capacity"]
    yield "detection_run.zone.capacity", capacity
    yield from _hall_worst_cases(cal, "detection_run", params, capacity)
    # run_phases adds drift_rate * i to the voltage of sample i of 1..s.
    # The drift's 2-norm bounds the line drift_correct fits to it and, with
    # the Hall mean at capacity added, every sample's mean.
    s = sum(params[k] for k in ("baseline", "pulses", "reset", "post"))
    yield "detection_run.drift_rate", abs(params["drift_rate"]) * (
        math.sqrt(s * (s + 1) * (2 * s + 1) // 6) if s < 2**63
        else math.inf) + capacity * np.float64(cal.per_skyrmion_voltage_mean)


def run_detection_run(cal: DeviceCalibration, seed: int, outdir: Path, *,
                      baseline, pulses, reset, post, weight, current_density,
                      duration, p_bar, noise, sigma_meas, drift_rate,
                      zone) -> dict:
    """Single-track detection sequence: baseline, pulse-and-measure, field
    reset, post-reset samples."""
    field = field_for_weight(cal, weight, duration, current_density)
    # The weight round-trips through the field, as the summary reports it.
    weight = synaptic_weight(cal, field, duration, current_density)
    rng = stream(seed, "detection")
    track = SequencedTrack(
        zone=DetectionZone(**zone), notch=notch_position(cal), weight=weight,
        pulse=PulseTrain(1, current_density, duration),
        stochastic=StochasticModel(p_bar), rng=rng)
    plan = (("baseline", baseline, None), ("pulsing", pulses, 0),
            ("reset", reset, None), ("post", post, None))
    trace = run_phases(plan, [track], cal, meas_rng=rng, noise=noise,
                       sigma_meas=sigma_meas, drift_rate=drift_rate)
    corrected = drift_correct(trace)

    write_csv(outdir / "trace.csv",
              ("index", "phase", "delta_v_nV", "n_detec"), trace.rows())
    write_csv(outdir / "trace_corrected.csv",
              ("index", "phase", "delta_v_nV", "n_detec"), corrected.rows())

    pulsing = corrected.mask("pulsing")
    post_mask = corrected.mask("post")
    return {
        "weight": weight,
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
    "sigma_meas": Param("float", DEFAULT_SIGMA_MEAS_NV, minimum=0.0),
    "baseline": Param("int", 20, minimum=0),
    "hold": Param("int", 20, minimum=0),
    "post": Param("int", 10, minimum=0),
}


def _check_fig4_twotrack(cal: DeviceCalibration, params: dict):
    if len(params["durations"]) != 2:
        raise ValidationError("fig4_twotrack.durations",
                              "expected two numbers")
    yield from _pulse_worst_cases(cal, "fig4_twotrack",
                                  "fig4_twotrack.durations", params,
                                  params["durations"])
    # build_crossbar lays both zones from x = 5 to 11 um, centred across
    # the track, and gives them default_capacity's floor of this ratio.
    side, diameter = DetectionZone.side, cal.skyrmion_diameter
    _, x1, y0, y1 = DetectionZone(5 + side / 2, cal.track_width / 2).bounds
    for name, fits in (("track_length", x1 <= cal.track_length),
                       ("track_width", 0 <= y0 and y1 <= cal.track_width)):
        if not fits:
            raise ValidationError(f"calibration.overrides.{name}",
                                  "too small to hold the zones")
    yield ("calibration.overrides.skyrmion_diameter",
           (np.float64(side) / (3.0 * diameter * 1e-3)) ** 2)
    yield from _hall_worst_cases(cal, "fig4_twotrack", params,
                                 2.0 * default_capacity(side, diameter))


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
        "current_uniformity": current_uniformity(config.track_resistances,
                                                 config.series_resistance),
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


def _check_netsim(cal: DeviceCalibration, params: dict):
    rows = params["weights"].shape[0]
    if len(params["input"]) != rows:
        raise ValidationError("netsim.input",
                              f"length must match {rows} rows")
    # quantize scales the largest |weight| to the ceiling, the weight at
    # field_min.  No column counts more than the ceiling's total over the
    # input, no output more than that count in readout units, and the std
    # squares deviations of at most twice that.
    ceiling = weight_from_field(cal, cal.field_min)
    scale = np.abs(params["weights"]).max(initial=0.0) / np.float64(ceiling)
    yield "calibration.overrides.field_min", scale
    yield "calibration.overrides.field_min", _most(ceiling, 1)
    most = _most(ceiling, sum(params["input"]))
    yield "netsim.input", most
    out = most * (scale if params["readout"] == "identity"
                  else np.float64(cal.per_skyrmion_voltage_mean))
    yield "netsim.input", out
    if params["trials"] > 1:
        yield "netsim.trials", params["trials"] * (2 * out) ** 2


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

    q_err = float(np.abs(layer.quantized - layer.weight_matrix).max(
        initial=0.0))
    return {
        "states": states,
        "scale": layer.scale,
        "max_quantization_error": q_err,
        "trials": trials,
    }


class Protocol(NamedTuple):
    """A protocol's runner, its parameter table, the check of the resolved
    parameters against each other and the calibration, and its default
    calibration preset.  ``check(cal, params)`` raises ValidationError and
    may return the run's worst cases as (dotted path, value) pairs, which
    ``spec_from_dict`` refuses if they overflow; the runner is called as
    ``run(cal, seed, outdir, **params)``."""

    run: Callable[..., dict]
    params: dict
    check: Callable[..., Iterable | None] = lambda cal, params: None
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
    head = {"name": spec.name, "protocol": spec.protocol, "seed": spec.seed}
    write_yaml(outdir / "config_snapshot.yaml", {
        **head, "output_dir": spec.output_dir,
        "calibration": spec.calibration_source,
        "calibration_resolved": spec.calibration.to_dict(),
        spec.protocol: spec.params})
    write_json(outdir / "manifest.json", {**head, "versions": {
        "skysum": __version__, "numpy": np.__version__,
        "python": "%d.%d" % sys.version_info[:2]}})
    summary = PROTOCOLS[spec.protocol].run(spec.calibration, spec.seed,
                                           outdir, **spec.params)
    write_json(outdir / "summary.json", {**head, **summary})


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
        summary = run_dir / "summary.json"
        if not summary.exists():
            raise MissingArtifact(f"{run_dir} has no summary.json")
        if json.loads(summary.read_text()).get("sweep") != fig.sweep:
            raise MissingArtifact(
                f"figure {figure_id} needs a {fig.sweep} sweep")
    source = run_dir / fig.source
    try:
        rows = [[r[c] for c in fig.columns.values()]
                for r in read_csv(source)]
    except KeyError as exc:
        raise MissingArtifact(f"{source} has no column {exc.args[0]!r} in "
                              f"some row, and figure {figure_id} needs it")
    out = run_dir / f"figure_{figure_id}.csv"
    write_csv(out, tuple(fig.columns), rows)
    return out


# ---------------------------------------------------------------------------
# calibration fitting and spec sweeps

def calibrate_weight_law(rows) -> dict:
    """Fit the weight-field law from measured traces.

    ``rows`` are mappings with h_z_mT, n_pulses, n_sk.  Per-field slopes
    come from OLS on the cumulative counts; the slope of those slopes
    versus field gives the weight-field coefficient and its zero crossing
    the cutoff field.  A row that lacks one of the three, or gives one
    that is not a finite number, and a field with fewer than 3 rows or a
    repeated n_pulses fail as ValidationError before any fit.
    """
    by_field: dict[float, list] = {}
    for i, r in enumerate(rows, start=1):
        try:
            h, n, sk = map(float, (r["h_z_mT"], r["n_pulses"], r["n_sk"]))
            if not all(map(math.isfinite, (h, n, sk))):
                raise ValueError
        except (KeyError, TypeError, ValueError):
            raise ValidationError("traces", f"row {i}: h_z_mT, n_pulses and "
                                            f"n_sk must be finite numbers")
        by_field.setdefault(h, []).append((n, sk))
    if len(by_field) < 3:
        raise ValidationError("traces",
                              "need at least 3 distinct fields to calibrate")
    for h, points in by_field.items():
        if len(points) < 3 or len({n for n, _ in points}) < len(points):
            raise ValidationError("traces", f"field {h:g} mT: need at least "
                                            f"3 rows, each with its own "
                                            f"n_pulses")
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
    docs = []
    for i, combo in enumerate(itertools.product(*(v for _, v in items))):
        d = base
        for (key, _), value in zip(items, combo):
            d = with_dotted(d, key, value)
        docs.append(dict(d, name=f"{base.get('name', 'sweep')}-{i:03d}"))
    return docs

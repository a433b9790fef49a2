import copy
import dataclasses
import inspect
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from skysum import (DeviceCalibration, MissingArtifact, ValidationError, cli,
                    experiments, paper2024)
from skysum.config import load_document, spec_from_dict, spec_from_file
from skysum.experiments import (
    FIGURE_IDS,
    PROTOCOLS,
    calibrate_weight_law,
    emit_figure_data,
    expand_sweep,
    read_csv,
    run_experiment,
    write_csv,
    write_yaml,
)


def make_spec(tmp_path, name, protocol, seed=0, params=None, extra=None):
    doc = {"name": name, "protocol": protocol, "seed": seed,
           "output_dir": str(tmp_path), protocol: params or {}}
    doc.update(extra or {})
    return spec_from_dict(doc)


def summary_of(run_dir):
    return json.loads((run_dir / "summary.json").read_text())


def _json_numbers(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for value in obj:
            yield from _json_numbers(value)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def _numbers(path):
    """Every number in a CSV or JSON file: the CSV cells that parse as
    floats, and the JSON ints and floats."""
    if path.suffix == ".json":
        yield from _json_numbers(json.loads(path.read_text()))
        return
    for row in read_csv(path):
        for cell in row.values():
            try:
                yield float(cell)
            except ValueError:
                pass  # a phase, a preset or a boolean


class TestSpecValidation:
    def test_unknown_protocol(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            make_spec(tmp_path, "x", "teleport")
        assert err.value.path == "protocol"

    def test_missing_name(self):
        with pytest.raises(ValidationError) as err:
            spec_from_dict({"protocol": "pareto"})
        assert err.value.path == "name"

    def test_bad_calibration_override_path(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            make_spec(tmp_path, "x", "pareto",
                      extra={"calibration": {"overrides": {"bogus": 1}}})
        assert "calibration.overrides.bogus" in str(err.value)

    def test_invalid_override_value(self, tmp_path):
        with pytest.raises(ValidationError):
            make_spec(tmp_path, "x", "pareto",
                      extra={"calibration": {"overrides": {"field_min": 30.0}}})

    def test_bad_protocol_param(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            make_spec(tmp_path, "x", "nucleation_sweep", params={"pulses": 0})
        assert err.value.path == "nucleation_sweep.pulses"

    def test_fig4_defaults_to_twotrack_preset(self, tmp_path):
        spec = make_spec(tmp_path, "x", "fig4_twotrack")
        assert spec.calibration.current_ref == 116.0

    def test_seed_override(self, tmp_path):
        doc = {"name": "x", "protocol": "pareto", "seed": 3}
        assert spec_from_dict(doc, seed=99).seed == 99

    def test_negative_seed_rejected_before_run(self, tmp_path):
        # Both routes exit 2 and leave no run directory behind.
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"name: bad\nprotocol: pareto\nseed: -1\n"
                       f"output_dir: {tmp_path}\n")
        assert cli.main(["run", str(bad)]) == 2
        assert not (tmp_path / "bad").exists()
        det = tmp_path / "det.yaml"
        det.write_text(f"name: det\nprotocol: detection_run\n"
                       f"output_dir: {tmp_path}\n")
        assert cli.main(["run", str(det), "--seed", "-5"]) == 2
        assert not (tmp_path / "det").exists()

    @pytest.mark.parametrize("protocol, params, path", [
        ("nucleation_sweep", {"p_bar": 1.5}, "nucleation_sweep.p_bar"),
        ("detection_run", {"p_bar": -0.1}, "detection_run.p_bar"),
        ("fig4_twotrack", {"p_bar": 2}, "fig4_twotrack.p_bar"),
        ("pareto", {"p_bar": 1.5}, "pareto.p_bar"),
        ("netsim", {"weights": [[1.0]], "input": [3], "trials": 10,
                    "p_bar": 1.5}, "netsim.p_bar"),
        ("montecarlo_sigma", {"p_bars": ["high"]}, "montecarlo_sigma.p_bars"),
        ("montecarlo_sigma", {"n_pulses": ["ten"]},
         "montecarlo_sigma.n_pulses"),
        ("nucleation_sweep", {"values": ["a"]}, "nucleation_sweep.values"),
        ("detection_run", {"zone": {"center_x": 100.0}}, "detection_run.zone"),
        ("detection_run", {"zone": {"side": 0}}, "detection_run.zone.side"),
        ("detection_run", {"current_density": 0},
         "detection_run.current_density"),
        ("nucleation_sweep", {"duration": -5.0}, "nucleation_sweep.duration"),
        ("montecarlo_sigma", {"n_pulses": [2.5]},
         "montecarlo_sigma.n_pulses"),
        ("detection_run", {"current_density": 151.0, "calibration": {
            "overrides": {"velocity_points": [[150, -5], [200, 30]]}}},
         "calibration.overrides"),
        ("detection_run", {"current_density": 250},
         "detection_run.current_density"),
        ("fig4_twotrack", {"current_density": 210},
         "fig4_twotrack.current_density"),
        ("nucleation_sweep", {"pulses": 1}, "nucleation_sweep.pulses"),
        ("detection_run", {"pulse": 500, "wieght": 3}, "detection_run.pulse"),
        ("detection_run", {"zone": {"sid": 2}}, "detection_run.zone.sid"),
        ("pareto", {"top": {"sede": 4}}, "sede"),
        ("detection_run", {"top": {"pareto": {"m": 5}}}, "pareto"),
        ("detection_run", {"top": {"sweep": {"detection_run.pulses": [5]}}},
         "sweep"),
        ("pareto", {"argv": ["--trials", "7"]}, "pareto.trials"),
        ("detection_run", {"argv": ["--trials", "7"]},
         "detection_run.trials"),
        ("pareto", {"presets": [[1]]}, "pareto.presets"),
        ("netsim", {"weights": [[float("nan"), 1.0]], "input": [3],
                    "trials": 0}, "netsim.weights"),
        ("netsim", {"weights": [[float("nan"), 1.0]], "input": [3],
                    "trials": 5}, "netsim.weights"),
        ("netsim", {"weights": [[[1.0]]], "input": [3]}, "netsim.weights"),
        ("nucleation_sweep", {"values": [10, 11, 12]},
         "nucleation_sweep.values"),
        ("nucleation_sweep", {"sweep": "current", "values": [150.0, 171.0],
                              "field": 10}, "nucleation_sweep.field"),
        ("pareto", {"calibration": {"presett": "paper2024"}},
         "calibration.presett"),
        ("pareto", {"top": {"calibration_resolved": {"field_max": 30.0}}},
         "calibration_resolved"),
        ("detection_run", {"calibration": {
            "overrides": {"duration_zero": 50}}}, "calibration.overrides"),
        ("detection_run", {"calibration": {
            "overrides": {"duration_zero": 60}}}, "calibration.overrides"),
        ("detection_run", {"calibration": {
            "overrides": {"current_threshold": 171}}}, "calibration.overrides"),
        ("detection_run", {"calibration": {
            "overrides": {"current_threshold": 200}}}, "calibration.overrides"),
        ("detection_run", {"weight": float("nan")}, "detection_run.weight"),
        ("nucleation_sweep", {"duration": float("inf")},
         "nucleation_sweep.duration"),
        ("detection_run", {"sigma_meas": float("nan"), "noise": True},
         "detection_run.sigma_meas"),
        ("fig4_twotrack", {"sigma_meas": float("inf"), "noise": True},
         "fig4_twotrack.sigma_meas"),
        ("detection_run", {"calibration": {
            "overrides": {"hall_angle": float("inf")}}},
         "calibration.overrides"),
        ("detection_run", {"sigma_meas": 10**400}, "detection_run.sigma_meas"),
        # Finite values whose Hall-voltage variance overflows, and a
        # negative std.
        ("fig4_twotrack", {"sigma_meas": 1.0e+300, "noise": True},
         "fig4_twotrack.sigma_meas"),
        ("detection_run", {"noise": True, "calibration": {
            "overrides": {"per_skyrmion_voltage_std": 1.0e+300}}},
         "calibration.overrides.per_skyrmion_voltage_std"),
        ("detection_run", {"sigma_meas": -25}, "detection_run.sigma_meas"),
        # Finite values whose weight, drift or mean voltage overflows
        # downstream.
        ("nucleation_sweep", {"current_density": 1.0e+12},
         "nucleation_sweep.values"),
        ("detection_run", {"drift_rate": 1.0e+308},
         "detection_run.drift_rate"),
        ("detection_run", {"calibration": {
            "overrides": {"per_skyrmion_voltage_mean": 1.0e+307}}},
         "calibration.overrides.per_skyrmion_voltage_mean"),
        ("fig4_twotrack", {"noise": False, "calibration": {
            "overrides": {"per_skyrmion_voltage_mean": 1.0e+307}}},
         "calibration.overrides.per_skyrmion_voltage_mean"),
        # A finite drift whose fitted line overflows, a capacity beyond any
        # float, a capacity ratio that overflows, and tracks too small for
        # the crossbar's zones.
        ("detection_run", {"drift_rate": 2.0e+306},
         "detection_run.drift_rate"),
        ("detection_run", {"zone": {"capacity": 10**400}},
         "detection_run.zone.capacity"),
        ("fig4_twotrack", {"calibration": {
            "overrides": {"skyrmion_diameter": 1.0e-160}}},
         "calibration.overrides.skyrmion_diameter"),
        ("fig4_twotrack", {"calibration": {
            "overrides": {"track_length": 1.0e-9}}},
         "calibration.overrides.track_length"),
        ("fig4_twotrack", {"calibration": {
            "overrides": {"track_width": 1.0e-9}}},
         "calibration.overrides.track_width"),
        # A Hall mean and a drift, each finite, whose sum is not.
        ("detection_run", {"drift_rate": 1.0e+306, "zone": {"capacity": 20},
                           "calibration": {"overrides": {
                               "per_skyrmion_voltage_mean": 8.5e+306}}},
         "detection_run.drift_rate"),
    ])
    def test_bad_value_exits_2_before_run(self, tmp_path, capsys, protocol,
                                          params, path):
        # A row's "calibration" entry is the document's calibration block,
        # its "top" entries are further top-level keys of the document, and
        # its "argv" entry holds extra command-line arguments.
        params = dict(params)
        calibration = params.pop("calibration", {})
        top = params.pop("top", {})
        argv = params.pop("argv", [])
        spec = tmp_path / "bad.yaml"
        spec.write_text(yaml.safe_dump({
            "name": "bad", "protocol": protocol, "output_dir": str(tmp_path),
            "calibration": calibration, protocol: params, **top}))
        assert cli.main(["run", str(spec), *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert list(tmp_path.iterdir()) == [spec]

    def test_largest_drift_rate_writes_finite_numbers(self, tmp_path):
        # Positive floats order as their bit patterns do, so a bisection of
        # the patterns finds the largest drift_rate the default plan takes.
        def rate_of(bits):
            return float(np.int64(bits).view(np.float64))

        def accepted(bits):
            try:
                make_spec(tmp_path, "d", "detection_run",
                          params={"drift_rate": rate_of(bits)})
            except ValidationError:
                return False
            return True

        lo, hi = 0, int(np.float64(sys.float_info.max).view(np.int64))
        assert accepted(lo) and not accepted(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        rate = rate_of(lo)
        assert rate > 1.0e+306
        for sub, signed in (("up", rate), ("down", -rate)):
            run_dir = run_experiment(make_spec(
                tmp_path / sub, "d", "detection_run",
                params={"drift_rate": signed}))
            for name in ("trace_corrected.csv", "summary.json"):
                assert all(map(math.isfinite, _numbers(run_dir / name)))

    @pytest.mark.parametrize("protocol, sweep, argv, path", [
        ("pareto", {"pareto.m": [5, 0]}, [], "pareto.m"),
        ("montecarlo_sigma", {"montecarlo_sigma.n_pulses": [[5], [10]]},
         ["--trials", "999"], "montecarlo_sigma.trials"),
        # A check across parameters and the calibration: 250 GA/m^2 lies
        # outside the velocity window.
        ("detection_run", {"detection_run.current_density": [150, 250]},
         [], "detection_run.current_density"),
    ])
    def test_sweep_resolves_every_spec_first(self, tmp_path, capsys, protocol,
                                             sweep, argv, path):
        spec = tmp_path / "grid.yaml"
        spec.write_text(yaml.safe_dump({
            "name": "grid", "protocol": protocol,
            "output_dir": str(tmp_path), "sweep": sweep}))
        assert cli.main(["sweep", str(spec), *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert list(tmp_path.iterdir()) == [spec]

    def test_sweep_honours_trials(self, tmp_path, capsys):
        spec = tmp_path / "grid.yaml"
        spec.write_text(yaml.safe_dump({
            "name": "grid", "protocol": "montecarlo_sigma",
            "output_dir": str(tmp_path),
            "montecarlo_sigma": {"p_bars": [0.4]},
            "sweep": {"montecarlo_sigma.n_pulses": [[5], [10]]}}))
        assert cli.main(["sweep", str(spec), "--trials", "1000"]) == 0
        for sub in ("grid-000", "grid-001"):
            assert summary_of(tmp_path / sub)["trials"] == 1000

    def test_preset_override_reaches_defaults(self, tmp_path):
        # Defaults read the calibration that --preset selects, and the
        # document's calibration overrides stay on top of it.
        doc = {"name": "x", "protocol": "nucleation_sweep",
               "calibration": {"overrides": {"track_length": 170.0}}}
        spec = spec_from_dict(doc, preset="paper2024_fig4")
        assert spec.params["current_density"] == 116.0
        assert spec.calibration.track_length == 170.0
        assert spec.calibration_source == {
            "preset": "paper2024_fig4",
            "overrides": {"track_length": 170.0}}


#: Small documents whose float fields the worst-case fuzz test draws.
_FUZZ_BASE = {
    "nucleation_sweep": {"repeats": 3, "pulses": 4},
    "detection_run": {"noise": True, "p_bar": 0.4},
    "fig4_twotrack": {"pulses": 5},
    "montecarlo_sigma": {"trials": 1000, "p_bars": [0.4], "n_pulses": [5]},
    "pareto": {"n_pulse_max": 5},
    "netsim": {"weights": [[1.0, -0.5], [0.25, 0.75]], "input": [12, 8],
               "trials": 20},
}

_CAL_FLOATS = [f.name for f in dataclasses.fields(DeviceCalibration)
               if f.type == "float"]

_SPECIAL = [0.0, 1e-300, -1e-300, 1e300, 1.7e308, math.nan, math.inf,
            -math.inf]


def _float_fields(table: dict, params: dict, path: tuple = ()):
    """(path, Param) of every float in a protocol block: its "float"
    fields, nested blocks included, and each entry of its "floats" lists,
    whose path ends in the entry's index into ``params``."""
    for key, param in table.items():
        if isinstance(param, dict):
            yield from _float_fields(param, params[key], path + (key,))
        elif param.kind == "float":
            yield path + (key,), param
        elif param.kind == "floats":
            for i in range(len(params[key])):
                yield path + (key, i), param


def _fuzz_doc(protocol: str, params=(), **overrides) -> dict:
    """The small document of ``protocol``, with ``params`` set in its block
    and the calibration ``overrides``."""
    return {"name": "fuzz", "protocol": protocol,
            protocol: {**copy.deepcopy(_FUZZ_BASE[protocol]), **dict(params)},
            "calibration": {"overrides": overrides}}


@st.composite
def _documents(draw):
    """A small document of some protocol with one or two of its float
    fields, or of the calibration's, set to a drawn value."""
    protocol = draw(st.sampled_from(sorted(_FUZZ_BASE)))
    doc = _fuzz_doc(protocol)
    params = spec_from_dict(doc).params
    fields = [((protocol, *path), param) for path, param in
              _float_fields(PROTOCOLS[protocol].params, params)]
    fields += [(("calibration", "overrides", name), None)
               for name in _CAL_FLOATS]
    # A list of distinct fields would reject more draws than it keeps.
    first = draw(st.sampled_from(fields))
    second = draw(st.lists(st.sampled_from(
        [f for f in fields if f is not first]), max_size=1))
    for path, param in [first, *second]:
        bounds = [] if param is None else [
            b for b in (param.minimum, param.maximum) if b is not None]
        value = draw(st.sampled_from(_SPECIAL + bounds) | st.floats())
        if isinstance(path[-1], int):
            *path, i = path
            entries = list(params[path[-1]])
            entries[i] = value
            value = entries
        block = doc
        for name in path[:-1]:
            block = block.setdefault(name, {})
        block[path[-1]] = value
    return doc


class TestWorstCaseRule:
    @settings(derandomize=True, deadline=None)
    @given(_documents())
    # Holes that random draws of the same strategy found, each once an
    # overflow, a traceback or an exit 3: a field sweep out of order or
    # spread past a float's square root, a second track's weight beyond
    # 2**63, a current law whose squares overflow or whose span underflows,
    # and a netsim ceiling too large for its counts or too small for its
    # outputs' std.
    @example(_fuzz_doc("nucleation_sweep", {"values": [20.0, 1e300, 26.0]}))
    @example(_fuzz_doc("nucleation_sweep", {"values": [20.0, 26.0, 1e300]}))
    @example(_fuzz_doc("fig4_twotrack", {"durations": [50.0, 1e300]}))
    @example(_fuzz_doc("nucleation_sweep", current_ref=8.6e307))
    @example(_fuzz_doc("detection_run", current_ref=1.7e308))
    @example(_fuzz_doc("fig4_twotrack", current_ref=1e-300,
                       current_threshold=0.0))
    @example(_fuzz_doc("netsim", field_min=-5.5e153))
    @example(_fuzz_doc("netsim", weight_field_slope=-4.5e-280))
    def test_document_is_refused_or_runs_finite(self, doc):
        """A document with one or two float fields drawn, from a protocol's
        ``Param`` table or the calibration, is refused by ``spec_from_dict``
        or runs to a directory whose CSV and JSON numbers are all finite.

        Integer counts are not drawn: a count of 1e12 is a size to budget,
        not a value that overflows, and is left to a work budget."""
        with tempfile.TemporaryDirectory() as tmp:
            try:
                spec = spec_from_dict(dict(doc, output_dir=tmp))
            except ValidationError:
                return
            run_dir = run_experiment(spec)
            for path in run_dir.iterdir():
                if path.suffix in (".csv", ".json"):
                    assert all(map(math.isfinite, _numbers(path))), path.name


def _flat_names(table: dict, prefix: str = ""):
    for key, param in table.items():
        if isinstance(param, dict):
            yield from _flat_names(param, f"{prefix}{key}.")
        else:
            yield prefix + key


class TestProtocolTables:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_table_matches_runner_keywords(self, protocol):
        entry = PROTOCOLS[protocol]
        keywords = [p.name for p in
                    inspect.signature(entry.run).parameters.values()
                    if p.kind is inspect.Parameter.KEYWORD_ONLY]
        assert keywords == list(entry.params)

    def test_readme_lists_every_parameter(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("### Protocol parameters")[1].split("\n#")[0]
        listed = re.findall(r"^\| `(\w+)\.([\w.]+)` \|", section, re.M)
        assert sorted(listed) == sorted(
            (protocol, name) for protocol, entry in PROTOCOLS.items()
            for name in _flat_names(entry.params))

    def test_snapshot_lists_every_parameter(self, tmp_path):
        run_dir = run_experiment(make_spec(tmp_path, "d", "detection_run",
                                           params={"pulses": 3}))
        snapshot = yaml.safe_load(
            (run_dir / "config_snapshot.yaml").read_text())
        block = snapshot["detection_run"]
        assert block["pulses"] == 3
        assert block["current_density"] == 150.0
        assert block["zone"]["center_y"] == 3.0
        assert sorted(_flat_names(block)) == sorted(
            _flat_names(PROTOCOLS["detection_run"].params))

    SMALL = {
        "nucleation_sweep": {"repeats": 3, "pulses": 4},
        "detection_run": {"pulses": 5, "p_bar": 0.4, "noise": True},
        "fig4_twotrack": {"pulses": 5},
        "montecarlo_sigma": {"trials": 1000, "p_bars": [0.4],
                             "n_pulses": [5]},
        "pareto": {"n_pulse_max": 5},
        "netsim": {"weights": "w.csv", "input": [3, 4], "trials": 20},
    }

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_snapshot_reloads_and_reproduces(self, tmp_path, protocol):
        wfile = tmp_path / "w.csv"
        wfile.write_text("1.0,-0.5\n0.25,0.75\n")
        params = dict(self.SMALL[protocol])
        if protocol == "netsim":
            params["weights"] = str(wfile)
        first = run_experiment(make_spec(tmp_path / "a", "r", protocol,
                                         seed=4, params=params))
        # The snapshot carries the matrix itself, not the CSV path.
        wfile.unlink()
        snapshot = first / "config_snapshot.yaml"
        assert "calibration_resolved" in yaml.safe_load(snapshot.read_text())
        again = run_experiment(spec_from_file(
            snapshot, output_dir=str(tmp_path / "b")))
        files = sorted(f.name for f in first.iterdir())
        assert files == sorted(f.name for f in again.iterdir())
        for name in files:
            if name != "config_snapshot.yaml":
                assert (first / name).read_bytes() == \
                    (again / name).read_bytes(), name
        reloaded = yaml.safe_load((again / "config_snapshot.yaml").read_text())
        original = yaml.safe_load(snapshot.read_text())
        assert reloaded.pop("output_dir") != original.pop("output_dir")
        assert reloaded == original

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_snapshot_bytes_are_pure_python_yaml(self, tmp_path, monkeypatch,
                                                 protocol):
        # The snapshot of a default spec is written and read through libyaml
        # when PyYAML has it: the bytes must be those of PyYAML's own
        # emitter and the document that of its own parser.
        written = []

        def recording_write_yaml(path, obj):
            written.append(obj)
            write_yaml(path, obj)

        monkeypatch.setattr(experiments, "write_yaml", recording_write_yaml)
        monkeypatch.setitem(PROTOCOLS, protocol, PROTOCOLS[protocol]._replace(
            run=lambda *args, **kwargs: {}))
        params = {"weights": [[1.0, -0.5]], "input": [3]} \
            if protocol == "netsim" else {}
        run_dir = run_experiment(make_spec(tmp_path, "s", protocol,
                                           params=params))
        text = (run_dir / "config_snapshot.yaml").read_text()
        assert text == yaml.safe_dump(experiments._jsonable(written[0]),
                                      sort_keys=True)
        assert load_document(run_dir / "config_snapshot.yaml") == \
            yaml.safe_load(text)


class TestRunDirectories:
    def test_run_is_self_describing(self, tmp_path):
        spec = make_spec(tmp_path, "p", "pareto")
        run_dir = run_experiment(spec)
        assert (run_dir / "config_snapshot.yaml").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert "skysum" in manifest["versions"]

    def test_snapshot_reproduces_run(self, tmp_path):
        spec = make_spec(tmp_path, "n", "nucleation_sweep", seed=5,
                         params={"repeats": 5, "pulses": 10})
        run_dir = run_experiment(spec)
        snapshot = run_dir / "config_snapshot.yaml"
        respec = spec_from_file(snapshot, output_dir=str(tmp_path / "again"))
        again = run_experiment(respec)
        assert (run_dir / "slopes.csv").read_bytes() == \
            (again / "slopes.csv").read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            spec = make_spec(tmp_path / sub, "mc", "montecarlo_sigma", seed=3,
                             params={"trials": 2000, "p_bars": [0.4],
                                     "n_pulses": [10, 50]})
            run_experiment(spec)
        a = (tmp_path / "a" / "mc" / "sigma.csv").read_bytes()
        b = (tmp_path / "b" / "mc" / "sigma.csv").read_bytes()
        assert a == b

    def test_failed_run_writes_nothing(self, tmp_path):
        # A parameter that fails validation exits 2, leaves no directory
        # (not even a temporary one), and leaves an earlier run's
        # directory of the same name byte-unchanged.
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"name: x\nprotocol: nucleation_sweep\n"
                       f"output_dir: {tmp_path}\n"
                       f"nucleation_sweep: {{pulses: 0}}\n")
        assert cli.main(["run", str(bad)]) == 2
        assert list(tmp_path.iterdir()) == [bad]
        run_dir = run_experiment(make_spec(tmp_path, "x", "pareto"))
        before = {f.name: f.read_bytes() for f in run_dir.iterdir()}
        assert cli.main(["run", str(bad)]) == 2
        assert {f.name: f.read_bytes() for f in run_dir.iterdir()} == before
        assert sorted(tmp_path.iterdir()) == [bad, run_dir]

    def test_rerun_replaces_another_protocols_run(self, tmp_path):
        run_experiment(make_spec(tmp_path, "x", "nucleation_sweep",
                                 params={"repeats": 2, "pulses": 5}))
        run_dir = run_experiment(make_spec(tmp_path, "x", "pareto"))
        assert sorted(f.name for f in run_dir.iterdir()) == [
            "config_snapshot.yaml", "manifest.json", "pareto.csv",
            "summary.json"]
        assert list(tmp_path.iterdir()) == [run_dir]

    def test_different_seeds_differ(self, tmp_path):
        dirs = []
        for sub, seed in (("a", 1), ("b", 2)):
            spec = make_spec(tmp_path / sub, "mc", "montecarlo_sigma",
                             seed=seed,
                             params={"trials": 2000, "p_bars": [0.4],
                                     "n_pulses": [10]})
            dirs.append(run_experiment(spec))
        assert (dirs[0] / "sigma.csv").read_bytes() != \
            (dirs[1] / "sigma.csv").read_bytes()


class TestProtocols:
    def test_nucleation_sweep_recovers_field_law(self, tmp_path):
        spec = make_spec(tmp_path, "sweep", "nucleation_sweep", seed=42)
        summary = summary_of(run_experiment(spec))
        assert summary["slope_vs_field"] == pytest.approx(-0.57, abs=0.05)

    def test_detection_run_composition(self, tmp_path):
        spec = make_spec(tmp_path, "det", "detection_run", seed=1)
        summary = summary_of(run_experiment(spec))
        assert summary["final_pulsing_delta_v_nV"] == 440.0
        assert summary["final_n_detec"] == 20
        assert summary["post_mean_nV"] == 0.0

    def test_fig4_plateaus(self, tmp_path):
        spec = make_spec(tmp_path, "f4", "fig4_twotrack", seed=7,
                         params={"noise": False})
        summary = summary_of(run_experiment(spec))
        assert summary["plateau_ratio"] == pytest.approx(2.0, rel=1e-12)
        assert summary["current_uniformity"] < 1e-3

    def test_montecarlo_sigma_agreement(self, tmp_path):
        spec = make_spec(tmp_path, "mc", "montecarlo_sigma", seed=9,
                         params={"trials": 20_000, "p_bars": [0.2, 0.6],
                                 "n_pulses": [10, 100]})
        summary = summary_of(run_experiment(spec))
        assert summary["max_rel_err_nonzero_pbar"] < 0.05

    def test_netsim_outputs(self, tmp_path):
        spec = make_spec(tmp_path, "net", "netsim", seed=2,
                         params={"weights": [[1.0, -0.5], [0.25, 0.75]],
                                 "input": [12, 8], "trials": 500})
        run_dir = run_experiment(spec)
        schedule = json.loads((run_dir / "schedule.json").read_text())
        assert len(schedule) == 8  # 2x2 sites, two polarity columns each
        summary = summary_of(run_dir)
        assert summary["states"] == 15

    @pytest.mark.parametrize("readout", ("identity", "linear_ahe"))
    def test_netsim_reads_no_track_geometry(self, tmp_path, readout):
        # Ideal transport lays out no zones, so neither track size moves
        # a byte of the outputs.
        outputs = []
        for sub, overrides in (("a", {}), ("b", {"track_width": 1.0e-9}),
                               ("c", {"track_length": 1.0e-9})):
            spec = make_spec(tmp_path / sub, "net", "netsim", seed=2,
                             params={"weights": [[1.0, -0.5], [0.25, 0.75]],
                                     "input": [12, 8], "trials": 50,
                                     "readout": readout},
                             extra={"calibration": {"overrides": overrides}})
            outputs.append(
                (run_experiment(spec) / "outputs.csv").read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_netsim_weights_from_csv(self, tmp_path):
        wfile = tmp_path / "w.csv"
        wfile.write_text("1.0,-0.5\n0.25,0.75\n")
        spec = make_spec(tmp_path, "netcsv", "netsim", seed=2,
                         params={"weights": str(wfile), "input": [3, 4]})
        run_dir = run_experiment(spec)
        assert (run_dir / "outputs.csv").exists()


class TestEmitFigureData:
    def test_figure_5c(self, tmp_path):
        run_dir = run_experiment(make_spec(tmp_path, "p", "pareto"))
        out = emit_figure_data(run_dir, "5c")
        header = out.read_text().splitlines()[0]
        assert header == "precision,energy_J,preset"

    def test_figure_2h(self, tmp_path):
        spec = make_spec(tmp_path, "s", "nucleation_sweep", seed=4,
                         params={"repeats": 5})
        run_dir = run_experiment(spec)
        out = emit_figure_data(run_dir, "2h")
        assert out.read_text().splitlines()[0] == "h_z_mT,slope_sk_per_pulse"

    def test_figure_protocol_mismatch(self, tmp_path):
        run_dir = run_experiment(make_spec(tmp_path, "p", "pareto"))
        with pytest.raises(MissingArtifact):
            emit_figure_data(run_dir, "3")

    def test_figure_2e_needs_current_sweep(self, tmp_path):
        spec = make_spec(tmp_path, "s", "nucleation_sweep", seed=4,
                         params={"repeats": 3})
        run_dir = run_experiment(spec)
        with pytest.raises(MissingArtifact):
            emit_figure_data(run_dir, "2e")
        spec2 = make_spec(tmp_path, "sc", "nucleation_sweep", seed=4,
                          params={"sweep": "current", "repeats": 3,
                                  "values": [150.0, 160.0, 171.0]})
        out = emit_figure_data(run_experiment(spec2), "2e")
        assert out.read_text().splitlines()[0] == "j_GA_m2,n_pulses,n_sk"

    # figure id -> (protocol, small run params, header, source CSV)
    FIGURE_CASES = {
        "2e": ("nucleation_sweep",
               {"sweep": "current", "values": [150.0, 171.0], "repeats": 2,
                "pulses": 3}, "j_GA_m2,n_pulses,n_sk", "traces.csv"),
        "2g": ("nucleation_sweep", {"repeats": 2, "pulses": 3},
               "h_z_mT,n_pulses,n_sk", "traces.csv"),
        "2h": ("nucleation_sweep", {"repeats": 2, "pulses": 3},
               "h_z_mT,slope_sk_per_pulse", "slopes_mean.csv"),
        "3": ("detection_run", {"pulses": 5},
              "index,phase,delta_v_nV,n_detec", "trace.csv"),
        "4e": ("fig4_twotrack", {"pulses": 5},
               "index,phase,delta_v_nV,n_detec", "trace.csv"),
        "5b": ("montecarlo_sigma",
               {"trials": 1000, "p_bars": [0.4], "n_pulses": [5, 10]},
               "p_one,n_pulse,sigma", "sigma.csv"),
        "5c": ("pareto", {"n_pulse_max": 5},
               "precision,energy_J,preset", "pareto.csv"),
    }

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_every_figure(self, tmp_path, figure_id):
        protocol, params, header, source = self.FIGURE_CASES[figure_id]
        run_dir = run_experiment(make_spec(tmp_path, "r", protocol,
                                           params=params))
        lines = emit_figure_data(run_dir, figure_id).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) - 1 == len(read_csv(run_dir / source))

    def test_unknown_figure(self, tmp_path):
        run_dir = run_experiment(make_spec(tmp_path, "p", "pareto"))
        with pytest.raises(ValidationError):
            emit_figure_data(run_dir, "9z")

    def test_missing_source_column(self, tmp_path, capsys):
        run_dir = run_experiment(make_spec(tmp_path, "d", "detection_run",
                                           params={"pulses": 3}))
        trace = run_dir / "trace.csv"
        trace.write_text(trace.read_text().replace("delta_v_nV", "dv", 1))
        with pytest.raises(MissingArtifact, match="trace.csv.*'delta_v_nV'"):
            emit_figure_data(run_dir, "3")
        assert cli.main(["emit", str(run_dir), "3"]) == 3
        assert "delta_v_nV" in capsys.readouterr().err
        assert not (run_dir / "figure_3.csv").exists()

    def test_missing_summary(self, tmp_path):
        run_dir = run_experiment(make_spec(
            tmp_path, "s", "nucleation_sweep",
            params={"repeats": 2, "pulses": 3}))
        (run_dir / "summary.json").unlink()
        for figure_id in ("2g", "2h"):
            with pytest.raises(MissingArtifact, match="summary.json"):
                emit_figure_data(run_dir, figure_id)


class TestCalibrate:
    def test_recovers_weight_law(self, tmp_path):
        cal = paper2024()
        rows = []
        for h in (20.0, 21.0, 22.0, 23.0, 24.0, 25.0, 26.0):
            w = abs(cal.weight_field_slope) * (cal.field_max - h)
            for n in range(0, 21, 5):
                rows.append({"h_z_mT": h, "n_pulses": n, "n_sk": w * n})
        result = calibrate_weight_law(rows)
        assert result["weight_field_slope"] == pytest.approx(-0.57, abs=1e-9)
        assert result["field_max"] == pytest.approx(26.0, abs=1e-6)

    def test_needs_three_fields(self):
        rows = [{"h_z_mT": 20.0, "n_pulses": n, "n_sk": n} for n in range(5)]
        with pytest.raises(ValidationError):
            calibrate_weight_law(rows)


class TestSweepExpansion:
    def test_cross_product(self):
        doc = {"name": "base", "protocol": "pareto",
               "sweep": {"pareto.m": [5, 10], "seed": [1, 2, 3]}}
        docs = expand_sweep(doc)
        assert len(docs) == 6
        assert docs[0]["name"] == "base-000"
        assert {d["pareto"]["m"] for d in docs} == {5, 10}

    def test_requires_sweep_block(self):
        with pytest.raises(ValidationError):
            expand_sweep({"name": "x"})


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "skysum.cli", *args],
                              capture_output=True, text=True)

    def test_run_spec_file(self, tmp_path):
        spec = tmp_path / "exp.yaml"
        spec.write_text(
            "name: cli-pareto\nprotocol: pareto\nseed: 1\n"
            f"output_dir: {tmp_path}\n")
        proc = self.run_cli("run", str(spec))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "cli-pareto" / "pareto.csv").exists()

    def test_validation_exit_code(self, tmp_path):
        spec = tmp_path / "bad.yaml"
        spec.write_text("name: x\nprotocol: teleport\n")
        proc = self.run_cli("run", str(spec))
        assert proc.returncode == 2
        assert "protocol" in proc.stderr

    def test_runtime_error_exit_code(self, tmp_path):
        proc = self.run_cli("emit", str(tmp_path / "no-such-run"), "5c")
        assert proc.returncode == 3

    def test_montecarlo_subcommand(self, tmp_path):
        proc = self.run_cli("montecarlo", "--trials", "2000", "--seed", "5",
                            "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "montecarlo" / "sigma.csv").exists()

    def test_emit_subcommand(self, tmp_path):
        proc = self.run_cli("pareto", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        proc = self.run_cli("emit", str(tmp_path / "pareto"), "5c")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "pareto" / "figure_5c.csv").exists()

    def test_netsim_subcommand(self, tmp_path):
        wfile = tmp_path / "w.csv"
        write_csv(wfile, (), [(1.0, 0.0), (0.0, 1.0)])
        # write_csv adds an empty header line; rewrite as plain matrix
        wfile.write_text("1.0,0.0\n0.0,1.0\n")
        proc = self.run_cli("netsim", "--weights", str(wfile),
                            "--input", "3,5", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "netsim" / "schedule.json").exists()

    def test_sweep_subcommand(self, tmp_path):
        spec = tmp_path / "grid.yaml"
        spec.write_text(
            "name: grid\nprotocol: pareto\nseed: 1\n"
            f"output_dir: {tmp_path}\n"
            "sweep:\n  pareto.m: [5, 10]\n")
        proc = self.run_cli("sweep", str(spec))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "grid-000" / "pareto.csv").exists()
        assert (tmp_path / "grid-001" / "pareto.csv").exists()

    def test_preset_flag(self, tmp_path):
        spec = tmp_path / "det.yaml"
        spec.write_text(
            "name: det\nprotocol: detection_run\nseed: 3\n"
            f"output_dir: {tmp_path}\n")
        proc = self.run_cli("run", str(spec), "--preset", "paper2024_fig4")
        assert proc.returncode == 0, proc.stderr
        snapshot = (tmp_path / "det" / "config_snapshot.yaml").read_text()
        assert "paper2024_fig4" in snapshot

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path,
                                                     capsys):
        # main reuses one parser; what one call's flags set must not reach
        # the next call.
        assert cli._parser() is cli._parser()
        parser = cli._parser()
        first = parser.parse_args(["run", "a.yaml", "--seed", "3",
                                   "--trials", "9", "--out", "x"])
        second = parser.parse_args(["run", "b.yaml"])
        assert (first.spec, first.seed, first.trials) == ("a.yaml", 3, 9)
        assert vars(second) == {**vars(first), "spec": "b.yaml", "seed": None,
                                "trials": None, "out": None}
        spec = tmp_path / "exp.yaml"
        spec.write_text("name: p\nprotocol: pareto\nseed: 1\n"
                        f"output_dir: {tmp_path}\n")
        seeds = []
        for args in (["--seed", "7", "--preset", "paper2024_fig4"], []):
            assert cli.main(["run", str(spec), *args]) == 0
            snapshot = yaml.safe_load(
                (tmp_path / "p" / "config_snapshot.yaml").read_text())
            seeds.append((snapshot["seed"], snapshot["calibration"]["preset"]))
        assert seeds == [(7, "paper2024_fig4"), (1, "paper2024")]
        assert capsys.readouterr().out.split() == [str(tmp_path / "p")] * 2

    def test_calibrate_subcommand(self, tmp_path):
        rows = []
        for h in (20.0, 22.0, 24.0, 26.0):
            for n in range(0, 25, 4):
                rows.append((h, n, 0.57 * (26.0 - h) * n))
        traces = tmp_path / "traces.csv"
        write_csv(traces, ("h_z_mT", "n_pulses", "n_sk"), rows)
        out = tmp_path / "calibration.yaml"
        proc = self.run_cli("calibrate", str(traces), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "weight_field_slope" in out.read_text()

    @pytest.mark.parametrize("bad_row", ["20,1", "20,1,many", "20,1,nan"])
    def test_calibrate_bad_row_exits_2(self, tmp_path, capsys, bad_row):
        traces = tmp_path / "traces.csv"
        good = [f"{h},{n},{0.57 * (26.0 - h) * n}"
                for h in (20.0, 22.0, 24.0) for n in range(0, 25, 4)]
        traces.write_text("\n".join(["h_z_mT,n_pulses,n_sk", *good[:9],
                                      bad_row, *good[9:]]) + "\n")
        out = tmp_path / "calibration.yaml"
        assert cli.main(["calibrate", str(traces), "--out", str(out)]) == 2
        assert "row 10" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pulses", [[0, 4], [1, 1, 1]],
                             ids=["two-rows", "one-n_pulses"])
    def test_calibrate_unfittable_field_exits_2(self, tmp_path, capsys,
                                                pulses):
        # Fields 20 and 22 can be fitted; field 24 cannot.
        rows = [(h, n, 0.57 * (26.0 - h) * n)
                for h in (20.0, 22.0) for n in range(0, 25, 4)]
        rows += [(24.0, n, 1.14 * n) for n in pulses]
        traces = tmp_path / "traces.csv"
        write_csv(traces, ("h_z_mT", "n_pulses", "n_sk"), rows)
        out = tmp_path / "calibration.yaml"
        assert cli.main(["calibrate", str(traces), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: traces: field 24 ")
        assert not out.exists()

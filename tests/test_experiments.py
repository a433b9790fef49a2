import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from skysum import MissingArtifact, ValidationError, cli, paper2024
from skysum.config import spec_from_dict, spec_from_file
from skysum.experiments import (
    FIGURE_IDS,
    PROTOCOLS,
    calibrate_weight_law,
    emit_figure_data,
    expand_sweep,
    read_csv,
    run_experiment,
    write_csv,
)


def make_spec(tmp_path, name, protocol, seed=0, params=None, extra=None):
    doc = {"name": name, "protocol": protocol, "seed": seed,
           "output_dir": str(tmp_path), protocol: params or {}}
    doc.update(extra or {})
    return spec_from_dict(doc)


def summary_of(run_dir):
    return json.loads((run_dir / "summary.json").read_text())


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

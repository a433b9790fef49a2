"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that a run emits every metric that BENCHMARK.json names, with its
unit, and that a deliberately corrupted program output is counted as a
failed operation.  It is not part of the package's test suite.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from skysum import cli, crossbar, experiments, netmap  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _measure(workload: str, tmp_path: Path, trace: int = 0):
    wl = WORKLOADS[workload](seed=3, tiny=True)
    return run.measure(wl, tmp_path, 0.0, trace, tmp_path / "spans.csv")


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(workload, tmp_path):
    p, metrics, _ = _measure(workload, tmp_path)
    assert p.failed == 0, p.failures
    assert {k: u for k, (_, u) in metrics.items()} == _units("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics_emitted_with_units(workload, tmp_path):
    p, metrics, _ = _measure(workload, tmp_path, trace=1)
    assert p.failed == 0, p.failures
    assert {k: u for k, (_, u) in metrics.items()} == _units("per_layer")
    # Holds by construction: spans nest and each closes in a finally.
    self_s = [v for k, (v, _) in metrics.items() if k.endswith(".self_s")]
    assert min(self_s) >= 0
    assert sum(self_s) == pytest.approx(metrics["trace.wall_s"][0], abs=1e-6)
    assert (tmp_path / "spans.csv").is_file()


def _corrupts(monkeypatch, owner, name, corrupt):
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a, **k: corrupt(original(*a, **k), a, k))


def test_sigma_off_by_ten_percent_fails(monkeypatch, tmp_path):
    _corrupts(monkeypatch, experiments, "monte_carlo_sigma",
              lambda sigma, a, k: sigma * 1.1)
    p, metrics, _ = _measure("mc_sigma", tmp_path)
    assert p.failed > 0
    assert metrics["success_rate"][0] < 1.0


def test_count_above_capacity_fails(monkeypatch, tmp_path):
    def overfill(res, args, kwargs):
        per_track = res.per_track.copy()
        per_track[0, 0] = args[0].zones[0][0].capacity + 1
        return dataclasses.replace(res, per_track=per_track,
                                   n_detec=per_track.sum(axis=0))

    _corrupts(monkeypatch, crossbar, "run_weighted_sum", overfill)
    p, metrics, _ = _measure("crossbar_kinematic", tmp_path)
    assert p.failed == p.attempted
    assert any("capacity" in f for f in p.failures)


def test_negative_stochastic_count_fails(monkeypatch, tmp_path):
    def negate(counts, args, kwargs):
        return -counts

    _corrupts(monkeypatch, netmap, "monte_carlo_column_counts", negate)
    p, _, _ = _measure("netsim_infer", tmp_path)
    assert any("negative" in f for f in p.failures)


def test_wrong_expected_inference_fails(monkeypatch, tmp_path):
    def shift(out, args, kwargs):
        if kwargs.get("mode", "expected") == "expected":
            return np.asarray(out) + 1.0
        return out

    _corrupts(monkeypatch, netmap, "infer", shift)
    p, _, _ = _measure("netsim_infer", tmp_path)
    assert p.failed == p.attempted


def test_missing_figure_fails(monkeypatch, tmp_path):
    def drop(path, args, kwargs):
        Path(path).unlink()
        return path

    _corrupts(monkeypatch, cli, "emit_figure_data", drop)
    p, _, _ = _measure("protocol_suite", tmp_path)
    assert p.failed > 0
    assert any("missing" in f for f in p.failures)


def test_nondeterministic_run_fails(monkeypatch, tmp_path):
    calls = iter(range(10**6))
    _corrupts(monkeypatch, experiments, "write_json",
              lambda none, a, k: Path(a[0]).write_text(str(next(calls))))
    p, _, _ = _measure("protocol_suite", tmp_path)
    assert any("byte-identical" in f for f in p.failures)

"""Seeded workloads of the skysum benchmark.

A workload turns a seed into rounds of operations.  Every round holds the
same mix of operation sizes, so runs with different seeds do the same
amount of work and their throughputs compare; the seed only chooses the
random inputs (weights, pulse counts, per-operation seeds); the order of
operations is fixed, because it changes how memory is reused.  The program
receives the generated inputs and nothing else.

Each operation carries its count of simulated pulse-site events
(trials x pulses x crossings), the call into skysum that is timed, and a
check of the result that is not timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

from skysum import cli, config, crossbar, experiments, netmap
from skysum.device import PulseTrain
from skysum.nucleation import StochasticModel

#: Relative tolerance of the Monte Carlo sigma checks (acceptance criteria
#: 03 and 04 use the same 5 %).
SIGMA_RTOL = 0.05


@dataclass
class Op:
    """One timed call into skysum plus its untimed correctness check.

    ``check`` returns a list of failure messages; an empty list means the
    result is correct.
    """

    label: str
    pulses: int
    run: Callable[[], Any]
    check: Callable[[Any], list]


def _seeds(rng: np.random.Generator, n: int) -> list:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _resolve_calibration(doc: dict):
    cal, _ = config.resolve_calibration(doc, doc.get("protocol", ""))
    return cal


class Workload:
    """Base: ``round(k, outdir)`` returns round k's operations.

    ``setup_docs`` are the spec documents (or calibration-only documents)
    that a fresh interpreter resolves when set-up time is measured.
    Subclasses also take ``tiny``, which shrinks every size for the
    self-test and the warm-up.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def rng(self, *key) -> np.random.Generator:
        """Generator for one use of the seed: (0, k) is round k."""
        return np.random.default_rng([self.seed, *key])

    def setup_docs(self) -> list:
        raise NotImplementedError

    def round(self, k: int, outdir: Path) -> list:
        raise NotImplementedError


class McSigma(Workload):
    """sigma = sqrt(p_bar / N) Monte Carlo points through ``run_experiment``,
    plus the sqrt(M) averaging point.  One operation is one sigma point."""

    name = "mc_sigma"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.p_bars = (0.4,) if tiny else (0.2, 0.4, 0.8)
        self.n_pulses = (10, 20) if tiny else (10, 100, 1000)
        self.trials = 20_000 if tiny else 100_000
        self.sqrt_m = (10, 20, 0.4)  # M, N, p_bar

    def setup_docs(self) -> list:
        return [self._doc(0, 0.4, 10, "runs")]

    def _doc(self, seed: int, p_bar: float, n: int, outdir: str) -> dict:
        return {"name": f"sigma-p{p_bar}-n{n}", "protocol": "montecarlo_sigma",
                "seed": seed, "output_dir": outdir,
                "montecarlo_sigma": {"p_bars": [p_bar], "n_pulses": [n],
                                     "trials": self.trials}}

    def round(self, k: int, outdir: Path) -> list:
        rng = self.rng(0, k)
        points = [(p, n) for p in self.p_bars for n in self.n_pulses]
        seeds = _seeds(rng, len(points) + 1)
        ops = [self._sigma_op(p, n, s, outdir)
               for (p, n), s in zip(points, seeds)]
        ops.append(self._sqrt_m_op(seeds[-1]))
        return ops

    def _sigma_op(self, p_bar: float, n: int, seed: int, outdir: Path) -> Op:
        spec = config.spec_from_dict(self._doc(seed, p_bar, n, str(outdir)))
        analytic = math.sqrt(p_bar / n)

        def check(run_dir):
            rows = experiments.read_csv(Path(run_dir) / "sigma.csv")
            if len(rows) != 1:
                return [f"sigma.csv has {len(rows)} rows, expected 1"]
            sigma = float(rows[0]["sigma_mc"])
            if abs(sigma / analytic - 1.0) > SIGMA_RTOL:
                return [f"sigma(p={p_bar}, N={n}) = {sigma:.6g}, "
                        f"analytic {analytic:.6g}"]
            return []

        return Op(f"sigma-p{p_bar}-n{n}", self.trials * n,
                  lambda: experiments.run_experiment(spec), check)

    def _sqrt_m_op(self, seed: int) -> Op:
        m, n, p_bar = self.sqrt_m
        model = StochasticModel(p_bar)
        analytic = math.sqrt(p_bar / n) / math.sqrt(m)

        def check(sigma):
            if abs(sigma / analytic - 1.0) > SIGMA_RTOL:
                return [f"sqrt(M) sigma = {sigma:.6g}, analytic {analytic:.6g}"]
            return []

        return Op(f"sqrt-m{m}-n{n}", self.trials * n * m,
                  lambda: crossbar.monte_carlo_sum_relative_std(
                      m, n, model, self.trials, seed),
                  check)


class CrossbarKinematic(Workload):
    """Kinematic ``run_weighted_sum`` on M x 16 crossbars, 40 pulses per
    track.  One operation is one evaluation."""

    name = "crossbar_kinematic"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        # Each round spans the 32..64 range with one noisy evaluation in
        # four; the doubled middle height keeps the median latency inside
        # one size class, and the p90 inside the largest.  The noisy one is
        # always the second middle height, so every round has the same mix.
        self.heights = (2, 3, 3, 4) if tiny else (32, 48, 48, 64)
        self.noisy = 2
        self.columns = 4 if tiny else 16
        self.pulses = 4 if tiny else 40
        self.model = StochasticModel(0.4)
        self.cal = _resolve_calibration(self.setup_docs()[0])

    def setup_docs(self) -> list:
        # 16 columns at the default 10 um pitch need a 170 um track.
        return [{"calibration": {"preset": "paper2024",
                                 "overrides": {"track_length": 170.0}}}]

    def round(self, k: int, outdir: Path) -> list:
        rng = self.rng(0, k)
        seeds = _seeds(rng, len(self.heights))
        ops = []
        for i, m in enumerate(self.heights):
            weights = rng.uniform(0.0, 2.0, size=(m, self.columns))
            ops.append(self._op(weights, seeds[i], noise=(i == self.noisy),
                                rerun=(k == 0 and i == 0)))
        return ops

    def _op(self, weights, seed: int, noise: bool, rerun: bool) -> Op:
        cal = self.cal
        config_ = crossbar.build_crossbar(cal, weights)
        train = PulseTrain(self.pulses, cal.current_ref, cal.duration_ref)
        inputs = crossbar.InputVector((train,) * config_.m_tracks)
        capacity = np.array([[z.capacity for z in row] for row in config_.zones])

        def run():
            return crossbar.run_weighted_sum(config_, inputs, self.model, cal,
                                             seed=seed, noise=noise)

        def check(res):
            bad = []
            if not np.array_equal(res.n_detec, res.per_track.sum(axis=0)):
                bad.append("n_detec != per_track.sum(0)")
            if np.any(res.per_track > capacity):
                bad.append("a crossing holds more skyrmions than its capacity")
            if not noise and not np.allclose(
                    res.output, cal.per_skyrmion_voltage_mean * res.n_detec,
                    rtol=1e-12, atol=0.0):
                bad.append("noise-free output != 22 nV x count")
            if rerun:
                again = run()
                if not (np.array_equal(again.per_track, res.per_track)
                        and np.array_equal(again.output, res.output)):
                    bad.append("rerun with the same seed differs")
            return bad

        m, l = weights.shape
        return Op(f"kinematic-{m}x{l}{'-noise' if noise else ''}",
                  m * self.pulses * l, run, check)


class NetsimInfer(Workload):
    """A seeded signed 64 x 16 matrix quantised to 15 states; each
    operation infers one input vector in expected mode and in stochastic
    mode (1000 trials)."""

    name = "netsim_infer"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        shape = (6, 3) if tiny else (64, 16)
        self.per_round = 2 if tiny else 8
        self.trials = 50 if tiny else 1000
        self.max_pulses = 40
        self.model = StochasticModel(0.4)
        self.matrix = self.rng(1).uniform(-1.0, 1.0, size=shape)
        self.cal = _resolve_calibration(self.setup_docs()[0])
        self.layer = netmap.quantize(self.matrix, states=15, cal=self.cal)

    def setup_docs(self) -> list:
        return [{"name": "netsim", "protocol": "netsim",
                 "netsim": {"weights": self.matrix.tolist(),
                            "input": [0] * self.matrix.shape[0],
                            "trials": self.trials}}]

    def round(self, k: int, outdir: Path) -> list:
        rng = self.rng(0, k)
        m = self.layer.shape[0]
        xs = rng.integers(0, self.max_pulses + 1, size=(self.per_round, m))
        seeds = _seeds(rng, self.per_round)
        return [self._op(x, s, recheck=(k == 0 and i == 0))
                for i, (x, s) in enumerate(zip(xs, seeds))]

    def _stochastic(self, layer, x, seed):
        return netmap.infer(layer, x, mode="stochastic", cal=self.cal,
                            stochastic=self.model, seed=seed,
                            trials=self.trials)

    def _op(self, x, seed: int, recheck: bool) -> Op:
        layer = self.layer

        def run():
            expected = netmap.infer(layer, x, mode="expected", cal=self.cal)
            return expected, self._stochastic(layer, x, seed)

        def check(result):
            expected, stochastic = result
            bad = []
            if not np.allclose(expected, x @ layer.quantized):
                bad.append("expected mode != x @ quantized")
            if stochastic.shape != (self.trials, layer.shape[1]):
                bad.append(f"stochastic output shape {stochastic.shape}")
            if recheck:
                if not np.array_equal(self._stochastic(layer, x, seed),
                                      stochastic):
                    bad.append("rerun with the same seed differs")
                # Each output is (positive count - negative count) * scale,
                # so either half alone must keep its sign.
                zero = np.zeros_like(layer.w_pos)
                pos = self._stochastic(
                    dataclasses.replace(layer, w_neg=zero), x, seed)
                neg = self._stochastic(
                    dataclasses.replace(layer, w_pos=zero), x, seed)
                if np.any(pos < 0) or np.any(neg > 0):
                    bad.append("negative stochastic column counts")
            return bad

        pulses = self.trials * int(x.sum()) * 2 * layer.shape[1]
        return Op("infer", pulses, run, check)


class ProtocolSuite(Workload):
    """Every CLI protocol except montecarlo_sigma, run in-process from a
    seeded spec file into a fresh directory, followed by every figure
    emit the protocol supports.  One operation is one run plus its emits."""

    name = "protocol_suite"

    FIGURES = {
        "nucleation_sweep": ("2g", "2h"),
        "detection_run": ("3",),
        "fig4_twotrack": ("4e",),
        "pareto": ("5c",),
        "netsim": (),
    }
    #: Pulse-site events per run at the protocol defaults: field sweep of
    #: 13 values x 100 repeats x 20 pulses; 20 detection pulses; 2 tracks x
    #: 20 pulses; pareto simulates none.  netsim is counted per input.
    DEFAULT_PULSES = {"nucleation_sweep": 13 * 100 * 20, "detection_run": 20,
                      "fig4_twotrack": 2 * 20, "pareto": 0}

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.netsim_shape = (8, 4)
        self.netsim_trials = 20 if tiny else 200
        self.protocols = (("detection_run", "pareto", "netsim") if tiny
                          else tuple(self.FIGURES))

    def _doc(self, protocol: str, seed: int, outdir: str,
             rng: np.random.Generator | None = None) -> dict:
        doc = {"name": protocol, "protocol": protocol, "seed": seed,
               "output_dir": outdir}
        if protocol == "netsim":
            m, l = self.netsim_shape
            if rng is None:
                weights, inputs = np.zeros((m, l)), np.zeros(m, dtype=int)
            else:
                weights = rng.uniform(-1.0, 1.0, size=(m, l))
                inputs = rng.integers(0, 41, size=m)
            doc["netsim"] = {"weights": weights.tolist(),
                             "input": [int(v) for v in inputs],
                             "trials": self.netsim_trials}
        return doc

    def setup_docs(self) -> list:
        return [self._doc(p, 0, "runs") for p in self.protocols]

    def round(self, k: int, outdir: Path) -> list:
        rng = self.rng(0, k)
        seeds = _seeds(rng, len(self.protocols))
        ops = []
        for i, (protocol, seed) in enumerate(zip(self.protocols, seeds)):
            doc = self._doc(protocol, seed, str(outdir / str(i)), rng)
            spec_path = outdir / f"{i}-{protocol}.yaml"
            spec_path.write_text(yaml.safe_dump(doc, sort_keys=True))
            if protocol == "netsim":
                pulses = (self.netsim_trials * sum(doc["netsim"]["input"])
                          * 2 * self.netsim_shape[1])
            else:
                pulses = self.DEFAULT_PULSES[protocol]
            ops.append(self._op(protocol, spec_path,
                                Path(doc["output_dir"]) / protocol, pulses,
                                rerun=(k == 0)))
        return ops

    def _op(self, protocol: str, spec_path: Path, run_dir: Path, pulses: int,
            rerun: bool) -> Op:
        figures = self.FIGURES[protocol]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(["run", str(spec_path)])]
                codes += [cli.main(["emit", str(run_dir), f]) for f in figures]
            return codes

        def check(codes):
            if any(codes):
                return [f"{protocol}: exit codes {codes}"]
            wanted = ["summary.json"] + [f"figure_{f}.csv" for f in figures]
            missing = [f for f in wanted if not (run_dir / f).is_file()]
            if missing:
                return [f"{protocol}: missing {missing}"]
            if rerun:
                first = run_dir.with_name(run_dir.name + ".first")
                os.rename(run_dir, first)
                if any(run()):
                    return [f"{protocol}: rerun failed"]
                if _tree_bytes(first) != _tree_bytes(run_dir):
                    return [f"{protocol}: rerun is not byte-identical"]
            return []

        return Op(protocol, pulses, run, check)


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


WORKLOADS = {w.name: w for w in (McSigma, CrossbarKinematic, NetsimInfer,
                                 ProtocolSuite)}

"""skysum benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  The workload runs whole rounds of operations until ``--seconds``
have passed, checks every result and prints the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.

Operation times are reported relative to a reference kernel, a fixed
piece of work that does not touch skysum and is timed between operations
throughout the run: a shared host can change speed by tens of percent
over tens of seconds, and the ratio cancels most of that drift.  The raw
wall-time figures are printed on the info line.

With ``--trace 1`` the workload first runs untraced for half the time,
then repeats the same rounds with every layer traced; the difference of
the two summed operation times is the tracing overhead, and the spans are
written to ``.bench_out/spans-<workload>.csv``.
"""

from __future__ import annotations

import os

# One thread for any numerical library: the benchmark measures a single
# process on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for set-up; one more runs first to warm the
#: file caches and is not counted.
SETUP_SAMPLES = 12

#: Reference-kernel samples per run.
REF_SAMPLES = 40

SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import skysum, skysum.experiments, skysum.cli
from skysum.config import resolve_calibration, spec_from_dict
for doc in json.load(sys.stdin):
    if "protocol" in doc:
        spec_from_dict(doc)
    else:
        resolve_calibration(doc, "")
"""


def import_program():
    """Import skysum from this checkout's ``src``; exit with an error if it
    is absent."""
    if not (SRC / "skysum" / "__init__.py").is_file():
        sys.exit(f"error: no skysum package under {SRC}")
    sys.path.insert(0, str(SRC))
    import skysum
    if Path(skysum.__file__).resolve().parent != SRC / "skysum":
        sys.exit(f"error: imported skysum from {skysum.__file__}")
    return skysum


def reference_kernel() -> None:
    """Fixed work that does not touch skysum, made of the three kinds of
    work the workloads spend their time on: an interpreted loop, many
    small numpy draws, and draws and comparisons on arrays that fit in the
    L2 cache.  Its median time in a run is the unit ``ref`` of the
    relative metrics."""
    import numpy as np

    total = 0
    for i in range(150_000):
        total += i * i % 7
    rng = np.random.default_rng(0)
    for _ in range(1_000):
        rng.binomial(20, 0.4, size=64).sum()
    for _ in range(30):
        u = rng.random((1000, 20), dtype=np.float32)
        counts = np.ones((1000, 20), dtype=np.int64)
        counts += u < 0.3
        counts -= u < 0.1
        counts.sum(axis=1)


class Sampler:
    """Wall times of ``fn``, taken between operations and spread evenly
    over the measured pass, so that a slow spell of the host does not
    decide the median: after each operation, one sample for every
    ``every`` seconds that have passed since the last.  Any still missing
    are taken after the pass.  The first call warms up and is not
    counted."""

    def __init__(self, fn, count: int, every: float):
        self.fn = fn
        self.count = count
        self.every = every
        self.times: list = []
        self.sample()
        self.times.clear()
        self.due = perf_counter()

    def sample(self) -> None:
        t0 = perf_counter()
        self.fn()
        self.times.append(perf_counter() - t0)

    def between_ops(self) -> None:
        now = perf_counter()
        while len(self.times) < self.count and now >= self.due:
            self.sample()
            self.due += self.every

    def median(self) -> float:
        while len(self.times) < self.count:
            self.sample()
        return statistics.median(self.times)


def setup_sampler(workload, seconds: float) -> Sampler:
    """Fresh interpreters that import the package and resolve the
    workload's calibration and specs."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    payload = json.dumps(workload.setup_docs())
    return Sampler(lambda: subprocess.run(cmd, input=payload, text=True,
                                          check=True),
                   SETUP_SAMPLES, seconds / SETUP_SAMPLES)


def reference_sampler(seconds: float) -> Sampler:
    return Sampler(reference_kernel, REF_SAMPLES, seconds / REF_SAMPLES)


@dataclass
class Pass:
    """Outcome of running rounds of operations."""

    rounds: int = 0
    latencies: list = field(default_factory=list)
    pulses: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_pass(workload, workdir: Path, *, seconds: float | None = None,
             rounds: int | None = None, tracer=None,
             between_ops=None) -> Pass:
    """Run whole rounds until ``rounds`` are done, or for about ``seconds``:
    the pass stops at the round end nearest to that time.

    Only the operation itself is timed; building the inputs, checks,
    reruns and clean-up are the benchmark's own time.  With a tracer,
    tracing is switched on only while an operation runs, so everything
    else counts as the benchmark's own time.
    """
    out = Pass()
    start = perf_counter()
    while True:
        rdir = workdir / f"round-{out.rounds}"
        rdir.mkdir()
        for op in workload.round(out.rounds, rdir):
            error = None
            if tracer:
                tracer.active = True
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"{op.label}: {type(exc).__name__}: {exc}"
            out.latencies.append(perf_counter() - t0)
            if tracer:
                tracer.active = False
            out.pulses += op.pulses
            if error is None:
                try:
                    problems = op.check(result)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                error = "; ".join(f"{op.label}: {p}" for p in problems) or None
            if error is not None:
                out.failed += 1
                out.failures.append(error)
            if between_ops:
                between_ops()
        shutil.rmtree(rdir)
        out.rounds += 1
        if rounds is not None and out.rounds >= rounds:
            break
        elapsed = perf_counter() - start
        if seconds is not None and elapsed * (1 + 0.5 / out.rounds) >= seconds:
            break
    out.wall_s = perf_counter() - start
    return out


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile (q in 0..100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(workload, workdir: Path, seconds: float) -> tuple:
    setup = setup_sampler(workload, seconds)
    refs = reference_sampler(seconds)

    def between_ops():
        setup.between_ops()
        refs.between_ops()

    p = run_pass(workload, workdir, seconds=seconds, between_ops=between_ops)
    busy = sum(p.latencies)
    ref = refs.median()
    p50, p90 = percentile(p.latencies, 50), percentile(p.latencies, 90)
    metrics = {
        "setup_s": (setup.median(), "s"),
        "ops_per_ref": (p.attempted / busy * ref, "1/ref"),
        "pulses_per_ref": (p.pulses / busy * ref, "1/ref"),
        "op_p50_ref": (p50 / ref, "ref"),
        "op_p90_ref": (p90 / ref, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "success_rate": (1.0 - p.failed / p.attempted, "ratio"),
    }
    beyond = sum(t > p90 for t in p.latencies)
    info = (f"rounds={p.rounds} ops={p.attempted} failed={p.failed} "
            f"error_rate={p.failed / p.attempted:.6g} "
            f"samples_beyond_p90={beyond} wall_s={p.wall_s:.3f} "
            f"ref_s={ref:.6g} ops_per_s={p.attempted / busy:.6g} "
            f"pulses_per_s={p.pulses / busy:.6g} op_p50_s={p50:.6g} "
            f"op_p90_s={p90:.6g}")
    return p, metrics, info


def traced(workload, workdir: Path, seconds: float, spans_path: Path) -> tuple:
    from tracing import BENCH, Tracer, layer_metrics

    refs = reference_sampler(seconds / 2.0)
    plain = run_pass(workload, workdir, seconds=seconds / 2.0,
                     between_ops=refs.between_ops)
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.begin(BENCH, "pass")
        p = run_pass(workload, workdir, rounds=plain.rounds, tracer=tracer)
        tracer.end(root)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, root)
    metrics["trace.overhead_s"] = (sum(p.latencies) - sum(plain.latencies),
                                   "s")
    metrics["bench.ref_s"] = (refs.median(), "s")
    tracer.write(spans_path)
    info = (f"rounds={p.rounds} ops={p.attempted} failed={p.failed} "
            f"spans={len(tracer.spans)} untraced_wall_s={plain.wall_s:.3f} "
            f"traced_wall_s={p.wall_s:.3f}")
    return p, metrics, info


def measure(workload, workdir: Path, seconds: float, trace: int,
            spans_path: Path) -> tuple:
    """(pass, metrics, info line) of one measured run; metrics map a name
    to (value, unit)."""
    if trace:
        return traced(workload, workdir, seconds, spans_path)
    return end_to_end(workload, workdir, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    skysum = import_program()
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    print(f"# machine: nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"skysum={skysum.__version__}")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        # Warm-up: a tiny round loads lazily imported code and fills caches.
        run_pass(cls(args.seed, tiny=True), workdir, rounds=1)
        spans = ROOT / ".bench_out" / f"spans-{args.workload}.csv"
        p, metrics, info = measure(cls(args.seed), workdir, args.seconds,
                                   args.trace, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    print(f"# workload={args.workload} seed={args.seed} {info}")
    for message in p.failures[:20]:
        print(f"# FAIL {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": p.failed == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

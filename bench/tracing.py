"""Per-layer tracing of skysum from outside the package.

Every public function of a layer module is wrapped, and each module
attribute that refers to it is replaced, so calls are caught where the
name is looked up (``crossbar.advance``, ``readout.sample_pulse_count``,
``experiments.write_csv`` ...).  A wrapper records one span (layer, name,
start, end, parent) in memory and updates the layer's counters; spans are
written out when the run ends.  A layer's self time is the time of its
spans minus the time of their child spans, so self times of all layers,
the benchmark's own included, add up to the traced wall time.
"""

from __future__ import annotations

import csv
import functools
import inspect
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from skysum import transport

#: Traced layers, named after their modules.  ``bench`` is the benchmark's
#: own time: everything outside a call into skysum.
LAYERS = ("rng", "nucleation", "transport", "readout", "crossbar", "netmap",
          "analysis", "experiments", "config", "cli")
BENCH = "bench"


def _nucleation_counts(c, args, kwargs, result):
    """Samples drawn and bytes computed from shape and dtype: one int64
    count plus one uniform draw per random component of the weight."""
    w, model = args[0], args[1]
    dtype = args[4] if len(args) > 4 else kwargs.get("dtype", np.float64)
    n = int(np.size(result))
    uniforms = 0 if w == 0 else int(w != int(w)) + int(model.p_bar > 0)
    c["nucleation.samples"] += n
    c["nucleation.bytes_computed"] += n * (8 + uniforms * np.dtype(dtype).itemsize)


def _advance_counts(c, args, kwargs, result):
    pop = args[0]
    c["transport.particle_steps"] += len(pop.ids)
    c["transport.live_steps"] += int(np.count_nonzero(pop.alive))


def _readout_sample(c, args, kwargs, result):
    c["readout.samples"] += 1


def _weighted_sum_counts(c, args, kwargs, result):
    c["crossbar.detected"] += int(result.n_detec.sum())
    c["crossbar.expected"] += float(result.expected.sum())


def _fig4_counts(c, args, kwargs, result):
    config, specs = args[0], list(args[1])
    pulsing = result.mask("pulsing")
    if pulsing.any():
        c["crossbar.detected"] += int(result.n_detec[pulsing][-1])
    c["crossbar.expected"] += float(sum(config.weights[t, 0] * specs[t].count
                                        for t in range(len(specs))))


def _column_counts(c, args, kwargs, result):
    # Called by netmap.infer in stochastic mode: mean sampled column totals
    # against the programmed expectation sum_i w_ij N_i.
    config, inputs = args[0], args[1]
    pulses = np.array([p.count for p in inputs.pulses_per_track], dtype=float)
    c["netmap.stochastic_sum"] += float(result.mean(axis=0).sum())
    c["netmap.expected_sum"] += float((pulses @ config.weights).sum())


def _file_written(c, args, kwargs, result):
    c["experiments.files_written"] += 1
    c["experiments.bytes_written"] += os.path.getsize(args[0])


def _file_read(c, args, kwargs, result):
    c["experiments.bytes_read"] += os.path.getsize(args[0])


COUNTERS = {
    ("nucleation", "sample_pulse_counts"): _nucleation_counts,
    ("transport", "advance"): _advance_counts,
    ("readout", "hall_voltage"): _readout_sample,
    ("readout", "mtj_activation"): _readout_sample,
    ("crossbar", "run_weighted_sum"): _weighted_sum_counts,
    ("crossbar", "run_fig4_protocol"): _fig4_counts,
    ("crossbar", "monte_carlo_column_counts"): _column_counts,
    ("experiments", "write_csv"): _file_written,
    ("experiments", "write_json"): _file_written,
    ("experiments", "write_yaml"): _file_written,
    ("experiments", "read_csv"): _file_read,
}


class Tracer:
    """Span recorder.  Spans are [layer, name, start_ns, end_ns, parent]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: Counter = Counter()
        self.active = False
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def begin(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, name, 0, 0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.spans[idx][2] = perf_counter_ns()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, layer: str, name: str, fn):
        count = COUNTERS.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap each layer's public functions wherever they are looked up."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "skysum" or name.startswith("skysum.")}
        wrapped = {}
        for layer in LAYERS:
            mod = modules["skysum." + layer]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patch(mod, name, wrapped[id(value)][1])
        spawn = transport.SkyrmionPopulation.spawn
        self._patch(transport.SkyrmionPopulation, "spawn",
                    self._wrap("transport", "spawn", spawn))

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- results -----------------------------------------------------------

    def self_times_ns(self) -> tuple:
        """(self ns per layer, entries per layer); an entry is a span whose
        parent belongs to another layer."""
        child = [0] * len(self.spans)
        for layer, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: Counter = Counter()
        entries: Counter = Counter()
        for i, (layer, _, start, end, parent) in enumerate(self.spans):
            self_ns[layer] += end - start - child[i]
            if parent < 0 or self.spans[parent][0] != layer:
                entries[layer] += 1
        return self_ns, entries

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "parent", "layer", "name", "start_ns",
                          "end_ns"))
            for i, (layer, name, start, end, parent) in enumerate(self.spans):
                out.writerow((i, parent, layer, name, start, end))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, root: int) -> dict:
    """Per-layer metrics of a traced pass whose root span is ``root``.

    Ratios whose layer was never reached read 0 (see the layer's calls).
    """
    self_ns, entries = tracer.self_times_ns()
    c = tracer.counters
    m = {"rng.streams": (entries["rng"], "count")}
    for layer in LAYERS + (BENCH,):
        if layer not in ("rng", "config", "cli", BENCH):
            m[f"{layer}.calls"] = (entries[layer], "count")
        m[f"{layer}.self_s"] = (self_ns[layer] / 1e9, "s")
    m.update({
        "nucleation.samples": (c["nucleation.samples"], "count"),
        "nucleation.bytes_computed": (c["nucleation.bytes_computed"], "bytes"),
        "transport.particle_steps": (c["transport.particle_steps"], "count"),
        "transport.live_fraction": (_ratio(c["transport.live_steps"],
                                           c["transport.particle_steps"]),
                                    "ratio"),
        "readout.samples": (c["readout.samples"], "count"),
        "crossbar.detected_fraction": (_ratio(c["crossbar.detected"],
                                              c["crossbar.expected"]), "ratio"),
        "netmap.mean_bias": (_ratio(c["netmap.stochastic_sum"],
                                    c["netmap.expected_sum"]) - 1.0
                             if c["netmap.expected_sum"] else 0.0, "ratio"),
        "experiments.files_written": (c["experiments.files_written"], "count"),
        "experiments.bytes_written": (c["experiments.bytes_written"], "bytes"),
        "experiments.bytes_read": (c["experiments.bytes_read"], "bytes"),
    })
    _, _, start, end, _ = tracer.spans[root]
    m["trace.wall_s"] = ((end - start) / 1e9, "s")
    return m

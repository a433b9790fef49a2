"""Command-line entry point for running and inspecting experiments.

Exit codes: 0 on success, 2 on validation errors, 3 on runtime failures.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import load_document, spec_from_dict, spec_from_file
from .errors import SkysumError, ValidationError
from .experiments import (
    calibrate_weight_law,
    emit_figure_data,
    expand_sweep,
    read_csv,
    run_experiment,
    write_yaml,
)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=None,
                        help="override the spec seed")
    parser.add_argument("--preset", default=None,
                        help="calibration preset, e.g. paper2024")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--trials", type=int, default=None,
                        help="override the trial count (montecarlo_sigma "
                             "and netsim)")


def _overrides(args) -> dict:
    return {"seed": args.seed, "output_dir": args.out, "preset": args.preset,
            "trials": args.trials}


def _cmd_run(args) -> int:
    print(run_experiment(spec_from_file(args.spec, **_overrides(args))))
    return 0


def _cmd_sweep(args) -> int:
    # Resolve the whole grid before the first run, so a bad grid point
    # leaves no run directory behind.
    specs = [spec_from_dict(sub, **_overrides(args))
             for sub in expand_sweep(load_document(args.spec))]
    for spec in specs:
        print(run_experiment(spec))
    return 0


def _builtin_spec(name: str, protocol: str, args, params: dict) -> int:
    doc = {"name": name, "protocol": protocol, protocol: params}
    print(run_experiment(spec_from_dict(doc, **_overrides(args))))
    return 0


def _cmd_netsim(args) -> int:
    try:
        inputs = [int(v) for v in args.input.split(",")]
    except ValueError:
        raise ValidationError("input", "expected comma-separated integers")
    params = {"weights": args.weights, "input": inputs,
              "states": args.states}
    return _builtin_spec("netsim", "netsim", args, params)


def _cmd_calibrate(args) -> int:
    path = Path(args.traces)
    if not path.exists():
        raise ValidationError("traces", f"no such file: {path}")
    result = calibrate_weight_law(read_csv(path))
    out = Path(args.out or "calibration.yaml")
    write_yaml(out, result)
    print(out)
    return 0


def _cmd_emit(args) -> int:
    print(emit_figure_data(args.run_dir, args.figure_id))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skysum",
        description="Skyrmion weighted-sum experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment spec")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run the grid described by a spec's "
                                     "sweep block")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    for name, protocol, text in (
            ("montecarlo", "montecarlo_sigma", "sigma fluctuation sweep"),
            ("pareto", "pareto", "energy/precision tables")):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.set_defaults(func=functools.partial(_builtin_spec, name, protocol,
                                              params={}))

    p = sub.add_parser("netsim", help="map a weight matrix and run inference")
    p.add_argument("--weights", required=True,
                   help="CSV file with the weight matrix")
    p.add_argument("--input", required=True,
                   help="comma-separated pulse counts, one per row")
    p.add_argument("--states", type=int, default=15)
    _add_common(p)
    p.set_defaults(func=_cmd_netsim)

    p = sub.add_parser("calibrate", help="fit the weight-field law from "
                                         "trace data")
    p.add_argument("traces", help="CSV with columns h_z_mT,n_pulses,n_sk")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("emit", help="write plot-ready figure data from a run")
    p.add_argument("run_dir")
    p.add_argument("figure_id")
    p.set_defaults(func=_cmd_emit)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once for ``main``: parsing reads the parser
    and leaves it as it was, and each subcommand's function looks up what
    it calls when it runs."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SkysumError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Experiment configuration documents and their validation.

An experiment is described by one structured-text document (YAML, or JSON
since YAML subsumes it): a name, a protocol, a seed, an output directory,
a calibration (preset name plus optional field overrides) and a block of
protocol-specific parameters.  One function, ``resolve``, reads every block
against a table of ``Param`` declarations.  Validation errors carry the
dotted path of the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np
import yaml

from .device import DeviceCalibration, calibration_preset
from .errors import ValidationError


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment: rerunning it with the same seed must
    produce byte-identical numeric outputs.  ``params`` holds every
    protocol parameter, defaults included."""

    name: str
    protocol: str
    seed: int
    output_dir: str
    calibration: DeviceCalibration
    calibration_source: dict
    params: dict


class Param(NamedTuple):
    """One parameter: a kind from ``_KINDS``, a non-empty list of one
    ("ints", "floats", "strs"), or "matrix"; a default (None: required; a
    callable gets the calibration and the parameters resolved before it);
    and bounds, which apply to a scalar and to each entry of a list."""

    kind: str
    default: Any = None
    minimum: float | None = None
    maximum: float | None = None
    positive: bool = False
    choices: Any = None


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ValidationError(path, message)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_KINDS = {
    "int": (lambda v: _is_number(v) and isinstance(v, int), "an integer"),
    "float": (_is_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "mapping": (lambda v: isinstance(v, dict), "a mapping"),
}


def _bounded(param: Param, value, where: str):
    if param.positive:
        _expect(value > 0, where, "must be > 0")
    if param.minimum is not None:
        _expect(value >= param.minimum, where, f"must be >= {param.minimum}")
    if param.maximum is not None:
        _expect(value <= param.maximum, where, f"must be <= {param.maximum}")
    if param.choices is not None:
        _expect(value in param.choices, where,
                f"must be one of {list(param.choices)}")
    return float(value) if param.kind.startswith("float") else value


def _matrix(value, where: str) -> np.ndarray:
    _expect(isinstance(value, (str, list)), where,
            "expected an inline matrix or a CSV path")
    try:
        if isinstance(value, str):
            matrix = np.loadtxt(value, delimiter=",", ndmin=2)
        else:
            matrix = np.atleast_2d(np.asarray(value, dtype=float))
    except (OSError, TypeError, ValueError) as exc:
        raise ValidationError(where, f"expected a numeric matrix: {exc}")
    _expect(matrix.ndim == 2, where, "expected a 2-D matrix")
    _expect(bool(np.isfinite(matrix).all()), where, "entries must be finite")
    return matrix


def _check(param: Param, value, where: str):
    if param.kind == "matrix":
        return _matrix(value, where)
    if param.kind in _KINDS:
        test, noun = _KINDS[param.kind]
        _expect(test(value), where, f"expected {noun}")
        return _bounded(param, value, where)
    test, noun = _KINDS[param.kind[:-1]]
    _expect(isinstance(value, (list, tuple)) and len(value) > 0, where,
            "expected a non-empty list")
    for entry in value:
        _expect(test(entry), where, f"entry {entry!r} is not {noun}")
    return [_bounded(param, entry, where) for entry in value]


def resolve(table: dict, block, path: str,
            cal: DeviceCalibration | None) -> dict:
    """Validate ``block`` against ``table`` and fill in the defaults.

    ``table`` maps each key to a ``Param``, or to a table of its own for a
    nested block.  Keys the table does not declare are refused; ``path`` is
    the block's dotted path ("" at the top level) and prefixes every error.
    """
    prefix = f"{path}." if path else ""
    _expect(isinstance(block, dict), path, "expected a mapping")
    for key in block:
        _expect(key in table, f"{prefix}{key}", "unknown key")
    out = {}
    for key, param in table.items():
        where = prefix + key
        if isinstance(param, dict):
            out[key] = resolve(param, block.get(key, {}), where, cal)
            continue
        if key in block:
            value = block[key]
        else:
            value = param.default
            if callable(value):
                value = value(cal, out)
            _expect(value is not None, where, "required field is missing")
        out[key] = _check(param, value, where)
    return out


def with_dotted(doc: dict, dotted: str, value) -> dict:
    """A copy of ``doc`` with ``value`` at the dotted path ``dotted``; only
    the mappings along the path are copied."""
    key, _, rest = dotted.partition(".")
    if rest:
        block = doc.get(key, {})
        _expect(isinstance(block, dict), key, "expected a mapping")
        value = with_dotted(block, rest, value)
    return {**doc, key: value}


def load_document(path) -> dict:
    """Parse a YAML or JSON experiment document."""
    text = Path(path).read_text()
    try:
        if str(path).endswith(".json"):
            doc = json.loads(text)
        else:
            doc = yaml.safe_load(text)
    except (yaml.YAMLError, json.JSONDecodeError) as exc:
        raise ValidationError(str(path), f"could not parse document: {exc}")
    _expect(isinstance(doc, dict), str(path), "document must be a mapping")
    return doc


def resolve_calibration(doc: dict, protocol: str) -> tuple[DeviceCalibration, dict]:
    """Build the calibration from a {preset, overrides} block.

    The preset defaults to the one the protocol's table entry names.
    Returns the calibration and a snapshot-friendly source description.
    """
    from .experiments import PROTOCOLS, Protocol  # the table imports us

    # An unknown protocol gets the table's default preset.
    default_preset = PROTOCOLS.get(protocol, Protocol(None, {})).preset
    block = resolve({"preset": Param("str", default_preset),
                     "overrides": Param("mapping", {})},
                    doc.get("calibration", {}), "calibration", None)
    try:
        cal = calibration_preset(block["preset"])
    except ValueError as exc:
        raise ValidationError("calibration.preset", str(exc))
    overrides = block["overrides"]
    if overrides:
        merged = cal.to_dict()
        for key in overrides:
            _expect(key in merged, f"calibration.overrides.{key}",
                    "unknown calibration field")
        try:
            cal = DeviceCalibration.from_dict({**merged, **overrides})
        except (ValueError, TypeError) as exc:
            raise ValidationError("calibration.overrides", str(exc))
    return cal, {"preset": block["preset"], "overrides": dict(overrides)}


def spec_from_dict(doc: dict, seed: int | None = None,
                   output_dir: str | None = None, preset: str | None = None,
                   trials: int | None = None) -> ExperimentSpec:
    """Resolve a document, after applying any command-line overrides to it,
    and run its protocol's check on the resolved parameters.

    Besides the head fields, a document holds only the calibration block,
    its protocol's block, and the ``calibration_resolved`` record of a run
    snapshot, which must match the calibration the document resolves to.
    """
    from .experiments import PROTOCOLS  # the table imports us

    for dotted, value in (("seed", seed), ("output_dir", output_dir),
                          ("calibration.preset", preset),
                          (f"{doc.get('protocol')}.trials", trials)):
        if value is not None:
            doc = with_dotted(doc, dotted, value)
    head_table = {
        "name": Param("str"),
        "protocol": Param("str", choices=tuple(PROTOCOLS)),
        "seed": Param("int", 0, minimum=0),
        "output_dir": Param("str", "runs"),
    }
    head = resolve(head_table, {k: v for k, v in doc.items()
                                if k in head_table}, "", None)
    protocol = head["protocol"]
    for key in doc:
        _expect(key in head_table or key in (
                    protocol, "calibration", "calibration_resolved"), key,
                "block of another protocol" if key in PROTOCOLS
                else "unknown key")
    cal, source = resolve_calibration(doc, protocol)
    _expect(doc.get("calibration_resolved", cal.to_dict()) == cal.to_dict(),
            "calibration_resolved",
            "does not match the calibration block; change calibration."
            "overrides instead")
    params = resolve(PROTOCOLS[protocol].params, doc.get(protocol, {}),
                     protocol, cal)
    PROTOCOLS[protocol].check(cal, params)
    return ExperimentSpec(calibration=cal, calibration_source=source,
                          params=params, **head)


def spec_from_file(path, **overrides) -> ExperimentSpec:
    """``spec_from_dict`` on a YAML or JSON document."""
    return spec_from_dict(load_document(path), **overrides)

"""Experiment configuration documents and their validation.

An experiment is described by one structured-text document (YAML, or JSON
since YAML subsumes it): a name, a protocol, a seed, an output directory,
a calibration (preset name plus optional field overrides) and a block of
protocol-specific parameters.  Validation errors carry the dotted path of
the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .device import DeviceCalibration, calibration_preset
from .errors import ValidationError


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment: rerunning it with the same seed must
    produce byte-identical numeric outputs."""

    name: str
    protocol: str
    seed: int
    output_dir: str
    calibration: DeviceCalibration
    calibration_source: dict
    params: dict

    def with_overrides(self, seed: int | None = None,
                       output_dir: str | None = None,
                       preset: str | None = None,
                       trials: int | None = None) -> "ExperimentSpec":
        """Apply command-line overrides on top of a parsed spec."""
        spec = self
        if seed is not None:
            _expect(int(seed) >= 0, "seed", "must be >= 0")
            spec = replace(spec, seed=int(seed))
        if output_dir is not None:
            spec = replace(spec, output_dir=str(output_dir))
        if preset is not None:
            cal = calibration_preset(preset)
            spec = replace(spec, calibration=cal,
                           calibration_source={"preset": preset})
        if trials is not None:
            params = dict(spec.params)
            params["trials"] = int(trials)
            spec = replace(spec, params=params)
        return spec


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ValidationError(path, message)


def get_str(doc: dict, key: str, path: str, default=None) -> str:
    value = doc.get(key, default)
    _expect(value is not None, f"{path}{key}", "required field is missing")
    _expect(isinstance(value, str) and value != "", f"{path}{key}",
            "expected a non-empty string")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_range(value: float, where: str, minimum, maximum, positive):
    if positive:
        _expect(value > 0, where, "must be > 0")
    if minimum is not None:
        _expect(value >= minimum, where, f"must be >= {minimum}")
    if maximum is not None:
        _expect(value <= maximum, where, f"must be <= {maximum}")


def get_int(doc: dict, key: str, path: str, default=None, minimum=None) -> int:
    value = doc.get(key, default)
    _expect(value is not None, f"{path}{key}", "required field is missing")
    _expect(_is_int(value), f"{path}{key}", "expected an integer")
    _check_range(value, f"{path}{key}", minimum, None, False)
    return value


def get_float(doc: dict, key: str, path: str, default=None, minimum=None,
              maximum=None, positive: bool = False) -> float:
    value = doc.get(key, default)
    _expect(value is not None, f"{path}{key}", "required field is missing")
    _expect(_is_number(value), f"{path}{key}", "expected a number")
    _check_range(value, f"{path}{key}", minimum, maximum, positive)
    return float(value)


def get_bool(doc: dict, key: str, path: str, default=False) -> bool:
    value = doc.get(key, default)
    _expect(isinstance(value, bool), f"{path}{key}", "expected a boolean")
    return value


def get_list(doc: dict, key: str, path: str, default=None) -> list:
    value = doc.get(key, default)
    _expect(value is not None, f"{path}{key}", "required field is missing")
    _expect(isinstance(value, list) and len(value) > 0, f"{path}{key}",
            "expected a non-empty list")
    return value


def get_numbers(doc: dict, key: str, path: str, default=None,
                integer: bool = False, minimum=None, maximum=None,
                positive: bool = False) -> list:
    """A non-empty list of numbers (of integers if ``integer``), each
    checked against the same bounds as ``get_float``."""
    values = get_list(doc, key, path, default)
    kind = "an integer" if integer else "a number"
    for value in values:
        _expect((_is_int if integer else _is_number)(value), f"{path}{key}",
                f"entry {value!r} is not {kind}")
        _check_range(value, f"{path}{key}", minimum, maximum, positive)
    return [int(v) if integer else float(v) for v in values]


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

    block = doc.get("calibration", {})
    _expect(isinstance(block, dict), "calibration", "expected a mapping")
    # An unknown protocol gets the table's default preset.
    default_preset = PROTOCOLS.get(protocol, Protocol(run=None)).preset
    preset = block.get("preset", default_preset)
    _expect(isinstance(preset, str), "calibration.preset", "expected a string")
    try:
        cal = calibration_preset(preset)
    except ValueError as exc:
        raise ValidationError("calibration.preset", str(exc))
    overrides = block.get("overrides", {})
    _expect(isinstance(overrides, dict), "calibration.overrides",
            "expected a mapping")
    if overrides:
        merged = cal.to_dict()
        known = set(merged)
        for key, value in overrides.items():
            _expect(key in known, f"calibration.overrides.{key}",
                    "unknown calibration field")
            merged[key] = value
        try:
            cal = DeviceCalibration.from_dict(merged)
        except (ValueError, TypeError) as exc:
            raise ValidationError("calibration.overrides", str(exc))
    return cal, {"preset": preset, "overrides": dict(overrides)}


def spec_from_dict(doc: dict) -> ExperimentSpec:
    from .experiments import PROTOCOLS  # the table imports us

    name = get_str(doc, "name", "")
    protocol = get_str(doc, "protocol", "")
    _expect(protocol in PROTOCOLS, "protocol",
            f"must be one of {list(PROTOCOLS)}")
    seed = get_int(doc, "seed", "", default=0, minimum=0)
    output_dir = get_str(doc, "output_dir", "", default="runs")
    cal, source = resolve_calibration(doc, protocol)
    params = doc.get(protocol, {})
    _expect(isinstance(params, dict), protocol, "expected a mapping")
    return ExperimentSpec(
        name=name,
        protocol=protocol,
        seed=seed,
        output_dir=output_dir,
        calibration=cal,
        calibration_source=source,
        params=dict(params),
    )


def spec_from_file(path) -> ExperimentSpec:
    return spec_from_dict(load_document(path))

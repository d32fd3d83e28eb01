"""Scenario files: a small JSON schema for populations, rates and loop settings.

Document layout (config keys all optional, falling back to defaults):

    {
      "name": "demo",
      "users": [
        {"id": "Sig1", "type": "sigmoid", "params": {"a": 5, "b": 10}},
        {"id": "Log3", "type": "log", "params": {"k": 0.5, "r_max": 100}}
      ],
      "R_values": [30, 60],
      "config": {
        "delta": 0.001,
        "max_iter": 1000,
        "initial_bid": 10,
        "decay": {"type": "exponential", "l1": 5, "l2": 10},
        "solver": {"bracket_lo": 0.001}
      }
    }

The numbers in a utility's ``params``, a decay policy, ``solver`` and
``config`` are the numeric init fields of the dataclass each one builds,
read and written from ``dataclasses.fields()``, so every field
round-trips. A field without a default is required. A user ``id`` is
written raw into CSV output, so it may hold no comma, double quote or
line break. Unknown keys are rejected, and every diagnostic names the
offending field (or the line/column for malformed JSON).
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, fields
from pathlib import Path

from .protocol import AllocationConfig, ExponentialDecay, RationalDecay
from .sim import Scenario
from .solver import SolverConfig
from .utility import LogUtility, SigmoidUtility

__all__ = ["ScenarioFormatError", "parse_scenario", "load_scenario", "scenario_to_dict"]

_UTILITY_TYPES = {"sigmoid": SigmoidUtility, "log": LogUtility}
_DECAY_TYPES = {"none": None, "exponential": ExponentialDecay, "rational": RationalDecay}


class ScenarioFormatError(ValueError):
    """A scenario document failed validation; the message names the field."""


def _fail(path: str, message: str):
    raise ScenarioFormatError(f"{path}: {message}")


def _check_keys(mapping, path: str, required=(), optional=()):
    if not isinstance(mapping, dict):
        _fail(path, f"expected an object, got {type(mapping).__name__}")
    for key in required:
        if key not in mapping:
            _fail(path, f"missing required key {key!r}")
    for key in mapping:
        if key not in required and key not in optional:
            _fail(f"{path}.{key}", "unknown key")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the largest double
        _fail(path, "integer too large for a float")


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


_READERS = {"float": _number, "int": _integer}  # annotation -> reader


@functools.cache
def _number_fields(cls) -> tuple[dict, tuple[str, ...]]:
    """The reader of each numeric init field of ``cls``, and the names of those without a default."""
    numeric = [f for f in fields(cls) if f.init and f.type in _READERS]
    readers = {f.name: _READERS[f.type] for f in numeric}
    required = tuple(f.name for f in numeric if f.default is MISSING and f.default_factory is MISSING)
    return readers, required


def _build(cls, doc, path: str, nested=None, tag=()):
    """Construct ``cls`` from the numbers in ``doc`` and the fields ``nested`` parses.

    ``nested`` maps a field name to the parser of its sub-document; ``tag``
    names keys the caller has read already.
    """
    nested = nested or {}
    readers, required = _number_fields(cls)
    _check_keys(doc, path, required, (*readers, *nested, *tag))
    kwargs = {name: read(doc[name], f"{path}.{name}") for name, read in readers.items() if name in doc}
    for name, parse in nested.items():
        if name in doc:
            kwargs[name] = parse(doc[name], f"{path}.{name}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _class_of(doc, path: str, types: dict):
    """The entry of ``types`` that ``doc["type"]`` names."""
    if not isinstance(doc, dict) or "type" not in doc:
        _fail(path, "expected an object with a 'type' key")
    kind = doc["type"]
    if not isinstance(kind, str) or kind not in types:
        _fail(f"{path}.type", f"unknown type {kind!r} (expected one of {', '.join(map(repr, types))})")
    return types[kind]


def _parse_user(doc, path: str):
    _check_keys(doc, path, required=("id", "type", "params"))
    uid = doc["id"]
    if not isinstance(uid, str) or not uid or any(ch in uid for ch in ',"\r\n'):
        _fail(f"{path}.id", f"expected a nonempty string without commas, quotes or line breaks, got {uid!r}")
    return uid, _build(_class_of(doc, path, _UTILITY_TYPES), doc["params"], f"{path}.params")


def _parse_decay(doc, path: str):
    cls = _class_of(doc, path, _DECAY_TYPES)
    if cls is None:
        _check_keys(doc, path, required=("type",))
        return None
    return _build(cls, doc, path, tag=("type",))


_CONFIG_PARSERS = {"decay": _parse_decay, "solver": functools.partial(_build, SolverConfig)}


def parse_scenario(doc) -> Scenario:
    """Validate a scenario document (parsed JSON) into a Scenario."""
    _check_keys(doc, "scenario", required=("name", "users", "R_values"), optional=("config",))
    if not isinstance(doc["name"], str) or not doc["name"]:
        _fail("scenario.name", f"expected a nonempty string, got {doc['name']!r}")
    if not isinstance(doc["users"], list) or not doc["users"]:
        _fail("scenario.users", "expected a nonempty list")
    users = tuple(_parse_user(u, f"users[{i}]") for i, u in enumerate(doc["users"]))
    if not isinstance(doc["R_values"], list) or not doc["R_values"]:
        _fail("scenario.R_values", "expected a nonempty list")
    r_values = tuple(_number(r, f"R_values[{i}]") for i, r in enumerate(doc["R_values"]))
    config = _build(AllocationConfig, doc.get("config", {}), "config", _CONFIG_PARSERS)
    try:
        return Scenario(name=doc["name"], users=users, r_values=r_values, config=config)
    except ValueError as exc:
        _fail("scenario", str(exc))


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal longer than the interpreter converts
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    return parse_scenario(doc)


def _numbers(obj) -> dict:
    return {name: getattr(obj, name) for name in _number_fields(type(obj))[0]}


def _type_name(types: dict, obj) -> str:
    return next(name for name, cls in types.items() if cls is type(obj))


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize a Scenario to the document layout parse_scenario accepts.

    Round trips exactly: parse_scenario(scenario_to_dict(s)) == s.
    """
    cfg = scenario.config
    if cfg.decay is None:
        decay = {"type": "none"}
    else:
        decay = {"type": _type_name(_DECAY_TYPES, cfg.decay), **_numbers(cfg.decay)}
    return {
        "name": scenario.name,
        "users": [
            {"id": user_id, "type": _type_name(_UTILITY_TYPES, u), "params": _numbers(u)}
            for user_id, u in scenario.users
        ],
        "R_values": list(scenario.r_values),
        "config": {**_numbers(cfg), "decay": decay, "solver": _numbers(cfg.solver)},
    }

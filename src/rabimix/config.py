"""Run-configuration parsing and validation.

Configs are JSON documents with a ``system`` section (modes, qubits,
couplings, interaction model) and one optional section per command. Every
field's checks, whether it is required and its default are declared once,
in :data:`SCHEMA`; one walker derives the allowed keys, the error messages
with their field paths and the filled-in defaults from it. Parsing reports
every violation with its field path, not just the first; syntax errors
carry line and column.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError, RabimixError
from .hilbert import BasisState
from .system import (
    CouplingSpec,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SystemSpec,
    default_n_max,
)


@dataclass
class RunConfig:
    """Validated configuration: the system plus per-command sections, each
    with every field of its :data:`SCHEMA` entry, defaults filled in."""

    system: SystemSpec | None
    sections: dict = field(default_factory=dict)

    def section(self, name: str) -> dict:
        if name not in self.sections:
            raise ConfigError(f"config has no {name!r} section")
        return self.sections[name]


# Leaf checks take a JSON value and return the parsed value, or raise a
# RabimixError whose message is reported under the field's path.

def _string(v):
    if not isinstance(v, str):
        raise ConfigError(f"expected a string, got {v!r}")
    return v


def _boolean(v):
    if not isinstance(v, bool):
        raise ConfigError("expected true or false")
    return v


def _integer(minimum=None):
    def check(v):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ConfigError(f"expected an integer, got {v!r}")
        if minimum is not None and v < minimum:
            raise ConfigError(f"must be >= {minimum}, got {v}")
        return v

    return check


def _number(positive=False, nonnegative=False):
    def check(v):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ConfigError(f"expected a number, got {v!r}")
        if isinstance(v, float) and not math.isfinite(v):  # JSON's NaN and Infinity
            raise ConfigError(f"expected a finite number, got {v}")
        if positive and not v > 0:
            raise ConfigError(f"must be > 0, got {v}")
        try:
            x = float(v)
        except OverflowError:
            raise ConfigError("number out of range") from None
        if nonnegative and x < 0:
            raise ConfigError(f"must be >= 0, got {x}")
        return x

    return check


def _state(v):
    return BasisState.parse(_string(v))


def _category(v):
    if _string(v) not in ("three-wave", "four-wave", "higher", "other"):
        raise ConfigError(f"unknown category {v!r}")
    return v


def _process_ids(v):
    if v is not None and not (isinstance(v, list) and all(isinstance(x, str) for x in v)):
        raise ConfigError("expected a list of process ids")
    return v


@dataclass(frozen=True)
class _Field:
    """An object member: its node (a leaf check, a :class:`_List` or a nested
    object), whether it must be present, and the value used when it is
    absent or invalid."""

    node: Any
    required: bool = True
    default: Any = None


def _opt(node, default=None) -> _Field:
    return _Field(node, required=False, default=default)


@dataclass(frozen=True)
class _List:
    """A JSON list of ``item`` nodes with a length range."""

    item: Any
    what: str
    min_len: int = 0
    max_len: int | None = None

    @property
    def message(self) -> str:
        if self.min_len > 1:
            return f"expected a list of at least {self.min_len} {self.what}"
        return f"expected a {'non-empty ' if self.min_len else ''}list of {self.what}"


#: section -> field -> :class:`_Field`; objects are dicts, lists are
#: :class:`_List`. System item fields are in the order of the positional
#: arguments of the spec they build.
SCHEMA = {
    "system": {
        "modes": _opt(_List({
            "label": _Field(_string),
            "frequency": _Field(_number(positive=True)),
            "n_max": _opt(_integer(minimum=1)),  # default set from the sections' states
        }, "modes"), ()),
        "qubits": _opt(_List({
            "label": _Field(_string),
            "frequency": _Field(_number(positive=True)),
        }, "qubits"), ()),
        "couplings": _opt(_List({
            "mode": _Field(_string),
            "qubit": _Field(_string),
            "strength": _Field(_number()),
            "mixing_angle": _opt(_number(), 0.0),
        }, "couplings"), ()),
        "model": _opt(InteractionModel.parse, InteractionModel.RABI),
    },
    "geff": {
        "initial": _Field(_state),
        "final": _Field(_state),
        "order": _opt(_integer(minimum=1)),
    },
    "spectrum": {
        "parameter": _Field(_string),
        "lo": _Field(_number()),
        "hi": _Field(_number()),
        "points": _Field(_integer(minimum=3)),
        "tracked": _Field(_List(_state, "states", min_len=2)),
        "models": _opt(_List(InteractionModel.parse, "model names")),
        "output": _opt(_string, "spectrum"),
    },
    "evolve": {
        "initial": _Field(_state),
        "total_time": _Field(_number(positive=True)),
        "samples": _Field(_integer(minimum=16)),
        "targets": _Field(_List(_state, "states", min_len=1)),
        "output": _opt(_string, "trace.csv"),
    },
    "catalog": {
        "category": _opt(_category),
        "table": _opt(_integer()),
        "degenerate": _opt(_boolean),
        "distinct_only": _opt(_boolean, False),
        "model": _opt(InteractionModel.parse),
    },
    "classical": {
        "tones": _Field(_List({
            "amplitude": _Field(_number()),
            "frequency": _Field(_number(nonnegative=True)),
        }, "tones", min_len=1, max_len=3)),
        "chi1": _opt(_number(), 0.0),
        "chi2": _opt(_number(), 0.0),
        "chi3": _opt(_number(), 0.0),
        "epsilon0": _opt(_number(), 1.0),
        "output": _opt(_string),
    },
    "verify": {
        "processes": _opt(_process_ids),
        "all_closed_forms": _opt(_boolean, False),
    },
}


def _walk(node, value, path: str, errs: list):
    """Validate ``value`` against a schema node and return it parsed, with
    defaults filled in; return None after appending to ``errs`` if invalid."""
    if isinstance(node, dict):
        if not isinstance(value, dict):
            errs.append(f"{path}: must be an object")
            return None
        errs.extend(
            f"{path}.{k}: unknown key (allowed: {sorted(node)})" for k in value if k not in node
        )
        out = {}
        for key, f in node.items():
            v = None
            if key in value:
                v = _walk(f.node, value[key], f"{path}.{key}", errs)
            elif f.required:
                missing = f.node.message if isinstance(f.node, _List) else "missing required field"
                errs.append(f"{path}.{key}: {missing}")
            out[key] = f.default if v is None else v
        return out
    if isinstance(node, _List):
        if not isinstance(value, list) or len(value) < node.min_len:
            errs.append(f"{path}: {node.message}")
            return None
        if node.max_len is not None and len(value) > node.max_len:
            errs.append(f"{path}: at most {node.max_len} {node.what} supported, got {len(value)}")
        return [_walk(node.item, x, f"{path}[{k}]", errs) for k, x in enumerate(value)]
    try:
        return node(value)
    except RabimixError as e:
        errs.append(f"{path}: {e}")
        return None


def section_defaults(name: str) -> dict:
    """Section ``name`` as parsed from an empty object: every field at its default."""
    return _walk(SCHEMA[name], {}, name, [])


def _cross_field_errors(name: str, sec: dict | None) -> list:
    """Rules that relate two fields of one section."""
    if sec is None:
        return []
    if name == "spectrum" and None not in (sec["lo"], sec["hi"]) and not sec["lo"] < sec["hi"]:
        return [f"spectrum.lo: must satisfy lo < hi, got [{sec['lo']}, {sec['hi']}]"]
    return []


def _referenced_occupations(sections: dict) -> dict:
    """Largest occupation per mode position over every state the sections name."""
    occ = {}
    for sec in sections.values():
        for value in (sec or {}).values():
            for state in value if isinstance(value, list) else [value]:
                if isinstance(state, BasisState):
                    for k, n in enumerate(state.occupations):
                        occ[k] = max(occ.get(k, 0), n)
    return occ


def _build_system(sec: dict, occupations: dict, errs: list) -> SystemSpec | None:
    """SystemSpec from a walked system section, built item by item so that a
    spec's own error keeps its field path. None if any error is known."""
    for k, mode in enumerate(sec["modes"]):
        if mode is not None and mode["n_max"] is None:
            mode["n_max"] = default_n_max(occupations.get(k, 1))
    parts = []
    for key, make in (("modes", ModeSpec), ("qubits", QubitSpec), ("couplings", CouplingSpec)):
        specs = []
        for k, item in enumerate(sec[key]):
            if item is None or None in item.values():
                continue  # the walk has reported it
            try:
                specs.append(make(*item.values()))
            except ConfigError as e:
                errs.append(f"system.{key}[{k}]: {e}")
        parts.append(tuple(specs))
    if errs:
        return None
    try:
        return SystemSpec(*parts, sec["model"])
    except ConfigError as e:
        errs.extend(f"system: {m}" for m in e.messages)
        return None


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse and validate a JSON run configuration, after applying each
    ``path=value`` override in turn (see :func:`apply_override`)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    for assignment in overrides:
        apply_override(raw, assignment)
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be an object")

    errs = [f"{k}: unknown section (allowed: {list(SCHEMA)})" for k in raw if k not in SCHEMA]
    # The command sections are walked first, because the states they name set
    # the default n_max, but their errors are reported after the system's.
    section_errs = []
    sections = {}
    for name in SCHEMA:
        if name != "system" and name in raw:
            sections[name] = _walk(SCHEMA[name], raw[name], name, section_errs)
            section_errs += _cross_field_errors(name, sections[name])

    # a system section is required for the computational commands but not for
    # purely tabular ones (catalog, classical)
    system = None
    if "system" in raw:
        sec = _walk(SCHEMA["system"], raw["system"], "system", errs)
        if sec is not None:
            system = _build_system(sec, _referenced_occupations(sections), errs)
    elif any(k in raw for k in ("geff", "spectrum", "evolve")):
        errs.append("system: missing required section")
    errs += section_errs
    if errs:
        raise ConfigError(errs)
    return RunConfig(system=system, sections=sections)


def apply_override(raw: dict, assignment: str) -> None:
    """Apply one ``path=value`` override in place.

    Paths are dot-separated; numeric segments index into lists
    (``system.modes.0.frequency=2.1``). Values are parsed as JSON when
    possible, else taken as strings.
    """
    path, sep, value = assignment.partition("=")
    if not sep:
        raise ConfigError(f"override {assignment!r} is not of the form path=value")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    parts = path.strip().split(".")
    target = raw
    for k, part in enumerate(parts[:-1]):
        key = int(part) if part.isdigit() else part
        try:
            target = target[key]
        except (KeyError, IndexError, TypeError):
            raise ConfigError(
                f"override path {path!r} does not exist at segment {part!r}"
            ) from None
    last = parts[-1]
    key = int(last) if last.isdigit() else last
    if isinstance(target, list):
        if not isinstance(key, int) or not 0 <= key < len(target):
            raise ConfigError(f"override path {path!r}: bad list index {last!r}")
        target[key] = parsed
    elif isinstance(target, dict):
        target[key] = parsed
    else:
        raise ConfigError(f"override path {path!r} points inside a scalar")

"""Run-configuration parsing and validation.

Configs are JSON documents with a ``system`` section (modes, qubits,
couplings, interaction model) and one optional section per command. Each
field's shape and type, whether it is required and its default are declared
once, in :data:`SCHEMA`; one walker derives the allowed keys, the error
messages with their field paths and the filled-in defaults from it. Range
rules belong to the objects the fields build (``ModeSpec``, ``SweepSpec``,
``EvolutionSpec``, ``Tone``, ``polarization_spectrum``...): parsing builds
them, and reports each message of their ``ConfigError`` under the path of
the section or item that built it. Parsing reports every violation, not just
the first; syntax errors carry line and column.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Any

from .classical import Susceptibilities, Tone, polarization_spectrum
from .dynamics import EvolutionSpec
from .errors import ConfigError, RabimixError
from .hilbert import BasisState
from .spectra import SweepSpec
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
    """Validated configuration: the built system plus per-command sections.
    A section holds its :data:`SCHEMA` fields, defaults filled in, except
    that ``spectrum``, ``evolve`` and ``classical`` hold the objects their
    commands run: ``sweep`` (its base is the system), ``evolution`` and
    ``components``, next to ``models`` and ``output``."""

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


def _number(v):
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"expected a number, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v):  # JSON's NaN and Infinity
        raise ConfigError(f"expected a finite number, got {v}")
    try:
        return float(v)
    except OverflowError:
        raise ConfigError("number out of range") from None


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
    """A JSON list of ``item`` nodes."""

    item: Any
    what: str


#: section -> field -> :class:`_Field`; objects are dicts, lists are
#: :class:`_List`. System item fields are in the order of the positional
#: arguments of the spec they build.
SCHEMA = {
    "system": {
        "modes": _opt(_List({
            "label": _Field(_string),
            "frequency": _Field(_number),
            "n_max": _opt(_integer()),  # default set from the sections' states
        }, "modes"), ()),
        "qubits": _opt(_List({
            "label": _Field(_string),
            "frequency": _Field(_number),
        }, "qubits"), ()),
        "couplings": _opt(_List({
            "mode": _Field(_string),
            "qubit": _Field(_string),
            "strength": _Field(_number),
            "mixing_angle": _opt(_number, 0.0),
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
        "lo": _Field(_number),
        "hi": _Field(_number),
        "points": _Field(_integer()),
        "tracked": _Field(_List(_state, "states")),
        "models": _opt(_List(InteractionModel.parse, "model names")),
        "output": _opt(_string, "spectrum"),
    },
    "evolve": {
        "initial": _Field(_state),
        "total_time": _Field(_number),
        "samples": _Field(_integer()),
        "targets": _Field(_List(_state, "states")),
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
            "amplitude": _Field(_number),
            "frequency": _Field(_number),
        }, "tones")),
        "chi1": _opt(_number, 0.0),
        "chi2": _opt(_number, 0.0),
        "chi3": _opt(_number, 0.0),
        "epsilon0": _opt(_number, 1.0),
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
                errs.append(f"{path}.{key}: missing required field")
            out[key] = f.default if v is None else v
        return out
    if isinstance(node, _List):
        if not isinstance(value, list):
            errs.append(f"{path}: expected a list of {node.what}")
            return None
        return [_walk(node.item, x, f"{path}[{k}]", errs) for k, x in enumerate(value)]
    try:
        return node(value)
    except RabimixError as e:
        errs.append(f"{path}: {e}")
        return None


def section_defaults(name: str) -> dict:
    """Section ``name`` as parsed from an empty object: every field at its default."""
    return _walk(SCHEMA[name], {}, name, [])


def _referenced_occupations(sections) -> dict:
    """Largest occupation per mode position over every state the walked
    sections name."""
    occ = {}
    for sec in sections:
        for value in (sec or {}).values():
            for state in value if isinstance(value, list) else [value]:
                if isinstance(state, BasisState):
                    for k, n in enumerate(state.occupations):
                        occ[k] = max(occ.get(k, 0), n)
    return occ


def _build(path: str, errs: list, make, *args):
    """``make(*args)``, or None if an argument is None (the walk has reported
    it) or ``make`` raises a ConfigError, whose messages go to ``errs`` under
    ``path``."""
    if None in args:
        return None
    try:
        return make(*args)
    except ConfigError as e:
        errs.extend(f"{path}: {m}" for m in e.messages)
        return None


def _build_system(sec: dict, occupations: dict, errs: list) -> SystemSpec | None:
    """SystemSpec from a walked system section, built item by item so that a
    spec's own error names its item. None if any error is known."""
    for k, mode in enumerate(sec["modes"]):
        if mode is not None and mode["n_max"] is None:
            mode["n_max"] = default_n_max(occupations.get(k, 1))
    parts = []
    for key, make in (("modes", ModeSpec), ("qubits", QubitSpec), ("couplings", CouplingSpec)):
        parts.append([_build(f"system.{key}[{k}]", errs, make, *item.values())
                      for k, item in enumerate(sec[key]) if item is not None])
    if errs:
        return None
    return _build("system", errs, SystemSpec, *parts, sec["model"])


def _build_spectrum(sec: dict, system, errs: list) -> dict:
    # SweepSpec does not check its base, so its rules run even if the system failed
    sweep = _build("spectrum", errs, functools.partial(SweepSpec, system), sec["parameter"],
                   sec["lo"], sec["hi"], sec["points"], sec["tracked"])
    return {"sweep": sweep, "models": sec["models"], "output": sec["output"]}


def _build_evolve(sec: dict, system, errs: list) -> dict:
    evolution = _build("evolve", errs, EvolutionSpec, sec["initial"], sec["total_time"],
                       sec["samples"], sec["targets"])
    return {"evolution": evolution, "output": sec["output"]}


def _build_classical(sec: dict, system, errs: list) -> dict:
    tones = [_build(f"classical.tones[{k}]", errs, Tone, *t.values()) if t is not None else None
             for k, t in enumerate(sec["tones"] or ())]
    chi = Susceptibilities(sec["chi1"], sec["chi2"], sec["chi3"], sec["epsilon0"])
    # the spectrum needs every tone; a missing list or tone has been reported
    components = None
    if sec["tones"] is not None and None not in tones:
        components = _build("classical", errs, polarization_spectrum, tones, chi)
    return {"components": components, "output": sec["output"]}


#: Sections whose walked fields become the objects their command runs.
_BUILDERS = {"spectrum": _build_spectrum, "evolve": _build_evolve, "classical": _build_classical}


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
    # the default n_max, and built after the system, which a sweep varies.
    # Their errors are reported after the system's, each section's together.
    walked = {}
    for name in SCHEMA:
        if name != "system" and name in raw:
            section_errs = []
            walked[name] = (_walk(SCHEMA[name], raw[name], name, section_errs), section_errs)

    # a system section is required for the computational commands but not for
    # purely tabular ones (catalog, classical)
    system = None
    if "system" in raw:
        sec = _walk(SCHEMA["system"], raw["system"], "system", errs)
        if sec is not None:
            occupations = _referenced_occupations(w for w, _ in walked.values())
            system = _build_system(sec, occupations, errs)
    elif any(k in raw for k in ("geff", "spectrum", "evolve")):
        errs.append("system: missing required section")

    sections = {}
    for name, (sec, section_errs) in walked.items():
        build = _BUILDERS.get(name)
        sections[name] = sec if build is None or sec is None else build(sec, system, section_errs)
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

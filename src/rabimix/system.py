"""Declarative description of a qubit-resonator system.

All frequencies are dimensionless multiples of a reference frequency
(hbar = 1, omega_ref = 1). A :class:`SystemSpec` lists resonator modes,
qubits, the qubit-mode couplings and the interaction model; it is the
single input from which Hilbert spaces and Hamiltonians are built.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .errors import ConfigError

#: Hard cap on the Hilbert-space dimension (product of Fock ladders x 2^#qubits).
DIMENSION_CAP = 2**20

#: Fock-truncation margin added on top of the largest requested occupation
#: when n_max is left unspecified. Paths of the perturbative orders treated
#: here (<= 4) never touch the cutoff with this margin.
DEFAULT_NMAX_MARGIN = 4


class InteractionModel(enum.Enum):
    """Which qubit-mode interaction terms are included.

    JC keeps only the excitation-conserving ladder terms, RABI adds the
    counter-rotating terms, and GENERALIZED_RABI further adds a longitudinal
    (sigma_z) coupling weighted by the mixing angle.
    """

    JC = "jc"
    RABI = "rabi"
    GENERALIZED_RABI = "generalized_rabi"

    @classmethod
    def parse(cls, value) -> "InteractionModel":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ConfigError(
                f"unknown interaction model {value!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


#: Weakest-to-strongest ordering used for model-sufficiency checks.
MODEL_ORDER = (InteractionModel.JC, InteractionModel.RABI, InteractionModel.GENERALIZED_RABI)


def weaker_models(model: InteractionModel):
    """Models whose interaction terms are a strict subset of ``model``'s."""
    return MODEL_ORDER[: MODEL_ORDER.index(model)]


@dataclass(frozen=True)
class ModeSpec:
    """A resonator mode with a hard Fock truncation at ``n_max`` photons."""

    label: str
    frequency: float
    n_max: int

    def __post_init__(self):
        errors = []
        if not self.label:
            errors.append("mode label must be non-empty")
        if not self.frequency > 0:
            errors.append(f"mode {self.label!r}: frequency must be > 0, got {self.frequency}")
        if self.n_max < 1:
            errors.append(f"mode {self.label!r}: n_max must be >= 1, got {self.n_max}")
        if errors:
            raise ConfigError(errors)


@dataclass(frozen=True)
class QubitSpec:
    """A two-level system with transition frequency ``frequency``."""

    label: str
    frequency: float

    def __post_init__(self):
        if not self.frequency > 0:
            raise ConfigError(
                f"qubit {self.label!r}: frequency must be > 0, got {self.frequency}"
            )


@dataclass(frozen=True)
class CouplingSpec:
    """One qubit-mode coupling of strength ``strength``.

    ``mixing_angle`` tilts the coupling between transversal (sigma_x) and
    longitudinal (sigma_z) components; it is only consumed by the
    generalized-Rabi model and ignored by JC and Rabi.
    """

    mode_label: str
    qubit_label: str
    strength: float
    mixing_angle: float = 0.0

    def __post_init__(self):
        if self.strength < 0:
            raise ConfigError(
                f"coupling {self.mode_label!r}-{self.qubit_label!r}: "
                f"strength must be >= 0, got {self.strength}"
            )


@dataclass(frozen=True)
class SystemSpec:
    """Full declarative system description. ``model`` may be given by name
    ("jc", "rabi", "generalized_rabi"); it is parsed on construction, so an
    unknown name raises :class:`ConfigError` here."""

    modes: tuple[ModeSpec, ...] = ()
    qubits: tuple[QubitSpec, ...] = ()
    couplings: tuple[CouplingSpec, ...] = ()
    model: InteractionModel = InteractionModel.RABI

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        object.__setattr__(self, "model", InteractionModel.parse(self.model))
        errors = []
        if not self.modes and not self.qubits:
            errors.append("system needs at least one mode or one qubit")
        mode_labels = [m.label for m in self.modes]
        qubit_labels = [q.label for q in self.qubits]
        if len(set(mode_labels)) != len(mode_labels):
            errors.append(f"duplicate mode labels in {mode_labels}")
        if len(set(qubit_labels)) != len(qubit_labels):
            errors.append(f"duplicate qubit labels in {qubit_labels}")
        if set(mode_labels) & set(qubit_labels):
            errors.append("mode and qubit labels must not overlap")
        for c in self.couplings:
            if c.mode_label not in mode_labels:
                errors.append(f"coupling references unknown mode {c.mode_label!r}")
            if c.qubit_label not in qubit_labels:
                errors.append(f"coupling references unknown qubit {c.qubit_label!r}")
        if errors:
            raise ConfigError(errors)

    def mode(self, label: str) -> ModeSpec:
        for m in self.modes:
            if m.label == label:
                return m
        raise ConfigError(f"unknown mode label {label!r}")

    def qubit(self, label: str) -> QubitSpec:
        for q in self.qubits:
            if q.label == label:
                return q
        raise ConfigError(f"unknown qubit label {label!r}")

    def with_mode_frequency(self, label: str, frequency: float) -> "SystemSpec":
        mode = self.mode(label)
        modes = tuple(replace(m, frequency=frequency) if m is mode else m for m in self.modes)
        return replace(self, modes=modes)

    def with_qubit_frequency(self, label: str, frequency: float) -> "SystemSpec":
        qubit = self.qubit(label)
        qubits = tuple(replace(q, frequency=frequency) if q is qubit else q for q in self.qubits)
        return replace(self, qubits=qubits)

    def with_coupling_strength(self, mode_label: str, strength: float) -> "SystemSpec":
        """Set the strength of every coupling attached to ``mode_label``."""
        self.mode(mode_label)
        couplings = tuple(
            replace(c, strength=strength) if c.mode_label == mode_label else c
            for c in self.couplings
        )
        return replace(self, couplings=couplings)

    def with_model(self, model: InteractionModel) -> "SystemSpec":
        return replace(self, model=model)

    def with_nmax_increment(self, step: int) -> "SystemSpec":
        modes = tuple(replace(m, n_max=m.n_max + step) for m in self.modes)
        return replace(self, modes=modes)


def default_n_max(max_requested_occupation: int) -> int:
    """Truncation used when none is given: largest requested occupation plus
    a safety margin so finite-order paths never touch the cutoff."""
    return max(1, max_requested_occupation) + DEFAULT_NMAX_MARGIN

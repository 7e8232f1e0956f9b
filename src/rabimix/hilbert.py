"""Truncated product Hilbert space of Fock ladders and qubits.

Basis states are bare product states |n_1, ..., n_M, s_1, ..., s_Q> with
photon occupations per mode and g/e labels per qubit. Indexing is a fixed
mixed-radix scheme (first declared mode varies fastest, qubits last), which
makes every matrix built on a given spec bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, DomainError
from .system import DIMENSION_CAP, SystemSpec

GROUND = "g"
EXCITED = "e"


@dataclass(frozen=True)
class BasisState:
    """Bare product state: photon occupations in spec order, then qubit labels."""

    occupations: tuple[int, ...]
    qubit_states: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "occupations", tuple(int(n) for n in self.occupations))
        object.__setattr__(self, "qubit_states", tuple(self.qubit_states))
        for s in self.qubit_states:
            if s not in (GROUND, EXCITED):
                raise ConfigError(f"qubit state must be 'g' or 'e', got {s!r}")
        for n in self.occupations:
            if n < 0:
                raise DomainError(f"negative photon occupation {n}")

    @classmethod
    def parse(cls, text: str) -> "BasisState":
        """Parse "1,0,g" style ket labels (occupations first, then g/e)."""
        parts = [p.strip() for p in str(text).split(",") if p.strip()]
        occ, qs = [], []
        for p in parts:
            if p in (GROUND, EXCITED):
                qs.append(p)
            else:
                try:
                    occ.append(int(p))
                except ValueError:
                    raise ConfigError(f"bad basis-state component {p!r} in {text!r}") from None
        return cls(tuple(occ), tuple(qs))

    def label(self) -> str:
        return ",".join([str(n) for n in self.occupations] + list(self.qubit_states))

    def __str__(self) -> str:
        return f"|{self.label()}>"


class HilbertSpace:
    """Indexed truncated product space for a :class:`SystemSpec`.

    Immutable after construction; safe to share between threads.
    """

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.modes = spec.modes
        self.qubits = spec.qubits
        dims = [m.n_max + 1 for m in self.modes] + [2] * len(self.qubits)
        dimension = 1
        for d in dims:
            dimension *= d
        if dimension > DIMENSION_CAP:
            raise CapacityError(
                f"Hilbert-space dimension {dimension} exceeds cap {DIMENSION_CAP} "
                f"for spec with modes {[m.label for m in self.modes]} "
                f"(n_max {[m.n_max for m in self.modes]}) and {len(self.qubits)} qubit(s)"
            )
        self.dimension = dimension
        # place-value weights: first mode varies fastest
        weights = []
        w = 1
        for d in dims:
            weights.append(w)
            w *= d
        self._weights = weights

        # vectorized per-state data
        idx = np.arange(dimension)
        cols = []
        for d, w in zip(dims, weights):
            cols.append((idx // w) % d)
        table = np.stack(cols, axis=1) if cols else np.zeros((dimension, 0), int)
        nm = len(self.modes)
        self.occupation_table = table[:, :nm]
        self.qubit_table = table[:, nm:]  # 0 = g, 1 = e
        mode_freqs = np.array([m.frequency for m in self.modes])
        qubit_freqs = np.array([q.frequency for q in self.qubits])
        self.energies = self.occupation_table @ mode_freqs + (
            (self.qubit_table - 0.5) @ qubit_freqs if self.qubits else 0.0
        )
        self.excitation_numbers = self.occupation_table.sum(axis=1) + self.qubit_table.sum(axis=1)

    def index(self, state) -> int:
        """Basis index of a :class:`BasisState`, a ket label such as "1,0,g",
        or an index itself; raises :class:`DomainError` for an index outside
        [0, dim) or a state the space cannot hold."""
        if isinstance(state, (int, np.integer)):
            if not 0 <= state < self.dimension:
                raise DomainError(f"basis index {state} outside [0, {self.dimension})")
            return int(state)
        if isinstance(state, str):
            state = BasisState.parse(state)
        if len(state.occupations) != len(self.modes) or len(state.qubit_states) != len(self.qubits):
            raise DomainError(
                f"state {state} does not match space with {len(self.modes)} mode(s) "
                f"and {len(self.qubits)} qubit(s)"
            )
        i = 0
        for n, mode, w in zip(state.occupations, self.modes, self._weights):
            if n > mode.n_max:
                raise DomainError(
                    f"occupation {n} exceeds n_max={mode.n_max} of mode {mode.label!r}"
                )
            i += n * w
        for s, w in zip(state.qubit_states, self._weights[len(self.modes):]):
            i += (1 if s == EXCITED else 0) * w
        return i

    def state(self, i: int) -> BasisState:
        i = self.index(i)
        occ = tuple(int(n) for n in self.occupation_table[i])
        qs = tuple(EXCITED if b else GROUND for b in self.qubit_table[i])
        return BasisState(occ, qs)

    def bare_energy(self, state: BasisState) -> float:
        """Sum of n*omega over modes plus +-omega_q/2 per qubit (e above g)."""
        return float(self.energies[self.index(state)])

    def mode_index(self, label: str) -> int:
        return self.modes.index(self.spec.mode(label))

    def qubit_index(self, label: str) -> int:
        return self.qubits.index(self.spec.qubit(label))

    def __repr__(self):
        return (
            f"HilbertSpace(dim={self.dimension}, modes={[m.label for m in self.modes]}, "
            f"qubits={[q.label for q in self.qubits]})"
        )


def build_space(spec: SystemSpec) -> HilbertSpace:
    """Construct the indexed truncated product space for ``spec``."""
    return HilbertSpace(spec)

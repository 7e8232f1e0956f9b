import math

import numpy as np
import pytest

from rabimix import (
    BasisState,
    CouplingSpec,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SystemSpec,
)


@pytest.fixture
def jc_spec():
    """One mode resonant with one qubit, JC interaction."""
    return SystemSpec(
        modes=(ModeSpec("a", 1.0, 6),),
        qubits=(QubitSpec("q", 1.0),),
        couplings=(CouplingSpec("a", "q", 0.05),),
        model=InteractionModel.JC,
    )


@pytest.fixture
def shg_spec():
    """Two modes with w_a = 2 w_b and one far-detuned qubit, full mixing."""
    return SystemSpec(
        modes=(ModeSpec("a", 2.0, 6), ModeSpec("b", 1.0, 6)),
        qubits=(QubitSpec("q", 1.6),),
        couplings=(
            CouplingSpec("a", "q", 0.05, math.pi / 6),
            CouplingSpec("b", "q", 0.05, math.pi / 6),
        ),
        model=InteractionModel.GENERALIZED_RABI,
    )


def state(text: str) -> BasisState:
    return BasisState.parse(text)


def sigma_z_only_paths(space, paths):
    """The paths whose hops never flip a qubit (purely longitudinal-mediated)."""
    out = []
    for p in paths:
        rows = space.qubit_table[list(p.states)]
        if np.all(rows == rows[0]):
            out.append(p)
    return tuple(out)

"""Inputs outside an operation's domain raise DomainError (exit 1);
CapacityError (exit 3) is kept for size caps. A rejected input is rejected
before any warning about it is issued."""

import warnings

import pytest

from rabimix import (
    BasisState,
    CapacityError,
    CouplingSpec,
    DomainError,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SystemSpec,
    diagonal_shift,
    interaction_for,
    kerr_shift_numeric,
)


def resonant_spec(n_modes=1, n_max=6):
    """Every mode resonant with the qubit: far from dispersive."""
    labels = "ab"[:n_modes]
    return SystemSpec(
        modes=tuple(ModeSpec(m, 1.0, n_max) for m in labels),
        qubits=(QubitSpec("q", 1.0),),
        couplings=tuple(CouplingSpec(m, "q", 0.05) for m in labels),
        model=InteractionModel.JC,
    )


def test_diagonal_shift_unsupported_order_is_a_domain_error(jc_spec):
    hint = interaction_for(jc_spec)
    with pytest.raises(DomainError, match="orders 2 and 4"):
        diagonal_shift(hint, BasisState((1,), ("g",)), order=3)


def test_kerr_shift_numeric_rejects_the_shape_before_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="one mode and one qubit"):
            kerr_shift_numeric(resonant_spec(n_modes=2))


def test_kerr_shift_numeric_rejects_a_short_ladder_before_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapacityError, match="n_max >= 3"):
            kerr_shift_numeric(resonant_spec(n_max=2))


def test_kerr_shift_numeric_still_warns_on_an_accepted_input():
    with pytest.warns(UserWarning, match="not dispersive"):
        kerr_shift_numeric(resonant_spec())

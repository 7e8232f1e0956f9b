"""Each tolerance at its edge: the module constant is set to the exact value
the code compares against, then to the next float past it, and the
comparison must flip there. The constants are read when the functions run,
so patching the module attribute is enough."""

import math
import warnings

import numpy as np
import pytest

from rabimix import (
    BasisState,
    CouplingSpec,
    DegenerateIntermediateError,
    FlatTraceError,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SystemSpec,
    build_hamiltonian,
    build_space,
    effective_coupling,
    interaction_for,
)
from rabimix import dynamics, perturbation, spectra
from rabimix.dynamics import EvolutionSpec, PopulationTrace, extract_oscillation
from rabimix.spectra import SweepSpec, eigensystem, track_levels

state = BasisState.parse


def two_photon_spec(w_a=0.5):
    return SystemSpec(
        modes=(ModeSpec("a", w_a, 6),),
        qubits=(QubitSpec("q", 1.0),),
        couplings=(CouplingSpec("a", "q", 0.05, math.pi / 6),),
        model=InteractionModel.GENERALIZED_RABI,
    )


def test_degeneracy_tol_edge(monkeypatch):
    """|0,e> -> |2,g> at w_a = w_q / 2 runs through |1,g> and |1,e>, both at
    |E_i - E_j| = 0.5 exactly: kept at tol 0.5, excluded just above it."""
    hint = interaction_for(two_photon_spec())
    space = hint.space
    i, f = state("0,e"), state("2,g")
    e = space.energies
    assert abs(e[space.index(i)] - e[space.index(state("1,g"))]) == 0.5
    assert abs(e[space.index(i)] - e[space.index(state("1,e"))]) == 0.5

    monkeypatch.setattr(perturbation, "DEGENERACY_TOL", 0.5)
    result = effective_coupling(hint, i, f)
    assert result.order == 2 and result.path_count == 2
    assert len(result.paths) == 2

    monkeypatch.setattr(perturbation, "DEGENERACY_TOL", np.nextafter(0.5, np.inf))
    with pytest.raises(DegenerateIntermediateError) as err:
        effective_coupling(hint, i, f)
    assert err.value.state == state("1,g")


def test_resonance_tol_edge(monkeypatch):
    """No warning when |E_i - E_f| equals the tolerance, one just below."""
    hint = interaction_for(two_photon_spec(w_a=0.5001))
    space = hint.space
    i, f = state("0,e"), state("2,g")
    d = abs(space.energies[space.index(i)] - space.energies[space.index(f)])
    assert d > 0

    monkeypatch.setattr(perturbation, "RESONANCE_TOL", d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        effective_coupling(hint, i, f)

    monkeypatch.setattr(perturbation, "RESONANCE_TOL", np.nextafter(d, 0.0))
    with pytest.warns(UserWarning, match="off resonance"):
        effective_coupling(hint, i, f)


def test_flat_tol_edge(monkeypatch):
    """A trace whose peak-to-peak variation equals the tolerance is not flat;
    one float above it, it is."""
    target = state("2,g")
    times = np.linspace(0.0, 100.0, 256)
    p = 0.5 + 0.25 * np.sin(0.7 * times)
    spec = EvolutionSpec(state("0,e"), 100.0, 256, (target,))
    trace = PopulationTrace(spec, times, {target: p}, np.ones(256))
    x = np.ptp(p)

    monkeypatch.setattr(dynamics, "FLAT_TOL", x)
    freq, _ = extract_oscillation(trace)
    assert freq == pytest.approx(0.7, rel=0.05)

    monkeypatch.setattr(dynamics, "FLAT_TOL", np.nextafter(x, np.inf))
    with pytest.raises(FlatTraceError):
        extract_oscillation(trace)


def test_overlap_ambiguity_edge(monkeypatch):
    """The first sweep point is flagged when its overlap margin (best minus
    second-best weight on the bare state) falls below the tolerance: not at
    the margin itself, and just above it."""
    spec = SystemSpec(
        modes=(ModeSpec("a", 1.0, 6),),
        qubits=(QubitSpec("q", 1.0),),
        couplings=(CouplingSpec("a", "q", 0.05),),
        model=InteractionModel.JC,
    )
    a, b = state("1,g"), state("0,e")
    sweep = SweepSpec(spec, "mode:a", 0.98, 1.02, 5, (a, b))
    space = build_space(sweep.spec_at(sweep.values()[0]))
    row = space.index(a)
    _, vecs = eigensystem(build_hamiltonian(space), [row])
    w = np.sort(vecs[row] ** 2)[::-1]
    margin = w[0] - w[1]
    assert 0 < margin < 1

    monkeypatch.setattr(spectra, "OVERLAP_AMBIGUITY", margin)
    assert not track_levels(sweep).ambiguous[0, 0]

    monkeypatch.setattr(spectra, "OVERLAP_AMBIGUITY", np.nextafter(margin, np.inf))
    assert track_levels(sweep).ambiguous[0, 0]

import math

import numpy as np
import pytest

from rabimix import (
    BasisState,
    BracketingError,
    CapacityError,
    CouplingSpec,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SweepSpec,
    SystemSpec,
    build_hamiltonian,
    build_space,
    eigensystem,
    find_avoided_crossing,
    kerr_shift_numeric,
    track_levels,
)
from rabimix import spectra
from rabimix.spectra import (
    bare_resonance_parameter,
    subspace_gap,
    sweep_csv,
)


def jc_spec(g=0.05, w_a=1.0, w_q=1.0, n_max=6):
    return SystemSpec(
        modes=(ModeSpec("a", w_a, n_max),),
        qubits=(QubitSpec("q", w_q),),
        couplings=(CouplingSpec("a", "q", g),),
        model=InteractionModel.JC,
    )


def test_resonant_jc_doublet_split_by_2g_sqrt_n():
    """The resonant JC n-excitation doublet sits at +-g sqrt(n)."""
    g = 0.05
    space = build_space(jc_spec(g))
    h = build_hamiltonian(space)
    vals, _ = eigensystem(h)
    for n in (1, 2, 3):
        center = n * 1.0 - 0.0  # E(n,g) = E(n-1,e) = n w - w_q/2 + w_q/2
        pair = [v for v in vals if abs(abs(v - (n - 0.5)) - g * math.sqrt(n)) < 1e-12]
        assert len(pair) >= 2


def test_zero_coupling_spectrum_is_exactly_bare():
    space = build_space(jc_spec(g=0.0, w_q=0.77))
    h = build_hamiltonian(space)
    vals, _ = eigensystem(h)
    assert np.allclose(np.sort(vals), np.sort(space.energies), atol=0.0)


def test_eigensystem_orthonormal():
    space = build_space(jc_spec())
    h = build_hamiltonian(space)
    vals, vecs = eigensystem(h)
    assert np.allclose(vecs.conj().T @ vecs, np.eye(len(vals)), atol=1e-12)
    assert np.all(np.diff(vals) >= 0)


def test_track_levels_follows_through_crossing():
    """Diabatic labels keep their identity across an avoided crossing."""
    base = jc_spec(g=0.02, w_q=1.0)
    i, f = BasisState.parse("1,g"), BasisState.parse("0,e")
    sweep = SweepSpec(base=base, parameter="mode:a", lo=0.9, hi=1.1, points=41,
                      tracked=(i, f))
    res = track_levels(sweep)
    # before the crossing each adiabatic branch is nearly bare
    assert res.overlaps[0].min() > 0.9
    # at resonance the bare weight drops toward 1/2
    mid = len(res.parameters) // 2
    assert res.overlaps[mid].max() < 0.7
    # past the crossing the branches have exchanged bare character
    assert res.overlaps[-1].max() < 0.1
    # level repulsion: the tracked adiabatic gap never vanishes
    assert np.abs(res.levels[:, 0] - res.levels[:, 1]).min() > 0.03
    # the branches are continuous in energy
    assert np.abs(np.diff(res.levels, axis=0)).max() < 0.02


def test_avoided_crossing_gap_matches_first_order_2g():
    g = 0.02
    base = jc_spec(g=g)
    i, f = BasisState.parse("1,g"), BasisState.parse("0,e")
    sweep = SweepSpec(base=base, parameter="qubit:q", lo=0.9, hi=1.1, points=21,
                      tracked=(i, f))
    rep = find_avoided_crossing(sweep, i, f)
    assert rep.gap == pytest.approx(2 * g, rel=1e-8)
    assert rep.predicted == pytest.approx(2 * g, rel=1e-12)
    assert rep.relative_deviation < 1e-8


def test_gap_scaling_with_coupling_order():
    """A second-order crossing gap scales by ~4x when couplings halve... i.e.
    halving g divides a two-virtual-photon gap by about 4."""
    theta = math.pi / 6

    def two_photon(g):
        return SystemSpec(
            modes=(ModeSpec("a", 0.5, 8),),
            qubits=(QubitSpec("q", 1.0),),
            couplings=(CouplingSpec("a", "q", g, theta),),
            model=InteractionModel.GENERALIZED_RABI,
        )

    i, f = BasisState.parse("0,e"), BasisState.parse("2,g")
    gaps = {}
    for g in (0.04, 0.02):
        sweep = SweepSpec(base=two_photon(g), parameter="mode:a", lo=0.45, hi=0.55,
                          points=11, tracked=(i, f))
        gaps[g] = find_avoided_crossing(sweep, i, f).gap
    assert gaps[0.04] / gaps[0.02] == pytest.approx(4.0, rel=0.05)


def test_bare_resonance_parameter_brentq():
    base = jc_spec()
    sweep = SweepSpec(base=base, parameter="mode:a", lo=0.5, hi=1.5, points=5,
                      tracked=(BasisState.parse("1,g"), BasisState.parse("0,e")))
    v = bare_resonance_parameter(sweep, BasisState.parse("1,g"), BasisState.parse("0,e"))
    assert v == pytest.approx(1.0, abs=1e-12)
    sweep2 = SweepSpec(base=base, parameter="mode:a", lo=1.2, hi=1.5, points=5,
                       tracked=(BasisState.parse("1,g"), BasisState.parse("0,e")))
    with pytest.raises(BracketingError):
        bare_resonance_parameter(sweep2, BasisState.parse("1,g"), BasisState.parse("0,e"))


def test_crossing_outside_window_raises():
    base = jc_spec()
    i, f = BasisState.parse("1,g"), BasisState.parse("0,e")
    sweep = SweepSpec(base=base, parameter="qubit:q", lo=1.3, hi=1.5, points=9,
                      tracked=(i, f))
    with pytest.raises(BracketingError):
        find_avoided_crossing(sweep, i, f)


def test_subspace_gap_positive_at_resonance():
    gap = subspace_gap(jc_spec(0.05), BasisState.parse("1,g"), BasisState.parse("0,e"))
    assert gap == pytest.approx(0.1, rel=1e-10)


def test_kerr_numeric_matches_formula_in_dispersive_regime():
    g, w_a, w_q = 0.01, 1.0, 1.7
    spec = jc_spec(g=g, w_a=w_a, w_q=w_q, n_max=10)
    chi = kerr_shift_numeric(spec)
    predicted = -(g**4) / (w_a - w_q) ** 3
    assert chi == pytest.approx(predicted, rel=0.02)


def test_kerr_numeric_warns_outside_dispersive_regime():
    spec = jc_spec(g=0.3, w_a=1.0, w_q=1.7, n_max=10)
    with pytest.warns(UserWarning, match="dispersive"):
        kerr_shift_numeric(spec)


def test_sweep_csv_format():
    base = jc_spec()
    i, f = BasisState.parse("1,g"), BasisState.parse("0,e")
    sweep = SweepSpec(base=base, parameter="mode:a", lo=0.9, hi=1.1, points=3,
                      tracked=(i, f))
    res = track_levels(sweep)
    lines = sweep_csv(res).splitlines()
    assert lines[0] == "param,level_1_g,level_0_e,overlap_1_g,overlap_0_e"
    assert len(lines) == 4
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def shg_spec(model="generalized_rabi"):
    """Two modes (w_a = 2 w_b) and one qubit at n_max 6: dim 98."""
    return SystemSpec(
        modes=(ModeSpec("a", 2.0, 6), ModeSpec("b", 1.0, 6)),
        qubits=(QubitSpec("q", 1.6),),
        couplings=(
            CouplingSpec("a", "q", 0.05, math.pi / 6),
            CouplingSpec("b", "q", 0.05, math.pi / 6),
        ),
        model=InteractionModel.parse(model),
    )


def test_eigensystem_is_real():
    vals, vecs = eigensystem(build_hamiltonian(build_space(shg_spec())))
    assert vals.dtype == np.float64 and vecs.dtype == np.float64


def test_captured_norms_tolerance_edge():
    space = build_space(jc_spec())
    h = build_hamiltonian(space)
    _, vecs = eigensystem(h)
    i = space.index(BasisState.parse("1,g"))
    tol = spectra.NORM_TOL
    assert abs(spectra.captured_norms(h, vecs * (1 + 0.5 * tol), [i])[0] - 1) < tol
    with pytest.raises(CapacityError, match="NORM_TOL"):
        spectra.captured_norms(h, vecs * (1 + 2 * tol), [i])


def test_subspace_gap_above_dense_cap_raises_for_uncaptured_states(monkeypatch):
    """The 16 lowest eigenpairs above DENSE_CAP do not hold |1,2,e>."""
    monkeypatch.setattr(spectra, "DENSE_CAP", 64)
    with pytest.raises(CapacityError, match=r"dimension-98 .*DENSE_CAP = 64"):
        subspace_gap(shg_spec(), BasisState.parse("1,2,e"), BasisState.parse("0,4,e"))


def test_track_levels_above_dense_cap_raises_for_uncaptured_states(monkeypatch):
    monkeypatch.setattr(spectra, "DENSE_CAP", 64)
    sweep = SweepSpec(base=shg_spec(), parameter="mode:a", lo=1.9, hi=2.1, points=3,
                      tracked=(BasisState.parse("1,2,e"), BasisState.parse("0,4,e")))
    with pytest.raises(CapacityError, match=r"dimension-98 .*DENSE_CAP = 64"):
        track_levels(sweep)

"""The sweep Hamiltonian built once, the Hellmann-Feynman slope and the
root search of the avoided-crossing minimum, with work-count guards."""

import math

import numpy as np
import pytest

from rabimix import (
    BasisState,
    BracketingError,
    CouplingSpec,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SweepSpec,
    SystemSpec,
    build_hamiltonian,
    build_space,
    find_avoided_crossing,
    track_levels,
)
from rabimix import spectra

MODELS = list(InteractionModel)


def jc(g=0.02, w_a=1.0, w_q=1.0, n_max=6):
    return SystemSpec(
        modes=(ModeSpec("a", w_a, n_max),),
        qubits=(QubitSpec("q", w_q),),
        couplings=(CouplingSpec("a", "q", g),),
        model=InteractionModel.JC,
    )


def two_mode(model, n_max=4):
    """w_a = 2 w_b with one qubit between: dim 50 at n_max 4."""
    return SystemSpec(
        modes=(ModeSpec("a", 2.0, n_max), ModeSpec("b", 1.0, n_max)),
        qubits=(QubitSpec("q", 1.6),),
        couplings=(
            CouplingSpec("a", "q", 0.05, math.pi / 6),
            CouplingSpec("b", "q", 0.07, math.pi / 6),
        ),
        model=model,
    )


def fig3():
    """The fig-3 two-photon crossing of the benchmark's self-test."""
    theta = 0.5235987755982988
    spec = SystemSpec(
        modes=(ModeSpec("a", 2.0, 8), ModeSpec("b", 1.0, 8)), qubits=(QubitSpec("q", 1.6),),
        couplings=(CouplingSpec("a", "q", 0.07, theta), CouplingSpec("b", "q", 0.14, theta)),
        model=InteractionModel.GENERALIZED_RABI)
    i, f = BasisState.parse("1,0,g"), BasisState.parse("0,2,g")
    return SweepSpec(spec, "mode:a", 1.8, 2.2, 21, (i, f)), i, f


def assert_same_csr(h, ref):
    for name in ("data", "indices", "indptr"):
        x, y = getattr(h.matrix, name), getattr(ref.matrix, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


# -- the per-point operator ---------------------------------------------------

SWEEPS = [("mode:a", 1.8, 2.2), ("qubit:q", 1.5, 1.7), ("coupling:b", 0.0, 0.1)]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
@pytest.mark.parametrize("parameter,lo,hi", SWEEPS, ids=[s[0] for s in SWEEPS])
def test_sweep_hamiltonian_equals_a_fresh_build(model, parameter, lo, hi):
    tracked = (BasisState.parse("1,0,g"), BasisState.parse("0,0,e"))
    sweep = SweepSpec(two_mode(model), parameter, lo, hi, 5, tracked)
    hs = spectra.SweepHamiltonian(sweep)
    for v in sweep.values():
        h = hs.at(v)
        ref = build_hamiltonian(build_space(sweep.spec_at(v)))
        assert h.space.spec == sweep.spec_at(v)
        assert np.array_equal(h.space.energies, ref.space.energies)
        assert_same_csr(h, ref)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
@pytest.mark.parametrize("lo,hi", [(0.25, 0.75), (0.5, 1.0)], ids=["middle", "first"])
def test_sweep_hamiltonian_drops_an_exactly_zero_bare_energy(model, lo, hi):
    """At w_a = 0.5 = w_q / 2, E(|1,g>) is exactly 0, so a fresh build stores
    no diagonal entry there, whether that point comes first or later."""
    tracked = (BasisState.parse("1,g"), BasisState.parse("0,e"))
    sweep = SweepSpec(jc().with_model(model), "mode:a", lo, hi, 3, tracked)
    hs = spectra.SweepHamiltonian(sweep)
    zero = hs.space.index(tracked[0])
    for v in sweep.values():
        h = hs.at(v)
        ref = build_hamiltonian(build_space(sweep.spec_at(v)))
        assert (h.space.energies[zero] == 0.0) == (v == 0.5)
        assert_same_csr(h, ref)


def per_point_rebuild(sweep):
    """track_levels with a fresh space and H at every point."""
    values = sweep.values()
    nt = len(sweep.tracked)
    levels, overlaps = np.zeros((len(values), nt)), np.zeros((len(values), nt))
    ambiguous = np.zeros((len(values), nt), dtype=bool)
    anchors = None
    for p, v in enumerate(values):
        space = build_space(sweep.spec_at(v))
        h = build_hamiltonian(space)
        rows = [space.index(s) for s in sweep.tracked]
        vals, vecs = spectra.eigensystem(h, rows)
        bare = vecs[rows].T
        w = (bare if anchors is None else vecs.T @ anchors) ** 2
        anchors = np.zeros((vecs.shape[0], nt))
        for t in range(nt):
            order = np.argsort(w[:, t])[::-1]
            best = int(order[0])
            ambiguous[p, t] = w[order[0], t] - w[order[1], t] < spectra.OVERLAP_AMBIGUITY
            levels[p, t] = vals[best]
            overlaps[p, t] = bare[best, t] ** 2
            anchors[:, t] = vecs[:, best]
    return levels, overlaps, ambiguous


@pytest.mark.parametrize("parameter,lo,hi", SWEEPS, ids=[s[0] for s in SWEEPS])
def test_track_levels_matches_a_per_point_rebuild(parameter, lo, hi):
    tracked = (BasisState.parse("1,0,g"), BasisState.parse("0,0,e"), BasisState.parse("0,2,g"))
    sweep = SweepSpec(two_mode(InteractionModel.GENERALIZED_RABI), parameter, lo, hi, 9, tracked)
    res = track_levels(sweep)
    levels, overlaps, ambiguous = per_point_rebuild(sweep)
    assert np.array_equal(res.levels, levels)
    assert np.array_equal(res.overlaps, overlaps)
    assert np.array_equal(res.ambiguous, ambiguous)


def test_track_levels_matches_a_per_point_rebuild_above_dense_cap(monkeypatch):
    """Lowest-k Krylov branch (dim 82 > 64). ARPACK's start vector changes
    from call to call, so the two agree to rounding, not bitwise."""
    monkeypatch.setattr(spectra, "DENSE_CAP", 64)
    tracked = (BasisState.parse("1,g"), BasisState.parse("0,e"))
    sweep = SweepSpec(jc(n_max=40), "mode:a", 0.9, 1.1, 7, tracked)
    res = track_levels(sweep)
    levels, overlaps, ambiguous = per_point_rebuild(sweep)
    assert np.allclose(res.levels, levels, rtol=0, atol=1e-12)
    assert np.allclose(res.overlaps, overlaps, rtol=0, atol=1e-9)
    assert np.array_equal(res.ambiguous, ambiguous)


# -- the slope and the root -------------------------------------------------

@pytest.mark.parametrize("parameter,v", [("mode:a", 1.97), ("qubit:q", 1.62), ("coupling:b", 0.06)])
def test_hellmann_feynman_slope_matches_central_difference(parameter, v):
    a, b = BasisState.parse("1,0,g"), BasisState.parse("0,2,g")
    sweep = SweepSpec(two_mode(InteractionModel.GENERALIZED_RABI, n_max=6), parameter,
                      v - 0.1, v + 0.1, 3, (a, b))
    hs = spectra.SweepHamiltonian(sweep)
    rows = [hs.space.index(a), hs.space.index(b)]
    dh = spectra.parameter_derivative(hs.space, parameter)
    gap, slope = spectra.gap_and_slope(hs.at(v), dh, rows)
    assert gap == spectra.subspace_gap(sweep.spec_at(v), a, b)
    step = 1e-5
    diff = (spectra.subspace_gap(sweep.spec_at(v + step), a, b)
            - spectra.subspace_gap(sweep.spec_at(v - step), a, b)) / (2 * step)
    assert abs(slope) > 1e-3
    assert slope == pytest.approx(diff, rel=1e-6)


@pytest.mark.parametrize("parameter,lo,hi", [("mode:a", 0.9, 1.13), ("qubit:q", 0.93, 1.08)])
def test_jc_crossing_parameter_to_1e_12(parameter, lo, hi):
    """The |1,g> <-> |0,e> gap sqrt((w_a - w_q)^2 + 4 g^2) is least at
    exactly w_a = w_q = 1; the grid does not contain 1."""
    i, f = BasisState.parse("1,g"), BasisState.parse("0,e")
    sweep = SweepSpec(jc(), parameter, lo, hi, 21, (i, f))
    assert 1.0 not in sweep.values()
    rep = find_avoided_crossing(sweep, i, f)
    assert abs(rep.parameter - 1.0) <= 1e-12
    assert rep.gap == pytest.approx(0.04, rel=1e-13)


def test_cell_without_a_slope_sign_change_raises(monkeypatch):
    """A slope of one sign over the cell is a BracketingError, not brentq's
    ValueError."""
    original = spectra.gap_and_slope

    def rising(h, dh, rows):
        return original(h, dh, rows)[0], 1.0

    monkeypatch.setattr(spectra, "gap_and_slope", rising)
    i, f = BasisState.parse("1,g"), BasisState.parse("0,e")
    sweep = SweepSpec(jc(), "mode:a", 0.9, 1.13, 21, (i, f))
    with pytest.raises(BracketingError, match="does not change sign"):
        find_avoided_crossing(sweep, i, f)


def test_zero_slope_at_the_grid_minimum_returns_it(monkeypatch):
    original = spectra.gap_and_slope

    def flat(h, dh, rows):
        return original(h, dh, rows)[0], 0.0

    monkeypatch.setattr(spectra, "gap_and_slope", flat)
    i, f = BasisState.parse("1,g"), BasisState.parse("0,e")
    sweep = SweepSpec(jc(), "mode:a", 0.9, 1.13, 21, (i, f))
    values = sweep.values()
    gaps = [spectra.subspace_gap(sweep.spec_at(v), i, f) for v in values]
    k = int(np.argmin(gaps))
    rep = find_avoided_crossing(sweep, i, f)
    assert rep.parameter == values[k] and rep.gap == gaps[k]


# -- work counts --------------------------------------------------------------

@pytest.fixture
def counts(monkeypatch):
    """Calls of spectra's eigensystem and build_hint."""
    n = {"eigensystem": 0, "build_hint": 0}
    for name in n:
        original = getattr(spectra, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            n[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectra, name, counted)
    return n


def test_fig3_crossing_work_counts(counts):
    sweep, i, f = fig3()
    find_avoided_crossing(sweep, i, f)
    assert counts["build_hint"] == 1
    assert sweep.points <= counts["eigensystem"] <= 31


def test_track_levels_builds_once_per_frequency_sweep(counts):
    sweep, _, _ = fig3()
    track_levels(sweep)
    assert counts == {"eigensystem": sweep.points, "build_hint": 1}

import inspect
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabimix import (
    BasisState,
    CouplingSpec,
    DegenerateIntermediateError,
    DomainError,
    HermitianOperator,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SystemSpec,
    UnreachableError,
    build_hint,
    build_space,
    diagonal_shift,
    dispersive_kerr_pathsum,
    effective_coupling,
    enumerate_paths,
    interaction_for,
    shortest_order,
)
from rabimix.catalog import get_process, verify_entry
from rabimix.spectra import SweepSpec, find_avoided_crossing

from conftest import sigma_z_only_paths


def jc_resonant(g=0.05, n_max=6):
    return SystemSpec(
        modes=(ModeSpec("a", 1.0, n_max),),
        qubits=(QubitSpec("q", 1.0),),
        couplings=(CouplingSpec("a", "q", g),),
        model=InteractionModel.JC,
    )


def two_photon_spec(g=0.05, theta=math.pi / 6, w_a=0.5, n_max=6):
    """Qubit resonant with two photons of one mode."""
    return SystemSpec(
        modes=(ModeSpec("a", w_a, n_max),),
        qubits=(QubitSpec("q", 1.0),),
        couplings=(CouplingSpec("a", "q", g, theta),),
        model=InteractionModel.GENERALIZED_RABI,
    )


def test_first_order_coupling_is_the_matrix_element():
    g = 0.05
    hint = interaction_for(jc_resonant(g))
    r = effective_coupling(hint, BasisState.parse("1,g"), BasisState.parse("0,e"))
    assert r.order == 1
    assert len(r.paths) == 1
    assert r.value.real == pytest.approx(g, rel=1e-15)


def test_shortest_order_bfs():
    hint = interaction_for(two_photon_spec())
    space = hint.space
    assert shortest_order(hint, space.index(BasisState.parse("0,e")),
                          space.index(BasisState.parse("2,g"))) == 2
    hint = interaction_for(jc_resonant())
    space = hint.space
    with pytest.raises(UnreachableError):
        shortest_order(hint, space.index(BasisState.parse("0,g")),
                       space.index(BasisState.parse("1,e")))


def test_paths_exclude_endpoints_as_intermediates():
    hint = interaction_for(two_photon_spec())
    space = hint.space
    i = space.index(BasisState.parse("0,e"))
    f = space.index(BasisState.parse("2,g"))
    for p in enumerate_paths(hint, i, f, order=4):
        for k in p.states[1:-1]:
            assert k != i and k != f


def test_two_photon_coupling_matches_hand_derivation():
    """Two intermediate routes |1,g> (x then z) and |1,e> (z then x)."""
    g, theta, w_a, w_q = 0.05, math.pi / 6, 0.5, 1.0
    hint = interaction_for(two_photon_spec(g, theta, w_a))
    r = effective_coupling(hint, BasisState.parse("0,e"), BasisState.parse("2,g"))
    gx, gz = g * math.cos(theta), g * math.sin(theta)
    # E(0,e) - E(1,g) = w_q - w_a; E(0,e) - E(1,e) = -w_a
    expected = (gx * (-gz) * math.sqrt(2)) / (w_q - w_a) + (gz * gx * math.sqrt(2)) / (-w_a)
    assert r.order == 2
    assert r.value.real == pytest.approx(expected, rel=1e-13)


def test_coupling_is_hermitian_symmetric():
    hint = interaction_for(two_photon_spec())
    a = effective_coupling(hint, BasisState.parse("0,e"), BasisState.parse("2,g"))
    b = effective_coupling(hint, BasisState.parse("2,g"), BasisState.parse("0,e"))
    assert abs(a.value) == pytest.approx(abs(b.value), rel=1e-12)


def test_homogeneity_order_n_in_coupling_strength():
    """An order-n coupling scales as lambda^n when all strengths scale."""
    base = two_photon_spec()
    for lam in (0.5, 2.0):
        h1 = interaction_for(base)
        scaled = tuple(replace(c, strength=c.strength * lam) for c in base.couplings)
        h2 = interaction_for(replace(base, couplings=scaled))
        g1 = effective_coupling(h1, BasisState.parse("0,e"), BasisState.parse("2,g")).value
        g2 = effective_coupling(h2, BasisState.parse("0,e"), BasisState.parse("2,g")).value
        assert g2.real == pytest.approx(lam**2 * g1.real, rel=1e-12)


def test_truncation_stability_of_low_order_coupling():
    vals = []
    for n_max in (4, 6, 8):
        hint = interaction_for(two_photon_spec(n_max=n_max))
        vals.append(
            effective_coupling(hint, BasisState.parse("0,e"), BasisState.parse("2,g")).value.real
        )
    assert vals[0] == pytest.approx(vals[2], rel=1e-12)
    assert vals[1] == pytest.approx(vals[2], rel=1e-12)


def test_path_enumeration_is_deterministic():
    hint = interaction_for(two_photon_spec())
    space = hint.space
    i = space.index(BasisState.parse("0,e"))
    f = space.index(BasisState.parse("2,g"))
    p1 = enumerate_paths(hint, i, f, order=4)
    p2 = enumerate_paths(hint, i, f, order=4)
    assert [p.states for p in p1] == [p.states for p in p2]
    assert sorted(p.states for p in p1) == [p.states for p in p1]
    g1 = effective_coupling(hint, i, f, order=4).value
    g2 = effective_coupling(hint, i, f, order=4).value
    assert g1 == g2  # bitwise


def test_degenerate_intermediate_raises():
    """A three-photon route through an exactly degenerate intermediate."""
    spec = SystemSpec(
        modes=(ModeSpec("a", 1.0, 4), ModeSpec("b", 1.0, 4)),
        qubits=(QubitSpec("q", 1.0),),
        couplings=(CouplingSpec("a", "q", 0.05), CouplingSpec("b", "q", 0.05)),
        model=InteractionModel.JC,
    )
    hint = interaction_for(spec)
    space = hint.space
    i = space.index(BasisState.parse("1,0,g"))
    f = space.index(BasisState.parse("0,1,g"))
    with pytest.raises(DegenerateIntermediateError):
        enumerate_paths(hint, i, f, order=2)


def test_degenerate_neighbour_off_every_walk_to_f_does_not_raise():
    """Two equal JC qubits: |1,g,g> hops to the degenerate |0,g,e>, but no
    2- or 3-hop walk from |1,g,g> reaches |0,e,g> through it, so those
    orders have no paths and nothing to block."""
    spec = SystemSpec(
        modes=(ModeSpec("a", 1.0, 4),),
        qubits=(QubitSpec("q", 1.0), QubitSpec("r", 1.0)),
        couplings=(CouplingSpec("a", "q", 0.05), CouplingSpec("a", "r", 0.05)),
        model=InteractionModel.JC,
    )
    hint = interaction_for(spec)
    i, f = BasisState.parse("1,g,g"), BasisState.parse("0,e,g")
    r = effective_coupling(hint, i, f, order=2)
    assert (r.value, r.path_count, r.paths) == (0.0, 0, ())
    assert enumerate_paths(hint, i, f, order=3) == ()
    assert effective_coupling(hint, i, f).order == 1


def test_off_resonance_warns():
    spec = two_photon_spec(w_a=0.52)
    hint = interaction_for(spec)
    with pytest.warns(UserWarning, match="off resonance"):
        effective_coupling(hint, BasisState.parse("0,e"), BasisState.parse("2,g"))


def test_stimulated_ratio_scales_as_sqrt_n_plus_one():
    spec = SystemSpec(
        modes=(ModeSpec("a", 1.7, 14), ModeSpec("b", 1.0, 14)),
        qubits=(QubitSpec("q", 0.7),),
        couplings=(
            CouplingSpec("a", "q", 0.05, math.pi / 6),
            CouplingSpec("b", "q", 0.05, math.pi / 6),
        ),
        model=InteractionModel.GENERALIZED_RABI,
    )
    hint = interaction_for(spec)
    entry = get_process("raman_stim_stokes")  # |1,n,g> -> |0,n+1,e>

    def g_eff(n):
        i, f = entry.initial.instantiate(n), entry.final.instantiate(n)
        return effective_coupling(hint, i, f).value

    for n in (0, 1, 3, 8):
        assert abs(g_eff(n)) / abs(g_eff(0)) == pytest.approx(math.sqrt(n + 1), rel=1e-10)


def test_sigma_z_only_filter():
    hint = interaction_for(two_photon_spec())
    space = hint.space
    i = space.index(BasisState.parse("0,g"))
    f = space.index(BasisState.parse("2,g"))
    paths = enumerate_paths(hint, i, f, order=2)
    z_only = sigma_z_only_paths(space, paths)
    for p in z_only:
        rows = {tuple(space.qubit_table[k]) for k in p.states}
        assert len(rows) == 1


def test_second_order_shift_matches_exact_jc_doublet():
    """Dispersive JC: E2 of |0,e> is +g^2/(w_q - w_a) exactly."""
    g, w_a, w_q = 0.02, 1.0, 1.7
    spec = SystemSpec(
        modes=(ModeSpec("a", w_a, 6),),
        qubits=(QubitSpec("q", w_q),),
        couplings=(CouplingSpec("a", "q", g),),
        model=InteractionModel.JC,
    )
    hint = interaction_for(spec)
    e2 = diagonal_shift(hint, BasisState.parse("0,e"), order=2)
    assert e2 == pytest.approx(g * g / (w_q - w_a), rel=1e-13)


@settings(max_examples=20, deadline=None)
@given(
    g=st.floats(min_value=0.005, max_value=0.08),
    theta=st.floats(min_value=0.1, max_value=1.2),
)
def test_two_photon_value_tracks_matrix_elements(g, theta):
    hint = interaction_for(two_photon_spec(g=g, theta=theta))
    r = effective_coupling(hint, BasisState.parse("0,e"), BasisState.parse("2,g"))
    gx, gz = g * math.cos(theta), g * math.sin(theta)
    # routes via |1,g> and |1,e> at w_a = 0.5, w_q = 1.0
    expected = (gx * (-gz) * math.sqrt(2)) / (1.0 - 0.5) + (gz * gx * math.sqrt(2)) / (-0.5)
    assert r.value.real == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("index", [-1, 9, 10])
def test_integer_states_are_range_checked_everywhere(index):
    """HilbertSpace.index owns the state -> index conversion: an int outside
    [0, dim) is a DomainError in every caller, never a wrapped-around entry
    or a bare IndexError; dim - 1 is the last valid state (|4,e>)."""
    hint = interaction_for(two_photon_spec(n_max=4))
    space = hint.space
    assert space.dimension == 10
    f = space.index(BasisState.parse("3,g"))
    calls = {
        "element": lambda s: hint.element(s, f),
        "element (column)": lambda s: hint.element(f, s),
        "effective_coupling": lambda s: effective_coupling(hint, s, f),
        "enumerate_paths": lambda s: enumerate_paths(hint, s, f),
        "shortest_order": lambda s: shortest_order(hint, s, f),
        "shortest_order (final)": lambda s: shortest_order(hint, f, s),
    }
    for name, call in calls.items():
        if index == space.dimension - 1:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert call(index) is not None, name
        else:
            with pytest.raises(DomainError, match=rf"basis index {index} outside \[0, 10\)"):
                call(index)
    assert hint.element(9, f) == hint.element(BasisState.parse("4,e"), "3,g") != 0.0
    assert shortest_order(hint, 9, f) == 1


def test_real_values_are_python_floats():
    """H is real, so every coupling, amplitude and matrix element is a
    float, not a complex number with a zero imaginary part."""
    hint = interaction_for(two_photon_spec())
    i, f = BasisState.parse("0,e"), BasisState.parse("2,g")
    ec = effective_coupling(hint, i, f)
    assert type(ec.value) is float
    assert ec.paths
    for p in ec.paths:
        assert all(type(v) is float for v in p.amplitudes)
        assert type(p.contribution) is float
    assert type(hint.element(BasisState.parse("1,g"), i)) is float
    sweep = SweepSpec(base=two_photon_spec(), parameter="mode:a", lo=0.45, hi=0.55,
                      points=11, tracked=(i, f))
    assert type(find_avoided_crossing(sweep, i, f).g_eff) is float
    for pid in ("shg_1r1q", "kerr_dispersive"):
        assert type(verify_entry(get_process(pid)).g_eff) is float, pid


def test_the_operator_carries_its_space():
    """The path-sum functions read states and bare energies from
    ``h_int.space``, so they take no second copy of the space that could
    disagree with it; ``build_hint`` reads couplings and model from
    ``space.spec``; ``interaction_for`` returns the operator alone."""
    for fn in (shortest_order, enumerate_paths, effective_coupling, diagonal_shift,
               dispersive_kerr_pathsum):
        assert "space" not in inspect.signature(fn).parameters, fn.__name__
    assert list(inspect.signature(build_hint).parameters) == ["space"]
    spec = two_photon_spec()
    hint = interaction_for(spec)
    assert isinstance(hint, HermitianOperator)
    assert hint.space.spec == spec
    fresh = build_hint(build_space(spec)).matrix
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(hint.matrix, name), getattr(fresh, name)), name

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabimix import (
    BasisState,
    CouplingSpec,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SystemSpec,
    build_h0,
    build_hamiltonian,
    build_hint,
    build_space,
    commutator_norm,
    parity_operator,
    total_number_operator,
)
from rabimix.catalog import CATALOG, build_system, default_frequencies
from rabimix.hamiltonian import canonical_csr


def make_spec(model, theta=0.0, n_max=4, g=0.1, w_a=1.0, w_q=0.9):
    return SystemSpec(
        modes=(ModeSpec("a", w_a, n_max),),
        qubits=(QubitSpec("q", w_q),),
        couplings=(CouplingSpec("a", "q", g, theta),),
        model=model,
    )


def hint_for(space):
    return build_hint(space)


def test_h0_is_diagonal_with_bare_energies():
    space = build_space(make_spec(InteractionModel.JC))
    h0 = build_h0(space).to_dense()
    assert np.array_equal(np.diag(np.diag(h0)), h0)
    assert np.array_equal(np.diag(h0).real, space.energies)


def test_jc_matrix_element_is_g_sqrt_n():
    g = 0.1
    space = build_space(make_spec(InteractionModel.JC, g=g))
    hint = hint_for(space)
    for n in range(1, 4):
        lo = space.index(BasisState((n - 1,), ("e",)))
        hi = space.index(BasisState((n,), ("g",)))
        assert hint.element(lo, hi) == pytest.approx(g * math.sqrt(n), rel=1e-15)
    # JC has no counter-rotating element
    i = space.index(BasisState((0,), ("g",)))
    f = space.index(BasisState((1,), ("e",)))
    assert hint.element(f, i) == 0.0


def test_rabi_adds_counter_rotating_terms():
    g = 0.1
    space = build_space(make_spec(InteractionModel.RABI, g=g))
    hint = hint_for(space)
    i = space.index(BasisState((0,), ("g",)))
    f = space.index(BasisState((1,), ("e",)))
    assert hint.element(f, i) == pytest.approx(g, rel=1e-15)


def test_generalized_rabi_mixing_angle_splits_x_and_z():
    g, theta = 0.1, 0.4
    space = build_space(make_spec(InteractionModel.GENERALIZED_RABI, theta=theta, g=g))
    hint = hint_for(space)
    # transverse element scaled by cos(theta)
    i = space.index(BasisState((1,), ("g",)))
    f = space.index(BasisState((0,), ("e",)))
    assert hint.element(f, i) == pytest.approx(g * math.cos(theta), rel=1e-14)
    # longitudinal element: sigma_z diagonal in the qubit, +/- g sin(theta) sqrt(n)
    i = space.index(BasisState((0,), ("e",)))
    f = space.index(BasisState((1,), ("e",)))
    assert hint.element(f, i) == pytest.approx(g * math.sin(theta), rel=1e-14)
    i = space.index(BasisState((0,), ("g",)))
    f = space.index(BasisState((1,), ("g",)))
    assert hint.element(f, i) == pytest.approx(-g * math.sin(theta), rel=1e-14)


def test_theta_zero_generalized_rabi_equals_rabi():
    s1 = build_space(make_spec(InteractionModel.GENERALIZED_RABI, theta=0.0))
    s2 = build_space(make_spec(InteractionModel.RABI))
    assert np.array_equal(hint_for(s1).to_dense(), hint_for(s2).to_dense())


def test_hermiticity_is_exact():
    for model in InteractionModel:
        space = build_space(make_spec(model, theta=0.3))
        assert_exactly_symmetric(build_hamiltonian(space))


def test_jc_commutes_with_total_number_exactly():
    space = build_space(make_spec(InteractionModel.JC))
    h = build_hamiltonian(space)
    n_op = total_number_operator(space)
    assert commutator_norm(h, n_op) == 0.0


def test_rabi_commutes_with_parity_exactly():
    space = build_space(make_spec(InteractionModel.RABI))
    h = build_hamiltonian(space)
    pi_op = parity_operator(space)
    assert commutator_norm(h, pi_op) == 0.0


def test_rabi_breaks_number_and_generalized_breaks_parity():
    space = build_space(make_spec(InteractionModel.RABI))
    h = build_hamiltonian(space)
    assert commutator_norm(h, total_number_operator(space)) > 0.01
    space = build_space(make_spec(InteractionModel.GENERALIZED_RABI, theta=0.3))
    h = build_hamiltonian(space)
    assert commutator_norm(h, parity_operator(space)) > 0.01


def test_truncation_cutoff_is_hard():
    """No matrix element reaches outside the truncated ladder."""
    n_max = 3
    space = build_space(make_spec(InteractionModel.RABI, n_max=n_max))
    hint = hint_for(space).to_dense()
    # the top rung connects only downward
    top_e = space.index(BasisState((n_max,), ("e",)))
    connected = np.nonzero(hint[:, top_e])[0]
    for k in connected:
        assert space.state(k).occupations[0] == n_max - 1


def test_two_modes_two_qubits_cross_terms():
    spec = SystemSpec(
        modes=(ModeSpec("a", 1.0, 2), ModeSpec("b", 1.4, 2)),
        qubits=(QubitSpec("q1", 0.8), QubitSpec("q2", 1.1)),
        couplings=(
            CouplingSpec("a", "q1", 0.05),
            CouplingSpec("b", "q2", 0.07),
        ),
        model=InteractionModel.JC,
    )
    space = build_space(spec)
    hint = hint_for(space)
    i = space.index(BasisState.parse("1,0,g,g"))
    f = space.index(BasisState.parse("0,0,e,g"))
    assert hint.element(f, i) == pytest.approx(0.05, rel=1e-15)
    i = space.index(BasisState.parse("0,1,g,g"))
    f = space.index(BasisState.parse("0,0,g,e"))
    assert hint.element(f, i) == pytest.approx(0.07, rel=1e-15)
    # no coupling between a and q2 was declared
    i = space.index(BasisState.parse("1,0,g,g"))
    f = space.index(BasisState.parse("0,0,g,e"))
    assert hint.element(f, i) == 0.0


@settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from(list(InteractionModel)),
    theta=st.floats(min_value=-1.5, max_value=1.5),
    g=st.floats(min_value=1e-4, max_value=0.5),
    n_max=st.integers(min_value=1, max_value=5),
)
def test_hermiticity_exact_for_random_systems(model, theta, g, n_max):
    space = build_space(make_spec(model, theta=theta, g=g, n_max=n_max))
    assert_exactly_symmetric(build_hamiltonian(space))


def equal_qubits_spec(model, n_qubits=6, n_max=6, theta=math.pi / 6):
    """One mode resonant with n_qubits photons of n_qubits equal qubits."""
    qubits = tuple(QubitSpec(f"q{k}", 0.83) for k in range(n_qubits))
    return SystemSpec(
        modes=(ModeSpec("a", n_qubits * 0.83, n_max),),
        qubits=qubits,
        couplings=tuple(CouplingSpec("a", q.label, 0.05, theta) for q in qubits),
        model=model,
    )


def assert_exactly_symmetric(h):
    rows, cols, vals = h.matrix.triplets()
    mirror = np.lexsort((rows, cols))  # the entries of H^T in CSR order
    assert np.array_equal(cols[mirror], rows) and np.array_equal(rows[mirror], cols)  # pattern
    assert np.array_equal(vals[mirror], vals)  # values, entry by entry


@pytest.mark.parametrize("model", list(InteractionModel))
def test_hint_exactly_symmetric_with_six_equal_qubits(model):
    """Summing the sigma_z terms of equal qubits once per mode gives every hop
    one amplitude, shared with its reverse hop."""
    space = build_space(equal_qubits_spec(model))
    h = hint_for(space)
    assert_exactly_symmetric(h)
    # three excited and three ground qubits: the longitudinal terms cancel
    # exactly, so the hop is not stored in either direction
    lo, hi = BasisState.parse("2,e,e,e,g,g,g"), BasisState.parse("3,e,e,e,g,g,g")
    assert h.element(hi, lo) == 0.0 and h.element(lo, hi) == 0.0


def test_hint_exactly_symmetric_with_repeated_couplings():
    """Several couplings on one mode-qubit pair are summed before the hop."""
    spec = SystemSpec(
        modes=(ModeSpec("a", 1.0, 5), ModeSpec("b", 1.3, 4)),
        qubits=(QubitSpec("q", 0.9), QubitSpec("r", 0.9)),
        couplings=tuple(CouplingSpec("a", "q", g, t) for g, t in ((0.1, 0.3), (0.07, 1.1), (0.03, -0.4)))
        + (CouplingSpec("a", "r", 0.1, 0.3), CouplingSpec("b", "r", 0.05, 0.7)),
        model=InteractionModel.GENERALIZED_RABI,
    )
    h = hint_for(build_space(spec))
    assert_exactly_symmetric(h)
    # <1,0,e,g|H|0,0,g,g>: a^dag sigma+ on qubit q, with the three strengths summed
    gx = sum(g * math.cos(t) for g, t in ((0.1, 0.3), (0.07, 1.1), (0.03, -0.4)))
    assert h.element(BasisState.parse("1,0,e,g"), BasisState.parse("0,0,g,g")).real == pytest.approx(gx, rel=1e-15)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_h_is_the_canonical_sum_of_h0_and_hint(entry):
    """build_hamiltonian, which adds the bare energies to H_int's entries,
    gives the arrays of the canonical sum of H0 and H_int on every catalog
    system under every model: H_int stores no diagonal entry."""
    spec = build_system(entry, default_frequencies(entry))
    for model in InteractionModel:
        space = build_space(spec.with_model(model))
        h, hint = build_hamiltonian(space).matrix, build_hint(space)
        assert not np.any(hint.matrix.rows == hint.matrix.indices), model
        ref = canonical_csr(space.dimension, build_h0(space).matrix.triplets(), hint.matrix.triplets())
        for name in ("indptr", "indices", "data"):
            x, y = getattr(h, name), getattr(ref, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), (model, name)

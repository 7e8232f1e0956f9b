"""The resolvent-chain path sum against a brute-force walk over the dense
matrix: values, path counts, listed paths, degenerate-intermediate errors
and the enumeration cap; and the reachability walk against breadth-first
search."""

import math
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabimix import (
    BasisState,
    CapacityError,
    CouplingSpec,
    DegenerateIntermediateError,
    DomainError,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SystemSpec,
    UnreachableError,
    build_space,
    diagonal_shift,
    effective_coupling,
    enumerate_paths,
    interaction_for,
    perturbation,
    shortest_order,
)
from rabimix.catalog import build_system, default_frequencies, get_process
from rabimix.perturbation import DEGENERACY_TOL


def two_photon_spec(w_a=0.5, n_max=6):
    """Qubit resonant with two photons of one mode."""
    return SystemSpec(
        modes=(ModeSpec("a", w_a, n_max),),
        qubits=(QubitSpec("q", 1.0),),
        couplings=(CouplingSpec("a", "q", 0.05, math.pi / 6),),
        model=InteractionModel.GENERALIZED_RABI,
    )



def brute_force_paths(space, hint, i, f, n, tol=DEGENERACY_TOL):
    """Every n-hop walk i -> f over the nonzero entries of the dense matrix,
    intermediates != i, f and nondegenerate with i, in lexicographic order.

    Returns (states, contributions) of the paths and the first degenerate
    intermediate of the first walk i -> f, in the same order, that meets one
    (None if no walk through intermediates != i, f meets one)."""
    h = hint.to_dense()
    e = space.energies
    hops = [np.flatnonzero(h[:, j]) for j in range(space.dimension)]
    states, contributions, blocked = [], [], []

    def walk(j, left, seq, c, degenerate):
        for k in hops[j]:
            k = int(k)
            if left == 1:
                if k == f and degenerate is None:
                    states.append(seq + (k,))
                    contributions.append(c * h[k, j])
                elif k == f:
                    blocked.append(degenerate)
            elif k not in (i, f):
                if abs(e[k] - e[i]) < tol:
                    walk(k, left - 1, seq + (k,), c, k if degenerate is None else degenerate)
                else:
                    walk(k, left - 1, seq + (k,), c * h[k, j] / (e[i] - e[k]), degenerate)

    walk(i, n, (i,), 1.0, None)
    return states, contributions, (blocked[0] if blocked else None)


FREQS = [0.5, 0.83, 1.0, 1.3, 1.66, 2.0]  # repeats and sums give degeneracies


@st.composite
def small_cases(draw):
    n_modes = draw(st.integers(1, 2))
    n_qubits = draw(st.integers(1, 3 - n_modes))
    modes = tuple(
        ModeSpec(f"m{k}", draw(st.sampled_from(FREQS)), draw(st.integers(1, 3)))
        for k in range(n_modes)
    )
    qubits = tuple(QubitSpec(f"q{k}", draw(st.sampled_from(FREQS))) for k in range(n_qubits))
    couplings = tuple(
        CouplingSpec(m.label, q.label, draw(st.floats(0.01, 0.1)), draw(st.floats(-1.4, 1.4)))
        for m in modes for q in qubits
    )
    spec = SystemSpec(modes, qubits, couplings, draw(st.sampled_from(list(InteractionModel))))
    dim = build_space(spec).dimension
    i, f = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    return spec, i, f, draw(st.integers(1, 5))


@settings(max_examples=200, deadline=None)
@given(small_cases())
def test_chain_equals_brute_force_path_sum(case):
    """Value to 1e-12 of the sum of |contributions|, equal path counts, the
    same paths in the same order, and the same degenerate-intermediate error."""
    spec, i, f, n = case
    hint = interaction_for(spec)
    space = hint.space
    states, contributions, blocked = brute_force_paths(space, hint, i, f, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if not states and blocked is not None:
            with pytest.raises(DegenerateIntermediateError) as err:
                effective_coupling(hint, i, f, order=n)
            assert err.value.state == space.state(blocked)
            with pytest.raises(DegenerateIntermediateError) as err:
                enumerate_paths(hint, i, f, order=n)
            assert err.value.state == space.state(blocked)
            return
        r = effective_coupling(hint, i, f, order=n)
    assert r.order == n
    assert r.path_count == len(states)
    scale = sum(abs(c) for c in contributions)
    assert abs(r.value - sum(contributions)) <= 1e-12 * scale
    assert [p.states for p in r.paths] == states


def test_blocked_walk_names_the_first_degenerate_hop():
    """Both order-2 walks |2,g,g> -> |0,e,e> pass a state degenerate with
    |2,g,g>: |1,e,g> (index 5) and |1,g,e> (index 9). The error names the
    first in depth-first order, hops taken in ascending index; a walk that
    took the last passable hop would name |1,g,e>."""
    spec = SystemSpec(
        modes=(ModeSpec("a", 0.5, 3),),
        qubits=(QubitSpec("q1", 0.5), QubitSpec("q2", 0.5)),
        couplings=(CouplingSpec("a", "q1", 0.05, 0.0), CouplingSpec("a", "q2", 0.05, 0.0)),
        model=InteractionModel.JC,
    )
    hint = interaction_for(spec)
    space = hint.space
    i, f = BasisState.parse("2,g,g"), BasisState.parse("0,e,e")
    first, last = BasisState.parse("1,e,g"), BasisState.parse("1,g,e")
    assert (space.index(first), space.index(last)) == (5, 9)
    assert space.bare_energy(first) == space.bare_energy(last) == space.bare_energy(i)
    states, _, blocked = brute_force_paths(space, hint, space.index(i), space.index(f), 2)
    assert states == [] and blocked == 5
    for walk in (effective_coupling, enumerate_paths):
        with pytest.raises(DegenerateIntermediateError) as err:
            walk(hint, i, f, order=2)
        assert err.value.state == first, walk.__name__


def test_chain_count_is_orientation_free_with_many_equal_qubits():
    """Six equal qubits: the count i -> f equals the count f -> i and the
    brute-force count (the longitudinal terms cancel exactly, leaving no
    one-sided rounding residues to walk through)."""
    qubits = tuple(QubitSpec(f"q{k}", 0.83) for k in range(6))
    spec = SystemSpec(
        modes=(ModeSpec("a", 6 * 0.83, 4),),
        qubits=qubits,
        couplings=tuple(CouplingSpec("a", q.label, 0.05, math.pi / 6) for q in qubits),
        model=InteractionModel.GENERALIZED_RABI,
    )
    hint = interaction_for(spec)
    space = hint.space
    i = space.index(BasisState.parse("1,e,e,e,g,g,g"))
    f = space.index(BasisState.parse("2,e,e,e,g,g,g"))
    states, contributions, _ = brute_force_paths(space, hint, i, f, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        forward = effective_coupling(hint, i, f, order=3)
        backward = effective_coupling(hint, f, i, order=3)
    assert forward.path_count == backward.path_count == len(states) > 0
    assert abs(forward.value - sum(contributions)) <= 1e-12 * sum(map(abs, contributions))


def test_effective_coupling_lists_no_paths(monkeypatch):
    """Value and count come from the chains; paths are listed on demand."""
    hint = interaction_for(two_photon_spec())
    i, f = BasisState.parse("0,e"), BasisState.parse("2,g")
    listed = enumerate_paths(hint, i, f, order=4)

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_paths called")

    monkeypatch.setattr(perturbation, "enumerate_paths", refuse)
    r = effective_coupling(hint, i, f, order=4)
    assert r.path_count == len(listed)
    monkeypatch.undo()
    assert [p.states for p in r.paths] == [p.states for p in listed]
    assert r.value == pytest.approx(sum(p.contribution for p in listed), rel=1e-12)


def test_interference_zero_does_not_raise():
    """A coupling that vanishes by destructive interference is a real zero."""
    entry = get_process("thg_1r3q")
    hint = interaction_for(build_system(entry, default_frequencies(entry), coupling=0.05))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r = effective_coupling(hint, entry.initial.instantiate(0), entry.final.instantiate(0))
    assert abs(r.value) < 1e-12 and r.path_count > 0


def test_path_cap_edge(monkeypatch):
    hint = interaction_for(two_photon_spec())
    i, f = BasisState.parse("0,e"), BasisState.parse("2,g")
    count = effective_coupling(hint, i, f, order=4).path_count
    monkeypatch.setattr(perturbation, "PATH_CAP", count)
    assert len(enumerate_paths(hint, i, f, order=4)) == count
    monkeypatch.setattr(perturbation, "PATH_CAP", count - 1)
    with pytest.raises(CapacityError, match="PATH_CAP"):
        enumerate_paths(hint, i, f, order=4)
    # the value and the count never need the list
    assert effective_coupling(hint, i, f, order=4).path_count == count


def test_fourth_order_shift_matches_brute_force():
    """diagonal_shift(order=4) is the chain with f = i, minus the
    renormalization term."""
    spec = two_photon_spec(w_a=0.37)
    hint = interaction_for(spec)
    space = hint.space
    i = space.index(BasisState.parse("1,g"))
    _, contributions, _ = brute_force_paths(space, hint, i, i, 4)
    h, e = hint.to_dense(), space.energies
    d = np.array([e[i] - e[j] if j != i else np.inf for j in range(space.dimension)])
    e2 = np.sum(h[:, i] ** 2 / d)
    expected = sum(contributions) - e2 * np.sum(h[:, i] ** 2 / d**2)
    assert diagonal_shift(hint, i, order=2) == pytest.approx(e2, rel=1e-13)
    assert diagonal_shift(hint, i, order=4) == pytest.approx(expected, rel=1e-12)


def test_order_below_one_is_a_domain_error():
    hint = interaction_for(two_photon_spec())
    for fn in (effective_coupling, enumerate_paths):
        with pytest.raises(DomainError, match="order must be >= 1"):
            fn(hint, BasisState.parse("0,e"), BasisState.parse("2,g"), order=0)


def breadth_first_order(hint, i, f, max_depth):
    """Shortest hop count i -> f over the stored entries, by breadth-first
    search (the reference for the walk in ``shortest_order``); None when f
    is not reached within ``max_depth`` hops."""
    m = hint.matrix
    seen = {i: 0}
    queue = deque([i])
    while queue:
        j = queue.popleft()
        depth = seen[j]
        if depth >= max_depth:
            continue
        for k in m.indices[m.indptr[j]: m.indptr[j + 1]].tolist():
            if k == f:
                return depth + 1
            if k not in seen:
                seen[k] = depth + 1
                queue.append(k)
    return None


@settings(max_examples=200, deadline=None)
@given(small_cases(), st.integers(1, 8))
def test_shortest_order_equals_breadth_first_search(case, max_depth):
    """Same order on reachable pairs, same error on unreachable ones."""
    spec, i, f, _ = case
    hint = interaction_for(spec)
    space = hint.space
    if i == f:
        with pytest.raises(UnreachableError, match="initial and final states coincide"):
            shortest_order(hint, i, f, max_depth)
        return
    expected = breadth_first_order(hint, i, f, max_depth)
    if expected is None:
        with pytest.raises(UnreachableError) as err:
            shortest_order(hint, i, f, max_depth)
        assert str(err.value) == (f"no interaction path from {space.state(i)} to "
                                  f"{space.state(f)} within depth {max_depth}")
    else:
        assert shortest_order(hint, i, f, max_depth) == expected


def test_shortest_order_at_max_depth_edge():
    """|0,e> -> |4,g> takes four photon-adding hops: found at max_depth 4,
    unreachable at 3."""
    hint = interaction_for(two_photon_spec())
    i, f = BasisState.parse("0,e"), BasisState.parse("4,g")
    assert shortest_order(hint, i, f, max_depth=4) == 4
    with pytest.raises(UnreachableError) as err:
        shortest_order(hint, i, f, max_depth=3)
    assert str(err.value) == "no interaction path from |0,e> to |4,g> within depth 3"

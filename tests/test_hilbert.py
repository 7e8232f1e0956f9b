import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabimix import (
    BasisState,
    ConfigError,
    CouplingSpec,
    CapacityError,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SystemSpec,
    build_space,
    default_n_max,
)


def make_spec(n_maxes, n_qubits=1):
    modes = tuple(
        ModeSpec(chr(ord("a") + k), 1.0 + 0.3 * k, nm) for k, nm in enumerate(n_maxes)
    )
    qubits = tuple(QubitSpec(f"q{k + 1}", 0.7 + 0.2 * k) for k in range(n_qubits))
    couplings = tuple(CouplingSpec(modes[0].label, q.label, 0.01) for q in qubits)
    return SystemSpec(modes, qubits, couplings, InteractionModel.RABI)


def test_dimension_is_product_of_local_dimensions():
    space = build_space(make_spec([3, 5], n_qubits=2))
    assert space.dimension == 4 * 6 * 2 * 2


def test_index_state_round_trip():
    space = build_space(make_spec([2, 3], n_qubits=2))
    for k in range(space.dimension):
        s = space.state(k)
        assert space.index(s) == k


def test_first_mode_varies_fastest():
    space = build_space(make_spec([2, 3]))
    s0 = space.state(0)
    s1 = space.state(1)
    assert s1.occupations[0] == s0.occupations[0] + 1
    assert s1.occupations[1] == s0.occupations[1]


def test_bare_energy_matches_hand_sum():
    spec = make_spec([3, 3], n_qubits=1)
    space = build_space(spec)
    s = BasisState((2, 1), ("e",))
    expected = 2 * spec.modes[0].frequency + 1 * spec.modes[1].frequency
    expected += 0.5 * spec.qubits[0].frequency
    assert space.bare_energy(s) == pytest.approx(expected, rel=1e-15)
    g = BasisState((0, 0), ("g",))
    assert space.bare_energy(g) == pytest.approx(-0.5 * spec.qubits[0].frequency)


def test_state_parse_and_label_round_trip():
    s = BasisState.parse("1,0,2,g,e")
    assert s.occupations == (1, 0, 2)
    assert s.qubit_states == ("g", "e")
    assert s.label() == "1,0,2,g,e"
    assert BasisState.parse(s.label()) == s


def test_parse_rejects_garbage():
    from rabimix import RabimixError

    for bad in ("x,g", "1,h", "-1,g"):
        with pytest.raises(RabimixError):
            BasisState.parse(bad)


def test_index_rejects_out_of_range_occupation():
    from rabimix import DomainError

    space = build_space(make_spec([2]))
    with pytest.raises(DomainError):
        space.index(BasisState((5,), ("g",)))
    with pytest.raises(DomainError):
        space.index(BasisState((1, 1), ("g",)))


def test_dimension_cap_enforced():
    with pytest.raises(CapacityError):
        build_space(make_spec([2**21]))


def test_default_n_max_adds_margin():
    assert default_n_max(2) == 6
    assert default_n_max(0) == 5


def test_duplicate_mode_labels_rejected():
    with pytest.raises(ConfigError):
        SystemSpec(
            modes=(ModeSpec("a", 1.0, 2), ModeSpec("a", 2.0, 2)),
            qubits=(QubitSpec("q", 1.0),),
            couplings=(CouplingSpec("a", "q", 0.1),),
            model=InteractionModel.JC,
        )


def test_coupling_to_unknown_labels_rejected():
    with pytest.raises(ConfigError):
        SystemSpec(
            modes=(ModeSpec("a", 1.0, 2),),
            qubits=(QubitSpec("q", 1.0),),
            couplings=(CouplingSpec("a", "z", 0.1),),
            model=InteractionModel.JC,
        )


def test_label_and_index_lookups_share_one_check():
    """The space finds modes and qubits through the spec's lookup, and a
    basis index through ``index``: each raises the owner's error."""
    from rabimix import DomainError

    spec = make_spec([2, 3], n_qubits=2)
    space = build_space(spec)
    assert [space.mode_index(m) for m in ("a", "b")] == [0, 1]
    assert [space.qubit_index(q) for q in ("q1", "q2")] == [0, 1]
    for lookup in (space.mode_index, spec.mode, lambda x: spec.with_mode_frequency(x, 2.0)):
        with pytest.raises(ConfigError, match="unknown mode label 'q1'"):
            lookup("q1")
    for lookup in (space.qubit_index, spec.qubit, lambda x: spec.with_qubit_frequency(x, 2.0)):
        with pytest.raises(ConfigError, match="unknown qubit label 'a'"):
            lookup("a")
    assert spec.with_qubit_frequency("q2", 2.0).qubits[1].frequency == 2.0
    assert space.state(space.dimension - 1) == BasisState.parse("2,3,e,e")
    for i in (-1, space.dimension):
        with pytest.raises(DomainError, match=rf"basis index {i} outside \[0, 48\)"):
            space.state(i)


def test_system_spec_parses_its_model_on_construction():
    """A model name becomes the enum member, so a spec given "jc" equals
    one given InteractionModel.JC, and an unknown name is rejected by the
    constructor, not later when H is built."""
    modes, qubits = (ModeSpec("a", 1.0, 2),), (QubitSpec("q", 1.0),)
    spec = SystemSpec(modes, qubits, model="jc")
    assert spec.model is InteractionModel.JC
    assert spec == spec.with_model("jc")
    assert spec == SystemSpec(modes, qubits, model=InteractionModel.JC)
    with pytest.raises(ConfigError, match="unknown interaction model 'foo'"):
        SystemSpec(modes, qubits, model="foo")


@settings(max_examples=50, deadline=None)
@given(
    n_maxes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    n_qubits=st.integers(min_value=1, max_value=2),
)
def test_indexing_bijective_for_random_shapes(n_maxes, n_qubits):
    space = build_space(make_spec(n_maxes, n_qubits))
    seen = set()
    for k in range(space.dimension):
        s = space.state(k)
        assert space.index(s) == k
        seen.add(s)
    assert len(seen) == space.dimension

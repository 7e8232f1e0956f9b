import math

import numpy as np
import pytest
import scipy.linalg

from rabimix import (
    BasisState,
    CapacityError,
    CouplingSpec,
    EvolutionSpec,
    FlatTraceError,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SystemSpec,
    build_hamiltonian,
    build_space,
    evolve,
    extract_oscillation,
)
from rabimix import spectra
from rabimix.dynamics import PopulationTrace, trace_csv


def jc_spec(g=0.05, w_a=1.0, w_q=1.0, n_max=6):
    return SystemSpec(
        modes=(ModeSpec("a", w_a, n_max),),
        qubits=(QubitSpec("q", w_q),),
        couplings=(CouplingSpec("a", "q", g),),
        model=InteractionModel.JC,
    )


def shg_spec(model):
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


def run(spec, initial, targets, total_time, samples=512):
    space = build_space(spec)
    h = build_hamiltonian(space)
    ev = EvolutionSpec(initial=BasisState.parse(initial), total_time=total_time,
                       samples=samples, targets=tuple(BasisState.parse(t) for t in targets))
    return evolve(space, h, ev)


def test_vacuum_rabi_frequency_is_2g():
    g = 0.05
    trace = run(jc_spec(g), "1,g", ["0,e"], total_time=6 * math.pi / g)
    freq, pmax = extract_oscillation(trace)
    assert freq == pytest.approx(2 * g, rel=0.02)
    assert pmax > 0.999


def test_population_starts_at_zero_and_returns():
    g = 0.05
    trace = run(jc_spec(g), "1,g", ["0,e", "1,g"], total_time=2 * math.pi / (2 * g))
    p_e = trace.population(BasisState.parse("0,e"))
    p_g = trace.population(BasisState.parse("1,g"))
    assert p_e[0] == pytest.approx(0.0, abs=1e-12)
    assert p_g[0] == pytest.approx(1.0, abs=1e-12)
    # resonant JC transfers the full population and brings it back
    assert p_e.max() > 0.999
    assert p_g[-1] > 0.99


def test_norm_and_energy_conserved():
    """The norm stays 1, and sampled populations equal those of the dense
    propagator expm(-iHt), which is unitary and commutes with H."""
    spec = jc_spec(0.08, w_q=0.93)
    trace = run(spec, "2,g", ["1,e"], total_time=500.0)
    assert np.max(np.abs(trace.norms - 1.0)) < 1e-10
    space = build_space(spec)
    dense = build_hamiltonian(space).to_dense()
    i, f = space.index(BasisState.parse("2,g")), space.index(BasisState.parse("1,e"))
    for k in (1, 100, 277, 511):
        ref = abs(scipy.linalg.expm(-1j * dense * trace.times[k])[f, i]) ** 2
        assert abs(trace.population(BasisState.parse("1,e"))[k] - ref) < 1e-10


def test_stationary_state_raises_flat_trace():
    # |0,g> is an exact JC eigenstate; nothing oscillates
    trace = run(jc_spec(0.05), "0,g", ["0,g"], total_time=100.0)
    with pytest.raises(FlatTraceError):
        extract_oscillation(trace)


def test_synthetic_sin_squared_trace_recovers_frequency():
    """extract_oscillation sees sin^2(W t) = (1 - cos(2 W t))/2 as 2W."""
    w = 0.037
    times = np.linspace(0.0, 12 * math.pi / w, 4096)
    p = np.sin(w * times) ** 2
    spec = EvolutionSpec(initial=BasisState.parse("0,g"), total_time=times[-1],
                         samples=len(times), targets=(BasisState.parse("0,g"),))
    trace = PopulationTrace(spec, times, {BasisState.parse("0,g"): p}, np.ones_like(times))
    freq, pmax = extract_oscillation(trace)
    assert freq == pytest.approx(2 * w, rel=1e-3)
    assert pmax == pytest.approx(1.0, abs=1e-6)


def test_detuned_oscillation_faster_and_partial():
    g, delta = 0.05, 0.1
    trace = run(jc_spec(g, w_q=1.0 + delta), "1,g", ["0,e"], total_time=400.0)
    freq, pmax = extract_oscillation(trace)
    expected = math.sqrt((2 * g) ** 2 + delta**2)
    assert freq == pytest.approx(expected, rel=0.02)
    expected_max = (2 * g) ** 2 / ((2 * g) ** 2 + delta**2)
    assert pmax == pytest.approx(expected_max, rel=0.05)


def test_trace_csv_format():
    trace = run(jc_spec(0.05), "1,g", ["0,e"], total_time=50.0, samples=32)
    lines = trace_csv(trace).splitlines()
    assert lines[0] == "t,P_f,norm"
    assert len(lines) == 33
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == pytest.approx(1.0, abs=1e-14)


def test_spec_validation():
    from rabimix import ConfigError

    with pytest.raises(ConfigError):
        EvolutionSpec(initial=BasisState.parse("0,g"), total_time=-1.0,
                      samples=64, targets=(BasisState.parse("0,g"),))
    with pytest.raises(ConfigError):
        EvolutionSpec(initial=BasisState.parse("0,g"), total_time=1.0,
                      samples=4, targets=(BasisState.parse("0,g"),))
    with pytest.raises(ConfigError):
        EvolutionSpec(initial=BasisState.parse("0,g"), total_time=1.0,
                      samples=64, targets=())


@pytest.mark.parametrize("samples", [16, 517, 4096])
@pytest.mark.parametrize("model", ["jc", "rabi", "generalized_rabi"])
def test_evolve_matches_full_state_reference(model, samples):
    """Target-only amplitudes equal the columns of V e^{-i Lambda t} V^T e_i."""
    initial, targets = "0,2,g", ("1,0,g", "0,1,e")
    trace = run(shg_spec(model), initial, targets, total_time=300.0, samples=samples)
    space = build_space(shg_spec(model))
    h = build_hamiltonian(space)

    dense = h.to_dense()
    vals, vecs = scipy.linalg.eigh(dense)
    i = space.index(BasisState.parse(initial))
    psi0 = vecs[i]  # V^T e_i
    times = np.linspace(0.0, 300.0, samples)
    states = (np.exp(-1j * np.outer(times, vals)) * psi0) @ vecs.T
    assert np.array_equal(trace.times, times)
    for t in targets:
        ref = np.abs(states[:, space.index(BasisState.parse(t))]) ** 2
        assert np.max(np.abs(trace.population(BasisState.parse(t)) - ref)) < 1e-11
    assert np.max(np.abs(trace.norms - np.linalg.norm(psi0))) < 1e-12


def test_evolve_above_dense_cap_raises_instead_of_truncating(monkeypatch):
    """Above DENSE_CAP only 16 eigenpairs exist; they miss part of |0,2,g>."""
    monkeypatch.setattr(spectra, "DENSE_CAP", 64)
    with pytest.raises(CapacityError, match=r"dimension-98 .*DENSE_CAP = 64.*capture weight 0\.99"):
        run(shg_spec("generalized_rabi"), "0,2,g", ["1,0,g"], total_time=100.0)


def test_evolve_above_dense_cap_keeps_a_fully_captured_state(monkeypatch):
    """JC conserves excitations: the lowest 16 eigenpairs span |0,1,e> exactly."""
    monkeypatch.setattr(spectra, "DENSE_CAP", 64)
    trace = run(shg_spec("jc"), "0,1,e", ["1,0,g"], total_time=100.0)
    assert np.max(np.abs(trace.norms - 1.0)) < spectra.NORM_TOL


def test_trace_csv_bytes_match_fstring_form():
    values = np.array([0.1, 1e-300, 5e-324, -0.0, 1.0, 12345678.901234567])
    spec = EvolutionSpec(initial=BasisState.parse("0,g"), total_time=values[-1],
                         samples=16, targets=(BasisState.parse("0,g"),))
    pops, norms = values[::-1].copy(), np.roll(values, 2)
    trace = PopulationTrace(spec, values, {BasisState.parse("0,g"): pops}, norms)
    lines = ["t,P_f,norm"] + [f"{t:.17g},{p:.17g},{n:.17g}" for t, p, n in zip(values, pops, norms)]
    assert trace_csv(trace) == "\n".join(lines) + "\n"

"""Acceptance gate: one test per headline capability, each printing a
single pass/fail line. Run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they appear.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from rabimix import (
    BasisState,
    CouplingSpec,
    EvolutionSpec,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    Susceptibilities,
    SweepSpec,
    SystemSpec,
    Tone,
    build_hamiltonian,
    build_space,
    closed_form_geff,
    commutator_norm,
    direct_polarization,
    effective_coupling,
    evaluate_polarization,
    evolve,
    extract_oscillation,
    find_avoided_crossing,
    interaction_for,
    list_processes,
    parity_operator,
    polarization_spectrum,
    total_number_operator,
)
from rabimix.catalog import (
    CATALOG,
    build_system,
    default_frequencies,
    distinct_transition_count,
    get_process,
    verify_entry,
)
from rabimix.catalog import _closed_form_params
from rabimix.hamiltonian import build_hint
from rabimix.spectra import subspace_gap

from conftest import sigma_z_only_paths


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    """Let report() bypass output capture so the per-criterion pass/fail
    lines show up even without -s."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(number, name, ok):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line)
    else:
        print(line)


def test_criterion_1_closed_form_oracle_suite():
    """Path-sum g_eff matches every registered analytic formula."""
    resonant_ids = [
        "shg_1r1q", "shg_2r1q", "shg_1r2q", "sshg_1r1q", "sshg_2r1q",
        "sshg_1r2q", "raman_spont_stokes", "raman_spont_anti_stokes",
        "thg_1r1q", "thg_2r1q", "thg_1r3q", "hyper_raman_1_stokes",
        "hyper_raman_1_anti_stokes", "kerr_dispersive",
    ]
    off_resonance_ids = [
        "shg_1r1q", "shg_2r1q", "raman_spont_stokes", "thg_1r1q", "thg_2r1q",
        "thg_1r3q", "hyper_raman_1_stokes", "hyper_raman_1_anti_stokes",
        "hyper_raman_2_stokes",
    ]
    failures = []
    for pid in resonant_ids:
        rep = verify_entry(get_process(pid))
        if not rep.passed or rep.relative_error is None or rep.relative_error > 1e-10:
            failures.append((pid, "resonant", rep.relative_error))
    for pid in ("hyper_raman_2_stokes", "hyper_raman_2_anti_stokes"):
        rep = verify_entry(get_process(pid))
        if not rep.passed:
            failures.append((pid, "resonant-zero", rep.messages))
    for pid in off_resonance_ids:
        entry = get_process(pid)
        for factor in (0.9, 1.1):
            freqs = default_frequencies(entry)
            sym = entry.mode_symbols[0]
            freqs = dict(freqs, **{sym: freqs[sym] * factor})
            g, theta = 0.04, math.pi / 6
            spec = build_system(entry, freqs, coupling=g, mixing_angle=theta)
            hint = interaction_for(spec)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                num = effective_coupling(
                    hint, entry.initial.instantiate(0), entry.final.instantiate(0)
                ).value.real
            ana = closed_form_geff(
                entry.closed_form, **_closed_form_params(entry, freqs, g, theta)
            )
            if abs(num - ana) > 1e-10 * max(abs(ana), abs(num)):
                failures.append((pid, factor, num, ana))
    ok = not failures
    report(1, "closed-form oracle suite", ok)
    assert ok, failures


def test_criterion_2_destructive_interference_zeros():
    """Exact coupling zeros with individually large path contributions."""
    failures = []
    g = 0.05
    for pid, order_n in (("thg_1r3q", 3), ("hyper_raman_2_stokes", 2)):
        entry = get_process(pid)
        freqs = default_frequencies(entry)
        spec = build_system(entry, freqs, coupling=g)
        hint = interaction_for(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ec = effective_coupling(
                hint, entry.initial.instantiate(0), entry.final.instantiate(0)
            )
        w_ref = max(freqs[s] for s in entry.symbols())
        floor = 1e-4 * (g / w_ref) ** (order_n - 1)
        biggest = max(abs(p.contribution) for p in ec.paths)
        if abs(ec.value) >= 1e-12:
            failures.append((pid, "sum", abs(ec.value)))
        if biggest <= floor:
            failures.append((pid, "paths", biggest, floor))
    ok = not failures
    report(2, "destructive-interference zeros", ok)
    assert ok, failures


def fig3_spec(model, n_max=8):
    return SystemSpec(
        modes=(ModeSpec("a", 2.0, n_max), ModeSpec("b", 1.0, n_max)),
        qubits=(QubitSpec("q", 1.6),),
        couplings=(
            CouplingSpec("a", "q", 0.07, math.pi / 6),
            CouplingSpec("b", "q", 0.14, math.pi / 6),
        ),
        model=model,
    )


def test_criterion_3_avoided_crossing_reproduction():
    """Subharmonic anticrossing appears only with the longitudinal term."""
    failures = []
    i, f = BasisState.parse("1,0,g"), BasisState.parse("0,2,g")
    sweep = SweepSpec(base=fig3_spec(InteractionModel.GENERALIZED_RABI),
                      parameter="mode:a", lo=1.8, hi=2.2, points=21, tracked=(i, f))
    rep = find_avoided_crossing(sweep, i, f)
    if abs(rep.predicted - 9.950e-3) > 1e-5:
        failures.append(("2|g_eff|", rep.predicted))
    if rep.relative_deviation > 0.25:
        failures.append(("gap deviation", rep.relative_deviation))
    for model in (InteractionModel.JC, InteractionModel.RABI):
        values = np.linspace(1.8, 2.2, 21)
        gaps = [subspace_gap(fig3_spec(model).with_mode_frequency("a", v), i, f)
                for v in values]
        k = int(np.argmin(gaps))
        res = scipy.optimize.minimize_scalar(
            lambda v: subspace_gap(fig3_spec(model).with_mode_frequency("a", v), i, f),
            bracket=(values[k - 1], values[k], values[k + 1]),
            method="golden", options={"xtol": 1e-12},
        )
        if res.fun >= 1e-6:
            failures.append((model.value, "gap", res.fun))
    # the one-photon |1,0,g> <-> |0,0,e> anticrossing exists under all models
    i2, f2 = BasisState.parse("1,0,g"), BasisState.parse("0,0,e")
    for model in InteractionModel:
        sweep2 = SweepSpec(base=fig3_spec(model), parameter="mode:a",
                           lo=1.4, hi=1.8, points=11, tracked=(i2, f2))
        rep2 = find_avoided_crossing(sweep2, i2, f2)
        if rep2.gap < 1e-3:
            failures.append((model.value, "one-photon gap", rep2.gap))
    ok = not failures
    report(3, "avoided-crossing reproduction", ok)
    assert ok, failures


def test_criterion_4_two_photon_dynamics():
    """Full-contrast two-photon oscillation at the dressed resonance."""
    base = SystemSpec(
        modes=(ModeSpec("a", 0.5, 8),),
        qubits=(QubitSpec("q", 1.0),),
        couplings=(CouplingSpec("a", "q", 0.05, math.pi / 6),),
        model=InteractionModel.GENERALIZED_RABI,
    )
    i, f = BasisState.parse("0,e"), BasisState.parse("2,g")
    sweep = SweepSpec(base=base, parameter="mode:a", lo=0.46, hi=0.54,
                      points=17, tracked=(i, f))
    rep = find_avoided_crossing(sweep, i, f)
    spec = sweep.spec_at(rep.parameter)
    space = build_space(spec)
    h = build_hamiltonian(space)
    ev = EvolutionSpec(initial=i, total_time=4 * math.pi / rep.gap,
                       samples=4096, targets=(f,))
    freq, pmax = extract_oscillation(evolve(space, h, ev))
    ok = pmax > 0.9 and abs(freq - rep.predicted) / rep.predicted < 0.15
    report(4, "two-photon oscillation dynamics", ok)
    assert ok, (freq, rep.predicted, pmax)


def test_criterion_5_stimulated_scaling():
    """Background photons enhance the rate by sqrt(n+1): the stimulated Raman
    transition of the catalog at n photons against n = 0."""
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

    failures = []
    for n in (0, 1, 3, 8):
        ratio = abs(g_eff(n)) / abs(g_eff(0))
        if abs(ratio - math.sqrt(n + 1)) > 1e-10 * math.sqrt(n + 1):
            failures.append((n, ratio))
    ok = not failures
    report(5, "stimulated sqrt(n+1) scaling", ok)
    assert ok, failures


def test_criterion_6_longitudinal_path_cancellation():
    """The purely longitudinal path family interferes to zero on resonance."""
    entry = get_process("sshg_2r1q")
    freqs = default_frequencies(entry)
    spec = build_system(entry, freqs, coupling=0.05)
    hint = interaction_for(spec)
    space = hint.space
    i = space.index(entry.initial.instantiate(0))
    f = space.index(entry.final.instantiate(0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ec = effective_coupling(hint, i, f)
    z_paths = sigma_z_only_paths(space, ec.paths)
    partial = sum(p.contribution for p in z_paths)
    ok = (
        len(z_paths) == 3
        and abs(partial) < 1e-12
        and all(abs(p.contribution) > 0 for p in z_paths)
    )
    report(6, "longitudinal path cancellation", ok)
    assert ok, (len(z_paths), abs(partial))


def test_criterion_7_conservation_invariants():
    """Exact symmetries, 1e-10 unitarity and populations equal to those of the
    dense propagator at a few samples, over randomized systems."""
    rng = np.random.default_rng(20240817)
    failures = []
    for trial in range(20):
        n_modes = int(rng.integers(1, 3))
        modes = tuple(
            ModeSpec(chr(ord("a") + k), float(rng.uniform(0.5, 2.0)), 4)
            for k in range(n_modes)
        )
        qubit = QubitSpec("q", float(rng.uniform(0.5, 2.0)))
        couplings = tuple(
            CouplingSpec(m.label, "q", float(rng.uniform(0.01, 0.1)),
                         float(rng.uniform(0.0, 1.2)))
            for m in modes
        )
        for model in InteractionModel:
            spec = SystemSpec(modes, (qubit,), couplings, model)
            space = build_space(spec)
            h = build_hamiltonian(space)
            if model is InteractionModel.JC:
                if commutator_norm(h, total_number_operator(space)) != 0.0:
                    failures.append((trial, "JC number"))
            if model is InteractionModel.RABI:
                if commutator_norm(h, parity_operator(space)) != 0.0:
                    failures.append((trial, "Rabi parity"))
            initial = space.state(int(rng.integers(0, space.dimension)))
            ev = EvolutionSpec(initial=initial, total_time=50.0, samples=64,
                               targets=(initial,))
            trace = evolve(space, h, ev)
            if abs(trace.norm - 1.0) > 1e-10:
                failures.append((trial, model.value, "norm"))
            # the dense propagator is unitary and commutes with H
            dense, i = h.to_dense(), space.index(initial)
            for k in (9, 30, 63):
                ref = abs(scipy.linalg.expm(-1j * dense * trace.times[k])[i, i]) ** 2
                if abs(trace.population(initial)[k] - ref) > 1e-10:
                    failures.append((trial, model.value, "propagator", k))
    ok = not failures
    report(7, "conservation invariants", ok)
    assert ok, failures


def test_criterion_8_catalog_completeness():
    failures = []
    if distinct_transition_count(1) != 12:
        failures.append(("table 1", distinct_transition_count(1)))
    if distinct_transition_count(2) != 20:
        failures.append(("table 2", distinct_transition_count(2)))
    for e in CATALOG:
        if not e.energy_balance_ok():
            failures.append((e.id, "energy"))
        if e.parity_model() is not e.required_model:
            failures.append((e.id, "parity"))
    for e in list_processes(category="three-wave"):
        if e.required_model is not InteractionModel.GENERALIZED_RABI:
            failures.append((e.id, "model"))
    jc_four_wave = [e for e in list_processes(category="four-wave")
                    if e.required_model is InteractionModel.JC]
    if len(jc_four_wave) < 4:
        failures.append(("type-I four-wave count", len(jc_four_wave)))
    for e in jc_four_wave:
        if not verify_entry(e).reachable:
            failures.append((e.id, "reachability"))
    ok = not failures
    report(8, "catalog completeness", ok)
    assert ok, failures


def test_criterion_9_classical_mixer():
    failures = []
    c2 = {round(float(f), 12): a for f, a in
          polarization_spectrum([Tone(1.0, 1.0)], Susceptibilities(chi2=1.0))}
    if c2 != pytest.approx({0.0: 0.5, 2.0: 0.5}):
        failures.append(("chi2 single", c2))
    c3 = {round(float(f), 12): a for f, a in
          polarization_spectrum([Tone(1.0, 1.0)], Susceptibilities(chi3=1.0))}
    if c3 != pytest.approx({1.0: 0.75, 3.0: 0.25}):
        failures.append(("chi3 single", c3))
    two = polarization_spectrum([Tone(1.0, 1.0), Tone(1.0, 0.3)],
                                Susceptibilities(chi2=1.0))
    if len(two) != 5:
        failures.append(("two-tone chi2", len(two)))
    tones = [Tone(1.0, 1.0), Tone(0.6, 0.31), Tone(0.2, 2.7)]
    chi = Susceptibilities(chi1=0.8, chi2=1.3, chi3=0.9)
    comps = polarization_spectrum(tones, chi)
    for t in np.linspace(0.0, 9.0, 31):
        if abs(evaluate_polarization(comps, t) - direct_polarization(tones, chi, t)) > 1e-12:
            failures.append(("oracle", t))
            break
    ok = not failures
    report(9, "classical mixer", ok)
    assert ok, failures

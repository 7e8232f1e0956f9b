"""Closed-form coupling formulas against the independent path-sum engine.

The path sum enumerates virtual transitions numerically and knows nothing
about the analytic expressions, so agreement at 1e-10 over resonant and
detuned frequency choices is a strong cross-check of both sides.
"""

import math
import warnings

import pytest

from rabimix import (
    DomainError,
    InteractionModel,
    closed_form_geff,
    effective_coupling,
    interaction_for,
)
from rabimix.catalog import (
    build_system,
    default_frequencies,
    get_process,
    verify_entry,
)
from rabimix.catalog import _closed_form_params

#: ids whose registered formula stays valid off resonance (the others are
#: resonant limits only)
OFF_RESONANCE_OK = [
    "shg_1r1q",
    "shg_2r1q",
    "raman_spont_stokes",
    "thg_1r1q",
    "thg_2r1q",
    "thg_1r3q",
    "hyper_raman_1_stokes",
    "hyper_raman_1_anti_stokes",
    "hyper_raman_2_stokes",
]

RESONANT_IDS = [
    "shg_1r1q",
    "shg_2r1q",
    "shg_1r2q",
    "sshg_1r1q",
    "sshg_2r1q",
    "sshg_1r2q",
    "raman_spont_stokes",
    "raman_spont_anti_stokes",
    "thg_1r1q",
    "thg_2r1q",
    "thg_1r3q",
    "hyper_raman_1_stokes",
    "hyper_raman_1_anti_stokes",
    "kerr_dispersive",
]


@pytest.mark.parametrize("process_id", RESONANT_IDS)
def test_closed_form_matches_path_sum_on_resonance(process_id):
    report = verify_entry(get_process(process_id))
    assert report.passed, report.messages
    assert report.relative_error is not None
    assert report.relative_error < 1e-10


@pytest.mark.parametrize("process_id", ["hyper_raman_2_stokes", "hyper_raman_2_anti_stokes"])
def test_interference_zero_processes_agree_on_resonance(process_id):
    """Both sides give (numerically) zero on resonance; scale-aware check."""
    report = verify_entry(get_process(process_id))
    assert report.passed, report.messages
    assert abs(report.g_eff) < 1e-14
    assert abs(report.closed_form_value) < 1e-14


@pytest.mark.parametrize("process_id", OFF_RESONANCE_OK)
@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_closed_form_matches_path_sum_detuned(process_id, factor):
    entry = get_process(process_id)
    freqs = default_frequencies(entry)
    sym = entry.mode_symbols[0]
    freqs = dict(freqs, **{sym: freqs[sym] * factor})
    g, theta = 0.04, math.pi / 6
    spec = build_system(entry, freqs, coupling=g, mixing_angle=theta)
    hint = interaction_for(spec)
    i = entry.initial.instantiate(0)
    f = entry.final.instantiate(0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        num = effective_coupling(hint, i, f).value.real
    ana = closed_form_geff(
        entry.closed_form, **_closed_form_params(entry, freqs, g, theta)
    )
    assert num == pytest.approx(ana, rel=1e-10)


def test_pole_raises_domain_error():
    with pytest.raises(DomainError):
        closed_form_geff("two_photon_qubit", g=0.05, theta=0.3, omega_a=1.0, omega_q=1.0)


def test_unknown_formula_rejected():
    with pytest.raises(DomainError):
        closed_form_geff("no_such_formula", g=0.1)


def test_three_photon_qubit_resonant_simplification():
    """General form reduces to -9 sqrt(6) g^3 / (4 w_q^2) at w_a = w_q/3."""
    g, w_q = 0.03, 1.2
    general = closed_form_geff(
        "three_photon_qubit", g=g, omega_a=w_q / 3.0, omega_q=w_q
    )
    simplified = -9.0 * math.sqrt(6.0) * g**3 / (4.0 * w_q**2)
    assert general == pytest.approx(simplified, rel=1e-12)


def test_shg_general_form_reduces_to_resonant_form():
    g_a, g_b, theta, w_b, w_q = 0.04, 0.05, 0.5, 1.0, 1.37
    general = closed_form_geff(
        "shg_two_mode", g_a=g_a, g_b=g_b, theta=theta,
        omega_a=2.0 * w_b, omega_b=w_b, omega_q=w_q,
    )
    resonant = closed_form_geff(
        "shg_two_mode_resonant", g_a=g_a, g_b=g_b, theta=theta,
        omega_b=w_b, omega_q=w_q,
    )
    assert general == pytest.approx(resonant, rel=1e-12)


def test_kerr_formula_value():
    g, w_a, w_q = 0.02, 1.0, 1.8
    assert closed_form_geff(
        "kerr_dispersive", g=g, omega_a=w_a, omega_q=w_q
    ) == pytest.approx(-(g**4) / (w_a - w_q) ** 3, rel=1e-15)


def test_hyper_raman_jc_formula_matches_jc_path_sum():
    """Under JC only the excitation-conserving path of Stokes hyper-Raman
    survives, and ``hyper_raman_one_jc`` is its value."""
    entry = get_process("hyper_raman_1_stokes")
    freqs = default_frequencies(entry)
    g = 0.05
    spec = build_system(entry, freqs, coupling=g).with_model(InteractionModel.JC)
    num = effective_coupling(
        interaction_for(spec), entry.initial.instantiate(0), entry.final.instantiate(0)
    ).value
    ana = closed_form_geff(
        "hyper_raman_one_jc", omega_a=freqs["a"], omega_b=freqs["b"], omega_q=freqs["q"],
        g_a=g, g_b=g,
    )
    assert num == pytest.approx(ana, rel=1e-10)

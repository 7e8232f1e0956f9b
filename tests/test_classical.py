import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabimix import (
    ConfigError,
    Susceptibilities,
    Tone,
    direct_polarization,
    effective_linear_susceptibility,
    evaluate_polarization,
    polarization_spectrum,
)
from rabimix.classical import spectrum_csv


def as_dict(components):
    return {round(float(f), 12): a for f, a in components}


def test_chi2_single_tone_rectification_and_doubling():
    comps = as_dict(polarization_spectrum([Tone(1.0, 1.0)], Susceptibilities(chi2=1.0)))
    assert comps == {0.0: pytest.approx(0.5), 2.0: pytest.approx(0.5)}


def test_chi3_single_tone_self_and_third_harmonic():
    comps = as_dict(polarization_spectrum([Tone(1.0, 1.0)], Susceptibilities(chi3=1.0)))
    assert comps == {1.0: pytest.approx(0.75), 3.0: pytest.approx(0.25)}


def test_chi2_two_tones_gives_five_components():
    comps = polarization_spectrum(
        [Tone(1.0, 1.0), Tone(1.0, 0.3)], Susceptibilities(chi2=1.0)
    )
    d = as_dict(comps)
    assert len(d) == 5
    assert set(d) == {0.0, 0.6, 0.7, 1.3, 2.0}
    assert d[1.3] == pytest.approx(1.0)  # sum frequency
    assert d[0.7] == pytest.approx(1.0)  # difference frequency


def test_chi1_passes_tones_through():
    comps = as_dict(polarization_spectrum(
        [Tone(0.7, 1.1)], Susceptibilities(chi1=2.0, epsilon0=3.0)
    ))
    assert comps == {1.1: pytest.approx(3.0 * 2.0 * 0.7)}


def test_amplitude_scaling_orders():
    """chi2 output scales as E^2, chi3 output as E^3."""
    for chi, power in ((Susceptibilities(chi2=1.0), 2), (Susceptibilities(chi3=1.0), 3)):
        c1 = as_dict(polarization_spectrum([Tone(1.0, 1.0)], chi))
        c2 = as_dict(polarization_spectrum([Tone(2.0, 1.0)], chi))
        for f in c1:
            assert c2[f] == pytest.approx(2**power * c1[f])


@pytest.mark.parametrize("frequency", [-2, -2.0, float("nan")])
def test_tone_rejects_a_negative_frequency_of_any_type(frequency):
    with pytest.raises(ConfigError, match="tone frequency must be >= 0"):
        Tone(1.0, frequency)


def test_tone_stores_its_frequency_as_a_float():
    tone = Tone(1.0, 2)
    assert type(tone.frequency) is float and tone.frequency == 2.0


def test_more_than_three_tones_rejected():
    with pytest.raises(ConfigError):
        polarization_spectrum([Tone(1.0, f) for f in (1.0, 2.0, 3.0, 4.0)],
                              Susceptibilities(chi1=1.0))


def test_no_tone_rejected():
    """An empty drive is an error, not an empty spectrum."""
    with pytest.raises(ConfigError, match="1 to 3 tones supported, got 0"):
        polarization_spectrum([], Susceptibilities(chi1=1.0))


def test_pockels_and_kerr_effective_susceptibility():
    chi = Susceptibilities(chi2=0.5, chi3=2.0)
    assert effective_linear_susceptibility("pockels", chi, 3.0) == pytest.approx(3.0)
    assert effective_linear_susceptibility("kerr", chi, 2.0) == pytest.approx(6.0)
    with pytest.raises(ConfigError):
        effective_linear_susceptibility("faraday", chi, 1.0)


def test_pointwise_oracle_three_tones():
    tones = [Tone(1.0, 1.0), Tone(0.6, 0.31), Tone(0.2, 2.7)]
    chi = Susceptibilities(chi1=0.8, chi2=1.3, chi3=0.9, epsilon0=1.7)
    comps = polarization_spectrum(tones, chi)
    for t in [0.0, 0.37, 1.0, 2.4, 7.9]:
        assert evaluate_polarization(comps, t) == pytest.approx(
            direct_polarization(tones, chi, t), abs=1e-12
        )


def test_csv_format():
    comps = polarization_spectrum([Tone(1.0, 1.0)], Susceptibilities(chi2=1.0))
    lines = spectrum_csv(comps).splitlines()
    assert lines[0] == "frequency,amplitude"
    assert len(lines) == 3


@settings(max_examples=40, deadline=None)
@given(
    amps=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=3),
    chi1=st.floats(min_value=-1.0, max_value=1.0),
    chi2=st.floats(min_value=-1.0, max_value=1.0),
    chi3=st.floats(min_value=-1.0, max_value=1.0),
    t=st.floats(min_value=0.0, max_value=20.0),
)
def test_expansion_matches_direct_evaluation(amps, chi1, chi2, chi3, t):
    tones = [Tone(a, 0.5 + 0.7 * k) for k, a in enumerate(amps)]
    chi = Susceptibilities(chi1=chi1, chi2=chi2, chi3=chi3)
    comps = polarization_spectrum(tones, chi)
    assert evaluate_polarization(comps, t) == pytest.approx(
        direct_polarization(tones, chi, t), abs=1e-10
    )

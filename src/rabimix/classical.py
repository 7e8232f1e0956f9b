"""Classical nonlinear-polarization frequency mixer.

Expands P(t) = eps0 (chi1 E + chi2 E^2 + chi3 E^3) for a sum of cosine
tones into its frequency components. Each cosine is written as a pair of
complex exponentials, powers of the field become convolutions of frequency
dictionaries, and negative frequencies fold back onto their positive
partners. The result is exact up to floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

#: Frequencies closer than this are merged into one component.
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class Tone:
    """One cosine drive E0 cos(omega t) with zero phase. The frequency is
    stored as a float and must be >= 0, whatever real type it is given as."""

    amplitude: float
    frequency: float

    def __post_init__(self):
        frequency = float(self.frequency)
        if not frequency >= 0:
            raise ConfigError(f"tone frequency must be >= 0, got {self.frequency}")
        object.__setattr__(self, "frequency", frequency)


@dataclass(frozen=True)
class Susceptibilities:
    """Scalar susceptibilities of the medium."""

    chi1: float = 0.0
    chi2: float = 0.0
    chi3: float = 0.0
    epsilon0: float = 1.0


def _exp_spectrum(tones):
    """cos(wt) -> half-amplitude lines at +w and -w."""
    spec = {}
    for t in tones:
        for sign in (1, -1):
            f = sign * t.frequency
            spec[f] = spec.get(f, 0.0) + 0.5 * t.amplitude
    return spec


def _convolve(a, b):
    out = {}
    for fa, va in a.items():
        for fb, vb in b.items():
            f = fa + fb
            out[f] = out.get(f, 0.0) + va * vb
    return out


def _fold(spec):
    """Fold +-w pairs onto nonnegative frequencies (cosine amplitudes)."""
    out = {}
    for f, v in spec.items():
        key = abs(f)
        out[key] = out.get(key, 0.0) + v
    return out


def _merge_close(items):
    """Merge frequencies within MERGE_TOL of the previous kept one."""
    merged = []
    for f, v in sorted(items, key=lambda kv: kv[0]):
        if merged and abs(f - merged[-1][0]) <= MERGE_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] + v)
        else:
            merged.append((f, v))
    return merged


def polarization_spectrum(tones, chi: Susceptibilities):
    """Frequency components of the nonlinear polarization.

    Returns a sorted list of (frequency, amplitude) with nonnegative
    frequencies, such that P(t) = sum A_k cos(w_k t). Components whose
    amplitudes cancel to exactly zero are removed; frequencies within
    :data:`MERGE_TOL` are merged first.
    """
    if not 1 <= len(tones) <= 3:
        raise ConfigError(f"1 to 3 tones supported, got {len(tones)}")
    base = _exp_spectrum(tones)
    total = {}

    def accumulate(spec, weight):
        if weight == 0.0:
            return
        for f, v in spec.items():
            total[f] = total.get(f, 0.0) + weight * v

    accumulate(base, chi.epsilon0 * chi.chi1)
    squared = _convolve(base, base)
    accumulate(squared, chi.epsilon0 * chi.chi2)
    cubed = _convolve(squared, base)
    accumulate(cubed, chi.epsilon0 * chi.chi3)

    folded = _fold(total)
    return [(f, v) for f, v in _merge_close(folded.items()) if abs(v) > 0.0]


def evaluate_polarization(components, t):
    """Reconstruct P(t) = sum A_k cos(w_k t) from spectrum components."""
    import math

    return sum(a * math.cos(float(f) * t) for f, a in components)


def direct_polarization(tones, chi: Susceptibilities, t):
    """P(t) evaluated directly from the field; oracle for the expansion."""
    import math

    e = sum(x.amplitude * math.cos(x.frequency * t) for x in tones)
    return chi.epsilon0 * (chi.chi1 * e + chi.chi2 * e * e + chi.chi3 * e**3)


def effective_linear_susceptibility(kind: str, chi: Susceptibilities, bias: float) -> float:
    """Effective linear susceptibility induced by a strong bias field.

    A constant (or slowly varying) second field shifts the refractive index
    seen by the signal: linearly in the bias through chi2 (Pockels) and
    quadratically through chi3 (Kerr).
    """
    kind = kind.lower()
    if kind == "pockels":
        return 2.0 * chi.chi2 * bias
    if kind == "kerr":
        return 0.75 * chi.chi3 * bias * bias
    raise ConfigError(f"unknown effect {kind!r}; expected 'pockels' or 'kerr'")


def spectrum_csv(components) -> str:
    """``frequency,amplitude`` CSV text at 17 significant digits."""
    lines = ["frequency,amplitude"]
    for f, a in components:
        lines.append(f"{f:.17g},{a:.17g}")
    return "\n".join(lines) + "\n"

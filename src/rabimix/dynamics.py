"""Unitary time evolution and oscillation-frequency extraction.

Propagation uses the spectral decomposition e^{-iHt} = V e^{-i Lambda t} V^T
of the real symmetric H, which is exact up to the eigensolve tolerance and
free of time-step error. Only what a trace reports is computed, never the
full state: the amplitude of each target f at sample k is

    A_f(t_k) = sum_j V[f, j] V[i, j] e^{-i lambda_j k dt}.

With B = ceil(sqrt(samples)) and k = a B + b the phase splits into an outer
factor e^{-i lambda_j a B dt} and an inner one e^{-i lambda_j b dt}, so one
target costs a (samples/B x dim) @ (dim x B) product and the run needs
2 sqrt(samples) dim complex exponentials instead of samples dim. Memory is
of order sqrt(samples) dim + dim^2. Splitting the phase adds a rounding
error of order |lambda| t eps to it, the same order as forming lambda t.

The evolution is unitary, so the norm is a constant of the eigenbasis
amplitudes psi0 = V^T e_i: the ``norm`` column is ||psi0||.
:func:`~rabimix.spectra.eigensystem` certifies the initial row: when the
eigenpairs do not span e_i to :data:`~rabimix.spectra.NORM_TOL` (above
:data:`~rabimix.spectra.DENSE_CAP` only the lowest few are computed) it raises
:class:`~rabimix.errors.CapacityError`, so no truncated trace is returned.
The target rows need no certificate: once e_i lies in the span of
the eigenvectors, A_f above is the exact amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FlatTraceError
from .hamiltonian import HermitianOperator
from .hilbert import BasisState, HilbertSpace
from .spectra import eigensystem

#: Peak-to-peak population variation below which a trace counts as flat.
FLAT_TOL = 1e-6


@dataclass(frozen=True)
class EvolutionSpec:
    """Initial state, horizon and sampling for one evolution run."""

    initial: BasisState
    total_time: float
    samples: int
    targets: tuple[BasisState, ...]

    def __post_init__(self):
        errors = []
        if not self.total_time > 0:
            errors.append(f"total time must be > 0, got {self.total_time}")
        if self.samples < 16:
            errors.append(f"need at least 16 samples, got {self.samples}")
        if not self.targets:
            errors.append("at least one target state is required")
        if errors:
            raise ConfigError(errors)
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass
class PopulationTrace:
    """Sampled populations |<f|psi(t)>|^2 plus the norm of the state."""

    spec: EvolutionSpec
    times: np.ndarray
    populations: dict  # BasisState -> array over times
    norms: np.ndarray

    def population(self, target: BasisState) -> np.ndarray:
        return self.populations[target]


def evolve(space: HilbertSpace, h: HermitianOperator, spec: EvolutionSpec) -> PopulationTrace:
    """Evolve the bare initial state under H and sample target populations.

    Raises :class:`~rabimix.errors.CapacityError` when the eigenpairs do not
    span the initial state to :data:`~rabimix.spectra.NORM_TOL`.
    """
    i = space.index(spec.initial)
    vals, vecs = eigensystem(h, [i])
    psi0 = vecs[i]  # eigenbasis amplitudes <j|i>
    n = spec.samples
    times = np.linspace(0.0, spec.total_time, n)
    block = math.isqrt(n - 1) + 1  # ceil(sqrt(n)); sample k = a * block + b
    inner = np.exp(-1j * np.outer(times[:block], vals))  # (block, dim), b dt
    outer = np.exp(-1j * np.outer(times[::block], vals))  # (ceil(n / block), dim), a block dt

    populations = {}
    for f in spec.targets:
        amp = (outer * (vecs[space.index(f)] * psi0)) @ inner.T
        populations[f] = np.abs(amp.ravel()[:n]) ** 2
    # ||psi0|| summed pairwise as captured_norms sums it, not by a BLAS dot
    norms = np.full(n, np.sqrt(np.add.reduce(psi0 * psi0)))
    return PopulationTrace(spec, times, populations, norms)


def extract_oscillation(trace: PopulationTrace):
    """Dominant angular frequency and maximum of the first target's population.

    The frequency comes from the largest peak of the discrete spectrum of
    P(t) after mean removal, refined by parabolic interpolation of the three
    surrounding spectral magnitudes; the maximum population is likewise
    parabola-refined around the best sample. A trace flat within
    :data:`FLAT_TOL` raises :class:`FlatTraceError`.
    """
    target = trace.spec.targets[0]
    p = trace.population(target)
    if np.ptp(p) < FLAT_TOL:
        raise FlatTraceError(
            f"population of {target} varies by {np.ptp(p):.3g} < {FLAT_TOL}; "
            "no oscillation to extract"
        )
    dt = trace.times[1] - trace.times[0]
    y = p - p.mean()
    spectrum = np.abs(np.fft.rfft(y))
    k = int(np.argmax(spectrum[1:])) + 1
    # parabolic refinement of the peak bin
    if 1 <= k < len(spectrum) - 1:
        a, b, c = spectrum[k - 1], spectrum[k], spectrum[k + 1]
        denom = a - 2 * b + c
        shift = 0.0 if denom == 0 else 0.5 * (a - c) / denom
    else:
        shift = 0.0
    freq = 2.0 * np.pi * (k + shift) / (len(p) * dt)

    m = int(np.argmax(p))
    if 1 <= m < len(p) - 1:
        a, b, c = p[m - 1], p[m], p[m + 1]
        denom = a - 2 * b + c
        if denom < 0:
            shift = 0.5 * (a - c) / denom
            pmax = b - 0.25 * (a - c) * shift
        else:
            pmax = b
    else:
        pmax = p[m]
    return float(freq), float(min(pmax, 1.0))


def trace_csv(trace: PopulationTrace) -> str:
    """``t,P_f,norm`` CSV text for the first target, one row per sample at
    17 significant digits."""
    target = trace.spec.targets[0]
    rows = zip(trace.times.tolist(), trace.population(target).tolist(), trace.norms.tolist())
    lines = ["t,P_f,norm", *map("%.17g,%.17g,%.17g".__mod__, rows)]
    return "\n".join(lines) + "\n"

"""Virtual-transition path sums for effective couplings.

Two bare states |i> and |f> of (nearly) equal energy acquire an effective
coupling through chains of interaction matrix elements via intermediate
states of different energy. At the lowest contributing order n,

    g_eff = sum over n-step paths of (prod V) / (prod (E_i - E_j)),

with V the interaction matrix elements and E_j the bare energies of the
intermediates. Paths are enumerated by brute force over the nonzero matrix
elements of the interaction, which at fixed order is exhaustive: the sum
over all intermediates of the truncated space reproduces the analytic
closed forms exactly.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CapacityError,
    DegenerateIntermediateError,
    UnreachableError,
)
from .hamiltonian import HermitianOperator, build_hint
from .hilbert import BasisState, HilbertSpace, build_space
from .system import SystemSpec

#: Intermediates closer than this (in units of the reference frequency) to
#: the initial-state energy are excluded; the denominator is singular there.
DEGENERACY_TOL = 1e-9

#: |E_i - E_f| beyond which a warning is emitted (evaluation still proceeds;
#: the closed forms are derived off resonance before imposing resonance).
RESONANCE_TOL = 1e-6

DEFAULT_MAX_DEPTH = 8


@dataclass(frozen=True)
class TransitionPath:
    """One ordered chain i -> j_1 -> ... -> j_{n-1} -> f.

    ``states`` holds basis indices including the endpoints; ``amplitudes``
    the n hop matrix elements; ``denominators`` the n-1 energy differences
    E_i - E_{j_k}.
    """

    states: tuple[int, ...]
    amplitudes: tuple[complex, ...]
    denominators: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.amplitudes)

    @property
    def contribution(self) -> complex:
        num = 1.0 + 0.0j
        for v in self.amplitudes:
            num *= v
        den = 1.0
        for d in self.denominators:
            den *= d
        return num / den

    def describe(self, space: HilbertSpace) -> str:
        kets = " -> ".join(str(space.state(k)) for k in self.states)
        vs = " * ".join(f"{v.real:+.6g}" for v in self.amplitudes)
        ds = " * ".join(f"{d:+.6g}" for d in self.denominators) or "1"
        return f"{kets} : ({vs}) / ({ds}) = {self.contribution.real:+.10g}"


@dataclass(frozen=True)
class EffectiveCoupling:
    """Path-sum result: value, perturbative order and per-path detail."""

    value: complex
    order: int
    paths: tuple[TransitionPath, ...]

    @property
    def path_count(self) -> int:
        return len(self.paths)


def _as_index(space: HilbertSpace, s) -> int:
    if isinstance(s, (int, np.integer)):
        return int(s)
    if isinstance(s, str):
        s = BasisState.parse(s)
    return space.index(s)


def _adjacency(h_int: HermitianOperator):
    """Hops out of j: row j of the CSR matrix, (indices, data) between
    ``indptr[j]`` and ``indptr[j + 1]``. H is real symmetric, so row j holds
    the amplitudes <k|V|j> of column j, in the same (ascending k) order."""
    return h_int.matrix


def shortest_order(
    space: HilbertSpace,
    h_int: HermitianOperator,
    i,
    f,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> int:
    """Minimal number of interaction applications connecting i to f.

    Breadth-first over nonzero matrix elements; energy denominators are
    ignored at this stage.
    """
    i = _as_index(space, i)
    f = _as_index(space, f)
    if i == f:
        raise UnreachableError("initial and final states coincide")
    m = _adjacency(h_int)
    seen = {i: 0}
    queue = deque([i])
    while queue:
        j = queue.popleft()
        depth = seen[j]
        if depth >= max_depth:
            continue
        for k in m.indices[m.indptr[j]: m.indptr[j + 1]]:
            k = int(k)
            if k == f:
                return depth + 1
            if k not in seen:
                seen[k] = depth + 1
                queue.append(k)
    raise UnreachableError(
        f"no interaction path from {space.state(i)} to {space.state(f)} "
        f"within depth {max_depth}"
    )


def enumerate_paths(
    space: HilbertSpace,
    h_int: HermitianOperator,
    i,
    f,
    order: int | None = None,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> tuple[TransitionPath, ...]:
    """All order-step paths i -> ... -> f through nondegenerate intermediates.

    Intermediates may revisit states but may not be i or f themselves, and
    must satisfy |E_i - E_j| >= degeneracy_tol. Paths are returned in
    canonical lexicographic order of their state-index sequences, which
    fixes the summation order bitwise.
    """
    i = _as_index(space, i)
    f = _as_index(space, f)
    n = shortest_order(space, h_int, i, f) if order is None else int(order)
    m = _adjacency(h_int)
    e_i = space.energies[i]
    energies = space.energies

    paths: list[TransitionPath] = []
    blocked_degenerate: list[int] = []

    def neighbors(j):
        lo, hi = m.indptr[j], m.indptr[j + 1]
        return m.indices[lo:hi], m.data[lo:hi]

    def dfs(j, steps_left, states, amps, denoms):
        nbr, vals = neighbors(j)
        if steps_left == 1:
            for k, v in zip(nbr, vals):
                if int(k) == f:
                    paths.append(
                        TransitionPath(
                            tuple(states) + (f,), tuple(amps) + (complex(v),), tuple(denoms)
                        )
                    )
            return
        for k, v in zip(nbr, vals):
            k = int(k)
            if k == i or k == f:
                continue
            if abs(energies[k] - e_i) < degeneracy_tol:
                blocked_degenerate.append(k)
                continue
            dfs(
                k,
                steps_left - 1,
                states + [k],
                amps + [complex(v)],
                denoms + [float(e_i - energies[k])],
            )

    dfs(i, n, [i], [], [])
    if not paths and blocked_degenerate:
        k = blocked_degenerate[0]
        raise DegenerateIntermediateError(
            f"all order-{n} paths from {space.state(i)} to {space.state(f)} are "
            f"blocked by an intermediate degenerate with the initial state: "
            f"{space.state(k)} (|E_i - E_j| < {degeneracy_tol})",
            state=space.state(k),
        )
    paths.sort(key=lambda p: p.states)
    return tuple(paths)


def effective_coupling(
    space: HilbertSpace,
    h_int: HermitianOperator,
    i,
    f,
    order: int | None = None,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> EffectiveCoupling:
    """Lowest-order path-sum effective coupling between bare states i and f.

    Summation runs in canonical path order, so the result is bitwise
    deterministic. A warning (not an error) is issued when the endpoint
    energies differ by more than the resonance tolerance.
    """
    i = _as_index(space, i)
    f = _as_index(space, f)
    if abs(space.energies[i] - space.energies[f]) > RESONANCE_TOL:
        warnings.warn(
            f"states {space.state(i)} and {space.state(f)} are off resonance "
            f"(dE = {space.energies[i] - space.energies[f]:.3g}); the path sum is "
            "evaluated with the initial-state energy in the denominators",
            stacklevel=2,
        )
    n = shortest_order(space, h_int, i, f) if order is None else int(order)
    paths = enumerate_paths(space, h_int, i, f, order=n, degeneracy_tol=degeneracy_tol)
    total = 0.0 + 0.0j
    for p in paths:
        total += p.contribution
    return EffectiveCoupling(value=total, order=n, paths=paths)


def sigma_z_only_paths(
    space: HilbertSpace, paths: tuple[TransitionPath, ...]
) -> tuple[TransitionPath, ...]:
    """Paths whose hops never flip a qubit (purely longitudinal-mediated)."""
    out = []
    for p in paths:
        rows = space.qubit_table[list(p.states)]
        if np.all(rows == rows[0]):
            out.append(p)
    return tuple(out)


def stimulated_ratio(space: HilbertSpace, h_int: HermitianOperator, n: int) -> float:
    """Rate enhancement of frequency conversion by n spectator photons.

    For a two-mode + one-qubit setup the single photon-adding hop in each
    path picks up sqrt(n+1), so
    |g_eff(|1,n,g> -> |0,n+1,e>)| / |g_eff(|1,0,g> -> |0,1,e>)| = sqrt(n+1).
    """
    if n < 0:
        raise CapacityError("spectator photon number must be >= 0")
    if len(space.modes) != 2 or len(space.qubits) != 1:
        raise CapacityError("stimulated_ratio expects a two-mode, one-qubit space")
    if n + 1 > space.modes[1].n_max:
        raise CapacityError(
            f"n_max={space.modes[1].n_max} of mode {space.modes[1].label!r} cannot "
            f"hold {n + 1} photons"
        )
    base_i = BasisState((1, 0), ("g",))
    base_f = BasisState((0, 1), ("e",))
    stim_i = BasisState((1, n), ("g",))
    stim_f = BasisState((0, n + 1), ("e",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g0 = effective_coupling(space, h_int, base_i, base_f).value
        gn = effective_coupling(space, h_int, stim_i, stim_f).value
    return abs(gn) / abs(g0)


def diagonal_shift(
    space: HilbertSpace,
    h_int: HermitianOperator,
    state,
    order: int = 4,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> float:
    """Rayleigh-Schroedinger energy correction of a nondegenerate bare level.

    Order 2:  sum_j |V_ij|^2 / (E_i - E_j)
    Order 4:  sum_{jkl} V_ij V_jk V_kl V_li / (D_j D_k D_l)
              - E2 * sum_j |V_ij|^2 / D_j^2
    with all intermediates != i and D_j = E_i - E_j. Returns the correction
    of the requested order only.
    """
    if order not in (2, 4):
        raise CapacityError("diagonal_shift supports orders 2 and 4")
    i = _as_index(space, state)
    m = _adjacency(h_int)
    e_i = space.energies[i]

    nbr = m.indices[m.indptr[i]: m.indptr[i + 1]]
    vals = m.data[m.indptr[i]: m.indptr[i + 1]]
    keep = [k for k, j in enumerate(nbr) if int(j) != i and abs(space.energies[j] - e_i) >= degeneracy_tol]
    nbr = [int(nbr[k]) for k in keep]
    vals = [complex(vals[k]) for k in keep]
    denoms = [e_i - space.energies[j] for j in nbr]

    e2 = sum((abs(v) ** 2 / d for v, d in zip(vals, denoms)), 0.0)
    if order == 2:
        return float(np.real(e2))

    total = 0.0 + 0.0j
    for p in enumerate_paths(space, h_int, i, i, order=4, degeneracy_tol=degeneracy_tol):
        total += p.contribution
    renorm = sum((abs(v) ** 2 / d**2 for v, d in zip(vals, denoms)), 0.0)
    return float(np.real(total - e2 * renorm))


def dispersive_kerr_pathsum(space: HilbertSpace, h_int: HermitianOperator) -> float:
    """Photon-number curvature of the qubit-ground branch from fourth-order
    perturbation theory: half the second difference of the level shifts.

    Under the JC interaction this equals -g^4/(omega_a - omega_q)^3 exactly.
    """
    shifts = [
        diagonal_shift(space, h_int, BasisState((n,), ("g",)), order=4) for n in range(4)
    ]
    d1 = shifts[2] - 2 * shifts[1] + shifts[0]
    d2 = shifts[3] - 2 * shifts[2] + shifts[1]
    return 0.25 * (d1 + d2)


def interaction_for(spec: SystemSpec, space: HilbertSpace | None = None) -> tuple[HilbertSpace, HermitianOperator]:
    """Convenience: build (space, H_int) for a system spec."""
    space = space or build_space(spec)
    return space, build_hint(space, spec.couplings, spec.model)

"""Virtual-transition path sums for effective couplings.

Two bare states |i> and |f> of (nearly) equal energy acquire an effective
coupling through chains of interaction matrix elements via intermediate
states of different energy. At order n,

    g_eff = sum over n-step paths of (prod V) / (prod (E_i - E_j)),

with V the interaction matrix elements and E_j the bare energies of the
intermediates. The sum over all paths of the truncated space is the
resolvent chain

    g_eff = <f| V (R V)^(n-1) |i>,   R = diag(1 / (E_i - E_j)),

with R zero at i, at f and at intermediates degenerate with i: n sparse
matrix-vector products instead of one term per path, and exhaustive at
fixed order, so it reproduces the analytic closed forms exactly. The same
chain on the sparsity pattern with integer entries counts the paths, and a
walk over that pattern finds the lowest connecting order. Individual paths
are listed only on request (:func:`enumerate_paths`).

Unless an order is given, n is the lowest *connecting* order, the fewest
hops from i to f (:func:`shortest_order`), not the lowest *contributing*
one: order-n paths that cancel give exactly 0 or a rounding residue such
as 8e-20, and no higher order is tried (ROADMAP.md, open item 1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CapacityError,
    DegenerateIntermediateError,
    DomainError,
    UnreachableError,
)
from .hamiltonian import CSRMatrix, HermitianOperator, build_hint
from .hilbert import BasisState, HilbertSpace, build_space
from .system import SystemSpec

#: Intermediates closer than this (in units of the reference frequency) to
#: the initial-state energy are excluded; the denominator is singular there.
DEGENERACY_TOL = 1e-9

#: |E_i - E_f| beyond which a warning is emitted (evaluation still proceeds;
#: the closed forms are derived off resonance before imposing resonance).
RESONANCE_TOL = 1e-6

DEFAULT_MAX_DEPTH = 8

#: Most paths :func:`enumerate_paths` will list. The path sum and the path
#: count never need the list; above this many paths listing them costs
#: seconds to minutes and the listing is too long to read.
PATH_CAP = 100_000


@dataclass(frozen=True)
class TransitionPath:
    """One ordered chain i -> j_1 -> ... -> j_{n-1} -> f.

    ``states`` holds basis indices including the endpoints; ``amplitudes``
    the n hop matrix elements (real floats, as H is real); ``denominators``
    the n-1 energy differences E_i - E_{j_k}.
    """

    states: tuple[int, ...]
    amplitudes: tuple[float, ...]
    denominators: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.amplitudes)

    @property
    def contribution(self) -> float:
        """Product of the amplitudes over product of the denominators, each
        multiplied left to right."""
        return math.prod(self.amplitudes) / math.prod(self.denominators)

    def describe(self, space: HilbertSpace) -> str:
        kets = " -> ".join(str(space.state(k)) for k in self.states)
        vs = " * ".join(f"{v:+.6g}" for v in self.amplitudes)
        ds = " * ".join(f"{d:+.6g}" for d in self.denominators) or "1"
        return f"{kets} : ({vs}) / ({ds}) = {self.contribution:+.10g}"


@dataclass(frozen=True)
class EffectiveCoupling:
    """Path-sum result: the real value g_eff, the perturbative order and the
    number of paths.

    ``paths`` lists the contributing paths; it is enumerated on first access
    by :func:`enumerate_paths` (and so raises :class:`CapacityError` above
    :data:`PATH_CAP`).
    """

    value: float
    order: int
    path_count: int
    #: (h_int, i, f) the value was computed from
    source: tuple = field(default=None, repr=False, compare=False)

    @cached_property
    def paths(self) -> tuple[TransitionPath, ...]:
        h_int, i, f = self.source
        return enumerate_paths(h_int, i, f, order=self.order)


def shortest_order(
    h_int: HermitianOperator,
    i,
    f,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> int:
    """Minimal number of interaction applications connecting i to f.

    The first t <= ``max_depth`` at which a t-hop walk over the stored
    entries of H_int from i reaches f: the count chain of
    :func:`effective_coupling` on a boolean frontier (the states within t
    hops), with no exclusions, stopped at the first hit. Energy denominators
    are ignored at this stage. States are read in ``h_int.space``.
    """
    space = h_int.space
    i = space.index(i)
    f = space.index(f)
    if i == f:
        raise UnreachableError("initial and final states coincide")
    reached = np.zeros(space.dimension, dtype=bool)
    reached[i] = True
    for t in range(1, max_depth + 1):
        reached |= h_int.pattern @ reached > 0
        if reached[f]:
            return t
    raise UnreachableError(
        f"no interaction path from {space.state(i)} to {space.state(f)} "
        f"within depth {max_depth}"
    )


def _order(h_int, i: int, f: int, order: int | None) -> int:
    """The given path order, or the shortest one connecting i to f."""
    if order is None:
        return shortest_order(h_int, i, f)
    if int(order) < 1:
        raise DomainError(f"path order must be >= 1, got {order}")
    return int(order)


def _exclusions(space: HilbertSpace, i: int, f: int):
    """Intermediates a path may visit, and the resolvent on them.

    ``allowed[j]`` is False at i, at f and where |E_i - E_j| < DEGENERACY_TOL;
    ``r[j]`` is 1 / (E_i - E_j) where allowed and 0 elsewhere.
    """
    d = space.energies[i] - space.energies
    allowed = np.abs(d) >= DEGENERACY_TOL
    allowed[[i, f]] = False
    r = np.zeros_like(d)
    np.divide(1.0, d, out=r, where=allowed)
    return allowed, r


def _walk_counts(pattern: CSRMatrix, allowed: np.ndarray, start: int, steps: int):
    """``counts[t - 1][k]``: walks of t hops from ``start`` to k whose
    intermediates are all allowed, for t = 1..steps. H is symmetric, so this
    also counts the walks from k to ``start``.

    Raises :class:`CapacityError` before a count could overflow int64.
    """
    limit = np.iinfo(np.int64).max // max(int(np.diff(pattern.indptr).max(initial=0)), 1)
    x = np.zeros(pattern.shape[0], dtype=np.int64)
    x[start] = 1
    counts = []
    for _ in range(steps):
        if x.max() > limit:
            raise CapacityError(f"the count of {steps}-hop paths would overflow int64")
        x = pattern @ x
        counts.append(x)
        x = x * allowed
    return counts


def _check_blocked(space, pattern, allowed, i, f, n) -> None:
    """Raise :class:`DegenerateIntermediateError` when an order-n walk from i
    to f, with intermediates other than i and f, meets an intermediate
    degenerate with i; call it once no allowed walk reaches f. The state
    named is the first such intermediate in depth-first order (hops taken in
    ascending basis index)."""
    degenerate = ~allowed
    degenerate[[i, f]] = False
    passable = allowed | degenerate  # every state but i and f
    # reach[s][j]: from j, some s-hop walk through passable states ends at f.
    # No allowed walk reaches f, so every walk from i that reach admits meets
    # a degenerate state, and following reach from i finds the first one.
    at_f = np.zeros(len(allowed), dtype=bool)
    at_f[f] = True
    reach = [at_f, pattern @ at_f > 0]
    for _ in range(2, n + 1):
        reach.append(pattern @ (passable & reach[-1]) > 0)
    if not reach[n][i]:
        return
    k, s = i, n
    while not degenerate[k]:
        hops = pattern.indices[pattern.indptr[k]: pattern.indptr[k + 1]].tolist()
        k = next(x for x in hops if passable[x] and reach[s - 1][x])
        s -= 1
    raise DegenerateIntermediateError(
        f"all order-{n} paths from {space.state(i)} to {space.state(f)} are "
        f"blocked by an intermediate degenerate with the initial state: "
        f"{space.state(k)} (|E_i - E_j| < {DEGENERACY_TOL})",
        state=space.state(k),
    )


def _path_sum(h_int, i, f, n) -> tuple[float, int]:
    """(<f| V (R V)^(n-1) |i>, number of order-n paths i -> f).

    Both chains are sparse matrix-vector products in the fixed CSR order of
    ``h_int``, so the result is deterministic.
    """
    space = h_int.space
    m = h_int.matrix
    allowed, r = _exclusions(space, i, f)
    x = np.zeros(m.shape[0])
    x[i] = 1.0
    for _ in range(n - 1):
        x = r * (m @ x)
    value = float((m @ x)[f])
    count = int(_walk_counts(h_int.pattern, allowed, i, n)[-1][f])
    if count == 0:
        _check_blocked(space, h_int.pattern, allowed, i, f, n)
    return value, count


def enumerate_paths(
    h_int: HermitianOperator,
    i,
    f,
    order: int | None = None,
) -> tuple[TransitionPath, ...]:
    """All order-step paths i -> ... -> f through nondegenerate intermediates.

    Intermediates may revisit states but may not be i or f themselves, and
    must satisfy |E_i - E_j| >= :data:`DEGENERACY_TOL` (read when the function
    runs). Paths come in lexicographic order of their state-index sequences.
    The walk counts of :func:`effective_coupling`'s count chain prune every
    branch that cannot reach f, so the cost is proportional to the number of
    paths; more than :data:`PATH_CAP` paths raise :class:`CapacityError`
    before any is built. States and energies are read in ``h_int.space``.
    """
    space = h_int.space
    i = space.index(i)
    f = space.index(f)
    n = _order(h_int, i, f, order)
    m = h_int.matrix
    allowed, _ = _exclusions(space, i, f)
    to_f = _walk_counts(h_int.pattern, allowed, f, n)
    count = int(to_f[-1][i])
    if count == 0:
        _check_blocked(space, h_int.pattern, allowed, i, f, n)
        return ()
    if count > PATH_CAP:
        raise CapacityError(
            f"{count} order-{n} paths from {space.state(i)} to {space.state(f)} "
            f"exceed PATH_CAP = {PATH_CAP}; effective_coupling gives their sum "
            "and count without listing them"
        )
    # live[s][k]: k is an allowed intermediate with s + 1 hops left to f
    live = [(allowed & (c > 0)).tolist() for c in to_f]
    denominators = (space.energies[i] - space.energies).tolist()
    indices, data, indptr = m.indices.tolist(), m.data.tolist(), m.indptr.tolist()
    paths: list[TransitionPath] = []

    def dfs(j, steps_left, states, amps, denoms):
        # hops out of j: row j of the symmetric H holds <k|V|j> in ascending k
        for p in range(indptr[j], indptr[j + 1]):
            k = indices[p]
            if steps_left == 1:
                if k == f:
                    paths.append(TransitionPath(states + (f,), amps + (data[p],), denoms))
            elif live[steps_left - 2][k]:
                dfs(k, steps_left - 1, states + (k,), amps + (data[p],),
                    denoms + (denominators[k],))

    dfs(i, n, (i,), (), ())
    return tuple(paths)


def effective_coupling(
    h_int: HermitianOperator,
    i,
    f,
    order: int | None = None,
) -> EffectiveCoupling:
    """Path-sum effective coupling between bare states i and f at ``order``,
    or at the lowest connecting order, even where its paths cancel.

    The value is the resolvent chain <f| V (R V)^(n-1) |i> and the path
    count the same chain on the sparsity pattern, both summed in the fixed
    CSR order of ``h_int``, so the result is deterministic. No path is
    listed until ``.paths`` is read. Intermediates with |E_i - E_j| <
    :data:`DEGENERACY_TOL` are excluded, and when that blocks every path
    :class:`DegenerateIntermediateError` names the first one. A warning (not
    an error) is issued when |E_i - E_f| > :data:`RESONANCE_TOL`. Both
    constants are read when the function runs. States and bare energies are
    those of ``h_int.space``, so the operator alone describes the system.
    """
    space = h_int.space
    i = space.index(i)
    f = space.index(f)
    if abs(space.energies[i] - space.energies[f]) > RESONANCE_TOL:
        warnings.warn(
            f"states {space.state(i)} and {space.state(f)} are off resonance "
            f"(dE = {space.energies[i] - space.energies[f]:.3g}); the path sum is "
            "evaluated with the initial-state energy in the denominators",
            stacklevel=2,
        )
    n = _order(h_int, i, f, order)
    value, count = _path_sum(h_int, i, f, n)
    return EffectiveCoupling(value=value, order=n, path_count=count, source=(h_int, i, f))


def diagonal_shift(
    h_int: HermitianOperator,
    state,
    order: int = 4,
) -> float:
    """Rayleigh-Schroedinger energy correction of a nondegenerate bare level.

    Order 2:  sum_j |V_ij|^2 / (E_i - E_j)
    Order 4:  sum_{jkl} V_ij V_jk V_kl V_li / (D_j D_k D_l)
              - E2 * sum_j |V_ij|^2 / D_j^2
    with all intermediates != i and D_j = E_i - E_j, excluding those with
    |D_j| < :data:`DEGENERACY_TOL`. Returns the correction of the requested
    order only; other orders raise :class:`DomainError`. The fourth-order
    sum is the resolvent chain of :func:`effective_coupling` with f = i.
    The level and its energies are those of ``h_int.space``.
    """
    if order not in (2, 4):
        raise DomainError("diagonal_shift supports orders 2 and 4")
    i = h_int.space.index(state)
    m = h_int.matrix
    _, r = _exclusions(h_int.space, i, i)
    v2 = m.row(i) ** 2  # |V_ij|^2, H real symmetric
    e2 = float(np.sum(v2 * r))
    if order == 2:
        return e2
    e4, _ = _path_sum(h_int, i, i, 4)
    return e4 - e2 * float(np.sum(v2 * r * r))


def dispersive_kerr_pathsum(h_int: HermitianOperator) -> float:
    """Photon-number curvature of the qubit-ground branch from fourth-order
    perturbation theory: half the second difference of the level shifts of
    the one-mode, one-qubit system ``h_int`` acts on.

    Under the JC interaction this equals -g^4/(omega_a - omega_q)^3 exactly.
    """
    shifts = [diagonal_shift(h_int, BasisState((n,), ("g",)), order=4) for n in range(4)]
    d1 = shifts[2] - 2 * shifts[1] + shifts[0]
    d2 = shifts[3] - 2 * shifts[2] + shifts[1]
    return 0.25 * (d1 + d2)


def interaction_for(spec: SystemSpec) -> HermitianOperator:
    """H_int of a system spec, on the space built from it (``.space``)."""
    return build_hint(build_space(spec))

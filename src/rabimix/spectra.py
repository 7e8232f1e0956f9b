"""Exact diagonalization, parameter sweeps and avoided-crossing analysis.

Level curves are followed by eigenvector overlap (adiabatic continuation)
rather than by energy order, since diabatic labels cross. The gap at an
avoided crossing is measured between the two eigenvalues whose eigenvectors
have the largest weight in the two-dimensional bare subspace of interest.
Along a sweep H_int is built once and H gets new bare energies per point;
the gap minimum is the root of its Hellmann-Feynman slope.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketingError, CapacityError, ConfigError, DomainError
from .hamiltonian import CSRMatrix, HermitianOperator, build_hamiltonian, build_hint, diagonal_csr
from .hilbert import BasisState, HilbertSpace, build_space
from .perturbation import effective_coupling, interaction_for
from .system import SystemSpec

#: Largest dimension handled by the dense solver.
DENSE_CAP = 4096

#: Two tracking candidates with overlaps this close are flagged as ambiguous.
OVERLAP_AMBIGUITY = 1e-3

#: Largest |norm - 1| of a bare state projected onto the computed
#: eigenvectors. Dense eigenvectors are complete to rounding, O(dim eps);
#: above DENSE_CAP only the lowest k eigenpairs exist, and a state they miss
#: in part would give a silently wrong gap, level or trace.
NORM_TOL = 1e-10


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep of a system spec with levels to follow.

    ``parameter`` names what is swept: ``"mode:<label>"`` or
    ``"qubit:<label>"`` for a frequency, ``"coupling:<mode label>"`` for the
    strength of every coupling attached to that mode.
    """

    base: SystemSpec
    parameter: str
    lo: float
    hi: float
    points: int
    tracked: tuple[BasisState, ...]

    def __post_init__(self):
        errors = []
        if not self.lo < self.hi:
            errors.append(f"sweep range must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if self.points < 3:
            errors.append(f"sweep needs at least 3 points, got {self.points}")
        if len(self.tracked) < 2:
            errors.append("sweep must track at least 2 bare states")
        if errors:
            raise ConfigError(errors)
        object.__setattr__(self, "tracked", tuple(self.tracked))

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)

    def spec_at(self, value: float) -> SystemSpec:
        return apply_parameter(self.base, self.parameter, value)


@dataclass
class SweepResult:
    """Tracked eigenvalues and bare-state overlaps along a sweep."""

    sweep: SweepSpec
    parameters: np.ndarray
    levels: np.ndarray    # shape (points, n_tracked)
    overlaps: np.ndarray  # shape (points, n_tracked), against the bare target
    ambiguous: np.ndarray  # bool, shape (points, n_tracked)


@dataclass(frozen=True)
class CrossingReport:
    """Located gap minimum and its comparison with 2|g_eff|."""

    parameter: float
    gap: float
    predicted: float  # 2|g_eff| at the bare resonance
    g_eff: float

    @property
    def relative_deviation(self) -> float:
        return abs(self.gap - self.predicted) / abs(self.predicted)


def apply_parameter(spec: SystemSpec, parameter: str, value: float) -> SystemSpec:
    kind, _, label = parameter.partition(":")
    if kind == "mode":
        return spec.with_mode_frequency(label, value)
    if kind == "qubit":
        return spec.with_qubit_frequency(label, value)
    if kind == "coupling":
        return spec.with_coupling_strength(label, value)
    raise ConfigError(
        f"unknown sweep parameter {parameter!r}; expected 'mode:<label>', "
        f"'qubit:<label>' or 'coupling:<mode label>'"
    )


def parameter_derivative(space: HilbertSpace, parameter: str) -> CSRMatrix:
    """dH/dv for the sweep parameter v on ``space``: diag(n_m) for
    ``mode:m``, diag(s_q - 1/2) for ``qubit:q`` (s_q = 1 for e), and for
    ``coupling:m`` the interaction of mode m's couplings at unit strength,
    since Hint is linear in the strength: ``build_hint`` on a space built
    from the spec with only those couplings, once per sweep."""
    kind, _, label = parameter.partition(":")
    if kind == "mode":
        return diagonal_csr(space.occupation_table[:, space.mode_index(label)])
    if kind == "qubit":
        return diagonal_csr(space.qubit_table[:, space.qubit_index(label)] - 0.5)
    unit = apply_parameter(space.spec, parameter, 1.0)  # raises for an unknown kind
    mine = tuple(c for c in unit.couplings if c.mode_label == label)
    return build_hint(build_space(replace(unit, couplings=mine))).matrix


class SweepHamiltonian:
    """H along a sweep from one H_int. :meth:`at` equals
    ``build_hamiltonian(build_space(sweep.spec_at(v)))`` entrywise and in CSR
    layout, since both are :meth:`HermitianOperator.with_energies` of H_int:
    between points only the bare energies on the diagonal change. H_int is
    built again only when ``spec_at(v)`` changes the couplings, i.e. at
    every point of a coupling sweep."""

    def __init__(self, sweep: SweepSpec):
        self.sweep = sweep
        self.space = build_space(sweep.base)
        self._hint = None

    def at(self, value: float) -> HermitianOperator:
        space = build_space(self.sweep.spec_at(value))
        if self._hint is None or space.spec.couplings != self._hint.space.spec.couplings:
            self._hint = build_hint(space)
        return self._hint.with_energies(space)


def eigensystem(h: HermitianOperator, rows=()):
    """Eigenvalues (ascending) and real orthonormal eigenvectors of the real
    symmetric operator, certified on the bare states ``rows`` (indices into
    ``h.space``) whose eigenvector rows the caller reads.

    This is the only place that chooses how to diagonalize. Up to
    :data:`DENSE_CAP` dense ``eigh`` runs on each symmetry sector of H that
    holds one of ``rows`` (every sector for none): excitation number N for
    JC, its parity for Rabi, as :func:`_sector_labels` reads them from H's
    entries. Only those sectors' eigenpairs are returned, each eigenvector
    exactly 0 outside its sector. Generalized Rabi is one sector and gets
    ``eigh(h.to_dense())`` itself. Above it Krylov ``eigsh`` gives the lowest
    k = max(16, 2 len(rows) + 8) of the whole space, from a fixed start
    vector so that equal inputs give equal bytes. Either way
    :func:`captured_norms` checks the result on ``rows`` before it is
    returned, so a state the eigenvectors do not span raises
    :class:`CapacityError` instead of giving a silently wrong answer.
    """
    dim = h.dimension
    if dim <= DENSE_CAP:
        import scipy.linalg  # deferred here and below: commands that solve nothing skip scipy

        dense = h.to_dense()
        label = _sector_labels(h)
        if not label.any():  # one sector, the whole space: eigh as it is
            vals, vecs = scipy.linalg.eigh(dense)
        else:
            wanted = np.unique(label[list(rows)] if len(rows) else label)
            sectors = [np.flatnonzero(label == s) for s in wanted]
            solved = [scipy.linalg.eigh(dense[np.ix_(idx, idx)]) for idx in sectors]
            vals = np.concatenate([w for w, _ in solved])
            vecs = np.zeros((dim, len(vals)))
            vecs[np.concatenate(sectors)] = scipy.linalg.block_diag(*(x for _, x in solved))
            order = np.argsort(vals, kind="stable")
            vals, vecs = vals[order], vecs[:, order]
    else:
        import scipy.sparse.linalg

        k = max(16, 2 * len(rows) + 8)
        if k >= dim:
            raise CapacityError(f"requested {k} eigenpairs of a dimension-{dim} operator")
        m = h.matrix
        a = scipy.sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
        # seeded, so equal operators give equal bytes; random, because a
        # symmetry can make all ones orthogonal to a wanted eigenvector
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, dim)
        vals, vecs = scipy.sparse.linalg.eigsh(a, k=k, which="SA", v0=v0)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    captured_norms(h, vecs, list(rows))
    return vals, vecs


def _sector_labels(h: HermitianOperator) -> np.ndarray:
    """Sector of each basis state: its excitation number N if no entry of H
    changes N (JC), else N mod 2 if none changes the parity (Rabi), else 0
    (generalized Rabi: one sector). Read from H's entries, so no entry ever
    joins two sectors."""
    n = h.space.excitation_numbers
    m = h.matrix
    for label in (n, n % 2):
        if np.array_equal(label[m.rows], label[m.indices]):
            return label
    return np.zeros_like(n)


def captured_norms(h: HermitianOperator, vecs: np.ndarray, indices) -> np.ndarray:
    """Norms ||V^T e_s|| of the bare states ``indices`` in the eigenvectors.

    Raises :class:`CapacityError` when one differs from 1 by more than
    :data:`NORM_TOL`, i.e. when the eigenpairs (the lowest k above
    :data:`DENSE_CAP`) do not span that state.
    """
    norms = np.linalg.norm(vecs[indices, :], axis=1)
    for s, n in zip(indices, norms):
        if abs(n - 1.0) > NORM_TOL:
            raise CapacityError(
                f"the {vecs.shape[1]} eigenpairs of the dimension-{h.dimension} "
                f"operator (dense solver only up to DENSE_CAP = {DENSE_CAP}) capture "
                f"weight {n * n:.12g} of {h.space.state(s)}; "
                f"|norm - 1| exceeds NORM_TOL = {NORM_TOL:g}"
            )
    return norms


def track_levels(sweep: SweepSpec) -> SweepResult:
    """Follow the tracked bare states through the sweep by eigenvector overlap.

    At the first point each level anchors to its bare basis vector; from the
    second point on, to the previous point's eigenvector (adiabatic
    re-anchoring). The reported overlap is always against the bare target,
    which decays toward 1/2 inside an avoided crossing. H comes from one
    :class:`SweepHamiltonian`.
    """
    values = sweep.values()
    nt = len(sweep.tracked)
    levels = np.zeros((len(values), nt))
    overlaps = np.zeros((len(values), nt))
    ambiguous = np.zeros((len(values), nt), dtype=bool)
    anchors = None
    hs = SweepHamiltonian(sweep)
    rows = [hs.space.index(s) for s in sweep.tracked]
    for p, v in enumerate(values):
        h = hs.at(v)
        vals, vecs = eigensystem(h, rows)
        bare = vecs[rows].T  # (n_eigs, n_tracked): <eigenvector|bare target>
        w = (bare if anchors is None else vecs.T @ anchors) ** 2
        new_anchors = np.zeros((vecs.shape[0], nt))
        for t in range(nt):
            order = np.argsort(w[:, t])[::-1]
            best = int(order[0])
            if len(order) > 1 and w[order[0], t] - w[order[1], t] < OVERLAP_AMBIGUITY:
                ambiguous[p, t] = True
            levels[p, t] = vals[best]
            overlaps[p, t] = float(bare[best, t] ** 2)
            new_anchors[:, t] = vecs[:, best]
        anchors = new_anchors
    return SweepResult(sweep, values, levels, overlaps, ambiguous)


def _top2(h: HermitianOperator, rows: list[int]):
    """Eigenvalues and eigenvectors of the two eigenpairs of ``h`` with the
    largest weight on the bare states ``rows``."""
    vals, vecs = eigensystem(h, rows)
    top2 = np.argsort((vecs[rows] ** 2).sum(axis=0))[::-1][:2]
    return vals[top2], vecs[:, top2]


def gap_and_slope(h: HermitianOperator, dh: CSRMatrix, rows: list[int]) -> tuple[float, float]:
    """The :func:`subspace_gap` G = |E_1 - E_2| of the bare states ``rows``
    on ``h``, and its slope dG/dv for dH/dv = ``dh`` by Hellmann-Feynman:
    sign(E_1 - E_2) (<1|dh|1> - <2|dh|2>) on the same two eigenvectors."""
    vals, vecs = _top2(h, rows)
    d = vals[0] - vals[1]
    e1, e2 = (x @ (dh @ x) for x in vecs.T)
    return float(abs(d)), float(np.sign(d) * (e1 - e2))


def subspace_gap(spec: SystemSpec, a: BasisState, b: BasisState) -> float:
    """Distance between the two eigenvalues with the largest weight in the
    span of the two bare states."""
    space = build_space(spec)
    vals, _ = _top2(build_hamiltonian(space), [space.index(a), space.index(b)])
    return float(abs(vals[0] - vals[1]))


def bare_resonance_parameter(sweep: SweepSpec, a: BasisState, b: BasisState) -> float:
    """Parameter value in the sweep range where the bare energies of ``a``
    and ``b`` coincide. Bare energies are affine in a mode or qubit frequency
    and constant in a coupling strength, so the difference is a straight
    line and its root is read off the two ends of the range."""

    def de(v):
        space = build_space(sweep.spec_at(v))
        return space.bare_energy(a) - space.bare_energy(b)

    lo, hi = sweep.lo, sweep.hi
    flo, fhi = de(lo), de(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketingError(
            f"bare energies of {a} and {b} do not cross in [{lo}, {hi}]"
        )
    return float(lo - flo * (hi - lo) / (fhi - flo))


def find_avoided_crossing(
    sweep: SweepSpec, level_a: BasisState, level_b: BasisState
) -> CrossingReport:
    """Locate the minimum gap between two tracked levels and compare it with
    the perturbative prediction 2|g_eff|.

    The gap G(v) is the :func:`subspace_gap` of ``level_a`` and ``level_b``
    on H(v), with H_int built once (:class:`SweepHamiltonian`). A scan over the
    sweep grid finds the grid minimum v_k (at an edge of the grid it raises
    :class:`BracketingError`). The minimum is then the root of the slope,
    which Hellmann-Feynman gives from the two eigenvectors the gap already
    uses: dG/dv = sign(E_1 - E_2) (<1|dH/dv|1> - <2|dH/dv|2>). The slope's
    sign at v_k picks the grid cell on that side; :func:`scipy.optimize.brentq`
    finds the root in it to xtol 1e-14 + rtol 4e-15 |v|, and a cell where the
    slope keeps its sign raises :class:`BracketingError`. The parameter is
    thus pinned to rounding: the JC crossing of |1,g> and |0,e> at
    w_a = w_q = 1 comes out within 1e-12 of 1 (a test pins this), where a
    search on the gap itself, flat to second order, reaches only sqrt(eps).
    The gap is reported at the root. The prediction is the path-sum g_eff
    evaluated at the bare-resonance point.
    """
    import scipy.optimize  # deferred, as in eigensystem

    hs = SweepHamiltonian(sweep)
    dh = parameter_derivative(hs.space, sweep.parameter)
    rows = [hs.space.index(level_a), hs.space.index(level_b)]
    points = {}  # v -> (gap, slope)

    def point(v):
        if v not in points:
            points[v] = gap_and_slope(hs.at(v), dh, rows)
        return points[v]

    values = sweep.values()
    k = int(np.argmin([point(v)[0] for v in values]))
    if k == 0 or k == len(values) - 1:
        raise BracketingError(
            f"gap minimum between {level_a} and {level_b} sits at the edge of "
            f"[{sweep.lo}, {sweep.hi}]; widen the sweep"
        )
    slope = point(values[k])[1]
    v_min = float(values[k])
    if slope != 0.0:
        lo, hi = (values[k - 1], values[k]) if slope > 0 else (values[k], values[k + 1])
        if point(lo)[1] > 0.0 or point(hi)[1] < 0.0:
            raise BracketingError(
                f"the gap slope between {level_a} and {level_b} does not change "
                f"sign over [{lo}, {hi}]"
            )
        v_min = float(scipy.optimize.brentq(
            lambda v: point(v)[1], lo, hi, xtol=1e-14, rtol=4e-15))
    gap = point(v_min)[0]

    v_res = bare_resonance_parameter(sweep, level_a, level_b)
    spec_res = sweep.spec_at(v_res)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = effective_coupling(interaction_for(spec_res), level_a, level_b).value
    return CrossingReport(parameter=v_min, gap=gap, predicted=2.0 * abs(g), g_eff=g)


def convergence_check(spec: SystemSpec, observable, n_max_step: int = 2, repeats: int = 3):
    """Evaluate ``observable(spec)`` at successively larger truncations.

    Returns (n_max tuples, values, successive relative changes).
    """
    specs = [spec]
    for _ in range(repeats - 1):
        specs.append(specs[-1].with_nmax_increment(n_max_step))
    values = [float(observable(s)) for s in specs]
    nmaxes = [tuple(m.n_max for m in s.modes) for s in specs]
    changes = []
    for prev, cur in zip(values, values[1:]):
        scale = max(abs(prev), abs(cur), 1e-300)
        changes.append(abs(cur - prev) / scale)
    return nmaxes, values, changes


def kerr_shift_numeric(spec: SystemSpec) -> float:
    """Photon-number curvature of the qubit-ground branch from the exact
    spectrum: half the second difference of E(n) over n = 0..3, where E(n)
    is the eigenvalue with the largest weight on |n,g>.

    Valid in the dispersive regime; a warning is issued when any coupling
    exceeds a fifth of its detuning from the qubit. The four |n,g> rows are
    certified by :func:`eigensystem` like every other read, so eigenpairs
    that miss one raise :class:`CapacityError`.
    """
    if len(spec.modes) != 1 or len(spec.qubits) != 1:
        raise DomainError("kerr_shift_numeric expects one mode and one qubit")
    if spec.modes[0].n_max < 3:
        raise CapacityError("kerr_shift_numeric needs n_max >= 3")
    space = build_space(spec)
    for c in spec.couplings:
        det = abs(spec.mode(c.mode_label).frequency - spec.qubit(c.qubit_label).frequency)
        if det == 0 or c.strength / det > 0.2:
            warnings.warn(
                f"coupling {c.mode_label!r}-{c.qubit_label!r} is not dispersive "
                f"(g/|detuning| = {c.strength / det if det else float('inf'):.3g} > 0.2); "
                "the Kerr estimate is unreliable",
                stacklevel=2,
            )
    rows = [space.index(BasisState((n,), ("g",))) for n in range(4)]
    vals, vecs = eigensystem(build_hamiltonian(space), rows)
    energies = [vals[int(np.argmax(vecs[r] ** 2))] for r in rows]
    d1 = energies[2] - 2 * energies[1] + energies[0]
    d2 = energies[3] - 2 * energies[2] + energies[1]
    return 0.25 * (d1 + d2)


def _csv_name(state: BasisState) -> str:
    return state.label().replace(",", "_")


def sweep_csv(result: SweepResult) -> str:
    """``param,level_<name>...,overlap_<name>...`` CSV text at 17 significant
    digits."""
    names = [_csv_name(s) for s in result.sweep.tracked]
    header = "param," + ",".join(f"level_{n}" for n in names) + "," + ",".join(
        f"overlap_{n}" for n in names
    )
    lines = [header]
    for p in range(len(result.parameters)):
        cells = [f"{result.parameters[p]:.17g}"]
        cells += [f"{x:.17g}" for x in result.levels[p]]
        cells += [f"{x:.17g}" for x in result.overlaps[p]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"

"""Sparse Hermitian operators on a truncated qubit-resonator space.

Interaction matrices are assembled from the ladder operators of each coupled
mode and the raising/lowering/sigma_z operators of each coupled qubit, with
one amplitude per hop that its transpose partner shares, so Hermiticity holds
exactly (not just to rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .hilbert import HilbertSpace
from .system import InteractionModel


@dataclass(frozen=True)
class HermitianOperator:
    """Sparse Hermitian matrix tied to the Hilbert space it acts on.

    Every amplitude the build functions emit is real, so the matrix is
    stored as float64 and is exactly symmetric in pattern and value: row j
    and column j hold the same entries in the same order (build_hint emits
    one amplitude per hop, so no summation order can break the mirror).
    Entries are in canonical CSR form (sorted, no duplicates, no stored
    zeros), so equal operators compare equal entrywise, and the path sums,
    which run in this CSR order, are deterministic.
    """

    space: HilbertSpace
    matrix: sp.csr_matrix  # float64, symmetric, canonical

    @property
    def dimension(self) -> int:
        return self.space.dimension

    def element(self, row, col) -> float:
        """<row|H|col> for anything :meth:`HilbertSpace.index` accepts."""
        return float(self.matrix[self.space.index(row), self.space.index(col)])

    @cached_property
    def pattern(self) -> sp.csr_matrix:
        """The stored entries as int64 ones in the same CSR layout: the
        adjacency that path counts and reachability walk over."""
        m = self.matrix
        return sp.csr_matrix(
            (np.ones(m.nnz, dtype=np.int64), m.indices, m.indptr), shape=m.shape
        )

    @cached_property
    def _diagonal_slots(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """This matrix with a stored slot at every diagonal position (0.0
        where it stores none), and the data positions of those slots."""
        m = self.matrix.tocoo()
        d = np.arange(self.dimension)
        t = sp.csr_matrix(
            (np.concatenate([m.data, np.zeros(len(d))]),
             (np.concatenate([m.row, d]), np.concatenate([m.col, d]))),
            shape=m.shape,
        )  # duplicates summed (x + 0.0 is x), indices sorted, zeros kept
        rows = np.repeat(d, np.diff(t.indptr))
        return t, np.flatnonzero(t.indices == rows)

    def with_energies(self, space: HilbertSpace) -> "HermitianOperator":
        """``build_hamiltonian(space)``, entrywise and in CSR layout, from
        this ``build_hamiltonian`` result on a space that differs only in
        frequencies. Hint has no diagonal, so only the diagonal slots are
        rewritten, with ``space.energies``; an energy of exactly 0 drops its
        slot, as canonical form stores no zeros."""
        t, slots = self._diagonal_slots
        data = t.data.copy()
        data[slots] = space.energies
        if space.energies.all():
            return HermitianOperator(space, sp.csr_matrix((data, t.indices, t.indptr), shape=t.shape))
        m = sp.csr_matrix((data, t.indices.copy(), t.indptr.copy()), shape=t.shape)
        m.eliminate_zeros()
        return HermitianOperator(space, m)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def hermiticity_defect(self) -> float:
        """max |H - H^T| over stored entries; exactly 0 for built operators."""
        d = self.matrix - self.matrix.T
        return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        if other.space is not self.space:
            raise ConfigError("cannot add operators on different Hilbert spaces")
        return HermitianOperator(self.space, _canonical(self.matrix + other.matrix))

    def scaled(self, factor: float) -> "HermitianOperator":
        return HermitianOperator(self.space, _canonical(self.matrix * factor))

    def dump_coo(self, path) -> None:
        """Write sorted 'row col re im' lines for cross-tool diffing; H is
        real, so the im column is always 0."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        with open(path, "w") as fh:
            for k in order:
                fh.write(f"{coo.row[k]} {coo.col[k]} {coo.data[k]:.17g} 0\n")


def _canonical(m) -> sp.csr_matrix:
    m = sp.csr_matrix(m, dtype=np.float64)
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    return m


def _from_triplets(space: HilbertSpace, rows, cols, vals) -> HermitianOperator:
    m = sp.coo_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)),
        shape=(space.dimension, space.dimension),
    )
    return HermitianOperator(space, _canonical(m))


def _diagonal(space: HilbertSpace, values) -> HermitianOperator:
    return HermitianOperator(
        space, _canonical(sp.diags(np.asarray(values, dtype=np.float64)))
    )


def build_h0(space: HilbertSpace) -> HermitianOperator:
    """Bare Hamiltonian: diagonal of bare energies."""
    return _diagonal(space, space.energies)


def total_number_operator(space: HilbertSpace) -> HermitianOperator:
    """Total excitation number: photons plus excited qubits."""
    return _diagonal(space, space.excitation_numbers)


def parity_operator(space: HilbertSpace) -> HermitianOperator:
    """Excitation-number parity (-1)^N."""
    return _diagonal(space, 1.0 - 2.0 * (space.excitation_numbers % 2))


def build_hint(space: HilbertSpace) -> HermitianOperator:
    """Interaction Hamiltonian of the couplings and model of ``space.spec``.

    Per coupling of strength g between mode m and qubit q:

    * JC:               g (a sigma+ + a^dag sigma-)
    * Rabi:             g (a + a^dag)(sigma+ + sigma-)
    * generalized Rabi: g (a + a^dag)(cos(theta) sigma_x + sin(theta) sigma_z)

    with sigma_z|e> = +|e>. Raising past n_max maps to zero (hard cutoff).

    Couplings are first summed per hop kind: the transversal strengths per
    (mode, qubit) pair, the longitudinal ones per mode as sum_q g_z,q
    sigma_z^q (equal strengths combined as integer sigma_z counts, so equal
    qubits in opposite states cancel exactly). Each matrix element then
    comes from one product amplitude * sqrt(n), the same for a hop and its
    reverse, which makes H exactly symmetric in pattern and value.
    """
    model = space.spec.model
    flips = {}  # (mode, qubit) -> summed transversal strength
    sz_counts = {}  # (mode, g_z) -> integer sum of sigma_z over those qubits
    for c in space.spec.couplings:
        g = c.strength
        if g == 0.0:
            continue
        mk = space.mode_index(c.mode_label)
        qk = space.qubit_index(c.qubit_label)
        if model is InteractionModel.GENERALIZED_RABI:
            g_x = g * math.cos(c.mixing_angle)
            g_z = g * math.sin(c.mixing_angle)
        else:
            g_x, g_z = g, 0.0
        if g_x != 0.0:
            flips[mk, qk] = flips.get((mk, qk), 0.0) + g_x
        if g_z != 0.0:
            sz = 2 * space.qubit_table[:, qk].astype(np.int64) - 1
            sz_counts[mk, g_z] = sz_counts.get((mk, g_z), 0) + sz
    longitudinal = {}  # mode -> per-state amplitude sum_q g_z,q sigma_z^q
    for (mk, g_z), count in sz_counts.items():
        longitudinal[mk] = longitudinal.get(mk, 0.0) + g_z * count

    rows, cols, vals = [], [], []

    def add(mask, dcol_to_row, amp):
        idx = np.nonzero(mask)[0]
        rows.append(idx + dcol_to_row)
        cols.append(idx)
        vals.append(amp[idx])

    nm = len(space.modes)
    occ = space.occupation_table

    def ladder(mk):
        n = occ[:, mk]
        # column-state n: a lowers with sqrt(n), a^dag raises with sqrt(n + 1)
        return n, space.modes[mk].n_max, space._weights[mk], np.sqrt(n), np.sqrt(n + 1.0)

    # transversal part: (a + a^dag)(sigma+ + sigma-), with JC keeping only
    # the excitation-conserving combinations
    for (mk, qk), g_x in flips.items():
        n, n_max, mw, sq_dn, sq_up = ladder(mk)
        e = space.qubit_table[:, qk]  # 0 = g, 1 = e
        qw = space._weights[nm + qk]
        # a sigma+ : n -> n-1, g -> e
        add((n >= 1) & (e == 0), -mw + qw, g_x * sq_dn)
        # a^dag sigma- : n -> n+1, e -> g
        add((n < n_max) & (e == 1), mw - qw, g_x * sq_up)
        if model is not InteractionModel.JC:
            # a sigma- : n -> n-1, e -> g
            add((n >= 1) & (e == 1), -mw - qw, g_x * sq_dn)
            # a^dag sigma+ : n -> n+1, g -> e
            add((n < n_max) & (e == 0), mw + qw, g_x * sq_up)

    # longitudinal part: (a + a^dag) sigma_z, qubit states unchanged
    for mk, z in longitudinal.items():
        n, n_max, mw, sq_dn, sq_up = ladder(mk)
        add(n >= 1, -mw, z * sq_dn)
        add(n < n_max, mw, z * sq_up)

    if not rows:
        return _from_triplets(space, [], [], [])
    return _from_triplets(
        space, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )


def build_hamiltonian(space: HilbertSpace) -> HermitianOperator:
    """Full Hamiltonian H0 + Hint of the space's system spec."""
    return build_h0(space) + build_hint(space)


def commutator_norm(a: HermitianOperator, b: HermitianOperator) -> float:
    """max-entry norm of [A, B]."""
    d = a.matrix @ b.matrix - b.matrix @ a.matrix
    d = _canonical(d)
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())

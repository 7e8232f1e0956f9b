"""Sparse Hermitian operators on a truncated qubit-resonator space.

Interaction matrices are assembled from the ladder operators of each coupled
mode and the raising/lowering/sigma_z operators of each coupled qubit, with
one amplitude per hop that its transpose partner shares, so Hermiticity holds
exactly (not just to rounding). Matrices are :class:`CSRMatrix` records of
numpy arrays, so building and applying them needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hilbert import HilbertSpace
from .system import InteractionModel


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """A square matrix in compressed sparse row form: row r stores
    ``data[indptr[r]:indptr[r + 1]]`` at the columns
    ``indices[indptr[r]:indptr[r + 1]]``, ascending. :func:`canonical_csr`
    builds it with no duplicate and no stored zero, so equal matrices have
    equal arrays."""

    indptr: np.ndarray   # int64, shape[0] + 1 offsets
    indices: np.ndarray  # int64 column of each stored entry
    data: np.ndarray     # float64 (int64 ones for a pattern)
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.rows, self.indices, self.data

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector x. A float row is summed term by term in CSR
        order from 0.0, as scipy's CSR product does, so the two agree to the
        bit; integer or boolean x gives exact integer sums."""
        terms = self.data * x[self.indices]
        if terms.dtype.kind == "f":
            return np.bincount(self.rows, weights=terms, minlength=self.shape[0])
        out = np.zeros(self.shape[0], dtype=terms.dtype)
        filled = np.flatnonzero(np.diff(self.indptr))  # reduceat misreads empty rows
        if len(filled):
            out[filled] = np.add.reduceat(terms, self.indptr[filled])
        return out

    def row(self, r: int) -> np.ndarray:
        """Row r as a dense vector."""
        out = np.zeros(self.shape[1], dtype=self.data.dtype)
        lo, hi = self.indptr[r], self.indptr[r + 1]
        out[self.indices[lo:hi]] = self.data[lo:hi]
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.rows, self.indices] = self.data
        return out


def canonical_csr(n: int, *parts) -> CSRMatrix:
    """The n x n sum of the ``(rows, cols, values)`` triplet arrays in
    ``parts``: entries sorted by row, then column, duplicates summed in the
    order given, exact zeros dropped."""
    # the empty first triplet lets ``parts`` be empty
    rows, cols, vals = map(np.concatenate, zip(((), (), ()), *parts))
    key = rows.astype(np.int64) * n + cols.astype(np.int64)  # row-major position
    order = np.argsort(key, kind="stable")  # duplicates keep their order
    key, vals = key[order], vals.astype(np.float64)[order]
    starts = np.ones(len(key), dtype=bool)  # first entry of each position
    starts[1:] = key[1:] != key[:-1]
    if not starts.all():
        first = np.flatnonzero(starts)
        key, vals = key[first], np.add.reduceat(vals, first)
    kept = vals != 0
    key, vals = key[kept], vals[kept]
    indptr = np.searchsorted(key, np.arange(n + 1) * n)
    return CSRMatrix(indptr, key % n, vals, (n, n))


def diagonal_csr(values) -> CSRMatrix:
    d = np.arange(len(values))
    return canonical_csr(len(values), (d, d, values))


@dataclass(frozen=True)
class HermitianOperator:
    """Sparse Hermitian matrix tied to the Hilbert space it acts on.

    Every amplitude the build functions emit is real, so ``matrix`` is a
    float64 :class:`CSRMatrix` (``indptr``, ``indices``, ``data``, ``shape``,
    ``nnz``) that is exactly symmetric in pattern and value: row j and
    column j hold the same entries in the same order (build_hint emits one
    amplitude per hop, so no summation order can break the mirror). Entries
    are in canonical form (sorted, no duplicates, no stored zeros), so equal
    operators have equal arrays, and the path sums, which run in this CSR
    order, are deterministic.
    """

    space: HilbertSpace
    matrix: CSRMatrix  # float64, symmetric, canonical

    @property
    def dimension(self) -> int:
        return self.space.dimension

    def element(self, row, col) -> float:
        """<row|H|col> for anything :meth:`HilbertSpace.index` accepts."""
        return float(self.matrix.row(self.space.index(row))[self.space.index(col)])

    @cached_property
    def pattern(self) -> CSRMatrix:
        """The stored entries as int64 ones in the same CSR layout: the
        adjacency that path counts and reachability walk over."""
        m = self.matrix
        return CSRMatrix(m.indptr, m.indices, np.ones(m.nnz, dtype=np.int64), m.shape)

    def with_energies(self, space: HilbertSpace) -> "HermitianOperator":
        """H on ``space``: the entries of this H_int plus the bare energies
        of ``space`` on the diagonal, in canonical CSR layout. H_int stores
        no diagonal, since every hop shifts a mode by one photon, so the two
        never share an entry; an energy of exactly 0 stores none. ``space``
        may differ from ``self.space`` in frequencies only."""
        d = np.arange(self.dimension)
        return HermitianOperator(space, canonical_csr(
            self.dimension, self.matrix.triplets(), (d, d, space.energies)))

    def to_dense(self) -> np.ndarray:
        return self.matrix.to_dense()


def build_h0(space: HilbertSpace) -> HermitianOperator:
    """Bare Hamiltonian: diagonal of bare energies."""
    return HermitianOperator(space, diagonal_csr(space.energies))


def total_number_operator(space: HilbertSpace) -> HermitianOperator:
    """Total excitation number: photons plus excited qubits."""
    return HermitianOperator(space, diagonal_csr(space.excitation_numbers))


def parity_operator(space: HilbertSpace) -> HermitianOperator:
    """Excitation-number parity (-1)^N."""
    return HermitianOperator(space, diagonal_csr(1.0 - 2.0 * (space.excitation_numbers % 2)))


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

    hops = []  # (rows, cols, values) per hop kind

    def add(mask, dcol_to_row, amp):
        idx = np.nonzero(mask)[0]
        hops.append((idx + dcol_to_row, idx, amp[idx]))

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

    return HermitianOperator(space, canonical_csr(space.dimension, *hops))


def build_hamiltonian(space: HilbertSpace) -> HermitianOperator:
    """Full Hamiltonian H0 + Hint of the space's system spec: the entries of
    Hint with the bare energies on the diagonal."""
    return build_hint(space).with_energies(space)


def _product(a: CSRMatrix, b: CSRMatrix):
    """(rows, cols, values) of the terms a_ik b_kj of A B, one per pair of
    stored entries; :func:`canonical_csr` sums them."""
    per = np.diff(b.indptr)[a.indices]  # entries of row k of B, per entry of A
    at = np.arange(per.sum()) + np.repeat(b.indptr[a.indices] - (np.cumsum(per) - per), per)
    return np.repeat(a.rows, per), b.indices[at], np.repeat(a.data, per) * b.data[at]


def commutator_norm(a: HermitianOperator, b: HermitianOperator) -> float:
    """max-entry norm of [A, B]."""
    rows, cols, vals = _product(b.matrix, a.matrix)
    d = canonical_csr(a.dimension, _product(a.matrix, b.matrix), (rows, cols, -vals))
    return float(np.abs(d.data).max(initial=0.0))

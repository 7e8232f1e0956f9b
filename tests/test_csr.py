"""The numpy CSR record of ``HermitianOperator.matrix`` against scipy's
``csr_matrix``: products, dense form and sums agree to the bit on H and
H_int of every catalog system and on rows that store nothing."""

import numpy as np
import pytest
import scipy.sparse as sp

from rabimix import (
    CouplingSpec,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SystemSpec,
    build_hamiltonian,
    build_hint,
    build_space,
)
from rabimix.catalog import CATALOG, build_system, default_frequencies
from rabimix.hamiltonian import canonical_csr


def scipy_csr(m):
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def spectator_jc_space():
    """JC with an uncoupled second mode: H_int stores nothing in the rows of
    |0,b,g> and |3,b,e> (n_max 3 of mode a) for b = 0, 1, 2, the first row
    and the last among them."""
    return build_space(SystemSpec(
        modes=(ModeSpec("a", 1.0, 3), ModeSpec("b", 1.3, 2)),
        qubits=(QubitSpec("q", 1.0),),
        couplings=(CouplingSpec("a", "q", 0.05),),
        model=InteractionModel.JC,
    ))


def operator_pairs():
    """(id, H, H_int) on one space for every catalog system, then the JC
    system with empty rows."""
    for entry in CATALOG:
        space = build_space(build_system(entry, default_frequencies(entry)))
        yield entry.id, build_hamiltonian(space), build_hint(space)
    space = spectator_jc_space()
    yield "spectator_jc", build_hamiltonian(space), build_hint(space)


PAIRS = list(operator_pairs())


def test_the_spectator_system_has_empty_first_middle_and_last_rows():
    hint = PAIRS[-1][2]
    empty = np.flatnonzero(np.diff(hint.matrix.indptr) == 0).tolist()
    assert empty == [0, 4, 8, 15, 19, 23] and hint.dimension == 24


@pytest.mark.parametrize("pid,h,hint", PAIRS, ids=[p[0] for p in PAIRS])
def test_record_matches_scipy(pid, h, hint):
    rng = np.random.default_rng(7)
    for op in (h, hint):
        m, ref = op.matrix, scipy_csr(op.matrix)
        dim = op.dimension
        for _ in range(5):
            x = rng.standard_normal(dim)
            assert np.array_equal(m @ x, ref @ x)  # bit for bit
        assert np.array_equal(m.to_dense(), ref.toarray())
        pattern, ref_pattern = op.pattern, scipy_csr(op.pattern)
        limit = np.iinfo(np.int64).max // max(int(np.diff(m.indptr).max(initial=0)), 1)
        counts = rng.integers(0, limit, size=dim, dtype=np.int64)  # past 2**53
        y = pattern @ counts
        assert y.dtype == np.int64 and np.array_equal(y, ref_pattern @ counts)
        mask = rng.random(dim) < 0.3
        assert np.array_equal(pattern @ mask, ref_pattern @ mask.astype(np.int64))
        r = int(rng.integers(dim))
        assert np.array_equal(m.row(r), ref[[r]].toarray().ravel())


@pytest.mark.parametrize("pid,h,hint", PAIRS, ids=[p[0] for p in PAIRS])
def test_sum_matches_scipy_sum_duplicates(pid, h, hint):
    """H and H_int overlap on every entry of H_int."""
    total = canonical_csr(h.dimension, h.matrix.triplets(), hint.matrix.triplets())
    a, b = h.matrix, hint.matrix
    ref = sp.coo_matrix(
        (np.concatenate([a.data, b.data]),
         (np.concatenate([a.rows, b.rows]), np.concatenate([a.indices, b.indices]))),
        shape=a.shape,
    ).tocsr()
    ref.sum_duplicates()
    ref.eliminate_zeros()
    ref.sort_indices()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(total, name), getattr(ref, name)), name


def test_canonical_form_merges_sorts_and_drops_zeros():
    m = canonical_csr(4, ([2, 0, 2, 1], [1, 3, 1, 1], [1.5, 2.0, -1.5, 0.0]),
                      ([0], [0], [1.0]))
    assert m.indptr.tolist() == [0, 2, 2, 2, 2]
    assert m.indices.tolist() == [0, 3] and m.data.tolist() == [1.0, 2.0]
    assert m.nnz == 2 and m.row(0).tolist() == [1.0, 0.0, 0.0, 2.0] and not m.row(2).any()
    empty = canonical_csr(3)
    assert empty.nnz == 0 and np.array_equal(empty @ np.ones(3), np.zeros(3))
    assert np.array_equal(empty @ np.ones(3, dtype=np.int64), np.zeros(3, dtype=np.int64))

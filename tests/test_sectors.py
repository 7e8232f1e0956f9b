"""Below ``DENSE_CAP`` ``eigensystem`` diagonalizes only the symmetry sectors
that hold the requested rows: the excitation number N for JC, its parity
for Rabi. Generalized Rabi is one sector and gets the plain dense solve.
The split is read from H's entries: one that breaks N falls back to
parity, one that breaks parity too to the whole space."""

import numpy as np
import pytest
import scipy.linalg

from rabimix import (
    BasisState,
    CouplingSpec,
    EvolutionSpec,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SystemSpec,
    build_hamiltonian,
    build_space,
    evolve,
    spectra,
)
from rabimix.hamiltonian import HermitianOperator, canonical_csr
from rabimix.spectra import eigensystem

state = BasisState.parse

# (modes, qubits, n_max): dims 14 to 100
SHAPES = [(1, 1, 6), (1, 2, 6), (1, 3, 6), (2, 1, 4), (2, 2, 4)]
MODELS = [InteractionModel.JC, InteractionModel.RABI]


def system(model, n_modes, n_qubits, n_max):
    """Incommensurate frequencies and unequal couplings, so that no two
    sectors share an eigenvalue."""
    modes = tuple(ModeSpec("ab"[m], 1.0 + 0.31 * m, n_max) for m in range(n_modes))
    qubits = tuple(QubitSpec(f"q{k}", 0.93 + 0.17 * k) for k in range(n_qubits))
    couplings = tuple(CouplingSpec(mode.label, q.label, 0.04 + 0.013 * (m + 2 * k), 0.5)
                      for m, mode in enumerate(modes) for k, q in enumerate(qubits))
    return SystemSpec(modes=modes, qubits=qubits, couplings=couplings, model=model)


def labels(space, model):
    """Sector label of each basis state, from the occupation tables."""
    n = space.occupation_table.sum(axis=1) + space.qubit_table.sum(axis=1)
    return n % 2 if model is InteractionModel.RABI else n


def cases():
    for model in MODELS:
        for shape in SHAPES:
            yield pytest.param(model, shape, id=f"{model.value}-{shape[0]}r{shape[1]}q")


def some_rows(space):
    """The lowest one-excitation state and the highest state: one sector
    each for JC, both of them in one parity or two for Rabi."""
    one = np.flatnonzero(labels(space, InteractionModel.JC) == 1)[0]
    return [int(one), space.dimension - 1]


def cluster_weights(vals, vecs, rows, edges):
    """Weight of each row summed over the eigenpairs in each energy cluster:
    equal for any orthonormal basis of a degenerate eigenspace."""
    which = np.searchsorted(edges, vals)
    out = np.zeros((len(edges) + 1, len(rows)))
    np.add.at(out, which, (vecs[rows] ** 2).T)
    return out


@pytest.mark.parametrize("model, shape", cases())
def test_sector_solve_matches_a_full_eigh_of_the_same_sectors(model, shape):
    space = build_space(system(model, *shape))
    h = build_hamiltonian(space)
    rows = some_rows(space)
    vals, vecs = eigensystem(h, rows)
    label = labels(space, model)
    wanted = np.unique(label[rows])

    dense = h.to_dense()
    ref = np.sort(np.concatenate([
        scipy.linalg.eigvalsh(dense[np.ix_(label == s, label == s)]) for s in wanted]))
    assert len(vals) == np.isin(label, wanted).sum()
    assert np.abs(vals - ref).max() < 1e-12

    # the same weights on the rows as the full solve, cluster by cluster
    full_vals, full_vecs = scipy.linalg.eigh(dense)
    gaps = np.flatnonzero(np.diff(full_vals) > 1e-8)
    edges = 0.5 * (full_vals[gaps] + full_vals[gaps + 1])
    assert np.abs(cluster_weights(vals, vecs, rows, edges)
                  - cluster_weights(full_vals, full_vecs, rows, edges)).max() < 1e-12


@pytest.mark.parametrize("model, shape", cases())
def test_each_eigenvector_is_exactly_zero_outside_its_sector(model, shape):
    space = build_space(system(model, *shape))
    rows = some_rows(space)
    vals, vecs = eigensystem(build_hamiltonian(space), rows)
    label = labels(space, model)
    held = []
    for j in range(len(vals)):
        support = np.flatnonzero(vecs[:, j])
        assert len(np.unique(label[support])) == 1
        held.append(label[support[0]])
    assert set(held) == set(label[rows].tolist())


@pytest.mark.parametrize("model, shape", cases())
def test_sector_solve_is_reproducible_and_complete_without_rows(model, shape):
    space = build_space(system(model, *shape))
    h = build_hamiltonian(space)
    rows = some_rows(space)
    first, second = eigensystem(h, rows), eigensystem(h, rows)
    assert first[0].tobytes() == second[0].tobytes()
    assert first[1].tobytes() == second[1].tobytes()

    vals, vecs = eigensystem(h)
    assert len(vals) == vecs.shape[1] == vecs.shape[0] == space.dimension
    assert np.abs(vals - scipy.linalg.eigvalsh(h.to_dense())).max() < 1e-12
    assert np.abs(vecs.T @ vecs - np.eye(space.dimension)).max() < 1e-12


@pytest.mark.parametrize("rows", [[], [3], [0, 40, 97]])
def test_generalized_rabi_keeps_the_plain_dense_solve(shg_spec, rows):
    h = build_hamiltonian(build_space(shg_spec))
    vals, vecs = eigensystem(h, rows)
    ref_vals, ref_vecs = scipy.linalg.eigh(h.to_dense())
    assert vals.tobytes() == ref_vals.tobytes() and vecs.tobytes() == ref_vecs.tobytes()


def test_jc_dense_result_is_the_sectors_that_hold_the_rows_and_is_certified(monkeypatch, shg_spec):
    space = build_space(shg_spec.with_model(InteractionModel.JC))
    h = build_hamiltonian(space)
    rows = [space.index(state(s)) for s in ("1,2,e", "0,4,e")]  # N = 4 and 5
    checked = []
    real = spectra.captured_norms

    def spy(h, vecs, indices):
        checked.append(list(indices))
        return real(h, vecs, indices)

    monkeypatch.setattr(spectra, "captured_norms", spy)
    vals, vecs = eigensystem(h, rows)
    all_vals, all_vecs = eigensystem(h)
    assert checked == [rows, []]
    n = space.excitation_numbers
    assert len(vals) == np.isin(n, [4, 5]).sum() == 9 + 11  # not all 98
    # the same bytes as those sectors' columns of the solve without rows
    mine = np.isin(n[np.abs(all_vecs).argmax(axis=0)], [4, 5])
    assert np.array_equal(vals, all_vals[mine]) and np.array_equal(vecs, all_vecs[:, mine])


def forged(model, a, b, amplitude=0.01):
    """H of a one-mode, one-qubit system with one extra symmetric entry
    between the bare states ``a`` and ``b``."""
    spec = SystemSpec(modes=(ModeSpec("a", 1.0, 6),), qubits=(QubitSpec("q", 1.0),),
                      couplings=(CouplingSpec("a", "q", 0.05),), model=model)
    space = build_space(spec)
    h = build_hamiltonian(space)
    i, j = space.index(state(a)), space.index(state(b))
    extra = (np.array([i, j]), np.array([j, i]), np.array([amplitude, amplitude]))
    matrix = canonical_csr(space.dimension, h.matrix.triplets(), extra)
    return HermitianOperator(space, matrix)


@pytest.mark.parametrize("amplitude", [5e-324, 0.01])  # no tolerance: the smallest float counts
@pytest.mark.parametrize("model, a, b, split", [
    (InteractionModel.JC, "0,g", "1,g", "none"),  # N = 0 and 1: breaks N and parity
    (InteractionModel.JC, "1,g", "2,e", "parity"),  # N = 1 and 3: breaks N only
    (InteractionModel.RABI, "0,g", "1,g", "none"),  # even and odd
    (InteractionModel.RABI, "2,e", "0,e", "parity"),  # N = 3 and 1: both odd
])
def test_an_entry_that_breaks_a_sector_coarsens_the_split(model, a, b, split, amplitude):
    h = forged(model, a, b, amplitude)
    n = h.space.excitation_numbers
    i = h.space.index(state(a))
    vals, vecs = eigensystem(h, [i])
    if split == "none":
        ref_vals, ref_vecs = scipy.linalg.eigh(h.to_dense())
        assert vals.tobytes() == ref_vals.tobytes() and vecs.tobytes() == ref_vecs.tobytes()
    else:
        assert len(vals) == np.sum(n % 2 == n[i] % 2)
    assert np.abs(vecs.T @ h.to_dense() @ vecs - np.diag(vals)).max() < 1e-12


def test_evolve_follows_an_entry_between_two_sectors():
    h = forged(InteractionModel.JC, "0,g", "1,g")
    run = EvolutionSpec(state("1,g"), 300.0, 256, (state("0,g"), state("0,e")))
    trace = evolve(h.space, h, run)
    vals, vecs = scipy.linalg.eigh(h.to_dense())
    i = h.space.index(run.initial)
    for target in run.targets:
        f = h.space.index(target)
        amp = (vecs[f] * vecs[i]) @ np.exp(-1j * np.outer(vals, trace.times))
        assert np.abs(trace.population(target) - np.abs(amp) ** 2).max() < 1e-11
    assert trace.population(state("0,g")).max() > 1e-4  # about 4 g^2 / detuning^2 = 4e-4


def test_jc_evolve_gives_exactly_zero_outside_the_initial_sector():
    """Every target outside N = 1 reads exactly 0.0; a full-space eigh
    leaves rounding residues of order 1e-32 there on this system."""
    space = build_space(system(InteractionModel.JC, 1, 2, 6))
    h = build_hamiltonian(space)
    n = space.excitation_numbers
    inside = state("0,e,g")
    outside = tuple(space.state(int(j)) for j in np.flatnonzero(n != 1))
    run = EvolutionSpec(state("1,g,g"), 300.0, 256, (inside, *outside))
    trace = evolve(space, h, run)
    for target in outside:
        assert np.all(trace.population(target) == 0.0)

    # the in-sector target against the full state e^{-iHt} e_i
    vals, vecs = scipy.linalg.eigh(h.to_dense())
    i, f = space.index(run.initial), space.index(inside)
    amp = (vecs[f] * vecs[i]) @ np.exp(-1j * np.outer(vals, trace.times))
    assert np.abs(trace.population(inside) - np.abs(amp) ** 2).max() < 1e-11
    assert np.ptp(trace.population(inside)) > 0.1

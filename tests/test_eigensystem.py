"""``spectra.eigensystem(h, rows)`` is the one eigensolver entry point: it
picks the solver, sizes the Krylov basis from the rows the caller reads and
certifies those rows before it returns."""

import ast
from pathlib import Path

import numpy as np
import pytest

import rabimix
from rabimix import (
    BasisState,
    CapacityError,
    CouplingSpec,
    EvolutionSpec,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SweepSpec,
    SystemSpec,
    build_hamiltonian,
    build_space,
    dynamics,
    evolve,
    find_avoided_crossing,
    kerr_shift_numeric,
    spectra,
    track_levels,
)
from rabimix.spectra import eigensystem, subspace_gap

state = BasisState.parse

# Bare states of the three lowest JC excitation sectors of the dim-98 system,
# which the lowest 16 (and 18) eigenpairs span exactly.
LOW = ["0,0,g", "1,0,g", "0,1,g", "0,0,e", "0,1,e"]


def operator(spec):
    space = build_space(spec)
    return space, build_hamiltonian(space)


def test_eigensystem_refuses_an_uncaptured_row(monkeypatch, shg_spec):
    monkeypatch.setattr(spectra, "DENSE_CAP", 64)
    space, h = operator(shg_spec)
    with pytest.raises(CapacityError, match=r"dimension-98 .*\|1,2,e>.*NORM_TOL"):
        eigensystem(h, [space.index(state("1,2,e"))])


def test_eigensystem_krylov_result_is_reproducible(monkeypatch, shg_spec):
    """ARPACK starts from a fixed vector, so the same operator gives the same
    eigenpairs to the last bit."""
    monkeypatch.setattr(spectra, "DENSE_CAP", 32)
    _, h = operator(shg_spec)
    first, second = eigensystem(h, []), eigensystem(h, [])
    assert first[0].tobytes() == second[0].tobytes()
    assert first[1].tobytes() == second[1].tobytes()


@pytest.mark.parametrize("n_rows", [0, 2, 5])
def test_eigensystem_krylov_size_follows_the_rows(monkeypatch, shg_spec, n_rows):
    monkeypatch.setattr(spectra, "DENSE_CAP", 64)
    space, h = operator(shg_spec.with_model(InteractionModel.JC))
    rows = [space.index(state(s)) for s in LOW[:n_rows]]
    vals, vecs = eigensystem(h, rows)
    assert len(vals) == vecs.shape[1] == max(16, 2 * n_rows + 8)
    assert np.all(np.diff(vals) >= 0)


def test_eigensystem_dense_result_does_not_depend_on_rows_and_is_certified(monkeypatch, shg_spec):
    space, h = operator(shg_spec)
    rows = [space.index(state(s)) for s in ("1,2,e", "0,4,e")]
    checked = []
    real = spectra.captured_norms

    def spy(h, vecs, indices):
        checked.append(list(indices))
        return real(h, vecs, indices)

    monkeypatch.setattr(spectra, "captured_norms", spy)
    vals, vecs = eigensystem(h, rows)
    ref_vals, ref_vecs = eigensystem(h)
    assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)
    assert checked == [rows, []]


class RowLog(np.ndarray):
    """Eigenvectors that note each row read by an integer or list index.
    Views of them (``.T``, products, slices) note nothing."""

    def __array_finalize__(self, obj):
        self.read = None

    def __getitem__(self, key):
        first = key[0] if isinstance(key, tuple) else key
        if self.read is not None and not isinstance(first, slice):
            self.read.update(np.atleast_1d(first).tolist())
        return np.asarray(self)[key]


@pytest.fixture
def solves(monkeypatch):
    """Every eigensystem call as (rows passed, set of eigenvector rows read)."""
    calls = []
    real = spectra.eigensystem

    def spy(h, rows=()):
        vals, vecs = real(h, rows)
        logged = vecs.view(RowLog)
        logged.read = set()
        calls.append((list(rows), logged.read))
        return vals, logged

    monkeypatch.setattr(spectra, "eigensystem", spy)
    monkeypatch.setattr(dynamics, "eigensystem", spy)
    return calls


def assert_reads_what_it_passes(calls, rows):
    assert calls
    for passed, read in calls:
        assert passed == rows and read == set(rows)


def test_track_levels_passes_the_rows_it_reads(solves, shg_spec):
    tracked = (state("1,0,g"), state("0,2,g"), state("0,0,e"))
    track_levels(SweepSpec(shg_spec, "mode:a", 1.9, 2.1, 3, tracked))
    space = build_space(shg_spec)
    assert_reads_what_it_passes(solves, [space.index(s) for s in tracked])


def test_find_avoided_crossing_passes_the_rows_it_reads(solves):
    base = SystemSpec(modes=(ModeSpec("a", 1.0, 6),), qubits=(QubitSpec("q", 1.0),),
                      couplings=(CouplingSpec("a", "q", 0.02),), model=InteractionModel.JC)
    a, b = state("1,g"), state("0,e")
    find_avoided_crossing(SweepSpec(base, "mode:a", 0.9, 1.1, 21, (a, b)), a, b)
    space = build_space(base)
    assert_reads_what_it_passes(solves, [space.index(a), space.index(b)])


def test_subspace_gap_passes_the_rows_it_reads(solves, shg_spec):
    subspace_gap(shg_spec, state("1,0,g"), state("0,2,g"))
    space = build_space(shg_spec)
    assert_reads_what_it_passes(solves, [space.index(state("1,0,g")), space.index(state("0,2,g"))])


def test_evolve_certifies_the_initial_row(solves, shg_spec):
    """Only e_i needs the certificate: once it lies in the span of the
    eigenvectors, each target amplitude is exact, so the target rows are
    read without one."""
    space, h = operator(shg_spec)
    targets = (state("0,2,g"), state("0,0,e"))
    evolve(space, h, EvolutionSpec(state("1,0,g"), 50.0, 64, targets))
    i = space.index(state("1,0,g"))
    [(passed, read)] = solves
    assert passed == [i] and read == {i} | {space.index(t) for t in targets}


def test_kerr_shift_numeric_passes_the_rows_it_reads(solves):
    spec = SystemSpec(modes=(ModeSpec("a", 1.0, 6),), qubits=(QubitSpec("q", 1.5),),
                      couplings=(CouplingSpec("a", "q", 0.03),), model=InteractionModel.JC)
    kerr_shift_numeric(spec)
    space = build_space(spec)
    assert_reads_what_it_passes(solves, [space.index(state(f"{n},g")) for n in range(4)])


class Calls(ast.NodeVisitor):
    """(module, innermost enclosing function, called name) for every call
    node of a module; docstrings and comments do not count."""

    def __init__(self, module):
        self.module, self.scope, self.found = module, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        self.found.append((self.module, self.scope[-1], name))
        self.generic_visit(node)


def package_calls():
    found = []
    for path in sorted(Path(rabimix.__file__).parent.glob("*.py")):
        scan = Calls(path.stem)
        scan.visit(ast.parse(path.read_text()))
        found += scan.found
    return found


def test_only_eigensystem_diagonalizes_and_certifies():
    calls = package_calls()
    assert len(calls) > 500  # the scan sees the package
    solvers = {(m, fn) for m, fn, name in calls if name in {"eigh", "eigsh", "eigvalsh", "eigs"}}
    certifiers = {(m, fn) for m, fn, name in calls if name == "captured_norms"}
    assert solvers == {("spectra", "eigensystem")}
    assert certifiers == {("spectra", "eigensystem")}

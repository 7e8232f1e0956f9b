"""Independent reference computations for checking rabimix outputs.

Everything here works from the same JSON config dictionaries the CLI reads
and imports nothing from rabimix. The Hamiltonian is assembled as a sum of
Kronecker products straight from the JC, Rabi and generalized Rabi formulas,
with the basis ordered as rabimix documents it (first mode varies fastest,
qubits last, |g> = 0, |e> = 1, sigma_z|e> = +|e>).

Tolerances are those the benchmark promises: g_eff within 1e-10 of the
absolute path-sum scale, closed forms to 1e-10 relative, levels, overlaps,
gaps and populations to 1e-9, norms within 1e-9 of 1.
"""

from __future__ import annotations

import functools
import math
from functools import reduce

import numpy as np
import scipy.sparse as sp

#: Intermediates closer than this to the initial energy are excluded, as in
#: the program's path sum.
DEGENERACY_TOL = 1e-9
GEFF_TOL = 1e-10
SPECTRAL_TOL = 1e-9
#: Eigenvalues closer than this are treated as one degenerate cluster when
#: an overlap is compared (the eigenvectors inside a cluster are arbitrary).
CLUSTER_TOL = 1e-6
MAX_ORDER = 12


class System:
    """Bare energies and the interaction matrix of one ``system`` section."""

    def __init__(self, system: dict):
        self.modes = system["modes"]
        self.qubits = system["qubits"]
        self.model = system.get("model", "rabi")
        self.dims = [m["n_max"] + 1 for m in self.modes] + [2] * len(self.qubits)
        self.dim = int(np.prod(self.dims))
        self.weights = [int(w) for w in np.cumprod([1] + self.dims[:-1])]
        labels = [m["label"] for m in self.modes] + [q["label"] for q in self.qubits]
        couplings = system.get("couplings", [])
        pairs = tuple((labels.index(c["mode"]), labels.index(c["qubit"])) for c in couplings)
        diag, terms = _structure(tuple(self.dims), len(self.modes), pairs, self.model)
        freqs = [m["frequency"] for m in self.modes] + [0.5 * q["frequency"] for q in self.qubits]
        self.energies = sum(w * d for w, d in zip(freqs, diag))
        v = sp.csr_matrix((self.dim, self.dim), dtype=complex)
        for c, (x, z) in zip(couplings, terms):
            theta = c.get("mixing_angle", 0.0) if self.model == "generalized_rabi" else 0.0
            v = v + c["strength"] * math.cos(theta) * x
            if z is not None:
                v = v + c["strength"] * math.sin(theta) * z
        v.eliminate_zeros()
        self.v = v.tocsr()

    def index(self, label: str) -> int:
        parts = [p.strip() for p in label.split(",")]
        occ = [int(p) for p in parts if p not in ("g", "e")]
        qs = [1 if p == "e" else 0 for p in parts if p in ("g", "e")]
        return int(sum(d * w for d, w in zip(occ + qs, self.weights)))

    def dense_h(self) -> np.ndarray:
        return np.diag(self.energies).astype(complex) + self.v.toarray()


@functools.lru_cache(maxsize=256)
def _structure(dims, n_modes, pairs, model):
    """Kronecker-product operators of one layout, independent of the
    frequencies and strengths: the diagonals of n per mode and sigma_z per
    qubit, and per coupling the flip term (JC: a s+ + a^dag s-, otherwise
    (a + a^dag)(s+ + s-)) and, for the generalized Rabi model, the
    longitudinal term (a + a^dag) sigma_z."""

    def embed(op, k):
        mats = [sp.identity(d, format="csr") for d in dims]
        mats[k] = sp.csr_matrix(op)
        return reduce(lambda acc, m: sp.kron(m, acc, format="csr"), mats)

    diag = [embed(_number(d - 1), k).diagonal() for k, d in enumerate(dims[:n_modes])]
    diag += [embed(_SZ, k).diagonal() for k in range(n_modes, len(dims))]
    terms = []
    for mk, qk in pairs:
        a = embed(_lower(dims[mk] - 1), mk)
        ad = a.T.tocsr()
        up = embed(_SP, qk)
        down = up.T.tocsr()
        x = a @ up + ad @ down if model == "jc" else (a + ad) @ (up + down)
        z = (a + ad) @ embed(_SZ, qk) if model == "generalized_rabi" else None
        terms.append((x, z))
    return diag, terms


_SZ = np.diag([-1.0, 1.0])
_SP = np.array([[0.0, 0.0], [1.0, 0.0]])  # |e><g|


def _lower(n_max):
    return np.diag(np.sqrt(np.arange(1, n_max + 1, dtype=float)), 1)


def _number(n_max):
    return np.diag(np.arange(n_max + 1, dtype=float))


def with_mode_frequency(system: dict, label: str, value: float) -> dict:
    modes = [dict(m, frequency=value) if m["label"] == label else m for m in system["modes"]]
    return dict(system, modes=modes)


# --- path sums -----------------------------------------------------------

def shortest_order(sys_: System, i: int, f: int) -> int:
    """Fewest interaction hops from i to f over the nonzero pattern of V."""
    pattern = (sys_.v != 0).astype(float).tocsr()
    x = np.zeros(sys_.dim)
    x[i] = 1.0
    for n in range(1, MAX_ORDER + 1):
        x = (pattern @ x > 0).astype(float)
        if x[f]:
            return n
    raise ValueError(f"state {f} unreachable from {i} within {MAX_ORDER} hops")


def resolvent_chain(sys_: System, i: int, f: int, order: int):
    """<f|V (R V)^(order-1)|i> with R = 1/(E_i - E_j), zero at i, at f and at
    energies within DEGENERACY_TOL of E_i.

    Returns (value, scale, paths): scale is the same chain on |V| and |R|,
    which is the sum of the path contributions' magnitudes; paths counts the
    contributing paths.
    """
    d = sys_.energies[i] - sys_.energies
    allowed = np.abs(d) >= DEGENERACY_TOL
    allowed[[i, f]] = False
    r = np.zeros(sys_.dim)
    r[allowed] = 1.0 / d[allowed]
    v = sys_.v
    av = abs(v)
    hop = (v != 0).astype(float).tocsr()
    x = v[:, [i]].toarray().ravel()
    xa = np.abs(x)
    xc = (x != 0).astype(float)
    for _ in range(order - 1):
        x = v @ (r * x)
        xa = av @ (np.abs(r) * xa)
        xc = hop @ (allowed * xc)
    return complex(x[f]), float(xa[f]), int(round(xc[f]))


def rs_shift4(sys_: System, i: int) -> float:
    """Fourth-order Rayleigh-Schroedinger correction of a bare level."""
    d = sys_.energies[i] - sys_.energies
    allowed = np.abs(d) >= DEGENERACY_TOL
    allowed[i] = False
    r = np.zeros(sys_.dim)
    r[allowed] = 1.0 / d[allowed]
    vi = sys_.v[:, [i]].toarray().ravel()
    e2 = np.vdot(vi, r * vi)
    x = vi
    for _ in range(3):
        x = sys_.v @ (r * x)
    e4 = x[i] - e2 * np.vdot(vi, r * r * vi)
    return float(np.real(e4))


def kerr_from_shifts(system: dict) -> float:
    sys_ = System(system)
    shifts = [rs_shift4(sys_, sys_.index(f"{n},g")) for n in range(4)]
    d1 = shifts[2] - 2 * shifts[1] + shifts[0]
    d2 = shifts[3] - 2 * shifts[2] + shifts[1]
    return 0.25 * (d1 + d2)


# --- closed forms (rewritten from the published formulas) -------------------

def closed_form(name: str, w: dict, g: float, theta: float) -> float:
    """Analytic g_eff of a registered process; ``w`` maps frequency symbols
    (a, b, q) to values, every coupling has strength g and angle theta."""
    s, c = math.sin(theta), math.cos(theta)
    a, q = w.get("a"), w.get("q")
    b = w.get("b")
    if name == "two_photon_qubit":
        return math.sqrt(2) * g * g * s * c * (1 / (a - q) - 1 / a)
    if name == "three_photon_qubit":
        return math.sqrt(6) * g**3 / (2 * a * (a - q))
    if name == "shg_two_mode":
        dba, dab, dbq, saq = b - a, a - b, b - q, a + q
        z = 1 / (a * dba) - 1 / (b * dba) - 1 / (2 * b * b)
        x = (1 / ((dab + q) * saq) - 1 / (a * (dab + q)) - 1 / ((dab + q) * dbq)
             + 1 / (b * (dab + q)) - 1 / (dab * saq) + 1 / (dab * dbq)
             + 1 / (dbq * (2 * b - q)) - 1 / (b * (2 * b - q)) - 1 / (2 * b * dbq))
        return math.sqrt(2) * g**3 * s * (s * s * z + c * c * x)
    if name == "thg_two_mode":
        dab, dbq, saq = a - b, b - q, a + q
        k = saq - 2 * b
        return math.sqrt(6) * g**4 * (-1 / (k * dab * saq) + 1 / (k * dab * dbq)
                                      - 1 / (2 * b * k * dbq)
                                      + 1 / (2 * b * (3 * b - q) * dbq))
    if name == "raman_stokes":
        return g * g * s * c * (-1 / a - 1 / (q - a) + 1 / b - 1 / (b + q))
    if name == "photon_two_qubits":
        return -(8 / 3) * s * c * c * g**3 / q**2
    if name == "three_qubit_thg":
        return -3 * g**3 * (a - 3 * q) / (q * (q - a) ** 2)
    if name == "hyper_raman_one_stokes":
        return math.sqrt(2) * g**3 * (-1 / (2 * b * (q - b)) + 1 / ((a - b) * (q - b))
                                      + 1 / ((a - b) * (a + q)))
    if name == "hyper_raman_one_anti_stokes":
        return math.sqrt(2) * g**3 * (1 / (2 * b * (q + b)) - 1 / ((a - b) * (q + b))
                                      + 1 / ((a - b) * (a - q)))
    if name == "hyper_raman_two":
        return 2 * g * g * (1 / (a - q) - 1 / (b + q))
    if name == "kerr_dispersive":
        return -(g**4) / (a - q) ** 3
    raise KeyError(name)


# --- per-op checks --------------------------------------------------------
#
# Each check returns a list of problems; an empty list means the op passed.

def geff_reference(system: dict, initial: str, final: str) -> dict:
    sys_ = System(system)
    i, f = sys_.index(initial), sys_.index(final)
    order = shortest_order(sys_, i, f)
    value, scale, paths = resolvent_chain(sys_, i, f, order)
    return {"order": order, "value": value, "scale": scale, "paths": paths}


def check_geff(ref: dict, reported: dict, closed: float | None) -> list:
    bad = []
    if reported["order"] != ref["order"]:
        bad.append(f"order {reported['order']} != {ref['order']}")
    if reported["paths"] != ref["paths"]:
        bad.append(f"paths {reported['paths']} != {ref['paths']}")
    err = abs(reported["value"] - ref["value"])
    if not err <= GEFF_TOL * ref["scale"]:
        bad.append(f"g_eff {reported['value']!r} vs chain {ref['value']!r} "
                   f"(|diff| {err:.3g} > 1e-10 * {ref['scale']:.3g})")
    if closed is not None:
        g = reported["value"].real
        scale = max(abs(closed), abs(g))
        if abs(g - closed) > GEFF_TOL * scale and abs(g - closed) > GEFF_TOL * ref["scale"]:
            bad.append(f"g_eff {g!r} vs closed form {closed!r}")
    return bad


def parity_model(system: dict, initial: str, final: str) -> str:
    def excitations(label):
        parts = label.split(",")
        return sum(int(p) for p in parts if p not in ("g", "e")) + parts.count("e")

    d = abs(excitations(final) - excitations(initial))
    return "generalized_rabi" if d % 2 else ("rabi" if d else "jc")


_WEAKER = {"jc": [], "rabi": ["jc"], "generalized_rabi": ["jc", "rabi"]}


def verify_reference(case: dict) -> list:
    """Problems the program's verify verdict should report for one entry
    (an empty list means it should print PASS)."""
    system, initial, final = case["system"], case["initial"], case["final"]
    bad = []
    if case["closed_form"] == "kerr_dispersive":
        num = kerr_from_shifts(case["kerr_system"])
        ana = closed_form("kerr_dispersive", case["frequencies"], case["kerr_g"], 0.0)
        if abs(num - ana) > GEFF_TOL * abs(ana):
            bad.append(f"kerr shift {num!r} vs closed form {ana!r}")
        return bad
    sys_ = System(system)
    i, f = sys_.index(initial), sys_.index(final)
    if abs(sys_.energies[i] - sys_.energies[f]) > 1e-9:
        bad.append("bare energies differ at the default frequencies")
    required = parity_model(system, initial, final)
    for model, want in [(required, True)] + [(m, False) for m in _WEAKER[required]]:
        s = System(dict(system, model=model))
        try:
            shortest_order(s, i, f)
            reachable = True
        except ValueError:
            reachable = False
        if reachable != want:
            bad.append(f"reachable under {model}: {reachable}")
    if case["closed_form"]:
        ref = geff_reference(system, initial, final)
        ana = closed_form(case["closed_form"], case["frequencies"], case["g"], case["theta"])
        g = ref["value"].real
        scale = max(abs(ana), abs(g))
        if scale >= 1e-14 and abs(g - ana) >= GEFF_TOL * scale:
            bad.append(f"chain {g!r} vs closed form {ana!r}")
    return bad


def eigh(system: dict):
    sys_ = System(system)
    vals, vecs = np.linalg.eigh(sys_.dense_h())
    return sys_, vals, vecs


def check_level(vals, vecs, bare_index: int, level: float, overlap: float) -> list:
    """A (level, overlap) pair must be an eigenvalue with the eigenvector's
    weight on the bare state; inside a degenerate cluster only the cluster's
    total weight bounds the overlap."""
    near = np.abs(vals - level)
    k = int(np.argmin(near))
    if near[k] > SPECTRAL_TOL:
        return [f"level {level!r} is {near[k]:.3g} from the nearest eigenvalue"]
    cluster = np.abs(vals - vals[k]) <= CLUSTER_TOL
    weights = np.abs(vecs[bare_index, cluster]) ** 2
    if cluster.sum() == 1:
        if abs(weights[0] - overlap) > SPECTRAL_TOL:
            return [f"overlap {overlap!r} vs {weights[0]!r}"]
    elif overlap > weights.sum() + SPECTRAL_TOL:
        return [f"overlap {overlap!r} exceeds cluster weight {weights.sum()!r}"]
    return []


def subspace_gap(system: dict, a: str, b: str) -> float:
    sys_, vals, vecs = eigh(system)
    rows = [sys_.index(a), sys_.index(b)]
    weight = (np.abs(vecs[rows, :]) ** 2).sum(axis=0)
    top = np.argsort(weight)[::-1][:2]
    return float(abs(vals[top[0]] - vals[top[1]]))


def bare_resonance(system: dict, label: str, a: str, b: str) -> float:
    """Mode frequency at which the bare energies of a and b coincide (they
    are linear in it)."""
    def de(x):
        sys_ = System(with_mode_frequency(system, label, x))
        return sys_.energies[sys_.index(a)] - sys_.energies[sys_.index(b)]

    d0, d1 = de(0.0), de(1.0)
    return -d0 / (d1 - d0)


def check_crossing(system: dict, label: str, a: str, b: str, report) -> list:
    bad = []
    gap = subspace_gap(with_mode_frequency(system, label, report.parameter), a, b)
    if abs(gap - report.gap) > SPECTRAL_TOL:
        bad.append(f"gap {report.gap!r} vs oracle {gap!r} at {report.parameter!r}")
    res = with_mode_frequency(system, label, bare_resonance(system, label, a, b))
    ref = geff_reference(res, a, b)
    predicted = 2 * abs(ref["value"])
    if abs(report.predicted - predicted) > GEFF_TOL * predicted:
        bad.append(f"predicted {report.predicted!r} vs 2|chain g| {predicted!r}")
    return bad


def populations(system: dict, initial: str, target: str, times) -> np.ndarray:
    sys_, vals, vecs = eigh(system)
    psi0 = vecs.conj().T[:, sys_.index(initial)]
    row = vecs[sys_.index(target), :]
    amp = (np.exp(-1j * np.outer(times, vals)) * psi0) @ row
    return np.abs(amp) ** 2

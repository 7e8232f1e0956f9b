"""Registry of wave-mixing processes realizable with qubit-resonator setups.

Each entry records a frequency-mixing process: the setup (how many modes and
qubits), the resonance condition as an exact integer-coefficient relation
over frequency symbols, the initial and final bare-state templates, and the
weakest interaction model able to mediate the transition. Where an analytic
effective-coupling formula exists it is referenced by id into
:mod:`rabimix.closed_forms`.

Model requirements follow from excitation-change parity: a transition that
changes the total excitation number by an odd amount needs the longitudinal
(sigma_z) coupling of the generalized Rabi model; an even nonzero change
needs the counter-rotating terms of the Rabi model; a conserving transition
is mediated by the Jaynes-Cummings terms alone.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError, DomainError, UnreachableError
from .hilbert import BasisState
from .perturbation import effective_coupling, interaction_for, shortest_order
from .system import (
    CouplingSpec,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SystemSpec,
    default_n_max,
    weaker_models,
)
from . import closed_forms

#: Largest m of the generic higher-harmonic templates in the catalog (m-wave
#: mixing with m - 1 degenerate signals, for m = 5 up to this value).
DEFAULT_MAX_HARMONIC_ORDER = 6


@dataclass(frozen=True)
class StateTemplate:
    """Bare-state template. Each mode occupation is a (constant,
    n-coefficient) pair: "n" is (0, 1), "n+1" is (1, 1) and "2" is (2, 0)."""

    occupations: tuple
    qubit_states: tuple

    def instantiate(self, n: int = 0) -> BasisState:
        return BasisState(tuple(c + d * n for c, d in self.occupations), self.qubit_states)

    def excitation_form(self):
        const = sum(c for c, _ in self.occupations) + self.qubit_states.count("e")
        ncoeff = sum(d for _, d in self.occupations)
        return const, ncoeff

    def label(self) -> str:
        occ = []
        for c, d in self.occupations:
            if d == 0:
                occ.append(str(c))
            else:
                occ.append("n" if c == 0 else f"n+{c}")
        return ",".join(occ + list(self.qubit_states))


def _t(text: str) -> StateTemplate:
    occ, qs = [], []
    for p in text.split(","):
        p = p.strip()
        if p in ("g", "e"):
            qs.append(p)
        elif p == "n":
            occ.append((0, 1))
        elif p == "n+1":
            occ.append((1, 1))
        else:
            occ.append((int(p), 0))
    return StateTemplate(tuple(occ), tuple(qs))


@dataclass(frozen=True)
class ProcessEntry:
    """One cataloged mixing process. Rows give the templates as text ("2,g")
    and the models by name; ``eval_model`` defaults to ``required_model``."""

    id: str
    category: str  # three-wave | four-wave | higher | other
    name: str
    table: int | None  # summary-table number, if tabulated
    degenerate: bool  # degenerate-signal block of its table
    mode_symbols: tuple  # frequency symbol per mode, in state order
    qubit_symbols: tuple  # frequency symbol per qubit; repeats mean identical qubits
    resonance: dict  # symbol -> int coefficient; sum coeff * omega = 0
    initial: StateTemplate
    final: StateTemplate
    required_model: InteractionModel
    eval_model: InteractionModel | None = None  # model used for numerical evaluation
    closed_form: str | None = None
    closed_form_only: bool = False
    duplicate_of: str | None = None  # same physical transition as another row
    notes: str = ""

    def __post_init__(self):
        if isinstance(self.initial, str):
            object.__setattr__(self, "initial", _t(self.initial))
        if isinstance(self.final, str):
            object.__setattr__(self, "final", _t(self.final))
        model = InteractionModel.parse(self.required_model)
        object.__setattr__(self, "required_model", model)
        object.__setattr__(self, "eval_model", InteractionModel.parse(self.eval_model or model))

    @property
    def excitation_change(self):
        ci, ni = self.initial.excitation_form()
        cf, nf = self.final.excitation_form()
        if ni != nf:
            raise DomainError(f"entry {self.id}: excitation change depends on n")
        return cf - ci

    def parity_model(self) -> InteractionModel:
        """Weakest model able to mediate the transition, from parity."""
        d = abs(self.excitation_change)
        if d % 2 == 1:
            return InteractionModel.GENERALIZED_RABI
        if d != 0:
            return InteractionModel.RABI
        return InteractionModel.JC

    def symbols(self) -> tuple:
        seen = []
        for s in self.mode_symbols + self.qubit_symbols:
            if s not in seen:
                seen.append(s)
        return tuple(seen)

    def energy_difference_form(self):
        """E_initial - E_final as {symbol: (const, n-coefficient)} Fractions."""
        diff = {}

        def add(sym, const, ncoeff):
            c0, n0 = diff.get(sym, (Fraction(0), Fraction(0)))
            diff[sym] = (c0 + const, n0 + ncoeff)

        for tpl, sign in ((self.initial, 1), (self.final, -1)):
            for (c, d), sym in zip(tpl.occupations, self.mode_symbols):
                add(sym, sign * Fraction(c), sign * Fraction(d))
            for s, sym in zip(tpl.qubit_states, self.qubit_symbols):
                half = Fraction(1, 2) if s == "e" else Fraction(-1, 2)
                add(sym, sign * half, Fraction(0))
        return diff

    def energy_balance_ok(self) -> bool:
        """True when E_i - E_f vanishes exactly under the resonance relation."""
        diff = self.energy_difference_form()
        if any(n != 0 for _, n in diff.values()):
            return False
        consts = {s: c for s, (c, _) in diff.items() if c != 0}
        relation = {s: Fraction(c) for s, c in self.resonance.items() if c != 0}
        if not consts:
            # initial and final energies agree identically (diagonal effects)
            return True
        if not relation:
            return False
        ratio = None
        for s in set(consts) | set(relation):
            c = consts.get(s, Fraction(0))
            r = relation.get(s, Fraction(0))
            if r == 0:
                if c != 0:
                    return False
                continue
            q = c / r
            if ratio is None:
                ratio = q
            elif q != ratio:
                return False
        return ratio is not None and ratio != 0


def _three_wave_entries():
    G = "generalized_rabi"
    e = []
    # degenerate block: second-harmonic / second-subharmonic generation
    e.append(ProcessEntry(
        "shg_1r1q", "three-wave", "second-harmonic generation (1 resonator, 1 qubit)",
        1, True, ("a",), ("q",), {"q": 1, "a": -2}, "2,g", "0,e", G,
        closed_form="two_photon_qubit",
    ))
    e.append(ProcessEntry(
        "shg_2r1q", "three-wave", "second-harmonic generation (2 resonators, 1 qubit)",
        1, True, ("a", "b"), ("q",), {"a": 1, "b": -2}, "0,2,g", "1,0,g", G,
        closed_form="shg_two_mode",
    ))
    e.append(ProcessEntry(
        "shg_1r2q", "three-wave", "second-harmonic generation (1 resonator, 2 qubits)",
        1, True, ("a",), ("q", "q"), {"a": 1, "q": -2}, "0,e,e", "1,g,g", G,
        closed_form="photon_two_qubits",
        notes="closed form valid on resonance only",
    ))
    e.append(ProcessEntry(
        "sshg_1r1q", "three-wave", "second-subharmonic generation (1 resonator, 1 qubit)",
        1, True, ("a",), ("q",), {"q": 1, "a": -2}, "0,e", "2,g", G,
        closed_form="two_photon_qubit",
    ))
    e.append(ProcessEntry(
        "sshg_2r1q", "three-wave", "second-subharmonic generation (2 resonators, 1 qubit)",
        1, True, ("a", "b"), ("q",), {"a": 1, "b": -2}, "1,0,g", "0,2,g", G,
        closed_form="shg_two_mode",
    ))
    e.append(ProcessEntry(
        "sshg_1r2q", "three-wave", "second-subharmonic generation (1 resonator, 2 qubits)",
        1, True, ("a",), ("q", "q"), {"a": 1, "q": -2}, "1,g,g", "0,e,e", G,
        closed_form="photon_two_qubits",
        notes="closed form valid on resonance only",
    ))
    # nondegenerate block: Raman scattering
    raman = dict(modes=("a", "b"), qubits=("q",), resonance={"a": 1, "b": -1, "q": -1})
    e.append(ProcessEntry(
        "raman_spont_stokes", "three-wave", "spontaneous Raman scattering, Stokes",
        1, False, raman["modes"], raman["qubits"], raman["resonance"],
        "1,0,g", "0,1,e", G, closed_form="raman_stokes",
    ))
    e.append(ProcessEntry(
        "raman_spont_anti_stokes", "three-wave", "spontaneous Raman scattering, anti-Stokes",
        1, False, raman["modes"], raman["qubits"], raman["resonance"],
        "0,1,e", "1,0,g", G, closed_form="raman_stokes",
    ))
    e.append(ProcessEntry(
        "raman_stim_stokes", "three-wave", "stimulated Raman scattering, Stokes",
        1, False, raman["modes"], raman["qubits"], raman["resonance"],
        "1,n,g", "0,n+1,e", G, duplicate_of="raman_spont_stokes",
        notes="n = 0 reduces to the spontaneous process; rate scales as sqrt(n+1)",
    ))
    e.append(ProcessEntry(
        "raman_stim_anti_stokes", "three-wave", "stimulated Raman scattering, anti-Stokes",
        1, False, raman["modes"], raman["qubits"], raman["resonance"],
        "n,1,e", "n+1,0,g", G, duplicate_of="raman_spont_anti_stokes",
        notes="n = 0 reduces to the spontaneous process; rate scales as sqrt(n+1)",
    ))
    # nondegenerate block: sum- and difference-frequency generation
    e.append(ProcessEntry(
        "sfg_1r2q", "three-wave", "sum-frequency generation (1 resonator, 2 qubits)",
        1, False, ("a",), ("q1", "q2"), {"a": 1, "q1": -1, "q2": -1},
        "0,e,e", "1,g,g", G, duplicate_of="shg_1r2q",
        notes="identical-qubit limit coincides with second-harmonic generation",
    ))
    e.append(ProcessEntry(
        "sfg_2r1q", "three-wave", "sum-frequency generation (2 resonators, 1 qubit)",
        1, False, ("a", "b"), ("q",), {"a": 1, "b": 1, "q": -1},
        "1,1,g", "0,0,e", G,
    ))
    e.append(ProcessEntry(
        "sfg_3r1q", "three-wave", "sum-frequency generation (3 resonators, 1 qubit)",
        1, False, ("a", "b", "c"), ("q",), {"a": 1, "b": 1, "c": -1},
        "1,1,0,g", "0,0,1,g", G,
    ))
    e.append(ProcessEntry(
        "dfg_1r2q", "three-wave", "difference-frequency generation (1 resonator, 2 qubits)",
        1, False, ("a",), ("q1", "q2"), {"a": 1, "q1": -1, "q2": -1},
        "1,g,g", "0,e,e", G, duplicate_of="sshg_1r2q",
        notes="identical-qubit limit coincides with second-subharmonic generation",
    ))
    e.append(ProcessEntry(
        "dfg_2r1q", "three-wave", "difference-frequency generation (2 resonators, 1 qubit)",
        1, False, ("a", "b"), ("q",), {"a": 1, "b": 1, "q": -1},
        "0,0,e", "1,1,g", G,
    ))
    e.append(ProcessEntry(
        "dfg_3r1q", "three-wave", "difference-frequency generation (3 resonators, 1 qubit)",
        1, False, ("a", "b", "c"), ("q",), {"a": 1, "b": 1, "c": -1},
        "0,0,1,g", "1,1,0,g", G,
    ))
    return e


def _four_wave_entries():
    R = "rabi"
    J = "jc"
    e = []
    # degenerate block: third-harmonic / third-subharmonic generation
    e.append(ProcessEntry(
        "thg_1r1q", "four-wave", "third-harmonic generation (1 resonator, 1 qubit)",
        2, True, ("a",), ("q",), {"q": 1, "a": -3}, "3,g", "0,e", R,
        closed_form="three_photon_qubit",
    ))
    e.append(ProcessEntry(
        "thg_2r1q", "four-wave", "third-harmonic generation (2 resonators, 1 qubit)",
        2, True, ("a", "b"), ("q",), {"a": 1, "b": -3}, "0,3,g", "1,0,g", R,
        closed_form="thg_two_mode",
    ))
    e.append(ProcessEntry(
        "thg_1r3q", "four-wave", "third-harmonic generation (1 resonator, 3 qubits)",
        2, True, ("a",), ("q", "q", "q"), {"a": 1, "q": -3}, "0,e,e,e", "1,g,g,g", R,
        closed_form="three_qubit_thg",
        notes="destructive interference: coupling vanishes exactly on resonance",
    ))
    e.append(ProcessEntry(
        "tshg_1r1q", "four-wave", "third-subharmonic generation (1 resonator, 1 qubit)",
        2, True, ("a",), ("q",), {"q": 1, "a": -3}, "0,e", "3,g", R,
        closed_form="three_photon_qubit",
    ))
    e.append(ProcessEntry(
        "tshg_2r1q", "four-wave", "third-subharmonic generation (2 resonators, 1 qubit)",
        2, True, ("a", "b"), ("q",), {"a": 1, "b": -3}, "1,0,g", "0,3,g", R,
        closed_form="thg_two_mode",
    ))
    e.append(ProcessEntry(
        "tshg_1r3q", "four-wave", "third-subharmonic generation (1 resonator, 3 qubits)",
        2, True, ("a",), ("q", "q", "q"), {"a": 1, "q": -3}, "1,g,g,g", "0,e,e,e", R,
        closed_form="three_qubit_thg",
        notes="destructive interference: coupling vanishes exactly on resonance",
    ))
    # degenerate block: hyper-Raman scattering
    e.append(ProcessEntry(
        "hyper_raman_1_stokes", "four-wave", "hyper-Raman scattering type I, Stokes",
        2, True, ("a", "b"), ("q",), {"a": 1, "q": 1, "b": -2},
        "0,2,g", "1,0,e", J, eval_model=R, closed_form="hyper_raman_one_stokes",
        notes="excitation conserving, so JC terms suffice; the full formula "
              "includes counter-rotating contributions",
    ))
    e.append(ProcessEntry(
        "hyper_raman_1_anti_stokes", "four-wave", "hyper-Raman scattering type I, anti-Stokes",
        2, True, ("a", "b"), ("q",), {"a": 1, "b": -2, "q": -1},
        "0,2,e", "1,0,g", R, closed_form="hyper_raman_one_anti_stokes",
    ))
    e.append(ProcessEntry(
        "hyper_raman_2_stokes", "four-wave", "hyper-Raman scattering type II, Stokes",
        2, True, ("a", "b"), ("q", "q"), {"a": 1, "b": -1, "q": -2},
        "1,0,g,g", "0,1,e,e", R, closed_form="hyper_raman_two",
        duplicate_of="fw3_2r2q",
        notes="identical-qubit limit of type-III four-wave mixing with two "
              "resonators and two qubits; coupling vanishes exactly on resonance",
    ))
    e.append(ProcessEntry(
        "hyper_raman_2_anti_stokes", "four-wave", "hyper-Raman scattering type II, anti-Stokes",
        2, True, ("a", "b"), ("q", "q"), {"a": 1, "b": -1, "q": -2},
        "0,1,e,e", "1,0,g,g", R, closed_form="hyper_raman_two",
        duplicate_of="fw2_2r2q",
        notes="identical-qubit limit of type-II four-wave mixing with two "
              "resonators and two qubits; coupling vanishes exactly on resonance",
    ))
    # nondegenerate block: type I (2 in, 2 out)
    e.append(ProcessEntry(
        "fw1_3r1q", "four-wave", "type-I four-wave mixing (3 resonators, 1 qubit)",
        2, False, ("a", "b", "c"), ("q",), {"a": 1, "b": 1, "c": -1, "q": -1},
        "1,1,0,g", "0,0,1,e", J,
    ))
    e.append(ProcessEntry(
        "fw1_4r1q", "four-wave", "type-I four-wave mixing (4 resonators, 1 qubit)",
        2, False, ("a", "b", "c", "d"), ("q",), {"a": 1, "b": 1, "c": -1, "d": -1},
        "1,1,0,0,g", "0,0,1,1,g", J,
    ))
    e.append(ProcessEntry(
        "fw1_2r2q", "four-wave", "type-I four-wave mixing (2 resonators, 2 qubits)",
        2, False, ("a", "b"), ("q1", "q2"), {"a": 1, "b": 1, "q1": -1, "q2": -1},
        "1,1,g,g", "0,0,e,e", J,
    ))
    e.append(ProcessEntry(
        "fw1_1r3q", "four-wave", "type-I four-wave mixing (1 resonator, 3 qubits)",
        2, False, ("a",), ("q1", "q2", "q3"), {"a": 1, "q1": 1, "q2": -1, "q3": -1},
        "1,e,g,g", "0,g,e,e", J,
    ))
    # nondegenerate block: type II (3 in, 1 out)
    e.append(ProcessEntry(
        "fw2_3r1q", "four-wave", "type-II four-wave mixing (3 resonators, 1 qubit)",
        2, False, ("a", "b", "c"), ("q",), {"a": 1, "b": 1, "c": 1, "q": -1},
        "1,1,1,g", "0,0,0,e", R,
    ))
    e.append(ProcessEntry(
        "fw2_4r1q", "four-wave", "type-II four-wave mixing (4 resonators, 1 qubit)",
        2, False, ("a", "b", "c", "d"), ("q",), {"a": 1, "b": 1, "c": 1, "d": -1},
        "1,1,1,0,g", "0,0,0,1,g", R,
    ))
    e.append(ProcessEntry(
        "fw2_2r2q", "four-wave", "type-II four-wave mixing (2 resonators, 2 qubits)",
        2, False, ("a", "b"), ("q1", "q2"), {"a": 1, "b": -1, "q1": -1, "q2": -1},
        "0,1,e,e", "1,0,g,g", R,
    ))
    e.append(ProcessEntry(
        "fw2_1r3q", "four-wave", "type-II four-wave mixing (1 resonator, 3 qubits)",
        2, False, ("a",), ("q1", "q2", "q3"), {"a": 1, "q1": -1, "q2": -1, "q3": -1},
        "0,e,e,e", "1,g,g,g", R,
    ))
    # nondegenerate block: type III (1 in, 3 out)
    e.append(ProcessEntry(
        "fw3_3r1q", "four-wave", "type-III four-wave mixing (3 resonators, 1 qubit)",
        2, False, ("a", "b", "c"), ("q",), {"a": 1, "b": 1, "c": 1, "q": -1},
        "0,0,0,e", "1,1,1,g", R,
    ))
    e.append(ProcessEntry(
        "fw3_4r1q", "four-wave", "type-III four-wave mixing (4 resonators, 1 qubit)",
        2, False, ("a", "b", "c", "d"), ("q",), {"a": 1, "b": -1, "c": -1, "d": -1},
        "1,0,0,0,g", "0,1,1,1,g", R,
    ))
    e.append(ProcessEntry(
        "fw3_2r2q", "four-wave", "type-III four-wave mixing (2 resonators, 2 qubits)",
        2, False, ("a", "b"), ("q1", "q2"), {"a": 1, "b": -1, "q1": -1, "q2": -1},
        "1,0,g,g", "0,1,e,e", R,
    ))
    e.append(ProcessEntry(
        "fw3_1r3q", "four-wave", "type-III four-wave mixing (1 resonator, 3 qubits)",
        2, False, ("a",), ("q1", "q2", "q3"), {"a": 1, "q1": -1, "q2": -1, "q3": -1},
        "1,g,g,g", "0,e,e,e", R,
    ))
    # degenerate four-wave mixing with only two degenerate signals
    e.append(ProcessEntry(
        "fw1_deg2_3r1q", "four-wave", "type-I mixing, two degenerate inputs (3 resonators, 1 qubit)",
        None, True, ("a", "b", "c"), ("q",), {"a": 2, "b": -1, "c": -1},
        "2,0,0,g", "0,1,1,g", J,
    ))
    e.append(ProcessEntry(
        "fw23_deg2_3r1q", "four-wave", "type-II/III mixing, two degenerate signals (3 resonators, 1 qubit)",
        None, True, ("a", "b", "c"), ("q",), {"a": 2, "b": 1, "c": -1},
        "2,1,0,g", "0,0,1,g", R,
    ))
    e.append(ProcessEntry(
        "fw1_deg2_2r1q", "four-wave", "type-I mixing, two degenerate inputs (2 resonators, 1 qubit)",
        None, True, ("a", "b"), ("q",), {"a": 2, "b": -1, "q": -1},
        "2,0,g", "0,1,e", J,
    ))
    e.append(ProcessEntry(
        "fw23_deg2_2r1q", "four-wave", "type-II/III mixing, two degenerate signals (2 resonators, 1 qubit)",
        None, True, ("a", "b"), ("q",), {"a": 2, "b": 1, "q": -1},
        "2,1,g", "0,0,e", R,
        notes="final state carries the qubit excitation so that the bare "
              "energies balance",
    ))
    e.append(ProcessEntry(
        "fw1_deg2_1r2q", "four-wave", "type-I mixing, two degenerate inputs (1 resonator, 2 qubits)",
        None, True, ("a",), ("q1", "q2"), {"a": 2, "q1": -1, "q2": -1},
        "2,g,g", "0,e,e", J,
    ))
    e.append(ProcessEntry(
        "fw23_deg2_1r2q", "four-wave", "type-II/III mixing, two degenerate signals (1 resonator, 2 qubits)",
        None, True, ("a",), ("q1", "q2"), {"a": 2, "q1": 1, "q2": -1},
        "2,e,g", "0,g,e", R,
    ))
    return e


def higher_harmonic_entries(m: int):
    """The three (m-1)th-harmonic-generation setups for m-wave mixing.

    Odd m needs the longitudinal coupling (odd excitation change), even m is
    mediated by the counter-rotating Rabi terms.
    """
    if m < 3:
        raise DomainError(f"m-wave mixing needs m >= 3, got {m}")
    model = "rabi" if m % 2 == 0 else "generalized_rabi"
    k = m - 1
    e = []
    e.append(ProcessEntry(
        f"harmonic{k}_2r1q", "higher", f"{k}th-harmonic generation (2 resonators, 1 qubit)",
        None, True, ("a", "b"), ("q",), {"a": 1, "b": -k},
        "0," + str(k) + ",g", "1,0,g", model,
    ))
    e.append(ProcessEntry(
        f"harmonic{k}_1r1q", "higher", f"{k}-photon Rabi oscillation (1 resonator, 1 qubit)",
        None, True, ("a",), ("q",), {"q": 1, "a": -k},
        str(k) + ",g", "0,e", model,
        notes="also the analogue of multiphoton absorption",
    ))
    e.append(ProcessEntry(
        f"harmonic{k}_1r{k}q", "higher", f"{k}th-harmonic generation (1 resonator, {k} qubits)",
        None, True, ("a",), ("q",) * k, {"a": 1, "q": -k},
        "0," + ",".join(["e"] * k), "1," + ",".join(["g"] * k), model,
    ))
    return e


def _other_entries():
    e = []
    e.append(ProcessEntry(
        "kerr_dispersive", "other", "photon-photon Kerr interaction (dispersive JC)",
        None, False, ("a",), ("q",), {}, "1,g", "1,g", "jc",
        closed_form="kerr_dispersive",
        notes="diagonal fourth-order effect: photon-number-dependent frequency "
              "shift of the qubit-ground branch",
    ))
    e.append(ProcessEntry(
        "parametric_downconversion", "other", "degenerate parametric downconversion (2 resonators, 1 qubit)",
        None, True, ("a", "b"), ("q",), {"a": 1, "b": -2}, "1,0,g", "0,2,g",
        "generalized_rabi", closed_form="parametric_coupling", closed_form_only=True,
        notes="effective photon-pair interaction conditioned on the qubit state; "
              "a diagonal fourth-order effect with no two-state path sum",
    ))
    return e


def build_catalog():
    entries = _three_wave_entries() + _four_wave_entries()
    for m in range(5, DEFAULT_MAX_HARMONIC_ORDER + 1):
        entries.extend(higher_harmonic_entries(m))
    entries.extend(_other_entries())
    ids = [x.id for x in entries]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate process ids in catalog")
    return tuple(entries)


CATALOG = build_catalog()
_BY_ID = {x.id: x for x in CATALOG}


def get_process(process_id: str) -> ProcessEntry:
    try:
        return _BY_ID[process_id]
    except KeyError:
        raise DomainError(
            f"unknown process id {process_id!r}; see list_processes()"
        ) from None


def list_processes(
    category: str | None = None,
    table: int | None = None,
    degenerate: bool | None = None,
    model: InteractionModel | str | None = None,
    distinct_only: bool = False,
):
    """Filtered view of the catalog.

    ``distinct_only`` drops rows marked as the same physical transition as
    another row (stimulated families at n = 0 and identical-qubit limits).
    """
    out = []
    model = InteractionModel.parse(model) if model is not None else None
    for x in CATALOG:
        if category is not None and x.category != category:
            continue
        if table is not None and x.table != table:
            continue
        if degenerate is not None and x.degenerate != degenerate:
            continue
        if model is not None and x.required_model is not model:
            continue
        if distinct_only and x.duplicate_of is not None:
            continue
        out.append(x)
    return out


def distinct_transition_count(table: int) -> int:
    return len(list_processes(table=table, distinct_only=True))


def resolve_resonance(entry: ProcessEntry, fixed: dict) -> dict:
    """Solve the resonance relation for the single unspecified frequency."""
    symbols = entry.symbols()
    unknown = [s for s in symbols if s not in fixed]
    if not entry.resonance:
        if unknown:
            raise ConfigError(f"entry {entry.id} has no resonance relation to solve "
                              f"for {unknown}")
        return dict(fixed)
    if len(unknown) == 0:
        raise ConfigError(
            f"all frequencies of {entry.id} are fixed; nothing to solve for"
        )
    if len(unknown) > 1:
        raise ConfigError(
            f"entry {entry.id} needs all but one frequency fixed; missing {unknown}"
        )
    s = unknown[0]
    coeff = entry.resonance.get(s, 0)
    if coeff == 0:
        raise ConfigError(
            f"frequency {s!r} does not appear in the resonance relation of {entry.id}"
        )
    rest = sum(c * fixed[sym] for sym, c in entry.resonance.items() if sym != s)
    value = -rest / coeff
    if value <= 0:
        raise DomainError(
            f"resonance of {entry.id} gives nonpositive frequency {s} = {value}"
        )
    out = dict(fixed)
    out[s] = value
    return out


#: Generic off-resonance frequency assignments used when a caller does not
#: pin frequencies; chosen incommensurate to avoid accidental degeneracies.
_DEFAULT_FREQS = {"b": 1.0, "c": 1.31, "d": 1.77, "q": 0.83,
                  "q1": 0.79, "q2": 1.13, "q3": 1.41, "a": 1.618}


def default_frequencies(entry: ProcessEntry) -> dict:
    symbols = entry.symbols()
    if not entry.resonance:
        return {s: _DEFAULT_FREQS[s] for s in symbols}
    for free in symbols:
        if entry.resonance.get(free, 0) == 0:
            continue
        fixed = {s: _DEFAULT_FREQS[s] for s in symbols if s != free}
        try:
            return resolve_resonance(entry, fixed)
        except DomainError:
            continue
    raise DomainError(f"no feasible default frequencies for {entry.id}")


def build_system(
    entry: ProcessEntry,
    frequencies: dict,
    coupling: float = 0.05,
    mixing_angle: float = math.pi / 6,
    n_max: int | None = None,
) -> SystemSpec:
    """Instantiate a SystemSpec for an entry under its ``eval_model``: every
    mode coupled to every qubit with the same strength (and mixing angle,
    where relevant)."""
    missing = [s for s in entry.symbols() if s not in frequencies]
    if missing:
        raise ConfigError(f"missing frequencies for {entry.id}: {missing}")
    occ_max = 0
    for tpl in (entry.initial, entry.final):
        for c, d in tpl.occupations:
            occ_max = max(occ_max, c + d)  # n instantiated at 0 or 1 stays small
    nm = n_max if n_max is not None else default_n_max(occ_max)
    modes = tuple(
        ModeSpec(sym, frequencies[sym], nm) for sym in entry.mode_symbols
    )
    qubit_labels = _qubit_labels(entry)
    qubits = tuple(
        QubitSpec(lab, frequencies[sym])
        for lab, sym in zip(qubit_labels, entry.qubit_symbols)
    )
    couplings = tuple(
        CouplingSpec(m.label, q.label, coupling, mixing_angle)
        for m in modes for q in qubits
    )
    return SystemSpec(
        modes=modes,
        qubits=qubits,
        couplings=couplings,
        model=entry.eval_model,
    )


def _qubit_labels(entry: ProcessEntry):
    syms = entry.qubit_symbols
    if len(set(syms)) == len(syms):
        return list(syms)
    return [f"{s}{i + 1}" for i, s in enumerate(syms)]


#: Relative error of the path sum at which a closed form fails ``verify``.
VERIFY_TOL = 1e-10


@dataclass
class VerifyReport:
    """Outcome of checking one catalog entry against the numerics: one
    message per failed check, so the entry passes when there are none."""

    entry_id: str
    reachable: bool | None = None
    g_eff: float | None = None
    closed_form_value: float | None = None
    relative_error: float | None = None
    messages: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.messages


def _closed_form_params(entry: ProcessEntry, freqs: dict, g: float, theta: float):
    """Keyword arguments for the entry's closed form, bound by parameter name:
    ``omega_<symbol>`` from the frequencies, ``g``/``g_a``/``g_b`` from the
    strength and ``theta`` from the mixing angle."""
    values = {"g": g, "g_a": g, "g_b": g, "theta": theta}
    values.update((f"omega_{s}", w) for s, w in freqs.items())
    params = inspect.signature(closed_forms.REGISTRY[entry.closed_form]).parameters
    return {name: values[name] for name in params}


def _reachable(hint, i: BasisState, f: BasisState) -> bool:
    try:
        shortest_order(hint, i, f)
    except UnreachableError:
        return False
    return True


def verify_entry(entry: ProcessEntry, n: int = 0) -> VerifyReport:
    """Check one entry: symbolic energy balance, parity/model consistency,
    reachability under the required model, unreachability under every weaker
    model, and path-sum vs closed form where a formula is registered, all at
    :func:`default_frequencies` and :func:`build_system`'s default g and angle
    (the Kerr entry at g = 0.02, angle 0, n_max 8). Every closed form is
    compared by one rule: |num - ana| / max(|num|, |ana|), and 0 when both
    are below 1e-14; it fails at :data:`VERIFY_TOL` or above.
    """
    report = VerifyReport(entry.id)
    if not entry.energy_balance_ok():
        report.messages.append("resonance relation does not balance bare energies")
    if entry.parity_model() is not entry.required_model:
        report.messages.append(
            f"required model {entry.required_model.value} does not match "
            f"parity rule {entry.parity_model().value}"
        )
    freqs = default_frequencies(entry)

    if entry.id == "kerr_dispersive":
        from .perturbation import dispersive_kerr_pathsum

        spec = build_system(entry, freqs, coupling=0.02, mixing_angle=0.0, n_max=8)
        num = dispersive_kerr_pathsum(interaction_for(spec))
        report.reachable = True
    else:
        i = entry.initial.instantiate(n)
        f = entry.final.instantiate(n)
        spec = build_system(entry, freqs)
        hint = interaction_for(spec)
        rhint = (hint if spec.model is entry.required_model
                 else interaction_for(spec.with_model(entry.required_model)))
        report.reachable = _reachable(rhint, i, f)
        if not report.reachable:
            report.messages.append("transition unreachable under the required model")
        report.messages += [
            f"transition reachable under weaker model {wm.value}"
            for wm in weaker_models(entry.required_model)
            if _reachable(interaction_for(spec.with_model(wm)), i, f)
        ]

        if not (entry.closed_form and not entry.closed_form_only and report.reachable):
            return report
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            num = effective_coupling(hint, i, f).value
    c = spec.couplings[0]
    ana = closed_forms.closed_form_geff(
        entry.closed_form, **_closed_form_params(entry, freqs, c.strength, c.mixing_angle)
    )
    report.g_eff = num
    report.closed_form_value = ana
    scale = max(abs(ana), abs(num))
    if scale < 1e-14:
        report.relative_error = 0.0
    else:
        report.relative_error = abs(num - ana) / scale
    if not report.relative_error < VERIFY_TOL:
        report.messages.append(
            f"path sum {num:.10g} differs from closed form {ana:.10g} "
            f"(relative error {report.relative_error:.3g} >= {VERIFY_TOL:g})"
        )
    return report


def format_entry(entry: ProcessEntry) -> str:
    """Stable-order structured-text record for the catalog CLI output."""
    relation = " ".join(
        f"{'+' if c > 0 else '-'}{abs(c)}*w_{s}" for s, c in sorted(entry.resonance.items())
    ) + " = 0" if entry.resonance else "none"
    lines = [
        f"id: {entry.id}",
        f"name: {entry.name}",
        f"category: {entry.category}",
        f"table: {entry.table if entry.table is not None else 'none'}",
        f"degenerate: {'yes' if entry.degenerate else 'no'}",
        f"modes: {' '.join(entry.mode_symbols)}",
        f"qubits: {' '.join(entry.qubit_symbols) if entry.qubit_symbols else 'none'}",
        f"resonance: {relation}",
        f"transition: |{entry.initial.label()}> -> |{entry.final.label()}>",
        f"required_model: {entry.required_model.value}",
        f"closed_form: {entry.closed_form or 'none'}",
        f"duplicate_of: {entry.duplicate_of or 'none'}",
    ]
    if entry.notes:
        lines.append(f"notes: {entry.notes}")
    return "\n".join(lines)

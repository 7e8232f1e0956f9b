"""Seeded op lists for the three workloads, and the checks of their outputs.

An op is one CLI command (``geff``, ``verify``, ``spectrum``, ``evolve``)
run in-process through ``rabimix.cli.main``, or one library call
(``find_avoided_crossing``, which the CLI does not expose). Each call of a
generator draws one *pass*: the mix of op kinds and system sizes is fixed,
and the seeded generator draws fresh parameters for every pass, so a run
averages over many systems and run-to-run differences come from the
machine rather than from the inputs. Every pass has the same op *slots*
(an op's place in the generator's list before the shuffle), so the runner
can compare one slot's latency across passes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

import oracle


class Entry(NamedTuple):
    """A catalog process as the benchmark uses it. ``fixed`` holds the
    catalog's default frequencies; ``free`` is the symbol solved from the
    resonance ``relation`` (sum of coefficient x frequency = 0)."""

    id: str
    modes: str
    qubits: str
    initial: str
    final: str
    model: str
    n_max: int
    fixed: str
    free: str
    relation: str
    closed_form: str


# Catalog entries used by ``coupling``. ``harmonic6_1r6q`` and
# ``harmonic7_1r7q`` are left out: one op of either takes 15-19 s with the
# path-sum DFS, a whole run.
_ROWS = [
    ("shg_1r1q", "a", "q", "2,g", "0,e", "generalized_rabi", 6, "q:0.83", "a", "q:1 a:-2", "two_photon_qubit"),
    ("shg_2r1q", "a b", "q", "0,2,g", "1,0,g", "generalized_rabi", 6, "b:1.0 q:0.83", "a", "a:1 b:-2", "shg_two_mode"),
    ("shg_1r2q", "a", "q q", "0,e,e", "1,g,g", "generalized_rabi", 5, "q:0.83", "a", "a:1 q:-2", "photon_two_qubits"),
    ("sshg_1r1q", "a", "q", "0,e", "2,g", "generalized_rabi", 6, "q:0.83", "a", "q:1 a:-2", "two_photon_qubit"),
    ("sshg_2r1q", "a b", "q", "1,0,g", "0,2,g", "generalized_rabi", 6, "b:1.0 q:0.83", "a", "a:1 b:-2", "shg_two_mode"),
    ("sshg_1r2q", "a", "q q", "1,g,g", "0,e,e", "generalized_rabi", 5, "q:0.83", "a", "a:1 q:-2", "photon_two_qubits"),
    ("raman_spont_stokes", "a b", "q", "1,0,g", "0,1,e", "generalized_rabi", 5, "b:1.0 q:0.83", "a", "a:1 b:-1 q:-1", "raman_stokes"),
    ("raman_spont_anti_stokes", "a b", "q", "0,1,e", "1,0,g", "generalized_rabi", 5, "b:1.0 q:0.83", "a", "a:1 b:-1 q:-1", "raman_stokes"),
    ("raman_stim_stokes", "a b", "q", "1,0,g", "0,1,e", "generalized_rabi", 6, "b:1.0 q:0.83", "a", "a:1 b:-1 q:-1", ""),
    ("raman_stim_anti_stokes", "a b", "q", "0,1,e", "1,0,g", "generalized_rabi", 6, "b:1.0 q:0.83", "a", "a:1 b:-1 q:-1", ""),
    ("sfg_1r2q", "a", "q1 q2", "0,e,e", "1,g,g", "generalized_rabi", 5, "q1:0.79 q2:1.13", "a", "a:1 q1:-1 q2:-1", ""),
    ("sfg_2r1q", "a b", "q", "1,1,g", "0,0,e", "generalized_rabi", 5, "a:1.618 b:1.0", "q", "a:1 b:1 q:-1", ""),
    ("sfg_3r1q", "a b c", "q", "1,1,0,g", "0,0,1,g", "generalized_rabi", 5, "b:1.0 c:1.31 q:0.83", "a", "a:1 b:1 c:-1", ""),
    ("dfg_1r2q", "a", "q1 q2", "1,g,g", "0,e,e", "generalized_rabi", 5, "q1:0.79 q2:1.13", "a", "a:1 q1:-1 q2:-1", ""),
    ("dfg_2r1q", "a b", "q", "0,0,e", "1,1,g", "generalized_rabi", 5, "a:1.618 b:1.0", "q", "a:1 b:1 q:-1", ""),
    ("dfg_3r1q", "a b c", "q", "0,0,1,g", "1,1,0,g", "generalized_rabi", 5, "b:1.0 c:1.31 q:0.83", "a", "a:1 b:1 c:-1", ""),
    ("thg_1r1q", "a", "q", "3,g", "0,e", "rabi", 7, "q:0.83", "a", "q:1 a:-3", "three_photon_qubit"),
    ("thg_2r1q", "a b", "q", "0,3,g", "1,0,g", "rabi", 7, "b:1.0 q:0.83", "a", "a:1 b:-3", "thg_two_mode"),
    ("thg_1r3q", "a", "q q q", "0,e,e,e", "1,g,g,g", "rabi", 5, "q:0.83", "a", "a:1 q:-3", "three_qubit_thg"),
    ("tshg_1r1q", "a", "q", "0,e", "3,g", "rabi", 7, "q:0.83", "a", "q:1 a:-3", "three_photon_qubit"),
    ("tshg_2r1q", "a b", "q", "1,0,g", "0,3,g", "rabi", 7, "b:1.0 q:0.83", "a", "a:1 b:-3", "thg_two_mode"),
    ("tshg_1r3q", "a", "q q q", "1,g,g,g", "0,e,e,e", "rabi", 5, "q:0.83", "a", "a:1 q:-3", "three_qubit_thg"),
    ("hyper_raman_1_stokes", "a b", "q", "0,2,g", "1,0,e", "rabi", 6, "b:1.0 q:0.83", "a", "a:1 q:1 b:-2", "hyper_raman_one_stokes"),
    ("hyper_raman_1_anti_stokes", "a b", "q", "0,2,e", "1,0,g", "rabi", 6, "b:1.0 q:0.83", "a", "a:1 b:-2 q:-1", "hyper_raman_one_anti_stokes"),
    ("hyper_raman_2_stokes", "a b", "q q", "1,0,g,g", "0,1,e,e", "rabi", 5, "b:1.0 q:0.83", "a", "a:1 b:-1 q:-2", "hyper_raman_two"),
    ("hyper_raman_2_anti_stokes", "a b", "q q", "0,1,e,e", "1,0,g,g", "rabi", 5, "b:1.0 q:0.83", "a", "a:1 b:-1 q:-2", "hyper_raman_two"),
    ("fw1_3r1q", "a b c", "q", "1,1,0,g", "0,0,1,e", "jc", 5, "b:1.0 c:1.31 q:0.83", "a", "a:1 b:1 c:-1 q:-1", ""),
    ("fw1_4r1q", "a b c d", "q", "1,1,0,0,g", "0,0,1,1,g", "jc", 5, "b:1.0 c:1.31 d:1.77 q:0.83", "a", "a:1 b:1 c:-1 d:-1", ""),
    ("fw1_2r2q", "a b", "q1 q2", "1,1,g,g", "0,0,e,e", "jc", 5, "b:1.0 q1:0.79 q2:1.13", "a", "a:1 b:1 q1:-1 q2:-1", ""),
    ("fw1_1r3q", "a", "q1 q2 q3", "1,e,g,g", "0,g,e,e", "jc", 5, "q1:0.79 q2:1.13 q3:1.41", "a", "a:1 q1:1 q2:-1 q3:-1", ""),
    ("fw2_3r1q", "a b c", "q", "1,1,1,g", "0,0,0,e", "rabi", 5, "a:1.618 b:1.0 c:1.31", "q", "a:1 b:1 c:1 q:-1", ""),
    ("fw2_4r1q", "a b c d", "q", "1,1,1,0,g", "0,0,0,1,g", "rabi", 5, "a:1.618 b:1.0 c:1.31 q:0.83", "d", "a:1 b:1 c:1 d:-1", ""),
    ("fw2_2r2q", "a b", "q1 q2", "0,1,e,e", "1,0,g,g", "rabi", 5, "b:1.0 q1:0.79 q2:1.13", "a", "a:1 b:-1 q1:-1 q2:-1", ""),
    ("fw2_1r3q", "a", "q1 q2 q3", "0,e,e,e", "1,g,g,g", "rabi", 5, "q1:0.79 q2:1.13 q3:1.41", "a", "a:1 q1:-1 q2:-1 q3:-1", ""),
    ("fw3_3r1q", "a b c", "q", "0,0,0,e", "1,1,1,g", "rabi", 5, "a:1.618 b:1.0 c:1.31", "q", "a:1 b:1 c:1 q:-1", ""),
    ("fw3_4r1q", "a b c d", "q", "1,0,0,0,g", "0,1,1,1,g", "rabi", 5, "b:1.0 c:1.31 d:1.77 q:0.83", "a", "a:1 b:-1 c:-1 d:-1", ""),
    ("fw3_2r2q", "a b", "q1 q2", "1,0,g,g", "0,1,e,e", "rabi", 5, "b:1.0 q1:0.79 q2:1.13", "a", "a:1 b:-1 q1:-1 q2:-1", ""),
    ("fw3_1r3q", "a", "q1 q2 q3", "1,g,g,g", "0,e,e,e", "rabi", 5, "q1:0.79 q2:1.13 q3:1.41", "a", "a:1 q1:-1 q2:-1 q3:-1", ""),
    ("fw1_deg2_3r1q", "a b c", "q", "2,0,0,g", "0,1,1,g", "jc", 6, "b:1.0 c:1.31 q:0.83", "a", "a:2 b:-1 c:-1", ""),
    ("fw23_deg2_3r1q", "a b c", "q", "2,1,0,g", "0,0,1,g", "rabi", 6, "b:1.0 c:1.31 q:0.83", "a", "a:2 b:1 c:-1", ""),
    ("fw1_deg2_2r1q", "a b", "q", "2,0,g", "0,1,e", "jc", 6, "b:1.0 q:0.83", "a", "a:2 b:-1 q:-1", ""),
    ("fw23_deg2_2r1q", "a b", "q", "2,1,g", "0,0,e", "rabi", 6, "a:1.618 b:1.0", "q", "a:2 b:1 q:-1", ""),
    ("fw1_deg2_1r2q", "a", "q1 q2", "2,g,g", "0,e,e", "jc", 6, "q1:0.79 q2:1.13", "a", "a:2 q1:-1 q2:-1", ""),
    ("fw23_deg2_1r2q", "a", "q1 q2", "2,e,g", "0,g,e", "rabi", 6, "q1:0.79 q2:1.13", "a", "a:2 q1:1 q2:-1", ""),
    ("harmonic4_2r1q", "a b", "q", "0,4,g", "1,0,g", "generalized_rabi", 8, "b:1.0 q:0.83", "a", "a:1 b:-4", ""),
    ("harmonic4_1r1q", "a", "q", "4,g", "0,e", "generalized_rabi", 8, "q:0.83", "a", "q:1 a:-4", ""),
    ("harmonic4_1r4q", "a", "q q q q", "0,e,e,e,e", "1,g,g,g,g", "generalized_rabi", 5, "q:0.83", "a", "a:1 q:-4", ""),
    ("harmonic5_2r1q", "a b", "q", "0,5,g", "1,0,g", "rabi", 9, "b:1.0 q:0.83", "a", "a:1 b:-5", ""),
    ("harmonic5_1r1q", "a", "q", "5,g", "0,e", "rabi", 9, "q:0.83", "a", "q:1 a:-5", ""),
    ("harmonic5_1r5q", "a", "q q q q q", "0,e,e,e,e,e", "1,g,g,g,g,g", "rabi", 5, "q:0.83", "a", "a:1 q:-5", ""),
    ("harmonic6_2r1q", "a b", "q", "0,6,g", "1,0,g", "generalized_rabi", 10, "b:1.0 q:0.83", "a", "a:1 b:-6", ""),
    ("harmonic6_1r1q", "a", "q", "6,g", "0,e", "generalized_rabi", 10, "q:0.83", "a", "q:1 a:-6", ""),
    ("harmonic7_2r1q", "a b", "q", "0,7,g", "1,0,g", "rabi", 11, "b:1.0 q:0.83", "a", "a:1 b:-7", ""),
    ("harmonic7_1r1q", "a", "q", "7,g", "0,e", "rabi", 11, "q:0.83", "a", "q:1 a:-7", ""),
    ("kerr_dispersive", "a", "q", "1,g", "1,g", "jc", 5, "a:1.618 q:0.83", "", "", "kerr_dispersive"),
]

ENTRIES = [Entry(*row) for row in _ROWS]

#: Defaults the program's ``verify`` uses for every entry.
VERIFY_G, VERIFY_THETA, KERR_G, KERR_NMAX = 0.05, math.pi / 6, 0.02, 8
SPECTRUM_TRACKED = ["1,0,g", "0,2,g", "0,0,e"]
EVOLVE_SAMPLES = 4096
SPOT_ROWS = 16


@dataclass
class Op:
    """One unit of work: ``argv`` for the CLI, or ``call`` for a library op."""

    kind: str
    label: str
    config: dict | None = None
    argv_tail: list = field(default_factory=list)
    call: tuple | None = None
    expect: dict = field(default_factory=dict)
    slot: int = -1


def _shuffled(rng: random.Random, ops: list) -> list:
    """Number the ops' slots in generation order, then shuffle them."""
    for slot, op in enumerate(ops):
        op.slot = slot
    rng.shuffle(ops)
    return ops


# --- system builders --------------------------------------------------------

def _pairs(text):
    return {k: float(v) for k, v in (p.split(":") for p in text.split())}


def _entry_frequencies(row, scale=1.0, detuning=0.0):
    fixed = {k: v * scale for k, v in _pairs(row.fixed).items()}
    free, relation = row.free, _pairs(row.relation)
    if free:
        rest = sum(c * fixed[s] for s, c in relation.items() if s != free)
        fixed[free] = -rest / relation[free] + detuning
    return fixed


def _entry_system(row, freqs, g, theta, n_max=None):
    modes = row.modes.split()
    qsyms = row.qubits.split()
    qlabels = qsyms if len(set(qsyms)) == len(qsyms) else [f"{s}{k + 1}" for k, s in enumerate(qsyms)]
    return {
        "modes": [{"label": m, "frequency": freqs[m], "n_max": n_max or row.n_max} for m in modes],
        "qubits": [{"label": lab, "frequency": freqs[s]} for lab, s in zip(qlabels, qsyms)],
        "couplings": [{"mode": m, "qubit": q, "strength": g, "mixing_angle": theta}
                      for m in modes for q in qlabels],
        "model": row.model,
    }


def _fig3_system(rng, n_max, model, resonance=None):
    """Two modes and one qubit in the parameter range of the paper's fig. 3."""
    wb = rng.uniform(0.97, 1.03)
    wq = rng.uniform(1.55, 1.65)
    wa = {"two_photon": 2 * wb, "one_photon": wq}.get(resonance, rng.uniform(1.8, 2.2))
    theta = rng.uniform(0.45, 0.6)
    return {
        "modes": [{"label": "a", "frequency": wa, "n_max": n_max},
                  {"label": "b", "frequency": wb, "n_max": n_max}],
        "qubits": [{"label": "q", "frequency": wq}],
        "couplings": [
            {"mode": "a", "qubit": "q", "strength": rng.uniform(0.06, 0.08), "mixing_angle": theta},
            {"mode": "b", "qubit": "q", "strength": rng.uniform(0.12, 0.15), "mixing_angle": theta},
        ],
        "model": model,
    }


# --- op lists ---------------------------------------------------------------

def coupling_ops(rng: random.Random) -> list:
    """``geff`` on every entry (two- and three-mode ones on and off
    resonance, harmonics and four-mode ones once, on or off), plus
    ``verify`` on every closed-form entry."""
    ops = []
    for row in ENTRIES:
        if row.id == "kerr_dispersive":
            continue
        once = row.id.startswith("harmonic") or len(row.modes.split()) == 4
        variants = [rng.choice(("on", "off"))] if once else ["on", "off"]
        for variant in variants:
            g, theta, scale = rng.uniform(0.02, 0.08), rng.uniform(0.3, 1.2), rng.uniform(0.9, 1.1)
            detuning = 0.0 if variant == "on" else rng.choice((-1, 1)) * rng.uniform(2e-3, 1e-2)
            freqs = _entry_frequencies(row, scale, detuning)
            closed = None
            if row.closed_form and variant == "on":
                closed = oracle.closed_form(row.closed_form, freqs, g, theta)
            config = {"system": _entry_system(row, freqs, g, theta),
                      "geff": {"initial": row.initial, "final": row.final}}
            ops.append(Op("geff", f"geff:{row.id}:{variant}", config,
                          expect={"closed": closed}))
    for row in ENTRIES:
        if not row.closed_form:
            continue
        freqs = _entry_frequencies(row)
        case = {"system": _entry_system(row, freqs, VERIFY_G, VERIFY_THETA),
                "initial": row.initial, "final": row.final,
                "closed_form": row.closed_form, "frequencies": freqs,
                "g": VERIFY_G, "theta": VERIFY_THETA}
        if row.closed_form == "kerr_dispersive":
            case["kerr_system"] = _entry_system(row, freqs, KERR_G, 0.0, n_max=KERR_NMAX)
            case["kerr_g"] = KERR_G
        ops.append(Op("verify", f"verify:{row.id}", argv_tail=["--process", row.id],
                      expect={"id": row.id, "case": case}))
    return _shuffled(rng, ops)


def sweep_ops(rng: random.Random) -> list:
    """Per pass: nine 11-point single-model spectra (four at n_max 6, five at
    n_max 7, the three models in turn) and four 21-point avoided-crossing
    searches at n_max 6, 7, 8, 8."""
    ops = []
    models = ("jc", "rabi", "generalized_rabi")
    for k, n_max in enumerate((6, 6, 6, 6, 7, 7, 7, 7, 7)):
        system = _fig3_system(rng, n_max, models[k % 3])
        lo = 2 * system["modes"][1]["frequency"] - 0.2 + rng.uniform(-0.03, 0.03)
        config = {"system": system,
                  "spectrum": {"parameter": "mode:a", "lo": lo, "hi": lo + 0.4,
                               "points": 11, "tracked": SPECTRUM_TRACKED}}
        ops.append(Op("spectrum", f"spectrum:{models[k % 3]}:{n_max}", config))
    for a, b, model, n_max, kind in (
        ("1,0,g", "0,0,e", "jc", 6, "one_photon"),
        ("1,0,g", "0,0,e", "rabi", 7, "one_photon"),
        ("1,0,g", "0,2,g", "generalized_rabi", 8, "two_photon"),
        ("1,0,g", "0,0,e", "generalized_rabi", 8, "one_photon"),
    ):
        system = _fig3_system(rng, n_max, model, kind)
        centre = system["modes"][0]["frequency"]
        lo = centre - 0.2 + rng.uniform(-0.03, 0.03)
        ops.append(Op("crossing", f"crossing:{kind}:{model}:{n_max}",
                      call=(system, "a", lo, lo + 0.4, 21, a, b)))
    return _shuffled(rng, ops)


def evolve_ops(rng: random.Random) -> list:
    """Per pass: twenty 4096-sample evolutions at dim 98-450 (n_max 49 is
    one mode and one qubit, dim 100; the rest two modes and one qubit), most
    of them between a resonant pair so that the trace oscillates."""
    ops = []
    for n_max in (6, 6, 6, 6, 49, 49, 49, 7, 7, 7, 7, 7, 7, 8, 8, 10, 10, 12, 12, 14):
        if n_max == 49:  # one mode, one qubit: dim 100
            wq = rng.uniform(0.9, 1.1)
            resonant = rng.random() < 0.75
            wa = wq / 2 if resonant else rng.uniform(0.4, 0.6)
            theta = rng.uniform(0.3, 1.2)
            system = {"modes": [{"label": "a", "frequency": wa, "n_max": n_max}],
                      "qubits": [{"label": "q", "frequency": wq}],
                      "couplings": [{"mode": "a", "qubit": "q",
                                     "strength": rng.uniform(0.03, 0.06), "mixing_angle": theta}],
                      "model": "generalized_rabi"}
            initial, target = rng.choice((("0,e", "2,g"), ("2,g", "0,e")))
        else:
            kind = rng.choice(("two_photon", "one_photon", None))
            system = _fig3_system(rng, n_max, "generalized_rabi", kind)
            initial, target = {"two_photon": ("1,0,g", "0,2,g"),
                               "one_photon": ("1,0,g", "0,0,e")}.get(
                kind, rng.choice((("0,1,g", "0,0,e"), ("0,2,g", "1,0,g"))))
        config = {"system": system,
                  "evolve": {"initial": initial, "targets": [target],
                             "total_time": rng.uniform(200.0, 1500.0),
                             "samples": EVOLVE_SAMPLES}}
        ops.append(Op("evolve", f"evolve:{n_max}", config))
    return _shuffled(rng, ops)


WORKLOADS = {"coupling": coupling_ops, "sweep": sweep_ops, "evolve": evolve_ops}
OUTPUT_SUFFIX = {"geff": ".txt", "verify": ".txt", "spectrum": "", "evolve": ".csv"}


def cli_argv(op: Op, config_path: str, out_path: str) -> list:
    argv = [op.kind]
    if op.config is not None:
        argv += ["-c", config_path]
    return argv + op.argv_tail + ["-o", out_path]


def output_file(op: Op, out_path: str) -> str:
    """Where the CLI writes: ``spectrum`` appends ``.csv`` to the stem."""
    return out_path + ".csv" if op.kind == "spectrum" else out_path


# --- checks -----------------------------------------------------------------

class Checker:
    """Checks op results against the oracle. ``key`` identifies an op (pass,
    index); references are kept per key so a re-check reuses them."""

    def __init__(self):
        self._refs = {}

    def ref(self, key, fn=None):
        if key not in self._refs:
            self._refs[key] = fn()
        return self._refs[key]

    def check(self, k, op: Op, result) -> list:
        """Problems with one op's result; empty when the op passed."""
        if result.error is not None:
            return [f"raised {result.error}"]
        if op.kind == "crossing":
            system, label, _, _, _, a, b = op.call
            return oracle.check_crossing(system, label, a, b, result.value)
        problems = [] if result.code == 0 else [f"exit code {result.code}"]
        if result.text is None:
            return problems + ["no output file"]
        return problems + getattr(self, "_check_" + op.kind)(k, op, result)

    def _check_geff(self, k, op, result):
        sec = op.config["geff"]
        ref = self.ref(k, lambda: oracle.geff_reference(op.config["system"], sec["initial"], sec["final"]))
        try:
            reported = parse_geff(result.text)
        except (KeyError, ValueError) as e:
            return [f"unparsable geff output: {e}"]
        return oracle.check_geff(ref, reported, op.expect["closed"])

    def _check_verify(self, k, op, result):
        expected = self.ref(k, lambda: oracle.verify_reference(op.expect["case"]))
        first = result.text.splitlines()[0] if result.text else ""
        passed = first.startswith(f"PASS {op.expect['id']}")
        if passed != (not expected):
            return [f"verdict {first!r}, oracle found {expected or 'no problem'}"]
        return []

    def _check_spectrum(self, k, op, result):
        sec = op.config["spectrum"]
        rows = parse_csv(result.text)
        header, data = rows[0], np.array(rows[1:], dtype=float)
        names = [s.replace(",", "_") for s in sec["tracked"]]
        want = ["param"] + [f"level_{n}" for n in names] + [f"overlap_{n}" for n in names]
        if header != want or data.shape != (sec["points"], len(want)):
            return [f"spectrum table {header} {data.shape}"]
        grid = np.linspace(sec["lo"], sec["hi"], sec["points"])
        if np.max(np.abs(data[:, 0] - grid)) > 1e-12:
            return ["sweep grid differs from linspace(lo, hi, points)"]
        nt = len(names)
        problems = []
        for p in (0, sec["points"] // 2, sec["points"] - 1):
            system = oracle.with_mode_frequency(op.config["system"], "a", float(grid[p]))
            sys_, vals, vecs = self.ref((k, p), lambda: oracle.eigh(system))
            for t, state in enumerate(sec["tracked"]):
                problems += [f"point {p} {state}: {m}" for m in oracle.check_level(
                    vals, vecs, sys_.index(state), data[p, 1 + t], data[p, 1 + nt + t])]
        return problems

    def _check_evolve(self, k, op, result):
        sec = op.config["evolve"]
        rows = parse_csv(result.text)
        data = np.array(rows[1:], dtype=float)
        if rows[0] != ["t", "P_f", "norm"] or data.shape != (sec["samples"], 3):
            return [f"trace table {rows[0]} {data.shape}"]
        times = np.linspace(0.0, sec["total_time"], sec["samples"])
        if np.max(np.abs(data[:, 0] - times)) > 1e-12 * sec["total_time"]:
            return ["sample times differ from linspace(0, total_time, samples)"]
        problems = []
        drift = float(np.max(np.abs(data[:, 2] - 1.0)))
        if drift > oracle.SPECTRAL_TOL:
            problems.append(f"norm drift {drift:.3g}")
        spots = np.linspace(0, sec["samples"] - 1, SPOT_ROWS).astype(int)
        ref = self.ref(k, lambda: oracle.populations(
            op.config["system"], sec["initial"], sec["targets"][0], times[spots]))
        err = float(np.max(np.abs(data[spots, 1] - ref)))
        if err > oracle.SPECTRAL_TOL:
            problems.append(f"population off the oracle by {err:.3g}")
        if "oscillation_frequency:" not in result.stdout:
            problems.append("no oscillation_frequency line")
        return problems


def parse_geff(text: str) -> dict:
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    re_, sign, im = fields["g_eff"].split()
    value = complex(float(re_), float(im.rstrip("j")) * (1 if sign == "+" else -1))
    return {"order": int(fields["order"]), "paths": int(fields["paths"]), "value": value}


def parse_csv(text: str) -> list:
    return [line.split(",") for line in text.splitlines() if line]


def config_text(op: Op) -> str:
    return json.dumps(op.config, indent=1)

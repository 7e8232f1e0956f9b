"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, against the rabimix in this checkout:
  * one pass of every workload passes the oracle on seeds 1 and 2;
  * deliberately corrupted results are flagged: g_eff x (1 + 1e-8), a level
    shifted by 1e-6, a population off by 1e-6, a crossing gap off by 1e-6;
  * the tracer wraps every module binding of the traced functions, each
    op's spans form one tree rooted at the op, and the traced split holds
    (no eigensolver on coupling, no path sum on evolve, eigensystem the
    largest self time on sweep, 64 subspace_gap calls for the fig-3
    crossing of the seed search);
  * every pass of a workload has the same op slots, each slot with one op
    kind (the time metrics compare a slot's latency across passes);
  * run.py exits nonzero without printing a result when src/ is missing.
Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import run

run.import_rabimix()
warnings.simplefilter("ignore")

import workloads  # noqa: E402
from tracing import UNITS, Tracer  # noqa: E402

#: Bindings that modules create by importing a traced function by name.
REQUIRED_BINDINGS = [
    "rabimix.dynamics.eigensystem", "rabimix.spectra.effective_coupling",
    "rabimix.catalog.effective_coupling", "rabimix.catalog.shortest_order",
    "rabimix.catalog.interaction_for", "rabimix.cli.effective_coupling",
    "rabimix.cli.interaction_for", "rabimix.hamiltonian.build_hint",
]

failures = []


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + str(detail) if detail and not ok else ''}")
    if not ok:
        failures.append(name)


def one_pass(workload, seed, tracer=None):
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS))
    try:
        runner = run.Runner(workloads.WORKLOADS[workload], random.Random(seed), tmp)
        _, records, cuts, _ = run.measure(runner, 0, 0, 1, tracer)
        checker = workloads.Checker()
        problems = run.check_all(records, checker)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return records, checker, problems, cuts


def corrupted(res, edit):
    res = copy.copy(res)
    res.text = edit(res.text)
    return res


def scale_geff(text, factor):
    out = []
    for line in text.splitlines():
        if line.startswith("g_eff: "):
            re_, sign, im = line[7:].split()
            line = f"g_eff: {float(re_) * factor:.17g} {sign} {im}"
        out.append(line)
    return "\n".join(out) + "\n"


def shift_cell(text, row, col, delta):
    rows = workloads.parse_csv(text)
    rows[row][col] = repr(float(rows[row][col]) + delta)
    return "\n".join(",".join(r) for r in rows) + "\n"


def check_oracle_agreement():
    passes = {}
    for seed in (1, 2):
        for workload in workloads.WORKLOADS:
            records, checker, problems, _ = one_pass(workload, seed)
            report(f"{workload} seed {seed}: {len(records)} ops pass the oracle",
                   not problems, problems[:3])
            passes[workload, seed] = records, checker
    return passes


def check_corruptions(passes):
    records, checker = passes["coupling", 1]
    for p, k, op, _, res in records:
        ref = checker.ref((p, k)) if op.kind == "geff" else None
        if ref and abs(ref["value"]) > 1e-2 * ref["scale"]:
            bad = checker.check((p, k), op, corrupted(res, lambda t: scale_geff(t, 1 + 1e-8)))
            report(f"g_eff x (1 + 1e-8) flagged ({op.label})", bool(bad))
            break

    records, checker = passes["sweep", 1]
    p, k, op, _, res = next(r for r in records if r[2].kind == "spectrum")
    bad = checker.check((p, k), op, corrupted(res, lambda t: shift_cell(t, 1, 1, 1e-6)))
    report(f"level + 1e-6 flagged ({op.label})", bool(bad))
    p, k, op, _, res = next(r for r in records if r[2].kind == "crossing")
    shifted = copy.copy(res)
    shifted.value = dataclasses.replace(res.value, gap=res.value.gap + 1e-6)
    report(f"crossing gap + 1e-6 flagged ({op.label})", bool(checker.check((p, k), op, shifted)))

    records, checker = passes["evolve", 1]
    p, k, op, _, res = records[0]
    spot = int(workloads.np.linspace(0, op.config["evolve"]["samples"] - 1, workloads.SPOT_ROWS)[3])
    bad = checker.check((p, k), op, corrupted(res, lambda t: shift_cell(t, 1 + spot, 1, 1e-6)))
    report(f"population + 1e-6 flagged ({op.label})", bool(bad))


def check_tracing():
    tracer = Tracer()
    tracer.install()
    try:
        missing = [b for b in REQUIRED_BINDINGS if b not in tracer.bindings]
        report("tracer wraps every listed module binding", not missing, missing)
        report("no module binding left unwrapped", not tracer.unwrapped_bindings(),
               tracer.unwrapped_bindings())
        layers = {}
        for workload in workloads.WORKLOADS:
            _, _, problems, cuts = one_pass(workload, 1, tracer)
            (s0, c0), (s1, c1) = cuts[0], cuts[-1]
            counters = {key: c1.get(key, 0) - c0.get(key, 0) for key in c1}
            layers[workload] = tracer.layer_metrics(tracer.spans[s0:s1], counters)
            report(f"{workload} traced pass passes the oracle", not problems, problems[:3])
            report(f"{workload}: every op's spans form one tree", not tracer.bad_trees(),
                   tracer.bad_trees()[:5])
            if workload == "sweep":
                nested = any(s[1] == "hamiltonian.build_hint" and s[3] is not None
                             and tracer.spans[s[3]][1] == "hamiltonian.build_hamiltonian"
                             for s in tracer.spans)
                report("build_hint is traced inside build_hamiltonian", nested)
            tracer.spans.clear()  # op ids restart with the next workload
        report("spectra.eigensystem.calls = 0 on coupling",
               layers["coupling"]["spectra.eigensystem.calls"] == 0)
        report("perturbation.path_sum.calls = 0 on evolve",
               layers["evolve"]["perturbation.path_sum.calls"] == 0)
        sweep_self = {k: v for k, v in layers["sweep"].items() if k.endswith("self_s")}
        report("spectra.eigensystem.self_s is the largest self time on sweep",
               max(sweep_self, key=sweep_self.get) == "spectra.eigensystem.self_s", sweep_self)

        import rabimix.spectra as spectra
        from rabimix import BasisState, CouplingSpec, InteractionModel, ModeSpec, QubitSpec, SystemSpec

        spec = SystemSpec(
            modes=(ModeSpec("a", 2.0, 8), ModeSpec("b", 1.0, 8)), qubits=(QubitSpec("q", 1.6),),
            couplings=(CouplingSpec("a", "q", 0.07, 0.5235987755982988),
                       CouplingSpec("b", "q", 0.14, 0.5235987755982988)),
            model=InteractionModel.GENERALIZED_RABI)
        i, f = BasisState.parse("1,0,g"), BasisState.parse("0,2,g")
        sweep = spectra.SweepSpec(spec, "mode:a", 1.8, 2.2, 21, (i, f))
        start = len(tracer.spans)
        tracer.run_op("fig3", "op.crossing", lambda: spectra.find_avoided_crossing(sweep, i, f))
        gaps = sum(1 for s in tracer.spans[start:] if s[1] == "spectra.subspace_gap")
        report("fig-3 crossing makes 64 subspace_gap calls (seed search)", gaps == 64, gaps)
    finally:
        tracer.uninstall()


def check_refuses_without_sources():
    tmp = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=run.RESULTS))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, tmp / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "coupling",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=tmp, capture_output=True, text=True, timeout=180)
        printed = any(line.startswith("{") for line in out.stdout.splitlines())
        report("run.py without src/ exits nonzero and prints no result",
               out.returncode != 0 and not printed, (out.returncode, out.stdout[-200:]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_slots():
    for workload, generate in workloads.WORKLOADS.items():
        rng = random.Random(1)
        shapes = [sorted((op.slot, op.kind) for op in generate(rng)) for _ in range(3)]
        same = shapes[0] == shapes[1] == shapes[2]
        numbered = [s for s, _ in shapes[0]] == list(range(len(shapes[0])))
        report(f"{workload}: every pass has the same {len(shapes[0])} op slots", same and numbered)


def check_units():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report("BENCHMARK.json per_layer matches the traced metrics and units", listed == UNITS,
           set(listed.items()) ^ set(UNITS.items()))


if __name__ == "__main__":
    run.RESULTS.mkdir(exist_ok=True)
    check_units()
    check_slots()
    check_corruptions(check_oracle_agreement())
    check_tracing()
    check_refuses_without_sources()
    print(f"{len(failures)} failed")
    sys.exit(1 if failures else 0)

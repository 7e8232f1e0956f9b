"""rabimix benchmark: one seeded workload in one fresh process.

    python3 perfbench/run.py --workload coupling|sweep|evolve --seed N \
        --seconds S --trace 0|1

Load shape: one client in a closed loop (the next op starts when the
previous one returns), BLAS pinned to one thread. A *pass* is one op list
drawn from the workload's seeded generator (see workloads.py); passes
repeat, each with fresh parameters, until ``--seconds`` have elapsed and at
least MIN_OPS ops have run. Outputs go to a temporary
directory under perfbench/results/ that is removed at the end; every op is
then checked against the oracle (oracle.py). A run record with versions,
op counts and metrics is written to perfbench/results/.

The shared host's speed drifts by up to ~1.8x, in phases of one to thirty
seconds inside a run and in eras of minutes across runs, so a run-wide
median of latencies mostly measures how busy the neighbours were. The time
metrics are therefore built in two steps:
  * slot latencies: every pass has the same op slots (workloads.py), and a
    slot's latency is its median latency over the run's passes;
  * host scaling: between ops, at most every REF_EVERY_S, the run times a
    fixed reference kernel (Runner.reference: a dict-heavy Python loop and
    a dense complex eigh, the two kinds of work rabimix does), and the slot
    latencies are multiplied by REF_KERNEL_S / (the kernel's median time in
    the run). In a slow era both medians grow by about the same factor, and
    the scaling cancels it. The kernel does not touch rabimix, so a change
    to rabimix moves the metrics in full. The run record keeps the unscaled
    values and the factor.
On a shared 2-core x86-64 VM, over five seeds at a busy time, scaling cut
the quartile spread of wall_s from 0.17 to 0.07 on coupling and from 0.12
to 0.03 on evolve; slot minima in place of medians spread more (0.19 and
0.11).

--trace 0 prints the end-to-end metrics:
    wall_s       time to solution of one pass's op list: the sum of its
                 slot latencies, host-scaled
    op_p50_ms    median slot latency, host-scaled
    op_p90_ms    90th-percentile slot latency, host-scaled
    peak_rss_mb  ru_maxrss of this process after the ops, before the checks
    setup_s      median time to import rabimix and rabimix.cli in a fresh
                 interpreter (this process plus SETUP_SAMPLES - 1 others)
--trace 1 runs half the time untraced, half with spans around each layer's
public functions (tracing.py), and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is 0 when the run completed, whatever the checks
found; without rabimix's sources under src/ the run stops with exit code 1
before printing a result.
"""

from __future__ import annotations

import argparse
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MIN_OPS = 100
#: The reference kernel runs between ops at most this often, so that its
#: samples spread over the run's host phases as the ops do.
REF_EVERY_S = 0.1
#: Median time of Runner.reference() in runs on a quiet 2-core x86-64 VM
#: (OpenBLAS on one thread); it fixes the scale of the scaled times.
REF_KERNEL_S = 0.0095
SETUP_SAMPLES = 5
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import rabimix, rabimix.cli; print(time.perf_counter() - t)"
)


@dataclass
class Result:
    code: int | None = None
    stdout: str = ""
    error: str | None = None
    value: object = None
    path: str | None = None
    text: str | None = None


def import_rabimix():
    """Import rabimix from this checkout's src/ and time it."""
    if not (SRC / "rabimix" / "__init__.py").is_file():
        sys.exit(f"error: rabimix sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import rabimix  # noqa: F401
    import rabimix.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(rabimix.__file__).resolve().parent != SRC / "rabimix":
        sys.exit(f"error: imported rabimix from {rabimix.__file__}, not {SRC}")
    return elapsed


def setup_samples(first: float) -> list:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)], cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs ops in-process. Each pass draws a fresh op list from the
    workload's generator; its configs are written before any op is timed."""

    def __init__(self, generate, rng, tmp: Path):
        import numpy as np
        import rabimix.cli
        import rabimix.spectra

        self.cli, self.spectra = rabimix.cli, rabimix.spectra
        self.generate, self.rng, self.tmp = generate, rng, tmp
        self.configs, self.sweeps = {}, {}
        a = np.random.default_rng(0).standard_normal((128, 256)).view(complex)
        self.ref_matrix, self.eigh = a + a.conj().T, np.linalg.eigh

    def reference(self):
        """Time one fixed reference kernel, in s."""
        t0 = time.perf_counter()
        table = {}
        for i in range(30000):
            table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        self.eigh(self.ref_matrix)
        return time.perf_counter() - t0

    def prepare(self, p):
        """Draw pass ``p``'s ops and write their inputs."""
        from rabimix import BasisState, CouplingSpec, InteractionModel, ModeSpec, QubitSpec, SystemSpec

        from workloads import config_text

        ops = self.generate(self.rng)
        for k, op in enumerate(ops):
            if op.config is not None:
                path = self.tmp / f"config-{p}-{k}.json"
                path.write_text(config_text(op))
                self.configs[p, k] = str(path)
            if op.kind == "crossing":
                system, label, lo, hi, points, a, b = op.call
                spec = SystemSpec(
                    modes=tuple(ModeSpec(m["label"], m["frequency"], m["n_max"]) for m in system["modes"]),
                    qubits=tuple(QubitSpec(q["label"], q["frequency"]) for q in system["qubits"]),
                    couplings=tuple(CouplingSpec(c["mode"], c["qubit"], c["strength"], c["mixing_angle"])
                                    for c in system["couplings"]),
                    model=InteractionModel.parse(system["model"]),
                )
                a, b = BasisState.parse(a), BasisState.parse(b)
                self.sweeps[p, k] = (self.spectra.SweepSpec(spec, f"mode:{label}", lo, hi, points, (a, b)), a, b)
        return ops

    def run(self, p, k, op, tracer=None):
        """Run one op; returns (latency in s, Result)."""
        from workloads import OUTPUT_SUFFIX, cli_argv, output_file

        res = Result()
        if op.kind == "crossing":
            sweep, a, b = self.sweeps[p, k]
            fn = lambda: self.spectra.find_avoided_crossing(sweep, a, b)  # noqa: E731
        else:
            out = str(self.tmp / f"out-{p}-{k}{OUTPUT_SUFFIX[op.kind]}")
            res.path = output_file(op, out)
            argv = cli_argv(op, self.configs.get((p, k)), out)
            fn = lambda: self.cli.main(argv)  # noqa: E731
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                value = fn() if tracer is None else tracer.run_op(f"{p}:{k}", "op." + op.kind, fn)
            except Exception as e:  # an op that raises counts as failed
                value, res.error = None, f"{type(e).__name__}: {e}"
            latency = time.perf_counter() - t0
        res.stdout = buf.getvalue()
        if op.kind == "crossing":
            res.value = value
        else:
            res.code = value
        return latency, res


def measure(runner, first_pass, seconds, min_ops, tracer=None):
    """Run passes until ``seconds`` have elapsed and ``min_ops`` ops ran.

    Returns (passes run, [(pass, op index, op, latency, Result)], tracer cuts,
    reference kernel times).
    """
    records, cuts, refs = [], [], []
    start, p = time.perf_counter(), first_pass
    while True:
        ops = runner.prepare(p)
        if tracer is not None:
            cuts.append(tracer.snapshot())
        for k, op in enumerate(ops):
            if not refs or time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(runner.reference())
                last_ref = time.perf_counter()
            latency, res = runner.run(p, k, op, tracer)
            records.append((p, k, op, latency, res))
        p += 1
        if time.perf_counter() - start >= seconds and len(records) >= min_ops:
            break
    if tracer is not None:
        cuts.append(tracer.snapshot())
    return p - first_pass, records, cuts, refs


def check_all(records, checker):
    """Read each op's output file and check it; returns failure messages."""
    failures = []
    for p, k, op, _, res in records:
        if res.path is not None and os.path.exists(res.path):
            with open(res.path) as fh:
                res.text = fh.read()
        problems = checker.check((p, k), op, res)
        if problems:
            failures.append(f"pass {p} op {k} {op.label}: {'; '.join(problems)}")
    return failures


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))]


def slot_groups(records):
    """Each op slot's latencies in s, one per pass."""
    groups = {}
    for _, _, op, latency, _ in records:
        groups.setdefault(op.slot, []).append(latency)
    return groups


def slot_latencies(records):
    """Each op slot's median latency in s over the run's passes."""
    return [statistics.median(v) for v in slot_groups(records).values()]


def versions():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas, "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "machine": platform.machine()}


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def workload_reasons():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {w["name"]: w["why"] for w in spec["workloads"]}
    except (OSError, ValueError, KeyError):
        return {}


def timed_run(runner, checker, seconds, import_s):
    """Untraced passes for the end-to-end metrics."""
    _, records, _, refs = measure(runner, 0, seconds, MIN_OPS)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_all(records, checker)
    setup = setup_samples(import_s)
    slot_ms = [t * 1e3 for t in slot_latencies(records)]
    times = {"wall_s": sum(slot_ms) / 1e3, "op_p50_ms": statistics.median(slot_ms),
             "op_p90_ms": percentile(slot_ms, 0.9)}
    scale = REF_KERNEL_S / statistics.median(refs)
    metrics = {name: (value * scale, name.rsplit("_", 1)[1], len(records))
               for name, value in times.items()}
    metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
    metrics["setup_s"] = (statistics.median(setup), "s", len(setup))
    by_slot = {s: [round(t * 1e3, 4) for t in v] for s, v in slot_groups(records).items()}
    return records, failures, metrics, {
        "host_scale": scale, "unscaled": times, "reference_kernel_s": refs,
        "setup_samples_s": setup, "slot_latencies_ms": by_slot}


def traced_run(runner, checker, seconds, spans_path):
    """Half the time untraced, half traced; per-layer metrics are medians
    over the traced passes."""
    from tracing import UNITS, Tracer, median_metrics

    passes, records, _, refs = measure(runner, 0, seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        _, trecords, cuts, trefs = measure(runner, passes, seconds / 2, 1, tracer)
    finally:
        tracer.uninstall()
    failures = check_all(records + trecords, checker)
    per_pass = []
    for p, ((s0, c0), (s1, c1)) in enumerate(zip(cuts, cuts[1:]), start=passes):
        counters = {key: c1.get(key, 0) - c0.get(key, 0) for key in c1}
        layer = tracer.layer_metrics(tracer.spans[s0:s1], counters)
        layer["cli.bytes_written"] = sum(
            len(r.text.encode()) for q, _, _, _, r in trecords if q == p and r.text is not None)
        per_pass.append(layer)
    layer = median_metrics(per_pass)
    base = sum(slot_latencies(records)) / statistics.median(refs)
    traced = sum(slot_latencies(trecords)) / statistics.median(trefs)
    layer["trace.overhead_pct"] = 100.0 * (traced - base) / base
    metrics = {name: (layer[name], unit, len(per_pass)) for name, unit in UNITS.items()}
    crossings = sum(1 for r in trecords if r[2].kind == "crossing")
    gaps = sum(1 for span in tracer.spans if span[1] == "spectra.subspace_gap")
    with open(spans_path, "w") as fh:
        for sid, name, op, parent, t0, t1 in tracer.spans:
            fh.write(json.dumps({"id": sid, "name": name, "op": op, "parent": parent,
                                 "start": t0, "end": t1}) + "\n")
    extra = {"spans": len(tracer.spans), "bad_span_trees": len(tracer.bad_trees()),
             "observe_errors": tracer.observe_errors, "wrapped_bindings": tracer.bindings,
             "subspace_gap_calls_per_crossing": gaps / crossings if crossings else None}
    return records + trecords, failures, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("coupling", "sweep", "evolve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_rabimix()
    warnings.simplefilter("ignore")  # off-resonance notes would go to stderr per op

    import workloads

    RESULTS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    try:
        runner = Runner(workloads.WORKLOADS[args.workload], random.Random(args.seed), tmp)
        checker = workloads.Checker()
        if args.trace == 0:
            records, failures, metrics, extra = timed_run(runner, checker, args.seconds, import_s)
        else:
            spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
            records, failures, metrics, extra = traced_run(runner, checker, args.seconds, spans_path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    kinds = {}
    for _, _, op, _, _ in records:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    passes = len({r[0] for r in records})
    record = {
        "workload": args.workload, "why": workload_reasons().get(args.workload),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "src_lines": src_lines(), **versions(),
        "ops_by_kind": kinds, "passes": passes, "ops_attempted": len(records),
        "ops_failed": len(failures), "failures": failures[:50], **extra,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    (RESULTS / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for msg in failures[:10]:
        print("FAILED " + msg, file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops in {passes} passes, "
          f"failure share {len(failures) / len(records):.4f}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} n={n}")
    correct = not failures and not extra.get("bad_span_trees")
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

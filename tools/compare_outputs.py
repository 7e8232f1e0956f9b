"""Compare the outputs of rabimix trees op by op.

    python tools/compare_outputs.py --src OLD_CHECKOUT/src --src src

Each ``--src`` names one tree's package directory; the first is the
reference. For each tree the script starts one fresh interpreter, with BLAS
pinned to one thread as in the benchmark, that imports rabimix from there
and runs a fixed op list:

- every op of one pass of the ``coupling``, ``sweep`` and ``evolve``
  workloads at seeds 1 and 2, drawn by this checkout's
  ``perfbench/workloads.py`` (only read): ``geff``, ``verify``, ``spectrum``
  and ``evolve`` through ``rabimix.cli.main``, and ``find_avoided_crossing``
  as a library call;
- ``verify --process ID`` for every id of the tree's catalog;
- ``verify --all-closed-forms`` and ``catalog``;
- one three-tone ``classical``;
- each script in the tree's ``demos/``.

Every op runs in its own empty working directory and names its files by
relative paths, so the outputs of two trees can agree byte for byte. An
op's record is its exit code, stdout, stderr (warnings as category and
message only) and the bytes of every file it wrote.

The script prints each op whose record differs, with the largest absolute
and relative difference of the numbers in it, then how many ops are equal.
The exit code is 0 only when every op is byte-identical. Needs only the
stdlib and the packages rabimix uses.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import runpy
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SEEDS = (1, 2)
CLASSICAL = {"classical": {
    "tones": [{"amplitude": 1.0, "frequency": 1.0}, {"amplitude": 0.5, "frequency": 1.7},
              {"amplitude": 0.25, "frequency": 2.3}],
    "chi1": 1.0, "chi2": 0.3, "chi3": 0.1,
}}
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import compare_outputs; "
         "compare_outputs.run_ops(sys.argv[2], sys.argv[3])")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _capture(workdir: Path, fn) -> dict:
    """Run ``fn`` in ``workdir``; its exit code (or the exception it
    raised), stdout, stderr and the files it left there."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = fn()
            except SystemExit as e:
                code = e.code
            except Exception as e:  # a raising op is a result to compare
                code = f"raised {type(e).__name__}: {e}"
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_bytes().decode("utf-8", "backslashreplace")
             for p in sorted(workdir.iterdir()) if p.name != "config.json"}
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def run_ops(src: str, out: str) -> None:
    """Child: run the op list against the rabimix under ``src`` and write
    the records to ``out`` as JSON."""
    sys.path[:0] = [src, str(PERFBENCH)]
    import rabimix.cli
    import rabimix.spectra
    from rabimix import (BasisState, CouplingSpec, InteractionModel, ModeSpec, QubitSpec,
                         SystemSpec)
    from rabimix.catalog import CATALOG

    import workloads

    if Path(rabimix.__file__).resolve().parent != Path(src).resolve() / "rabimix":
        sys.exit(f"error: imported rabimix from {rabimix.__file__}, not {src}")
    warnings.simplefilter("always")
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"

    def crossing(call):
        system, label, lo, hi, points, a, b = call
        spec = SystemSpec(
            modes=tuple(ModeSpec(m["label"], m["frequency"], m["n_max"]) for m in system["modes"]),
            qubits=tuple(QubitSpec(q["label"], q["frequency"]) for q in system["qubits"]),
            couplings=tuple(CouplingSpec(c["mode"], c["qubit"], c["strength"], c["mixing_angle"])
                            for c in system["couplings"]),
            model=InteractionModel.parse(system["model"]),
        )
        a, b = BasisState.parse(a), BasisState.parse(b)
        sweep = rabimix.spectra.SweepSpec(spec, f"mode:{label}", lo, hi, points, (a, b))
        return lambda: print(repr(rabimix.spectra.find_avoided_crossing(sweep, a, b)))

    def cli(argv, config=None):
        def fn():
            if config is not None:
                Path("config.json").write_text(json.dumps(config, indent=1))
            return rabimix.cli.main(argv)
        return fn

    def script(path):
        def fn():
            runpy.run_path(str(path), run_name="__main__")
            return 0
        return fn

    ops = []
    for seed in SEEDS:
        for name, generate in workloads.WORKLOADS.items():
            for k, op in enumerate(generate(random.Random(seed))):
                if op.kind == "crossing":
                    fn = crossing(op.call)
                else:
                    written = "out" + workloads.OUTPUT_SUFFIX[op.kind]
                    fn = cli(workloads.cli_argv(op, "config.json", written), op.config)
                ops.append((f"{name}:seed{seed}:{k}:{op.label}", fn))
    ops += [(f"verify:{e.id}", cli(["verify", "--process", e.id])) for e in CATALOG]
    ops.append(("verify:all-closed-forms", cli(["verify", "--all-closed-forms"])))
    ops.append(("catalog", cli(["catalog"])))
    ops.append(("classical", cli(["classical", "-c", "config.json", "-o", "out.csv"], CLASSICAL)))
    for demo in sorted((Path(src).resolve().parent / "demos").glob("*.py")):
        ops.append((f"demo:{demo.name}", script(demo)))

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n, (name, fn) in enumerate(ops):
            workdir = Path(tmp) / str(n)
            workdir.mkdir()
            records[name] = _capture(workdir, fn)
    Path(out).write_text(json.dumps(records))


def _text(record: dict) -> str:
    parts = [f"code: {record['code']}", "stdout:", record["stdout"], "stderr:", record["stderr"]]
    for name, content in record["files"].items():
        parts += [f"file {name}:", content]
    return "\n".join(parts)


def _differences(a: str, b: str):
    """Largest absolute and relative difference of the numbers in two texts;
    None when the text between the numbers differs."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    worst_abs = worst_rel = 0.0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        x, y = float(x), float(y)
        d = abs(x - y)
        worst_abs = max(worst_abs, d)
        if d:
            worst_rel = max(worst_rel, d / max(abs(x), abs(y)))
    return worst_abs, worst_rel


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a tree's package directory; give it twice, the reference first")
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give --src twice")

    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, src in enumerate(args.src):
            out = Path(tmp) / f"{n}.json"
            subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "tools"), src, str(out)],
                           env=env, check=True)
            runs.append(json.loads(out.read_text()))

    reference, records = runs
    names = list(reference) + [name for name in records if name not in reference]
    equal = 0
    for name in names:
        if name not in reference or name not in records:
            where = args.src[1] if name in records else args.src[0]
            print(f"{name}: only in {where}")
            continue
        a, b = _text(reference[name]), _text(records[name])
        if a == b:
            equal += 1
            continue
        diff = _differences(a, b)
        if diff is None:
            print(f"{name}: differs outside its numbers")
        else:
            print(f"{name}: max abs diff {diff[0]:.3g}, max rel diff {diff[1]:.3g}")
    print(f"{equal} of {len(names)} ops equal")
    return 0 if equal == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())

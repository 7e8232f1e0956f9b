"""Per-call timings of ``rabimix.spectra.eigensystem``, merged into
``BENCH_eigensystem.json`` under a label.

Times the fig-3 system (two modes, one qubit) under each of the three
models at dims 98, 128 and 162 (n_max 6, 7, 8), once with the two rows of
the one-photon crossing pair |1,0,g>, |0,0,e> and once with no rows, next
to ``full_eigh_ms``, one ``scipy.linalg.eigh`` of the whole dense H.
Each figure is the median of ``REPEATS`` interleaved calls after one
warm-up round, with BLAS pinned to one thread; the ratio to
``full_eigh_ms`` does not drift with the machine's load between runs.
``--src`` times the package of another checkout, so the same harness gives
before and after numbers::

    python tools/bench_eigensystem.py --src OLD_CHECKOUT/src --label before
    python tools/bench_eigensystem.py --label after

Each label also records the median wall time of ``TIER1_RUNS`` runs of the
tier-1 suite of the checkout that holds ``--src`` and the line count of
its ``src/rabimix/*.py``. Needs only the stdlib and the package's own
numpy and scipy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_eigensystem.json"
MODELS = ("jc", "rabi", "generalized_rabi")
N_MAX = (6, 7, 8)  # dims 98, 128, 162
PAIR = ("1,0,g", "0,0,e")
REPEATS = 51
TIER1_RUNS = 3


def fig3_spec(rabimix, model, n_max):
    """The middle of fig. 3's parameter range: w_b = 1, w_q = 1.6, w_a = 2."""
    return rabimix.SystemSpec(
        modes=(rabimix.ModeSpec("a", 2.0, n_max), rabimix.ModeSpec("b", 1.0, n_max)),
        qubits=(rabimix.QubitSpec("q", 1.6),),
        couplings=(rabimix.CouplingSpec("a", "q", 0.07, 0.5),
                   rabimix.CouplingSpec("b", "q", 0.13, 0.5)),
        model=model,
    )


def median_ms(fns):
    """Median time of each call in ``fns`` in ms, the calls interleaved so
    that a change of machine load hits all of them alike."""
    times = [[] for _ in fns]
    for r in range(REPEATS + 1):
        for fn, t in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            if r:  # the first round warms up
                t.append(time.perf_counter() - t0)
    return [1e3 * statistics.median(t) for t in times]


def tier1_seconds(checkout: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    times = []
    for _ in range(TIER1_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "--continue-on-collection-errors"],
                       cwd=checkout, env=env, check=True, capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads BLAS
    import numpy as np
    import scipy.linalg

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import rabimix
    from rabimix.spectra import eigensystem

    if Path(rabimix.__file__).resolve().parent != src / "rabimix":
        sys.exit(f"error: imported rabimix from {rabimix.__file__}, not {src}")
    calls = {}
    for model in MODELS:
        for n_max in N_MAX:
            space = rabimix.build_space(fig3_spec(rabimix, model, n_max))
            h = rabimix.build_hamiltonian(space)
            pair = [space.index(s) for s in PAIR]
            pair_ms, all_ms, full_ms = median_ms(
                [lambda: eigensystem(h, pair), lambda: eigensystem(h),
                 lambda: scipy.linalg.eigh(h.to_dense())])
            calls[f"{model}:{space.dimension}"] = {
                "pair_ms": pair_ms, "all_ms": all_ms, "full_eigh_ms": full_ms,
                "pairs_returned_for_pair": len(eigensystem(h, pair)[0]),
            }
    entry = {
        "eigensystem": calls,
        "repeats": REPEATS,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (src / "rabimix").glob("*.py")),
        "tier1_s": tier1_seconds(src.parent),
        "tier1_runs": TIER1_RUNS,
    }
    record = json.loads(OUT.read_text()) if OUT.is_file() else {}
    record.update({
        "what": "median per-call eigensystem time in ms, BLAS threads pinned to 1, "
                "interleaved with one full dense eigh (full_eigh_ms)",
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, Python "
                   f"{platform.python_version()}, numpy {np.__version__}",
    })
    record[args.label] = entry
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for key, row in calls.items():
        print(f"{args.label:8s} {key:22s} pair {row['pair_ms']:8.3f} ms   "
              f"all {row['all_ms']:8.3f} ms   full eigh {row['full_eigh_ms']:8.3f} ms")


if __name__ == "__main__":
    main()

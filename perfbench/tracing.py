"""Spans around rabimix's public functions, installed from outside.

rabimix modules import each other's functions by name (``from .spectra
import eigensystem``), so a wrapper has to replace every module attribute
bound to the original function, not only the defining one. Spans are kept
in memory; the caller writes them out when the run ends.

A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

#: Wrapped functions: (module, attribute) -> span name.
TARGETS = {
    ("rabimix.cli", "main"): "cli.main",
    ("rabimix.config", "parse_config"): "config.parse_config",
    ("rabimix.hilbert", "build_space"): "hilbert.build_space",
    ("rabimix.hamiltonian", "build_h0"): "hamiltonian.build_h0",
    ("rabimix.hamiltonian", "build_hint"): "hamiltonian.build_hint",
    ("rabimix.hamiltonian", "build_hamiltonian"): "hamiltonian.build_hamiltonian",
    ("rabimix.perturbation", "interaction_for"): "perturbation.interaction_for",
    ("rabimix.perturbation", "shortest_order"): "perturbation.shortest_order",
    ("rabimix.perturbation", "effective_coupling"): "perturbation.effective_coupling",
    ("rabimix.perturbation", "enumerate_paths"): "perturbation.enumerate_paths",
    ("rabimix.perturbation", "diagonal_shift"): "perturbation.diagonal_shift",
    ("rabimix.spectra", "eigensystem"): "spectra.eigensystem",
    ("rabimix.spectra", "subspace_gap"): "spectra.subspace_gap",
    ("rabimix.spectra", "track_levels"): "spectra.track_levels",
    ("rabimix.spectra", "find_avoided_crossing"): "spectra.find_avoided_crossing",
    ("rabimix.spectra", "bare_resonance_parameter"): "spectra.bare_resonance_parameter",
    ("rabimix.dynamics", "evolve"): "dynamics.evolve",
    ("rabimix.dynamics", "extract_oscillation"): "dynamics.extract_oscillation",
    ("rabimix.catalog", "verify_entry"): "catalog.verify_entry",
}

_BUILD = ["hamiltonian.build_h0", "hamiltonian.build_hint", "hamiltonian.build_hamiltonian"]
_PATH_SUM = ["perturbation.effective_coupling", "perturbation.enumerate_paths",
             "perturbation.diagonal_shift"]

#: Per-layer self-time metrics: metric -> span names.
SELF_TIME = {
    "cli.self_s": ["cli.main"],
    "config.parse.self_s": ["config.parse_config"],
    "hilbert.build_space.self_s": ["hilbert.build_space"],
    "hamiltonian.build.self_s": _BUILD,
    "perturbation.reach.self_s": ["perturbation.shortest_order"],
    "perturbation.path_sum.self_s": _PATH_SUM,
    "spectra.eigensystem.self_s": ["spectra.eigensystem"],
    "spectra.crossing.self_s": ["spectra.find_avoided_crossing", "spectra.bare_resonance_parameter"],
    "spectra.track.self_s": ["spectra.track_levels"],
    "dynamics.evolve.self_s": ["dynamics.evolve"],
    "dynamics.extract.self_s": ["dynamics.extract_oscillation"],
    "catalog.verify.self_s": ["catalog.verify_entry"],
}

#: Per-layer call counts: metric -> span names.
CALLS = {
    "hilbert.build_space.calls": ["hilbert.build_space"],
    "hamiltonian.build.calls": _BUILD,
    "perturbation.reach.calls": ["perturbation.shortest_order"],
    "perturbation.path_sum.calls": _PATH_SUM,
    "spectra.eigensystem.calls": ["spectra.eigensystem"],
    "spectra.subspace_gap.calls": ["spectra.subspace_gap"],
    "catalog.verify.calls": ["catalog.verify_entry"],
}


_COUNTS = ["hamiltonian.build.nnz", "perturbation.paths", "spectra.eigensystem.eigenpairs",
           "spectra.eigensystem.dim3", "dynamics.evolve.state_bytes"]

#: Unit of every per-layer metric, in report order.
UNITS = {
    **{m: "s" for m in SELF_TIME}, **{m: "count" for m in CALLS},
    **{m: "count" for m in _COUNTS}, "dynamics.evolve.state_bytes": "B",
    "spectra.eigenpairs_used_ratio": "ratio", "cli.bytes_written": "B", "trace.overhead_pct": "%",
}


def _observe(name, args, result, counters):
    """Work counts read off a call's arguments and result."""
    if name in _BUILD:
        counters["hamiltonian.build.nnz"] += result.matrix.nnz
    elif name == "perturbation.effective_coupling":
        counters["perturbation.paths"] += result.path_count
    elif name == "spectra.eigensystem":
        counters["spectra.eigensystem.eigenpairs"] += len(result[0])
        counters["spectra.eigensystem.dim3"] += args[0].dimension ** 3
    elif name == "spectra.subspace_gap":
        counters["spectra.eigenpairs_used"] += 2
    elif name == "spectra.track_levels":
        sweep = args[0]
        counters["spectra.eigenpairs_used"] += sweep.points * len(sweep.tracked)
    elif name == "dynamics.evolve":
        space, spec = args[0], args[2]
        counters["spectra.eigenpairs_used"] += len(spec.targets)
        counters["dynamics.evolve.state_bytes"] += spec.samples * space.dimension * 16


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # (span id, name, op id, parent id, start, end)
        self.counters = defaultdict(int)
        self.observe_errors = 0
        self.bindings = []  # "module.attribute" names that were replaced
        self._stack = []
        self._op = None
        self._saved = []

    # -- spans --
    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, self._op, parent, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id, name, fn):
        """Run ``fn()`` as the root span of op ``op_id``."""
        self._op = op_id
        sid = self._open(name)
        try:
            return fn()
        finally:
            self._close(sid)
            self._op = None

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            try:
                _observe(name, args, result, self.counters)
            except (AttributeError, TypeError, IndexError):
                self.observe_errors += 1
            return result

        return wrapper

    # -- installation --
    def install(self):
        """Replace every rabimix module binding of each target function."""
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "rabimix" or n.startswith("rabimix."))}
        for (modname, attr), name in TARGETS.items():
            original = getattr(modules[modname], attr)
            wrapper = self._wrap(original, name)
            for mname, mod in sorted(modules.items()):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        self.bindings.append(f"{mname}.{key}")
        unwrapped = self.unwrapped_bindings()
        if unwrapped:
            raise RuntimeError(f"bindings left unwrapped: {unwrapped}")

    def unwrapped_bindings(self):
        originals = {id(orig) for _, _, orig in self._saved}
        return [f"{n}.{k}" for n, m in sys.modules.items()
                if m is not None and (n == "rabimix" or n.startswith("rabimix."))
                for k, v in vars(m).items() if id(v) in originals]

    def uninstall(self):
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    # -- analysis --
    def bad_trees(self):
        """Op ids whose spans do not form one tree rooted at the op span."""
        by_op = defaultdict(list)
        for span in self.spans:
            by_op[span[2]].append(span)
        bad = [op for op in by_op if op is None]
        for op, spans in by_op.items():
            if op is None:
                continue
            roots = [s for s in spans if s[3] is None]
            ids = {s[0] for s in spans}
            ok = len(roots) == 1 and all(s[3] is None or s[3] in ids for s in spans)
            ok = ok and all(s[3] is None or (self.spans[s[3]][4] <= s[4] and s[5] <= self.spans[s[3]][5])
                            for s in spans)
            if not ok:
                bad.append(op)
        return bad

    def layer_metrics(self, spans, counters):
        """Self times, call counts and work counts of one traced pass."""
        child = defaultdict(float)
        for _, _, _, parent, t0, t1 in spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for sid, name, _, _, t0, t1 in spans:
            self_time[name] += (t1 - t0) - child[sid]
            calls[name] += 1
        out = {m: sum(self_time[n] for n in names) for m, names in SELF_TIME.items()}
        out.update({m: sum(calls[n] for n in names) for m, names in CALLS.items()})
        for key in _COUNTS:
            out[key] = counters.get(key, 0)
        pairs = counters.get("spectra.eigensystem.eigenpairs", 0)
        out["spectra.eigenpairs_used_ratio"] = (
            counters.get("spectra.eigenpairs_used", 0) / pairs if pairs else 0.0)
        return out

    def snapshot(self):
        """(span count, counters copy), to cut the record into passes."""
        return len(self.spans), dict(self.counters)


def median_metrics(per_pass):
    """Per metric, the lower median over passes: an observed pass value, so
    counts stay whole."""
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}

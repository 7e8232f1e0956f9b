"""Command-line interface.

Subcommands: geff, spectrum, evolve, catalog, classical, verify. All take a
JSON config (see :mod:`rabimix.config`); values can be overridden with
repeated ``--set path=value`` flags or environment variables prefixed with
``RABIMIX_`` (double underscores standing in for dots, e.g.
``RABIMIX_system__model=jc``). Flags win over environment variables.

Exit codes: 0 success, 1 computation failure, 2 configuration error,
3 capacity exceeded. Output files are written atomically (temp file plus
rename), so an interrupted run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
from dataclasses import replace

from . import catalog as cat
from .classical import spectrum_csv
from .config import RunConfig, parse_config, section_defaults
from .dynamics import evolve, extract_oscillation, trace_csv
from .errors import CapacityError, ConfigError, FlatTraceError, RabimixError
from .hamiltonian import build_hamiltonian
from .hilbert import build_space
from .perturbation import PATH_CAP, effective_coupling, interaction_for
from .spectra import sweep_csv, track_levels

ENV_PREFIX = "RABIMIX_"


def _env_overrides():
    out = []
    for key, value in sorted(os.environ.items()):
        if key.startswith(ENV_PREFIX):
            out.append(key[len(ENV_PREFIX):].replace("__", ".") + "=" + value)
    return out


def _load_config(args) -> RunConfig:
    if args.config is None:
        raise ConfigError("this command requires --config FILE")
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {args.config!r}: {e.strerror}") from None
    return parse_config(text, _env_overrides() + list(args.set or []))


def _optional_section(args, name: str) -> dict:
    """Section ``name`` of the config, at its defaults if there is no config
    or the config has no such section."""
    sections = _load_config(args).sections if args.config is not None else {}
    return sections[name] if name in sections else section_defaults(name)


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to stdout, or to ``path`` atomically: the package's one file writer."""
    if path is None:
        sys.stdout.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".rabimix-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    print(f"wrote {path}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_geff(args) -> int:
    config = _load_config(args)
    sec = config.section("geff")
    hint = interaction_for(config.system)
    result = effective_coupling(hint, sec["initial"], sec["final"], order=sec["order"])
    g = result.value
    lines = [
        f"initial: {sec['initial'].label()}",
        f"final: {sec['final'].label()}",
        f"order: {result.order}",
        f"paths: {result.path_count}",
        f"g_eff: {_fmt(g)} + 0j",  # H is real, so g_eff has no imaginary part
        f"|g_eff|: {_fmt(abs(g))}",
        f"2|g_eff|: {_fmt(2 * abs(g))}",
    ]
    if args.explain:
        lines.append("contributions:")
        for p in result.paths:
            lines.append("  " + p.describe(hint.space))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_spectrum(args) -> int:
    config = _load_config(args)
    sec = config.section("spectrum")
    sweep = sec["sweep"]
    models = sec["models"] or [sweep.base.model]
    stem = args.output or sec["output"]
    for model in models:
        path = f"{stem}_{model.value}.csv" if len(models) > 1 else f"{stem}.csv"
        model_sweep = replace(sweep, base=sweep.base.with_model(model))
        _emit(sweep_csv(track_levels(model_sweep)), path)
    return 0


def cmd_evolve(args) -> int:
    config = _load_config(args)
    sec = config.section("evolve")
    space = build_space(config.system)
    h = build_hamiltonian(space)
    trace = evolve(space, h, sec["evolution"])
    _emit(trace_csv(trace), args.output or sec["output"])
    try:
        freq, pmax = extract_oscillation(trace)
        print(f"oscillation_frequency: {_fmt(freq)}")
        print(f"max_population: {_fmt(pmax)}")
    except FlatTraceError:
        print("oscillation_frequency: none (trace is flat)")
    return 0


def cmd_catalog(args) -> int:
    entries = cat.list_processes(**_optional_section(args, "catalog"))
    blocks = [cat.format_entry(e) for e in entries]
    text = "\n\n".join(blocks) + ("\n" if blocks else "")
    text += f"\ntotal: {len(entries)}\n"
    _emit(text, args.output)
    return 0


def cmd_classical(args) -> int:
    config = _load_config(args)
    sec = config.section("classical")
    _emit(spectrum_csv(sec["components"]), args.output or sec["output"])
    return 0


def cmd_verify(args) -> int:
    sec = _optional_section(args, "verify")
    ids = list(args.process or []) + (sec["processes"] or [])
    if args.all_closed_forms or sec["all_closed_forms"]:
        ids += [e.id for e in cat.CATALOG if e.closed_form is not None]
    ids = list(dict.fromkeys(ids))  # each process once, in order of first mention
    if not ids:
        raise ConfigError(
            "nothing to verify: give --process, --all-closed-forms or a 'verify' "
            "config section with 'processes' or 'all_closed_forms': true"
        )
    entries = [cat.get_process(pid) for pid in ids]

    reports = [cat.verify_entry(e) for e in entries]
    failures = 0
    lines = []
    for report in reports:
        if report.passed:
            rel = report.relative_error
            detail = f" rel={rel:.3g}" if rel is not None else ""
            lines.append(f"PASS {report.entry_id}{detail}")
        else:
            failures += 1
            lines.append(f"FAIL {report.entry_id}: {'; '.join(report.messages)}")
    lines.append(f"verified {len(reports)} processes, {failures} failures")
    _emit("\n".join(lines) + "\n", args.output)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabimix",
        description="Effective couplings, spectra and dynamics of "
        "qubit-resonator systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", "-c", help="JSON config file")
        p.add_argument(
            "--set", action="append", metavar="PATH=VALUE",
            help="override a config value (repeatable)",
        )
        p.add_argument("--output", "-o", help="output file (default depends on command)")
        p.set_defaults(fn=fn)
        return p

    p = add("geff", cmd_geff, "path-sum effective coupling between two bare states")
    p.add_argument(
        "--explain", action="store_true",
        help=f"list every contributing transition path (exit 3 above {PATH_CAP} paths)",
    )
    add("spectrum", cmd_spectrum, "sweep a parameter and track levels to CSV")
    add("evolve", cmd_evolve, "time-evolve a bare state and record populations")
    add("catalog", cmd_catalog, "list the catalogued mixing processes")
    add("classical", cmd_classical, "classical nonlinear polarization spectrum")
    p = add("verify", cmd_verify, "check catalog entries against the numerics")
    p.add_argument(
        "--process", action="append", metavar="ID", help="process id (repeatable)"
    )
    p.add_argument(
        "--all-closed-forms", action="store_true",
        help="verify every entry that has a registered closed form",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        for msg in e.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 3
    except RabimixError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

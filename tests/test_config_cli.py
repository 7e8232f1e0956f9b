import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rabimix import ConfigError, closed_forms, get_process, parse_config, spectra
from rabimix.cli import _emit, main
from rabimix.config import apply_override

VALID = {
    "system": {
        "modes": [
            {"label": "a", "frequency": 2.0},
            {"label": "b", "frequency": 1.0},
        ],
        "qubits": [{"label": "q", "frequency": 1.6}],
        "couplings": [
            {"mode": "a", "qubit": "q", "strength": 0.05, "mixing_angle": math.pi / 6},
            {"mode": "b", "qubit": "q", "strength": 0.05, "mixing_angle": math.pi / 6},
        ],
        "model": "generalized_rabi",
    },
    "geff": {"initial": "0,2,g", "final": "1,0,g"},
}


def write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_minimal_config_applies_defaults():
    config = parse_config(json.dumps(VALID))
    assert config.system is not None
    assert config.system.modes[0].n_max >= 2  # auto from referenced occupations
    assert config.section("geff")["initial"].label() == "0,2,g"


def test_emit_replaces_a_file_whole_or_not_at_all(tmp_path, capsys):
    target = tmp_path / "out.csv"
    _emit("a,b\n1,2\n", str(target))
    assert target.read_bytes() == b"a,b\n1,2\n"
    assert capsys.readouterr().out == f"wrote {target}\n"
    with pytest.raises(TypeError):
        _emit(b"not text", str(target))  # fails after the temp file exists
    assert target.read_bytes() == b"a,b\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_all_errors_reported_with_field_paths():
    bad = {
        "system": {
            "modes": [{"label": "a", "frequency": -1.0}],
            "qubits": [{"label": "q", "frequency": "oops"}],
            "couplings": [],
            "extra": True,
        },
        "geff": {"initial": "0,g"},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(bad))
    joined = "\n".join(err.value.messages)
    assert "system.modes[0]: mode 'a': frequency must be > 0, got -1.0" in err.value.messages
    assert "system.qubits[0].frequency" in joined
    assert "system.extra" in joined
    assert "geff.final" in joined


def test_duplicate_mode_labels_is_semantic_error():
    bad = json.loads(json.dumps(VALID))
    bad["system"]["modes"][1]["label"] = "a"
    with pytest.raises(ConfigError):
        parse_config(json.dumps(bad))


def test_syntax_error_reports_line_and_column():
    with pytest.raises(ConfigError) as err:
        parse_config('{\n  "system": ]\n}')
    assert "line 2" in str(err.value)


def test_apply_override_paths():
    raw = json.loads(json.dumps(VALID))
    apply_override(raw, "system.modes.0.frequency=2.5")
    assert raw["system"]["modes"][0]["frequency"] == 2.5
    apply_override(raw, "system.model=jc")
    assert raw["system"]["model"] == "jc"
    apply_override(raw, 'geff={"initial": "1,0,g", "final": "0,2,g"}')
    assert raw["geff"]["initial"] == "1,0,g"
    with pytest.raises(ConfigError):
        apply_override(raw, "nonsense")
    with pytest.raises(ConfigError):
        apply_override(raw, "system.modes.7.frequency=1.0")


def test_cli_geff_runs_and_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, VALID)
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(["geff", "-c", cfg, "-o", str(out1)]) == 0
    assert main(["geff", "-c", cfg, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "order: 3" in text
    assert "paths: 12" in text


def test_cli_geff_explain_lists_paths(tmp_path, capsys):
    cfg = write_config(tmp_path, VALID)
    assert main(["geff", "-c", cfg, "--explain"]) == 0
    out = capsys.readouterr().out
    assert out.count("->") >= 12


def test_cli_set_override_wins(tmp_path, capsys):
    cfg = write_config(tmp_path, VALID)
    code = main(["geff", "-c", cfg, "--set", "system.model=jc"])
    assert code == 1  # odd-excitation transition unreachable under JC
    err = capsys.readouterr().err
    assert "no interaction path" in err


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = write_config(tmp_path, {"geff": {"initial": "0,g", "final": "1,g"}})
    assert main(["geff", "-c", bad]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_capacity_error_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, VALID)
    code = main(["geff", "-c", cfg, "--set", "system.modes.0.n_max=99999999"])
    assert code == 3


def test_cli_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_spectrum_writes_model_variants(tmp_path):
    payload = json.loads(json.dumps(VALID))
    payload["spectrum"] = {
        "parameter": "mode:a",
        "lo": 1.9,
        "hi": 2.1,
        "points": 5,
        "tracked": ["0,2,g", "1,0,g"],
        "models": ["jc", "rabi", "generalized_rabi"],
        "output": str(tmp_path / "sweep"),
    }
    cfg = write_config(tmp_path, payload)
    assert main(["spectrum", "-c", cfg]) == 0
    for model in ("jc", "rabi", "generalized_rabi"):
        p = tmp_path / f"sweep_{model}.csv"
        assert p.exists()
        lines = p.read_text().splitlines()
        assert lines[0].startswith("param,level_")
        assert len(lines) == 6


def test_cli_spectrum_two_runs_in_one_process_give_equal_bytes(tmp_path):
    payload = json.loads(json.dumps(VALID))
    payload["spectrum"] = {
        "parameter": "mode:a", "lo": 1.9, "hi": 2.1, "points": 5,
        "tracked": ["0,2,g", "1,0,g"], "models": ["jc", "rabi"],
        "output": str(tmp_path / "s1"),
    }
    cfg = write_config(tmp_path, payload)
    assert main(["spectrum", "-c", cfg]) == 0
    payload["spectrum"]["output"] = str(tmp_path / "s2")
    cfg = write_config(tmp_path, payload, "config2.json")
    assert main(["spectrum", "-c", cfg]) == 0
    for model in ("jc", "rabi"):
        a = (tmp_path / f"s1_{model}.csv").read_bytes()
        b = (tmp_path / f"s2_{model}.csv").read_bytes()
        assert a == b


def test_cli_evolve_writes_trace(tmp_path, capsys):
    payload = {
        "system": {
            "modes": [{"label": "a", "frequency": 1.0}],
            "qubits": [{"label": "q", "frequency": 1.0}],
            "couplings": [{"mode": "a", "qubit": "q", "strength": 0.05}],
            "model": "jc",
        },
        "evolve": {
            "initial": "1,g", "total_time": 200.0, "samples": 256,
            "targets": ["0,e"], "output": str(tmp_path / "trace.csv"),
        },
    }
    cfg = write_config(tmp_path, payload)
    assert main(["evolve", "-c", cfg]) == 0
    out = capsys.readouterr().out
    assert "oscillation_frequency:" in out
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,P_f,norm"
    assert len(lines) == 257


def test_cli_evolve_above_dense_cap_exit_3(tmp_path, capsys, monkeypatch):
    """A state the lowest eigenpairs do not span is an error, not a trace."""
    monkeypatch.setattr(spectra, "DENSE_CAP", 64)
    payload = json.loads(json.dumps(VALID))
    for mode in payload["system"]["modes"]:
        mode["n_max"] = 6  # dim 98
    payload["evolve"] = {
        "initial": "0,2,g", "total_time": 100.0, "samples": 64,
        "targets": ["1,0,g"], "output": str(tmp_path / "trace.csv"),
    }
    cfg = write_config(tmp_path, payload)
    assert main(["evolve", "-c", cfg]) == 3
    err = capsys.readouterr().err
    assert "capacity error" in err and "DENSE_CAP = 64" in err
    assert not (tmp_path / "trace.csv").exists()


def test_cli_catalog_lists_and_counts(tmp_path, capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "total: 52" in out
    assert main(["catalog", "-c", write_config(tmp_path, {
        "catalog": {"table": 1, "distinct_only": True},
    })]) == 0
    out = capsys.readouterr().out
    assert "total: 12" in out


def test_cli_classical_stdout_and_file(tmp_path, capsys):
    payload = {"classical": {"tones": [{"amplitude": 1.0, "frequency": 1.0}],
                             "chi2": 1.0}}
    cfg = write_config(tmp_path, payload)
    assert main(["classical", "-c", cfg]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "frequency,amplitude"
    target = tmp_path / "cls.csv"
    assert main(["classical", "-c", cfg, "-o", str(target)]) == 0
    assert target.read_text().splitlines()[0] == "frequency,amplitude"


def test_cli_verify_selected_processes(capsys):
    assert main(["verify", "--process", "shg_2r1q"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS shg_2r1q")


def test_cli_verify_requires_targets(capsys):
    assert main(["verify"]) == 2


def test_cli_verify_fail_line_names_the_closed_form_miss(monkeypatch, capsys):
    """A path sum that misses its closed form by a relative 1e-8 fails with a
    message that gives both values and the relative error."""
    name = get_process("shg_2r1q").closed_form
    formula = closed_forms.REGISTRY[name]

    @functools.wraps(formula)  # keeps the signature the parameters are bound by
    def scaled(**params):
        return formula(**params) * (1 + 1e-8)

    monkeypatch.setitem(closed_forms.REGISTRY, name, scaled)
    assert main(["verify", "--process", "shg_2r1q"]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("FAIL shg_2r1q: path sum ")
    assert " differs from closed form " in line
    assert line.endswith(" (relative error 1e-08 >= 1e-10)")


def test_cli_verify_section_that_names_nothing(tmp_path, capsys):
    """A 'verify' section at its defaults is valid: --process supplies the
    ids, and without one the command itself reports that nothing is named."""
    cfg = write_config(tmp_path, {"verify": {}})
    assert main(["verify", "-c", cfg, "--process", "shg_1r1q"]) == 0
    assert capsys.readouterr().out.startswith("PASS shg_1r1q")
    assert main(["verify", "-c", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: nothing to verify: give --process, --all-closed-forms or a "
        "'verify' config section with 'processes' or 'all_closed_forms': true\n"
    )


def test_env_override_applies(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, VALID)
    monkeypatch.setenv("RABIMIX_system__model", "jc")
    assert main(["geff", "-c", cfg]) == 1
    # an explicit flag wins over the environment
    assert main(["geff", "-c", cfg, "--set", "system.model=generalized_rabi"]) == 0


WITH_ALL_SECTIONS = {
    **VALID,
    "evolve": {"initial": "0,2,g", "total_time": 10.0, "samples": 16, "targets": ["1,0,g"]},
    "spectrum": {"parameter": "mode:a", "lo": 1.9, "hi": 2.1, "points": 5,
                 "tracked": ["0,2,g", "1,0,g"]},
}


@pytest.mark.parametrize("path, value, field_path", [
    ("geff", [1], "geff"),
    ("system.modes", 5, "system.modes"),
    ("evolve.targets", 5, "evolve.targets"),
    ("spectrum.tracked", [1, 2], "spectrum.tracked[0]"),
    ("system.qubits", [{"label": "q", "frequency": 10**400}], "system.qubits[0].frequency"),
    # json.loads accepts NaN and Infinity; every numeric field rejects them
    ("system.couplings.0.strength", math.nan, "system.couplings[0].strength"),
    ("system.modes.1.frequency", math.inf, "system.modes[1].frequency"),
])
def test_malformed_shapes_are_config_errors(tmp_path, capsys, path, value, field_path):
    payload = json.loads(json.dumps(WITH_ALL_SECTIONS))
    apply_override(payload, f"{path}={json.dumps(value)}")
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload))
    assert any(m.startswith(field_path + ":") for m in err.value.messages)
    assert main(["geff", "-c", write_config(tmp_path, payload)]) == 2
    assert f"config error: {field_path}:" in capsys.readouterr().err


def test_cli_geff_counts_paths_without_listing_them(tmp_path, capsys, monkeypatch):
    from rabimix import perturbation

    cfg = write_config(tmp_path, VALID)
    monkeypatch.setattr(perturbation, "PATH_CAP", 0)
    assert main(["geff", "-c", cfg]) == 0
    assert "paths: 12" in capsys.readouterr().out


def test_cli_geff_explain_path_cap_edge(tmp_path, capsys, monkeypatch):
    from rabimix import perturbation

    cfg = write_config(tmp_path, VALID)
    out = tmp_path / "explain.txt"
    monkeypatch.setattr(perturbation, "PATH_CAP", 12)
    assert main(["geff", "-c", cfg, "--explain", "-o", str(out)]) == 0
    assert out.read_text().count(" -> ") == 12 * 3  # 12 paths of 3 hops
    out.unlink()
    monkeypatch.setattr(perturbation, "PATH_CAP", 11)
    assert main(["geff", "-c", cfg, "--explain", "-o", str(out)]) == 3
    assert "capacity error: 12 order-3 paths" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_counts_each_process_once(tmp_path, capsys):
    """Ids repeated across --process flags and the config are verified once,
    in order of first mention."""
    cfg = write_config(tmp_path, {"verify": {"processes": ["shg_1r1q", "shg_2r1q"]}})
    argv = ["verify", "-c", cfg, "--process", "shg_1r1q", "--process", "shg_1r1q"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == ["shg_1r1q", "shg_2r1q"]
    assert lines[-1] == "verified 2 processes, 0 failures"


COLD_START = """
import sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import rabimix.cli
assert scipy_loaded() == [], scipy_loaded()
cfg, classical_cfg, out = sys.argv[1:]
for argv in (["geff", "-c", cfg], ["verify", "--all-closed-forms"], ["catalog"],
             ["classical", "-c", classical_cfg]):
    assert rabimix.cli.main(argv + ["-o", out]) == 0, argv
assert scipy_loaded() == [], scipy_loaded()
assert rabimix.cli.main(["spectrum", "-c", cfg, "-o", out]) == 0
assert "scipy.linalg" in sys.modules and "scipy.sparse" not in sys.modules, scipy_loaded()
"""


def test_commands_that_solve_nothing_never_load_scipy(tmp_path):
    """In a fresh interpreter, importing the CLI and running geff, verify,
    catalog and classical loads no scipy module; spectrum loads the dense
    eigensolver (scipy.linalg) and still not scipy.sparse."""
    cfg = write_config(tmp_path, WITH_ALL_SECTIONS)
    classical = write_config(tmp_path, {"classical": {
        "tones": [{"amplitude": 1.0, "frequency": 1.0}], "chi2": 1.0}}, "classical.json")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, cfg, classical, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_set_nan_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, VALID)
    assert main(["geff", "-c", cfg, "--set", "system.couplings.0.mixing_angle=NaN"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: system.couplings[0].mixing_angle: expected a finite number, got nan\n")


EVERY_SECTION = {
    **WITH_ALL_SECTIONS,
    "classical": {"tones": [{"amplitude": 1.0, "frequency": 1.0}], "chi2": 1.0},
}
THREE_TONES = [{"amplitude": 1.0, "frequency": f} for f in (0.5, 1.0, 1.5)]


#: Each range rule at its edge: the override that passes, the one that fails,
#: and the failing message, which the object that owns the rule writes.
RANGE_RULES = [
    ("system.modes.0.frequency", 5e-324, 0,
     "system.modes[0]: mode 'a': frequency must be > 0, got 0.0"),
    ("system.modes.0.n_max", 1, 0, "system.modes[0]: mode 'a': n_max must be >= 1, got 0"),
    ("system.qubits.0.frequency", 5e-324, 0,
     "system.qubits[0]: qubit 'q': frequency must be > 0, got 0.0"),
    ("spectrum.lo", math.nextafter(2.1, 0), 2.1,
     "spectrum: sweep range must satisfy lo < hi, got [2.1, 2.1]"),
    ("spectrum.points", 3, 2, "spectrum: sweep needs at least 3 points, got 2"),
    ("spectrum.tracked", ["0,2,g", "1,0,g"], ["0,2,g"],
     "spectrum: sweep must track at least 2 bare states"),
    ("evolve.total_time", 5e-324, 0, "evolve: total time must be > 0, got 0.0"),
    ("evolve.samples", 16, 15, "evolve: need at least 16 samples, got 15"),
    ("evolve.targets", ["1,0,g"], [], "evolve: at least one target state is required"),
    ("classical.tones", THREE_TONES[:1], [], "classical: 1 to 3 tones supported, got 0"),
    ("classical.tones", THREE_TONES, THREE_TONES + [{"amplitude": 1.0, "frequency": 2.0}],
     "classical: 1 to 3 tones supported, got 4"),
    ("classical.tones.0.frequency", 0, -1,
     "classical.tones[0]: tone frequency must be >= 0, got -1.0"),
]


@pytest.mark.parametrize("path, passes, fails, message", RANGE_RULES, ids=[
    f"{p}={len(f)} items" if isinstance(f, list) else f"{p}={f}" for p, _, f, _ in RANGE_RULES])
def test_range_rule_edges_reported_by_their_owner(tmp_path, capsys, path, passes, fails, message):
    payload = json.loads(json.dumps(EVERY_SECTION))
    apply_override(payload, f"{path}={json.dumps(passes)}")
    parse_config(json.dumps(payload))
    apply_override(payload, f"{path}={json.dumps(fails)}")
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload))
    assert err.value.messages == [message]
    assert main(["geff", "-c", write_config(tmp_path, payload)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_violations_in_every_section_listed_once_in_one_run(tmp_path, capsys):
    """The spectrum's own rules run although the system failed: a sweep does
    not check its base. Each section's shape errors come before its range
    errors, and the system's before every section's."""
    payload = json.loads(json.dumps(EVERY_SECTION))
    for assignment in ("system.modes.1.frequency=-2", "system.qubits.0.frequency=oops",
                       "spectrum.points=2", "spectrum.hi=1.9", "spectrum.output=5",
                       "evolve.samples=8", "evolve.total_time=-1",
                       "classical.tones.0.frequency=-1"):
        apply_override(payload, assignment)
    expected = [
        "system.qubits[0].frequency: expected a number, got 'oops'",
        "system.modes[1]: mode 'b': frequency must be > 0, got -2.0",
        "spectrum.output: expected a string, got 5",
        "spectrum: sweep range must satisfy lo < hi, got [1.9, 1.9]",
        "spectrum: sweep needs at least 3 points, got 2",
        "evolve: total time must be > 0, got -1.0",
        "evolve: need at least 16 samples, got 8",
        "classical.tones[0]: tone frequency must be >= 0, got -1.0",
    ]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload))
    assert err.value.messages == expected
    assert main(["spectrum", "-c", write_config(tmp_path, payload)]) == 2
    assert capsys.readouterr().err == "".join(f"config error: {m}\n" for m in expected)

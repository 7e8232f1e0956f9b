"""Static guards over the package source, by ``ast``.

- No public function takes a ``*_tol`` parameter: tolerances are module
  constants, read when the function runs, so each is stated once and a
  test can move it to its edge.
- No function binds a tolerance constant as a default, and no module
  imports one by name (either copy would not see the module constant move).
- No module imports a name it never uses (``__init__`` re-exports).
- No public function takes a ``space`` next to an operator (``h`` or
  ``h_int``): an operator carries the space it acts on, and a second copy
  could disagree with it without any error.
- No module imports scipy outside a function body: scipy loads only where
  an eigensolver or root finder runs, so commands that solve nothing start
  without it.
- No code but ``cli._emit`` opens a file for writing: no other function or
  module body calls ``open`` with a write mode (or a mode that is not a
  string literal), ``os.fdopen``, ``write_text`` or ``write_bytes``. Library
  functions return text, and the one writer makes every output file atomic.
- No module but ``hamiltonian`` constructs a ``HermitianOperator`` or calls
  ``canonical_csr``: H is assembled one way, and every operator's arrays
  are in the canonical form that module owns.
- No module but ``system`` compares a ``.label`` attribute: a mode or qubit
  is found by its label in one place, ``SystemSpec.mode`` and ``.qubit``,
  which also own the "unknown label" error.
- ``cli`` names no spec (``SystemSpec``, ``ModeSpec``, ``QubitSpec``,
  ``CouplingSpec``, ``SweepSpec``, ``EvolutionSpec``, ``Tone``,
  ``Susceptibilities``), so it cannot construct one: ``parse_config`` builds
  each once, and every range rule of a spec runs at parse time.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rabimix"
MODULES = sorted(SRC.glob("*.py"))


def is_tolerance(name: str) -> bool:
    return name.endswith("_TOL") or name == "OVERLAP_AMBIGUITY"


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def functions(module: ast.Module):
    return [n for n in ast.walk(module) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_public_function_takes_a_tolerance(path):
    offenders = []
    for fn in functions(tree(path)):
        if fn.name.startswith("_"):
            continue
        a = fn.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs:
            if arg.arg.endswith("_tol"):
                offenders.append(f"{fn.name}({arg.arg})")
    assert offenders == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_tolerances_are_read_at_call_time(path):
    module = tree(path)
    offenders = []
    for fn in functions(module):
        for default in fn.args.defaults + [d for d in fn.args.kw_defaults if d is not None]:
            offenders += [f"{fn.name} default {n.id}" for n in ast.walk(default)
                          if isinstance(n, ast.Name) and is_tolerance(n.id)]
    if path.name != "__init__.py":
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom):
                offenders += [f"imports {a.name}" for a in node.names if is_tolerance(a.name)]
    assert offenders == []


def imported_names(module: ast.Module):
    """(bound name, source line) for every import outside ``__future__``."""
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    module = tree(path)
    used = {n.id for n in ast.walk(module) if isinstance(n, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(module)
              if name not in used]
    assert unused == []


#: Public functions allowed to take ``space`` next to an operator, and why.
SPACE_AND_OPERATOR_ALLOWED = {
    ("dynamics.py", "evolve"): "the benchmark tracer (perfbench/tracing.py) reads "
                               "evolve's space and spec as its positional args 0 and 2",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_public_function_takes_a_space_next_to_an_operator(path):
    offenders = []
    for fn in functions(tree(path)):
        if fn.name.startswith("_") or (path.name, fn.name) in SPACE_AND_OPERATOR_ALLOWED:
            continue
        a = fn.args
        names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
        if "space" in names and names & {"h", "h_int"}:
            offenders.append(fn.name)
    assert offenders == []


def outside_functions(node: ast.AST):
    """Every node below ``node`` that no function body encloses."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from outside_functions(child)


def is_scipy(module: str | None) -> bool:
    return module is not None and (module == "scipy" or module.startswith("scipy."))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_is_imported_only_inside_functions(path):
    offenders = []
    for node in outside_functions(tree(path)):
        if isinstance(node, ast.Import):
            offenders += [f"line {node.lineno}: import {a.name}" for a in node.names if is_scipy(a.name)]
        elif isinstance(node, ast.ImportFrom) and is_scipy(node.module):
            offenders.append(f"line {node.lineno}: from {node.module} import ...")
    assert offenders == []


#: The one function allowed to open a file for writing.
WRITER = ("cli.py", "_emit")


def called_name(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def opens_for_writing(call: ast.Call) -> bool:
    f = call.func
    name = called_name(call)
    if name in ("fdopen", "write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(file, mode), or path.open(mode)
    position = 1 if isinstance(f, ast.Name) else 0
    mode = call.args[position] if len(call.args) > position else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def write_calls(node: ast.AST, function: str | None = None):
    """(enclosing function name, line) of every call below ``node`` that
    opens a file for writing; the name is None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and opens_for_writing(child):
            yield function, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from write_calls(child, inner)


def test_the_writer_rule_sees_each_way_to_write():
    source = "\n".join([
        "open(p, 'w', newline='')", "open(p, mode='a')", "Path(p).open('r+')",
        "os.fdopen(fd, 'w')", "p.write_text(s)", "p.write_bytes(b)", "open(p, m)",
        "open(p)", "open(p, 'rb')", "Path(p).open()", "fh.write(s)",
    ])
    assert [line for _, line in write_calls(ast.parse(source))] == [1, 2, 3, 4, 5, 6, 7]
    assert [fn for fn, _ in write_calls(tree(SRC / WRITER[0]))] == [WRITER[1]]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cli_emit_opens_a_file_for_writing(path):
    offenders = [f"line {line} in {fn or 'the module body'}"
                 for fn, line in write_calls(tree(path)) if (path.name, fn) != WRITER]
    assert offenders == []


#: The one module that assembles operators.
ASSEMBLER = "hamiltonian.py"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_hamiltonian_assembles_operators(path):
    calls = [f"line {n.lineno}: {called_name(n)}" for n in ast.walk(tree(path))
             if isinstance(n, ast.Call) and called_name(n) in ("HermitianOperator", "canonical_csr")]
    if path.name == ASSEMBLER:
        assert calls  # the rule sees the calls it allows
    else:
        assert calls == []


#: The one module that finds a mode or qubit by its label.
LABEL_OWNER = "system.py"


def label_comparisons(module: ast.Module):
    for n in ast.walk(module):
        if isinstance(n, ast.Compare) and any(
                isinstance(x, ast.Attribute) and x.attr == "label" for x in [n.left, *n.comparators]):
            yield f"line {n.lineno}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_system_compares_labels(path):
    compares = list(label_comparisons(tree(path)))
    if path.name == LABEL_OWNER:
        assert compares  # the rule sees the comparisons it allows
    else:
        assert compares == []


#: The objects that ``config.parse_config`` builds for the commands.
SPECS = {"SystemSpec", "ModeSpec", "QubitSpec", "CouplingSpec", "SweepSpec", "EvolutionSpec",
         "Tone", "Susceptibilities"}


def spec_names(module: ast.Module) -> set:
    """The spec names that ``module`` refers to, called or passed on."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(module)
            if isinstance(n, ast.Name) and n.id in SPECS
            or isinstance(n, ast.Attribute) and n.attr in SPECS}


def test_cli_constructs_no_spec():
    assert spec_names(tree(SRC / "config.py")) == SPECS  # the rule sees the builder's names
    assert spec_names(tree(SRC / "cli.py")) == set()

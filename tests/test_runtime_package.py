"""The runtime package: no asserts, no unused imports or definitions, no test-only imports,
one resultant.

The benchmark's tracer names package functions and their parameters as
strings, so every name it wraps must still resolve here, with each counter
reading the parameter it names.

The CLI runs in a fresh interpreter on the bundled fixtures and must leave
the test-only packages (and this directory's oracle module) unloaded, and
without sympy it must exit with a usage error rather than a verdict; checks
must survive `python -O`, so `src/excprimes` holds no `assert`; every name
imported under `src/excprimes` is used, and every module-level function and
class, and every method other than a dunder, is named by package code other
than its own body and `__init__.py` (test-only code lives in
`tests/oracles.py`, which names no `FieldElement`, `FiniteField`, `polys` or
int kernel of `residues`); `cli.py` turns exceptions
into exit codes in `_Group.invoke` only; and the one Euclidean resultant of
`polys` agrees with a Sylvester determinant over Q, Q(zeta_n) and F_q.
"""

import ast
import glob
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ROOT, fixture_path
from excprimes import CycloElement, DomainError, euler_phi, polys
from excprimes.residues import FiniteField

SRC = os.path.join(ROOT, "src")
TEST_ONLY = ("sympy", "mpmath", "hypothesis", "pytest", "oracles")


def _python(code: str, *flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=300,
    )


def _package_modules():
    for path in sorted(glob.glob(os.path.join(SRC, "excprimes", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read(), path)


def test_no_assert_statements_in_the_package():
    found = []
    for name, tree in _package_modules():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_imported_name_is_used():
    # a name counts as used when the module loads it or lists it in __all__
    unused = []
    for module, tree in _package_modules():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(elt.value for elt in node.value.elts)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{module}:{node.lineno}:{name}")
    assert unused == []


def _is_cli_command(decorator) -> bool:
    """@main.command(...): the click group reaches these by registration, not by name."""
    func = getattr(decorator, "func", None)
    return (
        isinstance(func, ast.Attribute) and func.attr == "command"
        and isinstance(func.value, ast.Name) and func.value.id == "main"
    )


def _names(node) -> set:
    """The names that node mentions, as a Name or an Attribute."""
    return {getattr(n, "id", None) or getattr(n, "attr", None)
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _unreferenced_definitions() -> list[str]:
    """module:name of each module-level def or class, and module:Class.method of each
    method other than a dunder, that no live package code names."""
    statements = {module: tree.body for module, tree in _package_modules() if module != "__init__.py"}
    classes = {
        stmt.name for body in statements.values() for stmt in body if isinstance(stmt, ast.ClassDef)
    }
    # (label, node): a method of a class with a base from outside the package
    # may be called by that base, so only package-rooted classes list theirs
    definitions = []
    # (top-level statement, part, the names the part mentions): a class is
    # split into its body statements, bases and decorators
    units = []
    for module, body in statements.items():
        for stmt in body:
            parts = [stmt]
            if isinstance(stmt, ast.ClassDef):
                parts = stmt.body + stmt.bases + stmt.decorator_list
            units += [(stmt, part, _names(part)) for part in parts]
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(_is_cli_command(d) for d in stmt.decorator_list):
                definitions.append((f"{module}:{stmt.name}", stmt))
            if isinstance(stmt, ast.ClassDef) and all(
                getattr(base, "id", None) in classes for base in stmt.bases
            ):
                definitions += [
                    (f"{module}:{stmt.name}.{m.name}", m) for m in stmt.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                ]
    # a definition is live when live code outside it names it, so code that
    # only dead code names is dead too
    dead = set()
    while True:
        live = [unit for unit in units if unit[0] not in dead and unit[1] not in dead]
        newly = {
            node for _, node in definitions
            if node not in dead and not any(
                node.name in names for top, part, names in live if node is not top and node is not part
            )
        }
        if not newly:
            return [label for label, node in definitions if node in dead]
        dead |= newly


def test_every_definition_is_reachable_from_the_package():
    assert _unreferenced_definitions() == []


def test_cli_turns_exceptions_into_exit_codes_in_one_place():
    # _Group.invoke holds the one exit-code policy: no other try in cli.py,
    # and no other sys.exit with the usage or the internal-error code
    tree = dict(_package_modules())["cli.py"]
    group = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Group")
    invoke = next(n for n in group.body if isinstance(n, ast.FunctionDef) and n.name == "invoke")
    inside = {id(n) for n in ast.walk(invoke)}

    def decides_an_exit(node) -> bool:
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return True
        return (
            isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.exit"
            and any(ast.unparse(arg) in ("EXIT_USAGE", "EXIT_INTERNAL") for arg in node.args)
        )

    outside = [f"cli.py:{n.lineno}" for n in ast.walk(tree) if decides_an_exit(n) and id(n) not in inside]
    assert outside == []
    assert sum(isinstance(n, ast.Try) for n in ast.walk(invoke)) == 1


def test_checks_survive_python_O():
    done = _python(
        "from fractions import Fraction\n"
        "from excprimes import bounds\n"
        "from excprimes.cyclotomic import CycloElement\n"
        "try:\n"
        "    bounds._factored_norm(CycloElement(1, [Fraction(1, 2)]))\n"
        "except ArithmeticError as exc:\n"
        "    print('raised:', exc)\n",
        "-O",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised:")


def test_cli_commands_load_no_test_only_module():
    f81 = fixture_path("81-6c.json")
    runs = [
        ["bound", "--weight", "6", "--level", "81"],
        ["verify", "--form", f81, "--ell", "7"],
        ["verify", "--form", f81, "--ell", "2"],
        ["dims", "--weight", "6", "--level", "81"],
        ["eisenstein", "--weight", "4", "--char-modulus", "5", "--char-index", "1", "--terms", "10"],
        ["scan", "--form", f81, "--ell", "7", "--pmax", "30"],
        ["characters", "--modulus", "9"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from excprimes.cli import main\n"
        "codes = []\n"
        f"for argv in {runs!r}:\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            main(args=argv, prog_name='excprimes')\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        f"loaded = sorted(m for m in sys.modules if m.split('.')[0] in {TEST_ONLY!r})\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n"
    )
    done = _python(code)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["codes"] == [0] * len(runs)
    assert report["loaded"] == []


@pytest.mark.parametrize("field_poly", [[1, 0, -10, 0, 1], [1, 0, 1, 0, 1]])
def test_undecided_field_poly_without_sympy_is_a_usage_error(tmp_path, field_poly):
    # x^4 - 10x^2 + 1 and x^4 + x^2 + 1 factor mod every prime, so only the
    # sympy fallback decides them; without it the CLI must not answer refuted
    path = tmp_path / "toy.json"
    path.write_text(json.dumps({
        "label": "toy", "weight": 2, "level": 11, "field_poly": field_poly,
        "an": {"1": ["1", "0", "0", "0"]},
    }))
    done = _python(
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from excprimes.cli import main\n"
        f"main(args=['verify', '--form', {str(path)!r}, '--ell', '5'], prog_name='excprimes')\n"
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert "sympy" in done.stderr


def test_oracles_share_no_field_arithmetic_with_the_package():
    # the F_q references run in oracles.Fq, so they cannot share a fault with the code they check
    with open(os.path.join(ROOT, "tests", "oracles.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
            names.update((getattr(node, "module", None) or "").split("."))
    banned = {"FieldElement", "FiniteField", "polys", "_squarefree", "_distinct_degrees"}
    assert sorted(name for name in names if name in banned or name.startswith("_fp_")) == []


# -- the benchmark tracer's targets ----------------------------------------------------


def _bench_spans():
    """bench/spans.py, loaded read-only: its TARGETS name package functions by string."""
    spec = importlib.util.spec_from_file_location("_bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _arg_reads(counter) -> list:
    """(position, name) of every _arg(position, name) through which a counter reads a call."""
    code = counter.__code__
    if set(code.co_freevars) == {"pos", "name"}:  # the closure _arg returns
        cells = dict(zip(code.co_freevars, counter.__closure__))
        return [(cells["pos"].cell_contents, cells["name"].cell_contents)]
    tree = ast.parse(textwrap.dedent(inspect.getsource(counter)))
    return [
        (node.args[0].value, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg"
    ]


def test_bench_tracer_targets_resolve_and_read_the_right_parameters():
    # a renamed function or a moved parameter should fail here, not in the benchmark
    checked = []
    for mod_name, attr, span, counter in _bench_spans().TARGETS:
        target = importlib.import_module(mod_name)
        for part in attr.split("."):
            target = getattr(target, part)
        if counter is None:
            continue
        params = list(inspect.signature(target).parameters)
        for pos, name in _arg_reads(counter):
            assert pos < len(params) and params[pos] == name, (mod_name, attr, pos, name, params)
            checked.append(attr)
    assert {"eisenstein_E", "poly_roots_in_field", "factorize"} <= set(checked)


# -- the one resultant against a Sylvester determinant --------------------------------


def sylvester_resultant(f, g, one):
    """det of the Sylvester matrix of f and g, by Gaussian elimination over the field."""
    zero = one - one
    m, n = len(f) - 1, len(g) - 1
    rows = [[zero] * i + f[::-1] + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + g[::-1] + [zero] * (m - 1 - i) for i in range(m)]
    det = one
    for c in range(m + n):
        pivot = next((r for r in range(c, m + n) if rows[r][c]), None)
        if pivot is None:
            return zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = 1 / rows[c][c]
        for r in range(c + 1, m + n):
            if rows[r][c]:
                factor = rows[r][c] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return det


def _check(f, g, one):
    f, g = polys.trim(f), polys.trim(g)
    if not f or not g:
        with pytest.raises(DomainError):
            polys.resultant(f, g)
        return
    assert polys.resultant(f, g) == sylvester_resultant(f, g, one)


_coeff_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=7)  # degree <= 6


@settings(max_examples=150, deadline=None)
@given(_coeff_lists, _coeff_lists, st.lists(st.integers(1, 5), min_size=14, max_size=14))
def test_resultant_over_q(f, g, dens):
    f = [Fraction(c, d) for c, d in zip(f, dens)]
    g = [Fraction(c, d) for c, d in zip(g, dens[7:])]
    _check(f, g, Fraction(1))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 3), (5, 1), (7, 2), (43, 3)]), st.data())
def test_resultant_over_finite_fields(params, data):
    F = FiniteField(*params)
    element = st.lists(st.integers(0, F.p - 1), min_size=F.d, max_size=F.d).map(F.element)
    f = data.draw(st.lists(element, min_size=1, max_size=7))
    g = data.draw(st.lists(element, min_size=1, max_size=7))
    _check(f, g, F.one())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.data())
def test_resultant_over_cyclotomic_fields(n, data):
    phi = euler_phi(n)
    element = st.lists(st.integers(-4, 4), min_size=phi, max_size=phi).map(
        lambda cs: CycloElement(n, cs)
    )
    f = data.draw(st.lists(element, min_size=1, max_size=5))
    g = data.draw(st.lists(element, min_size=1, max_size=5))
    _check(f, g, CycloElement(n, [1]))

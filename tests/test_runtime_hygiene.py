"""Static checks on every runtime module of augvar.

Verification must not rest on ``assert``, which ``python -O`` strips, and
the runtime imports nothing beyond the standard library and itself: the
benchmark, the tests and the sympy/hypothesis oracles stay outside it.
Randomness is the command line's alone: only ``cli`` imports ``random``
or takes a ``seed``, for the hint of a DoubleRoot report.  Every function
and class of the runtime has a caller outside the tests, or is a
documented entry point.
"""

import ast
import pathlib
import re
import sys

import pytest

import augvar

MODULES = sorted(pathlib.Path(augvar.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _asserts(tree):
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]


def _absolute_imports(tree):
    """(line, module) for each absolute import."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module))
    return out


def _foreign_imports(tree):
    """(line, module) for each absolute import outside the standard
    library and augvar."""
    return [(line, name) for line, name in _absolute_imports(tree)
            if name.split(".")[0] != "augvar"
            and name.split(".")[0] not in sys.stdlib_module_names]


def _imported_modules(tree):
    """Top-level names of the modules imported absolutely."""
    return {name.split(".")[0] for _, name in _absolute_imports(tree)}


def _seed_parameters(tree):
    """(line, function) for each function or lambda with a parameter
    named ``seed``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + \
                [p for p in (a.vararg, a.kwarg) if p is not None]
            if any(p.arg == "seed" for p in params):
                out.append((node.lineno, getattr(node, "name", "<lambda>")))
    return out


def _augvar_modules(tree):
    """Names of the augvar modules imported, relatively or absolutely."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["augvar" if node.level else None,
                                            node.module]))
            names = ([module + "." + alias.name for alias in node.names]
                     if module == "augvar" else [module])
        else:
            continue
        out.update(name.split(".")[1] for name in names
                   if name.startswith("augvar."))
    return out


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"rings", "polytope", "augment", "cli"}


def test_checks_catch_violations():
    tree = ast.parse("import os, sympy\n"
                     "from perfbench import oracles\n"
                     "from . import rings\n"
                     "from augvar.errors import DoubleRoot\n"
                     "def f():\n"
                     "    import hypothesis.strategies\n"
                     "    assert True\n")
    assert _foreign_imports(tree) == [(1, "sympy"), (2, "perfbench"),
                                      (6, "hypothesis.strategies")]
    assert _asserts(tree) == [7]


def test_randomness_checks_catch_violations():
    tree = ast.parse("import os.path\n"
                     "from random import Random\n"
                     "def f(n, *, seed=0):\n"
                     "    g = lambda seed: seed\n"
                     "def h(*seed): pass\n"
                     "def k(rng): pass\n")
    assert _imported_modules(tree) == {"os", "random"}
    assert sorted(_seed_parameters(tree)) == [(3, "f"), (4, "<lambda>"), (5, "h")]


NON_CLI_MODULES = [p for p in MODULES if p.name != "cli.py"]


@pytest.mark.parametrize("path", NON_CLI_MODULES, ids=lambda p: p.name)
def test_only_the_cli_imports_random(path):
    assert "random" not in _imported_modules(_tree(path))


@pytest.mark.parametrize("path", NON_CLI_MODULES, ids=lambda p: p.name)
def test_only_the_cli_takes_a_seed(path):
    assert _seed_parameters(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert _asserts(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_augvar(path):
    assert _foreign_imports(_tree(path)) == []


def test_augvar_imports_are_read():
    tree = ast.parse("from . import rings\n"
                     "from .errors import DoubleRoot\n"
                     "from augvar.intlin import det\n"
                     "from augvar import cli\n"
                     "import augvar.augment, os\n")
    assert _augvar_modules(tree) == {"rings", "errors", "intlin", "cli", "augment"}


def test_polytope_imports_nothing_from_laurent():
    # laurent.clear_to_vertex builds on polytope.newton_polytope, so an
    # import back from laurent would close a cycle
    path = pathlib.Path(augvar.__file__).parent / "polytope.py"
    assert "laurent" not in _augvar_modules(_tree(path))


DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")


def _defined_names(tree):
    """(line, name) for each function and class that is not a dunder."""
    return [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _named(tree):
    """Every name the code refers to: names, attributes, the parts of
    imported names, and the parts of string constants that are dotted
    names, such as the ``"LatticePolytope.from_points"`` that the
    benchmark's tracer wraps by."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
            out.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.match(node.value):
            out.update(node.value.split("."))
    return out


def _uncalled(modules, users, readme):
    """(module, line, name) for each function or class defined in the
    ``modules`` trees (a dict by module name) that no tree in ``users``
    names and no backticked span of the ``readme`` text mentions."""
    named = set().union(*map(_named, users))
    named.update(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", readme))))
    return [(module, line, name) for module, tree in sorted(modules.items())
            for line, name in _defined_names(tree) if name not in named]


def test_caller_check_catches_a_dead_function():
    module = ast.parse("def used(): pass\n"
                       "def dead(): pass\n"
                       "def documented(): pass\n"
                       "class Traced:\n"
                       "    def method(self): pass\n"
                       "    def spare(self): pass\n"
                       "    def __eq__(self, other): pass\n")
    user = ast.parse("from m import used as u\n"
                     "SPANS = ['m.Traced.method']\n")
    readme = "Entry points: `documented(x)`; dead is named outside backticks.\n"
    assert _uncalled({"m": module}, [user], readme) == [("m", 2, "dead"), ("m", 6, "spare")]


def test_public_names_have_a_caller():
    """Each function and class of the runtime is named by code under
    ``src/``, ``perfbench/`` or ``demos/``, or listed in the README.

    A name counts as used wherever it occurs as an identifier, so a method
    that shares its name with a local variable escapes the scan, as
    ``AugmentationSeries.point`` did beside the ``point`` variables of
    the library; dunder methods and dataclass fields are not checked.
    """
    users = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) \
        + sorted((ROOT / "demos").glob("*.py"))
    modules = {path.name: _tree(path) for path in MODULES}
    readme = (ROOT / "README.md").read_text()
    assert _uncalled(modules, [_tree(path) for path in users], readme) == []

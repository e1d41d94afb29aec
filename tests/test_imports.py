"""Every name bound by a top-level import of a library module is used
there, only numcore names the Horner loop beneath ``poly_eval``, the
hypergeometric route and the recurrence tables share no step, the right
sides of the generating identities do not read the recurrence, no library
module names mpmath, the tests' high-precision oracle, and none names
numpy's ``polynomial`` package, whose Gauss-Legendre rule the library
computes itself."""

import ast
from pathlib import Path

import pytest

import paritywilson

MODULES = sorted(path for path in Path(paritywilson.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` (``__future__``
    aside) that no expression of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_an_orphaned_import_is_found():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from math import pi, tau as t\n\ndef f() -> np.ndarray:\n    return pi\n")
    assert unused_imports(source) == ["os", "t"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def names_in(source: str) -> set[str]:
    """Every name, attribute and imported name that ``source`` mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_only_numcore_names_the_horner_loop():
    # poly_eval is the one evaluator of the exact polynomials; every other
    # module goes through it
    package = Path(paritywilson.__file__).parent
    naming = sorted(path.name for path in package.glob("*.py")
                    if "_horner" in names_in(path.read_text(encoding="utf-8")))
    assert naming == ["numcore.py"]


def test_the_hypergeometric_route_does_not_name_the_fused_step():
    # the hypergeometric tables are the oracle of the recurrence tables: they
    # nest their sum by the Horner kernel _mul_add, the recurrence steps by
    # _three_term, and neither route names the other's step
    package = Path(paritywilson.__file__).parent
    naming = {"_three_term": set(), "_mul_add": set()}
    hypergeometric = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                names = names_in(ast.unparse(node))
                for step, callers in naming.items():
                    if step in names:
                        callers.add(node.name)
                if "hypergeometric" in node.name:
                    hypergeometric.add(node.name)
    assert hypergeometric >= {"_hypergeometric", "monic_from_hypergeometric"}
    assert not naming["_three_term"] & hypergeometric
    assert naming["_three_term"] == {"_recurrence_table"}  # the step's one caller
    assert "_hypergeometric" in naming["_mul_add"]
    assert not naming["_mul_add"] & {"_recurrence_table", "_three_term"}


def test_the_generating_function_right_sides_do_not_name_the_recurrence():
    # the right sides of the generating identities are built from the weight's
    # parameters alone; the left side reads the recurrence table they verify
    source = (Path(paritywilson.__file__).parent / "wilson.py").read_text(encoding="utf-8")
    helpers = {node.name: names_in(ast.unparse(node)) for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)
               and node.name in ("_genfun_rhs", "_pochhammer_pairs")}
    assert len(helpers) == 2
    assert "_pochhammer_pairs" in helpers["_genfun_rhs"]
    for name, names in helpers.items():
        assert not names & {"standard_recurrence_terms", "_three_term", "_recurrence_table",
                            "monic_from_recurrence"}, name


def module_mentions(source: str, module: str) -> list[str]:
    """The places where ``source`` names the module at the dotted path
    ``module``: an import of it or of a name in it, a name that is its path,
    an attribute that is its last component, or a string constant that is
    its path or a dotted path in it (prose that mentions it is not a
    lookup)."""
    def in_module(path) -> bool:
        return isinstance(path, str) and (path == module or path.startswith(module + "."))

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Name):
            paths = [node.id]
        elif isinstance(node, ast.Attribute):
            paths = [module] if node.attr == module.rpartition(".")[2] else []
        elif isinstance(node, ast.Constant):
            paths = [node.value]
        else:
            continue
        if any(map(in_module, paths)):
            found.append(f"{type(node).__name__} at line {node.lineno}")
    return found


def test_every_way_of_naming_mpmath_is_found():
    source = ('"""Docstrings may say mpmath."""\nimport sys\nimport mpmath.libmp\n'
              'from mpmath import mpf as m\n'
              'def f(x, y=mpmath):\n    return sys.modules.get("mpmath"), x.mpmath\n')
    assert sorted(module_mentions(source, "mpmath")) == [
        "Attribute at line 6", "Constant at line 6", "Import at line 3",
        "ImportFrom at line 4", "Name at line 5"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_library_module_names_mpmath(path):
    # mpmath is the tests' oracle only; a lookup in sys.modules would switch
    # arithmetic on whenever the caller had loaded it, which the runtime
    # check with mpmath blocked cannot see
    assert module_mentions(path.read_text(encoding="utf-8"), "mpmath") == []


def test_every_way_of_naming_numpy_polynomial_is_found():
    source = ('"""Docstrings may say numpy.polynomial."""\nimport numpy as np\n'
              'import numpy.polynomial.legendre\nfrom numpy import polynomial\n'
              'from numpy.polynomial import legendre as leg\n'
              'rule = np.polynomial.legendre.leggauss(3)\n'
              'module = __import__("numpy.polynomial")\npolynomial = 1\n')
    assert sorted(module_mentions(source, "numpy.polynomial")) == [
        "Attribute at line 6", "Constant at line 7", "Import at line 3",
        "ImportFrom at line 4", "ImportFrom at line 5"]


@pytest.mark.parametrize("path", sorted(Path(paritywilson.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_library_module_names_numpy_polynomial(path):
    # importing numpy.polynomial costs every fresh process 3-5 ms; the
    # measures' Gauss-Legendre rule runs its algorithm in expand._nodes
    assert module_mentions(path.read_text(encoding="utf-8"), "numpy.polynomial") == []

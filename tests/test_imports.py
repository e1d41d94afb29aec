"""Every name bound by a top-level import of a library module is used
there, only numcore names the Horner loop beneath ``poly_eval``, and the
hypergeometric route never names the recurrence tables' fused step."""

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
    # the hypergeometric tables are the oracle of the recurrence tables, so
    # they keep the generic products and never share the fused step
    package = Path(paritywilson.__file__).parent
    naming, hypergeometric = set(), set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                if "_three_term" in names_in(ast.unparse(node)):
                    naming.add(node.name)
                if "hypergeometric" in node.name:
                    hypergeometric.add(node.name)
    assert hypergeometric >= {"_case_a_hypergeometric", "_case_b_hypergeometric_symbolic",
                              "monic_from_hypergeometric"}
    assert not naming & hypergeometric
    assert naming == {"_recurrence_table"}  # the step's one caller

"""The engine boundary, read from the source.

Past the catalog every constant matrix (an algebra element, a group
element and its inverse, a commutator of two basis matrices) is an integer
``IntPolyMat`` or integer rows.  A ``Fraction`` ``Mat`` is left only at the
boundary: the catalog's basis input, which ``GradedAlgebra`` reads once
into its integer coordinate frame (``rref`` rows, not ``Mat``s), and a
user's group matrix, which ``catalog.group_elem`` validates, inverts and
makes integral once.  So the algebra, curve, lab, reparametrization and
suite modules name no ``Mat``, and no module converts a matrix from one
form to the other except that one boundary call.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "parageo"

INTEGER_MODULES = ("algebra.py", "curves.py", "lab.py", "reparam.py", "suite.py")


def _names(module):
    """(line, name) of every name and attribute read in ``module``, and of
    every name it imports."""
    tree = ast.parse((SRC / module).read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            out.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((node.lineno, alias.name.rpartition(".")[2]) for alias in node.names)
    return out


@pytest.mark.parametrize("module", INTEGER_MODULES)
def test_integer_modules_use_no_fraction_matrix(module):
    bad = [(line, name) for line, name in _names(module) if name in ("Mat", "from_mats", "const_mat")]
    assert bad == []


def test_from_mats_only_at_the_catalog_boundary():
    uses = {
        path.name: [line for line, name in _names(path.name) if name in ("from_mats", "const_mat")]
        for path in sorted(SRC.glob("*.py"))
    }
    # one conversion, in catalog.group_elem
    assert [(m, len(lines)) for m, lines in uses.items() if lines] == [("catalog.py", 1)]

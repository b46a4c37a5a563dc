"""Three boundaries of the source tree, read from the source, and the
engine boundary run end to end.

The engine boundary.  Every matrix of the package, constant or
polynomial (a catalog basis matrix, an algebra element, a group element
and its inverse, a commutator of two basis matrices, a curve), is an
integer ``IntPolyMat`` or integer entries; the catalog builds each basis
matrix as its integer entries, and ``GradedAlgebra`` reads them into its
integer coordinate frame (``rref`` rows, not ``Mat``s).  So every module
but ``matrices.py`` names no ``Mat``, nothing in the package converts a
``Mat`` to the integer engine, and no command of the command line
constructs a ``Mat`` at all.  A user's group matrix, and the conversion
from a ``Fraction`` ``Mat``, live with the tests (``paper_checks.py``,
``poly_reference.py``).

The test-code boundary.  Every module-level function and class of the
package, and every method other than a dunder, is reached from the
command line or the scripts, or is listed in ``UNCALLED`` with the reason
it stays.  A check that only the tests run lives under ``tests/``
(``paper_checks.py``), not in the package.

The exactness boundary.  Every true division of the package is listed in
``DIVISIONS`` with the reason an operand is a ``Fraction`` (or a
``GaussianRational``), so that the quotient is exact and never a float.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "parageo"

INTEGER_MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "matrices.py")


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


# The modules that still read a name from ``poly``; the deletion of
# ``Poly`` (ROADMAP item 19) can only shorten this list.
POLY_READERS = ["_fastgrid.py", "curves.py", "reparam.py", "suite.py"]


def _imported_modules(tree):
    """The package modules that ``tree`` imports from, by their last name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in (None, "parageo"):
                yield from (a.name for a in node.names)
            else:
                yield node.module.rpartition(".")[2]
        elif isinstance(node, ast.Import):
            yield from (a.name.rpartition(".")[2] for a in node.names)


def test_only_the_listed_modules_read_poly():
    paths = sorted(SRC.glob("*.py"))
    readers = [p.name for p in paths if "poly" in _imported_modules(ast.parse(p.read_text()))]
    assert readers == POLY_READERS


# Every command of the command line, with Mat.__init__ patched to raise: each
# config runs through cli.run and both formats of cli.emit.  A fresh process,
# so that no algebra cached by another test was built before the patch.
_NO_MAT_RUN = """
import sys
import parageo.matrices

def refuse(self, rows):
    raise AssertionError("a Mat was constructed")

parageo.matrices.Mat.__init__ = refuse

from parageo.cli import ExperimentConfig, emit, run

configs = [dict(command="catalog")]
configs += [
    dict(command="verify", algebra=cid, suite="all")
    for cid in ("proj(1)", "grass(1,2)", "conf(1,1)", "lagr3", "su21", "xxdot")
]
configs += [
    dict(command="jets", algebra="lagr3", grid=1),
    dict(command="jets", algebra="su21", type_spec="grade(-1)", grid=1),
    dict(command="fiber", algebra="conf(1,1)", grid=1),
    dict(command="family", algebra="lagr3", type_spec="grade(-1)", grid=1),
    dict(command="reparam", algebra="proj(1)"),
    dict(command="reparam", algebra="lagr3"),
    dict(command="classify", algebra="xxdot", grid=1),
]
for kwargs in configs:
    report, code = run(ExperimentConfig(**kwargs))
    assert code == 0, kwargs
    for fmt in ("json", "md"):
        emit(report, fmt)
print(len(configs))
"""


def test_no_command_constructs_a_mat():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MAT_RUN], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["14"]


# Definitions that nothing in src/ or scripts/ reaches, with the reason each
# stays.  A listed name does not reach what it calls: those need entries.  A
# listed class is checked as a whole, its methods with it.
UNCALLED = {
    "lab.solve_direction": "parabench times it as a span; it goes with that span",
    "lab.verify_prop41_claim": "the Prop. 4.1 claim check, due as a verify suite "
    "family; run by --suite all it would slow every lemma run",
    "lab.Prop41Report": "the report of verify_prop41_claim",
    "lab._ad_exp": "the conjugation helper of verify_prop41_claim",
    "algebra.GroupElem.inverse": "the inverse that solve_direction conjugates by",
    "matrices.Mat": "the matrix type of the test references and of the tests' group "
    "matrices; parabench counts its det and __mul__ and times its inverse",
    "matrices._dot": "the entry product of Mat.__mul__",
    "scalars.GaussianRational": "the su21 determinant of the tests' group-membership "
    "check; parabench counts its __mul__",
    "scalars._coerce": "an operand helper of GaussianRational",
    "scalars.scalar_str": "the string form of GaussianRational",
}


def _units(module, tree):
    """("module.name", node) of every module-level def and class, and
    ("module.Class.name", node) of every method but a dunder; a class of
    ``UNCALLED`` stays whole."""
    for st in tree.body:
        if isinstance(st, (ast.FunctionDef, ast.ClassDef)):
            name = "%s.%s" % (module, st.name)
            yield name, st
            if isinstance(st, ast.ClassDef) and name not in UNCALLED:
                for f in st.body:
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("__"):
                        yield "%s.%s" % (name, f.name), f


def _reach():
    """(every unit of ``_units``, those reached).

    Module-level code outside a def or class (tables, the CLI's main guard)
    and the scripts are the roots.  A unit reaches what its body reads; a
    class's body is its code outside those methods, so its dunders, which
    run implicitly, count with it.  A bare name resolves to its module's
    own definition or to one it imports from another package module.  An
    attribute read resolves to every method of that name, whatever its
    class, since the receiver's type is not known.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    units = {name: node for m, tree in trees.items() for name, node in _units(m, tree)}
    nested = set(units.values())  # a body's walk stops at the units inside it
    methods = {}  # method name -> its units
    for name in units:
        if name.count(".") == 2:
            methods.setdefault(name.rpartition(".")[2], set()).add(name)

    def scope(module, tree):
        names = {st.name: "%s.%s" % (module, st.name) for st in tree.body
                 if isinstance(st, (ast.FunctionDef, ast.ClassDef))}
        for imp in ast.walk(tree):
            if isinstance(imp, ast.ImportFrom) and (imp.level or imp.module.startswith("parageo.")):
                home = (imp.module or "").rpartition(".")[2]
                names.update((a.asname or a.name, "%s.%s" % (home, a.name)) for a in imp.names)
        return names

    def reads(names, node):
        out, todo = set(), [node]
        while todo:
            n = todo.pop()
            if isinstance(getattr(n, "ctx", None), ast.Load):
                if isinstance(n, ast.Name):
                    out.add(names.get(n.id))
                elif isinstance(n, ast.Attribute):
                    out.update(methods.get(n.attr, ()))
            todo.extend(c for c in ast.iter_child_nodes(n) if c not in nested)
        return out & units.keys()

    todo, edges = [], {}
    for m, tree in trees.items():
        names = scope(m, tree)
        edges.update((name, reads(names, node) - {name}) for name, node in _units(m, tree))
        todo.extend(reads(names, tree))
    for path in (ROOT / "scripts").glob("*.py"):
        tree = ast.parse(path.read_text())
        todo.extend(reads(scope(path.stem, tree), tree))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(edges[name])
    return set(units), reached


def test_every_package_name_is_reached_or_listed():
    defs, reached = _reach()
    assert sorted(defs - reached - set(UNCALLED)) == []


def test_uncalled_lists_only_unreached_definitions():
    defs, reached = _reach()
    assert sorted(set(UNCALLED) - (defs - reached)) == []


# Every true division of the package, as (module, enclosing definition, the
# division's source), with the reason its quotient is exact: an int over an
# int would be a float.
DIVISIONS = {
    ("matrices.py", "rref", "x / lead"): "an int lead is made a Fraction just above; "
    "any other lead is already a Fraction",
    ("matrices.py", "echelon", "a / lead"): "lead = Fraction(rest[c])",
    ("reparam.py", "MobiusMap.__post_init__", "a / scale"): "a, b, c, d are made Fractions "
    "on entry, and scale is d or c",
    ("reparam.py", "MobiusMap.__post_init__", "b / scale"): "as a / scale",
    ("reparam.py", "MobiusMap.__post_init__", "c / scale"): "as a / scale",
    ("reparam.py", "MobiusMap.__post_init__", "d / scale"): "as a / scale",
    ("reparam.py", "MobiusMap.from_seeds", "-b / (2 * a)"): "a = Fraction(velocity) and "
    "b = Fraction(acceleration)",
    ("reparam.py", "MobiusMap.seeds", "self.b / self.d"): "__post_init__ stores "
    "Fraction coefficients",
    ("reparam.py", "MobiusMap.seeds", "det / (self.d * self.d)"): "det is a * d - b * c "
    "of the Fraction coefficients",
    ("reparam.py", "MobiusMap.seeds", "-2 * self.c * det / self.d ** 3"): "as "
    "det / (self.d * self.d)",
    ("reparam.py", "_proportionality", "cx / cr"): "AlgElem coordinates are Fractions: "
    "elem, elem_at, express, bracket_coords and the element arithmetic build them so",
    ("scalars.py", "GaussianRational.__truediv__", "(self.re * other.re + self.im * other.im) / n"):
    "GaussianRational parts are made Fractions in __init__, so n is a Fraction",
    ("scalars.py", "GaussianRational.__truediv__", "(self.im * other.re - self.re * other.im) / n"):
    "as the real part",
    ("scalars.py", "GaussianRational.__rtruediv__", "other / self"): "other is coerced to "
    "a GaussianRational, so this is GaussianRational.__truediv__",
}


def _divisions():
    """(module, enclosing definition, source) of every true division
    (``/`` and ``/=``) in the package; a definition is dotted into its
    class, and module-level code has ``None``."""
    out = set()

    def visit(module, node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                out.add((module, where, ast.unparse(child)))
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where is None else "%s.%s" % (where, child.name)
            visit(module, child, inner)

    for path in SRC.glob("*.py"):
        visit(path.name, ast.parse(path.read_text()), None)
    return out


def test_every_division_is_listed_with_its_reason():
    found = _divisions()
    assert sorted(found - DIVISIONS.keys(), key=str) == []
    assert sorted(DIVISIONS.keys() - found, key=str) == []

"""Two boundaries of the source tree, read from the source, and the
engine boundary run end to end.

The engine boundary.  Every constant matrix (a catalog basis matrix, an
algebra element, a group element and its inverse, a commutator of two basis
matrices) is an integer ``IntPolyMat`` or integer entries; the catalog
builds each basis matrix as its integer entries, and ``GradedAlgebra``
reads them into its integer coordinate frame (``rref`` rows, not ``Mat``s).
A ``Fraction`` ``Mat`` is left only at the user group-matrix boundary:
``catalog.group_elem`` validates, inverts and makes integral a user's
matrix once, and ``validate_group_matrix`` builds the ``Mat`` of an
invariant form when called.  So the integer engine, algebra, curve, lab,
reparametrization and suite modules name no ``Mat``, no module converts a
matrix from one form to the other except that one boundary call, and no
command of the command line constructs a ``Mat`` at all.

The test-code boundary.  Every module-level function and class of the
package is reached from the command line or the scripts, or is listed in
``UNCALLED`` with the reason it stays.  A check that only the tests run
lives under ``tests/`` (``paper_checks.py``), not in the package.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "parageo"

INTEGER_MODULES = ("_fastgrid.py", "algebra.py", "curves.py", "lab.py", "reparam.py", "suite.py")


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


# Module-level names that nothing in src/ or scripts/ reaches, with the reason
# each stays.  A listed name does not reach what it calls: those need entries.
UNCALLED = {
    "lab.solve_direction": "parabench times it as a span; it goes with that span",
    "lab.verify_prop41_claim": "the Prop. 4.1 claim check, due as a verify suite "
    "family; run by --suite all it would slow every lemma run",
    "lab.Prop41Report": "the report of verify_prop41_claim",
    "lab._ad_exp": "the conjugation helper of verify_prop41_claim",
    "catalog.group_elem": "the one entry for a user's group matrix; parabench "
    "times the Mat.inverse and Mat.det it reaches",
    "catalog.validate_group_matrix": "the membership test of group_elem",
    "catalog._mat": "the Fraction Mat of an invariant form, for validate_group_matrix",
    "matrices.Mat": "the user group-matrix form of group_elem and the oracles' type; "
    "parabench counts its det and __mul__ and times its inverse",
    "matrices._dot": "the entry product of Mat.__mul__",
    "scalars.GaussianRational": "the su21 determinant of validate_group_matrix; "
    "parabench counts its __mul__",
    "scalars._coerce": "an operand helper of GaussianRational",
    "scalars.scalar_str": "the string form of GaussianRational",
}


def _reach():
    """(every module-level def and class as "module.name", those reached).

    Module-level code outside a def or class (tables, the CLI's main guard)
    and the scripts are the roots; a def reaches the names its body reads.
    A bare name resolves to its module's own definition or to one it
    imports from another package module.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    defs = {"%s.%s" % (m, st.name) for m, tree in trees.items() for st in tree.body
            if isinstance(st, (ast.FunctionDef, ast.ClassDef))}

    def scope(module, tree):
        names = {d.partition(".")[2]: d for d in defs if d.startswith(module + ".")}
        for imp in ast.walk(tree):
            if isinstance(imp, ast.ImportFrom) and (imp.level or imp.module.startswith("parageo.")):
                home = (imp.module or "").rpartition(".")[2]
                names.update((a.asname or a.name, "%s.%s" % (home, a.name)) for a in imp.names)
        return names

    def reads(names, node):
        loads = (n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
        return defs & {names.get(n) for n in loads}

    todo, edges = [], {}
    for m, tree in trees.items():
        names = scope(m, tree)
        for st in tree.body:
            name = "%s.%s" % (m, getattr(st, "name", ""))
            if name in defs:
                edges[name] = reads(names, st) - {name}
            else:
                todo.extend(reads(names, st))
    for path in (ROOT / "scripts").glob("*.py"):
        tree = ast.parse(path.read_text())
        todo.extend(reads(scope(path.stem, tree), tree))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(edges[name])
    return defs, reached


def test_every_package_name_is_reached_or_listed():
    defs, reached = _reach()
    assert sorted(defs - reached - set(UNCALLED)) == []


def test_uncalled_lists_only_unreached_definitions():
    defs, reached = _reach()
    assert sorted(set(UNCALLED) - (defs - reached)) == []

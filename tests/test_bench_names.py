"""Every name the benchmark tracer wraps still exists in parageo.

``parabench/spans.py`` wraps functions and methods by (module, attribute
path); a name that no longer resolves is skipped at run time and its
per-layer metrics read null.  This test reads the name tables from that
file's source (it neither imports nor edits it) and resolves each entry
the way the tracer does: through the owner's ``__dict__``.
"""

import ast
import importlib
import pathlib

import pytest

SPANS_PY = pathlib.Path(__file__).resolve().parents[1] / "parabench" / "spans.py"
TABLES = ("SPANS", "COUNTS", "PAIR_LOOP", "GRID_KERNEL", "GRID_KERNEL_METHODS")


def _tables():
    found = {}
    for node in ast.parse(SPANS_PY.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                found[name] = ast.literal_eval(node.value)
    assert sorted(found) == sorted(TABLES)
    return found


def _wrapped_names():
    t = _tables()
    out = [(mod, path) for _, mod, path in t["SPANS"] + t["COUNTS"]]
    out += [t["PAIR_LOOP"], t["GRID_KERNEL"]]
    out += [("parageo._fastgrid", "GridKernel." + meth) for meth in t["GRID_KERNEL_METHODS"]]
    return out


@pytest.mark.parametrize("modname,path", _wrapped_names(), ids=lambda v: v)
def test_wrapped_name_resolves(modname, path):
    module = importlib.import_module(modname)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in vars(owner), "%s.%s is gone" % (modname, path)

"""Span and count wrappers installed around parageo's public functions.

Nothing here edits parageo: ``install`` replaces each wrapped name in every
``parageo`` module that holds it (``lab`` imports ``group_exp`` and
``grid_kernel`` by name, for example) and on the class for methods.  Spans
are aggregated in memory per name (calls, total seconds, self seconds =
span time minus the time of its child spans) and handed back when the run
ends.  Hot arithmetic methods get counts only, because timing them would
distort the trace.  A name that no longer exists is listed in ``missing``
instead of failing the run.
"""

import functools
import sys
from time import perf_counter

# (metric prefix, module, attribute path) of every timed span.
SPANS = [
    ("catalog.make_algebra", "parageo.catalog", "make_algebra"),
    ("matrices.Mat.inverse", "parageo.matrices", "Mat.inverse"),
    ("matrices.rref", "parageo.matrices", "rref"),
    ("algebra.structure_violations", "parageo.algebra", "GradedAlgebra.structure_violations"),
    ("algebra.express", "parageo.algebra", "GradedAlgebra.express"),
    ("algebra.express_poly", "parageo.algebra", "GradedAlgebra.express_poly"),
    ("algebra.exp_nilpotent", "parageo.algebra", "exp_nilpotent"),
    ("algebra.group_exp", "parageo.algebra", "group_exp"),
    ("suite.lemma_suite", "parageo.suite", "lemma_suite"),
    ("curves.comparison", "parageo.curves", "comparison"),
    ("curves.normal_coord_jet", "parageo.curves", "normal_coord_jet"),
    ("lab.solve_direction", "parageo.lab", "solve_direction"),
    ("lab.min_jet_order_search", "parageo.lab", "min_jet_order_search"),
    ("lab.family_dimension", "parageo.lab", "family_dimension"),
    ("lab.orbit_hull_dimension", "parageo.lab", "orbit_hull_dimension"),
    ("lab.standard_fiber", "parageo.lab", "standard_fiber"),
    ("reparam.reparam_solve", "parageo.reparam", "reparam_solve"),
    ("reparam.verify_reparam", "parageo.reparam", "verify_reparam"),
    ("cli.emit", "parageo.cli", "emit"),
]

# Every public GridKernel method shares one span, so its self time is the
# whole integer kernel's.
GRID_KERNEL_METHODS = (
    "__init__",
    "combo_rows",
    "exp_pair",
    "elem_coords",
    "solve_direction",
    "conj",
    "pair_jet_order",
    "curves_equal",
)

# (metric prefix, module, attribute path) of every call counter.
COUNTS = [
    ("matrices.Mat.det", "parageo.matrices", "Mat.det"),
    ("matrices.Mat.__mul__", "parageo.matrices", "Mat.__mul__"),
    ("poly.Poly.__mul__", "parageo.poly", "Poly.__mul__"),
    ("scalars.GaussianRational.__mul__", "parageo.scalars", "GaussianRational.__mul__"),
    ("algebra.bracket", "parageo.algebra", "bracket"),
    ("curves.jet_equal", "parageo.curves", "jet_equal"),
    ("curves.curves_equal", "parageo.curves", "curves_equal"),
    ("fastgrid.GridKernel.exp_pair", "parageo._fastgrid", "GridKernel.exp_pair"),
]

PAIR_LOOP = ("parageo.lab", "_iter_pair_stats")
GRID_KERNEL = ("parageo._fastgrid", "grid_kernel")


class Tracer:
    """In-memory span aggregates for one process."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {}
        self._stack = []  # child-time accumulator of each open span
        self.root_s = 0.0  # time inside spans opened with no span open
        self.missing = []
        self.kernel_results = 0  # grid_kernel calls that returned a kernel
        self.none_results = 0  # grid_kernel calls that returned None
        # pair loop: [pairs, admissible, seconds] per engine
        self.pairs = {"kernel": [0, 0, 0.0], "generic": [0, 0, 0.0]}
        self.jets_pairs = {"kernel": 0, "generic": 0}
        self._in_jets = 0

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self):
        self._stack.append(0.0)
        return perf_counter()

    def _leave(self, name, t0):
        dt = perf_counter() - t0
        child = self._stack.pop()
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child
        if self._stack:
            self._stack[-1] += dt
        else:
            self.root_s += dt
        return dt

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, t0)

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- special wrappers ----------------------------------------------------

    def jets_span(self, name, fn):
        """min_jet_order_search: also marks its pair loops as jets pairs."""
        inner = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._in_jets += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._in_jets -= 1

        return wrapper

    def grid_kernel(self, fn):
        inner = self.span("fastgrid.GridKernel", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kern = inner(*args, **kwargs)
            if kern is None:
                self.none_results += 1
            else:
                self.kernel_results += 1
            return kern

        return wrapper

    def pair_loop(self, fn):
        """Time each step of the pair generator and tag it with its engine."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            kernels_before = self.kernel_results
            stats = None
            while True:
                t0 = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    dt = self._leave("lab.pair_loop", t0)
                    if stats is not None:
                        stats[2] += dt
                    return
                except BaseException:
                    self._leave("lab.pair_loop", t0)
                    raise
                dt = self._leave("lab.pair_loop", t0)
                if stats is None:
                    # grid_kernel runs inside the first step
                    engine = "kernel" if self.kernel_results > kernels_before else "generic"
                    stats = self.pairs[engine]
                stats[0] += 1
                stats[2] += dt
                if item[2] is not None:
                    stats[1] += 1
                if self._in_jets:
                    self.jets_pairs[engine] += 1
                yield item

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every listed name; record the ones that no longer exist."""
        for name, modname, path in SPANS:
            make = self.jets_span if name == "lab.min_jet_order_search" else self.span
            self._patch(name, modname, path, lambda fn, n=name, m=make: m(n, fn))
        for name, modname, path in COUNTS:
            self._patch(name, modname, path, lambda fn, n=name: self.counter(n, fn))
        self._patch("lab.pair_loop", *PAIR_LOOP, self.pair_loop)
        self._patch("fastgrid.grid_kernel", *GRID_KERNEL, self.grid_kernel)
        for meth in GRID_KERNEL_METHODS:
            self._patch(
                "fastgrid.GridKernel",
                "parageo._fastgrid",
                "GridKernel." + meth,
                lambda fn: self.span("fastgrid.GridKernel", fn),
            )

    def _patch(self, name, modname, path, make_wrapper):
        module = sys.modules.get(modname)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        orig = owner.__dict__.get(attr) if owner is not None else None
        if orig is None:
            if name not in self.missing:
                self.missing.append(name)
            return
        wrapped = make_wrapper(orig)
        if owner_name:
            setattr(owner, attr, wrapped)
            return
        for modname2, mod in list(sys.modules.items()):
            if modname2 != "parageo" and not modname2.startswith("parageo."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    # -- results -------------------------------------------------------------

    def snapshot(self):
        return {
            "spans": {k: list(v) for k, v in sorted(self.spans.items())},
            "counts": dict(sorted(self.counts.items())),
            "root_s": self.root_s,
            "missing": list(self.missing),
            "grid_kernel": {"kernel": self.kernel_results, "none": self.none_results},
            "pairs": {k: list(v) for k, v in self.pairs.items()},
            "jets_pairs": dict(self.jets_pairs),
        }

"""The traced run: one untraced and one traced pass, and the per-layer metrics.

Every name in PER_LAYER is reported for every workload.  A metric whose
wrapped function no longer exists has the value null.  Ratios with nothing
to divide (no grid pairs on ``lemmas``) read 0.
"""

import json
import pathlib

import check

# (metric name, unit, better); BENCHMARK.json lists the same metrics.
PER_LAYER = [
    ("catalog.make_algebra.calls", "count", "lower"),
    ("catalog.make_algebra.self_s", "s", "lower"),
    ("matrices.Mat.inverse.calls", "count", "lower"),
    ("matrices.Mat.inverse.self_s", "s", "lower"),
    ("matrices.Mat.det.calls", "count", "lower"),
    ("algebra.structure_violations.self_s", "s", "lower"),
    ("algebra.express_poly.calls", "count", "lower"),
    ("algebra.express_poly.self_s", "s", "lower"),
    ("algebra.exp_nilpotent.calls", "count", "lower"),
    ("algebra.exp_nilpotent.self_s", "s", "lower"),
    ("suite.lemma_suite.self_s", "s", "lower"),
    ("suite.checks", "count", "higher"),
    ("curves.comparison.calls", "count", "lower"),
    ("curves.comparison.self_s", "s", "lower"),
    ("curves.normal_coord_jet.calls", "count", "lower"),
    ("curves.normal_coord_jet.self_s", "s", "lower"),
    ("curves.jet_equal.calls", "count", "lower"),
    ("curves.curves_equal.calls", "count", "lower"),
    ("poly.Poly.__mul__.calls", "count", "lower"),
    ("scalars.GaussianRational.__mul__.calls", "count", "lower"),
    ("matrices.Mat.__mul__.calls", "count", "lower"),
    ("matrices.rref.calls", "count", "lower"),
    ("matrices.rref.self_s", "s", "lower"),
    ("algebra.express.calls", "count", "lower"),
    ("algebra.express.self_s", "s", "lower"),
    ("algebra.group_exp.calls", "count", "lower"),
    ("algebra.group_exp.self_s", "s", "lower"),
    ("algebra.bracket.calls", "count", "lower"),
    ("lab.solve_direction.calls", "count", "lower"),
    ("lab.solve_direction.self_s", "s", "lower"),
    ("fastgrid.GridKernel.exp_pair.calls", "count", "lower"),
    ("fastgrid.GridKernel.self_s", "s", "lower"),
    ("fastgrid.grid_kernel.kernel", "count", "higher"),
    ("fastgrid.grid_kernel.none", "count", "lower"),
    ("lab.pairs", "count", "lower"),
    ("lab.admissible", "count", "higher"),
    ("lab.admissible_ratio", "ratio", "higher"),
    ("lab.kernel_share", "ratio", "higher"),
    ("lab.kernel_share.jets", "ratio", "higher"),
    ("lab.engine_mismatch_jobs", "count", "lower"),
    ("lab.pair_us.kernel", "us", "lower"),
    ("lab.pair_us.generic", "us", "lower"),
    ("lab.pair_loop.self_s", "s", "lower"),
    ("lab.min_jet_order_search.self_s", "s", "lower"),
    ("lab.family_dimension.self_s", "s", "lower"),
    ("lab.orbit_hull_dimension.self_s", "s", "lower"),
    ("lab.standard_fiber.self_s", "s", "lower"),
    ("reparam.reparam_solve.self_s", "s", "lower"),
    ("reparam.verify_reparam.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]

# Wrapped names each derived metric needs; any other metric needs its prefix.
_ENGINE = ("lab.pair_loop", "fastgrid.grid_kernel")
DERIVED = {
    "lab.pairs": ("lab.pair_loop",),
    "lab.admissible": ("lab.pair_loop",),
    "lab.admissible_ratio": ("lab.pair_loop",),
    "lab.pair_us.kernel": _ENGINE,
    "lab.pair_us.generic": _ENGINE,
    "lab.kernel_share": _ENGINE,
    "lab.kernel_share.jets": _ENGINE + ("lab.min_jet_order_search",),
    "lab.engine_mismatch_jobs": ("fastgrid.grid_kernel",),
    "fastgrid.grid_kernel.kernel": ("fastgrid.grid_kernel",),
    "fastgrid.grid_kernel.none": ("fastgrid.grid_kernel",),
}


def _share(num, den):
    return num / den if den else 0.0


def job_engine(counts):
    """The grid engine a job ran on, from its grid_kernel results."""
    if counts["kernel"] and not counts["none"]:
        return "kernel"
    if counts["none"] and not counts["kernel"]:
        return "generic"
    return "mixed" if counts["kernel"] else "none"


def values(jobs, plain, traced):
    """Per-layer values from the traced pass (and the untraced one for overhead)."""
    tr = traced["trace"]
    missing = set(tr["missing"])
    vals = {}
    for name, (calls, _total, self_s) in tr["spans"].items():
        vals[name + ".calls"] = calls
        vals[name + ".self_s"] = self_s
    for name, calls in tr["counts"].items():
        vals[name + ".calls"] = calls
    vals["suite.checks"] = sum(r.get("fields", {}).get("n_checks", 0) for r in traced["jobs"])

    kern, gen = tr["pairs"]["kernel"], tr["pairs"]["generic"]
    pairs = kern[0] + gen[0]
    vals["lab.pairs"] = pairs
    vals["lab.admissible"] = kern[1] + gen[1]
    vals["lab.admissible_ratio"] = _share(kern[1] + gen[1], pairs)
    vals["lab.pair_us.kernel"] = _share(kern[2], kern[0]) * 1e6
    vals["lab.pair_us.generic"] = _share(gen[2], gen[0]) * 1e6
    jets = tr["jets_pairs"]
    vals["lab.kernel_share"] = _share(kern[0], pairs)
    vals["lab.kernel_share.jets"] = _share(jets["kernel"], jets["kernel"] + jets["generic"])
    vals["fastgrid.grid_kernel.kernel"] = tr["grid_kernel"]["kernel"]
    vals["fastgrid.grid_kernel.none"] = tr["grid_kernel"]["none"]
    vals["lab.engine_mismatch_jobs"] = sum(
        1
        for job, res in zip(jobs, traced["jobs"])
        if job.get("engine") and job_engine(res["grid_kernel"]) != job["engine"]
    )

    traced_s = sum(r["seconds"] for r in traced["jobs"])
    vals["trace.coverage"] = _share(tr["jobs_root_s"], traced_s)
    # each pass's time in units of its own reference, as run.py scales them
    vals["trace.overhead"] = _share(
        traced_s / sum(r["ref_s"] for r in traced["jobs"]),
        sum(r["seconds"] for r in plain["jobs"]) / sum(r["ref_s"] for r in plain["jobs"]),
    )

    out = {}
    for name, unit, _better in PER_LAYER:
        needs = DERIVED.get(name, (name.rsplit(".", 1)[0],))
        value = None if missing.intersection(needs) else vals.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def traced(runner, jobs, algebras, expected, args):
    """Run the untraced and the traced pass; check both; write the trace file."""
    failures = []
    plain, _ = runner.call(algebras, jobs)
    failed = check.check_pass(jobs, plain, expected, failures)
    result, _ = runner.call(algebras, jobs, trace=True)
    failed += check.check_pass(jobs, result, expected, failures)
    metrics = values(jobs, plain, result)

    out_dir = pathlib.Path(".parabench")
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    per_job = [
        {
            "name": job["name"],
            "config": job["config"],
            "untraced_s": p["seconds"],
            "traced_s": r["seconds"],
            "grid_kernel": r["grid_kernel"],
            "engine": job_engine(r["grid_kernel"]),
            "expected_engine": job.get("engine"),
        }
        for job, p, r in zip(jobs, plain["jobs"], result["jobs"])
    ]
    with open(path, "w") as fh:
        json.dump({"trace": result["trace"], "jobs": per_job, "metrics": metrics}, fh, indent=1, sort_keys=True)
    info = {"trace_file": str(path), "missing": result["trace"]["missing"]}
    return 2 * len(jobs), failed, failures, metrics, info

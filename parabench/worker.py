"""One workload pass in a fresh process: set up, run every job, report.

Reads {"algebras": [...], "jobs": [...], "trace": bool} as JSON on stdin;
with no jobs the pass measures set-up only.  Set-up is
``import parageo`` plus a cold ``make_algebra`` of every algebra the jobs
use.  Each job is ``parageo.cli.run(config)`` followed by ``emit(report)``,
as scripts/run_full_suite.py does; its wall time covers both.  The verdict
fields are read back from the emitted bytes, outside the timed region.
Between jobs, and around set-up, the pass times ``reference()``: fixed
interpreter work that shares no code with parageo.  run.py scales each
time by the reference measured around it.  Prints one JSON object on the
last line of stdout.
"""

import json
import resource
import sys
import traceback
from math import gcd
from time import perf_counter


def reference():
    """Time a fixed exact-rational sum on plain ints (about 10 ms unloaded).

    Like parageo's exact arithmetic it is interpreter-bound small-integer
    work, so a busy machine slows it as it slows the jobs; it imports
    nothing from parageo, so no change to the package can move it.
    """
    t = perf_counter()
    num, den = 0, 1
    for i in range(1, 10000):
        a, b = i % 7 + 1, i % 97 + 1
        num, den = num * b + a * den, den * b
        g = gcd(num, den)
        num //= g
        den //= g
    return perf_counter() - t


def verdict_fields(command, report):
    """The fields of an emitted report that the expected answers pin down."""
    res = report["results"]
    if command == "verify":
        fields = {"structure_pass": res["structure"]["pass"]}
        if "lemma_suite" in res:
            fields["n_checks"] = res["lemma_suite"]["n_checks"]
        return fields
    if command == "jets":
        jr = res["jets"]
        keys = ("claimed_bound", "empirical_sharp_order", "n_grid", "n_admissible", "n_equal")
        return {k: jr[k] for k in keys}
    if command == "family":
        fr, orb = res["family"], res.get("orbit", {})
        return {
            "family_dimension": fr["family_dimension"],
            "stabilizer_hull_dim": fr["stabilizer_hull_dim"],
            "orbit_hull_dim": orb.get("hull_dim"),
            "orbit_dim": orb.get("orbit_dim"),
        }
    if command == "reparam":
        rr = res["reparam"]
        m = rr.get("map") or {}
        return {
            "exists": rr["exists"],
            "map": "(%s t + %s)/(%s t + %s)" % (m.get("A"), m.get("B"), m.get("C"), m.get("D")),
            "verified": rr.get("verified"),
            "schwarzian": rr.get("schwarzian"),
        }
    if command == "fiber":
        return {"n_pairs": res["fiber"]["n_pairs"]}
    return {}


def main():
    spec = json.loads(sys.stdin.read())
    algebras, jobs, tracing = spec["algebras"], spec["jobs"], spec["trace"]

    setup_ref = reference()
    t0 = perf_counter()
    import parageo.cli

    tracer = None
    if tracing:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    make_algebra = parageo.cli.make_algebra
    for cid in algebras:
        make_algebra(cid)
    setup_s = perf_counter() - t0
    ref_before = reference()
    setup_ref = (setup_ref + ref_before) / 2

    out_jobs = []
    root_before = tracer.root_s if tracer else 0.0
    for job in jobs:
        entry = {"name": job["name"]}
        if tracer:
            engines_before = (tracer.kernel_results, tracer.none_results)
        t = perf_counter()
        try:
            report, code = parageo.cli.run(parageo.cli.ExperimentConfig(**job["config"]))
            data = parageo.cli.emit(report)
        except Exception:
            entry["seconds"] = perf_counter() - t
            entry["code"] = None
            entry["error"] = traceback.format_exc(limit=4)
        else:
            entry["seconds"] = perf_counter() - t
            entry["code"] = code
            try:
                entry["fields"] = verdict_fields(job["config"]["command"], json.loads(data))
            except (KeyError, TypeError, ValueError) as exc:
                entry["error"] = "unreadable report: %r" % (exc,)
        ref_after = reference()
        entry["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        if tracer:
            entry["grid_kernel"] = {
                "kernel": tracer.kernel_results - engines_before[0],
                "none": tracer.none_results - engines_before[1],
            }
        out_jobs.append(entry)

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref,
        "jobs": out_jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["trace"] = tracer.snapshot()
        result["trace"]["jobs_root_s"] = tracer.root_s - root_before
    print(json.dumps(result))


if __name__ == "__main__":
    main()

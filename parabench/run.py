#!/usr/bin/env python3
"""Benchmark parageo's time to verdict on one workload.

Usage, from the root of a parageo checkout:

    python3 parabench/run.py --workload lemmas --seed 0 --seconds 30 --trace 0

Each pass is a fresh single-threaded Python process (worker.py) with
PARAGEO_WORKERS unset.  With ``--trace 0`` the run starts passes until
``--seconds`` have gone by, at least MIN_PASSES of them, plus
set-up-only processes until there are SETUP_SAMPLES set-up times, and
reports the end-to-end metrics, each time scaled by the reference timed
around it (worker.reference, NOMINAL_REF_S).  With ``--trace 1`` it makes one untraced
and one traced pass and reports the per-layer metrics; the aggregated spans
go to .parabench/trace-<workload>-seed<seed>.json.  Every job of every pass
is checked (check.py).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
from time import perf_counter

import check
import workloads

HERE = pathlib.Path(__file__).resolve().parent
MIN_PASSES = 3
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# Every reported time is scaled to a machine on which worker.reference()
# takes this long (about an unloaded 2-core x86 host); see README.md.
NOMINAL_REF_S = 0.010


class BenchError(Exception):
    pass


def worker_env(root):
    env = dict(os.environ)
    env.pop("PARAGEO_WORKERS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    def __init__(self, root, deadline):
        self.root = root
        self.env = worker_env(root)
        self.deadline = deadline

    def time_for(self, wall):
        """Whether one more process like the last (2x slack) ends in time."""
        return perf_counter() + 2 * wall < self.deadline

    def call(self, algebras, jobs, trace=False):
        """One worker process; returns its result dict and its wall time."""
        spec = json.dumps({"algebras": algebras, "jobs": jobs, "trace": trace})
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise BenchError("time limit reached before a pass could start")
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")],
                input=spec,
                capture_output=True,
                text=True,
                cwd=self.root,
                env=self.env,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("a pass did not finish within the run's time limit")
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-2000:]))
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def at_nominal(seconds, ref_s):
    return seconds * NOMINAL_REF_S / ref_s


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, jobs, algebras, seconds, expected):
    failures = []
    failed = 0
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        result, wall = runner.call(algebras, jobs)
        failed += check.check_pass(jobs, result, expected, failures)
        passes.append(result)
        if not runner.time_for(wall):
            break
    setups = [at_nominal(p["setup_s"], p["setup_ref_s"]) for p in passes]
    while len(setups) < SETUP_SAMPLES:
        result, wall = runner.call(algebras, [])
        setups.append(at_nominal(result["setup_s"], result["setup_ref_s"]))
        if not runner.time_for(wall):
            break
    # Each job's wall time over all passes, scaled by the reference timed
    # around it in the same process: other tenants of a shared machine slow
    # both alike, and their load moves over seconds.
    job_s = [
        at_nominal(
            sum(p["jobs"][i]["seconds"] for p in passes),
            sum(p["jobs"][i]["ref_s"] for p in passes),
        )
        for i in range(len(jobs))
    ]
    attempted = len(jobs) * len(passes)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "verdict_s": metric(sum(job_s), "s"),
        "slowest_job_s": metric(max(job_s), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "verdict_ok_share": metric((attempted - failed) / attempted, "ratio"),
    }
    info = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "unscaled_verdict_s": [sum(j["seconds"] for j in p["jobs"]) for p in passes],
        "reference_ms": statistics.median(1e3 * j["ref_s"] for p in passes for j in p["jobs"]),
    }
    return attempted, failed, failures, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "parageo" / "cli.py").is_file():
        print("error: run from the root of a parageo checkout (no src/parageo here)", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_LIMIT_S
    runner = Runner(root, deadline)
    jobs = workloads.jobs_for(args.workload, args.seed)
    algebras = workloads.algebras_of(jobs)
    expected = check.load_expected()
    try:
        # compile the package's bytecode once, outside every timed pass
        runner.call([], [])
        if args.trace:
            import layers

            attempted, failed, failures, metrics, info = layers.traced(
                runner, jobs, algebras, expected, args
            )
        else:
            attempted, failed, failures, metrics, info = end_to_end(
                runner, jobs, algebras, args.seconds, expected
            )
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for line in failures:
        print("FAIL %s" % line)
    print("# %s seed %d: %s" % (args.workload, args.seed, json.dumps(info, sort_keys=True)))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

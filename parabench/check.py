"""Correctness of one job result against expected.json.

A job fails if it raised, if its exit code differs, or if a recorded
verdict field differs.  A job whose base direction a nonzero seed drew is
held to the same fields: the drawn direction is a multiple of seed 0's
(workloads.draw_direction), and the solved Y, the jet orders and the curve
identities all scale with it, so it must evaluate the same (2R+1)^dim(p_+)
pairs, keep the same claimed bound and confirm at the same sharp order.
Fields are compared rather than report bytes, so a report schema change
alone is not a failure.
"""

import json
import pathlib

EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["jobs"]


def problems(job, result, expected):
    """A list of reasons the job failed; empty when it passed."""
    if result.get("error"):
        return [result["error"].strip().splitlines()[-1]]
    exp = expected.get(job["name"])
    if exp is None:
        return ["no expected answers for job %r" % job["name"]]
    out = []
    if result["code"] != exp["exit"]:
        out.append("exit code %r, expected %r" % (result["code"], exp["exit"]))
    fields = result.get("fields", {})
    for key, want in exp["fields"].items():
        if fields.get(key) != want:
            out.append("%s = %r, expected %r" % (key, fields.get(key), want))
    if fields.get("claimed_bound") != exp["claimed_bound"]:
        out.append("claimed_bound %r, expected %r" % (fields.get("claimed_bound"), exp["claimed_bound"]))
    if exp.get("attains_bound") and fields.get("empirical_sharp_order") != exp["claimed_bound"]:
        out.append("sharp order %r does not attain the bound %r" % (
            fields.get("empirical_sharp_order"), exp["claimed_bound"]))
    return out


def check_pass(jobs, result, expected, failures):
    """Check every job of one pass; returns the number that failed."""
    failed = 0
    for job, res in zip(jobs, result["jobs"]):
        whys = problems(job, res, expected)
        failures.extend("%s: %s" % (job["name"], why) for why in whys)
        failed += bool(whys)
    return failed

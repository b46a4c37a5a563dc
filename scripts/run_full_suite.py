#!/usr/bin/env python3
"""Run every verification suite and experiment; write reports; exit 1 on FAIL.

This is the batch driver: lemma/structure suites for all nine catalog
algebras, the jet-determination searches at their proved bounds, and the
worked reparametrization example.  JSON reports land in the given output
directory (canonical encoding, byte-stable across runs).  Every config
runs and writes its report; the exit code, given at the end, is 1 when
any of them failed a paper-bound assertion.
"""

import argparse
import pathlib
import sys

from parageo.cli import ExperimentConfig, emit, run

ALGEBRAS = [
    "proj(1)",
    "proj(2)",
    "grass(1,2)",
    "grass(2,2)",
    "conf(1,1)",
    "conf(1,2)",
    "lagr3",
    "su21",
    "xxdot",
]

JET_RUNS = [
    ("proj(2)", "full_n", 2),
    ("grass(1,2)", "full_n", 2),
    ("conf(1,2)", "full_n", 2),
    ("lagr3", "grade(-1)", 2),
    ("lagr3", "grade(-2)", 2),
    ("lagr3", "full_n", 2),
    ("su21", "grade(-2)", 1),
    ("xxdot", "grade(-1)", 2),
    ("xxdot", "grade(-2)", 2),
    ("xxdot", "full_n", 2),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="reports", help="directory for JSON reports")
    args = ap.parse_args()
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    worst = 0

    def execute(tag, config):
        nonlocal worst
        report, code = run(config)
        (outdir / ("%s.json" % tag)).write_bytes(emit(report, "json"))
        status = "ok" if code == 0 else "FAIL"
        print("%-42s %s" % (tag, status))
        worst = max(worst, code)

    for cid in ALGEBRAS:
        execute(
            "verify-%s" % cid.replace("(", "").replace(")", "").replace(",", "-"),
            ExperimentConfig(command="verify", algebra=cid, suite="all"),
        )
    for cid, tspec, grid in JET_RUNS:
        tag = "jets-%s-%s" % (
            cid.replace("(", "").replace(")", "").replace(",", "-"),
            tspec.replace("(", "").replace(")", ""),
        )
        execute(
            tag,
            ExperimentConfig(
                command="jets",
                algebra=cid,
                type_spec=tspec,
                grid=grid,
                orders=4,
            ),
        )
    execute("reparam-proj1", ExperimentConfig(command="reparam", algebra="proj(1)"))
    print("overall:", "PASS" if worst == 0 else "FAIL")
    return worst


if __name__ == "__main__":
    sys.exit(main())

"""The traced benchmark run of the ``lemmas`` workload ends in a well-formed result.

``parabench/run.py --trace 1`` prints one JSON object as its last stdout
line.  Any fault of a traced pass (a wrapped name that no longer resolves,
a job that fails its check, output that is not JSON) shows there as a line
that does not parse, ``correct`` false, or a metric whose value is null.
The run takes a few seconds; it writes its trace file under ``.parabench/``.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_traced_lemmas_run_is_well_formed():
    argv = ["parabench/run.py", "--workload", "lemmas", "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable] + argv, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, "no output; stderr:\n%s" % proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert result["correct"] is True, lines[:-1]
    nulls = sorted(name for name, m in result["metrics"].items() if m["value"] is None)
    assert nulls == [], lines[-2] if len(lines) > 1 else ""

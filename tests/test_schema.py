"""Schema parageo/2 changes the schema of a report, and nothing else.

``fixtures/parageo1`` holds the 20 reports that ``scripts/run_full_suite.py``
wrote in schema parageo/1, just before parageo/2.  ``to_v2`` maps each one
to parageo/2 by rules written out here, from the old report alone, and
the test asserts that the result is byte for byte what the command emits
today for the same config.  So no verdict, count, witness, violation or
exit code moved; only the layout did:

- the config echoes the command and the options its subcommand takes,
  no ``workers`` and no option of another command;
- the lemma checks per identity and the jets verdicts are tables
  ``{"columns": [...], "rows": [...]}``; a jets row carries the witness of
  its order, so ``counterexamples`` goes;
- a direction and a witness Y are written over n, a witness Z over p_+.
  The basis runs grades ascending, so these are the first dim n and the
  last dim p_+ coordinates of the old ones.
"""

import json
import pathlib

import pytest

from parageo.cli import ExperimentConfig, emit, run

FIXTURES = sorted((pathlib.Path(__file__).parent / "fixtures" / "parageo1").glob("*.json"))

# the options each command's subcommand takes, but --output
OPTIONS = {
    "verify": {"algebra", "suite", "format"},
    "jets": {"algebra", "type_spec", "grid", "orders", "direction", "claimed_bound", "format"},
    "reparam": {"algebra", "x1", "x2", "z", "format"},
}


def _jets_to_v2(jr, n_dim, p_dim):
    rows = []
    for order, verdict in sorted(jr.pop("verdicts").items(), key=lambda kv: int(kv[0])):
        w = jr["counterexamples"].get(order)
        witness = [w["Z"][-p_dim:], w["Y"][:n_dim], w["jet_order"]] if w else [None] * 3
        rows.append([int(order), verdict, *witness])
    del jr["counterexamples"]
    jr["direction"] = jr["direction"][:n_dim]
    jr["verdicts"] = {"columns": ["order", "verdict", "Z", "Y", "jet_order"], "rows": rows}


def to_v2(report):
    """The parageo/2 form of a parsed parageo/1 report of the full suite."""
    report = json.loads(json.dumps(report))
    report["schema"] = "parageo/2"
    config = report["config"]
    options = OPTIONS[config["command"]]
    report["config"] = {k: v for k, v in config.items() if k == "command" or k in options}
    results = report["results"]
    if "lemma_suite" in results:
        by_family = results["lemma_suite"]["checks_by_family"]
        results["lemma_suite"]["checks_by_family"] = {
            "columns": ["identity", "checks"],
            "rows": sorted([k, v] for k, v in by_family.items()),
        }
    if "jets" in results:
        dims = {int(g): d for g, d in report["algebra"]["grade_dims"].items()}
        n_dim = sum(d for g, d in dims.items() if g < 0)
        _jets_to_v2(results["jets"], n_dim, sum(d for g, d in dims.items() if g > 0))
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()


def test_fixtures_are_the_full_suite():
    assert len(FIXTURES) == 20
    kinds = [json.loads(path.read_bytes())["config"]["command"] for path in FIXTURES]
    assert (kinds.count("verify"), kinds.count("jets"), kinds.count("reparam")) == (9, 10, 1)


@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_parageo1_report_maps_to_the_emitted_bytes(path):
    old = json.loads(path.read_bytes())
    assert old["schema"] == "parageo/1" and old["config"]["workers"] == 1
    config = {k: v for k, v in old["config"].items() if k != "workers"}
    report, code = run(ExperimentConfig(**config))
    assert code == (0 if old["summary"]["pass"] else 1)
    assert emit(report) == to_v2(old)

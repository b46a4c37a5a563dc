"""Byte-identity of jets reports across changes to the grid engine.

Each digest is the SHA-256 of ``emit(run(config))`` as first computed on
the Fraction pair path.  The configs are the su21 searches (Gaussian
field), the searches with fractional base directions, and one search fanned
out to two worker processes.  Any change to these bytes is a behaviour
change of the jet-determination checker.
"""

import hashlib

import pytest

from parageo.cli import ExperimentConfig, emit, run

GOLDEN = [
    (
        dict(algebra="su21", type_spec="grade(-2)", grid=2),
        "e5f3981e7d31e964219363f3c59746cfff68a3fe6b207c64a86166cfecbe1262",
    ),
    (
        dict(algebra="su21", type_spec="grade(-1)", grid=1),
        "974ce8b1e794ecf9d9d97258c7a1ab8e2ef26dee65f72946b482aace1f01bf6f",
    ),
    (
        dict(algebra="su21", type_spec="full_n", grid=1),
        "18ca50f1f32a12cfeacaab305acb51033165410b834c339e792ecbd465c1b19d",
    ),
    (
        dict(algebra="xxdot", type_spec="grade(-1)", grid=2, direction="0,0,1/2,1,0"),
        "61933b2af0bbe9f5954f752949165d0141d36529e6b562c7b2bc45c5489b333b",
    ),
    (
        dict(algebra="lagr3", type_spec="full_n", grid=3, direction="1/2,1,1"),
        "39f9c71210bc46c0d160093c4c4e272586cc330383968956be2460cd60c57e6d",
    ),
    (
        dict(algebra="conf(1,2)", type_spec="full_n", grid=2, direction="1/2,1,1"),
        "5729d5051ea765f9443351f63f8d084942228625b519f9bfd7b74a39594deff1",
    ),
    (
        dict(algebra="lagr3", type_spec="full_n", grid=2, direction="1/2,1,1", workers=2),
        "eb177e76437f827ea6747a8b77646c51ce384bf54819438dfd06fb7b37e8d85d",
    ),
]


@pytest.mark.parametrize(
    "params,digest", GOLDEN, ids=[" ".join(str(v) for v in p.values()) for p, _ in GOLDEN]
)
def test_jets_report_digest(params, digest):
    report, code = run(ExperimentConfig(command="jets", orders=4, **params))
    assert code == 0
    assert hashlib.sha256(emit(report, "json")).hexdigest() == digest

"""Byte-identity of jets reports and algebra builds across engine changes.

Each jets digest is the SHA-256 of ``emit(run(config))`` as first computed
on the Fraction pair path or on the integer engine before its sparse pair
step.  The configs are the su21 searches (Gaussian field), the searches
with fractional base directions, one search fanned out to two worker
processes, and integer-direction searches on four rational algebras.  Any
change to these bytes is a behaviour change of the jet-determination
checker.

Each build digest is the SHA-256 of the repr of an algebra's pivot rows,
coordinate extractor and bracket table as first computed by the dense
build (greedy rank tests, adjugate inverse, dense commutators).  The repr
pins the entry types as well as the values.
"""

import hashlib

import pytest

from parageo.catalog import make_algebra
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
    (
        dict(algebra="xxdot", type_spec="grade(-1)", grid=2),
        "e3f987eeae401f04040090ed5378672f9a7b3aa049f87d2e8e1b13ad72afa6fe",
    ),
    (
        dict(algebra="xxdot", type_spec="grade(-2)", grid=2),
        "11d94df01a0388cded5412f3c10d39468c4cde69bbbaca6b513225bc2b4ee8aa",
    ),
    (
        dict(algebra="lagr3", type_spec="full_n", grid=2),
        "2694ad16acf476a982d0d52fb7500832d5e0652cc80607d445c7112bc3ce2bf6",
    ),
    (
        dict(algebra="conf(1,2)", type_spec="full_n", grid=2),
        "0bfc0e024b5841e64500ceb349d144f64ef83fda3179fd9a751d3fce039b3005",
    ),
    (
        dict(algebra="proj(4)", type_spec="full_n", grid=1),
        "31d80b74f3e6c838939f9e3710860d9ce8a3f449769721d6afd116bc966513d8",
    ),
]


@pytest.mark.parametrize(
    "params,digest", GOLDEN, ids=[" ".join(str(v) for v in p.values()) for p, _ in GOLDEN]
)
def test_jets_report_digest(params, digest):
    report, code = run(ExperimentConfig(command="jets", orders=4, **params))
    assert code == 0
    assert hashlib.sha256(emit(report, "json")).hexdigest() == digest


BUILD_GOLDEN = [
    ("proj(1)", "e8305b6f7d184b57c8a0c98597da403334c8aa9b78341b45823a9001146ee0db"),
    ("proj(2)", "d9c6d816bedbe584ba1559d7e8bc5a4c36774e4d848aefbee963b652e20f646e"),
    ("grass(1,2)", "d9c6d816bedbe584ba1559d7e8bc5a4c36774e4d848aefbee963b652e20f646e"),
    ("grass(2,2)", "de65c8bb78ffb9661c296a59ff09cbb47b6187bcfa66956f9a7ae43a7b38dfc0"),
    ("conf(1,1)", "643067fc7513364504dfe023ae78fda575ff313a9bc258fe4c985a9d11a6aea5"),
    ("conf(1,2)", "24d8aacc81da8b425301953fe911a419630255dde6b970f3914ff9a6be5b3c37"),
    ("lagr3", "985047b1d3b7d8823e6f665b952585ebbfb135959ec02e24bf9b5f27f35edd73"),
    ("su21", "9b95b24df4110adb3ed705dd89c842081503199d97a17d1b92e8fe03bfde4177"),
    ("xxdot", "df0dc378dc4bed76193c755c35a598a84c58ec3902ea1f737966ffb75407d8aa"),
    ("proj(4)", "77a73cca85d5f8cfaf5a909bd6f732a74dc76429a9d8807d4124d0282aaf6301"),
    ("proj(5)", "4915d73803313085a3b376e6583c5289874dff3a37cc2fb944c64f47e807191a"),
    ("grass(3,3)", "00a635e20b8bc9765aec9a42d27fb222c1524715d349f7feb28f222e3a359936"),
]


@pytest.mark.parametrize("cid,digest", BUILD_GOLDEN, ids=[c for c, _ in BUILD_GOLDEN])
def test_build_digest(cid, digest):
    alg = make_algebra(cid)
    built = repr((alg._pivot_rows, alg._extractor.rows, alg.bracket_table))
    assert hashlib.sha256(built.encode()).hexdigest() == digest

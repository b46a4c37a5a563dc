"""Byte-identity of jets reports and algebra builds across engine changes.

Each jets digest is the SHA-256 of ``emit(run(config))`` as first computed
on the Fraction pair path or on the integer engine before its sparse pair
step.  The configs are the su21 searches (first run over the Gaussian
rationals, now on the realified algebra), the searches with fractional
base directions, and integer-direction searches on four other algebras.
The lagr3 ``1/2,1,1`` search at grid 2 was pinned fanned out to two
worker processes while the CLI had a worker pool; its digest now is that
of the one-process run, computed before the pool went, so the two runs
differ only in the ``config.workers`` echo.  Any change to these bytes is
a behaviour change of the jet-determination checker.

The remaining jets runs of ``scripts/run_full_suite.py`` (proj(2),
grass(1,2), lagr3 grade(-1) and grade(-2), su21 grade(-2) at grid 1, xxdot
full_n), its reparam proj(1) report, and the benchmark's family xxdot
grade(-2) job at grid 2 were pinned on the Fraction exponential, before
every nilpotent exponential became one integer series; with them every
report that script writes is pinned.

The ``proj(8)`` ``full_n`` search at grid 1 (6,561 pairs) was pinned on
the kernel's per-pair matrix step, before the pair step became integer
polynomials built once per search, so that a large grid's bytes are held
to the kernel's.  The ``proj(8)`` search at grid 2 (390,625 pairs) and
the xxdot ``full_n`` search at grid 3 were pinned on the per-pair
stream, before the stream went one item per fiber of the grid
coordinates that the pair system reads.

Each build digest is the SHA-256 of the repr of an algebra's pivot rows,
coordinate extractor and bracket table as first computed by the dense
build (greedy rank tests, Laplace cofactor inverse, dense commutators).
The repr pins the entry types as well as the values; the extractor rows
are read off the integer frame as ``Fraction``s (``frame_extractor``),
now that the build keeps no ``Fraction`` extractor, and the bracket table
is read through the dense ``Fraction`` view ``dense_bracket_table`` of the
sparse integer one (as is su21's bracket-table digest).  su21's build and
curve-layer digests were re-pinned when su21 was realified into 6x6
rational matrices: they hold matrix reprs, which realification changes.

Each report digest pins a report that carries the catalog descriptions
and su21's describe() labels, or a fiber, family, classify or reparam
report, as first computed before proj, grass, lagr3 and xxdot shared one
block-flag builder.  The ``verify --suite all`` digests of the nine
catalog ids were computed on the Poly-entry lemma checkers and the
exhaustive Jacobi loop, before both moved to integer polynomial matrices
and the sparse "ad is a representation" check.  The su21 coordinate digests (bracket table,
curve-sample jet and delta_u coordinates) hold basis coordinates only, so
they do not depend on the matrices that realize the basis; they were
pinned before the realification and pass unchanged.

Each curve-layer digest is the SHA-256 of the repr of one fixed sample of
the curve calculus: a normal-coordinate jet, the coordinates of a
comparison curve's delta_u, exponentials exp(tX) and exp(-tZ), and the
logarithms of two unipotent matrices, as first computed with three
separate exponential loops and the Laplace adjugate inverse.  The jet was
pinned on the Poly-entry block-LU series and passes unchanged on the
integer degree-by-degree solve; the exponentials are ``IntPolyMat``s now,
sampled through ``poly_reference.to_mat``, whose repr is that of the old
Poly-entry ``Mat``; the constant-matrix exponential and logarithm now live
in ``poly_reference``.  ``express_poly`` returns one coordinate tuple per
power of t, so the jet and delta_u coordinates are read through
``conftest.poly_coords``, one ``Poly`` per basis coordinate as they were
pinned, and the jet is read off those Polys one coefficient per degree.

The ``scripts/reproduce_tables.py`` digest is the SHA-256 of its
``--grid 1`` stdout (sharp jet orders, family and stabilizer dimensions,
and the lowest-grade orbit's pointwise and hull dimensions on lagr3 and
xxdot), as first computed with orbit_dim taken over six (Z0, X) probes of
a polynomial-in-s exponential and every rank by a full Gauss-Jordan pass.

Re-pin note: the report schema ``parageo/2`` re-pinned all 18 jets and
30 report digests at once.  The config echo lost ``workers`` and every
option that its command does not take; row-shaped results became
``{"columns": [...], "rows": [...]}`` tables (a jets row carries its
witness); the fiber report writes per-X ranks of [X,[X,g_1]] in place of
its pairs; directions and witnesses Y are written over n, witnesses Z
over p_+.  The mapping of ``tests/test_schema.py`` took the parageo/1
bytes of every pinned config to exactly its parageo/2 bytes, the fiber
ranks taken from the old pairs, so no verdict or count moved.  The build,
curve-layer, su21 coordinate and ``reproduce_tables.py`` digests did not
change.
"""

import hashlib
import pathlib
import runpy
import sys
from fractions import Fraction

import pytest

from conftest import dense_bracket_table, frame_extractor, full_flag_sl4, poly_coords
from parageo.algebra import exp_nilpotent
from parageo.catalog import make_algebra
from parageo.cli import ExperimentConfig, emit, run
from parageo.curves import CurveSpec, comparison, normal_coord_jet
from parageo.poly import P_T
from poly_reference import exp_mat, frac_matrix, log_unipotent, to_mat

GOLDEN = [
    (
        dict(algebra="su21", type_spec="grade(-2)", grid=2),
        "f0c4d4e3758b265010de1bf6f99e8c615372034f3ec7c070e3c8d9653aac2932",
    ),
    (
        dict(algebra="su21", type_spec="grade(-1)", grid=1),
        "c5a424a05a5088f813600eeb8f2d8e72d23ea0bbb433dcc7bd2e50da1c1ea063",
    ),
    (
        dict(algebra="su21", type_spec="full_n", grid=1),
        "24ca35704db3896b4ecf7af899699ddd58adf8801f015d49438fe97f223c32b1",
    ),
    (
        dict(algebra="xxdot", type_spec="grade(-1)", grid=2, direction="0,0,1/2,1,0"),
        "6a3eee9dfb0b5f0315877d07e01801f346b83f6b4578e5b4e17b162683c849f6",
    ),
    (
        dict(algebra="lagr3", type_spec="full_n", grid=3, direction="1/2,1,1"),
        "57f100ca5291e02c28447a287c57f44c6dfc26cfb7eb2a0da170da1c758f45ab",
    ),
    (
        dict(algebra="conf(1,2)", type_spec="full_n", grid=2, direction="1/2,1,1"),
        "c2cc0356936244bcdd20aa74fcf478fea3e7de80f24f1a8fb3bffdd53734e4b1",
    ),
    (
        dict(algebra="lagr3", type_spec="full_n", grid=2, direction="1/2,1,1"),
        "77e9a7a103c4ca486f0b2da1c86435491ea278042f19de9b1306d9dae5ffc281",
    ),
    (
        dict(algebra="xxdot", type_spec="grade(-1)", grid=2),
        "5ae3b2db62bf66c43ff31b571303a13b75329a88d2cf641aff6467ff48fce73a",
    ),
    (
        dict(algebra="xxdot", type_spec="grade(-2)", grid=2),
        "c557470504c7892e120ffe712b40e7b7fcea10f5530cacd4f50100d4d70491f3",
    ),
    (
        dict(algebra="lagr3", type_spec="full_n", grid=2),
        "aae9d7591d1682b80fcc1b04073937be65d4c6d7afb49f776ed218d2804272a9",
    ),
    (
        dict(algebra="conf(1,2)", type_spec="full_n", grid=2),
        "020168e4ce9b457c9c80f6e0049751487b88273d37edb95a7e61430c26b4e968",
    ),
    (
        dict(algebra="proj(4)", type_spec="full_n", grid=1),
        "87281a60f3144aa1a90de29a769e018f5e8e49f5691f9e1b8098bbcd7ec90c2d",
    ),
    # the remaining jets runs of scripts/run_full_suite.py
    (
        dict(algebra="proj(2)", type_spec="full_n", grid=2),
        "ca26048c7da90c33e33f35b309a2cafab48be760890a4390ffa346cf0d11193c",
    ),
    (
        dict(algebra="grass(1,2)", type_spec="full_n", grid=2),
        "a5bc8910a4a475bd581a5143681ac7ebb24a5cfb1339c1585afa1042f1323bf9",
    ),
    (
        dict(algebra="lagr3", type_spec="grade(-1)", grid=2),
        "978e2e9807a8c764b7f90aee2ea4fcdcd401ca8383d5148cb1075041f039d065",
    ),
    (
        dict(algebra="lagr3", type_spec="grade(-2)", grid=2),
        "6c8180e9a22538d763cb60770b90c1f121eb3130da1e36a9632c5eb2de47aed5",
    ),
    (
        dict(algebra="su21", type_spec="grade(-2)", grid=1),
        "e5611d3a1cff2f44d9360d851c9232257157a894da29e620ddc0d3ad314165fa",
    ),
    (
        dict(algebra="xxdot", type_spec="full_n", grid=2),
        "8bf47f9bf9e2bf57433f3bd1ebd8f6a5aa4c99ce0ebb2989f68b9e0b11abf922",
    ),
    # a large grid (6,561 pairs), pinned on the kernel's per-pair step
    (
        dict(algebra="proj(8)", type_spec="full_n", grid=1),
        "1bfd74fe58230fa0a6b54d6255fc4242cf1eb32b196376f403a48a173858d848",
    ),
    # pinned on the per-pair stream, before the stream went one item per
    # fiber of the coordinates the pair system reads: proj(8) at grid 2
    # (390,625 pairs), and xxdot full_n at grid 3, whose system reads one
    # of five coordinates (16,807 pairs in 7 fibers)
    (
        dict(algebra="proj(8)", type_spec="full_n", grid=2),
        "760c951e96246f87d9fc717bc39cb40ca76623d6b085f0a8794476e158232e2d",
    ),
    (
        dict(algebra="xxdot", type_spec="full_n", grid=3),
        "4bca816fcef367d654a5f795bfd9088577d00d38fb6c94fd0c82829586220f69",
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
    ("su21", "8bd2fd0597d97f1c128327c163f085da65c57478646b4ee5cc22e02159e32635"),
    ("xxdot", "df0dc378dc4bed76193c755c35a598a84c58ec3902ea1f737966ffb75407d8aa"),
    ("proj(4)", "77a73cca85d5f8cfaf5a909bd6f732a74dc76429a9d8807d4124d0282aaf6301"),
    ("proj(5)", "4915d73803313085a3b376e6583c5289874dff3a37cc2fb944c64f47e807191a"),
    ("grass(3,3)", "00a635e20b8bc9765aec9a42d27fb222c1524715d349f7feb28f222e3a359936"),
]


@pytest.mark.parametrize("cid,digest", BUILD_GOLDEN, ids=[c for c, _ in BUILD_GOLDEN])
def test_build_digest(cid, digest):
    alg = make_algebra(cid)
    built = repr((*frame_extractor(alg), dense_bracket_table(alg)))
    assert hashlib.sha256(built.encode()).hexdigest() == digest


CURVE_GOLDEN = [
    ("proj(1)", "77f33cee9b30c334abac5479b06aa2bfcceb5d2c295556e14852555ee866f568"),
    ("proj(2)", "1189e09194867d4f6b8dadfc32666aaf8e117a9c0780f0f10a75543807228637"),
    ("grass(1,2)", "1189e09194867d4f6b8dadfc32666aaf8e117a9c0780f0f10a75543807228637"),
    ("grass(2,2)", "e6a2623fe2df56d4ce1344547ffb8759588b67b692bb1cb57f846e391253c338"),
    ("conf(1,1)", "65f96ca141716705c703c3985898965a95a9ec6e8919f62711c437e5f4b01106"),
    ("conf(1,2)", "8059649da76e81215eedde5fd66e2ca9837c060af5bcab5400f482fdf1136882"),
    ("lagr3", "1f9fdbe3d294bbc5ab8364f9323fd25538bd60bffbf696f89ce07f0d544b82fc"),
    ("su21", "d2a3c03ab3f918ca646a585677a9a5bc9472bfec1d43b032f3d825d63612dc0e"),
    ("xxdot", "028c87ea6522ca781bab352d691870ee7dacea95668f2924e7a4e9692d3ee41c"),
    ("full_flag_sl4", "196ff5ff92856e5189eec1ad24a4888b9bbca708466df0636f8973ee4e922d04"),
]


def curve_layer_parts(alg):
    """A jet, a comparison delta_u, exponentials and logarithms, all built
    from X = sum (i+1) n_i over the n basis and Z = sum (-1)^i/(i+1) p_i
    over the p_+ basis."""
    n_basis = [b for g in range(-alg.k, 0) for b in alg.grade_basis(g)]
    p_basis = [b for g in range(1, alg.k + 1) for b in alg.grade_basis(g)]
    x = alg.zero_elem()
    for i, b in enumerate(n_basis):
        x = x + b * Fraction(i + 1)
    z = alg.zero_elem()
    for i, b in enumerate(p_basis):
        z = z + b * Fraction((-1) ** i, i + 1)
    c = CurveSpec.from_Z(alg, z, x)
    order = alg.k + 2
    ys = poly_coords(alg, normal_coord_jet(c, order).coeffs_prefix(order))
    jet = tuple(tuple(p[i] for p in ys) for i in range(order + 1))
    delta = poly_coords(alg, comparison(CurveSpec.base(alg, x), c).delta_coords)
    exps = tuple(to_mat(exp_nilpotent(b, P_T)) for b in n_basis + [x])
    exps += (to_mat(exp_nilpotent(z, -P_T)),)
    logs = (log_unipotent(exp_mat(frac_matrix(x))), log_unipotent(exp_mat(frac_matrix(z))))
    return jet, delta, exps, logs


def curve_layer_sample(alg):
    return repr(curve_layer_parts(alg))


@pytest.mark.parametrize("cid,digest", CURVE_GOLDEN, ids=[c for c, _ in CURVE_GOLDEN])
def test_curve_layer_digest(cid, digest):
    alg = full_flag_sl4() if cid == "full_flag_sl4" else make_algebra(cid)
    sample = curve_layer_sample(alg)
    assert hashlib.sha256(sample.encode()).hexdigest() == digest


def _digest(obj):
    text = obj if isinstance(obj, bytes) else repr(obj).encode()
    return hashlib.sha256(text).hexdigest()


# Reports that carry the catalog labels and su21's describe() fields, and
# the fiber, family, classify and reparam reports, which read the per-grade
# basis orderings of the catalog builders.
REPORT_GOLDEN = [
    (
        dict(command="catalog"),
        "f7684c834d60b340f392df5a8273c91cd343478e17a1fd39824f41666e714cfc",
    ),
    (
        dict(command="verify", algebra="su21", suite="structure"),
        "c956b9afa8c5b7e80ce8a48dfc1288c9c0e812330a83efbc0f0ad80f503733f5",
    ),
    (
        dict(command="verify", algebra="proj(1)", suite="all"),
        "44692ac18ac726d8c48d941caa33e1065ce5d02edac46517167fb6edef0a93fd",
    ),
    (
        dict(command="verify", algebra="proj(2)", suite="all"),
        "016efc0f6bf9ca1880295786bfebf8c6ceae576cd2cd7687ca7cf5f68bda9209",
    ),
    (
        dict(command="verify", algebra="grass(1,2)", suite="all"),
        "05adf1213b1652cc11b8d44b9f35d0f7acca8ecac8f110beb7b6f2810f6d6170",
    ),
    (
        dict(command="verify", algebra="grass(2,2)", suite="all"),
        "70cab8413a0fca74fe9dcb237e91c1ead103a372e45e6cf3490ed865e2e835bc",
    ),
    (
        dict(command="verify", algebra="conf(1,1)", suite="all"),
        "61e25d55300eeac5f5634521593b0ca8b278024ceed3636dcfdc0749cd6b663c",
    ),
    (
        dict(command="verify", algebra="conf(1,2)", suite="all"),
        "f948305a3fc0978ac968513483722cd0bde8fa594b70fc8511643adc1313fe6a",
    ),
    (
        dict(command="verify", algebra="lagr3", suite="all"),
        "6ff80cd5eaff965de81accce5586ca2149b4bb2aea3acfc36b5b407713e27f0f",
    ),
    (
        dict(command="verify", algebra="su21", suite="all"),
        "6f048204325564574adf5dc62c94b347600bb807e12b163c3d664d2eaac8c156",
    ),
    (
        dict(command="verify", algebra="xxdot", suite="all"),
        "93615a99015f2d2e722821a8252b2752ecd62e5c54e790edbfe25e169334f588",
    ),
    (
        dict(command="fiber", algebra="proj(2)", type_spec="full_n", grid=2),
        "d20549fccee14de60617fffeb079b687f6b85abaf907578276b47994ad2a1be5",
    ),
    (
        dict(command="fiber", algebra="grass(1,2)", type_spec="full_n", grid=1),
        "6ca2e517322cff7c3316d75dcc60108c42c6e7d81b47203e0f0602efd2f36a72",
    ),
    (
        dict(command="fiber", algebra="conf(1,1)", type_spec="null_cone", grid=2),
        "eccbe826dcc5f7bd29a2386345043ab64d4949d7204b81c8a2196b7885e95b03",
    ),
    # pinned before the fiber took [X,[X,Z]] by linearity in Z: the
    # benchmark's fiber job and both grass(2,2) fiber types
    (
        dict(command="fiber", algebra="conf(1,2)", type_spec="full_n", grid=2),
        "5d1dc65826854454026fba235038203ba7eb116c3fb472150a304b6120b5ea84",
    ),
    (
        dict(command="fiber", algebra="grass(2,2)", type_spec="full_n", grid=1),
        "e103ff700332f151f41fa2c42a0daa262891695b9e22ab124f4ec62fd3507e2e",
    ),
    (
        dict(command="fiber", algebra="grass(2,2)", type_spec="rank(1)", grid=1),
        "0609345175a5b478e935974b6c1af4fa8664cb0289ac72c774b9156194c54d9d",
    ),
    (
        dict(command="family", algebra="proj(2)", type_spec="grade(-1)", grid=2),
        "1a74a62d03ef375d4bc3f3f8ff2cfada0387ea8594ac39baba45a11de247ece3",
    ),
    (
        dict(command="family", algebra="lagr3", type_spec="grade(-2)", grid=2),
        "584ca7b0b1b034af57b3344e3e577026d9dcf75d493d1e06a279da78c97150f9",
    ),
    (
        dict(command="family", algebra="lagr3", type_spec="grade(-1)", grid=2),
        "7db0e74045b4f3fb4d286c6eefc764f1b100aec5db3ec656390fc1a937f5f636",
    ),
    (
        dict(command="family", algebra="xxdot", type_spec="grade(-2)", grid=1),
        "6a1cdddcc3e4cac257f05dc796244cd0dfc185c2c916c91a4534bb144de8c39d",
    ),
    (
        dict(command="family", algebra="su21", type_spec="grade(-2)", grid=1),
        "76aaa36f0d796e30734333b372b6930ff80075716efc7ec5a16b90299c915a4b",
    ),
    (
        dict(command="classify", algebra="grass(2,2)", grid=1),
        "5bb5351df4b539f215667a1d51cbfb80d0a12d1936ee9b313b3024ed14e9623d",
    ),
    (
        dict(command="classify", algebra="lagr3", grid=2),
        "80176deb15b357dd74b7302d4f321d4a83f7b0b5ffacb34d78e43c15eaf87952",
    ),
    (
        dict(command="classify", algebra="xxdot", grid=1),
        "22b8c9dfd30fbb3dcc20154461c8539c754432fe214377ddfeb10f52b58d0747",
    ),
    (
        dict(command="classify", algebra="conf(1,2)", grid=1),
        "a466b608c379d177f30881e0ba625058dd2c1853db626e93620336c6c4382e3a",
    ),
    (
        dict(command="reparam", algebra="lagr3"),
        "8295fbc137c5fc1fee8b23f82a735bc61925c540aeed93375f3d3e3191adb495",
    ),
    (
        dict(command="reparam", algebra="xxdot"),
        "3e3379e2f95e029445622e8ad43327d79137ff47bf17749ca37f68d3028b2d50",
    ),
    # the reparam report of scripts/run_full_suite.py, and the family job
    # of the grid-fraction benchmark workload
    (
        dict(command="reparam", algebra="proj(1)"),
        "624cff1bee38b7256f46ef3f49e76890f6c92d5bb9ddb90815db64c0de99eaea",
    ),
    (
        dict(command="family", algebra="xxdot", type_spec="grade(-2)", grid=2),
        "2c2cdaee2d4fd66dae5364d7762181dd42e14dfe093071bba4516cf7bd20eb14",
    ),
]


@pytest.mark.parametrize(
    "params,digest",
    REPORT_GOLDEN,
    ids=[" ".join(str(v) for v in p.values()) for p, _ in REPORT_GOLDEN],
)
def test_report_digest(params, digest):
    report, code = run(ExperimentConfig(**params))
    assert code == 0
    assert _digest(emit(report, "json")) == digest


# su21 values that hold basis coordinates only, so they do not depend on
# the matrices that realize the basis.
SU21_COORD_GOLDEN = {
    "bracket_table": "368b7e4ee4488897710e86c8fdf73d9cb237a9ebb63510372c80905f0fc1bda0",
    "jet": "ae2f95347fd4d352e0cd220c6115e0f83d34991db4c41e414f0aa82461b35e9c",
    "delta_coords": "854a7f6c1b3f41a221e5126ce362dde2390300912b26b79bf25ae03d975a75da",
}


@pytest.mark.parametrize("part", sorted(SU21_COORD_GOLDEN))
def test_su21_coordinate_digest(part):
    alg = make_algebra("su21")
    if part == "bracket_table":
        value = dense_bracket_table(alg)
    else:
        jet, delta, _, _ = curve_layer_parts(alg)
        value = jet if part == "jet" else delta
    assert _digest(value) == SU21_COORD_GOLDEN[part]


REPRODUCE_TABLES = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"


def test_reproduce_tables_digest(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(REPRODUCE_TABLES), "--grid", "1"])
    runpy.run_path(str(REPRODUCE_TABLES), run_name="__main__")
    out = capsys.readouterr().out.encode()
    assert _digest(out) == "9f368cbecca69833ba3c12ae94e2605dc50fe18acd5193d7ee645dbeedb3be4b"

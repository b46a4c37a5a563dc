"""Byte-identity of jets reports and algebra builds across engine changes.

Each jets digest is the SHA-256 of ``emit(run(config))`` as first computed
on the Fraction pair path or on the integer engine before its sparse pair
step.  The configs are the su21 searches (first run over the Gaussian
rationals, now on the realified algebra), the searches with fractional
base directions, one search fanned out to two worker processes, and
integer-direction searches on four other algebras.  Any change to these
bytes is a behaviour change of the jet-determination checker.

The remaining jets runs of ``scripts/run_full_suite.py`` (proj(2),
grass(1,2), lagr3 grade(-1) and grade(-2), su21 grade(-2) at grid 1, xxdot
full_n), its reparam proj(1) report, and the benchmark's family xxdot
grade(-2) job at grid 2 were pinned on the Fraction exponential, before
every nilpotent exponential became one integer series; with them every
report that script writes is pinned.

Each build digest is the SHA-256 of the repr of an algebra's pivot rows,
coordinate extractor and bracket table as first computed by the dense
build (greedy rank tests, Laplace cofactor inverse, dense commutators).
The repr pins the entry types as well as the values; the extractor rows
are read off the integer frame as ``Fraction``s (``frame_extractor``),
now that the build keeps no ``Fraction`` extractor.  su21's build and
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
integer one; the exponentials are ``IntPolyMat``s now, sampled through
``poly_reference.to_mat``, whose repr is that of the old Poly-entry
``Mat``; the constant-matrix exponential and logarithm now live in
``poly_reference``.
"""

import hashlib
from fractions import Fraction

import pytest

from conftest import frame_extractor, full_flag_sl4
from parageo.algebra import exp_nilpotent
from parageo.catalog import make_algebra
from parageo.cli import ExperimentConfig, emit, run
from parageo.curves import CurveSpec, comparison, normal_coord_jet
from parageo.poly import P_T
from poly_reference import exp_mat, frac_matrix, log_unipotent, to_mat

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
    # the remaining jets runs of scripts/run_full_suite.py
    (
        dict(algebra="proj(2)", type_spec="full_n", grid=2),
        "09bc39486de06242ce1a7817ee64d94f45c443208118c01055432c900a22d601",
    ),
    (
        dict(algebra="grass(1,2)", type_spec="full_n", grid=2),
        "af35e96bbf1dea6630f8a87c2b9b33c41733bf78371b38d65ed03056f308ae9b",
    ),
    (
        dict(algebra="lagr3", type_spec="grade(-1)", grid=2),
        "cb34f2d459865b01b853b58267b5d3fb31b9a2840247ceecd4eeaec65c5a67dd",
    ),
    (
        dict(algebra="lagr3", type_spec="grade(-2)", grid=2),
        "d095625ca831b6dc682553740a155dabb720221629093361b185feec40773a1f",
    ),
    (
        dict(algebra="su21", type_spec="grade(-2)", grid=1),
        "365777ea199e65c56ff2f2f893302dd84a777972a6413b8b0206fba4482e2ce5",
    ),
    (
        dict(algebra="xxdot", type_spec="full_n", grid=2),
        "6f1656d50ac96221778cfd29403fbb5e63dcd4c2aa296eefcbd8706423621981",
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
    built = repr((*frame_extractor(alg), alg.bracket_table))
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
    jet = normal_coord_jet(c, order).coeffs_prefix(order)
    delta = comparison(CurveSpec.base(alg, x), c).delta_coords
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
        "5e26e88ec7068e73638a98ed5f7919a05ce94d08d40dba661afe0b6e694bae68",
    ),
    (
        dict(command="verify", algebra="su21", suite="structure"),
        "c7b54346911c941b8200d106d7c48e6a59929ffc9ec8b5a6ba9270c48e00a408",
    ),
    (
        dict(command="verify", algebra="proj(1)", suite="all"),
        "3eb3471578a6d2209bcc793a21da42393d9067a8f8d2c4b29c9e7ec729e210c9",
    ),
    (
        dict(command="verify", algebra="proj(2)", suite="all"),
        "6636086d113162f3fee45791471f45afe686b927845e1c99867abe0ee55b53e7",
    ),
    (
        dict(command="verify", algebra="grass(1,2)", suite="all"),
        "9fd3355baffea35a79f8af2c0e613f104c3d98a28d5cb465f38a3ffa9c20c381",
    ),
    (
        dict(command="verify", algebra="grass(2,2)", suite="all"),
        "31c7401e177e68893e361797678e464677b2686d558171682db3e53f144f57a8",
    ),
    (
        dict(command="verify", algebra="conf(1,1)", suite="all"),
        "2872f874f5977ddc31154adc94cc3d6f2936bc72d52e81f8ad47cf83fdc33b60",
    ),
    (
        dict(command="verify", algebra="conf(1,2)", suite="all"),
        "61c9b4424f4382161fe0fe7b280d4977b0acc1a1f86b19e8fad76999bad1edc1",
    ),
    (
        dict(command="verify", algebra="lagr3", suite="all"),
        "cdeaf11c79e6744e4b2f871b072a3805ddde47782a90c637871a76df18e6f280",
    ),
    (
        dict(command="verify", algebra="su21", suite="all"),
        "d593ed3c8d69406f5f455272835cfd586d138fb8a6c60a4520e1942c8c4cc7be",
    ),
    (
        dict(command="verify", algebra="xxdot", suite="all"),
        "13872e8d5972cf45abac461ed0f6f20e842d568c41e28d58fe52301a385a96be",
    ),
    (
        dict(command="fiber", algebra="proj(2)", type_spec="full_n", grid=2),
        "22d6b0390cd5ae27913f9818d7d1bc11e3d24986be9fdda57c3cc306b0de6d9a",
    ),
    (
        dict(command="fiber", algebra="grass(1,2)", type_spec="full_n", grid=1),
        "3591fdbf8a5167c959653f7cb91b5f9b6aa8d8b841175dfb6681c140b406d1f6",
    ),
    (
        dict(command="fiber", algebra="conf(1,1)", type_spec="null_cone", grid=2),
        "86c3e73a5e7ac610f3322e0481914dbdb0da9267a6e1932f983a661b4323a195",
    ),
    # pinned before the fiber took [X,[X,Z]] by linearity in Z: the
    # benchmark's fiber job and both grass(2,2) fiber types
    (
        dict(command="fiber", algebra="conf(1,2)", type_spec="full_n", grid=2),
        "fd0b75a8024ba67a58f2cf0b04e4f524cfc3a60565b3430b1f34edbbfac5a56a",
    ),
    (
        dict(command="fiber", algebra="grass(2,2)", type_spec="full_n", grid=1),
        "78b603703040d611229dd14ade59f570d4c25b4e6e8ed01735a4ef0d435a5f8c",
    ),
    (
        dict(command="fiber", algebra="grass(2,2)", type_spec="rank(1)", grid=1),
        "8648532f0dc9182f625b40c83d65dfeca31fd6cd088cc25551a7b58aeae3fe8d",
    ),
    (
        dict(command="family", algebra="proj(2)", type_spec="grade(-1)", grid=2),
        "760ffc41dae259a963f0501dd841eb5571140c47447d0cfb4936ae9fc76f8f37",
    ),
    (
        dict(command="family", algebra="lagr3", type_spec="grade(-2)", grid=2),
        "5563c48047435d37ee5ea5c66227a0d40837d012afae10258190264bf1b50721",
    ),
    (
        dict(command="family", algebra="lagr3", type_spec="grade(-1)", grid=2),
        "173cd0a8bb8bc4a4efaf8dc3e81619ba721fbecf49c97ec4c019cf52191ccb73",
    ),
    (
        dict(command="family", algebra="xxdot", type_spec="grade(-2)", grid=1),
        "455da29cc6bc5002c4119c85df9f6712d783c5a67194c86d3c1e04218914fdd6",
    ),
    (
        dict(command="family", algebra="su21", type_spec="grade(-2)", grid=1),
        "bcea2b9924b9832216cf23158762a61d8412e94f00ccedb96671c2ee6b2862a3",
    ),
    (
        dict(command="classify", algebra="grass(2,2)", grid=1),
        "e1d442d2c63a0c4bda9ed7055ba5a6873668e32ea32c539aded13ad3e78d6879",
    ),
    (
        dict(command="classify", algebra="lagr3", grid=2),
        "8588ea453eebe4787625df78ce6877f0fb7835f90604136aedd28cf5a1ad45d4",
    ),
    (
        dict(command="classify", algebra="xxdot", grid=1),
        "45b920ea12cdbe9a147b6643c20177cfd342d5f3e75170007870a948733550ff",
    ),
    (
        dict(command="classify", algebra="conf(1,2)", grid=1),
        "90635e14e4f10be9b7431f642a15aa057babb4040652a3480440a55e40b18343",
    ),
    (
        dict(command="reparam", algebra="lagr3"),
        "f61ebff313b282ef42f3d915496873429878ab9a5fccfbf98d96d4d4bf5ba367",
    ),
    (
        dict(command="reparam", algebra="xxdot"),
        "fcb28a94126a47238f3387d43d478832c8ecccabdd9db08550a2a485620dd076",
    ),
    # the reparam report of scripts/run_full_suite.py, and the family job
    # of the grid-fraction benchmark workload
    (
        dict(command="reparam", algebra="proj(1)"),
        "6e8ea03b0ef669a12882db8ada5c13ab2bb5d2b5614d9d73aedf273593af3eb2",
    ),
    (
        dict(command="family", algebra="xxdot", type_spec="grade(-2)", grid=2),
        "de4850fd5260d468851dc789d3a5045a08c9d116279467d084d2cb88f4c7aeac",
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
        value = alg.bracket_table
    else:
        jet, delta, _, _ = curve_layer_parts(alg)
        value = jet if part == "jet" else delta
    assert _digest(value) == SU21_COORD_GOLDEN[part]

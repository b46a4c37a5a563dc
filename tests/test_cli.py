import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import parageo
from parageo import catalog, cli
from parageo.catalog import MAX_JET_ORDER, MAX_MATRIX_DIM, make_algebra
from parageo.cli import ExperimentConfig, emit, main, parse_direction, run

from conftest import ALL_IDS


def run_json(config):
    report, code = run(config)
    # byte-serialization must round-trip through canonical JSON
    data = emit(report, "json")
    return json.loads(data), code, data


def test_config_roundtrips_through_serialization():
    cfg = ExperimentConfig(command="jets", algebra="xxdot", type_spec="grade(-2)", grid=1, orders=4)
    wire = json.loads(json.dumps(cfg.to_jsonable(), sort_keys=True))
    # the config echoes the command and the options its subparser declares,
    # but the output path
    assert set(wire) == {
        "command", "algebra", "type_spec", "grid", "orders", "direction", "claimed_bound", "format"
    }
    assert ExperimentConfig(**wire) == cfg
    assert set(ExperimentConfig(command="verify", output="r.json").to_jsonable()) == {
        "command", "algebra", "suite", "format"
    }
    assert ExperimentConfig(command="catalog").to_jsonable() == {"command": "catalog"}


def test_emit_rejects_unknown_format():
    from parageo.errors import IoError

    report, _ = run(ExperimentConfig(command="catalog"))
    with pytest.raises(IoError):
        emit(report, "xml")


def test_catalog_lists_six_families():
    report, code, _ = run_json(ExperimentConfig(command="catalog"))
    assert code == 0
    table = report["results"]["families"]
    assert table["columns"] == ["family", "signature", "description", "representative"]
    assert {row[0] for row in table["rows"]} == {"proj", "grass", "conf", "lagr3", "su21", "xxdot"}
    assert report["schema"] == "parageo/2"


def test_verify_lemmas_exit0():
    cfg = ExperimentConfig(command="verify", algebra="lagr3", suite="lemmas")
    report, code, _ = run_json(cfg)
    assert code == 0 and report["summary"]["pass"]
    assert report["results"]["lemma_suite"]["n_checks"] >= 50
    assert report["results"]["lemma_suite"]["violations"] == []


def test_verify_structure_all():
    cfg = ExperimentConfig(command="verify", algebra="proj(1)", suite="all")
    report, code, _ = run_json(cfg)
    assert code == 0
    assert report["results"]["structure"]["pass"]


def test_jets_report_and_exit_codes():
    cfg = ExperimentConfig(command="jets", algebra="proj(2)", type_spec="full_n", grid=2, orders=4)
    report, code, _ = run_json(cfg)
    assert code == 0
    jr = report["results"]["jets"]
    assert jr["verdicts"]["columns"] == ["order", "verdict", "Z", "Y", "jet_order"]
    assert jr["verdicts"]["rows"][1] == [2, "confirmed", None, None, None]
    assert jr["empirical_sharp_order"] == 2
    # a deliberately false bound must force exit 1
    cfg_bad = ExperimentConfig(
        command="jets", algebra="proj(2)", type_spec="full_n", grid=1, orders=3, claimed_bound=1
    )
    report, code, _ = run_json(cfg_bad)
    assert code == 1 and not report["summary"]["pass"]


def test_fiber_and_family_and_classify():
    report, code, _ = run_json(
        ExperimentConfig(command="fiber", algebra="conf(1,1)", type_spec="null_cone", grid=1)
    )
    assert code == 0 and report["results"]["fiber"]["n_pairs"] > 0
    report, code, _ = run_json(
        ExperimentConfig(command="family", algebra="lagr3", type_spec="lagrange1", grid=1)
    )
    assert code == 0 and report["results"]["family"]["family_dimension"] == 1
    report, code, _ = run_json(ExperimentConfig(command="classify", algebra="lagr3", grid=1))
    assert code == 0
    counts = report["results"]["classify"]
    assert counts["columns"] == ["stratum", "grid_points"]
    assert sum(n for _, n in counts["rows"]) == 27


def test_reparam_default_example():
    report, code, _ = run_json(ExperimentConfig(command="reparam", algebra="proj(1)"))
    assert code == 0
    rr = report["results"]["reparam"]
    assert rr["exists"] and rr["verified"] and rr["schwarzian"]
    assert rr["map"]["seeds"] == ["0", "1", "-2"]


def _exact_values(config):
    """Every exact number of a jets, fiber, family or reparam report, read
    back from its canonical JSON bytes."""
    report, _, data = run_json(config)
    assert b"Fraction" not in data
    results = report["results"]
    if "jets" in results:
        jr = results["jets"]
        witnesses = [row[2] + row[3] for row in jr["verdicts"]["rows"] if row[2]]
        assert witnesses
        return jr["direction"] + [c for w in witnesses for c in w]
    if "fiber" in results:
        return [c for x, _ in results["fiber"]["ranks"]["rows"] for c in x]
    if "family" in results:
        return results["family"]["direction"]
    rm = results["reparam"]["map"]
    return [rm[k] for k in "ABCD"] + rm["seeds"]


def test_rationals_serialize_as_strings():
    report, _, data = run_json(
        ExperimentConfig(command="jets", algebra="proj(2)", type_spec="full_n", grid=1, orders=3)
    )
    jr = report["results"]["jets"]
    for row in jr["verdicts"]["rows"]:
        assert row[2] is None or all(isinstance(c, str) for c in row[2])
    assert b"Fraction" not in data
    # integral values too: an int that skipped the conversion would be a
    # JSON number
    for config in [
        ExperimentConfig(command="jets", algebra="lagr3", grid=1, direction="1/2,-3,2/7"),
        ExperimentConfig(command="fiber", algebra="conf(1,1)", grid=1),
        ExperimentConfig(command="family", algebra="lagr3", type_spec="lagrange1", grid=1, direction="0,1/3,0"),
        ExperimentConfig(command="reparam", algebra="proj(1)", x1="1/2", z="1/3", x2="2"),
    ]:
        values = _exact_values(config)
        assert values and all(isinstance(c, str) for c in values), config.command


def test_byte_determinism():
    cfg = ExperimentConfig(command="verify", algebra="lagr3", suite="lemmas", grid=2)
    _, _, first = run_json(cfg)
    _, _, second = run_json(cfg)
    assert first == second
    cfg2 = ExperimentConfig(command="jets", algebra="conf(1,2)", type_spec="full_n", grid=1)
    _, _, a = run_json(cfg2)
    _, _, b = run_json(cfg2)
    assert a == b


def test_markdown_format():
    report, _, _ = run_json(
        ExperimentConfig(command="family", algebra="lagr3", type_spec="lagrange1", grid=1)
    )
    md = emit(report, "md").decode()
    assert "## family\n\n- admissible_hull_dim: 3\n- algebra: lagr3\n" in md
    assert "- direction: 0,1,0\n" in md
    assert md.endswith("\n**PASS**\n")


def test_markdown_lists_orders_in_numeric_order():
    report, _ = run(ExperimentConfig(command="jets", algebra="proj(2)", grid=1, orders=12))
    assert emit(report, "md") == (
        b"# parageo report: jets\n\n## algebra\n\n"
        b"- depth: 1\n- family: proj\n- field: rational\n"
        b'- grade_dims: {"-1":2,"0":4,"1":2}\n- matrix_dim: 3\n- name: proj(2)\n'
        b'- params: {"m":2,"n":1}\n\n'
        b"## jets\n\n- algebra: proj(2)\n- claimed_bound: 2\n- direction: 0,1\n"
        b"- empirical_sharp_order: 2\n- grid_range: 1\n- n_admissible: 9\n- n_equal: 3\n"
        b"- n_grid: 9\n- orders_tested: 1,2,3,4,5,6,7,8,9,10,11,12\n- pass: true\n"
        b"- type: full_n\n- violations: -\n\n### verdicts\n\n"
        b"| order | verdict | Z | Y | jet_order |\n|---|---|---|---|---|\n"
        b"| 1 | counterexample | -1,-1 | 0,1 | 1 |\n"
        + b"".join(b"| %d | confirmed | - | - | - |\n" % r for r in range(2, 13))
        + b"\n**PASS**\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["jets", "--algebra", "proj(2)"],
        ["jets", "--algebra", "lagr3", "--direction", "1/2,-3,2/7"],
        ["family", "--algebra", "xxdot", "--type", "grade(-1)"],
    ],
    ids=" ".join,
)
def test_report_direction_pastes_back(argv):
    # the direction is written over the n basis, as --direction reads it,
    # in JSON and in Markdown alike; pasted back, it gives the same results
    def report_of(argv):
        report, code = run(ExperimentConfig(**vars(cli.build_parser().parse_args(argv + ["--grid", "1"]))))
        return json.loads(emit(report)), emit(report, "md").decode(), code

    report, md, code = report_of(argv)
    written = ",".join(report["results"][argv[0]]["direction"])
    assert "\n- direction: %s\n" % written in md
    if "--direction" in argv:
        assert written == argv[argv.index("--direction") + 1]
    again, _, again_code = report_of(argv + ["--direction", written])
    assert again_code == code
    assert again["results"] == report["results"]


def test_main_writes_output(tmp_path):
    out = tmp_path / "report.json"
    code = main(["jets", "--algebra", "proj(1)", "--grid", "1", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_bytes())
    assert data["schema"] == "parageo/2"


def test_python_dash_m_runs_the_cli(tmp_path):
    # ``python -m parageo`` is the console script, from any directory
    src = str(pathlib.Path(parageo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "parageo", *argv], capture_output=True, cwd=tmp_path, env=env, timeout=120
        )

    ok = cli("catalog")
    assert ok.returncode == 0 and json.loads(ok.stdout)["schema"] == "parageo/2"
    bad = cli("fiber", "--algebra", "conf(1,1)", "--grid", "-1")
    assert bad.returncode == 2 and b"grid bound must be >= 0" in bad.stderr


def test_main_exit_codes(capsys):
    assert main(["classify", "--algebra", "nosuch(1)"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["jets", "--algebra", "proj(1)", "--type", "bogus-type", "--grid", "1"]) == 2
    # verify and reparam read no grid, so they take no --grid
    assert main(["verify", "--algebra", "proj(1)", "--grid", "5"]) == 2
    assert main(["reparam", "--algebra", "proj(1)", "--grid", "5"]) == 2


@pytest.mark.parametrize(
    "command", ["catalog", "verify", "jets", "fiber", "family", "reparam", "classify"]
)
def test_cli_defaults_are_the_config_defaults(capsysbinary, command):
    # main sets only the options given, so every default is ExperimentConfig's
    if command == "catalog":
        argv, config = [command], ExperimentConfig(command=command)
    else:
        argv = [command, "--algebra", "proj(1)"]
        config = ExperimentConfig(command=command, algebra="proj(1)")
    report, code = run(config)
    assert main(argv) == code
    assert capsysbinary.readouterr().out == emit(report)


@pytest.mark.parametrize("value", ["2", "zero"])
def test_workers_env_is_not_read(monkeypatch, capsysbinary, value):
    # every run is one process: a set PARAGEO_WORKERS, even one that is no
    # count, gives the bytes and the exit code of the unset run
    argv = ["jets", "--algebra", "lagr3", "--type", "grade(-2)", "--grid", "1"]
    monkeypatch.delenv("PARAGEO_WORKERS", raising=False)
    code = main(argv)
    unset = capsysbinary.readouterr().out
    monkeypatch.setenv("PARAGEO_WORKERS", value)
    assert main(argv) == code == 0
    assert capsysbinary.readouterr().out == unset


def test_bad_direction_exits_2(capsys):
    for direction in ("a,b,c", "1/0,1,1"):
        argv = ["jets", "--algebra", "lagr3", "--grid", "0", "--direction", direction]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


def test_bad_grade_coords_exit_2(capsys):
    assert main(["reparam", "--algebra", "lagr3", "--x1", "q"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_pplus_coords_exit_2(capsys):
    assert main(["reparam", "--algebra", "lagr3", "--z", "x"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("orders", ["0", "-1"])
def test_jets_orders_below_1_exit_2(orders, capsys):
    assert main(["jets", "--algebra", "lagr3", "--grid", "1", "--orders", orders]) == 2
    out = capsys.readouterr()
    assert "highest jet order must be at least 1" in out.err
    assert out.out == ""


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_jets_claimed_bound_below_1_exit_2(bound, capsys):
    argv = ["jets", "--algebra", "proj(2)", "--grid", "1", "--orders", "3", "--claimed-bound"]
    assert main(argv + [bound]) == 2
    out = capsys.readouterr()
    assert "claimed bound must be at least 1" in out.err
    assert out.out == ""
    # bound 1 is a claim: the counterexample at order 1 violates it
    assert main(argv + ["1"]) == 1


def test_jets_orders_past_the_cap_exit_2(capsys):
    # the cap admits 2k+1, past which every verdict repeats, on every catalog id
    assert max(2 * make_algebra(cid).k + 1 for cid in ALL_IDS) <= MAX_JET_ORDER
    argv = ["jets", "--algebra", "proj(1)", "--grid", "0", "--orders"]
    assert main(argv + [str(MAX_JET_ORDER)]) == 0
    capsys.readouterr()
    assert main(argv + [str(MAX_JET_ORDER + 1)]) == 2
    out = capsys.readouterr()
    assert "highest jet order must be at most %d" % MAX_JET_ORDER in out.err
    assert out.out == ""


def test_huge_exponent_exits_2_fast(capsys):
    t0 = time.perf_counter()
    assert main(["jets", "--algebra", "lagr3", "--direction", "1e999999999,1,1"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["jets", "--algebra", "xxdot", "--grid", "1000"],  # 2001^5 Z points
        ["classify", "--algebra", "xxdot", "--grid", "1000"],  # 2001^5 X points
        ["jets", "--algebra", "grass(5,6)", "--grid", "1"],  # 3^30 Z points
    ],
    ids=" ".join,
)
def test_oversized_grid_exits_2_fast(argv, capsys):
    make_algebra(argv[2])  # time the grid check, not the build
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr()
    assert "points" in out.err and out.out == ""


@pytest.mark.parametrize("cid", ["proj(7)", "proj(8)"])
def test_oversized_orbit_grid_exits_2(cid, capsys, monkeypatch):
    # the grade orbit walks 3^m X points times 3^m Z points; the product is
    # capped before the family pass runs, so that pass is never called
    def family_pass(*args, **kwargs):
        raise AssertionError("the family pass ran before the orbit grid cap")

    monkeypatch.setattr(cli, "family_dimension", family_pass)
    make_algebra(cid)
    t0 = time.perf_counter()
    assert main(["family", "--algebra", cid, "--type", "grade(-1)", "--grid", "1"]) == 2
    assert time.perf_counter() - t0 < 10.0
    out = capsys.readouterr()
    assert "points" in out.err and out.out == ""


@pytest.mark.parametrize(
    "argv", [["jets", "--algebra", "grass(5,6)"], ["family", "--algebra", "grass(4,4)"]], ids=" ".join
)
def test_default_direction_on_a_large_n_exits_0(argv, capsys):
    # one grid point; the default direction, the first nonzero point of
    # [0, 1]^m, is found without walking the 3^m points of [-1, 1]^m
    assert main(argv + ["--grid", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["pass"]
    alg = make_algebra(argv[2])
    first = alg.elem_at(alg.n_indices[-1:], (1,))
    assert report["results"][argv[0]]["direction"] == [str(first.coords[i]) for i in alg.n_indices]


def test_exponent_literals_keep_their_value():
    alg = make_algebra("lagr3")
    x = parse_direction(alg, "1e2,-5E-1,2e4300")
    assert x.grade_coords(-2) + x.grade_coords(-1) == (100, Fraction(-1, 2), 2 * 10**4300)


@pytest.mark.parametrize(
    "cid",
    [
        "proj(100000)",  # dim 100001: would build for hours
        "proj(%s)" % ("9" * 5000),  # past the int-string digit limit
        "proj(12)",  # ids past dim 12
        "grass(6,7)",
        "conf(5,6)",
        "proj(11)",  # the first id of each family past dim 11
        "grass(6,6)",
        "conf(5,5)",
    ],
    ids=["proj-1e5", "proj-5000-digits", "proj12", "grass6-7", "conf5-6", "proj11", "grass6-6", "conf5-5"],
)
def test_oversized_catalog_id_exits_2_fast(cid, capsys):
    t0 = time.perf_counter()
    assert main(["verify", "--algebra", cid]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "at most %d" % MAX_MATRIX_DIM in capsys.readouterr().err


def test_size_guard_admits_max_matrix_dim(monkeypatch):
    # the guard runs before the builder; a stub in place of the algebra
    # construction shows which ids get past it, without building them
    assert MAX_MATRIX_DIM == 11
    built = []
    monkeypatch.setattr(catalog, "GradedAlgebra", lambda name, *args, **kw: built.append(name))
    for cid in ("proj(10)", "grass(5,6)", "conf(4,5)", "proj(0010)"):
        catalog._make.__wrapped__(*catalog.parse_catalog_id(cid))
    assert built == ["proj(10)", "grass(5,6)", "conf(4,5)", "proj(10)"]


def test_bad_type_parameter_exits_2():
    assert main(["jets", "--algebra", "lagr3", "--type", "grade(x)", "--grid", "0"]) == 2


from hypothesis import given, settings, strategies as st

_COORD = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=5).map(str),
    st.text(alphabet="0123456789/-+. abeE", max_size=5),
)


@settings(max_examples=60, deadline=None)
@given(coords=st.lists(_COORD, min_size=1, max_size=4))
def test_direction_fuzz_exit_codes(coords):
    argv = ["jets", "--algebra", "lagr3", "--grid", "0", "--direction=" + ",".join(coords)]
    assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize("command", ["jets", "family"])
def test_zero_direction_exits_2(command, capsys):
    # jets and family share one direction rule: a nonzero member of the type
    argv = [command, "--algebra", "lagr3", "--type", "grade(-1)", "--direction", "0,0,0", "--grid", "1"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert "base direction must be nonzero" in out.err
    assert out.out == ""

import json
import time
from fractions import Fraction

import pytest

from parageo.catalog import make_algebra
from parageo.cli import ExperimentConfig, emit, main, parse_direction, run


def run_json(config):
    report, code = run(config)
    # byte-serialization must round-trip through canonical JSON
    data = emit(report, "json")
    return json.loads(data), code, data


def test_config_roundtrips_through_serialization():
    cfg = ExperimentConfig(command="jets", algebra="xxdot", type_spec="grade(-2)", grid=1, orders=4)
    wire = json.loads(json.dumps(cfg.to_jsonable(), sort_keys=True))
    assert ExperimentConfig.from_jsonable(wire) == cfg


def test_emit_rejects_unknown_format():
    from parageo.errors import IoError

    report, _ = run(ExperimentConfig(command="catalog"))
    with pytest.raises(IoError):
        emit(report, "xml")


def test_catalog_lists_six_families():
    report, code, _ = run_json(ExperimentConfig(command="catalog"))
    assert code == 0
    fams = {row["family"] for row in report["results"]["families"]}
    assert fams == {"proj", "grass", "conf", "lagr3", "su21", "xxdot"}
    assert report["schema"] == "parageo/1"


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
    assert jr["verdicts"]["2"] == "confirmed"
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
    assert sum(counts.values()) == 27


def test_reparam_default_example():
    report, code, _ = run_json(ExperimentConfig(command="reparam", algebra="proj(1)"))
    assert code == 0
    rr = report["results"]["reparam"]
    assert rr["exists"] and rr["verified"] and rr["schwarzian"]
    assert rr["map"]["seeds"] == ["0", "1", "-2"]


def test_rationals_serialize_as_strings():
    report, _, data = run_json(
        ExperimentConfig(command="jets", algebra="proj(2)", type_spec="full_n", grid=1, orders=3)
    )
    jr = report["results"]["jets"]
    for w in jr["counterexamples"].values():
        assert all(isinstance(c, str) for c in w["Z"])
    assert b"Fraction" not in data


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
    assert "| type | direction | family dim |" in md
    assert "PASS" in md


def test_main_writes_output(tmp_path):
    out = tmp_path / "report.json"
    code = main(["jets", "--algebra", "proj(1)", "--grid", "1", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_bytes())
    assert data["schema"] == "parageo/1"


def test_main_exit_codes(capsys):
    assert main(["classify", "--algebra", "nosuch(1)"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["jets", "--algebra", "proj(1)", "--type", "bogus-type", "--grid", "1"]) == 2


def test_workers_env_validation(monkeypatch):
    monkeypatch.setenv("PARAGEO_WORKERS", "zero")
    assert main(["classify", "--algebra", "proj(1)", "--grid", "1"]) == 2
    monkeypatch.setenv("PARAGEO_WORKERS", "0")
    assert main(["classify", "--algebra", "proj(1)", "--grid", "1"]) == 2


def test_workers_env_results_match(monkeypatch, capsysbinary):
    monkeypatch.setenv("PARAGEO_WORKERS", "2")
    code = main(["jets", "--algebra", "lagr3", "--type", "grade(-2)", "--grid", "1"])
    out2 = capsysbinary.readouterr().out
    assert code == 0
    monkeypatch.delenv("PARAGEO_WORKERS")
    code = main(["jets", "--algebra", "lagr3", "--type", "grade(-2)", "--grid", "1"])
    out1 = capsysbinary.readouterr().out
    assert code == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["results"] == r2["results"]
    assert r1["summary"] == r2["summary"]


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


def test_huge_exponent_exits_2_fast(capsys):
    t0 = time.perf_counter()
    assert main(["jets", "--algebra", "lagr3", "--direction", "1e999999999,1,1"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "error:" in capsys.readouterr().err


def test_exponent_literals_keep_their_value():
    alg = make_algebra("lagr3")
    x = parse_direction(alg, "1e2,-5E-1,2e4300")
    assert x.grade_coords(-2) + x.grade_coords(-1) == (100, Fraction(-1, 2), 2 * 10**4300)


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

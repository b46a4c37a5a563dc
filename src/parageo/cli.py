"""Command-line front end: build algebras, run experiments, emit reports.

Exit codes: 0 when every checked claim holds, 1 when any violation was
found (a counterexample at or above a proved bound, or a failed identity),
2 on usage errors.  Reports are deterministic: identical configurations
produce byte-identical output.  Rationals serialize as exact 'p/q'
strings, never floats.  The environment variable PARAGEO_WORKERS (a
positive integer) caps the worker pool used to fan out grid evaluation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import __version__
from .algebra import AlgElem
from .catalog import CATALOG, make_algebra
from .errors import IoError, ParageoError
from .lab import (
    family_dimension,
    g0_orbit_classify,
    min_jet_order_search,
    orbit_hull_dimension,
    standard_fiber,
    type_full,
    type_grade,
    type_null_cone,
    type_rank_stratum,
    type_stratum,
)
from .reparam import reparam_solve, schwarzian_check, verify_reparam
from .curves import CurveSpec
from .suite import lemma_suite

SCHEMA = "parageo/1"


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    algebra: str = ""
    type_spec: str = "full_n"
    grid: int = 2
    orders: int | None = None
    direction: str | None = None
    claimed_bound: int | None = None
    suite: str = "lemmas"
    x1: str | None = None
    z: str | None = None
    x2: str | None = None
    output: str | None = None
    format: str = "json"
    workers: int = 1

    def to_jsonable(self):
        d = asdict(self)
        d.pop("output")
        return d

    @classmethod
    def from_jsonable(cls, d):
        return cls(output=None, **d)


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ParageoError("expected an integer, got %r" % text) from None


def parse_type(alg, text):
    """Type names: full_n, grade(-j), null_cone, rank(r), or a stratum name."""
    text = text.strip()
    if text in ("full", "full_n", "n"):
        return type_full(alg)
    if text.startswith("grade(") and text.endswith(")"):
        return type_grade(alg, _parse_int(text[6:-1]))
    if text in ("null", "null_cone"):
        return type_null_cone(alg)
    if text.startswith("rank(") and text.endswith(")"):
        return type_rank_stratum(alg, _parse_int(text[5:-1]))
    return type_stratum(alg, text)


# Largest accepted decimal exponent, as large as CPython's default limit on
# the digits of an int string: Fraction expands an exponent to the full
# integer, so 1e999999999 would take unbounded time and memory.
_MAX_EXPONENT = 4300


def _parse_rational(text):
    """Fraction(text), refusing a decimal exponent beyond _MAX_EXPONENT."""
    _, e, exponent = text.lower().partition("e")
    if e:
        try:
            exponent = int(exponent)
        except ValueError:
            exponent = 0  # not an exponent: Fraction rejects the literal
        if abs(exponent) > _MAX_EXPONENT:
            raise ValueError("exponent beyond %d" % _MAX_EXPONENT)
    return Fraction(text)


def _parse_coords(alg, text, idx, what):
    """The element with the comma-separated exact coordinates of ``text``
    at basis indices ``idx`` and zeros elsewhere."""
    try:
        vals = [_parse_rational(v.strip()) for v in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ParageoError(
            "%s: expected exact rationals such as -1/2, got %r" % (what, text)
        ) from None
    if len(vals) != len(idx):
        raise ParageoError("%s needs %d coordinates, got %d" % (what, len(idx), len(vals)))
    coords = [Fraction(0)] * alg.dim
    for i, v in zip(idx, vals):
        coords[i] = v
    return AlgElem(alg, tuple(coords))


def parse_direction(alg, text):
    """Comma-separated exact coordinates over the n basis (grades ascending)."""
    n_idx = [i for i in range(alg.dim) if alg.basis_grades[i] < 0]
    return _parse_coords(alg, text, n_idx, "direction over the n basis")


def parse_grade_coords(alg, grade, text):
    return _parse_coords(alg, text, alg.grade_slices[grade], "grade %d" % grade)


def parse_pplus_coords(alg, text):
    idx = [i for g in range(1, alg.k + 1) for i in alg.grade_slices[g]]
    return _parse_coords(alg, text, idx, "p_+")


def envelope(config, algebra_desc, results, failures):
    return {
        "schema": SCHEMA,
        "tool": {"name": "parageo", "version": __version__},
        "algebra": algebra_desc,
        "config": config.to_jsonable(),
        "results": results,
        "summary": {"pass": not failures, "failures": list(failures)},
    }


def run(config):
    """Execute a config; returns (envelope dict, exit code)."""
    failures = []
    if config.command == "catalog":
        rows = []
        for family, (sig, desc) in sorted(CATALOG.items()):
            rep = {"proj": "proj(2)", "grass": "grass(2,2)", "conf": "conf(1,2)"}.get(
                family, family
            )
            alg = make_algebra(rep)
            rows.append(
                {
                    "family": family,
                    "signature": sig,
                    "description": desc,
                    "representative": alg.describe(),
                }
            )
        return envelope(config, {"catalog": "all"}, {"families": rows}, []), 0

    alg = make_algebra(config.algebra)
    desc = alg.describe()

    if config.command == "verify":
        results = {}
        if config.suite in ("lemmas", "all"):
            rep = lemma_suite(alg)
            results["lemma_suite"] = rep.to_jsonable()
            failures.extend(rep.violations)
        if config.suite in ("structure", "all"):
            bad = alg.structure_violations()
            results["structure"] = {"violations": list(bad), "pass": not bad}
            failures.extend(bad)
        if not results:
            raise ParageoError("unknown suite %r" % config.suite)
        return envelope(config, desc, results, failures), (1 if failures else 0)

    if config.command == "jets":
        ts = parse_type(alg, config.type_spec)
        x = parse_direction(alg, config.direction) if config.direction else ts.default_direction()
        rep = min_jet_order_search(
            ts,
            x,
            grid=config.grid,
            r_max=config.orders,
            claimed_bound=config.claimed_bound,
            workers=config.workers,
        )
        failures.extend(rep.violations)
        return envelope(config, desc, {"jets": rep.to_jsonable()}, failures), (
            1 if failures else 0
        )

    if config.command == "fiber":
        ts = parse_type(alg, config.type_spec)
        fib = standard_fiber(ts, grid=config.grid)
        return envelope(config, desc, {"fiber": fib.to_jsonable()}, []), 0

    if config.command == "family":
        ts = parse_type(alg, config.type_spec)
        x = parse_direction(alg, config.direction) if config.direction else ts.default_direction()
        rep = family_dimension(ts, x, grid=config.grid)
        results = {"family": rep.to_jsonable()}
        if ts.kind == "grade":
            orb = orbit_hull_dimension(ts, grid=min(config.grid, 1))
            results["orbit"] = orb.to_jsonable()
            failures.extend(orb.description_violations)
        return envelope(config, desc, results, failures), (1 if failures else 0)

    if config.command == "reparam":
        low = -alg.k
        x1 = parse_grade_coords(alg, low, config.x1) if config.x1 else alg.grade_basis(low)[0]
        x2 = parse_grade_coords(alg, low, config.x2) if config.x2 else x1
        z = parse_pplus_coords(alg, config.z) if config.z else alg.grade_basis(alg.k)[0]
        verdict = reparam_solve(alg, x1, z, x2)
        result = {
            "exists": verdict.exists,
            "failure_reason": verdict.failure_reason,
        }
        if verdict.exists:
            m = verdict.map
            v0, a, b = m.seeds()
            result["map"] = {
                "A": str(m.a),
                "B": str(m.b),
                "C": str(m.c),
                "D": str(m.d),
                "seeds": [str(v0), str(a), str(b)],
            }
            c1 = CurveSpec.base(alg, x1)
            c2 = CurveSpec.from_Z(alg, z, x2)
            verified = verify_reparam(c1, c2, m)
            schwarz = schwarzian_check(m)
            result["verified"] = verified
            result["schwarzian"] = schwarz
            if not verified:
                failures.append("solved reparametrization failed exact verification")
            if not schwarz:
                failures.append("solved reparametrization failed the Schwarzian identity")
        return envelope(config, desc, {"reparam": result}, failures), (1 if failures else 0)

    if config.command == "classify":
        counts = {}
        ts = type_full(alg)
        for x in ts.grid(config.grid):
            label = g0_orbit_classify(x)
            counts[label] = counts.get(label, 0) + 1
        return envelope(config, desc, {"classify": dict(sorted(counts.items()))}, []), 0

    raise ParageoError("unknown command %r" % config.command)


def emit(report, fmt="json"):
    """Serialize an envelope to bytes (canonical JSON or Markdown)."""
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()
    if fmt == "md":
        return _emit_markdown(report).encode()
    raise IoError("unknown format %r" % fmt)


def _emit_markdown(report):
    lines = []
    cfg = report.get("config", {})
    lines.append("# parageo report: %s" % cfg.get("command", "?"))
    lines.append("")
    alg = report.get("algebra", {})
    if "name" in alg:
        dims = ", ".join("g_%s: %s" % (g, d) for g, d in sorted(alg["grade_dims"].items()))
        lines.append("algebra: **%s** (matrix dim %s; %s)" % (alg["name"], alg["matrix_dim"], dims))
        lines.append("")
    results = report.get("results", {})
    if "families" in results:
        lines.append("| family | signature | description |")
        lines.append("|---|---|---|")
        for row in results["families"]:
            lines.append("| %s | %s | %s |" % (row["family"], row["signature"], row["description"]))
    if "jets" in results:
        jr = results["jets"]
        lines.append("direction: %s, grid [-%s, %s]" % (jr["direction"], jr["grid_range"], jr["grid_range"]))
        lines.append("")
        lines.append("| jet order | verdict |")
        lines.append("|---|---|")
        for r, v in jr["verdicts"].items():
            lines.append("| %s | %s |" % (r, v))
        lines.append("")
        lines.append("claimed bound: %s, empirical sharp order: %s" % (jr["claimed_bound"], jr["empirical_sharp_order"]))
    if "family" in results:
        fr = results["family"]
        lines.append("| type | direction | family dim | stabilizer dim | linear |")
        lines.append("|---|---|---|---|---|")
        lines.append(
            "| %s | %s | %s | %s | %s |"
            % (
                fr["type"],
                ",".join(fr["direction"]),
                fr["family_dimension"],
                fr["stabilizer_hull_dim"],
                fr["stabilizer_linear"],
            )
        )
    if "orbit" in results:
        orb = results["orbit"]
        lines.append("")
        lines.append("orbit hull dim: %s, orbit dim: %s" % (orb["hull_dim"], orb["orbit_dim"]))
    if "fiber" in results:
        fb = results["fiber"]
        lines.append("fiber pairs over type %s: %s" % (fb["type"], fb["n_pairs"]))
    if "classify" in results:
        lines.append("| stratum | grid points |")
        lines.append("|---|---|")
        for k, v in results["classify"].items():
            lines.append("| %s | %s |" % (k, v))
    if "lemma_suite" in results:
        sr = results["lemma_suite"]
        lines.append("| identity family | checks |")
        lines.append("|---|---|")
        for k, v in sorted(sr["checks_by_family"].items()):
            lines.append("| %s | %s |" % (k, v))
        lines.append("")
        lines.append("total checks: %s, violations: %s" % (sr["n_checks"], len(sr["violations"])))
    if "reparam" in results:
        rr = results["reparam"]
        lines.append("reparametrization exists: %s" % rr["exists"])
        if rr.get("map"):
            lines.append("map: (%s t + %s)/(%s t + %s), verified: %s, schwarzian: %s" % (
                rr["map"]["A"], rr["map"]["B"], rr["map"]["C"], rr["map"]["D"],
                rr.get("verified"), rr.get("schwarzian")))
    lines.append("")
    summ = report.get("summary", {})
    lines.append("**%s**" % ("PASS" if summ.get("pass") else "FAIL"))
    if summ.get("failures"):
        for f in summ["failures"]:
            lines.append("- %s" % f)
    lines.append("")
    return "\n".join(lines)


def _workers_from_env():
    raw = os.environ.get("PARAGEO_WORKERS")
    if raw is None:
        return 1
    try:
        w = int(raw)
    except ValueError:
        raise ParageoError("PARAGEO_WORKERS must be a positive integer, got %r" % raw)
    if w < 1:
        raise ParageoError("PARAGEO_WORKERS must be a positive integer, got %r" % raw)
    return w


def build_parser():
    p = argparse.ArgumentParser(
        prog="parageo",
        description="exact experiments with distinguished curves on homogeneous models",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list the algebra families")

    def add_common(sp, with_type=True):
        sp.add_argument("--algebra", required=True, help="catalog id, e.g. conf(1,2)")
        if with_type:
            sp.add_argument("--type", default="full_n", dest="type_spec",
                            help="full_n | grade(-j) | null_cone | rank(r) | stratum name")
        sp.add_argument("--grid", type=int, default=2, help="integer grid radius (default 2)")
        sp.add_argument("--output", default=None, help="write the report to this path")
        sp.add_argument("--format", default="json", choices=("json", "md"))

    sp = sub.add_parser("verify", help="run identity suites")
    add_common(sp, with_type=False)
    sp.add_argument("--suite", default="lemmas", choices=("lemmas", "structure", "all"))

    sp = sub.add_parser("jets", help="jet-determination search")
    add_common(sp)
    sp.add_argument("--orders", type=int, default=None, help="max jet order (default k+3)")
    sp.add_argument("--direction", default=None, help="comma coords over the n basis")
    sp.add_argument(
        "--claimed-bound",
        type=int,
        default=None,
        dest="claimed_bound",
        help="override the proved bound used for FAIL flagging",
    )

    sp = sub.add_parser("fiber", help="standard fiber of admissible 2-jets")
    add_common(sp)

    sp = sub.add_parser("family", help="family dimension for a direction")
    add_common(sp)
    sp.add_argument("--direction", default=None, help="comma coords over the n basis")

    sp = sub.add_parser("reparam", help="solve + verify a projective reparametrization")
    add_common(sp, with_type=False)
    sp.add_argument("--x1", default=None, help="coords over the lowest grade basis")
    sp.add_argument("--x2", default=None, help="coords over the lowest grade basis")
    sp.add_argument("--z", default=None, help="coords over the p_+ basis")

    sp = sub.add_parser("classify", help="G0-orbit strata of grid directions")
    add_common(sp, with_type=False)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        workers = _workers_from_env()
        config = ExperimentConfig(
            command=ns.command,
            algebra=getattr(ns, "algebra", ""),
            type_spec=getattr(ns, "type_spec", "full_n"),
            grid=getattr(ns, "grid", 2),
            orders=getattr(ns, "orders", None),
            direction=getattr(ns, "direction", None),
            claimed_bound=getattr(ns, "claimed_bound", None),
            suite=getattr(ns, "suite", "lemmas"),
            x1=getattr(ns, "x1", None),
            z=getattr(ns, "z", None),
            x2=getattr(ns, "x2", None),
            output=getattr(ns, "output", None),
            format=getattr(ns, "format", "json"),
            workers=workers,
        )
        report, code = run(config)
    except ParageoError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    data = emit(report, config.format)
    if config.output:
        try:
            with open(config.output, "wb") as fh:
                fh.write(data)
        except OSError as e:
            print("error: cannot write %s: %s" % (config.output, e), file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

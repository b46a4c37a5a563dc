"""Command-line front end: build algebras, run experiments, emit reports.

Exit codes: 0 when every checked claim holds, 1 when any violation was
found (a counterexample at or above a proved bound, or a failed identity),
2 on usage errors.  Reports are deterministic: identical configurations
produce byte-identical output.  Rationals serialize as exact 'p/q'
strings, never floats: ``emit`` is the one writer of those strings, and
Markdown is rendered from the canonical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import __version__
from .catalog import CATALOG, make_algebra
from .errors import IoError, ParageoError
from .lab import (
    check_direction,
    family_dimension,
    g0_orbit_classify,
    min_jet_order_search,
    orbit_hull_dimension,
    parse_type,
    standard_fiber,
    type_full,
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

    def to_jsonable(self):
        d = asdict(self)
        d.pop("output")
        # schema parageo/1 echoes the worker count; the key goes with parageo/2
        d["workers"] = 1
        return d


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
    return alg.elem_at(idx, vals)


def parse_direction(alg, text):
    """Comma-separated exact coordinates over the n basis (grades ascending)."""
    return _parse_coords(alg, text, alg.n_indices, "direction over the n basis")


def parse_grade_coords(alg, grade, text):
    return _parse_coords(alg, text, alg.grade_slices[grade], "grade %d" % grade)


def parse_pplus_coords(alg, text):
    return _parse_coords(alg, text, alg.pplus_indices, "p_+")


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
        for family, fam in sorted(CATALOG.items()):
            rows.append(
                {
                    "family": family,
                    "signature": fam.signature,
                    "description": fam.description,
                    "representative": make_algebra(fam.representative).describe(),
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
        check_direction(ts, x)
        # the orbit pass comes first, so its X x Z grid cap fires before the family pass
        orb = orbit_hull_dimension(ts, grid=min(config.grid, 1)) if ts.kind == "grade" else None
        rep = family_dimension(ts, x, grid=config.grid)
        results = {"family": rep.to_jsonable()}
        if orb is not None:
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
            result["map"] = {"A": m.a, "B": m.b, "C": m.c, "D": m.d, "seeds": m.seeds()}
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


def _exact(value):
    """The JSON encoder's hook: an exact rational is its 'p/q' string."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError("%s is not JSON serializable" % type(value).__name__)


def emit(report, fmt="json"):
    """Serialize an envelope to bytes: canonical JSON, or Markdown rendered
    from that JSON.  This is the one place where an exact number becomes
    text; the reports hand over their Fractions as they are."""
    if fmt not in ("json", "md"):
        raise IoError("unknown format %r" % fmt)
    text = json.dumps(report, sort_keys=True, separators=(",", ":"), default=_exact)
    if fmt == "json":
        return (text + "\n").encode()
    return _emit_markdown(json.loads(text)).encode()


def _emit_markdown(report):
    """Markdown of a parsed canonical JSON report."""
    lines = ["# parageo report: %s" % report["config"]["command"], ""]
    alg = report["algebra"]
    if "name" in alg:
        dims = ", ".join("g_%s: %s" % (g, d) for g, d in sorted(alg["grade_dims"].items()))
        lines.append("algebra: **%s** (matrix dim %s; %s)" % (alg["name"], alg["matrix_dim"], dims))
        lines.append("")
    results = report["results"]
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
        # JSON sorts the order keys as strings ("1", "10", "2")
        for r in sorted(jr["verdicts"], key=int):
            lines.append("| %s | %s |" % (r, jr["verdicts"][r]))
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
    summ = report["summary"]
    lines.append("**%s**" % ("PASS" if summ["pass"] else "FAIL"))
    lines.extend("- %s" % f for f in summ["failures"])
    lines.append("")
    return "\n".join(lines)


def build_parser():
    p = argparse.ArgumentParser(
        prog="parageo",
        description="exact experiments with distinguished curves on homogeneous models",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # an option left out stays out of the namespace, so its default is the
    # ExperimentConfig field's
    add_parser = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    add_parser("catalog", help="list the algebra families")

    def add_common(sp, with_type=True):
        sp.add_argument("--algebra", required=True, help="catalog id, e.g. conf(1,2)")
        if with_type:
            sp.add_argument("--type", dest="type_spec",
                            help="full_n | grade(-j) | rank(r) | null_cone | a lagr3 or "
                            "xxdot stratum type (a union of classify labels)")
        sp.add_argument("--grid", type=int, help="integer grid radius (default 2)")
        sp.add_argument("--output", help="write the report to this path")
        sp.add_argument("--format", choices=("json", "md"))

    sp = add_parser("verify", help="run identity suites")
    add_common(sp, with_type=False)
    sp.add_argument("--suite", choices=("lemmas", "structure", "all"))

    sp = add_parser("jets", help="jet-determination search")
    add_common(sp)
    sp.add_argument("--orders", type=int, help="max jet order (default k+3)")
    sp.add_argument("--direction", help="comma coords over the n basis")
    sp.add_argument(
        "--claimed-bound",
        type=int,
        dest="claimed_bound",
        help="override the proved bound used for FAIL flagging",
    )

    sp = add_parser("fiber", help="standard fiber of admissible 2-jets")
    add_common(sp)

    sp = add_parser("family", help="family dimension for a direction")
    add_common(sp)
    sp.add_argument("--direction", help="comma coords over the n basis")

    sp = add_parser("reparam", help="solve + verify a projective reparametrization")
    add_common(sp, with_type=False)
    sp.add_argument("--x1", help="coords over the lowest grade basis")
    sp.add_argument("--x2", help="coords over the lowest grade basis")
    sp.add_argument("--z", help="coords over the p_+ basis")

    sp = add_parser("classify", help="G0-orbit strata of grid directions")
    add_common(sp, with_type=False)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        config = ExperimentConfig(**vars(ns))
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

"""Command-line front end: build algebras, run experiments, emit reports.

Exit codes: 0 when every checked claim holds, 1 when any violation was
found (a counterexample at or above a proved bound, or a failed identity),
2 on usage errors.  Reports are deterministic: identical configurations
produce byte-identical output.  Rationals serialize as exact 'p/q'
strings, never floats: ``emit`` is the one writer of those strings, and
Markdown is rendered from the canonical JSON.

A report of schema ``parageo/2`` holds the algebra's description, the
config (the command and the options its subparser declares), one result
per check and the summary.  Every row-shaped result is one table shape,
``{"columns": [...], "rows": [[...], ...]}``: the catalog families, the
lemma checks per identity, the ``classify`` strata, the jets verdicts with
their witnesses and the fiber ranks per X.  Coordinates are written in
the basis the command line reads them in: a direction X and a witness Y
over the n basis, a witness Z over the p_+ basis.
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

SCHEMA = "parageo/2"


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
        """The command and the options its subparser declares, but the
        output path: a report's bytes do not depend on where it goes."""
        keep = _declared_options(self.command) - {"output"}
        return {k: v for k, v in asdict(self).items() if k == "command" or k in keep}


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
        rows = [
            [family, fam.signature, fam.description, make_algebra(fam.representative).describe()]
            for family, fam in sorted(CATALOG.items())
        ]
        table = {"columns": ["family", "signature", "description", "representative"], "rows": rows}
        return envelope(config, {"catalog": "all"}, {"families": table}, []), 0

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
            ts, x, grid=config.grid, r_max=config.orders, claimed_bound=config.claimed_bound
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
        table = {"columns": ["stratum", "grid_points"], "rows": sorted(counts.items())}
        return envelope(config, desc, {"classify": table}, []), 0

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


def _is_table(value):
    return isinstance(value, dict) and value.keys() == {"columns", "rows"}


def _text(value):
    """A JSON value as Markdown text: a list joined by commas, so that a
    direction pastes back into ``--direction``; null and [] as "-"."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(map(_text, value)) or "-"
    return "-" if value is None else json.dumps(value, sort_keys=True, separators=(",", ":"))


def _table(table):
    lines = ["| %s |" % " | ".join(table["columns"]), "|" + "---|" * len(table["columns"])]
    return lines + ["| %s |" % " | ".join(map(_text, row)) for row in table["rows"]]


def _emit_markdown(report):
    """Markdown of a parsed canonical JSON report: the algebra and each
    result as a section, its fields as lines and its tables as tables."""
    lines = ["# parageo report: %s" % report["config"]["command"]]
    for name, section in {"algebra": report["algebra"], **report["results"]}.items():
        lines += ["", "## " + name, ""]
        if _is_table(section):
            lines += _table(section)
            continue
        lines += ["- %s: %s" % (k, _text(v)) for k, v in section.items() if not _is_table(v)]
        for key, value in section.items():
            if _is_table(value):
                lines += ["", "### " + key, ""] + _table(value)
    summary = report["summary"]
    lines += ["", "**%s**" % ("PASS" if summary["pass"] else "FAIL")]
    lines += ["- " + f for f in summary["failures"]]
    return "\n".join(lines) + "\n"


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

    def add_common(sp, with_type=True, with_grid=True):
        sp.add_argument("--algebra", required=True, help="catalog id, e.g. conf(1,2)")
        if with_type:
            sp.add_argument("--type", dest="type_spec",
                            help="full_n | grade(-j) | rank(r) | null_cone | a lagr3 or "
                            "xxdot stratum type (a union of classify labels)")
        if with_grid:
            sp.add_argument("--grid", type=int, help="integer grid radius (default 2)")
        sp.add_argument("--output", help="write the report to this path")
        sp.add_argument("--format", choices=("json", "md"))

    sp = add_parser("verify", help="run identity suites")
    add_common(sp, with_type=False, with_grid=False)
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
    add_common(sp, with_type=False, with_grid=False)
    sp.add_argument("--x1", help="coords over the lowest grade basis")
    sp.add_argument("--x2", help="coords over the lowest grade basis")
    sp.add_argument("--z", help="coords over the p_+ basis")

    sp = add_parser("classify", help="G0-orbit strata of grid directions")
    add_common(sp, with_type=False)
    return p


@functools.cache
def _declared_options(command):
    """The destinations of the options that the subparser of ``command``
    declares, read off ``build_parser``."""
    (commands,) = (a for a in build_parser()._actions if a.dest == "command")
    return frozenset(a.dest for a in commands.choices[command]._actions)


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

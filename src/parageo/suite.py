"""Structured-sample suites for the exact curve-calculus identities.

Each catalog algebra gets a deterministic battery of at least 50 samples
spread over five identity families: the series for delta(exp o Y), the
Leibniz rule for the left logarithmic derivative, the iterated-adjoint
formula for the derivatives of delta_u, the derivative formula for
Ad_{u^{-1}} Y(t), and the reparametrized derivative formula with partition
coefficients (two sample reparametrizations, orders up to 4).  A sample
passes only as an exact identity of polynomial matrices (``IntPolyMat``);
the suite reports every violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import exp_nilpotent
from .curves import (
    CurveSpec,
    comparison,
    verify_delta_leibniz,
    verify_eq_2_4_1,
    verify_lemma_2_3,
    verify_lemma_2_4,
    _lemma_3_2_scalars,
    verify_lemma_3_2,
)
from .poly import Poly

_PER_FAMILY = 12  # samples of each identity family
_I_MAX = 4  # highest derivative order of the Lemma 3.2 check

_COEFF_PATTERNS = (
    (1,),
    (2,),
    (-1,),
    (1, 1),
    (1, -1),
    (2, 1),
    (1, -2),
    (3, 2),
    (1, 3),
    (-2, 1),
)


def structured_elements(alg, grades, count):
    """Deterministic nonzero elements supported on the given grades."""
    idxs = [i for g in grades for i in alg.grade_slices[g]]
    out = []
    pat_i = 0
    width = 1
    while len(out) < count:
        produced = False
        for start in range(len(idxs)):
            if len(out) >= count:
                break
            pattern = _COEFF_PATTERNS[pat_i % len(_COEFF_PATTERNS)]
            pat_i += 1
            coords = [Fraction(0)] * alg.dim
            for off in range(width):
                coords[idxs[(start + off) % len(idxs)]] += Fraction(
                    pattern[off % len(pattern)]
                )
            if any(coords):
                out.append(alg.elem(coords))
                produced = True
        width = width % min(3, len(idxs)) + 1
        if not produced:
            break
    return out


@dataclass(frozen=True)
class SuiteReport:
    algebra: str
    n_checks: int
    checks_by_family: dict
    violations: tuple

    def passed(self):
        return not self.violations

    def to_jsonable(self):
        return {
            "algebra": self.algebra,
            "n_checks": self.n_checks,
            "checks_by_family": {
                "columns": ["identity", "checks"],
                "rows": sorted(self.checks_by_family.items()),
            },
            "violations": self.violations,
            "pass": self.passed(),
        }


def lemma_suite(alg):
    """Run the five identity families on structured samples; exact pass/fail."""
    neg_grades = list(range(-alg.k, 0))
    pos_grades = list(range(1, alg.k + 1))
    n_samples = structured_elements(alg, neg_grades, _PER_FAMILY + 4)
    p_samples = structured_elements(alg, pos_grades, _PER_FAMILY + 4)
    violations = []
    counts = {}

    # delta(exp o Y) series on n-valued polynomial curves
    n_checks = 0
    zero = alg.zero_elem()
    for i in range(_PER_FAMILY):
        a = n_samples[i % len(n_samples)]
        b = n_samples[(i + 1) % len(n_samples)]
        coeffs = [zero, a, b] if i % 2 == 0 else [zero, a, a * Fraction(2), b]
        if not verify_lemma_2_3(coeffs):
            violations.append("exp-series sample %d failed on %s" % (i, alg.name))
        n_checks += 1
    counts["delta_exp_series"] = n_checks

    # Leibniz rule for delta on P-valued polynomial curves
    n_checks = 0
    polys = (Poly((0, 1)), Poly((0, 0, 1)), Poly((0, 2, 1)), Poly((0, 1, 0, 1)))
    for i in range(_PER_FAMILY):
        z1 = p_samples[i % len(p_samples)]
        z2 = p_samples[(i + 2) % len(p_samples)]
        p, q = polys[i % len(polys)], polys[(i + 1) % len(polys)]
        f, f_inv = exp_nilpotent(z1, p), exp_nilpotent(z1, -p)
        g, g_inv = exp_nilpotent(z2, q), exp_nilpotent(z2, -q)
        if not verify_delta_leibniz(f, f_inv, g, g_inv):
            violations.append("delta Leibniz sample %d failed on %s" % (i, alg.name))
        n_checks += 1
    counts["delta_leibniz"] = n_checks

    # iterated-adjoint derivative formula, and the Ad_{u^{-1}}Y derivative
    n_checks = 0
    eq_checks = 0
    for i in range(_PER_FAMILY):
        x = n_samples[i % len(n_samples)]
        y = n_samples[(i + 3) % len(n_samples)]
        z = p_samples[i % len(p_samples)]
        cc = comparison(CurveSpec.base(alg, x), CurveSpec.from_Z(alg, z, y))
        if not verify_lemma_2_4(cc, alg.k + 2):
            violations.append("delta-derivative sample %d failed on %s" % (i, alg.name))
        n_checks += 1
        if i % 2 == 0:
            path = [zero, n_samples[(i + 5) % len(n_samples)]]
            if not verify_eq_2_4_1(cc.u, cc.u_inv, path):
                violations.append("Ad-derivative sample %d failed on %s" % (i, alg.name))
            eq_checks += 1
    counts["delta_derivatives"] = n_checks
    counts["ad_inverse_derivative"] = eq_checks

    # reparametrized derivative formula with two sample reparametrizations
    n_checks = 0
    phis = (Poly((0, 1, 1)), Poly((0, 2, 0, 1)))
    # one table of the Lemma 3.2 scalars per phi, read from the live
    # partition coefficients on each suite run
    tables = [_lemma_3_2_scalars(phi, _I_MAX) for phi in phis]
    for i in range(_PER_FAMILY):
        x = n_samples[(i + 1) % len(n_samples)]
        y = n_samples[(i + 4) % len(n_samples)]
        z = p_samples[(i + 1) % len(p_samples)]
        cc = comparison(CurveSpec.base(alg, x), CurveSpec.from_Z(alg, z, y))
        for phi, table in zip(phis, tables):
            if not verify_lemma_3_2(cc, phi, _I_MAX, table):
                violations.append(
                    "reparam-derivative sample %d (phi=%s) failed on %s" % (i, phi, alg.name)
                )
            n_checks += 1
    counts["reparam_derivatives"] = n_checks

    total = sum(counts.values())
    return SuiteReport(alg.name, total, counts, tuple(violations))

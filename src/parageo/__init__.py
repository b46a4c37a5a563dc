"""parageo: exact experiments with distinguished curves on models G/P.

The package constructs |k|-graded matrix Lie algebras with rational entries,
represents the curves b exp(tX) P as polynomial matrices over Q, and
machine-checks jet-determination, standard-fiber, and reparametrization
statements as exact identities.
"""

__version__ = "0.1.0"

from .algebra import (
    Ad,
    AlgElem,
    GradedAlgebra,
    GroupElem,
    bracket,
    exp_nilpotent,
    group_exp,
    normal_form_P,
    truncated_Ad,
)
from .catalog import make_algebra
from .curves import (
    ComparisonCurve,
    CurveSpec,
    NormalCoordJet,
    comparison,
    curves_equal,
    jet_equal,
    normal_coord_jet,
)
from .lab import (
    TypeSpec,
    family_dimension,
    g0_orbit_classify,
    min_jet_order_search,
    orbit_hull_dimension,
    standard_fiber,
    verify_prop41_claim,
)
from . import scalars  # noqa: F401  for the parabench span scalars.GaussianRational.__mul__; ROADMAP item 19
from .reparam import (
    MobiusMap,
    ReparamVerdict,
    reparam_solve,
    schwarzian_check,
    verify_reparam,
)

__all__ = [
    "Ad",
    "AlgElem",
    "ComparisonCurve",
    "CurveSpec",
    "GradedAlgebra",
    "GroupElem",
    "MobiusMap",
    "NormalCoordJet",
    "ReparamVerdict",
    "TypeSpec",
    "bracket",
    "comparison",
    "curves_equal",
    "exp_nilpotent",
    "family_dimension",
    "g0_orbit_classify",
    "group_exp",
    "jet_equal",
    "make_algebra",
    "min_jet_order_search",
    "normal_coord_jet",
    "normal_form_P",
    "orbit_hull_dimension",
    "reparam_solve",
    "schwarzian_check",
    "standard_fiber",
    "truncated_Ad",
    "verify_prop41_claim",
    "verify_reparam",
]

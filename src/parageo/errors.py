"""Exception hierarchy for the parageo library."""


class ParageoError(Exception):
    """Base class for all library errors."""


class UnknownCatalogName(ParageoError):
    """Catalog identifier does not name a known algebra family."""


class BadParams(ParageoError):
    """Catalog family parameters outside the allowed range."""


class AlgebraMismatch(ParageoError):
    """Operands belong to different graded algebras."""


class NotNilpotent(ParageoError):
    """Exponential series requested for a non-nilpotent matrix."""


class NotInParabolic(ParageoError):
    """Group element is not in P (block pattern violated)."""


class NotInNilpotentPart(ParageoError):
    """Algebra element is not in n = g_{-k} + ... + g_{-1}."""


class NotOneGraded(ParageoError):
    """Operation defined only for |1|-graded algebras."""


class NotAMember(ParageoError):
    """Direction is not a member of the requested type."""


class EmptyGrid(ParageoError):
    """Enumeration grid contains no points."""


class GridTooLarge(ParageoError):
    """Enumeration grid has more points than MAX_GRID_POINTS."""


class BadReparam(ParageoError):
    """Reparametrization violates phi(0)=0 or phi'(0) != 0."""


class PoleAtOrigin(ParageoError):
    """Moebius map has a pole at t = 0."""


class ZeroVelocity(ParageoError):
    """Reparametrization seed with phi'(0) = 0."""


class NotApplicableGrading(ParageoError):
    """Reparametrization solver preconditions on grades not met."""


class OracleDisagreement(ParageoError):
    """Two independent computations of the same quantity disagree."""


class IoError(ParageoError):
    """Report could not be written."""

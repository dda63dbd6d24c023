"""Exception hierarchy for solstab."""


class SolstabError(Exception):
    """Base class for all solstab errors."""


class AlgebraFormatError(SolstabError):
    """Malformed .alg document or invalid structure-constant data."""


class MetricError(SolstabError):
    """Inner-product matrix is not symmetric positive definite."""


class ContractionMismatch(SolstabError):
    """Closed-form Ricci disagrees with the Riemann contraction: an internal
    sign/index convention bug, or an ill-conditioned metric input.  Verdicts
    are tested invariant up to cond(G) = 1e4; past about 1e6 a genuine Lie
    algebra can stop here, or at the parse stage's Jacobi check."""


class EinsteinVerificationFailed(SolstabError):
    """Rank-one extension failed its a-posteriori Einstein check."""


class NotExpanding(SolstabError):
    """Operation requires an expanding soliton (lambda < 0)."""


class NotSymmetric(SolstabError):
    """Eigensolver input is not symmetric."""


class PositivityLost(SolstabError):
    """Flow metric degenerated (lost positive definiteness)."""


class Blowup(SolstabError):
    """Flow metric norm exceeded the abort threshold."""

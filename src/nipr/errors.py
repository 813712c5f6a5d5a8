"""Exception types raised across the library."""


class NiprError(Exception):
    """Base class for all library errors."""


class PoleProximity(NiprError):
    """Evaluation point is too close to a pole."""


class RootFindingFailure(NiprError):
    """A root or zero search failed: the eigensolve did not converge or the pencil is singular."""


class MultiplicityTooHigh(NiprError):
    """Pole multiplicity exceeds 2; residue extraction not defined."""


class DegenerateMap(NiprError):
    """Moebius map with ad - bc ~ 0."""


class ImproperInput(NiprError):
    """Operation requires a proper rational matrix."""


class EigenvalueAtMinusOne(NiprError):
    """State matrix has an eigenvalue at -1 where det(A + I) != 0 is needed."""


class EigenvalueAtPlusOne(NiprError):
    """State matrix has an eigenvalue at +1 where det(I - A) != 0 is needed."""


class PoleAtMinusOne(NiprError):
    """Transfer matrix has a pole at z = -1."""


class PoleAtPlusMinusOne(NiprError):
    """Transfer matrix has a pole at z = +1 or z = -1."""


class CancellationFailure(NiprError):
    """A structurally guaranteed pole-zero cancellation did not occur numerically."""


class AsymmetricD(NiprError):
    """Feedthrough (or offset) matrix is not symmetric."""


class AsymmetricOffset(AsymmetricD):
    """Offset matrix supplied to a transform is not symmetric."""


class EpsilonSearchFailed(NiprError):
    """Bisection for a certified epsilon exhausted its step budget."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


class NonMinimalRealization(NiprError):
    """Operation requires a minimal state-space realization."""


class IllPosed(NiprError):
    """Feedback interconnection is not well posed."""


class PreconditionViolated(NiprError):
    """A documented precondition failed; carries the failed check and witness."""

    def __init__(self, check, witness=None):
        super().__init__(f"precondition violated: {check}")
        self.check = check
        self.witness = witness

"""Exception types shared across the package."""


class FireContainError(Exception):
    """Base class for all errors raised by this package."""


# -- embedded graph construction -------------------------------------------

class AsymmetricAdjacency(FireContainError):
    """u lists v as a neighbour but not vice versa."""


class Disconnected(FireContainError):
    """The input graph is not connected."""


class LoopOrMultiEdge(FireContainError):
    """A rotation contains a loop or a repeated neighbour."""


class EmbeddingInconsistent(FireContainError):
    """Face tracing does not close up to Euler's formula."""


class UnverifiedEmbedding(FireContainError):
    """A face-dependent operation was called on an unverified embedding."""


class BadParameter(FireContainError):
    """Invalid family parameters."""


# -- parsing ----------------------------------------------------------------

class MalformedHeader(FireContainError):
    pass


class TruncatedRecord(FireContainError):
    pass


class VertexIndexOutOfRange(FireContainError):
    pass


# -- augmentation -----------------------------------------------------------

class CannotTriangulate(FireContainError):
    """A face of degree >= 4 admits no new chord."""


# -- fire engine ------------------------------------------------------------

class StrategyBudgetViolation(FireContainError):
    """A round's protections exceed its budget, or name a vertex that is
    already burning or protected."""


# -- hypotheses and classification ------------------------------------------

class HypothesisViolated(FireContainError):
    """Instance does not satisfy the hypothesis of the requested bound.
    Each subclass names one hypothesis."""


class GirthTooSmall(HypothesisViolated):
    pass


class NotTriangulation(HypothesisViolated):
    """Graph is not maximal planar (some face has degree != 3)."""


class ContainsTriangle(HypothesisViolated):
    """Input contains a triangle where a triangle-free graph is required."""


class NotTwoConnected(HypothesisViolated):
    pass


class WrongContext(FireContainError):
    pass


class RequiresExactClassification(FireContainError):
    pass


# -- strategies -------------------------------------------------------------

class NotApplicable(FireContainError):
    """A plan's preconditions do not hold for this (graph, start)."""


class CorruptPlan(FireContainError):
    """A packaged plan fails its content hash or its guarantee replay."""


# -- discharging ------------------------------------------------------------

class NoEscapePath(FireContainError):
    """A vertex requiring a charge-donor path has none (classification bug)."""

"""Exception types shared across the package."""

from contextlib import contextmanager


class RegtriError(Exception):
    pass


class NotFullDimensional(RegtriError):
    pass


class NotAFace(RegtriError):
    pass


class NotConvexPosition(RegtriError):
    pass


class NotAVertex(RegtriError):
    pass


class ValidationFailed(RegtriError):
    """A lexicographic lifting violated the same-side condition.

    Carries the label of the offending point and the labels spanning the
    violated hyperplane.  apex_hyperplane, when not None, names lifted
    points whose hyperplane passes through the apex: their d+1 base
    points have a zero minor (they share a hyperplane), so every chain
    under which their lifts span one fails the same way, and no retry
    can help.
    """

    def __init__(self, label, hyperplane_labels, apex_hyperplane=None):
        self.label = label
        self.hyperplane_labels = frozenset(hyperplane_labels)
        self.apex_hyperplane = apex_hyperplane and frozenset(apex_hyperplane)
        super().__init__(
            f"lift validation failed at point {label} "
            f"against hyperplane {sorted(self.hyperplane_labels)}"
        )


class DegenerateStep(RegtriError):
    """The first d+1 points of a placing order do not span, so there is
    no first cell; `label` is the last of them."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"placing order's first points, up to {label}, do not span")


class NotATriangulation(RegtriError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"not a triangulation: {witness}")


class NonPureComplex(RegtriError):
    pass


class PointUnused(RegtriError):
    pass


class GenericityFailure(RegtriError):
    """The input is not generic enough for the algorithm: two sweep
    breakpoints collided (perturb the lifting vector and retry), or a
    configuration meant to be in general position is not."""


class NonTriangulationSnapshot(RegtriError):
    """A sweep snapshot was non-simplicial, which means the supplied
    lifting vector did not satisfy the sweep precondition."""


class NonUniqueIndex(RegtriError):
    """Suffix recovery found zero or several neighborly double vertex
    figures; this contradicts the construction and indicates a bug
    upstream, so we fail loudly."""

    def __init__(self, candidates):
        self.candidates = sorted(candidates)
        super().__init__(f"expected exactly one index, got {self.candidates}")


class TooFewPoints(RegtriError):
    pass


class BudgetExceeded(RegtriError):
    """Enumeration ran out of budget; `partial` holds what was found so
    far and is only a lower bound."""

    def __init__(self, count, partial=None):
        self.count = count
        self.partial = partial
        super().__init__(f"budget exceeded after {count} results")


@contextmanager
def wire_format(kind):
    """Report a missing key or a malformed entry while reading a JSON
    wire format as ValueError, the CLI's validation-error type."""
    try:
        yield
    except (LookupError, TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"malformed {kind} JSON: {exc!r}") from exc

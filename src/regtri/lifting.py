"""Positive lexicographic liftings, contractions, and general-position
perturbations."""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from . import linalg
from .errors import NotAVertex, RegtriError, ValidationFailed, wire_format
from .geometry import (
    PointConfiguration,
    _colex,
    _near_point,
    _outward_functionals,
    format_rational,
    homogenized,
    is_general_position,
    parse_rational,
)
from .linprog import solve_lp  # noqa: F401  (perfbench traces this import site)


@dataclass(frozen=True)
class LiftSpec:
    """Apex plus a decreasing epsilon chain driving the lifting
    p_i -> (1 - eps_i) * apex + eps_i * (p_i, 0)."""

    apex: tuple[Fraction, ...]
    epsilons: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.apex or self.apex[-1] <= 0:
            raise ValueError("apex last coordinate must be positive")
        eps = self.epsilons
        if any(not (0 < e < 1) for e in eps):
            raise ValueError("epsilons must lie in (0, 1)")
        if any(eps[i] <= eps[i + 1] for i in range(len(eps) - 1)):
            raise ValueError("epsilons must be strictly decreasing")

    @classmethod
    def make(cls, apex, epsilons) -> "LiftSpec":
        return cls(
            tuple(parse_rational(x) for x in apex),
            tuple(parse_rational(e) for e in epsilons),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "apex": [format_rational(x) for x in self.apex],
                "epsilons": [format_rational(e) for e in self.epsilons],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "LiftSpec":
        with wire_format("lift spec"):
            data = json.loads(text)
            # parse_rational would read a JSON number 0.5 or true
            if not all(type(v) in (int, str) for v in data["apex"] + data["epsilons"]):
                raise TypeError("apex and epsilons must be integers or strings")
            return cls.make(data["apex"], data["epsilons"])


@dataclass(frozen=True)
class LiftedConfiguration:
    base: PointConfiguration
    lifted: PointConfiguration  # n+1 points in dim d+1; apex labeled last
    apex_label: int
    spec: LiftSpec


def _validate_same_side(base: PointConfiguration, spec: LiftSpec):
    """Check the same-side condition of lex_lift(base, spec) on the
    base's chirotope, with no lifted configuration: every point from
    position d+2 on must lie strictly on the apex side of each
    hyperplane spanned by earlier lifted points.  The violation
    reported is the first in point order, then in combinations order of
    the hyperplane's labels; apex_hyperplane is the first hyperplane
    through the apex, in colex order, spanned by points before it.

    The rule.  A lex lift is the regular lifting of the base with
    heights w_j = 1/eps_j - 1, cleared of denominators once (a positive
    scale keeps every sign).  Homogenized, each lifted row is
    (1 - eps_j) A + eps_j P_j, with A = (apex, 1) and P_j = (p_j, 0, 1).
    In the multilinear expansion of the determinant of d+2 such rows,
    the terms with two A rows vanish and the term with none has a zero
    height column; Laplace along that column leaves
    a_{d+1} (prod eps) (-1)^d lam.w, lam = Chirotope.dependence of the
    sorted labels and a_{d+1} > 0 the apex height.  So for a
    (d+1)-subset S of earlier points and T = S + {i}, as in
    regular_subdivision: when lam_i = +-M(S) is not 0, point i is
    strictly on the apex side (above the lifted hyperplane of S)
    exactly when lam_i (lam.w) > 0.  When M(S) = 0 the apex lies on
    the affine span of the lifts of S, a hyperplane exactly when those
    lifts are independent: an affine dependence mu of the lifts gives
    the base dependence nu_j = mu_j eps_j with nu.w = 0, and back.  So
    S fails every later point when the base points of S have a single
    affine dependence nu with nu.w != 0, and is skipped otherwise.

    Termination.  Under auto_lift's chains, eps_j = beta^j for the j-th
    point, for every S with lam_i != 0 the term lam_i w_i dominates
    lam.w as beta shrinks, since i is the latest point of T, so the
    check passes; a dependence nu != 0 of a rank-d set has nu.w != 0
    for small beta, so that base is refused through apex_hyperplane;
    sets of lower rank are always skipped."""
    labels, d, chi = base.labels, base.dim, base.chirotope
    heights = linalg.clear_denominators([1 / e - 1 for e in spec.epsilons])[1]
    w = dict(zip(labels, heights))

    def through_apex(subset):
        if chi.minor(tuple(sorted(subset))):
            return False
        nu = linalg.kernel_integral(homogenized(base, subset))
        return nu is not None and sum(v * w[l] for v, l in zip(nu[1], subset)) != 0

    for i in range(d + 1, len(labels)):
        q = labels[i]
        for subset in itertools.combinations(labels[:i], d + 1):
            t = tuple(sorted(subset + (q,)))
            lam = chi.dependence(t)
            lam_q = lam[t.index(q)]
            if lam_q * sum(v * w[l] for v, l in zip(lam, t)) > 0:
                continue
            if not lam_q and not through_apex(subset):
                continue
            on_apex = next(filter(through_apex, _colex(labels[:i], d + 1)), None)
            raise ValidationFailed(q, subset, on_apex)


def lex_lift(base: PointConfiguration, spec: LiftSpec) -> LiftedConfiguration:
    """Positive lexicographic lifting; raises ValidationFailed when the
    epsilon chain is not steep enough (auto_lift halves it and retries).

    Any base is accepted, hull-interior points included (the collinear
    intermediate of the sewing pipeline has them); the same-side
    validation, on the base's chirotope, is the only check, and the
    lifted coordinates are built once it passes.
    """
    if len(spec.epsilons) != base.n:
        raise ValueError("need one epsilon per base point")
    if len(spec.apex) != base.dim + 1:
        raise ValueError("apex must live one dimension up")
    _validate_same_side(base, spec)
    apex = spec.apex
    rows = tuple(
        tuple((1 - eps) * a + eps * x for a, x in zip(apex, tuple(p) + (Fraction(0),)))
        for p, eps in zip(base.points, spec.epsilons)
    )
    apex_label = max(base.labels) + 1
    lifted = PointConfiguration(base.dim + 1, rows + (apex,), base.labels + (apex_label,))
    return LiftedConfiguration(base, lifted, apex_label, spec)


def auto_lift(base: PointConfiguration, apex) -> LiftedConfiguration:
    """Lift with a validating epsilon chain found by geometric back-off:
    eps_i = beta^i, halving beta until the lift validates.  The search
    ends: a small enough beta passes every check but those against a
    hyperplane through the apex, and a failure against one ends it at
    once, since it is a zero base minor that no chain moves the apex
    off (see _validate_same_side)."""
    apex = tuple(parse_rational(x) for x in apex)
    beta = Fraction(1, 2)
    while True:
        eps = tuple(beta ** (i + 1) for i in range(base.n))
        try:
            return lex_lift(base, LiftSpec(apex, eps))
        except ValidationFailed as e:
            if e.apex_hyperplane:
                raise RegtriError(
                    f"the apex lies on the hyperplane of lifted points "
                    f"{sorted(e.apex_hyperplane)}, whose base points share a "
                    "hyperplane; no smaller epsilon chain moves it off"
                ) from e
            beta /= 2


def auto_epsilons(base: PointConfiguration, apex) -> LiftSpec:
    """The epsilon chain of auto_lift."""
    return auto_lift(base, apex).spec


def contraction(config: PointConfiguration, p_label: int) -> PointConfiguration:
    """Vertex figure at p as a (d-1)-dimensional configuration: the
    half-lines from p through the other points, cut with a hyperplane
    strictly separating p from every direction, expressed in an affine
    chart of that hyperplane.  Labels of the surviving points are kept.
    p must be a vertex, and no two other points may lie on one half-line
    from p (they would meet the cut in one point: "duplicate points").
    The cut's normal is minus the sum of the primitive outward normals
    of the facets through p, in the configuration's own axes: it is
    positive on every q - p exactly when p is a vertex.  A configuration
    that does not span is NotFullDimensional, and a 0-dimensional one a
    ValueError, its figure having dimension -1.
    """
    d = config.dim
    if d == 0:
        raise ValueError("a vertex figure in dimension 0 would have dimension -1")
    p = config.point(p_label)
    normal = [0] * d
    for h in _outward_functionals(config, {p_label}):
        a = [v * s for v, s in zip(h, config._axis_scales)]
        g = gcd(*a)
        normal = [n - v // g for n, v in zip(normal, a)]
    rays = {l: [x - y for x, y in zip(q, p)]
            for l, q in zip(config.labels, config.points) if l != p_label}
    levels = {l: sum(map(mul, normal, u)) for l, u in rays.items()}
    if not all(t > 0 for t in levels.values()):
        raise NotAVertex(f"label {p_label} is not a vertex")
    # cutting hyperplane: normal.x = normal.p + 1; drop a coordinate with
    # nonzero normal entry to get chart coordinates
    j = max(range(d), key=lambda k: abs(normal[k]))
    pts = {}  # chart point -> label
    for l, u in rays.items():
        y = tuple(pc + xc / levels[l] for pc, xc in zip(p, u))
        y = tuple(y[k] for k in range(d) if k != j)
        if y in pts:
            raise ValueError(
                f"duplicate points: labels {pts[y]} and {l} lie on one "
                f"half-line from label {p_label}"
            )
        pts[y] = l
    return PointConfiguration(d - 1, tuple(pts), tuple(pts.values()))


def double_contraction(config: PointConfiguration, first: int, second: int):
    return contraction(contraction(config, first), second)


def perturb_general(
    config: PointConfiguration, p_label: int, seed: int = 0
) -> PointConfiguration:
    """Replace point p by a nearby rational point certified in general
    position with respect to the rest (200 tries, each coordinate moved
    by at most 1/100, halved every 20 tries); the point is returned
    unchanged when it already passes.  Deterministic for a fixed seed."""
    rest = config.delete([p_label])
    p = config.point(p_label)
    if is_general_position(rest, p):
        return config
    rng = random.Random(seed)
    scale = Fraction(1, 100)
    for attempt in range(200):
        cand = _near_point(rng, p, scale)
        if cand in rest.points:
            continue
        if is_general_position(rest, cand):
            return config.replace_point(p_label, cand)
        if attempt % 20 == 19:
            scale /= 2
    raise RegtriError(f"could not perturb point {p_label} into general position")

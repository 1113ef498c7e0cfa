"""Positive lexicographic liftings, contractions, and general-position
perturbations."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotAVertex, RegtriError, ValidationFailed, wire_format
from .geometry import (
    PointConfiguration,
    _strictly_separable,
    format_rational,
    is_general_position,
    parse_rational,
    side_value,
    spanned_hyperplanes,
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


def _validate_same_side(lifted: PointConfiguration, apex_label: int):
    """Check the same-side condition: every point from position d+2 on
    must be strictly on the apex side of each hyperplane spanned by
    earlier lifted points.  Each hyperplane is computed once and checked
    against the later points; the violation reported is the first in
    point order, then in combinations order of the hyperplane's labels.

    A hyperplane through the apex fails at the next point whatever the
    chain: the lifted points are apex + eps_i ((p_i, 0) - apex), so the
    apex lies on their hyperplane exactly when their base points share
    one.  The first such hyperplane the scan meets is reported as the
    error's apex_hyperplane, so that a caller stops shrinking."""
    labels = [l for l in lifted.labels if l != apex_label]
    position = {l: i for i, l in enumerate(labels)}
    first = (len(labels), [])  # (point, subset) positions of the first violation
    through_apex = None
    for subset, h in spanned_hyperplanes(lifted, labels[:-1]):
        last = position[subset[-1]]
        if last >= first[0]:
            break  # hyperplanes come by last label: none finds an earlier one
        side = side_value(lifted, h, apex_label)
        if side == 0 and through_apex is None:
            through_apex = subset
        for i in range(last + 1, min(first[0] + 1, len(labels))):
            if side * side_value(lifted, h, labels[i]) <= 0:
                first = min(first, (i, [position[l] for l in subset]))
                break
    i, subset = first
    if i < len(labels):
        raise ValidationFailed(labels[i], [labels[k] for k in subset], through_apex)


def lex_lift(base: PointConfiguration, spec: LiftSpec) -> LiftedConfiguration:
    """Positive lexicographic lifting; raises ValidationFailed when the
    epsilon chain is not steep enough (callers should shrink and retry).

    Any base is accepted, hull-interior points included (the collinear
    intermediate of the sewing pipeline has them); the same-side
    validation is the only check.
    """
    if len(spec.epsilons) != base.n:
        raise ValueError("need one epsilon per base point")
    if len(spec.apex) != base.dim + 1:
        raise ValueError("apex must live one dimension up")
    apex = spec.apex
    rows = []
    for p, eps in zip(base.points, spec.epsilons):
        lifted_pt = tuple(
            (1 - eps) * a + eps * x for a, x in zip(apex, tuple(p) + (Fraction(0),))
        )
        rows.append(lifted_pt)
    apex_label = max(base.labels) + 1
    lifted = PointConfiguration(
        base.dim + 1,
        tuple(rows) + (apex,),
        base.labels + (apex_label,),
    )
    _validate_same_side(lifted, apex_label)
    return LiftedConfiguration(base, lifted, apex_label, spec)


def auto_lift(base: PointConfiguration, apex) -> LiftedConfiguration:
    """Lift with a validating epsilon chain found by geometric back-off:
    eps_i = beta^i, halving beta until the lift validates, at most 64
    times.  A failure against a hyperplane through the apex ends the
    search at once: no chain moves the apex off it."""
    apex = tuple(parse_rational(x) for x in apex)
    beta = Fraction(1, 2)
    for _ in range(64):
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
    raise RegtriError("no validating epsilon chain found; base may be degenerate")


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
    """
    p = config.point(p_label)
    d = config.dim
    others = [l for l in config.labels if l != p_label]
    # the vertex LP's a has a.(q - p) < 0 for every other point q
    sep = _strictly_separable(p, [config.point(l) for l in others])
    if sep is None:
        raise NotAVertex(f"label {p_label} is not a vertex")
    normal = [-x for x in sep]
    # cutting hyperplane: normal.x = normal.p + 1; drop a coordinate with
    # nonzero normal entry to get chart coordinates
    j = max(range(d), key=lambda k: abs(normal[k]))
    pts = {}  # chart point -> label
    for l in others:
        u = [x - y for x, y in zip(config.point(l), p)]
        s = Fraction(1) / sum(a * x for a, x in zip(normal, u))
        y = tuple(pc + s * xc for pc, xc in zip(p, u))
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
        offset = tuple(
            Fraction(rng.randint(-(10**6), 10**6), 10**6) * scale
            for _ in range(config.dim)
        )
        cand = tuple(x + o for x, o in zip(p, offset))
        if cand in rest.points:
            continue
        if is_general_position(rest, cand):
            return config.replace_point(p_label, cand)
        if attempt % 20 == 19:
            scale /= 2
    raise RegtriError(f"could not perturb point {p_label} into general position")

"""Side-of-hyperplane tests in integers against Fraction references:
the sign of each integer side value, general position, the split gap,
the split point itself and the same-side check of a lexicographic
lift."""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regtri.enumeration import _hyperplane_gap, split_point
from regtri.errors import RegtriError, ValidationFailed
from regtri.geometry import (
    PointConfiguration,
    affine_dim,
    is_general_position,
    is_vertex,
    side_value,
)
from regtri.lifting import LiftSpec, lex_lift

from oracles import (
    fraction_functional,
    fraction_value,
    hyperplane_gap_fraction,
    is_general_position_fraction,
    same_side_fraction,
    split_point_reference,
)

# pairwise coprime denominators, so each axis scale is a large lcm
DENOMINATORS = [1, 3, 7, 11, 64, 10**6]
# and ones that divide none of those scales, for points off the configuration
OUTSIDE = [13, 17, 19, 23]


def sign(x):
    return (x > 0) - (x < 0)


@st.composite
def configurations(draw, dims=(1, 2, 3, 4), extra=3):
    """d + 1 to d + extra distinct points in dimension d: small integer
    grid points in 30% of cases, so that degenerate subsets occur, and
    otherwise rationals of mixed signs over coprime denominators."""
    d = draw(st.sampled_from(dims))
    if draw(st.integers(0, 9)) < 3:
        coord = st.integers(-2, 2).map(F)
    else:
        coord = st.builds(F, st.integers(-50, 50), st.sampled_from(DENOMINATORS))
    rows = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + extra,
                         unique=True))
    return PointConfiguration.from_rows(rows)


@st.composite
def outside_points(draw, cfg):
    """A point of the configuration's dimension over denominators that
    divide none of its axis scales: half the time an affine combination
    of d configuration points, so it lies on their hyperplane if they
    span one."""
    d = cfg.dim
    if draw(st.booleans()):
        return tuple(draw(st.builds(F, st.integers(-60, 60), st.sampled_from(OUTSIDE)))
                     for _ in range(d))
    idx = draw(st.lists(st.integers(0, cfg.n - 1), min_size=d, max_size=d, unique=True))
    lam = [draw(st.builds(F, st.integers(-9, 9), st.sampled_from(OUTSIDE)))
           for _ in range(d - 1)]
    lam.append(1 - sum(lam))
    return tuple(sum(l * cfg.points[i][a] for l, i in zip(lam, idx)) for a in range(d))


@settings(max_examples=150, deadline=None)
@given(configurations())
def test_side_values_have_the_sign_of_the_fraction_functional(cfg):
    spanned = []
    for subset, h in cfg.hyperplanes:
        fn = fraction_functional([cfg.point(l) for l in subset])
        assert fn is not None
        spanned.append(subset)
        for lab, p in zip(cfg.labels, cfg.points):
            assert sign(side_value(cfg, h, lab)) == sign(fraction_value(fn, p))
    expected = {s for s in combinations(cfg.labels, cfg.dim)
                if fraction_functional([cfg.point(l) for l in s]) is not None}
    assert sorted(spanned) == sorted(expected)


@settings(max_examples=150, deadline=None)
@given(configurations().flatmap(lambda c: st.tuples(st.just(c), outside_points(c))))
def test_general_position_equals_fraction_reference(case):
    cfg, q = case
    assert is_general_position(cfg, q) == is_general_position_fraction(cfg.points, q)


@settings(max_examples=150, deadline=None)
@given(configurations().flatmap(
    lambda c: st.tuples(st.just(c), st.sampled_from(c.labels))))
def test_hyperplane_gap_equals_fraction_reference(case):
    cfg, lab = case
    others = [p for l, p in zip(cfg.labels, cfg.points) if l != lab]
    expected = hyperplane_gap_fraction(others, cfg.point(lab))
    if expected is None:
        with pytest.raises(RegtriError):
            _hyperplane_gap(cfg, lab)
    else:
        assert _hyperplane_gap(cfg, lab) == expected


def split_outcome(split, config, label, epsilon, seed):
    """The split pair, compared field by field, or the type and text of
    its error."""
    try:
        return split(config, label, epsilon=epsilon, seed=seed)
    except RegtriError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(configurations(dims=(1, 2, 3)).filter(lambda c: affine_dim(c) == c.dim),
       st.sampled_from([F(1, 10), F(3, 7), F(2)]))
def test_split_point_equals_the_candidate_configuration_loop(cfg, epsilon):
    """p' off every spanned hyperplane is a vertex exactly when a facet
    of the configuration is visible from it: split_point gives the
    reference loop's fields, with the default and a given epsilon, at
    every vertex and several seeds."""
    for label in filter(lambda l: is_vertex(cfg, l), cfg.labels):
        for eps in (None, epsilon):
            for seed in (0, 1, 7):
                assert (split_outcome(split_point, cfg, label, eps, seed)
                        == split_outcome(split_point_reference, cfg, label, eps, seed))


@st.composite
def lift_cases(draw):
    """A base of 1-D to 3-D points from `configurations`, a rational
    apex above it and an epsilon chain that is geometric, mostly steep
    enough to validate, or drawn freely, mostly not."""
    base = draw(configurations(dims=(1, 2, 3), extra=4))
    n = base.n
    if draw(st.booleans()):
        beta = F(1, draw(st.sampled_from([2, 3, 16, 256, 2**20])))
        eps = [beta ** (i + 1) for i in range(n)]
    else:
        nums = draw(st.lists(st.integers(1, 10**6 - 1), min_size=n, max_size=n, unique=True))
        eps = sorted((F(x, 10**6) for x in nums), reverse=True)
    coord = st.builds(F, st.integers(-9, 9), st.sampled_from(DENOMINATORS))
    apex = draw(st.tuples(*[coord] * base.dim,
                          st.builds(F, st.integers(1, 9), st.sampled_from(DENOMINATORS))))
    return base, LiftSpec.make(apex, eps)


@settings(max_examples=120, deadline=None)
@given(lift_cases())
# a validating and a failing chain on one quadrilateral
@example((PointConfiguration.from_rows([[0, 0], [F(4, 3), 0], [0, F(4, 7)], [1, 1]]),
          LiftSpec.make((F(1, 3), F(1, 7), 1), [F(1, 256) ** (i + 1) for i in range(4)])))
@example((PointConfiguration.from_rows([[0, 0], [F(4, 3), 0], [0, F(4, 7)], [1, 1]]),
          LiftSpec.make((F(1, 3), F(1, 7), 1), ["9/10", "1/2", "1/3", "1/4"])))
def test_same_side_check_equals_fraction_reference(case):
    base, spec = case
    lifted = [
        tuple((1 - e) * a + e * x for a, x in zip(spec.apex, tuple(p) + (0,)))
        for p, e in zip(base.points, spec.epsilons)
    ]
    expect = same_side_fraction(base.labels, lifted, spec.apex)
    try:
        lex_lift(base, spec)
    except ValidationFailed as exc:
        assert (exc.label, exc.hyperplane_labels) == expect
    else:
        assert expect is None


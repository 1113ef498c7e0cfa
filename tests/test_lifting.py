import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from regtri import geometry, lifting, linprog
from regtri.census import single_lift
from regtri.errors import NotAVertex, NotConvexPosition, ValidationFailed
from regtri.geometry import (
    PointConfiguration,
    centroid,
    configuration_in_general_position,
    cyclic_configuration,
    facets,
    is_general_position,
    orientation,
)
from regtri.lifting import (
    LiftSpec,
    auto_epsilons,
    auto_lift,
    contraction,
    double_contraction,
    lex_lift,
    perturb_general,
)

from oracles import same_side_reference


def pentagon():
    return PointConfiguration.from_rows(
        [[0, 0], [4, 0], [5, 3], [2, 5], [-1, 3]]
    )


def apex_over(cfg):
    return tuple(centroid(cfg)) + (F(1),)


def test_liftspec_invariants():
    LiftSpec.make(["0", "1"], ["1/2", "1/4", "1/8"])
    with pytest.raises(ValueError):
        LiftSpec.make(["0", "-1"], ["1/2"])  # apex must sit above
    with pytest.raises(ValueError):
        LiftSpec.make(["0", "1"], ["1/4", "1/2"])  # not decreasing
    with pytest.raises(ValueError):
        LiftSpec.make(["0", "1"], ["1", "1/2"])  # outside (0,1)


def test_liftspec_json_roundtrip():
    spec = LiftSpec.make(["1/3", "1"], ["1/2", "1/4"])
    assert LiftSpec.from_json(spec.to_json()) == spec


def test_lift_segment_base():
    base = PointConfiguration.from_rows([[0], [1], [2]])
    spec = auto_epsilons(base, (1, 1))
    lc = lex_lift(base, spec)
    assert lc.lifted.dim == 2
    assert lc.lifted.n == 4
    assert lc.apex_label == 4
    # lifted points lie on the open segment apex -> (p_i, 0)
    for lab, eps in zip(base.labels, spec.epsilons):
        lp = lc.lifted.point(lab)
        expect = tuple(
            (1 - eps) * a + eps * x
            for a, x in zip(spec.apex, tuple(base.point(lab)) + (F(0),))
        )
        assert lp == expect


def test_lift_simplex_gives_simplex():
    base = PointConfiguration.from_rows([[0, 0], [1, 0], [0, 1]])
    lc = lex_lift(base, auto_epsilons(base, apex_over(base)))
    # 4 generic points in dim 3: every triple is a facet
    assert len(facets(lc.lifted)) == 4


def test_large_epsilons_fail_validation():
    # near-flat chain on a pentagon in an adversarial insertion order
    rows = [[0, 0], [4, 0], [5, 3], [2, 5], [-1, 3]]
    base = PointConfiguration.from_rows([rows[i] for i in (0, 1, 4, 2, 3)])
    bad = LiftSpec(
        apex_over(base), tuple(F(99, 100) - F(i, 1000) for i in range(base.n))
    )
    with pytest.raises(ValidationFailed) as exc_info:
        lex_lift(base, bad)
    assert exc_info.value.label in base.labels
    assert len(exc_info.value.hyperplane_labels) == 3


def test_auto_epsilons_validates_pentagon():
    base = pentagon()
    spec = auto_epsilons(base, apex_over(base))
    lex_lift(base, spec)  # must not raise


def test_convex_position_proved_once_per_auto_lift(monkeypatch):
    # this insertion order of the pentagon fails validation at beta = 1/2
    order = (3, 5, 4, 2, 1)
    base = pentagon()
    reordered = PointConfiguration(2, tuple(base.point(l) for l in order), order)
    calls = []
    real = geometry.is_vertex
    monkeypatch.setattr(
        geometry, "is_vertex", lambda cfg, lab: calls.append(lab) or real(cfg, lab)
    )
    lifted, spec = single_lift(base, order)
    assert spec.epsilons[0] < F(1, 2)
    assert len(calls) == base.n
    calls.clear()
    assert auto_epsilons(reordered, apex_over(reordered)) == spec
    assert len(calls) == base.n
    calls.clear()
    lc = auto_lift(reordered, apex_over(reordered))
    assert (lc.lifted, lc.spec) == (lifted, spec)
    assert len(calls) == base.n


def test_lift_requires_convex_position():
    cfg = pentagon().append_point((2, 2))
    with pytest.raises(NotConvexPosition):
        lex_lift(cfg, LiftSpec(apex_over(cfg), tuple(F(1, 2) ** (i + 1) for i in range(6))))
    with pytest.raises(NotConvexPosition):
        auto_lift(cfg, apex_over(cfg))


def test_lift_orientation_preserved_under_apex_contraction():
    base = pentagon()
    lc = lex_lift(base, auto_epsilons(base, apex_over(base)))
    back = contraction(lc.lifted, lc.apex_label)
    assert back.labels == base.labels
    for triple in [(1, 2, 3), (2, 4, 5), (1, 3, 5), (3, 4, 5)]:
        assert orientation(back, triple) == orientation(base, triple)


def test_contraction_triangle():
    tri = PointConfiguration.from_rows([[0, 0], [4, 0], [0, 4]])
    out = contraction(tri, 1)
    assert out.dim == 1
    assert out.labels == (2, 3)
    assert out.point(2) != out.point(3)


def test_contraction_requires_vertex():
    cfg = pentagon().append_point((2, 2))
    with pytest.raises(NotAVertex):
        contraction(cfg, 6)


def test_contraction_cyclic_gives_lower_cyclic():
    # vertex figure of the last vertex of cyclic(d, n) has the labeled
    # facet structure of cyclic(d-1, n-1) under the positional relabel
    for d, n in [(3, 6), (4, 7)]:
        cfg = cyclic_configuration(d, list(range(1, n + 1)))
        fig = contraction(cfg, n)
        low = cyclic_configuration(d - 1, list(range(1, n)))
        got = {frozenset(f.labels) for f in facets(fig)}
        expect = {frozenset(f.labels) for f in facets(low)}
        assert got == expect, (d, n)


def test_contraction_solves_one_lp(monkeypatch):
    calls = []
    real = linprog.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (linprog, geometry, lifting):
        monkeypatch.setattr(module, "solve_lp", counting)
    contraction(pentagon(), 1)
    assert len(calls) == 1


def vertex_figure_facets(cfg, k):
    return {f.labels - {k} for f in facets(cfg) if k in f.labels}


def test_contraction_facets_are_the_vertex_figures_of_cyclic_polytopes():
    for d, n in [(3, 7), (4, 8)]:
        cfg = cyclic_configuration(d, range(1, n + 1))
        for k in cfg.labels:
            got = {f.labels for f in facets(contraction(cfg, k))}
            assert got == vertex_figure_facets(cfg, k), (d, n, k)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                min_size=5, max_size=8, unique=True))
def test_contraction_facets_are_the_vertex_figures_of_simplicial_polytopes(xy):
    # points of the paraboloid z = x^2 + y^2 are all vertices, and no four
    # coplanar makes the polytope simplicial
    cfg = PointConfiguration.from_rows([(x, y, x * x + y * y) for x, y in xy])
    assume(configuration_in_general_position(cfg))
    for k in cfg.labels:
        got = {f.labels for f in facets(contraction(cfg, k))}
        assert got == vertex_figure_facets(cfg, k), k


@st.composite
def lift_cases(draw):
    """A base of 1-D to 3-D grid points (not necessarily in convex
    position), an apex above it and an epsilon chain that is either
    geometric or drawn freely, so the same-side check both passes and
    fails."""
    d = draw(st.sampled_from([1, 2, 3]))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                         min_size=d + 2, max_size=6, unique=True))
    n = len(rows)
    if draw(st.booleans()):
        beta = F(1, 2 ** draw(st.integers(1, 6)))
        eps = [beta ** (i + 1) for i in range(n)]
    else:
        nums = draw(st.lists(st.integers(1, 255), min_size=n, max_size=n, unique=True))
        eps = sorted((F(x, 256) for x in nums), reverse=True)
    apex = draw(st.tuples(*[st.integers(-2, 2)] * d, st.integers(1, 3)))
    return PointConfiguration.from_rows(rows), LiftSpec.make(apex, eps)


@settings(max_examples=80, deadline=None)
@given(lift_cases())
# the third lifted point lies on the line through the first two
@example((PointConfiguration.from_rows([[0], [1], [3]]),
          LiftSpec.make((0, 1), ["1/2", "1/4", "1/8"])))
def test_same_side_check_equals_determinant_reference(case):
    base, spec = case
    lifted = [
        tuple((1 - e) * a + e * x for a, x in zip(spec.apex, tuple(p) + (0,)))
        for p, e in zip(base.points, spec.epsilons)
    ]
    expect = same_side_reference(base.labels, lifted, spec.apex)
    try:
        lex_lift(base, spec, check_convex=False)
    except ValidationFailed as exc:
        assert (exc.label, exc.hyperplane_labels) == expect
    else:
        assert expect is None


def test_validating_lift_computes_each_hyperplane_once(monkeypatch):
    # n base points lift to dimension d+1; every (d+1)-subset of the
    # first n-1 lifted points spans a hyperplane checked against the
    # later ones, so a validating lift computes C(n-1, d+1) functionals
    # where one per (point, earlier subset) pair would be C(n, d+2)
    base = cyclic_configuration(3, range(1, 8))
    spec = auto_epsilons(base, apex_over(base))
    calls = []
    real = geometry.hyperplane_functional

    def counting(config, labels):
        calls.append(tuple(labels))
        return real(config, labels)

    monkeypatch.setattr(geometry, "hyperplane_functional", counting)
    lc = lex_lift(base, spec)
    assert len(calls) == comb(6, 4) == 15 < comb(7, 5)
    lifted = [lc.lifted.point(l) for l in base.labels]
    assert same_side_reference(base.labels, lifted, spec.apex) is None


def test_double_contraction_of_double_lift_recovers_base_facets():
    base = pentagon()
    lc1 = lex_lift(base, auto_epsilons(base, apex_over(base)))
    mid = lc1.lifted
    lc2 = lex_lift(mid, auto_epsilons(mid, apex_over(mid), check_convex=False),
                   check_convex=False)
    back = double_contraction(lc2.lifted, lc1.apex_label, lc2.apex_label)
    assert {f.labels for f in facets(back)} == {f.labels for f in facets(base)}


def test_perturb_general():
    cfg = PointConfiguration.from_rows(
        [[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]]
    )
    rest = cfg.delete([5])
    assert not is_general_position(rest, cfg.point(5))
    out = perturb_general(cfg, 5, seed=2)
    assert is_general_position(out.delete([5]), out.point(5))
    # already generic points come back unchanged
    again = perturb_general(out, 5, seed=3)
    assert again == out


def test_perturb_deterministic():
    cfg = PointConfiguration.from_rows([[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]])
    assert perturb_general(cfg, 5, seed=9) == perturb_general(cfg, 5, seed=9)

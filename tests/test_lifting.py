from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from regtri import geometry, lifting, linalg, linprog
from regtri.census import single_lift
from regtri.errors import NotAVertex, RegtriError, ValidationFailed
from regtri.geometry import (
    PointConfiguration,
    affine_dim,
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

from oracles import apex_hyperplane_reference, same_side_reference


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


def test_liftspec_refuses_an_empty_apex():
    """An apex with no coordinates has no last coordinate to sit above
    the base: a ValueError, not an IndexError."""
    for make in (lambda: LiftSpec((), ()), lambda: LiftSpec.make([], [])):
        with pytest.raises(ValueError, match="apex last coordinate"):
            make()


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


def test_library_lifts_solve_no_vertex_lp(monkeypatch):
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
    assert auto_epsilons(reordered, apex_over(reordered)) == spec
    lc = auto_lift(reordered, apex_over(reordered))
    assert (lc.lifted, lc.spec) == (lifted, spec)
    assert calls == []


def test_lift_of_a_base_with_an_interior_point_validates():
    cfg = pentagon().append_point((2, 2))
    lc = auto_lift(cfg, apex_over(cfg))
    assert lc.spec.epsilons[0] == F(1, 2)
    lifted = [lc.lifted.point(l) for l in cfg.labels]
    assert same_side_reference(cfg.labels, lifted, lc.spec.apex) is None


def unit_cube():
    return PointConfiguration.from_rows(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )


def test_auto_lift_stops_at_a_hyperplane_through_the_apex(monkeypatch):
    # the first four cube vertices lie on the face x = 0: their lifts
    # span a hyperplane through the apex under every chain, so the
    # first attempt is the last
    attempts = []
    real = lifting.lex_lift
    monkeypatch.setattr(lifting, "lex_lift",
                        lambda base, spec: attempts.append(spec) or real(base, spec))
    cube = unit_cube()
    with pytest.raises(RegtriError, match=r"lifted points \[1, 2, 3, 4\]") as exc:
        auto_lift(cube, apex_over(cube))
    assert type(exc.value) is RegtriError
    assert len(attempts) == 1
    failure = exc.value.__cause__
    assert isinstance(failure, ValidationFailed)
    assert failure.apex_hyperplane == frozenset({1, 2, 3, 4})


@pytest.mark.parametrize("rows", [
    [[0, 0], [1, 1], [2, 2], [3, 0], [0, 3]],
    [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
])
def test_apex_hyperplane_names_base_points_on_one_hyperplane(rows):
    base = PointConfiguration.from_rows(rows)
    for beta in (F(1, 2), F(1, 64)):
        spec = LiftSpec.make(apex_over(base), [beta ** (i + 1) for i in range(base.n)])
        with pytest.raises(ValidationFailed) as exc:
            lex_lift(base, spec)
        named = sorted(exc.value.apex_hyperplane)
        assert len(named) == base.dim + 1
        assert orientation(base, named) == 0


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
        got = set(facets(fig))
        expect = set(facets(low))
        assert got == expect, (d, n)


def test_contraction_solves_no_lp(monkeypatch):
    calls = []
    real = linprog.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (linprog, geometry, lifting):
        monkeypatch.setattr(module, "solve_lp", counting)
    contraction(pentagon(), 1)
    assert calls == []


def vertex_figure_facets(cfg, k):
    return {f - {k} for f in facets(cfg) if k in f}


def test_contraction_facets_are_the_vertex_figures_of_cyclic_polytopes():
    for d, n in [(3, 7), (4, 8)]:
        cfg = cyclic_configuration(d, range(1, n + 1))
        for k in cfg.labels:
            got = set(facets(contraction(cfg, k)))
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
        got = set(facets(contraction(cfg, k)))
        assert got == vertex_figure_facets(cfg, k), k


@st.composite
def grid_configurations(draw):
    """Five to eight points of the 3-D or 4-D grid {-2..2}^d: facets
    are often non-simplicial, and some points are not vertices."""
    d = draw(st.sampled_from([3, 4]))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                         min_size=d + 2, max_size=8, unique=True))
    return PointConfiguration.from_rows(rows)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(grid_configurations())
# a cube with points inside it and on one of its square facets
@example(PointConfiguration.from_rows(
    [[x, y, z] for x in (0, 3) for y in (0, 3) for z in (0, 3)] + [[1, 2, 1], [1, 3, 2]]
))
def test_contraction_facets_are_the_vertex_figures_of_grid_configurations(cfg):
    assume(affine_dim(cfg) == cfg.dim)
    for k in cfg.labels:
        try:
            figure = contraction(cfg, k)
        except NotAVertex:
            continue
        except ValueError as exc:
            # two points on one half-line from k meet the cut in one point
            assert "duplicate points" in str(exc)
            continue
        got = set(facets(figure))
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
# point 5 first fails against points 1, 2, 4, and points 2, 3, 4 lie on
# one line, so their lifts span a hyperplane through the apex
@example((PointConfiguration.from_rows([[3, 0], [-2, -1], [2, -1], [-3, -1], [-3, 3]]),
          LiftSpec.make((0, 2, 1), ["209/256", "35/64", "125/256", "19/64", "47/256"])))
def test_same_side_check_equals_determinant_reference(case):
    base, spec = case
    lifted = [
        tuple((1 - e) * a + e * x for a, x in zip(spec.apex, tuple(p) + (0,)))
        for p, e in zip(base.points, spec.epsilons)
    ]
    expect = same_side_reference(base.labels, lifted, spec.apex)
    try:
        lex_lift(base, spec)
    except ValidationFailed as exc:
        assert (exc.label, exc.hyperplane_labels) == expect
        assert exc.apex_hyperplane == apex_hyperplane_reference(
            base.labels, lifted, spec.apex, exc.label)
    else:
        assert expect is None


def test_validating_lift_reads_each_base_minor_once(monkeypatch):
    # the same-side check reads the dependences of the base's
    # (d+2)-subsets off its chirotope, so a validating lift takes at most
    # one determinant per (d+1)-subset of the base, C(n, d+1), all on
    # base rows, and no kernel reduction; a second lift of the same base
    # object takes none
    base = cyclic_configuration(3, range(1, 8))
    spec = auto_epsilons(cyclic_configuration(3, range(1, 8)), apex_over(base))
    base_rows = set(geometry.homogenized(base, base.labels))
    dets, kernels = [], []
    real_det, real_kernel = linalg.det, linalg.kernel_integral
    monkeypatch.setattr(linalg, "det", lambda rows: dets.append(rows) or real_det(rows))
    monkeypatch.setattr(linalg, "kernel_integral",
                        lambda columns: kernels.append(columns) or real_kernel(columns))
    lc = lex_lift(base, spec)
    assert 0 < len(dets) <= comb(7, 4) == 35
    assert all(set(rows) <= base_rows for rows in dets)
    assert kernels == []
    dets.clear()
    assert lex_lift(base, spec) == lc
    assert dets == kernels == []
    lifted = [lc.lifted.point(l) for l in base.labels]
    assert same_side_reference(base.labels, lifted, spec.apex) is None


def test_double_contraction_of_double_lift_recovers_base_facets():
    base = pentagon()
    lc1 = lex_lift(base, auto_epsilons(base, apex_over(base)))
    mid = lc1.lifted
    lc2 = lex_lift(mid, auto_epsilons(mid, apex_over(mid)))
    back = double_contraction(lc2.lifted, lc1.apex_label, lc2.apex_label)
    assert facets(back) == facets(base)


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


def test_perturb_general_takes_each_hyperplane_of_the_rest_once(monkeypatch):
    """perturb_general asks is_general_position about one configuration
    without p for every candidate, so its C(n-1, d) hyperplane kernels
    are taken once, not once per candidate."""
    calls = []
    real = geometry._integer_functional
    monkeypatch.setattr(geometry, "_integer_functional",
                        lambda config, labels: calls.append(labels) or real(config, labels))
    cfg = PointConfiguration.from_rows([[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]])
    perturb_general(cfg, 5, seed=2)
    assert len(calls) == comb(4, 2)


def test_perturb_deterministic():
    """The same seed gives the same point, and the moved centre of the
    square is pinned for three seeds, so that a change to the seeded
    draw shows."""
    cfg = PointConfiguration.from_rows([[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]])
    assert perturb_general(cfg, 5, seed=9) == perturb_general(cfg, 5, seed=9)
    pinned = {
        0: (F(314909, 312500), F(99807917, 100000000)),
        2: (F(100810071, 100000000), F(50493869, 50000000)),
        9: (F(24992749, 25000000), F(20057201, 20000000)),
    }
    for seed, moved in pinned.items():
        out = perturb_general(cfg, 5, seed=seed)
        assert out.point(5) == moved
        assert out.delete([5]) == cfg.delete([5])

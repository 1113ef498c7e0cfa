import itertools
import json
import math
import operator
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from regtri import linalg, linprog, triangulations
from regtri.enumeration import flip_neighbors
from regtri.errors import (
    DegenerateStep,
    NonPureComplex,
    NotATriangulation,
    NotConvexPosition,
    NotFullDimensional,
    PointUnused,
)
from regtri.geometry import (
    PointConfiguration,
    affine_dim,
    configuration_in_general_position,
    cyclic_configuration,
    facets,
    orientation,
)
from regtri.triangulations import (
    Triangulation,
    _folding_pass,
    barycentric,
    f_vector,
    h_vector,
    heights_from_json,
    heights_to_json,
    is_regular,
    is_triangulation,
    make_cells,
    min_cells_bound,
    placing_triangulation,
    pulling_triangulation,
    regular_subdivision,
    simplices_properly_intersect,
)

from oracles import (
    fraction_rref,
    gale_evenness_facets,
    height_separation_rows_reference,
    is_triangulation_reference,
    lower_hull_cells,
    naive_det,
    simplices_properly_intersect_reference,
)


def square():
    return PointConfiguration.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])


def hexagon():
    return PointConfiguration.from_rows(
        [[2, 0], [1, 2], [-1, 2], [-2, 0], [-1, -2], [1, -2]]
    )


def nonregular_fixture():
    """Two nested triangles, inner one twisted; the cyclically coned
    triangulation is the standard non-regular example."""
    cfg = PointConfiguration.from_rows(
        [[4, 0], [0, 4], [0, 0], [2, 1], [1, 2], [1, 1]]
    )
    t = Triangulation(
        [{1, 2, 4}, {2, 4, 5}, {2, 3, 5}, {3, 5, 6}, {1, 3, 6}, {1, 4, 6}, {4, 5, 6}]
    )
    return cfg, t


def test_triangulation_roundtrip_and_link():
    t = Triangulation([{1, 2, 3}, {2, 3, 4}])
    assert Triangulation.from_json(t.to_json()) == t
    assert t.link(2).cells == frozenset({frozenset({1, 3}), frozenset({3, 4})})
    with pytest.raises(PointUnused):
        t.link(9)


def test_faces_and_restriction():
    t = Triangulation([{1, 2, 3}])
    assert frozenset({1, 2}) in t.faces()
    assert frozenset({1}) in t.faces()
    assert t.restriction({1, 2}) == frozenset({frozenset({1}), frozenset({2}),
                                               frozenset({1, 2})})


def test_heights_json_roundtrip():
    w = {1: F(1, 3), 2: F(-2), -3: F(0)}
    assert heights_from_json(heights_to_json(w)) == w


def test_regular_subdivision_square_against_lower_hull_oracle():
    cfg = square()
    rng = random.Random(6)
    for _ in range(30):
        w = {l: F(rng.randint(-9, 9), rng.randint(1, 4)) for l in cfg.labels}
        got = regular_subdivision(cfg, w).cells
        expect = lower_hull_cells(cfg.points, [w[l] for l in cfg.labels])
        assert got == frozenset(expect)


@st.composite
def lifted_grids(draw):
    """Points of a small grid in d = 1, 2 or 3 dimensions that span it,
    and heights: small integers drawn at random, fractions with large
    pairwise distinct denominators, or an affine function of position
    with some points raised by one.  Ties, coplanar lifted points,
    non-simplicial cells and the trivial subdivision all come up."""
    d = draw(st.sampled_from((1, 2, 3)))
    grid = st.tuples(*[st.integers(0, 4 if d == 1 else 2)] * d)
    rows = draw(st.lists(grid, min_size=d + 2, max_size=min(d + 4, 6), unique=True))
    assume(affine_dim(PointConfiguration.from_rows(rows)) == d)
    n = len(rows)
    how = draw(st.sampled_from(("small", "fine", "affine")))
    if how == "small":
        return rows, draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    if how == "fine":  # large, pairwise distinct denominators
        dens = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n, unique=True))
        return rows, [F(draw(st.integers(-10**6, 10**6)), den) for den in dens]
    *slope, shift = draw(st.lists(st.integers(-2, 2), min_size=d + 1, max_size=d + 1))
    raised = draw(st.lists(st.sampled_from((0, 0, 1)), min_size=n, max_size=n))
    return rows, [shift + sum(map(operator.mul, slope, p)) + r for p, r in zip(rows, raised)]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(lifted_grids())
@example(([(0,), (1,), (2,)], [0, 1, 0]))  # an interior point lifted out
@example(([(0, 0), (1, 0), (0, 1), (1, 1)], [0, 0, 0, 0]))  # trivial
@example(([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)], [0, 0, 0, 1, 0]))  # a flat cell of four
@example(([(0, 0), (1, 0), (1, 1), (2, 2)], [0, 0, 0, 1]))  # a vertical facet of three
@example(([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [0, 1, 2, 3, 6]))  # affine
@example(([(t, t**2, t**3, t**4) for t in range(1, 9)],  # cyclic(4,8), fine heights
          [F((-1) ** t * t**3, 10**6 - 7 * t) for t in range(1, 9)]))
def test_regular_subdivision_agrees_with_lower_hull_oracle(case):
    rows, heights = case
    cfg = PointConfiguration.from_rows(rows)
    got = regular_subdivision(cfg, dict(zip(cfg.labels, heights))).cells
    assert got == frozenset(lower_hull_cells(rows, heights))


def test_regular_subdivision_names_missing_heights():
    cfg = hexagon()
    with pytest.raises(ValueError, match=r"heights missing for labels \[2, 5\]"):
        regular_subdivision(cfg, {1: 0, 3: 1, 4: 0, 6: F(1, 2)})


def test_regular_subdivision_takes_no_facets():
    """The lower hull is read off side values, so a lifted configuration
    used once does not enter, or keep alive in, the facets memo."""
    cfg = hexagon()
    before = facets.cache_info()
    for w in ({l: l * l for l in cfg.labels}, {l: 0 for l in cfg.labels}):
        regular_subdivision(cfg, w)
    assert facets.cache_info() == before


def test_regular_subdivision_flat_heights_trivial():
    cfg = hexagon()
    w = {l: F(3) for l in cfg.labels}
    assert regular_subdivision(cfg, w).cells == frozenset({frozenset(cfg.labels)})
    # any affine height function is equally trivial
    w = {l: cfg.point(l)[0] - 2 * cfg.point(l)[1] for l in cfg.labels}
    assert regular_subdivision(cfg, w).cells == frozenset({frozenset(cfg.labels)})


def test_regular_subdivision_paraboloid_heights_triangulate():
    # generic convex hexagon: no four points cocircular, so squared
    # norms as heights give the (simplicial) Delaunay triangulation
    cfg = PointConfiguration.from_rows(
        [[3, 0], [1, 2], [-1, 2], [-2, 0], [-1, -2], [2, -3]]
    )
    w = {l: sum(x * x for x in cfg.point(l)) for l in cfg.labels}
    sub = regular_subdivision(cfg, w)
    assert sub.is_simplicial(2)
    ok, witness = is_triangulation(sub.cells, cfg)
    assert ok, witness


def test_is_triangulation_rejects_overlap():
    cfg = square()
    ok, witness = is_triangulation([{1, 2, 3}, {1, 2, 4}], cfg)
    assert not ok
    ok, witness = is_triangulation([{1, 2, 3}], cfg)
    assert not ok  # uncovered ridge {2,3}
    ok, witness = is_triangulation([{1, 2, 3}, {2, 3, 4}, {1, 3, 4}], cfg)
    assert not ok


def test_is_triangulation_accepts_both_square_triangulations():
    cfg = square()
    for cells in ([{1, 2, 3}, {2, 3, 4}], [{1, 2, 4}, {1, 3, 4}]):
        ok, witness = is_triangulation(cells, cfg)
        assert ok, witness


# The square with corners 1..4 and edge midpoints 5..8: its two
# halves plus the midpoint subdivision pass every ridge check but cover
# the square twice.
DOUBLE_COVER = (
    [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (2, 1), (1, 2), (0, 1)],
    [{1, 2, 3}, {1, 3, 4}, {1, 5, 8}, {2, 5, 6}, {3, 6, 7}, {4, 7, 8}, {5, 6, 7},
     {5, 7, 8}],
)
# The same on the square of side 3, whose second layer has an edge,
# 5-7, through the barycentre (2, 1) of the first cell {1, 2, 3}.
DOUBLE_COVER_ON_AN_EDGE = (
    [(0, 0), (3, 0), (3, 3), (0, 3), (2, 0), (3, 1), (2, 3), (0, 1)],
    [{1, 2, 3}, {1, 3, 4}, {1, 5, 8}, {5, 7, 8}, {4, 7, 8}, {2, 5, 6}, {5, 6, 7},
     {3, 6, 7}],
)
# A cone from 6 over the segments [0, 1], [1, 3], [2, 3], [2, 4] of the
# x-axis: it folds back over ridges {3, 6} and {4, 6}, where both cells
# lie on one side, yet the first cell's barycentre is covered once.
FOLD = (
    [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (2, 4)],
    [{1, 2, 6}, {2, 4, 6}, {3, 4, 6}, {3, 5, 6}],
)


@pytest.mark.parametrize(
    "case, pairs",
    [(DOUBLE_COVER, [((1, 2, 3), (5, 6, 7))]),
     (DOUBLE_COVER_ON_AN_EDGE, [((1, 2, 3), (5, 6, 7))]),
     (FOLD, [((2, 4, 6), (3, 4, 6)), ((3, 4, 6), (3, 5, 6))])],
    ids=["double-cover", "double-cover-on-an-edge", "fold"],
)
def test_is_triangulation_rejects_cells_passing_every_ridge_check(case, pairs):
    rows, cells = case
    cfg = PointConfiguration.from_rows(rows)
    ok, witness = is_triangulation(cells, cfg)
    assert not ok
    assert witness[0] == "improper pair" and witness[1:] in pairs
    assert not is_triangulation_reference(rows, make_cells(cells))[0]


def test_is_triangulation_solves_no_lp(monkeypatch):
    calls = []
    real = linprog.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("regtri") and getattr(module, "solve_lp", None) is real:
            monkeypatch.setattr(module, "solve_lp", counting)
    cyclic = cyclic_configuration(4, range(1, 9))
    t = placing_triangulation(cyclic)
    nonregular, twisted = nonregular_fixture()
    double = PointConfiguration.from_rows(DOUBLE_COVER[0])
    for cfg, cells in ((cyclic, t.cells), (nonregular, twisted.cells),
                       (double, DOUBLE_COVER[1])):
        is_triangulation(cells, cfg)
    assert calls == []
    assert is_regular(t, cyclic, validate=True).regular
    assert len(calls) == 1


def test_one_reduction_per_cell(monkeypatch):
    calls = {"det": 0, "solve": 0, "det_sign": 0}
    for name in calls:
        real = getattr(linalg, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(linalg, name, counting)
    cfg = cyclic_configuration(4, range(1, 9))
    t = placing_triangulation(cfg)
    assert len(t.cells) == 10
    assert is_triangulation(t.cells, cfg)[0]  # warms the facets memo
    # a fresh equal configuration takes each minor its cells' coordinates
    # read once, by Cramer's rule with no reduction, and a second check
    # of the same object reads the minors the first took
    fresh = PointConfiguration.from_json(cfg.to_json())
    for minors, check in ((48, lambda: is_regular(t, fresh, validate=True).regular),
                          (0, lambda: is_triangulation(t.cells, fresh)[0]),
                          (0, lambda: is_regular(t, fresh, validate=True).regular)):
        calls.update(det=0, solve=0, det_sign=0)
        assert check()
        assert calls == {"det": minors, "solve": 0, "det_sign": 0}
    assert len(fresh.chirotope._minors) == 48


@st.composite
def grid_cell_sets(draw):
    """Points of the 2-D or 3-D grid {0, 1, 2}^d around the corner
    simplex, with (1, 0, ...) on a hull edge, and a cell set drawn from
    its triangulations: one from generic heights (placing heights,
    steep in a drawn order, or random ones) or a flip of it, one with a
    cell added, removed or replaced, the union or symmetric difference
    of two, or random simplices."""
    d = draw(st.sampled_from((2, 3)))
    rows = [(0,) * d] + [tuple(2 * (i == j) for j in range(d)) for i in range(d)]
    rows.append((1,) + (0,) * (d - 1))
    grid = st.tuples(*[st.integers(0, 2)] * d)
    rows += [p for p in draw(st.lists(grid, max_size=6 - d, unique=True))
             if p not in rows]
    cfg = PointConfiguration.from_rows(rows)

    def triangulation():
        order = draw(st.permutations(cfg.labels))
        if draw(st.booleans()):
            w = {l: 10**i for i, l in enumerate(order)}
        else:
            w = {l: draw(st.integers(0, 10**6)) for l in order}
        sub = regular_subdivision(cfg, w)
        assume(sub.is_simplicial(d))
        return sub.cells

    simplex = st.sets(st.sampled_from(cfg.labels), min_size=d + 1, max_size=d + 1)
    t = triangulation()
    flips = [f.cells for f in flip_neighbors(Triangulation(t), cfg)]
    other = draw(st.sampled_from(flips)) if flips and draw(st.booleans()) else triangulation()
    cell = draw(st.sampled_from(sorted(t, key=sorted)))
    how = draw(st.sampled_from(["triangulation", "flip", "added", "removed", "replaced",
                                "union", "symmetric difference", "random"]))
    cells = {
        "triangulation": lambda: t,
        "flip": lambda: draw(st.sampled_from(flips)) if flips else t,
        "added": lambda: t | {frozenset(draw(simplex))},
        "removed": lambda: t - {cell},
        "replaced": lambda: (t - {cell}) | {frozenset(draw(simplex))},
        "union": lambda: t | other,
        "symmetric difference": lambda: t ^ other,
        "random": lambda: draw(st.lists(simplex, min_size=1, max_size=6)),
    }[how]()
    return rows, make_cells(cells)


@settings(max_examples=300, deadline=None)
@given(grid_cell_sets())
@example((DOUBLE_COVER[0], make_cells(DOUBLE_COVER[1])))
@example((FOLD[0], make_cells(FOLD[1])))
def test_is_triangulation_agrees_with_pairwise_reference(case):
    rows, cells = case
    cfg = PointConfiguration.from_rows(rows)
    ok, witness = is_triangulation(cells, cfg)
    ref_ok, ref_witness = is_triangulation_reference(rows, cells)
    assert ok == ref_ok
    if ok:
        return
    if witness[0] == "improper pair":
        # the first pair found may differ; it still meets improperly
        assert ref_witness[0] == "improper pair"
        assert not simplices_properly_intersect_reference(rows, *witness[1:])
    else:
        assert witness == ref_witness


@st.composite
def grid_simplex_pairs(draw):
    """Points of the 2-D or 3-D grid {0, ..., 3}^d and two vertex sets of
    1 to d+1 labels, not necessarily affinely independent: drawn
    independently, drawn to share labels, or the second moved by 4
    along the first axis, onto new labels, so that the two are apart."""
    d = draw(st.sampled_from((2, 3)))
    grid = st.tuples(*[st.integers(0, 3)] * d)
    rows = draw(st.lists(grid, min_size=d + 2, max_size=2 * d + 2, unique=True))
    labels = range(1, len(rows) + 1)
    simplex = st.sets(st.sampled_from(labels), min_size=1, max_size=d + 1)
    s1 = draw(simplex)
    how = draw(st.sampled_from(["independent", "sharing", "apart"]))
    if how == "sharing":
        kept = draw(st.sets(st.sampled_from(sorted(s1)), min_size=1))
        s2 = kept | draw(st.sets(st.sampled_from(labels), max_size=d + 1 - len(kept)))
    else:
        s2 = draw(simplex)
    if how == "apart":
        moved = [(rows[l - 1][0] + 4,) + rows[l - 1][1:] for l in sorted(s2)]
        s2 = set(range(len(rows) + 1, len(rows) + 1 + len(moved)))
        rows += moved
    return rows, s1, s2


# tetrahedron 1-4 and one whose edge 5-6 crosses its face 1, 2, 3
PIERCED_TETRAHEDRON = [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3),
                       (1, 1, -1), (1, 1, 3), (5, 5, 5), (5, 0, 5)]
# the flat triangle 1, 2, 3 on the x-axis, crossed by the edge 4-5
DEGENERATE_CROSSING = [(0, 0), (2, 0), (4, 0), (1, -1), (1, 1), (5, 5)]


def affinely_independent(rows, labels) -> bool:
    """Whether the labeled points are affinely independent: their
    homogenized rows have full rank, read off fraction_rref."""
    return len(fraction_rref([list(rows[l - 1]) + [1] for l in labels])[1]) == len(labels)


@settings(max_examples=300, deadline=None)
@given(grid_simplex_pairs())
@example(([(0, 0), (2, 0), (0, 2), (2, 2)], {1, 2, 3}, {2, 3, 4}))  # a shared edge
@example(([(0, 0), (2, 0), (0, 2), (2, 2)], {1, 2, 4}, {1, 2, 3}))  # overlapping
# crossing triangles, no vertex of either inside the other
@example(([(0, 0), (3, 0), (0, 1), (1, -1), (2, -1), (1, 2)], {1, 2, 3}, {4, 5, 6}))
# a vertex of one on an edge of the other, at a point they do not share
@example(([(0, 0), (2, 0), (0, 2), (1, 1), (3, 1), (1, 3)], {1, 2, 3}, {4, 5, 6}))
# fewer than d + 1 labels: an edge of a triangle, crossing diagonals
@example(([(0, 0), (2, 0), (0, 2), (2, 2)], {1, 2}, {1, 2, 3}))
@example(([(0, 0), (2, 0), (0, 2), (2, 2)], {1, 4}, {2, 3}))
# a point inside a segment, neither a d-simplex: a circuit of rank 1
@example(([(0, 0), (2, 0), (1, 0), (0, 1)], {1, 2}, {3}))
@example((PIERCED_TETRAHEDRON, {1, 2, 3, 4}, {5, 6, 7, 8}))  # a Radon partition refutes
@example(([(0, 0), (1, 1), (2, 2), (3, 3)], {1, 3}, {2}))  # on one line: no circuit is read
@example(([(0, 0), (1, 1), (2, 2), (3, 3)], {1, 2, 3}, {4}))  # and dependent too
def test_simplices_properly_intersect_agrees_with_reference(case):
    """A configuration that does not span, whose minors are all zero,
    is refused first; then a dependent label set, which is not a
    simplex; on affinely independent label sets the circuit test agrees
    with the LP of the reference."""
    rows, s1, s2 = case
    cfg = PointConfiguration.from_rows(rows)
    if affine_dim(cfg) < cfg.dim:
        with pytest.raises(NotFullDimensional):
            simplices_properly_intersect(cfg, s1, s2)
        return
    if not all(affinely_independent(rows, sorted(s)) for s in (s1, s2)):
        with pytest.raises(ValueError, match="not a simplex"):
            simplices_properly_intersect(cfg, s1, s2)
        return
    assert (simplices_properly_intersect(cfg, s1, s2)
            == simplices_properly_intersect_reference(rows, s1, s2))


@pytest.mark.parametrize(
    "rows, s1, s2",
    [([(0, 0), (2, 0), (3, 0), (1, 0), (0, 1)], {1, 2, 3}, {4}),  # a flat triangle
     (DEGENERATE_CROSSING, {1, 2, 3}, {4, 5, 6}),  # crossed by an edge
     ([(0, 0), (2, 0), (0, 2), (1, 1)], {1, 2, 3, 4}, {1})],  # more than d + 1 labels
    ids=["flat triangle", "degenerate crossing", "too many labels"],
)
def test_a_dependent_label_set_is_not_a_simplex(rows, s1, s2):
    cfg = PointConfiguration.from_rows(rows)
    for pair in ((s1, s2), (s2, s1)):
        with pytest.raises(ValueError, match="not a simplex"):
            simplices_properly_intersect(cfg, *pair)


@settings(max_examples=300, deadline=None)
@given(grid_simplex_pairs())
@example(([(0, 0), (2, 0), (0, 2), (2, 2)], {1, 2, 3}, {2, 3}))  # s2 on a facet of s1
@example(([(0, 0), (2, 0), (0, 2), (2, 2)], {1, 2, 3}, {1, 2, 3}))  # every apex in s2
@example(([(0, 0), (2, 0), (0, 2), (2, 2)], {1, 2, 3}, {2, 3, 4}))  # across edge 2-3
@example(([(0, 0), (2, 0), (4, 0), (0, 2)], {1, 2, 3}, {4}))  # flat s1
def test_facet_test_reads_the_sides_of_each_facet(case):
    """_facet_separates, read off the affine dependences, against its
    definition on determinants of the points: some apex a of a
    d-simplex s1 off its facet F = s1 - {a} has every label of s2 off F
    strictly on the other side of F's hyperplane."""
    rows, s1, s2 = case
    cfg = PointConfiguration.from_rows(rows)

    def side(facet, label):
        det = naive_det([list(rows[l - 1]) + [1] for l in facet + (label,)])
        return (det > 0) - (det < 0)

    def reference(one, two):
        return len(one) == cfg.dim + 1 and any(
            side(facet, a) and all(side(facet, b) == -side(facet, a) for b in two - set(facet))
            for a in one for facet in [tuple(sorted(one - {a}))])

    one, two = frozenset(s1), frozenset(s2)
    assert triangulations._facet_separates(cfg, one, two) == reference(one, two)
    assert triangulations._facet_separates(cfg, two, one) == reference(two, one)


def refuse_lps(monkeypatch):
    def refuse(*args):
        raise AssertionError("the pair test solved an LP")

    monkeypatch.setattr(triangulations, "max_margin", refuse)


def test_radon_partitions_refute_without_an_lp(monkeypatch):
    """Segment 5-6 pierces the triangle 1, 2, 3: the circuit of those
    five points has its positive part in one tetrahedron and its
    negative part in the other, so the answer is False with no LP."""
    refuse_lps(monkeypatch)
    cfg = PointConfiguration.from_rows(PIERCED_TETRAHEDRON)
    assert not simplices_properly_intersect(cfg, {1, 2, 3, 4}, {5, 6, 7, 8})
    assert not simplices_properly_intersect(cfg, {5, 6, 7, 8}, {1, 2, 3, 4})


def test_a_vertex_inside_an_edge_is_refuted_without_an_lp(monkeypatch):
    """Vertex 4 of the triangle 4, 5, 6 lies inside the edge 2-3 of the
    triangle 1, 2, 3.  Each dependence of four labels that holds the
    circuit {2, 3, 4} has a zero coefficient, and no facet separates, so
    only an LP decided this pair before the circuit test read the
    supports of the dependences."""
    refuse_lps(monkeypatch)
    rows = [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2), (3, 0)]
    cfg = PointConfiguration.from_rows(rows)
    assert not simplices_properly_intersect(cfg, {1, 2, 3}, {4, 5, 6})
    assert not simplices_properly_intersect(cfg, {4, 5, 6}, {1, 2, 3})
    assert not simplices_properly_intersect_reference(rows, {1, 2, 3}, {4, 5, 6})


def test_placing_refuses_an_order_that_is_not_a_permutation():
    cfg = PointConfiguration.from_rows([(0, 0), (2, 0), (0, 2), (2, 2)])
    for order in ([1, 2, 3], [1, 2, 3, 3, 4]):
        with pytest.raises(ValueError, match="order must be a permutation of the labels"):
            placing_triangulation(cfg, order)


def test_placing_triangulation_square_orders():
    cfg = square()
    assert placing_triangulation(cfg).cells == frozenset(
        {frozenset({1, 2, 3}), frozenset({2, 3, 4})}
    )
    other = placing_triangulation(cfg, order=[2, 1, 4, 3])
    ok, witness = is_triangulation(other.cells, cfg)
    assert ok, witness


def test_placing_degenerate_start():
    cfg = PointConfiguration.from_rows([[0, 0], [1, 1], [2, 2], [1, 0]])
    with pytest.raises(DegenerateStep):
        placing_triangulation(cfg, order=[1, 2, 3, 4])
    # the default order starts from 1, 2, 4, the first labels that span
    assert placing_triangulation(cfg).cells == {frozenset({1, 2, 4}), frozenset({2, 3, 4})}


def test_placing_refuses_a_configuration_that_does_not_span():
    """The default order is placing's own choice, so when no d+1 labels
    span, the configuration is at fault, not a step of the order."""
    cfg = PointConfiguration.from_rows([(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(NotFullDimensional):
        placing_triangulation(cfg)


def test_placing_cones_over_ridges_not_hull_facets():
    # (1, 0) lies on the hull edge from (0, 0) to (2, 0): placed last it
    # is skipped, placed earlier it splits that edge
    rows = [(0, 0), (2, 0), (0, 2), (1, 0)]
    cfg = PointConfiguration.from_rows(rows)
    placed = 0
    for order in itertools.permutations(cfg.labels):
        if orientation(cfg, order[:3]) == 0:
            with pytest.raises(DegenerateStep):
                placing_triangulation(cfg, order)
            continue
        t = placing_triangulation(cfg, order)
        ok, witness = is_triangulation_reference(rows, t.cells)
        assert ok, (order, witness)
        assert (4 in t.used_labels) == (order[-1] != 4)
        placed += 1
    assert placed == 18


@st.composite
def degenerate_placing_cases(draw):
    """A 2-D or 3-D grid configuration with collinear or coplanar
    points, and a placing order whose first d+1 points span."""
    d = draw(st.sampled_from((2, 3)))
    point = st.tuples(*[st.integers(0, 2)] * d)
    rows = draw(st.lists(point, min_size=d + 2, max_size=d + 4, unique=True))
    cfg = PointConfiguration.from_rows(rows)
    assume(not configuration_in_general_position(cfg))
    order = draw(st.permutations(cfg.labels))
    assume(orientation(cfg, order[: d + 1]) != 0)
    return rows, order


@settings(max_examples=60, deadline=None)
@given(degenerate_placing_cases())
def test_placing_on_degenerate_configurations_triangulates(case):
    rows, order = case
    t = placing_triangulation(PointConfiguration.from_rows(rows), order)
    ok, witness = is_triangulation_reference(rows, t.cells)
    assert ok, witness


def test_placing_skips_interior_points():
    cfg = square().append_point((F(1, 2), F(1, 4)))
    t = placing_triangulation(cfg)
    assert 5 not in t.used_labels


def test_pulling_triangulation():
    cfg = hexagon()
    t = pulling_triangulation(cfg)
    assert all(6 in c for c in t.cells)
    ok, witness = is_triangulation(t.cells, cfg)
    assert ok, witness
    with pytest.raises(NotConvexPosition):
        pulling_triangulation(square().append_point((F(1, 2), F(1, 2))))


def test_placing_and_pulling_are_regular():
    for cfg in (square(), hexagon(), cyclic_configuration(3, [1, 2, 3, 4, 5, 6])):
        for t in (placing_triangulation(cfg), pulling_triangulation(cfg)):
            res = is_regular(t, cfg)
            assert res.regular
            assert regular_subdivision(cfg, res.witness).cells == t.cells


def test_is_regular_validate_flag():
    cfg = square()
    with pytest.raises(NotATriangulation):
        is_regular(Triangulation([{1, 2, 3}, {1, 2, 4}]), cfg, validate=True)


def test_is_regular_rejects_non_simplicial_cells():
    cfg = square()
    for cells in ([{1, 2, 3, 4}], [{1, 2}, {1, 3, 4}], [{1, 2, 3}, {2, 3, 4, 1}]):
        with pytest.raises(NotATriangulation):
            is_regular(Triangulation(cells), cfg)


def test_nonregular_fixture_certified():
    cfg, t = nonregular_fixture()
    ok, witness = is_triangulation(t.cells, cfg)
    assert ok, witness
    res = is_regular(t, cfg)
    assert not res.regular
    assert res.margin == 0
    assert res.certificate_valid


def test_certificate_check_refuses_edited_duals():
    """The recheck accepts the fixture's refutation over the rational
    margin LP, rebuilt as test_folding's folding_rows builds it, and
    refuses the certificate with one dual negated, one dual dropped to
    0, or the first box row's dual raised by 1."""
    cfg, t = nonregular_fixture()
    labels = sorted(cfg.labels)
    nv = len(labels) + 1
    rows, mults = _folding_pass(cfg, t.cells, {l: i for i, l in enumerate(labels)}, nv,
                                validate=False)
    c, a_ub, b_ub, _ = linprog.max_margin(
        [[F(v, m) for v in row] for row, m in zip(rows, mults)], nv)
    dual = list(is_regular(t, cfg).certificate)
    assert triangulations._check_certificate(c, a_ub, b_ub, dual)
    i = next(i for i, y in enumerate(dual) if y)
    box = len(rows)  # the first box row, x_0 <= 2
    for k, y in ((i, -dual[i]), (i, 0), (box, dual[box] + 1)):
        edited = dual[:k] + [y] + dual[k + 1:]
        assert not triangulations._check_certificate(c, a_ub, b_ub, edited)


rationals = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


coprime = st.builds(F, st.integers(-10**7, 10**7), st.sampled_from([3, 7, 11, 10**6]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 2, 3)).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(*[coprime] * d), min_size=d + 2, max_size=d + 2, unique=True),
    st.integers(0, d + 1), st.none() if d == 1 else st.one_of(st.none(), coprime))))
@example(([(F(1, 3), F(2, 7)), (F(-1, 11), F(3, 10**6)), (F(5, 3), F(-4, 7)),
           (F(0), F(1, 11))], 3, F(1, 3)))
def test_barycentric_equals_fraction_rref(case):
    """Per-axis scaled integer rows give the coordinates of a rational
    Gauss-Jordan reduction.  With a drawn fraction s (d > 1), the last
    cell vertex is moved onto the line of the first two, a degenerate
    cell."""
    rows, label, s = case
    d = len(rows[0])
    if s is not None:
        p, q = rows[0], rows[1]
        rows[d] = tuple(x + s * (y - x) for x, y in zip(p, q))
        assume(len(set(rows)) == len(rows))
    cfg = PointConfiguration.from_rows(rows)
    cell = list(range(1, d + 2))
    target = list(cfg.point(label + 1)) + [1]
    reduced, pivots = fraction_rref(
        [[cfg.point(v)[r] if r < d else 1 for v in cell] + [target[r]]
         for r in range(d + 1)])
    expected = None
    if pivots == list(range(d + 1)):
        expected = {v: reduced[k][-1] for k, v in enumerate(cell)}
    got = barycentric(cfg, cell, label + 1)
    assert got == expected
    assert s is None or got is None
    assert got is None or all(type(v) is F for v in got.values())


@st.composite
def cells_and_points(draw):
    """2-D or 3-D rational points, some cells of d+1 of them (not a
    triangulation) and a permuted label-to-variable map."""
    d = draw(st.sampled_from((2, 3)))
    point = st.tuples(*[rationals] * d)
    rows = draw(st.lists(point, min_size=d + 2, max_size=d + 5, unique=True))
    labels = range(1, len(rows) + 1)
    cell = st.sets(st.sampled_from(labels), min_size=d + 1, max_size=d + 1)
    cells = draw(st.lists(cell, min_size=1, max_size=3))
    order = draw(st.permutations(labels))
    return rows, cells, order


def separation_rows_per_point(cfg, cells, column, nv):
    """The separation rows with one linalg.solve per (cell, point);
    None when a cell is degenerate."""
    rows = []
    for cell in sorted(make_cells(cells), key=sorted):
        vertices = sorted(cell)
        a = [list(r) for r in zip(*(list(cfg.point(l)) + [1] for l in vertices))]
        for lab in column:
            if lab in cell:
                continue
            lams = linalg.solve(a, list(cfg.point(lab)) + [1])
            if lams is None:
                return None
            assert barycentric(cfg, cell, lab) == dict(zip(vertices, lams))
            row = [F(0)] * nv
            row[column[lab]] = F(-1)
            for l, lam in zip(vertices, lams):
                row[column[l]] += lam
            row[-1] = F(1)
            rows.append(row)
    return rows


@settings(max_examples=150, deadline=None)
@given(cells_and_points())
@example(([(0, 0), (1, 1), (2, 2), (3, 0)], [{1, 2, 4}, {1, 2, 3}], [4, 3, 2, 1]))
def test_one_reduction_per_cell_equals_one_solve_per_point(case):
    rows, cells, order = case
    cfg = PointConfiguration.from_rows(rows)
    column = {l: i for i, l in enumerate(order)}
    nv = len(order) + 1
    points = {l: cfg.point(l) for l in cfg.labels}
    expected = separation_rows_per_point(cfg, cells, column, nv)
    # None for a degenerate cell, on both sides
    assert height_separation_rows_reference(points, cells, column, nv) == expected


def test_folding_rows_reject_non_triangulations():
    collinear = PointConfiguration.from_rows([(0, 0), (1, 1), (2, 2), (3, 0)])
    fan = PointConfiguration.from_rows([(0, 0), (2, 0), (1, 1), (1, -1), (1, 2)])
    for cfg, cells in (
        (collinear, [{1, 2, 4}, {1, 2, 3}]),  # a degenerate cell
        (fan, [{1, 2, 3}, {1, 2, 4}, {1, 2, 5}]),  # a ridge in three cells
        (square(), [{1, 2, 3}]),  # point 4 in no cell
    ):
        with pytest.raises(NotATriangulation):
            _folding_pass(cfg, make_cells(cells), {l: l - 1 for l in cfg.labels},
                          cfg.n + 1, validate=False)


def test_a_label_outside_the_configuration_is_refused():
    cells = [[1, 2, 99], [2, 3, 4]]
    assert is_triangulation(cells, square()) == (False, ("label not in configuration", 99))
    with pytest.raises(NotATriangulation) as exc_info:
        is_regular(Triangulation(cells), square(), validate=True)
    assert exc_info.value.witness == ("label not in configuration", 99)
    # ints and strings are never compared with each other
    assert is_triangulation([[1, 2, "a"], [2, 3, 99]], square())[1] == (
        "label not in configuration", 99)


@pytest.mark.parametrize("label", ["1", 1.5, True, None], ids=["string", "float", "bool", "null"])
def test_triangulation_json_refuses_labels_that_are_not_integers(label):
    with pytest.raises(ValueError, match="malformed triangulation JSON"):
        Triangulation.from_json(json.dumps({"cells": [[label, 2, 3], [2, 3, 4]]}))
    assert Triangulation.from_json(json.dumps({"cells": [[1, 2, 3]]})).cells == {frozenset({1, 2, 3})}


def test_f_vector_h_vector_square():
    cells = [{1, 2, 3}, {2, 3, 4}]
    assert f_vector(cells) == [4, 5, 2]
    # h-vector: alternating transform; triangulated square is a disk
    assert h_vector(cells) == [1, 1, 0, 0]
    with pytest.raises(NonPureComplex):
        f_vector([{1, 2, 3}, {1, 2}])


def test_h_vector_cyclic_boundaries():
    # boundary spheres of cyclic polytopes meet the neighborly formula
    for d in (3, 4, 5, 6):
        for n in range(d + 1, 11):
            cells = gale_evenness_facets(d, n)
            h = h_vector(cells)
            for k in range(d // 2 + 1):
                assert h[k] == math.comb(n - d - 1 + k, k), (d, n, k)


def test_min_cells_bound():
    assert min_cells_bound(8, 4, 2) == 10
    assert min_cells_bound(6, 3, 1) == 3
    with pytest.raises(ValueError):
        min_cells_bound(8, 4, 3)
    with pytest.raises(ValueError):
        min_cells_bound(4, 4, 1)

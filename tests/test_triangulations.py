import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regtri import linalg
from regtri.errors import (
    DegenerateStep,
    NonPureComplex,
    NotATriangulation,
    NotConvexPosition,
    PointUnused,
)
from regtri.geometry import PointConfiguration, cyclic_configuration, facets
from regtri.triangulations import (
    Triangulation,
    barycentric,
    f_vector,
    h_vector,
    heights_from_json,
    heights_to_json,
    height_separation_rows,
    is_regular,
    is_triangulation,
    make_cells,
    min_cells_bound,
    placing_triangulation,
    pulling_triangulation,
    regular_subdivision,
)

from oracles import gale_evenness_facets, lower_hull_cells


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
    w = {1: F(1, 3), 2: F(-2)}
    assert heights_from_json(heights_to_json(w)) == w


def test_regular_subdivision_square_against_lower_hull_oracle():
    cfg = square()
    rng = random.Random(6)
    for _ in range(30):
        w = {l: F(rng.randint(-9, 9), rng.randint(1, 4)) for l in cfg.labels}
        got = regular_subdivision(cfg, w).cells
        expect = lower_hull_cells(cfg.points, [w[l] for l in cfg.labels])
        assert got == frozenset(expect)


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


rationals = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


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
    expected = separation_rows_per_point(cfg, cells, column, nv)
    if expected is None:  # a degenerate cell
        with pytest.raises(NotATriangulation):
            height_separation_rows(cfg, make_cells(cells), column, nv)
    else:
        assert height_separation_rows(cfg, make_cells(cells), column, nv) == expected


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

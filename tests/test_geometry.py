import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from regtri.errors import NotAFace, NotFullDimensional
from regtri.geometry import (
    PointConfiguration,
    affine_dim,
    classify_visibility,
    configuration_in_general_position,
    cyclic_configuration,
    face_lattice_faces,
    facets,
    hyperplane_functional,
    is_face,
    is_general_position,
    is_vertex,
    in_convex_position,
    orientation,
    proper_faces,
    visibility,
)

from oracles import brute_force_facets, gale_evenness_facets, naive_det


def square():
    return PointConfiguration.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])


def test_config_json_roundtrip():
    cfg = PointConfiguration.from_rows([[F(1, 3), F(-2, 7)], [F(0), F(5)]])
    again = PointConfiguration.from_json(cfg.to_json())
    assert again == cfg


def test_duplicate_points_rejected_above_dim_zero():
    with pytest.raises(ValueError):
        PointConfiguration.from_rows([[1, 2], [1, 2]])
    # dim 0 duplicates are the degenerate seed of the sewing pipeline
    PointConfiguration(0, ((), ()), (1, 2))


def test_delete_restrict_relabel():
    cfg = square()
    assert cfg.delete([2]).labels == (1, 3, 4)
    assert cfg.restrict([2, 4]).labels == (2, 4)
    assert cfg.relabel({1: 9}).labels == (9, 2, 3, 4)
    with pytest.raises(ValueError):
        cfg.delete([7])


def test_orientation_triangle():
    tri = PointConfiguration.from_rows([[0, 0], [1, 0], [0, 1]])
    assert orientation(tri, (1, 2, 3)) == 1
    assert orientation(tri, (1, 3, 2)) == -1
    line = PointConfiguration.from_rows([[0, 0], [1, 1], [2, 2]])
    assert orientation(line, (1, 2, 3)) == 0


def test_facets_square():
    got = {f.labels for f in facets(square())}
    assert got == {
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 4}),
        frozenset({3, 4}),
    }


def test_facet_functional_signs():
    cfg = square()
    for f in facets(cfg):
        for lab in cfg.labels:
            v = f.value(cfg.point(lab))
            assert (v == 0) == (lab in f.labels)
            assert v <= 0


def test_facets_merge_coplanar_points():
    # unit cube: 6 quadrilateral facets despite brute force over triples
    cube = PointConfiguration.from_rows(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )
    fs = {f.labels for f in facets(cube)}
    assert len(fs) == 6
    assert all(len(f) == 4 for f in fs)
    assert fs == brute_force_facets(cube.points)


def test_facets_random_against_oracle():
    rng = random.Random(4)
    for _ in range(10):
        pts = set()
        while len(pts) < 6:
            pts.add((rng.randint(-5, 5), rng.randint(-5, 5)))
        pts = sorted(pts)
        cfg = PointConfiguration.from_rows(pts)
        try:
            got = {f.labels for f in facets(cfg)}
        except NotFullDimensional:
            continue
        assert got == brute_force_facets(pts)


def test_facets_cyclic_gale_evenness():
    for d, n in [(3, 6), (3, 7), (4, 7), (4, 8), (5, 8)]:
        cfg = cyclic_configuration(d, list(range(1, n + 1)))
        got = {f.labels for f in facets(cfg)}
        assert got == gale_evenness_facets(d, n), (d, n)


def test_not_full_dimensional():
    flat = PointConfiguration.from_rows([[0, 0], [1, 1], [2, 2]])
    with pytest.raises(NotFullDimensional):
        facets(flat)


def test_proper_faces_and_lattice_square():
    cfg = square()
    fs = proper_faces(cfg)
    assert frozenset({1}) in fs and frozenset({1, 2}) in fs
    assert face_lattice_faces(cfg, 0) == {frozenset({l}) for l in cfg.labels}
    assert len(face_lattice_faces(cfg, 1)) == 4
    with pytest.raises(ValueError):
        face_lattice_faces(cfg, 2)


def test_is_face():
    cfg = square()
    assert is_face(cfg, {1, 2})
    assert is_face(cfg, {3})
    assert not is_face(cfg, {1, 4})  # diagonal
    assert not is_face(cfg, {1, 2, 3})
    assert not is_face(cfg, set())


def test_visibility_square():
    cfg = square()
    p = (F(2), F(1, 2))  # right of the square
    assert classify_visibility(cfg, {2, 4}, p) == "visible"
    assert classify_visibility(cfg, {1, 3}, p) == "hidden"
    # a vertex on the silhouette is both
    assert classify_visibility(cfg, {2}, p) == "both"
    with pytest.raises(NotAFace):
        visibility(cfg, {1, 4}, p)


def test_every_facet_visible_or_hidden_from_generic_point():
    cfg = cyclic_configuration(3, [1, 2, 3, 4, 5])
    q = (F(7, 3), F(31, 7), F(11, 2))
    if is_general_position(cfg, q):
        for f in facets(cfg):
            assert classify_visibility(cfg, f.labels, q) in ("visible", "hidden")


def test_general_position():
    cfg = square()
    assert not is_general_position(cfg, (F(1, 2), F(1, 2)))  # on a diagonal
    assert is_general_position(cfg, (F(1, 3), F(5, 7)))
    assert not configuration_in_general_position(cfg.append_point((2, 0)))
    assert configuration_in_general_position(
        cyclic_configuration(3, [1, 2, 3, 4, 5, 6])
    )


def test_is_vertex_and_convex_position():
    cfg = square().append_point((F(1, 2), F(1, 2)))
    assert is_vertex(cfg, 1)
    assert not is_vertex(cfg, 5)
    assert not in_convex_position(cfg)
    assert in_convex_position(square())
    # a lone point is the only vertex of its hull in every dimension
    for d in range(4):
        assert is_vertex(PointConfiguration.from_rows([[1] * d]), 1)


@st.composite
def small_configurations(draw):
    """2-D and 3-D configurations on a small integer grid, so that
    interior points and points on edges and facets come up often."""
    d = draw(st.sampled_from([2, 3]))
    coords = st.tuples(*[st.integers(0, 3)] * d)
    rows = draw(st.lists(coords, min_size=d + 1, max_size=7, unique=True))
    cfg = PointConfiguration.from_rows(rows)
    assume(affine_dim(cfg) == d)
    probe = draw(st.tuples(*[st.integers(-1, 4)] * d))
    return cfg, tuple(F(2 * x + 1, 2) for x in probe)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(small_configurations())
def test_separation_lps_agree_with_brute_force_facets(case):
    cfg, p = case
    for lab in cfg.labels:
        assert is_vertex(cfg, lab) == is_face(cfg, {lab})
    for f in facets(cfg):
        v = f.value(p)
        assert visibility(cfg, f.labels, p) == (v > 0, v < 0)


@given(
    st.sampled_from([2, 3]).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(0, 2)] * d), min_size=d, max_size=d, unique=True
        )
    )
)
@example([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
@example([(0, 0, 1), (1, 0, 1), (2, 2, 1)])
def test_hyperplane_functional_is_a_multiple_of_the_cofactor_functional(rows):
    cfg = PointConfiguration.from_rows(rows)
    d = cfg.dim

    def cofactor(x):
        return naive_det([list(x) + [1]] + [list(p) + [1] for p in cfg.points])

    g0 = cofactor([0] * d)
    g = [cofactor([int(i == j) for i in range(d)]) - g0 for j in range(d)] + [g0]
    fn = hyperplane_functional(cfg, cfg.labels)
    if not any(g):
        assert fn is None
        return
    assert fn is not None
    normal, offset = fn
    f = list(normal) + [-offset]
    lam = next(a / b for a, b in zip(f, g) if b)
    assert lam != 0 and f == [lam * b for b in g]


def test_facets_memo_holds_at_most_256_configurations():
    for k in range(300):
        facets(PointConfiguration.from_rows([[0, 0], [k + 1, 0], [0, 1]]))
    assert facets.cache_info().currsize == 256


def test_cyclic_configuration_validation():
    with pytest.raises(ValueError):
        cyclic_configuration(3, [2, 1, 3])
    with pytest.raises(ValueError):
        cyclic_configuration(3, [1, 1, 2])

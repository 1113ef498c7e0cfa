import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from regtri import geometry, linalg
from regtri.errors import NotAFace, NotFullDimensional
from regtri.geometry import (
    PointConfiguration,
    affine_dim,
    classify_visibility,
    configuration_in_general_position,
    cyclic_configuration,
    face_lattice_faces,
    facets,
    functional_value,
    homogenized,
    hyperplane_functional,
    is_face,
    is_general_position,
    is_vertex,
    in_convex_position,
    orientation,
    proper_faces,
    visibility,
)

from oracles import (
    brute_force_facets,
    circuits_reference,
    gale_evenness_facets,
    naive_det,
    strictly_separable_reference,
)


def square():
    return PointConfiguration.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])


def test_config_json_roundtrip():
    cfg = PointConfiguration.from_rows([[F(1, 3), F(-2, 7)], [F(0), F(5)]])
    again = PointConfiguration.from_json(cfg.to_json())
    assert again == cfg


def test_config_json_labels_default_only_when_absent():
    data = json.loads(square().to_json())
    del data["labels"]
    for absent in ({}, {"labels": None}):
        assert PointConfiguration.from_json(json.dumps({**data, **absent})) == square()
    for wrong in ([], [1, 2, 3]):
        with pytest.raises(ValueError):
            PointConfiguration.from_json(json.dumps({**data, "labels": wrong}))


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


def test_restrict_refuses_an_unknown_label_as_delete_does():
    cfg = square()
    for derive in (cfg.restrict, cfg.delete):
        with pytest.raises(ValueError, match="label 99 not in configuration"):
            derive([2, 99])


def test_orientation_triangle():
    tri = PointConfiguration.from_rows([[0, 0], [1, 0], [0, 1]])
    assert orientation(tri, (1, 2, 3)) == 1
    assert orientation(tri, (1, 3, 2)) == -1
    line = PointConfiguration.from_rows([[0, 0], [1, 1], [2, 2]])
    assert orientation(line, (1, 2, 3)) == 0


def test_facets_square():
    got = set(facets(square()))
    assert got == {
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 4}),
        frozenset({3, 4}),
    }


def facet_functional(cfg, facet):
    """hyperplane_functional of the first d labels of the facet that
    span a hyperplane, negated if need be so that it is negative at a
    configuration point off the facet."""
    fn = next(fn for s in itertools.combinations(sorted(facet), cfg.dim)
              if (fn := hyperplane_functional(cfg, s)) is not None)
    off = next(lab for lab in cfg.labels if lab not in facet)
    if functional_value(fn, cfg.point(off)) < 0:
        return fn
    normal, offset = fn
    return tuple(-a for a in normal), -offset


def test_facet_functional_signs():
    cfg = square()
    for f in facets(cfg):
        fn = facet_functional(cfg, f)
        for lab in cfg.labels:
            v = functional_value(fn, cfg.point(lab))
            assert (v == 0) == (lab in f)
            assert v <= 0


def test_facets_merge_coplanar_points():
    # unit cube: 6 quadrilateral facets despite brute force over triples
    cube = PointConfiguration.from_rows(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )
    fs = set(facets(cube))
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
            got = set(facets(cfg))
        except NotFullDimensional:
            continue
        assert got == brute_force_facets(pts)


def test_facets_merge_points_placed_on_facet_hyperplanes():
    # midpoints of two vertices of a facet and facet barycentres lie on
    # the facet, so they join its label set, in 3-D and 4-D
    rng = random.Random(33)
    for d in (3, 4):
        for _ in range(4):
            pts = set()
            while len(pts) < d + 3:
                pts.add(tuple(rng.randint(-6, 6) for _ in range(d)))
            pts = sorted(pts)
            assert affine_dim(PointConfiguration.from_rows(pts)) == d
            on = set()
            for f in rng.sample(sorted(map(sorted, brute_force_facets(pts))), 3):
                a, b = rng.sample(f, 2)
                on.add(tuple(F(x + y, 2) for x, y in zip(pts[a - 1], pts[b - 1])))
                on.add(tuple(F(sum(pts[l - 1][i] for l in f), len(f)) for i in range(d)))
            pts += sorted(on - set(pts))
            got = set(facets(PointConfiguration.from_rows(pts)))
            assert got == brute_force_facets(pts)
            assert any(len(f) > d for f in got)


def test_facets_cyclic_gale_evenness():
    for d, n in [(3, 6), (3, 7), (4, 7), (4, 8), (5, 8)]:
        cfg = cyclic_configuration(d, list(range(1, n + 1)))
        got = set(facets(cfg))
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
            assert classify_visibility(cfg, f, q) in ("visible", "hidden")


def test_general_position():
    cfg = square()
    assert not is_general_position(cfg, (F(1, 2), F(1, 2)))  # on a diagonal
    assert is_general_position(cfg, (F(1, 3), F(5, 7)))
    assert not configuration_in_general_position(cfg.append_point((2, 0)))
    assert configuration_in_general_position(
        cyclic_configuration(3, [1, 2, 3, 4, 5, 6])
    )


def test_general_position_takes_each_hyperplane_once_per_configuration(monkeypatch):
    """The hyperplanes are cached on the configuration: two questions
    about one object take C(n, d) kernels, not one walk each."""
    calls = []
    real = geometry._integer_functional
    monkeypatch.setattr(geometry, "_integer_functional",
                        lambda config, labels: calls.append(labels) or real(config, labels))
    cfg = cyclic_configuration(3, [1, 2, 3, 4, 5, 6])
    assert is_general_position(cfg, (F(7, 3), F(31, 7), F(11, 2)))
    assert not is_general_position(cfg, cfg.point(4))
    assert len(calls) == math.comb(6, 3)
    assert "hyperplanes" not in json.loads(cfg.to_json())
    assert cfg == cyclic_configuration(3, [1, 2, 3, 4, 5, 6])


def test_general_position_refuses_a_point_of_another_dimension():
    for q in [(1,), (1, 1, 5)]:
        with pytest.raises(ValueError, match="dimension"):
            is_general_position(square(), q)


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
    """is_vertex and visibility, read off circuits and facet normals,
    agree with the strict-separation LP they replaced and with the
    brute-force facets."""
    cfg, p = case
    for lab in cfg.labels:
        others = [q for l, q in zip(cfg.labels, cfg.points) if l != lab]
        assert is_vertex(cfg, lab) == is_face(cfg, {lab})
        assert is_vertex(cfg, lab) == strictly_separable_reference(cfg.point(lab), others)
    for f in facets(cfg):
        v = functional_value(facet_functional(cfg, f), p)
        assert visibility(cfg, f, p) == (v > 0, v < 0)
    for face in proper_faces(cfg):
        first, *rest = sorted(face)
        base = cfg.point(first)
        on = [cfg.point(l) for l in rest]
        others = [q for l, q in zip(cfg.labels, cfg.points) if l not in face]
        # a.(mirror - base) = -a.(p - base): mirror below means p above
        mirror = tuple(2 * b - x for b, x in zip(base, p))
        assert visibility(cfg, face, p) == (
            strictly_separable_reference(base, [mirror] + others, on),
            strictly_separable_reference(base, [p] + others, on),
        )


# grid coordinates, where affinely dependent tuples come up often, or
# coprime denominators up to 10**6 with mixed signs, which give each
# axis its own scale in the integer rows
coordinates = st.one_of(
    st.integers(0, 2).map(F),
    st.builds(F, st.integers(-10**7, 10**7), st.sampled_from([3, 7, 11, 10**6])),
)


def point_lists(extra):
    """Lists of d + extra distinct points in d = 2 or 3 dimensions."""
    return st.sampled_from([2, 3]).flatmap(lambda d: st.lists(
        st.tuples(*[coordinates] * d), min_size=d + extra, max_size=d + extra, unique=True))


@given(point_lists(1))
@example([(0, 0), (1, 1), (2, 2)])
@example([(F(1, 3), F(-2, 7)), (F(2, 3), F(-4, 7)), (F(-1, 3), F(2, 7))])
@example([(F(1, 3), F(2, 7)), (F(-1, 11), F(3, 10**6)), (F(5, 3), F(-4, 7))])
def test_orientation_is_the_sign_of_the_homogenized_determinant(rows):
    cfg = PointConfiguration.from_rows(rows)
    det = naive_det([list(p) + [1] for p in cfg.points])
    assert orientation(cfg, cfg.labels) == (det > 0) - (det < 0)


@st.composite
def label_orders(draw):
    """A configuration of d + 1 to d + 3 distinct points of the grid
    {0, 1, 2}^d, d = 1 to 4, where affinely dependent tuples come up
    often, and tuples of d + 1 of its labels in drawn orders, some with
    a label repeated."""
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 2)] * d),
                         min_size=d + 1, max_size=d + 3, unique=True))
    labels = range(1, len(rows) + 1)
    order = st.one_of(
        st.permutations(labels).map(lambda p: tuple(p[: d + 1])),
        st.lists(st.sampled_from(labels), min_size=d + 1, max_size=d + 1).map(tuple),
    )
    return rows, draw(st.lists(order, min_size=1, max_size=8))


def counting_det(mp):
    """Patch linalg.det to count its calls; returns the counter."""
    calls = []
    real = linalg.det

    def counting(rows):
        calls.append(rows)
        return real(rows)

    mp.setattr(linalg, "det", counting)
    return calls


@settings(max_examples=150, deadline=None)
@given(label_orders())
@example(([(0,), (1,)], [(2, 1), (1, 1)]))
@example(([(0, 0), (1, 1), (2, 2)], [(3, 1, 2), (1, 2, 3)]))
@example(([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
          [(5, 4, 3, 2, 1), (2, 1, 3, 4, 5)]))
def test_orientation_reads_one_determinant_per_subset(case):
    rows, orders = case
    cfg = PointConfiguration.from_rows(rows)
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_det(mp)
        got = [orientation(cfg, order) for order in orders]
        # a repeated label is looked up too, its zero remembered like any minor
        assert len(calls) == len({tuple(sorted(o)) for o in orders})
        calls.clear()
        for order in orders:
            for perm in itertools.permutations(order):
                orientation(cfg, perm)
        assert calls == []
    for order, sign in zip(orders, got):
        assert sign == linalg.det_sign(homogenized(cfg, order))
    # the memo keeps each sorted tuple's determinant, not only its sign
    assert cfg.chirotope._minors == {
        key: naive_det([list(p) + [1] for p in map(cfg.point, key)])
        for key in {tuple(sorted(o)) for o in orders}}


@settings(max_examples=50, deadline=None)
@given(label_orders())
def test_orientation_refuses_an_unknown_label_and_remembers_nothing(case):
    rows, orders = case
    cfg = PointConfiguration.from_rows(rows)
    for order in orders:
        orientation(cfg, order)
    memo = dict(cfg.chirotope._minors)
    unknown = len(rows) + 1
    for order in orders:
        for k in range(len(order)):
            with pytest.raises(ValueError):
                orientation(cfg, order[:k] + (unknown,) + order[k + 1:])
    with pytest.raises(ValueError):
        orientation(cfg, orders[0][1:])
    assert cfg.chirotope._minors == memo


@settings(max_examples=100, deadline=None)
@given(label_orders())
@example(([(0, 0), (1, 1), (2, 2), (0, 1)], []))
def test_dependence_is_the_affine_dependence_by_cramers_rule(case):
    """sum lam_i (p_i, 1) = 0 over each sorted (d+2)-subset, and lam is
    zero only where the subset spans less than its dimension."""
    rows, _ = case
    cfg = PointConfiguration.from_rows(rows)
    for subset in itertools.combinations(cfg.labels, cfg.dim + 2):
        lam = cfg.chirotope.dependence(subset)
        points = homogenized(cfg, subset)
        assert all(sum(v * p[j] for v, p in zip(lam, points)) == 0
                   for j in range(cfg.dim + 1))
        assert any(lam) == (linalg.rank(points) == cfg.dim + 1)


@st.composite
def grid_configurations(draw):
    """Up to d+5 distinct points of the grid {0, 1, 2}^d, d = 1 to 3,
    with their labels in any order."""
    d = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(0, 2)] * d)
    rows = draw(st.lists(point, min_size=1, max_size=d + 5, unique=True))
    return rows, draw(st.permutations(range(1, len(rows) + 1)))


@settings(max_examples=150, deadline=None)
@given(grid_configurations())
def test_circuits_are_the_minimal_dependent_sets(case):
    """Every circuit of every rank, each support once and signed by its
    dependence, against the Fraction rank and kernel of the reference;
    a configuration that does not span has no circuits to read."""
    rows, labels = case
    cfg = PointConfiguration.from_rows(rows, labels)
    if affine_dim(cfg) < cfg.dim:
        with pytest.raises(NotFullDimensional):
            cfg.circuits
        return
    supports = [s for s, _, _ in cfg.circuits]
    assert len(set(supports)) == len(supports)
    assert ({s: frozenset({pos, neg}) for s, pos, neg in cfg.circuits}
            == circuits_reference(dict(zip(labels, cfg.points))))


def test_circuits_of_lower_rank():
    """Three collinear points and one off their line: one circuit, of
    rank 2.  The square with its centre: the square's four corners, and
    each diagonal through the centre."""
    collinear = PointConfiguration.from_rows([(0, 0), (1, 0), (2, 0), (0, 1)])
    assert collinear.circuits == ((frozenset({1, 2, 3}), frozenset({1, 3}), frozenset({2})),)
    assert collinear.circuit_table == ()
    centred = PointConfiguration.from_rows([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    assert [(s, {pos, neg}) for s, pos, neg in centred.circuits] == [
        ({1, 2, 3, 4}, {frozenset({1, 4}), frozenset({2, 3})}),
        ({2, 3, 5}, {frozenset({2, 3}), frozenset({5})}),
        ({1, 4, 5}, {frozenset({1, 4}), frozenset({5})})]
    assert [s for s, _, _ in centred.circuit_table] == [{1, 2, 3, 4}]
    line = PointConfiguration.from_rows([(0, 0), (1, 1), (2, 2), (3, 3)])
    for read in ("circuits", "circuit_table"):
        with pytest.raises(NotFullDimensional):
            getattr(line, read)


@given(point_lists(0))
@example([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
@example([(0, 0, 1), (1, 0, 1), (2, 2, 1)])
@example([(F(1, 3), F(1, 7), F(-1, 11)), (F(2, 3), F(2, 7), F(-2, 11)), (1, F(3, 7), F(-3, 11))])
@example([(F(1, 3), F(-2, 7)), (F(-5, 11), F(3, 10**6))])
@example([(F(1, 3), F(2, 7)), (F(1, 3), F(-3, 10**6))])
def test_hyperplane_functional_is_a_multiple_of_the_cofactor_functional(rows):
    # the multiple whose last nonzero entry of (normal, -offset) is 1,
    # exactly, whatever scales the integer rows give the axes
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
    last = next(b for b in reversed(g) if b)
    assert list(normal) + [-offset] == [b / last for b in g]


def test_a_configuration_hashes_its_fractions_once(monkeypatch):
    cfg = PointConfiguration.from_rows([[F(1, 2), 0], [3, F(1, 3)], [0, 5], [F(7, 4), F(9, 5)]])
    expected = hash((cfg.dim, cfg.points, cfg.labels))
    facets(cfg)
    hashed = []
    real = F.__hash__

    def counting(self):
        hashed.append(self)
        return real(self)

    monkeypatch.setattr(F, "__hash__", counting)
    hits = facets.cache_info().hits
    assert facets(cfg) and hash(cfg) == expected
    assert facets.cache_info().hits == hits + 1 and hashed == []
    monkeypatch.undo()
    # equal configurations hash equal, however they were made
    pairs = [(PointConfiguration.from_json(cfg.to_json()), cfg),
             (cfg.delete([2]), PointConfiguration(2, cfg.points[::2] + cfg.points[3:], (1, 3, 4))),
             (cfg.reordered((4, 3, 2, 1)), PointConfiguration(2, cfg.points[::-1], (4, 3, 2, 1)))]
    for made, built in pairs:
        assert made == built and hash(made) == hash(built)
        assert hash(made) == hash((made.dim, made.points, made.labels))


def test_facets_memo_holds_at_most_256_configurations():
    for k in range(300):
        facets(PointConfiguration.from_rows([[0, 0], [k + 1, 0], [0, 1]]))
    assert facets.cache_info().currsize == 256


def test_cyclic_configuration_validation():
    with pytest.raises(ValueError):
        cyclic_configuration(3, [2, 1, 3])
    with pytest.raises(ValueError):
        cyclic_configuration(3, [1, 1, 2])

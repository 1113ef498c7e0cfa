import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from regtri import geometry
from regtri.enumeration import (
    SplitPair,
    check_inseparable,
    cyclic_inseparable_realization,
    enumerate_all_oracle,
    enumerate_regular,
    flip_neighbors,
    shared_witness,
    split_point,
    t_sweep,
    triangulation_count_bound,
)
from regtri.errors import BudgetExceeded, NotAVertex
from regtri.geometry import (
    PointConfiguration,
    configuration_in_general_position,
    cyclic_configuration,
    is_general_position,
    is_vertex,
)
from regtri.lifting import contraction
from regtri.triangulations import Triangulation, is_regular, placing_triangulation

from oracles import catalan, flip_neighbors_reference, polygon_triangulations


def square():
    return PointConfiguration.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])


def hexagon():
    return PointConfiguration.from_rows(
        [[2, 0], [1, 2], [-1, 2], [-2, 0], [-1, -2], [1, -2]]
    )


def figure_pair():
    """Convex heptagon with a split vertex pair (p, p') = (6, 7), plus
    the reference triangulation of the configuration without p'."""
    cfg = PointConfiguration.from_rows(
        [
            ("3/10", "188/100"),
            ("-76/100", "154/100"),
            ("-76/100", "69/100"),
            ("-10/100", "16/100"),
            ("73/100", "35/100"),
            ("11/10", "111/100"),
            ("1", "3/2"),
        ]
    )
    t = Triangulation([{6, 1, 2}, {6, 2, 3}, {6, 3, 5}, {3, 4, 5}])
    return SplitPair(cfg, 6, 7, F(1, 2)), t


def test_oracle_square():
    assert len(enumerate_all_oracle(square())) == 2


def test_oracle_polygons_match_catalan_and_recursion():
    for cfg, n in ((hexagon(), 6),):
        got = enumerate_all_oracle(cfg)
        assert len(got) == catalan(n - 2)
        expect = {frozenset(t) for t in polygon_triangulations(list(range(1, n + 1)))}
        assert {t.cells for t in got} == expect


def test_flip_enumerator_polygons_all_regular():
    got = enumerate_regular(hexagon())
    assert len(got) == catalan(4)


def test_simplex_has_one_triangulation():
    simplex = cyclic_configuration(3, [1, 2, 3, 4])
    assert len(enumerate_regular(simplex)) == 1
    assert len(enumerate_all_oracle(simplex)) == 1


def test_flip_neighbors_square():
    t = placing_triangulation(square())
    nbs = flip_neighbors(t, square())
    assert len(nbs) == 1
    assert nbs[0].cells == frozenset({frozenset({1, 2, 4}), frozenset({1, 3, 4})})
    # flipping back returns the original
    assert flip_neighbors(nbs[0], square())[0] == t


@st.composite
def placing_cases(draw):
    """A 2-D or 3-D grid configuration and a placing order; placing
    skips interior points, so the triangulation often leaves one out."""
    d = draw(st.sampled_from((2, 3)))
    point = st.tuples(*[st.integers(0, 4)] * d)
    rows = draw(st.lists(point, min_size=d + 2, max_size=d + 4, unique=True))
    order = draw(st.permutations(range(1, len(rows) + 1)))
    return rows, order


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(placing_cases())
@example(([(0, 0), (4, 0), (0, 4), (4, 4), (1, 2)], [1, 2, 3, 4, 5]))
@example(([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1), (1, 2, 3)],
          [1, 2, 3, 4, 6, 5]))
def test_table_driven_flips_equal_per_subset_reference(case):
    rows, order = case
    cfg = PointConfiguration.from_rows(rows)
    assume(configuration_in_general_position(cfg))
    points = {l: cfg.point(l) for l in cfg.labels}
    start = placing_triangulation(cfg, order)
    for t in [start] + flip_neighbors(start, cfg):
        expected = flip_neighbors_reference(t.cells, points)
        assert [nb.cells for nb in flip_neighbors(t, cfg)] == expected
        # the whole configuration's table, filtered to the labels t
        # uses, lists the flips of the table of those labels alone
        used = cfg.restrict(t.used_labels)
        assert [nb.cells for nb in flip_neighbors(t, used)] == expected


def test_enumerate_regular_computes_each_circuit_once(monkeypatch):
    calls = []
    real = geometry._radon_partition
    monkeypatch.setattr(
        geometry,
        "_radon_partition",
        lambda cfg, subset: calls.append(subset) or real(cfg, subset),
    )
    cfg = cyclic_configuration(4, range(1, 9))
    found = enumerate_regular(cfg)
    assert len(found) == 40
    assert len(calls) == math.comb(8, 6)
    # the table belongs to the configuration: a second enumeration of
    # the same object computes no circuit
    calls.clear()
    assert enumerate_regular(cfg) == found
    assert calls == []


def test_circuit_table_stays_out_of_equality_and_json():
    cfg = cyclic_configuration(3, range(1, 7))
    twin = PointConfiguration.from_json(cfg.to_json())
    assert len(cfg.circuit_table) == math.comb(6, 5)
    assert cfg == twin and hash(cfg) == hash(twin)
    assert cfg.to_json() == twin.to_json()


def test_enumerate_regular_matches_oracle_regular_subset():
    for cfg in (square(), hexagon(), cyclic_configuration(3, [1, 2, 3, 5, 8, 13])):
        oracle = enumerate_all_oracle(cfg)
        regs = {t for t in oracle if is_regular(t, cfg).regular}
        assert enumerate_regular(cfg) == regs


def test_enumerate_regular_relabeling_invariance():
    cfg = hexagon()
    rng = random.Random(13)
    base = enumerate_regular(cfg)
    for _ in range(3):
        perm = list(cfg.labels)
        rng.shuffle(perm)
        mapping = dict(zip(cfg.labels, perm))
        relabeled = cfg.relabel(mapping)
        got = enumerate_regular(relabeled)
        assert got == {t.relabel(mapping) for t in base}


@st.composite
def relabeled_plane_configurations(draw):
    """A 2-D configuration in general position on a small grid, often
    with interior points, and a random permutation of its labels."""
    rows = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                         min_size=4, max_size=6, unique=True))
    perm = draw(st.permutations(range(1, len(rows) + 1)))
    return rows, perm


NESTED_TRIANGLES = [(4, 0), (0, 4), (0, 0), (2, 1), (1, 2), (1, 1)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(relabeled_plane_configurations())
@example((NESTED_TRIANGLES, [6, 4, 5, 2, 3, 1]))  # has non-regular triangulations
def test_regularity_and_enumeration_invariant_under_relabeling(case):
    rows, perm = case
    cfg = PointConfiguration.from_rows(rows)
    assume(configuration_in_general_position(cfg))
    mapping = dict(zip(cfg.labels, perm))
    relabeled = cfg.relabel(mapping)
    for t in enumerate_all_oracle(cfg):
        assert (is_regular(t, cfg).regular
                == is_regular(t.relabel(mapping), relabeled).regular)
    assert enumerate_regular(relabeled) == {
        t.relabel(mapping) for t in enumerate_regular(cfg)
    }


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded) as exc_info:
        enumerate_regular(hexagon(), budget=5)
    assert exc_info.value.count > 5
    assert len(exc_info.value.partial) > 5


@pytest.mark.parametrize(
    "rows",
    [[[0, 0], [1, 0], [0, 1]], [[0, 0], [1, 0], [0, 1], [1, 1]]],
    ids=["triangle", "square"],
)
def test_zero_budget_stops_both_enumerators_at_the_first_triangulation(rows):
    cfg = PointConfiguration.from_rows(rows)
    stops = []
    for enumerator in (enumerate_regular, enumerate_all_oracle):
        with pytest.raises(BudgetExceeded) as exc_info:
            enumerator(cfg, budget=0)
        stops.append((exc_info.value.count, exc_info.value.partial))
    assert stops[0] == stops[1]
    assert stops[0][0] == 1


def test_split_point_properties():
    cfg = hexagon()
    pair = split_point(cfg, 2, seed=1)
    assert pair.config.n == 7
    assert pair.p_prime_label == 7
    p, pp = pair.config.point(2), pair.config.point(7)
    assert all(abs(a - b) <= pair.epsilon for a, b in zip(p, pp))
    assert is_general_position(pair.config.delete([7]), pp)
    assert is_vertex(pair.config, 7)
    with pytest.raises(NotAVertex):
        split_point(square().append_point((F(1, 2), F(1, 2))), 5)


def test_split_point_deterministic():
    cfg = hexagon()
    assert split_point(cfg, 3, seed=5) == split_point(cfg, 3, seed=5)


def test_split_simplex_vertex():
    simplex = PointConfiguration.from_rows([[0, 0], [4, 0], [0, 4]])
    pair = split_point(simplex, 1, seed=2)
    assert is_vertex(pair.config, pair.p_label)
    assert is_vertex(pair.config, pair.p_prime_label)


def test_check_inseparable_split_pair_true():
    pair, _ = figure_pair()
    report = check_inseparable(pair.config, 6, 7)
    assert report.inseparable
    assert report.witnesses


def test_check_inseparable_far_pair_false():
    # non-adjacent pentagon vertices: the deleted quadrilaterals have
    # different triangulation sets after relabel
    pent = PointConfiguration.from_rows([[0, 0], [4, 0], [5, 3], [2, 5], [-1, 3]])
    report = check_inseparable(pent, 1, 3)
    assert not report.inseparable
    assert report.reason == "triangulation sets differ"


def test_check_inseparable_four_points_degenerate_true():
    # with only 4 points both deletions are triangles, so the
    # definition is vacuously satisfied for any pair
    assert check_inseparable(square(), 1, 4).inseparable


def test_check_inseparable_identical_labels_rejected():
    with pytest.raises(ValueError):
        check_inseparable(square(), 2, 2)


def test_shared_witness_induces_both():
    pair, t = figure_pair()
    w = shared_witness(pair.config, 6, 7, t)
    assert w is not None
    from regtri.triangulations import regular_subdivision

    without_pp = pair.config.delete([7])
    sub = regular_subdivision(without_pp, {l: w[l] for l in without_pp.labels})
    assert sub.cells == t.cells


def test_t_sweep_figure_instance():
    pair, t = figure_pair()
    report = check_inseparable(pair.config, 6, 7)
    w = report.witnesses[t]
    trace = t_sweep(pair, t, w)
    assert len(trace.breakpoints) == 3
    tris = {tri for _, tri in trace.snapshots}
    assert len(tris) == len(t.link(6).cells) + 1
    # each snapshot restricts to t away from the split pair
    keep = set(pair.config.labels) - {6, 7}
    for _, tri in trace.snapshots:
        assert tri.restriction(keep) == t.restriction(keep)
    # the link cells are partitioned, with the flat cell moving over
    for l_t, lp_t in trace.partitions:
        assert l_t | lp_t == t.link(6).cells
        assert not (l_t & lp_t)


def test_t_sweep_consecutive_snapshots_move_one_cell():
    pair, t = figure_pair()
    w = check_inseparable(pair.config, 6, 7).witnesses[t]
    trace = t_sweep(pair, t, w)
    parts = trace.partitions
    for (l1, _), (l2, _) in zip(parts, parts[1:]):
        assert len(l1 - l2) == 1


def test_t_sweep_split_simplex():
    simplex = PointConfiguration.from_rows([[0, 0], [4, 0], [0, 4]])
    pair = split_point(simplex, 1, seed=2)
    t = Triangulation([{1, 2, 3}])
    rep = check_inseparable(pair.config, pair.p_label, pair.p_prime_label)
    assert rep.inseparable
    trace = t_sweep(pair, t, rep.witnesses[t])
    assert len({tri for _, tri in trace.snapshots}) == 2


def test_t_sweep_rejects_non_witness_heights():
    pair, t = figure_pair()
    w = {l: F(0) for l in pair.config.labels}
    with pytest.raises(ValueError):
        t_sweep(pair, t, w)


def test_counting_inequality_on_figure_instance():
    pair, _ = figure_pair()
    base = pair.config.delete([7])
    r_base = enumerate_regular(base)
    r_split = enumerate_regular(pair.config)
    link = contraction(base, 6)
    c = min(len(t.cells) for t in enumerate_regular(link))
    assert len(r_split) >= len(r_base) * (c + 1)


def test_triangulation_count_bound():
    assert triangulation_count_bound(6, 3) == 6
    assert triangulation_count_bound(7, 3) == 24
    assert triangulation_count_bound(6, 2) == 1
    assert triangulation_count_bound(8, 4) == 24
    # d >= 5: each step multiplies by C(m-d-1+k, k) + 1, the splitting
    # inequality's factor, not by C(m-d+k, k)
    assert [triangulation_count_bound(n, d)
            for d, n in ((5, 8), (5, 9), (6, 9), (6, 10))] == [8, 56, 8, 56]


def test_cyclic_inseparable_realization_small():
    run = cyclic_inseparable_realization(3, 6)
    assert run.config.n == 6
    assert run.bound == 6
    assert len(enumerate_regular(run.config)) >= run.bound

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from regtri import enumeration, linalg, triangulations
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
from regtri.errors import (
    BudgetExceeded,
    DegenerateStep,
    GenericityFailure,
    NotAVertex,
    NotFullDimensional,
    RegtriError,
)
from regtri.geometry import (
    PointConfiguration,
    configuration_in_general_position,
    cyclic_configuration,
    is_general_position,
    is_vertex,
)
from regtri.lifting import contraction
from regtri.triangulations import (
    Triangulation,
    is_regular,
    is_triangulation,
    placing_triangulation,
    regular_subdivision,
)

from oracles import (
    catalan,
    circuit_table_reference,
    flip_neighbors_reference,
    gkz_regular_subset,
    polygon_triangulations,
)


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


def test_oracle_triangulates_the_point_of_r0():
    # the point has no facet to start from; it is its own cell, and the
    # flip search agrees
    point = PointConfiguration(0, ((),), (1,))
    assert enumerate_all_oracle(point) == enumerate_regular(point) == {Triangulation([{1}])}
    with pytest.raises(BudgetExceeded):
        enumerate_all_oracle(point, budget=0)


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
    """A 2-D or 3-D grid configuration, in general position or not, and
    a placing order; placing skips interior points, so the triangulation
    often leaves one out."""
    d = draw(st.sampled_from((2, 3)))
    point = st.tuples(*[st.integers(0, 4)] * d)
    rows = draw(st.lists(point, min_size=d + 2, max_size=d + 4, unique=True))
    order = draw(st.permutations(range(1, len(rows) + 1)))
    return rows, order


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(placing_cases(), st.randoms(use_true_random=False))
@example(([(0, 0), (4, 0), (0, 4), (4, 4), (1, 2)], [1, 2, 3, 4, 5]), random.Random(0))
@example(([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1), (1, 2, 3)],
          [1, 2, 3, 4, 6, 5]), random.Random(0))
@example(([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)], [1, 2, 3, 4, 5, 6]),
         random.Random(1))  # centre on both diagonals, a point on an edge
def test_table_driven_flips_equal_per_subset_reference(case, rng):
    # the circuit table reads its Radon signs off the chirotope; the
    # reference reads them off a Fraction kernel vector, so the two must
    # skip the same subsets, off general position too, and agree on
    # labels that are not 1..n in point order
    rows, order = case
    labels = rng.sample(range(1, 3 * len(rows)), len(rows))
    cfg = PointConfiguration.from_rows(rows, labels)
    try:
        start = placing_triangulation(cfg, [labels[k - 1] for k in order])
    except DegenerateStep:
        assume(False)
    points = {l: cfg.point(l) for l in cfg.labels}
    assert list(cfg.circuit_table) == circuit_table_reference(points)
    for t in [start] + flip_neighbors(start, cfg):
        expected = flip_neighbors_reference(t.cells, points)
        assert [nb.cells for nb in flip_neighbors(t, cfg)] == expected
        # the whole configuration's table, filtered to the labels t
        # uses, lists the flips of the table of those labels alone
        used = cfg.restrict(t.used_labels)
        assert [nb.cells for nb in flip_neighbors(t, used)] == expected


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(placing_cases())
@example(([(0, 0), (2, 0), (0, 2), (1, 0)], None))  # placing skips the edge point
@example(([(0, 0), (2, 0), (0, 2), (1, 1)], None))  # placing puts it on an edge
@example(([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)], None))  # centre on both diagonals
@example(([(0, 0), (4, 0), (0, 4), (4, 4), (1, 2)], None))
def test_enumerate_regular_refuses_exactly_off_general_position(case):
    # flips over full circuits cannot reach every triangulation of a
    # configuration with d+1 points on a hyperplane; budget=0 stops the
    # search at its first triangulation, after the check
    rows, _ = case
    cfg = PointConfiguration.from_rows(rows)
    try:
        placing_triangulation(cfg)
    except (DegenerateStep, NotFullDimensional):
        assume(False)
    general = configuration_in_general_position(cfg)
    with pytest.raises(BudgetExceeded if general else GenericityFailure):
        enumerate_regular(cfg, budget=0)


def test_enumerate_regular_computes_each_circuit_once(monkeypatch):
    # the circuit table takes every minor once, and the folding rows
    # read their coordinates off the same chirotope by Cramer's rule
    dets, solves = [], []
    real_det, real_solve = linalg.det, linalg.solve
    monkeypatch.setattr(linalg, "det", lambda rows: dets.append(rows) or real_det(rows))
    monkeypatch.setattr(linalg, "solve",
                        lambda a, b: solves.append(a) or real_solve(a, b))
    cfg = cyclic_configuration(4, range(1, 9))
    assert len(cfg.circuit_table) == math.comb(8, 6)
    # the table is read off the circuits, kept on the configuration
    assert len(cfg.circuits) == math.comb(8, 6)
    assert len(dets) == len(cfg.chirotope._minors) == math.comb(8, 5)
    dets.clear()
    found = enumerate_regular(cfg)
    assert len(found) == 40
    assert dets == solves == []
    # the table and the minors belong to the configuration: a second
    # enumeration of the same object takes no determinant either
    assert enumerate_regular(cfg) == found
    assert dets == solves == []


def test_enumerate_regular_solves_each_rejected_flip_once(monkeypatch):
    # four flips of cyclic(4,9) are not regular and each is reached from
    # several found triangulations: 368 regularity LPs for 356 distinct
    # candidates without the memory of rejections
    verdicts = {}
    real = enumeration.is_regular

    def recording(t, cfg, **kwargs):
        res = real(t, cfg, **kwargs)
        assert t not in verdicts
        verdicts[t] = res.regular
        return res

    monkeypatch.setattr(enumeration, "is_regular", recording)
    cfg = cyclic_configuration(4, range(1, 10))
    found = enumerate_regular(cfg)
    assert (len(found), len(verdicts)) == (353, 356)
    rejected = [t for t, regular in verdicts.items() if not regular]
    assert len(rejected) == 4
    assert not any(real(t, cfg).regular for t in rejected)
    # found is still the flip-connected regular component of the start
    start = placing_triangulation(cfg)
    component, frontier = {start}, [start]
    while frontier:
        for nb in flip_neighbors(frontier.pop(), cfg):
            if nb not in component and verdicts[nb]:
                component.add(nb)
                frontier.append(nb)
    assert found == component


def test_circuit_table_stays_out_of_equality_and_json():
    cfg = cyclic_configuration(3, range(1, 7))
    twin = PointConfiguration.from_json(cfg.to_json())
    assert len(cfg.circuit_table) == math.comb(6, 5)
    assert cfg.integer_rows[2] == (2, 4, 8, 1)
    assert cfg.chirotope.coordinates(frozenset({1, 2, 3, 4}), [5]) is not None
    assert cfg == twin and hash(cfg) == hash(twin)
    assert cfg.to_json() == twin.to_json()
    assert vars(twin).keys().isdisjoint(
        {"circuits", "circuit_table", "integer_rows", "_axis_scales", "chirotope"})
    # each axis scaled by the lcm of its denominators: 2 and 9 here
    halves = PointConfiguration.from_rows([(F(1, 2), F(-1, 3)), (1, F(2, 9)), (0, 0)])
    assert halves.integer_rows == {1: (1, -3, 1), 2: (2, 2, 1), 3: (0, 0, 1)}
    assert halves == PointConfiguration.from_json(halves.to_json())


def gkz_reference(cfg, triangulations):
    """oracles.gkz_regular_subset on triangulations of cfg, whose labels
    are 1..n in point order."""
    assert cfg.labels == tuple(range(1, cfg.n + 1))
    cells = [t.cells for t in triangulations]
    return {Triangulation(c) for c in gkz_regular_subset(list(cfg.points), cells)}


def test_enumerate_regular_matches_oracle_regular_subset():
    for cfg in (square(), hexagon(), cyclic_configuration(3, [1, 2, 3, 5, 8, 13])):
        oracle = enumerate_all_oracle(cfg)
        regs = {t for t in oracle if is_regular(t, cfg).regular}
        assert enumerate_regular(cfg) == regs == gkz_reference(cfg, oracle)


def test_is_regular_equals_the_gkz_reference():
    # the secondary polytope shares no code with is_regular; the nested
    # triangles have 2 non-regular triangulations of 18, and the flip
    # walk misses regular ones there, so is_regular filters the oracle
    nested = PointConfiguration.from_rows([[4, 0], [0, 4], [0, 0], [2, 1], [1, 2], [1, 1]])
    for cfg, regular in ((nested, 16), (cyclic_configuration(3, range(1, 8)), 25)):
        oracle = enumerate_all_oracle(cfg)
        regs = {t for t in oracle if is_regular(t, cfg).regular}
        assert len(regs) == regular
        assert gkz_reference(cfg, oracle) == regs


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


# a triangle with interior points, three of them on one line with a vertex
COLLINEAR_TRIANGLE = [(0, 0), (6, 0), (0, 6), (1, 1), (2, 2), (3, 1), (1, 3)]


@pytest.mark.parametrize(
    "cfg, count",
    [(PointConfiguration.from_rows(NESTED_TRIANGLES), 18),
     (hexagon(), 14),
     (cyclic_configuration(3, range(1, 8)), 25),
     (cyclic_configuration(4, range(1, 9)), 40),
     (cyclic_configuration(3, range(1, 10)), 972),
     (PointConfiguration.from_rows(COLLINEAR_TRIANGLE), 47)],
    ids=["nested triangles", "hexagon", "cyclic(3,7)", "cyclic(4,8)", "cyclic(3,9)",
         "collinear triangle"],
)
def test_oracle_decides_most_pairs_by_signs(monkeypatch, cfg, count):
    """The oracle solves no LP: simplices_properly_intersect decides
    every pair by the signs of the chirotope's dependences, with the
    facet test and the circuit test, and with the circuit test alone
    (the facet test switched off); the triangulations found are the same
    each time."""
    def refuse(*args):
        raise AssertionError("the oracle solved an LP")

    monkeypatch.setattr(triangulations, "max_margin", refuse)
    found = enumerate_all_oracle(cfg)
    assert len(found) == count
    monkeypatch.setattr(triangulations, "_facet_separates", lambda *args: False)
    assert enumerate_all_oracle(PointConfiguration.from_json(cfg.to_json())) == found


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


def test_negative_budget_is_refused():
    for enumerator in (enumerate_regular, enumerate_all_oracle):
        with pytest.raises(ValueError, match="negative budget"):
            enumerator(square(), budget=-1)


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


@pytest.mark.parametrize("epsilon", [0, "0", F(-1, 10), "-1/10"],
                         ids=["zero", "zero-string", "negative", "negative-string"])
def test_split_point_refuses_an_epsilon_that_is_not_positive(epsilon):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        split_point(hexagon(), 2, epsilon=epsilon, seed=1)


def test_split_point_deterministic():
    """The same seed gives the same p', and p' of hexagon vertex 3
    (epsilon 2/5) is pinned for three seeds, so that a change to the
    seeded draw shows."""
    cfg = hexagon()
    assert split_point(cfg, 3, seed=5) == split_point(cfg, 3, seed=5)
    pinned = {
        0: (F(-382091, 500000), F(183343, 78125)),
        1: (F(-1609109, 1250000), F(5193707, 2500000)),
        5: (F(-1832359, 2500000), F(5447971, 2500000)),
    }
    for seed, p_prime in pinned.items():
        pair = split_point(cfg, 3, seed=seed)
        assert (pair.p_prime_label, pair.epsilon) == (7, F(2, 5))
        assert pair.config.point(7) == p_prime


def test_split_point_computes_no_circuits_of_its_result():
    """p' is checked against the hyperplanes and facets of the given
    configuration, so the configuration returned has no circuits yet."""
    pair = split_point(hexagon(), 2, seed=1)
    assert "circuits" not in pair.config.__dict__


def test_split_point_refuses_a_configuration_that_does_not_span():
    """A lone point has no facets, so it cannot be split with a given
    epsilon in any dimension; with the default epsilon it has no
    hyperplane to measure its gap from."""
    for rows in ([[0]], [[0, 0]]):
        lone = PointConfiguration.from_rows(rows)
        with pytest.raises(NotFullDimensional):
            split_point(lone, 1, epsilon=F(1, 10))
        with pytest.raises(RegtriError, match="no spanned hyperplane"):
            split_point(lone, 1)


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


def test_shared_witness_gives_p_j_the_height_it_reads():
    # in the second system p_2 takes p_1's place and reads its height;
    # its own variable is in no row, and its LP value, 0 - 1, would
    # put the lifted p_2 below the copy of t
    cfg = PointConfiguration.from_rows([(0, 1), (2, 1), (2, 4), (5, 4), (7, 2), (8, 6)])
    t = Triangulation([{1, 3, 4}, {1, 4, 5}, {3, 4, 6}, {4, 5, 6}])
    w = shared_witness(cfg, 1, 2, t)
    assert w is not None and w[2] == w[1]
    for config, copy in ((cfg.delete([2]), t), (cfg.delete([1]), t.relabel({1: 2}))):
        heights = {l: w[l] for l in config.labels}
        assert regular_subdivision(config, heights).cells == copy.cells
    trace = t_sweep(SplitPair(cfg, 1, 2, F(1)), t, w)
    assert trace.snapshots


def test_shared_witness_is_none_when_the_relabeled_copy_is_no_triangulation():
    # t is a regular triangulation of config - 1, but relabeled 5 -> 1
    # it leaves a ridge uncovered on config - 5
    cfg = PointConfiguration.from_rows([(0, 7), (2, 1), (3, 0), (3, 6), (5, 7), (5, 8)])
    t = Triangulation([{2, 3, 6}, {2, 4, 6}, {3, 5, 6}])
    assert t in enumerate_regular(cfg.delete([1]))
    on_5 = t.relabel({5: 1}).cells
    assert is_triangulation(on_5, cfg.delete([5])) == (False, ("uncovered ridge", (2, 4)))
    assert shared_witness(cfg, 5, 1, t) is None


def test_shared_witness_is_none_for_a_label_outside_the_configuration():
    pair, t = figure_pair()
    stray = Triangulation(t.cells | {frozenset({1, 2, 99})})
    assert shared_witness(pair.config, 6, 7, stray) is None


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
    """Zero heights fail the check without p'.  Raising p' above a
    shared witness leaves t induced without p', so only the check
    without p fails."""
    pair, t = figure_pair()
    w = {l: F(0) for l in pair.config.labels}
    with pytest.raises(ValueError, match="heights do not induce the given triangulation"):
        t_sweep(pair, t, w)
    w = dict(check_inseparable(pair.config, 6, 7).witnesses[t])
    w[7] += 10
    with pytest.raises(ValueError, match="heights are not a shared inseparability witness"):
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


def test_a_dimension_below_the_least_is_refused():
    for d in (0, -1):
        with pytest.raises(ValueError, match="need d >= 1"):
            triangulation_count_bound(5, d)
        with pytest.raises(ValueError, match="need d >= 1"):
            cyclic_inseparable_realization(d, 5)
    with pytest.raises(ValueError, match="negative dimension -1"):
        PointConfiguration(-1, (), ())


def test_cyclic_inseparable_realization_small():
    run = cyclic_inseparable_realization(3, 6)
    assert run.config.n == 6
    assert run.bound == 6
    assert len(enumerate_regular(run.config)) >= run.bound


def test_check_inseparable_reduces_each_cell_and_point_once(monkeypatch):
    # both one-point deletions of a checked configuration, in their
    # enumerations and shared witnesses alike, read and fill the checked
    # configuration's one memo of minors: each 4-subset that misses i or
    # q is taken once, and none holding both, which neither deletion has
    dets, deletions = [], []
    real_det, real_enumerate = linalg.det, enumeration.enumerate_regular
    monkeypatch.setattr(linalg, "det", lambda rows: dets.append(rows) or real_det(rows))
    monkeypatch.setattr(enumeration, "enumerate_regular",
                        lambda cfg, **kw: deletions.append(cfg) or real_enumerate(cfg, **kw))
    run = cyclic_inseparable_realization(3, 8)
    assert run.halvings == (0, 0, 0, 0)
    # stages of m = 5 to 8 points, each deleting one of two
    memos = [cfg.chirotope._minors for cfg in deletions]
    assert all(a is b for a, b in zip(memos[::2], memos[1::2]))
    counts = [math.comb(m, 4) - math.comb(m - 2, 2) for m in range(5, 9)]
    assert [len(memo) for memo in memos] == [c for c in counts for _ in range(2)]
    assert len(dets) == sum(counts) == 91

"""The regularity LP on the local folding rows against the full rows
(one per cell and outside point) of `oracles.height_separation_rows_reference`."""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from regtri import linalg, linprog, triangulations
from regtri.enumeration import (
    enumerate_all_oracle,
    enumerate_regular,
    flip_neighbors,
    shared_witness,
    split_point,
)
from regtri.geometry import (
    PointConfiguration,
    configuration_in_general_position,
    cyclic_configuration,
    homogenized,
    is_vertex,
)
from regtri.linprog import max_margin
from regtri.triangulations import (
    Triangulation,
    _check_certificate,
    _folding_pass,
    is_regular,
    placing_triangulation,
    regular_subdivision,
)

from oracles import fraction_simplex, height_separation_rows_reference

NESTED = [[4, 0], [0, 4], [0, 0], [2, 1], [1, 2], [1, 1]]


def twisted_nested_triangles():
    cfg = PointConfiguration.from_rows(NESTED)
    t = Triangulation(
        [{1, 2, 4}, {2, 4, 5}, {2, 3, 5}, {3, 5, 6}, {1, 3, 6}, {1, 4, 6}, {4, 5, 6}]
    )
    return cfg, t


@st.composite
def triangulated_configurations(draw):
    """A 2-D or 3-D configuration in general position and a
    triangulation of it: placing in a drawn order, which skips interior
    points, then a few drawn flips.  Random small integer points almost
    never give a non-regular triangulation, so half the draws are the
    nested triangles moved by odd multiples of 1/64, with or without a
    seventh point inside, whose flip graph holds non-regular ones.  Those
    use the inner points, so placing places the outer triangle last."""
    nested = draw(st.booleans())
    if nested:
        shift = st.sampled_from((-3, -1, 1, 3))
        rows = [[x + F(draw(shift), 64) for x in r] for r in NESTED]
        if draw(st.booleans()):
            rows.append([F(6, 5), F(3, 2)])
    else:
        d = draw(st.sampled_from((2, 3)))
        point = st.tuples(*[st.integers(0, 4)] * d)
        rows = draw(st.lists(point, min_size=d + 2, max_size=d + 4, unique=True))
    cfg = PointConfiguration.from_rows(rows)
    assume(configuration_in_general_position(cfg))
    order = draw(st.permutations(cfg.labels))
    if nested:
        order = sorted(order, key=lambda l: l <= 3)
    t = placing_triangulation(cfg, order)
    for step in draw(st.lists(st.integers(0, 99), min_size=nested, max_size=6)):
        neighbors = flip_neighbors(t, cfg)
        if neighbors:
            t = neighbors[step % len(neighbors)]
    return cfg, t


def folding_rows(cfg, cells, column, nv):
    """The folding rows of _folding_pass as Fractions: each integer row
    over its multiplier."""
    rows, mults = _folding_pass(cfg, cells, column, nv, validate=False)
    return [[F(v, m) for v in row] for row, m in zip(rows, mults)]


def full_rows(points, cells, column, nv):
    rows = height_separation_rows_reference(points, cells, column, nv)
    assert rows is not None
    return rows


PROPERTY = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much,
                                           HealthCheck.too_slow])


@PROPERTY
@given(triangulated_configurations())
@example(twisted_nested_triangles())
def test_folding_rows_decide_as_the_full_rows(case):
    cfg, t = case
    labels = sorted(cfg.labels)
    column = {l: i for i, l in enumerate(labels)}
    nv = len(labels) + 1
    full = full_rows({l: cfg.point(l) for l in labels}, t.cells, column, nv)
    folded = folding_rows(cfg, t.cells, column, nv)
    assert {tuple(r) for r in folded} <= {tuple(r) for r in full}
    c, a_ub, b_ub, ref = max_margin(full, nv)
    res = is_regular(t, cfg)
    assert res.regular == (ref.value > 0)
    if res.regular:
        assert regular_subdivision(cfg, res.witness).cells == t.cells
        return
    assert res.certificate_valid
    # the refutation, padded with zeros, refutes the full system
    where = {}
    for i, row in enumerate(full):
        where.setdefault(tuple(row), []).append(i)
    padded = [F(0)] * len(full)
    for y, row in zip(res.certificate, folded):
        padded[where[tuple(row)].pop()] = y
    padded += res.certificate[len(folded):]
    assert _check_certificate(c, a_ub, b_ub, padded)


@PROPERTY
@given(triangulated_configurations())
@example(twisted_nested_triangles())
def test_is_regular_equals_the_fraction_simplex_on_the_rational_rows(case):
    """is_regular runs its LP on integer rows and scales the duals back;
    the Fraction simplex on the rational folding rows must give the
    same witness, margin and certificate."""
    cfg, t = case
    labels = sorted(cfg.labels)
    nv = len(labels) + 1
    rows = folding_rows(cfg, t.cells, {l: i for i, l in enumerate(labels)}, nv)
    status, x, value, dual = fraction_simplex(*max_margin(rows, nv)[:3], nonneg=True)
    res = is_regular(t, cfg, validate=True)
    assert status == "optimal" and res.margin == value
    if res.regular:
        assert res.witness == {l: x[i] - 1 for i, l in enumerate(labels)}
        assert res.certificate is None
    else:
        assert res.witness is None
        assert res.certificate == tuple(dual) and res.certificate_valid


@PROPERTY
@given(triangulated_configurations(), st.integers(0, 10**6))
@example(twisted_nested_triangles(), 0)
def test_shared_witness_is_none_exactly_when_the_full_rows_fail(case, seed):
    cfg, t = case
    i = min(l for l in cfg.labels if is_vertex(cfg, l))
    pair = split_point(cfg, i, seed=seed)
    config, j = pair.config, pair.p_prime_label
    got = shared_witness(config, i, j, t)

    labels = sorted(config.labels)
    idx = {l: k for k, l in enumerate(labels)}
    nv = len(labels) + 1
    points = {l: config.point(l) for l in labels}
    rows = full_rows(points, t.cells, {l: idx[l] for l in cfg.labels}, nv)
    on_i = {l: idx[i if l == j else l] for l in config.delete([i]).labels}
    rows += full_rows(points, t.relabel({i: j}).cells, on_i, nv)
    ref = max_margin(rows, nv)[3]
    assert (got is not None) == (ref.optimal and ref.value > 0)
    if got is not None:
        assert regular_subdivision(cfg, {l: got[l] for l in cfg.labels}).cells == t.cells


def test_is_regular_hands_solve_lp_one_row_per_interior_ridge_and_unused_point(
    monkeypatch,
):
    shapes = []
    real = linprog.solve_lp

    def counted(c, a_ub, b_ub, *args, **kwargs):
        shapes.append(len(a_ub))
        return real(c, a_ub, b_ub, *args, **kwargs)

    for module in (linprog, triangulations):
        monkeypatch.setattr(module, "solve_lp", counted)
    square = PointConfiguration.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])
    cyclic = cyclic_configuration(4, range(1, 9))
    cases = ((cyclic, 15, 12, 0), (square.append_point((F(1, 2), F(1, 4))), 1, 1, 1))
    for cfg, ridges, rows, unused in cases:
        t = placing_triangulation(cfg)
        assert len(set(cfg.labels) - t.used_labels) == unused
        owners = {}
        for c in sorted(t.cells, key=sorted):
            for r in combinations(sorted(c), cfg.dim):
                owners.setdefault(frozenset(r), []).append(c)
        interior = [(r, cs) for r, cs in owners.items() if len(cs) == 2]
        assert len(interior) == ridges
        # two ridges of one cell whose neighbours share their apex ask
        # the same of the same point: one row
        pairs = {(first, next(iter(second - r))) for r, (first, second) in interior}
        assert len(pairs) == rows
        shapes.clear()
        assert is_regular(t, cfg).regular
        assert shapes == [rows + unused + cfg.n + 1]


def test_a_shared_memo_gives_the_results_of_fresh_ones():
    """One configuration object over every triangulation of it,
    validating and not, in turn: each call reads the cell coordinates
    earlier calls reduced and must return what a fresh equal
    configuration returns, witness, margin, certificate and its check
    alike.  The nested triangles have two non-regular triangulations
    among their 18."""
    cases = [
        (cyclic_configuration(4, range(1, 9)), 0),
        (cyclic_configuration(3, range(1, 8)), 0),
        (PointConfiguration.from_rows(NESTED), 2),
    ]
    for cfg, non_regular in cases:
        every = sorted(enumerate_all_oracle(cfg), key=lambda t: sorted(map(sorted, t.cells)))
        refuted = 0
        for k, t in enumerate(every):
            validate = k % 2 == 1
            shared = is_regular(t, cfg, validate=validate)
            fresh = PointConfiguration.from_json(cfg.to_json())
            assert shared == is_regular(t, fresh, validate=validate)
            assert shared.certificate_valid in (None, True)
            refuted += not shared.regular
        assert refuted == non_regular


def counting_det(monkeypatch):
    """Patch linalg.det to record the rows of each call; returns the list."""
    dets = []
    real = linalg.det
    monkeypatch.setattr(linalg, "det", lambda rows: dets.append(rows) or real(rows))
    return dets


def test_memo_reduces_only_missing_labels_to_the_integers_of_one_reduction(monkeypatch):
    """Cramer's rule on the chirotope gives den = |det| of the cell's
    rows and, over den, the affine coordinates linalg.solve finds, and a
    later request takes only the minors its labels still miss."""
    cfg = cyclic_configuration(3, range(1, 8))
    dets = counting_det(monkeypatch)
    chi = cfg.chirotope
    cell = frozenset({1, 2, 3, 4})
    den, nums = chi.coordinates(cell, [5, 6])
    assert len(dets) == 1 + 4 + 4  # the cell's minor, then 4 new ones per point
    again, more = chi.coordinates(cell, [6, 7, 7, 5])
    assert again == den and {l: more[l] for l in (5, 6)} == nums
    assert len(dets) == 9 + 4
    assert chi.coordinates(cell, [7, 2]) == (den, {7: more[7], 2: (0, den, 0, 0)})
    assert len(dets) == 13
    columns = list(zip(*homogenized(cfg, sorted(cell))))
    assert den == abs(linalg.det(columns))
    for l in (5, 6, 7):
        assert [F(v, den) for v in more[l]] == linalg.solve(columns, homogenized(cfg, [l])[0])
    # a degenerate cell reads its one minor
    flat = PointConfiguration.from_rows([[0, 0], [1, 0], [2, 0], [0, 1]])
    dets.clear()
    assert flat.chirotope.coordinates(frozenset({1, 2, 3}), [4]) is None
    assert flat.chirotope.coordinates(frozenset({1, 2, 3}), [1]) is None
    assert len(dets) == 1


def test_a_cell_without_d_plus_one_labels_is_refused():
    """A cell of the wrong size has no affine coordinates: its numbers
    would be no coordinates, and the memo would keep minors for them."""
    cfg = PointConfiguration.from_rows([[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]])
    for cell in ({1, 2, 3, 4}, {1, 2}):
        message = rf"cell \({', '.join(map(str, sorted(cell)))}\) has {len(cell)} labels"
        with pytest.raises(ValueError, match=message):
            cfg.chirotope.coordinates(frozenset(cell), [5])
        with pytest.raises(ValueError, match=message):
            triangulations.barycentric(cfg, cell, 5)
    assert cfg.chirotope._minors == cfg.chirotope._dependences == {}  # nothing kept
    assert triangulations.barycentric(cfg, {1, 2, 3}, 5) == {1: 0, 2: F(1, 2), 3: F(1, 2)}


def test_an_unknown_label_is_refused_whatever_was_asked_before():
    """A cell already read as degenerate still refuses a label outside
    the configuration, and the refusal leaves the chirotope as it was."""
    flat = PointConfiguration.from_rows([[0, 0], [1, 0], [2, 0], [0, 1]])
    chi = flat.chirotope
    with pytest.raises(ValueError, match="label 9 not in configuration"):
        triangulations.barycentric(flat, {1, 2, 3}, 9)
    assert chi._minors == chi._dependences == {}
    assert triangulations.barycentric(flat, {1, 2, 3}, 4) is None
    memo = dict(chi._minors), dict(chi._dependences)
    with pytest.raises(ValueError, match="label 9 not in configuration"):
        triangulations.barycentric(flat, {1, 2, 3}, 9)
    assert (chi._minors, chi._dependences) == memo


def test_one_enumeration_reduces_each_cell_and_point_once(monkeypatch):
    """The enumeration takes each minor of its chirotope once, the
    circuit table's and the folding rows' alike, and no reduction."""
    dets = counting_det(monkeypatch)
    cfg = cyclic_configuration(4, range(1, 9))
    assert len(enumerate_regular(cfg)) == 40
    keys = [tuple(map(tuple, rows)) for rows in dets]
    assert len(keys) == len(set(keys)) == len(cfg.chirotope._minors) == 56

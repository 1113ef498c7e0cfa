import random
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regtri import linprog
from regtri.enumeration import enumerate_all_oracle, enumerate_regular
from regtri.geometry import (
    PointConfiguration,
    configuration_in_general_position,
    cyclic_configuration,
)
from regtri.linprog import lp_feasible, max_margin, solve_lp
from regtri.triangulations import Triangulation, _folding_pass

from oracles import fraction_simplex


def test_simple_max():
    # max x + y st x <= 2, y <= 3, x + y <= 4, x,y >= 0
    res = solve_lp(
        [1, 1],
        [[1, 0], [0, 1], [1, 1]],
        [2, 3, 4],
    )
    assert res.optimal
    assert res.value == 4


def test_unbounded():
    res = solve_lp([1], [], [])
    assert res.status == "unbounded"
    res = solve_lp([1], [[-1]], [0])
    assert res.status == "unbounded"


def test_a_system_without_rows_is_optimal_at_the_origin_when_no_cost_is_positive():
    res = solve_lp([0, -1], [], [])
    assert res.status == "optimal"
    assert res.value == 0
    assert res.x == [0, 0]
    assert res.dual == []


def test_a_negative_right_hand_side_is_refused():
    with pytest.raises(ValueError):
        solve_lp([1, 1], [[1, 0], [0, 1]], [2, F(-1, 3)])


def test_duals_certify_optimality():
    # weak-duality check: y >= 0, y^T A >= c, and y^T b == optimal value
    rng = random.Random(19)
    for _ in range(30):
        nv = rng.randint(1, 4)
        nr = rng.randint(nv, nv + 3)
        a = [[F(rng.randint(0, 6)) for _ in range(nv)] for _ in range(nr)]
        b = [F(rng.randint(1, 9)) for _ in range(nr)]
        c = [F(rng.randint(0, 5)) for _ in range(nv)]
        # ensure boundedness: every variable capped
        for j in range(nv):
            row = [F(0)] * nv
            row[j] = F(1)
            a.append(row)
            b.append(F(10))
        res = solve_lp(c, a, b)
        assert res.optimal
        y = res.dual
        assert all(v >= 0 for v in y)
        for j in range(nv):
            assert sum(y[i] * a[i][j] for i in range(len(a))) >= c[j]
        assert sum(yi * bi for yi, bi in zip(y, b)) == res.value


def test_lp_feasible():
    assert lp_feasible([[1]], [3]) is not None
    assert lp_feasible([[1], [-1]], [1, -2]) is None


def test_random_feasibility_agrees_with_vertex_scan():
    # 2-variable systems: compare feasibility with a brute scan over
    # constraint intersections and axis points
    rng = random.Random(23)
    for _ in range(40):
        rows = []
        rhs = []
        for _ in range(4):
            rows.append([F(rng.randint(-4, 4)), F(rng.randint(-4, 4))])
            rhs.append(F(rng.randint(-4, 6)))
        got = lp_feasible(rows, rhs) is not None
        # brute: candidate points = origin, single-constraint boundary
        # points on axes, and pairwise intersections
        cands = [(F(0), F(0))]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                a1, b1 = rows[i], rhs[i]
                a2, b2 = rows[j], rhs[j]
                det = a1[0] * a2[1] - a1[1] * a2[0]
                if det != 0:
                    x = (b1 * a2[1] - a1[1] * b2) / det
                    y = (a1[0] * b2 - b1 * a2[0]) / det
                    cands.append((x, y))
            for ax in range(2):
                if rows[i][ax] != 0:
                    pt = [F(0), F(0)]
                    pt[ax] = rhs[i] / rows[i][ax]
                    cands.append(tuple(pt))
        brute = any(
            x >= 0
            and y >= 0
            and all(r[0] * x + r[1] * y <= b for r, b in zip(rows, rhs))
            for x, y in cands
        )
        if brute:
            assert got  # a feasible candidate point certifies feasibility


def fields(res):
    return res.status, res.x, res.value, res.dual


@pytest.fixture
def pivots(monkeypatch):
    """The pivot entry of every exchange made while the test runs."""
    seen = []
    exchange = linprog._exchange

    def recording_exchange(tab, packing, cols, basis, r, k, col, den):
        seen.append(packing.row(tab[r])[k])
        return exchange(tab, packing, cols, basis, r, k, col, den)

    monkeypatch.setattr(linprog, "_exchange", recording_exchange)
    return seen


rationals = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 6]))
# numerators up to 2^80 widen the fields of the packed rows (linalg.Packing)
wide_rationals = st.builds(F, st.integers(-2 ** 80, 2 ** 80), st.sampled_from([1, 1, 2, 3, 6]))


@st.composite
def small_lps(draw):
    """Small LPs with <= and = rows, right-hand sides of both signs and
    entries over mixed denominators, in about half of them with
    numerators up to 2^80; up to two <= rows with one entry that may be
    nonzero (bound rows of solve_lp when it is positive) at random
    positions; sometimes an equality row gets a rational multiple as a
    redundant copy."""
    nv = draw(st.integers(1, 3))
    entries = draw(st.sampled_from([rationals, wide_rationals]))
    row = st.lists(entries, min_size=nv, max_size=nv)
    a_ub = draw(st.lists(row, max_size=4))
    b_ub = draw(st.lists(entries, min_size=len(a_ub), max_size=len(a_ub)))
    for _ in range(draw(st.integers(0, 2))):
        single = [F(0)] * nv
        single[draw(st.integers(0, nv - 1))] = draw(entries)
        at = draw(st.integers(0, len(a_ub)))
        a_ub.insert(at, single)
        b_ub.insert(at, draw(entries))
    a_eq = draw(st.lists(row, max_size=2))
    b_eq = draw(st.lists(entries, min_size=len(a_eq), max_size=len(a_eq)))
    if a_eq and draw(st.booleans()):
        i = draw(st.integers(0, len(a_eq) - 1))
        k = draw(st.sampled_from([F(1), F(-2), F(3, 5)]))
        a_eq.append([k * v for v in a_eq[i]])
        b_eq.append(k * b_eq[i])
    return draw(row), a_ub, b_ub, a_eq, b_eq


@st.composite
def wide_lps(draw):
    """LPs of up to 6 variables and 8 rows, up to 3 of them equality
    rows, entries and right-hand sides of both signs: wide enough for
    many exchanges between structural and slack variables."""
    nv = draw(st.integers(1, 6))
    row = st.lists(rationals, min_size=nv, max_size=nv)
    n_ub = draw(st.integers(0, 8))
    n_eq = draw(st.integers(0, min(3, 8 - n_ub)))
    a_ub = draw(st.lists(row, min_size=n_ub, max_size=n_ub))
    b_ub = draw(st.lists(rationals, min_size=n_ub, max_size=n_ub))
    a_eq = draw(st.lists(row, min_size=n_eq, max_size=n_eq))
    b_eq = draw(st.lists(rationals, min_size=n_eq, max_size=n_eq))
    return draw(row), a_ub, b_ub, a_eq, b_eq


def origin_feasible(lp):
    """The LP solve_lp takes from a drawn one: its <= rows, each
    right-hand side made >= 0 so that the origin is feasible."""
    c, a_ub, b_ub, _, _ = lp
    return c, a_ub, [abs(b) for b in b_ub]


@settings(max_examples=400, deadline=None)
@given(small_lps().map(origin_feasible))
def test_solve_lp_equals_fraction_simplex(lp):
    res = solve_lp(*lp)
    assert fields(res) == fraction_simplex(*lp, nonneg=True)


@settings(max_examples=300, deadline=None)
@given(wide_lps().map(origin_feasible))
def test_wide_lps_equal_fraction_simplex(lp):
    res = solve_lp(*lp)
    assert fields(res) == fraction_simplex(*lp, nonneg=True)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_lps(), wide_lps()))
def test_lp_feasible_finds_a_point_exactly_when_one_exists(lp):
    _, a_ub, b_ub, a_eq, b_eq = lp
    assume(a_ub or a_eq)
    # each equality as two opposite rows
    x = lp_feasible(a_ub + [r for a in a_eq for r in (a, [-v for v in a])],
                    b_ub + [r for b in b_eq for r in (b, -b)])
    assert (x is not None) == (fraction_simplex(*lp, nonneg=True)[0] != "infeasible")
    if x is not None:
        assert all(v >= 0 for v in x)
        assert all(sum(map(mul, a, x)) <= b for a, b in zip(a_ub, b_ub))
        assert all(sum(map(mul, a, x)) == b for a, b in zip(a_eq, b_eq))


def test_solve_lp_fixed_cases_equal_fraction_simplex(pivots):
    cases = {
        "unbounded": ([F(1, 3), 1], [[1, -1]], [F(1, 2)]),
        # ties in the ratio test on the rows with right-hand side 0
        "degenerate": ([1, 1], [[1, -1], [-1, 1], [1, 1]], [0, 0, F(3, 2)]),
        "rational rows": ([F(2, 3), F(-1, 5), 1], [[F(1, 2), 1, F(1, 3)], [1, F(-2, 7), 1]],
                          [F(5, 4), 2]),
        # entries of 2^64: after x3 enters, the reduced cost of x1 is
        # 2^129, the minor of the row [2^64, 2^64] of a_ub on x1 and x3
        # and the objective row -c = [2^64, -2^64] there, which meets
        # the bound of the packed fields
        "wide entries": ([-2 ** 64, -2 ** 64, 2 ** 64], [[2 ** 64, -2 ** 64, 2 ** 64]],
                         [2 ** 64]),
    }
    got = {}
    for name, lp in cases.items():
        res = solve_lp(*lp)
        assert fields(res) == fraction_simplex(*lp, nonneg=True)
        got[name] = res
    assert got["unbounded"].status == "unbounded"
    assert got["degenerate"].optimal and got["degenerate"].value == F(3, 2)
    assert got["rational rows"].optimal
    assert got["wide entries"].optimal and got["wide entries"].value == 2 ** 64
    assert pivots and all(p > 0 for p in pivots)


def test_bound_rows_equal_fraction_simplex_with_the_full_tableaus_pivots(pivots):
    """Rows with one positive entry stay out of the tableau until one
    leaves (linprog's bound rows); each case runs the pivots, in order,
    that the simplex on every row ran, and ends as the dense simplex
    does."""
    cases = {
        # x1 enters and its own bound, 3 < 10, binds first
        "own bound": ([1, 1], [[1, 2], [1, 0], [0, 1]], [10, 3, 4], [1, 2]),
        # x2 enters while x1 is basic on row 0 and grows with it: x1's
        # bound row is -2 times row 0, right-hand side 6 - 2 * 1 = 4, so
        # its ratio 2 beats x2's own bound 5/2 (6 / 2 = 3 would not)
        "bound on a basic variable": ([1, 1], [[1, -1], [2, 0], [0, F(1, 3)]],
                                      [1, 6, F(5, 6)], [1, 2, 4]),
        # 5/2 x1 <= 5 binds before x1 <= 3, which stays out to the end
        "two bounds on one variable": ([1, 1], [[1, -1], [1, 0], [0, 1], [F(5, 2), 0]],
                                       [1, 3, 9, 5], [1, 5, 5]),
        # a single negative entry and an all-zero row stay in the tableau
        "explicit single entries": ([1, 1], [[-1, 0], [0, 0], [1, 1], [0, -3]],
                                    [2, 1, 4, 0], [1]),
        # x1's bound ties with row 1 at ratio 2; its slack is the smaller
        # variable, so Bland's rule packs it and x1 enters there
        "bound first, tied": ([1, 1], [[1, 0], [1, 1], [0, 1]], [2, 2, 5], [1, 1]),
    }
    for name, (c, a_ub, b_ub, expected) in cases.items():
        pivots.clear()
        res = solve_lp(c, a_ub, b_ub)
        assert fields(res) == fraction_simplex(c, a_ub, b_ub, nonneg=True), name
        assert pivots == expected, name


def regularity_lp(cfg, t):
    labels = sorted(cfg.labels)
    nv = len(labels) + 1
    rows, mults = _folding_pass(cfg, t.cells, {l: i for i, l in enumerate(labels)}, nv,
                                validate=False)
    return max_margin([[F(v, m) for v in row] for row, m in zip(rows, mults)], nv)


def nested_triangles_with_seventh_point():
    """The nested triangles plus a seventh point, each coordinate moved
    by a seeded odd multiple of 1/64 until the points are in general
    position: 74 triangulations, 7 of them not regular."""
    rows = [[4, 0], [0, 4], [0, 0], [2, 1], [1, 2], [1, 1], [F(6, 5), F(3, 2)]]
    rng = random.Random(0)
    while True:
        cfg = PointConfiguration.from_rows(
            [[x + F(rng.choice((-3, -1, 1, 3)), 64) for x in r] for r in rows]
        )
        if configuration_in_general_position(cfg):
            return cfg


def test_regularity_lps_equal_fraction_simplex(pivots):
    twisted_cfg = PointConfiguration.from_rows(
        [[4, 0], [0, 4], [0, 0], [2, 1], [1, 2], [1, 1]]
    )
    twisted = Triangulation(
        [{1, 2, 4}, {2, 4, 5}, {2, 3, 5}, {3, 5, 6}, {1, 3, 6}, {1, 4, 6}, {4, 5, 6}]
    )
    nested = nested_triangles_with_seventh_point()
    cyc = cyclic_configuration(4, [1, 2, 3, 4, 5, 6, 7, 8])
    cases = ([(twisted_cfg, twisted)]
             + [(nested, t) for t in enumerate_all_oracle(nested)]
             + [(cyc, t) for t in enumerate_regular(cyc)])
    regular = []
    for cfg, t in cases:
        c, a_ub, b_ub, res = regularity_lp(cfg, t)
        assert fields(res) == fraction_simplex(c, a_ub, b_ub, nonneg=True)
        regular.append(res.value > 0)
    assert len(cases) == 1 + 74 + 40
    assert not regular[0] and sum(regular[1:75]) == 67 and all(regular[75:])
    assert pivots and all(p > 0 for p in pivots)

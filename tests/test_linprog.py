import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from regtri import linalg, linprog
from regtri.geometry import PointConfiguration, cyclic_configuration
from regtri.linprog import lp_feasible, max_margin, solve_lp
from regtri.triangulations import (
    Triangulation,
    height_separation_rows,
    placing_triangulation,
)

from oracles import fraction_simplex


def test_simple_max():
    # max x + y st x <= 2, y <= 3, x + y <= 4, x,y >= 0
    res = solve_lp(
        [1, 1],
        [[1, 0], [0, 1], [1, 1]],
        [2, 3, 4],
        nonneg=True,
    )
    assert res.optimal
    assert res.value == 4


def test_free_variables():
    # max x st x <= 5 with x free
    res = solve_lp([1], [[1]], [5])
    assert res.optimal and res.value == 5 and res.x == [F(5)]
    # free variable can go negative
    res = solve_lp([-1], [[-1]], [5])
    assert res.optimal and res.value == 5 and res.x == [F(-5)]


def test_equality_constraints():
    # max x st x + y = 3, x - y = 1
    res = solve_lp([1, 0], [], [], [[1, 1], [1, -1]], [3, 1])
    assert res.optimal
    assert res.x == [F(2), F(1)]


def test_infeasible():
    res = solve_lp([1], [[1], [-1]], [1, -2], nonneg=True)
    assert res.status == "infeasible"
    res = solve_lp([0, 0], [], [], [[1, 1], [1, 1]], [1, 2])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp([1], [], [])
    assert res.status == "unbounded"
    res = solve_lp([1], [[-1]], [0], nonneg=True)
    assert res.status == "unbounded"


def test_negative_rhs_handling():
    # max -x st -x <= -3  (x >= 3)
    res = solve_lp([-1], [[-1]], [-3], nonneg=True)
    assert res.optimal
    assert res.x == [F(3)]
    assert res.value == -3


def test_redundant_equality_rows():
    res = solve_lp([1, 1], [[1, 1]], [4], [[1, -1], [2, -2]], [0, 0], nonneg=True)
    assert res.optimal
    assert res.value == 4


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
        res = solve_lp(c, a, b, nonneg=True)
        assert res.optimal
        y = res.dual
        assert all(v >= 0 for v in y)
        for j in range(nv):
            assert sum(y[i] * a[i][j] for i in range(len(a))) >= c[j]
        assert sum(yi * bi for yi, bi in zip(y, b)) == res.value


def test_dual_signs_with_flipped_rows():
    # max x st -x <= -2, x <= 5: optimum 5, dual of first row 0
    res = solve_lp([1], [[-1], [1]], [-2, 5], nonneg=True)
    assert res.optimal and res.value == 5
    assert res.dual[0] == 0
    assert res.dual[1] == 1


def test_lp_feasible():
    assert lp_feasible([[1]], [3], nonneg=True) is not None
    assert lp_feasible([[1], [-1]], [1, -2], nonneg=True) is None


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
        got = lp_feasible(rows, rhs, nonneg=True) is not None
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


rationals = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 6]))


@st.composite
def small_lps(draw):
    """Small LPs with <= and = rows, right-hand sides of both signs and
    entries over mixed denominators; sometimes an equality row gets a
    rational multiple as a redundant copy, which phase 1 leaves dead."""
    nv = draw(st.integers(1, 3))
    row = st.lists(rationals, min_size=nv, max_size=nv)
    a_ub = draw(st.lists(row, max_size=4))
    b_ub = draw(st.lists(rationals, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(row, max_size=2))
    b_eq = draw(st.lists(rationals, min_size=len(a_eq), max_size=len(a_eq)))
    if a_eq and draw(st.booleans()):
        i = draw(st.integers(0, len(a_eq) - 1))
        k = draw(st.sampled_from([F(1), F(-2), F(3, 5)]))
        a_eq.append([k * v for v in a_eq[i]])
        b_eq.append(k * b_eq[i])
    return draw(row), a_ub, b_ub, a_eq, b_eq, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(small_lps())
def test_solve_lp_equals_fraction_simplex(lp):
    c, a_ub, b_ub, a_eq, b_eq, nonneg = lp
    res = solve_lp(c, a_ub, b_ub, a_eq, b_eq, nonneg=nonneg)
    assert fields(res) == fraction_simplex(c, a_ub, b_ub, a_eq, b_eq, nonneg=nonneg)


def test_solve_lp_fixed_cases_equal_fraction_simplex(monkeypatch):
    negative_pivots = []

    def recording_pivot(rows, r, c, den):
        negative_pivots.append(rows[r][c] < 0)
        return linalg.pivot(rows, r, c, den)

    monkeypatch.setattr(linprog, "pivot", recording_pivot)
    cases = {
        "dead row": ([1, 1], [[1, 1]], [4], [[1, -1], [F(2, 3), F(-2, 3)]], [0, 0], True),
        "infeasible": ([F(1, 2)], [[1], [-1]], [1, F(-5, 2)], [], [], True),
        "unbounded": ([F(1, 3), 1], [[1, -1]], [F(-1, 2)], [], [], False),
        "negative rhs": ([-1, F(1, 2)], [[F(-1, 3), 1], [1, 1]], [F(-2, 5), 3], [], [], True),
        # phase 1 ends with the artificial of the equality row basic at
        # zero, and the drive-out pivots on its entry -1
        "negative drive-out": (
            [2, 1, 2], [[2, 1, 2], [-1, 0, 0]], [2, 1], [[-1, 0, -2]], [0], True
        ),
    }
    got = {}
    for name, (c, a_ub, b_ub, a_eq, b_eq, nonneg) in cases.items():
        negative_pivots.clear()
        res = solve_lp(c, a_ub, b_ub, a_eq, b_eq, nonneg=nonneg)
        assert fields(res) == fraction_simplex(c, a_ub, b_ub, a_eq, b_eq, nonneg=nonneg)
        got[name] = (res, any(negative_pivots))
    assert got["dead row"][0].optimal and got["dead row"][0].dual[-1] == 0
    assert got["infeasible"][0].status == "infeasible"
    assert got["unbounded"][0].status == "unbounded"
    assert got["negative rhs"][0].optimal
    assert got["negative drive-out"][0].optimal and got["negative drive-out"][1]


def regularity_lp(cfg, t):
    labels = sorted(cfg.labels)
    nv = len(labels) + 1
    rows = height_separation_rows(cfg, t.cells, {l: i for i, l in enumerate(labels)}, nv)
    return max_margin(rows, nv)


def test_regularity_lps_equal_fraction_simplex():
    cyc = cyclic_configuration(4, [1, 2, 3, 4, 5, 6, 7, 8])
    twisted_cfg = PointConfiguration.from_rows(
        [[4, 0], [0, 4], [0, 0], [2, 1], [1, 2], [1, 1]]
    )
    twisted = Triangulation(
        [{1, 2, 4}, {2, 4, 5}, {2, 3, 5}, {3, 5, 6}, {1, 3, 6}, {1, 4, 6}, {4, 5, 6}]
    )
    for cfg, t, regular in ((cyc, placing_triangulation(cyc), True),
                            (twisted_cfg, twisted, False)):
        c, a_ub, b_ub, res = regularity_lp(cfg, t)
        assert fields(res) == fraction_simplex(c, a_ub, b_ub, nonneg=True)
        assert (res.value > 0) == regular

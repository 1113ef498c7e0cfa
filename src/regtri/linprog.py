"""Exact rational linear programming.

A one-phase tableau simplex with Bland's rule: exact, deterministic,
and able to hand back the dual multipliers the regularity certificates
need.  Every LP the package solves has right-hand sides >= 0, so the
origin is a feasible vertex and the simplex starts there, every slack
basic: no phase 1 and no artificial variables.  The tableau is
fraction-free: each row is cleared of denominators once, and every
entry is then an integer over one common denominator, updated by
`linalg.pivot`, Edmonds' step (1967) with exact divisions.  Bland's
rule reads only signs and ratio comparisons, which that scaling
preserves, so pivots, solutions and duals are those of the rational
simplex.

The tableau is compact, the dictionary form of lrs (Avis, 2000): a row
keeps only the nonbasic columns and the right-hand side, since a basic
column is den times a unit vector.  Each row is one int, its entries
packed by `linalg.Packing`, so an exchange (`_exchange`) is `pivot`'s
three big-integer operations per row and two adds on the pivot row,
which hand column k from the entering variable to the leaving one.
The simplex decodes only what it reads, in one pass per exchange and
with no list of candidates: the signs of the reduced costs, whose
smallest variable enters (Bland's rule, a running minimum), the
entering column, and the right-hand side of each row it may leave on,
one field each (`Packing.entry`), compared with the best ratio so far
(the ratio test).  At the end it decodes the solution and the duals,
which `LPResult` keeps as integers over den until a caller reads them
as Fractions.

The packed fields are as wide as linalg's rule makes them for the rows
of [A b; -c 0], cleared of denominators: every entry of the tableau of
[A I b; -c 0 0] is a minor of that matrix (Sylvester's identity), and a
minor through the slack columns, unit columns, expands along them to a
minor of [A b; -c 0].  So each entry is bounded as in linalg's
docstring, with K = min(rows, variables) + 1.  Column k of the compact
tableau holds entries of that full tableau too: the leaving variable's
column after the step.

Bound rows (Dantzig's bounded-variable method, Econometrica, 1955).  A
row with one nonzero entry, a > 0 in column j, cleared to integers a
and u, is the bound a x_j + s = u on x_j, s its slack.  While s is
basic the row stays out of the packed tableau, since the basis
determines it.  The fraction-free tableau of a basis B is
|det B| B^-1 [A I b], whatever exchanges led to B: each entry is the
minor named above, and den is |det B|.  B's column for s is the unit
vector of s's row, so det B, expanded along it, is the determinant of
the other rows and columns, and neither den nor any other row depends
on the bound row.  Its own row is den times the dictionary row of s,
the bound with the basic variables eliminated.  If x_j is nonbasic that
is a x_j + s = u: den a in x_j's compact column, 0 in the others, den u
on the right.  If x_j is basic on row r, den x_j = rhs_r - T_r . N over
the nonbasic variables N, so s - (a / den) T_r . N = u - a rhs_r / den,
and times den the row is -a T_r with right-hand side den u - a rhs_r.
The ratio test reads those entries in the entering column and breaks
ties by s's index, so it picks the row the full tableau would.  A bound
row that wins is built from the same formula and packed, and pivoted on
like any other; from then on it is an ordinary row.  Its entries are
entries of the full tableau, which is why the width comes from every
row, bound rows too.  So every exchange, den, solution and dual equals
the full tableau's, with fewer rows to step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import Packing, clear_denominators, pivot

Z = Fraction(0)


@dataclass
class LPResult:
    """The solution x = x_num / den and, one multiplier per a_ub row and
    >= 0 at an optimum, the duals dual_num / dual_den, as integers; x
    and dual are their Fractions, built when first read."""

    status: str  # "optimal" | "unbounded"
    value: Fraction | None = None
    den: int | None = None
    x_num: list[int] | None = None
    dual_num: list[int] | None = None
    dual_den: int | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    @cached_property
    def x(self) -> list[Fraction] | None:
        return _fractions(self.x_num, self.den)

    @cached_property
    def dual(self) -> list[Fraction] | None:
        return _fractions(self.dual_num, self.dual_den)


def _fractions(nums, den):
    return None if nums is None else [Fraction(v, den) if v else Z for v in nums]


def _exchange(tab, packing, cols, basis, r, k, col, den) -> int:
    """One exchange on the compact tableau: the nonbasic variable
    cols[k] enters on row r, the basic variable basis[r] leaves and
    takes over compact column k; col holds each row's entry in column
    k.  Returns the new den.

    Before the step, column k holds the sum of the entering variable's
    column (col) and the leaving one's (den times the unit vector at
    r): one add on row r.  `linalg.pivot` is linear in each column, so
    the step takes that sum to the sum of the two new columns: new_den
    times the unit vector at r for the entering variable and, for the
    leaving one, den in row r and -f in every other row, f that row's
    entry in col.  A second add on row r takes the entering variable's
    column back out.  The ratio test pivots only on positive entries,
    so no sign is needed."""
    unit = packing.unit(k)
    tab[r] += den * unit
    new_den = pivot(tab, r, col, den)
    tab[r] -= new_den * unit
    cols[k], basis[r] = basis[r], cols[k]
    return new_den


def _run_simplex(tab, packing, cols, basis, den, bounded):
    """Maximize with Bland's rule: the entering variable is the smallest
    one with a negative reduced cost.  The last row of tab holds the
    reduced costs z_j - c_j of the variables in cols and, in its last
    column, the objective value, all over den; row r of the others is
    basis[r]'s.  bounded maps a variable j to the bound rows on it that
    are still out of tab, each as (slack, a, u); a bound row that wins
    the ratio test is packed and appended to the rows.  Returns the
    status and the final denominator.

    The ratio test is one pass over the entering column.  Bland's rule
    leaves on the argmin of (ratio, leaving variable), and the leaving
    variables are distinct, so comparing each candidate with the best
    so far picks that argmin in any order of visits.  The best starts
    as the ratio 1 / 0, which every candidate beats: its entry is
    positive."""
    rhs = len(cols)
    entry = packing.entry
    while True:
        enter = None
        for k in packing.negative(tab[-1]):
            if k < rhs and (enter is None or cols[k] < cols[enter]):
                enter = k
        if enter is None:
            return "optimal", den
        col = packing.column(tab, enter)
        nrows = len(basis)
        # the leaving variable v, on row r (None for the entering
        # variable's own bound), with its bound (a, u) or None; ratios
        # b / f are compared by cross-multiplication
        v, best_b, best_f = None, 1, 0
        for i in range(nrows):
            f = col[i]
            if f > 0:
                b = entry(tab[i], rhs)
                d = b * best_f - best_b * f
                if d < 0 or not d and basis[i] < v:
                    v, r, bound, best_b, best_f = basis[i], i, None, b, f
            elif f and basis[i] in bounded:
                # a bound row on basis[i] has entry -a f and right-hand
                # side den u - a b
                b = entry(tab[i], rhs)
                for s, a, u in bounded[basis[i]]:
                    d = (den * u - a * b) * best_f + best_b * a * f
                    if d < 0 or not d and s < v:
                        v, r, bound, best_b, best_f = s, i, (a, u), den * u - a * b, -a * f
        # a bound on the entering variable: den u over den a
        for s, a, u in bounded.get(cols[enter], ()):
            d = u * best_f - best_b * a
            if d < 0 or not d and s < v:
                v, r, bound, best_b, best_f = s, None, (a, u), u, a
        if v is None:
            return "unbounded", den
        if bound:
            j = cols[enter] if r is None else basis[r]
            a, u = bound
            bounded[j].remove((v, a, u))
            if not bounded[j]:
                del bounded[j]
            if r is None:
                row, piv = den * a * packing.unit(enter), den * a
            else:
                row, piv = -a * tab[r], -a * col[r]
            tab.insert(nrows, row + den * u * packing.unit(rhs))
            col.insert(nrows, piv)
            basis.append(v)
            r = nrows
        den = _exchange(tab, packing, cols, basis, r, enter, col, den)


def solve_lp(c, a_ub, b_ub) -> LPResult:
    """Maximize c.x subject to a_ub x <= b_ub and x >= 0, where every
    entry of b_ub is >= 0 (ValueError otherwise), so that the origin is
    feasible and the LP is optimal or unbounded.  A row with one
    nonzero entry, positive, is a bound row (see the module docstring).

    Every model is stated over nonnegative variables; a free variable
    is the difference of two of them.
    """
    nvars = len(c)
    # Row i is multiplied by m_i, the lcm of its denominators.  Its
    # slack keeps coefficient 1, so it stands for m_i times the rational
    # slack.
    rows = []
    mults = []
    # Variables: structural | one slack per row, row i's slack nvars + i.
    # The simplex starts at the origin with every slack basic: basis
    # names the slacks of the rows in the tableau, bounded those of the
    # bound rows, j -> [(slack, a, u)] for the bound rows on x_j.
    basis = []
    bounded = {}
    for i, (coeffs, rhs) in enumerate(zip(a_ub, b_ub)):
        if rhs < 0:
            raise ValueError(f"right-hand side {rhs} < 0: the origin is not feasible")
        m, ints = clear_denominators(list(coeffs) + [rhs])
        rows.append(ints)
        mults.append(m)
        if ints[:nvars].count(0) == nvars - 1:
            j = next(j for j, v in enumerate(ints) if v)
            if ints[j] > 0:
                bounded.setdefault(j, []).append((nvars + i, ints[j], ints[nvars]))
                continue
        basis.append(nvars + i)

    # The tableau keeps only the nonbasic columns, cols[k] naming
    # compact column k's variable, then the right-hand side.  The
    # objective, scaled by the lcm q of c's denominators, is the last
    # row.  Each row is one packed int (see the module docstring), the
    # fields as wide as every row, bound rows too, needs.
    cols = list(range(nvars))
    q, cint = clear_denominators(list(c))
    rows.append([-v for v in cint] + [0])
    packing = Packing(rows)
    tab = packing.pack([rows[v - nvars] for v in basis] + rows[-1:])
    status, den = _run_simplex(tab, packing, cols, basis, 1, bounded)
    if status == "unbounded":
        return LPResult("unbounded")

    x_num = [0] * nvars
    for v, rhs in zip(basis, packing.column(tab[:-1], nvars)):
        if v < nvars:
            x_num[v] = rhs
    # The reduced cost of row i's slack is its multiplier in the scaled
    # problem; scaling back by m_i / (q * den) gives the dual.  A basic
    # slack has reduced cost zero.
    objective = packing.row(tab[-1])
    reduced = dict(zip(cols, objective))
    dual_num = [m * reduced.get(nvars + i, 0) for i, m in enumerate(mults)]
    return LPResult("optimal", Fraction(objective[nvars], q * den), den, x_num,
                    dual_num, q * den)


def max_margin(rows, nv: int):
    """The one margin LP (regularity, shared witnesses and
    lp_feasible): maximize the margin, the last of nv nonnegative
    variables, over the homogeneous rows (row . x <= 0), the others at
    most 2 and the margin at most 1.  The origin is feasible and the
    box bounds the LP, so its result is always optimal.  The box rows, right-hand sides and objective are
    ints, so integer rows make an all-integer LP.  Returns the LP
    (c, a_ub, b_ub) and its result."""
    a_ub, b_ub = list(rows), [0] * len(rows)
    for i in range(nv):
        row = [0] * nv
        row[i] = 1
        a_ub.append(row)
        b_ub.append(2 if i < nv - 1 else 1)
    c = [0] * nv
    c[-1] = 1
    return c, a_ub, b_ub, solve_lp(c, a_ub, b_ub)


def lp_feasible(a_ub, b_ub):
    """A point x >= 0 with a_ub x <= b_ub, or None if there is none.
    The right-hand sides may have either sign: the margin LP runs on the
    homogenized rows (a, -b).(x, t) <= 0, and a positive margin t gives
    x / t.  An equality is two opposite rows."""
    rows = [list(a) + [-b] for a, b in zip(a_ub, b_ub)]
    res = max_margin(rows, len(rows[0]))[3]
    if res.value <= 0:
        return None
    t = res.x[-1]
    return [v / t for v in res.x[:-1]]

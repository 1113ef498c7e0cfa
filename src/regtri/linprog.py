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
The simplex decodes only what it reads: the signs of the reduced costs
(Bland's rule), the entering column and the right-hand sides of the
rows it may leave on (the ratio test), and at the end the solution and
the duals.

The packed fields are as wide as linalg's rule makes them for the rows
of [A b; -c 0], cleared of denominators: every entry of the tableau of
[A I b; -c 0 0] is a minor of that matrix (Sylvester's identity), and a
minor through the slack columns, unit columns, expands along them to a
minor of [A b; -c 0].  So each entry is bounded as in linalg's
docstring, with K = min(rows, variables) + 1.  Column k of the compact
tableau holds entries of that full tableau too: the leaving variable's
column after the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Packing, clear_denominators, pivot

Z = Fraction(0)


@dataclass
class LPResult:
    status: str  # "optimal" | "unbounded"
    x: list[Fraction] | None = None
    value: Fraction | None = None
    # One multiplier per a_ub row, >= 0 at an optimum.
    dual: list[Fraction] | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


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


def _run_simplex(tab, packing, cols, basis, nrows, den):
    """Maximize with Bland's rule: the entering variable is the smallest
    one with a negative reduced cost.  The last row of tab holds the
    reduced costs z_j - c_j of the variables in cols and, in its last
    column, minus the objective value, all over den.  Returns the status
    and the final denominator."""
    rhs = len(cols)
    while True:
        negative = [(cols[k], k) for k in packing.negative(tab[-1]) if k < rhs]
        if not negative:
            return "optimal", den
        enter = min(negative)[1]
        col = packing.column(tab, enter)
        rows = [r for r in range(nrows) if col[r] > 0]
        leave = None
        for r, b in zip(rows, packing.column([tab[r] for r in rows], rhs)):
            a = col[r]
            # compare ratios b / a by cross-multiplication
            if leave is None or b * best_a < best_b * a or (
                b * best_a == best_b * a and basis[r] < basis[leave]
            ):
                leave, best_b, best_a = r, b, a
        if leave is None:
            return "unbounded", den
        den = _exchange(tab, packing, cols, basis, leave, enter, col, den)


def solve_lp(c, a_ub, b_ub) -> LPResult:
    """Maximize c.x subject to a_ub x <= b_ub and x >= 0, where every
    entry of b_ub is >= 0 (ValueError otherwise), so that the origin is
    feasible and the LP is optimal or unbounded.

    Every model is stated over nonnegative variables; a free variable
    is the difference of two of them.
    """
    c = [Fraction(v) for v in c]
    nvars = len(c)
    # Row i is multiplied by m_i, the lcm of its denominators.  Its
    # slack keeps coefficient 1, so it stands for m_i times the rational
    # slack.
    tab = []
    mults = []
    for coeffs, rhs in zip(a_ub, b_ub):
        if rhs < 0:
            raise ValueError(f"right-hand side {rhs} < 0: the origin is not feasible")
        m, ints = clear_denominators(list(coeffs) + [rhs])
        tab.append(ints)
        mults.append(m)
    nrows = len(tab)
    if nrows == 0:
        if all(v <= 0 for v in c):
            return LPResult("optimal", x=[Z] * nvars, value=Z, dual=[])
        return LPResult("unbounded")

    # Variables: structural | one slack per row, row i's slack nvars + i.
    # The simplex starts at the origin with every slack basic; the
    # tableau keeps only the nonbasic columns, cols[k] naming compact
    # column k's variable, then the right-hand side.  The objective,
    # scaled by the lcm q of c's denominators, is the last row.  Each
    # row is one packed int (see the module docstring).
    cols = list(range(nvars))
    basis = [nvars + i for i in range(nrows)]
    q, cint = clear_denominators(c)
    tab.append([-v for v in cint] + [0])
    packing = Packing(tab)
    tab = packing.pack(tab)
    status, den = _run_simplex(tab, packing, cols, basis, nrows, 1)
    if status == "unbounded":
        return LPResult("unbounded")

    x = [Z] * nvars
    for r, rhs in enumerate(packing.column(tab[:nrows], nvars)):
        if basis[r] < nvars:
            x[basis[r]] = Fraction(rhs, den)
    value = sum((ci * xi for ci, xi in zip(c, x) if ci), Z)

    # The reduced cost of row i's slack is its multiplier in the scaled
    # problem; scaling back by m_i / (q * den) gives the dual.  A basic
    # slack has reduced cost zero.
    reduced = dict(zip(cols, packing.row(tab[-1])))
    dual = [Fraction(m * reduced[nvars + r], q * den) if reduced.get(nvars + r) else Z
            for r, m in enumerate(mults)]
    return LPResult("optimal", x=x, value=value, dual=dual)


def max_margin(rows, nv: int):
    """The one margin LP (regularity, shared witnesses, strict
    separation): maximize the margin, the last of nv nonnegative
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


def lp_feasible(a_ub, b_ub, a_eq=(), b_eq=()):
    """A point x >= 0 with a_ub x <= b_ub and a_eq x = b_eq, or None if
    there is none.  The right-hand sides may have either sign: the
    margin LP runs on the homogenized rows (a, -b).(x, t) <= 0, an
    equality as two opposite rows, and a positive margin t gives x / t.
    """
    rows = [list(a) + [-b] for a, b in zip(a_ub, b_ub)]
    for a, b in zip(a_eq, b_eq):
        rows += [list(a) + [-b], [-v for v in a] + [b]]
    res = max_margin(rows, len(rows[0]))[3]
    if res.value <= 0:
        return None
    t = res.x[-1]
    return [v / t for v in res.x[:-1]]

"""Exact rational linear programming.

A two-phase tableau simplex with Bland's rule: exact, deterministic,
and able to hand back the dual multipliers the regularity certificates
need.  The tableau is fraction-free: each row is cleared of denominators
once, and every entry is then an integer over one common denominator,
updated by `linalg.pivot`, Edmonds' step (1967) with exact divisions.
Bland's rule reads only signs and ratio comparisons, which that scaling
preserves, so pivots, solutions and duals are those of the rational
simplex.

The tableau is compact, the dictionary form of lrs (Avis, 2000): a row
keeps only the nonbasic columns and the right-hand side, since a basic
column is den times a unit vector.  An exchange (`_exchange`) runs
`pivot` on the compact rows, then rewrites only column k, which passes
from the entering variable to the leaving one, and the two labels; so
a pivot rewrites one entry per nonbasic variable in each row, not one
per variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import clear_denominators, pivot

Z = Fraction(0)


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None = None
    value: Fraction | None = None
    # One multiplier per input row, A_ub rows first, then A_eq rows.
    # Inequality duals are >= 0 at an optimum.
    dual: list[Fraction] | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _exchange(tab, cols, basis, r, k, den) -> int:
    """One exchange on the compact tableau: the nonbasic variable
    cols[k] enters on row r, the basic variable basis[r] leaves and
    takes over compact column k.  Returns the new den.

    `linalg.pivot` makes the fraction-free step on every column, which
    leaves the entering variable's column, the new den times a unit
    vector, in column k.  Column k then becomes the leaving variable's
    dense column after the step: s*den in row r and -s*f in the others,
    s the sign of the pivot and f a row's old entry in column k."""
    col = [row[k] for row in tab]
    s = -1 if col[r] < 0 else 1
    new_den = pivot(tab, r, k, den)
    for i, f in enumerate(col):
        tab[i][k] = s * den if i == r else -s * f
    cols[k], basis[r] = basis[r], cols[k]
    return new_den


def _run_simplex(tab, cols, basis, nrows, limit, den):
    """Maximize with Bland's rule: the entering variable is the smallest
    one below limit with a negative reduced cost.  The last row of tab
    holds the reduced costs z_j - c_j of the variables in cols and, in
    its last slot, minus the objective value, all over den.  Returns the
    status and the final denominator."""
    while True:
        obj = tab[-1]
        negative = [(v, k) for k, v in enumerate(cols) if v < limit and obj[k] < 0]
        if not negative:
            return "optimal", den
        enter = min(negative)[1]
        leave = None
        for r in range(nrows):
            a = tab[r][enter]
            if a > 0:
                # compare ratios rhs / a by cross-multiplication
                rhs = tab[r][-1]
                if leave is None or rhs * best_a < best_rhs * a or (
                    rhs * best_a == best_rhs * a and basis[r] < basis[leave]
                ):
                    leave, best_rhs, best_a = r, rhs, a
        if leave is None:
            return "unbounded", den
        den = _exchange(tab, cols, basis, leave, enter, den)


def solve_lp(c, a_ub, b_ub, a_eq=(), b_eq=()) -> LPResult:
    """Maximize c.x subject to a_ub x <= b_ub, a_eq x = b_eq and x >= 0.

    Every model is stated over nonnegative variables; a free variable
    is the difference of two of them.
    """
    c = [Fraction(v) for v in c]
    nvars = len(c)
    # Row i is multiplied by m_i: the lcm of its denominators, negated
    # when its right-hand side is negative.  Its slack keeps coefficient
    # +-1, so it stands for |m_i| times the rational slack.
    ub_rows = list(zip(a_ub, b_ub))
    tab = []
    mults = []
    for coeffs, rhs in ub_rows + list(zip(a_eq, b_eq)):
        m, ints = clear_denominators(list(coeffs) + [rhs])
        if ints[-1] < 0:
            m, ints = -m, [-v for v in ints]
        tab.append(ints)
        mults.append(m)
    nrows = len(tab)
    if nrows == 0:
        if all(v <= 0 for v in c):
            return LPResult("optimal", x=[Z] * nvars, value=Z, dual=[])
        return LPResult("unbounded")

    # Variables: structural | one slack per <= row (the <= rows come
    # first, so row i's slack is nvars + i) | one artificial per
    # equality row or negated row.  Only the first nreal may enter.
    # Each row starts with its artificial basic if it has one, else its
    # slack; the slack of a negated row, coefficient -1, starts
    # nonbasic.  The tableau keeps only the nonbasic columns, cols[k]
    # naming compact column k's variable, then the right-hand side.
    n_ub = len(ub_rows)
    nreal = nvars + n_ub
    art_rows = [i for i, m in enumerate(mults) if i >= n_ub or m < 0]
    art_var = {i: nreal + j for j, i in enumerate(art_rows)}
    flipped = [i for i in art_rows if i < n_ub]
    cols = list(range(nvars)) + [nvars + i for i in flipped]
    for i, ints in enumerate(tab):
        tab[i] = ints[:-1] + [-1 if i == j else 0 for j in flipped] + ints[-1:]
    basis = [art_var.get(i, nvars + i) for i in range(nrows)]
    marker = basis[:]  # the variable identifying each row, for dual recovery

    # The phase-2 objective, scaled by the lcm q of c's denominators,
    # rides along as the last row from the start.
    q, cint = clear_denominators(c)
    tab.append([-v for v in cint] + [0] * (len(flipped) + 1))
    den = 1
    live = [True] * nrows  # rows surviving redundancy elimination

    # Phase 1: drive artificials to zero, maximizing minus their sum.
    # Artificial i stands for |m_i| times the rational one, so its cost
    # is weighted by w / |m_i| (w the lcm of those |m_i|), which keeps
    # every reduced cost a positive multiple of the rational one.  The
    # artificials are basic, so their reduced costs start at zero and
    # the row is minus the weighted sum of their rows.
    if art_rows:
        w = lcm(*(abs(mults[i]) for i in art_rows))
        phase1 = [0] * (len(cols) + 1)
        for i in art_rows:
            f = w // abs(mults[i])
            phase1 = [x - f * y for x, y in zip(phase1, tab[i])]
        tab.append(phase1)
        _, den = _run_simplex(tab, cols, basis, nrows, nreal, den)
        # phase-1 value is -(sum of artificials); anything below zero
        # means no feasible point exists
        if tab.pop()[-1] < 0:
            return LPResult("infeasible")
        # Drive leftover basic artificials out on the smallest real
        # variable with a nonzero entry; zero rows are redundant.
        for r in art_rows:
            if basis[r] >= nreal:
                nonzero = [(v, k) for k, v in enumerate(cols) if v < nreal and tab[r][k]]
                if nonzero:
                    den = _exchange(tab, cols, basis, r, min(nonzero)[1], den)
                else:
                    live[r] = False
                    tab[r] = [0] * len(tab[r])

    status, den = _run_simplex(tab, cols, basis, nrows, nreal, den)
    if status == "unbounded":
        return LPResult("unbounded")

    x = [Z] * nvars
    for r in range(nrows):
        if live[r] and basis[r] < nvars:
            x[basis[r]] = Fraction(tab[r][-1], den)
    value = sum((ci * xi for ci, xi in zip(c, x) if ci), Z)

    # The reduced cost of row i's marker is its multiplier in the
    # scaled problem; scaling back by m_i / (q * den) gives the dual.  A
    # basic marker has reduced cost zero.
    reduced = dict(zip(cols, tab[-1]))
    dual = [Fraction(mults[r] * reduced[marker[r]], q * den)
            if live[r] and reduced.get(marker[r]) else Z for r in range(nrows)]
    return LPResult("optimal", x=x, value=value, dual=dual)


def lp_feasible(a_ub, b_ub, a_eq=(), b_eq=()):
    """Feasibility check over nonnegative variables; returns a feasible
    point or None."""
    nvars = len((a_ub if len(a_ub) else a_eq)[0])
    res = solve_lp([Z] * nvars, a_ub, b_ub, a_eq, b_eq)
    return res.x if res.optimal else None


def max_margin(rows, nv: int):
    """The one margin LP (regularity, shared witnesses, strict
    separation): maximize the margin, the last of nv nonnegative
    variables, over the homogeneous rows (row . x <= 0), the others at
    most 2 and the margin at most 1; the box keeps the LP bounded when
    no rows exist.  The box rows, right-hand sides and objective are
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

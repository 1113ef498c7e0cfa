"""Exact rational linear programming.

A dense two-phase tableau simplex with Bland's rule: exact, deterministic,
and able to hand back the dual multipliers the regularity certificates
need.  The tableau is fraction-free: each row is cleared of denominators
once, and every entry is then an integer over one common denominator,
updated by `linalg.pivot` with exact divisions.  Bland's rule reads only
signs and ratio comparisons, which that scaling preserves, so pivots,
solutions and duals are those of the rational simplex.
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


def _run_simplex(tab, basis, nrows, ncols, den):
    """Maximize with Bland's rule over the first ncols columns.  The
    last row of tab holds the reduced costs z_j - c_j and, in its last
    slot, minus the objective value, all over den.  Returns the status
    and the final denominator."""
    while True:
        obj = tab[-1]
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return "optimal", den
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
        den = pivot(tab, leave, enter, den)
        basis[leave] = enter


def solve_lp(c, a_ub, b_ub, a_eq=(), b_eq=(), nonneg=False) -> LPResult:
    """Maximize c.x subject to a_ub x <= b_ub and a_eq x = b_eq.

    Variables are free by default; pass nonneg=True when the model is
    already stated over nonnegative variables (saves the u-v split).
    """
    c = [Fraction(v) for v in c]
    nfree = len(c)
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
        if all(v == 0 for v in c) or (nonneg and all(v <= 0 for v in c)):
            return LPResult("optimal", x=[Z] * nfree, value=Z, dual=[])
        return LPResult("unbounded")

    nvars = nfree if nonneg else 2 * nfree
    expand = (lambda v: v) if nonneg else (lambda v: v + [-x for x in v])
    # Columns: structural | one slack per <= row (the <= rows come
    # first, so row i's slack is column nvars + i) | one artificial per
    # equality row or negated row.  Only the first nreal may enter.
    n_ub = len(ub_rows)
    nreal = nvars + n_ub
    art_rows = [i for i, m in enumerate(mults) if i >= n_ub or m < 0]
    art_col = {i: nreal + k for k, i in enumerate(art_rows)}
    ncols = nreal + len(art_rows)
    for i, ints in enumerate(tab):
        row = expand(ints[:-1]) + [0] * (ncols - nvars) + [ints[-1]]
        if i < n_ub:
            row[nvars + i] = 1 if mults[i] > 0 else -1
        if i in art_col:
            row[art_col[i]] = 1
        tab[i] = row
    basis = [art_col.get(i, nvars + i) for i in range(nrows)]
    marker = basis[:]  # unit column identifying each row, for dual recovery

    # The phase-2 objective, scaled by the lcm k of c's denominators,
    # rides along as the last row from the start.
    k, cint = clear_denominators(c)
    tab.append([-v for v in expand(cint)] + [0] * (ncols - nvars + 1))
    den = 1
    live = [True] * nrows  # rows surviving redundancy elimination

    # Phase 1: drive artificials to zero, maximizing minus their sum.
    # Artificial i stands for |m_i| times the rational one, so its cost
    # is weighted by w / |m_i| (w the lcm of those |m_i|), which keeps
    # every reduced cost a positive multiple of the rational one.
    if art_rows:
        w = lcm(*(abs(mults[i]) for i in art_rows))
        phase1 = [0] * (ncols + 1)
        for i in art_rows:
            f = w // abs(mults[i])
            phase1 = [x - f * y for x, y in zip(phase1, tab[i])]
        phase1[nreal:ncols] = [0] * len(art_rows)
        tab.append(phase1)
        _, den = _run_simplex(tab, basis, nrows, nreal, den)
        # phase-1 value is -(sum of artificials); anything below zero
        # means no feasible point exists
        if tab.pop()[-1] < 0:
            return LPResult("infeasible")
        # Drive leftover basic artificials out; zero rows are redundant.
        for r in art_rows:
            if basis[r] >= nreal:
                col = next((j for j in range(nreal) if tab[r][j]), None)
                if col is not None:
                    den = pivot(tab, r, col, den)
                    basis[r] = col
                else:
                    live[r] = False
                    tab[r] = [0] * (ncols + 1)

    status, den = _run_simplex(tab, basis, nrows, nreal, den)
    if status == "unbounded":
        return LPResult("unbounded")

    xfull = [Z] * nvars
    for r in range(nrows):
        if live[r] and basis[r] < nvars:
            xfull[basis[r]] = Fraction(tab[r][-1], den)
    x = xfull if nonneg else [xfull[i] - xfull[nfree + i] for i in range(nfree)]
    value = sum(ci * xi for ci, xi in zip(c, x)) if c else Z

    # The reduced cost of row i's unit column is its multiplier in the
    # scaled problem; scaling back by m_i / (k * den) gives the dual.
    obj = tab[-1]
    dual = [Fraction(mults[r] * obj[marker[r]], k * den) if live[r] else Z
            for r in range(nrows)]
    return LPResult("optimal", x=x, value=value, dual=dual)


def lp_feasible(a_ub, b_ub, a_eq=(), b_eq=(), nvars=None, nonneg=False):
    """Feasibility check; returns a feasible point or None."""
    if nvars is None:
        src = a_ub if len(a_ub) else a_eq
        nvars = len(src[0])
    res = solve_lp([Z] * nvars, a_ub, b_ub, a_eq, b_eq, nonneg=nonneg)
    return res.x if res.optimal else None


def max_margin(rows, nv: int):
    """The one margin LP (regularity, shared witnesses, strict
    separation): maximize the margin, the last of nv nonnegative
    variables, over the homogeneous rows (row . x <= 0), the others at
    most 2 and the margin at most 1; the box keeps the LP bounded when
    no rows exist.  Returns the LP (c, a_ub, b_ub) and its result."""
    a_ub, b_ub = list(rows), [Fraction(0)] * len(rows)
    for i in range(nv):
        row = [Fraction(0)] * nv
        row[i] = Fraction(1)
        a_ub.append(row)
        b_ub.append(Fraction(2) if i < nv - 1 else Fraction(1))
    c = [Fraction(0)] * nv
    c[-1] = Fraction(1)
    return c, a_ub, b_ub, solve_lp(c, a_ub, b_ub, nonneg=True)

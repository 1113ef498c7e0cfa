"""Small exact linear algebra helpers over the rationals.

Elimination runs on integers, each row cleared of denominators once
(`clear_denominators`).  `det`, `det_sign`, `solve_integral`, `rank`
and `kernel_integral` share one Gauss-Jordan reduction, `_rref`, built
on `pivot`, the fraction-free step; `solve` and `kernel_vector` are the
`Fraction` views of `solve_integral` and `kernel_integral`.  Fractions
appear only in results.  `pivot` is also the step of the simplex
(`linprog._exchange`), so it is the one place that writes Edmonds'
update.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod


def clear_denominators(row):
    """(m, integer row) where m is the least positive multiplier that
    makes the rational row integral.  A row of ints comes back as it
    is: the general path would give the same (1, row), and skipping its
    per-entry work keeps the integer rows of the regularity LP cheap."""
    if all(map(int.__instancecheck__, row)):
        return 1, row
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    m = lcm(*(x.denominator for x in row))
    return m, [x.numerator * (m // x.denominator) for x in row]


def pivot(rows, r, c, den) -> int:
    """One fraction-free Gauss-Jordan step (Edmonds 1967) on integer
    rows standing for rows / den: pivot on rows[r][c], return the new den.

    The pivot row is kept; every other row becomes (p*x - f*y) // den, p
    the pivot, f the row's entry in column c, y the pivot row, exact by
    Sylvester's identity.  A negative pivot row is negated first, so the
    denominator stays positive."""
    prow = rows[r]
    p = prow[c]
    if p < 0:
        p = -p
        prow = rows[r] = [-y for y in prow]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(p * x - f * y) // den for x, y in zip(row, prow)]
        elif p != den:
            rows[i] = [p * x // den for x in row]
    return p


def _rref(rows):
    """Gauss-Jordan reduction: integer rows that, over the returned
    positive denominator, are the reduced row echelon form, the pivot
    column of each nonzero row, in order, and the sign, -1 or 1, of the
    row swaps and pivot-row negations made."""
    m = [clear_denominators(row)[1] for row in rows]
    den = 1
    pivots = []
    sign = 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        if m[r][col] < 0:
            sign = -sign
        den = pivot(m, r, col, den)
        pivots.append(col)
    return m, den, pivots, sign


def det(rows) -> Fraction:
    """Determinant of a square rational matrix.  On a matrix of full
    rank the final denominator of `_rref` is, up to its sign, the
    determinant of the cleared rows (Edmonds 1967)."""
    _, den, pivots, sign = _rref(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    return Fraction(sign * den, prod(clear_denominators(row)[0] for row in rows))


def det_sign(rows) -> int:
    _, _, pivots, sign = _rref(rows)
    return sign if len(pivots) == len(rows) else 0


def solve_integral(a, b):
    """Solve the square system a x = b, b a matrix (a list of rows), in
    one reduction: (den, integer rows) with x = rows / den and den > 0,
    or None if a is singular.  The fractions are not reduced, so signs
    and sums of a row of x read off its integers."""
    n = len(a)
    m, den, pivots, _ = _rref([list(row) + list(rhs) for row, rhs in zip(a, b)])
    if pivots != list(range(n)):
        return None
    return den, [row[n:] for row in m]


def solve(a, b):
    """Solve the square system a x = b exactly; None if singular.

    As in numpy, b may instead be a matrix (a list of rows): all its
    columns are then solved in one reduction, and x is a matrix with
    one column per column of b."""
    matrix = len(a) > 0 and isinstance(b[0], (list, tuple))
    sol = solve_integral(a, b if matrix else [[r] for r in b])
    if sol is None:
        return None
    den, rows = sol
    x = [[Fraction(v, den) for v in row] for row in rows]
    return x if matrix else [row[0] for row in x]


def rank(rows) -> int:
    return len(_rref(rows)[2])


def kernel_integral(columns):
    """One nonzero kernel vector of the matrix with the given columns,
    in one reduction: (den, integer numerators) over den > 0, or None if
    the kernel is trivial or has dimension > 1.  The numerator at the
    one free column is den and every later entry is 0, so the last
    nonzero entry is positive."""
    ncols = len(columns)
    nrows = len(columns[0]) if columns else 0
    m, den, pivots, _ = _rref(
        [[columns[j][i] for j in range(ncols)] for i in range(nrows)]
    )
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    f = free[0]
    vec = [0] * ncols
    vec[f] = den
    for row_idx, col in enumerate(pivots):
        vec[col] = -m[row_idx][f]
    return den, vec


def kernel_vector(columns):
    """One nonzero kernel vector of the matrix with the given columns,
    or None if the kernel is trivial or has dimension > 1."""
    sol = kernel_integral(columns)
    if sol is None:
        return None
    den, vec = sol
    return [Fraction(v, den) for v in vec]

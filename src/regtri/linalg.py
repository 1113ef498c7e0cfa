"""Small exact linear algebra helpers over the rationals.

Elimination runs on integers, each row cleared of denominators once
(`clear_denominators`).  Determinants use Bareiss elimination
(`_int_det`); `solve`, `rank` and `kernel_vector` share one Gauss-Jordan
reduction, `_rref`, built on `pivot`, the fraction-free step that also
drives the exact simplex in `linprog`.  Fractions appear only in results.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod


def _int_det(m: list[list[int]]) -> int:
    # Bareiss fraction-free elimination; exact for integer matrices.
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pv = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pv - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pv
    return sign * m[n - 1][n - 1]


def clear_denominators(row):
    """(m, integer row) where m is the least positive multiplier that
    makes the rational row integral."""
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


def det(rows) -> Fraction:
    cleared = [clear_denominators(row) for row in rows]
    num = _int_det([ints for _, ints in cleared])
    return Fraction(num, prod(m for m, _ in cleared))


def det_sign(rows) -> int:
    d = _int_det([clear_denominators(row)[1] for row in rows])
    return (d > 0) - (d < 0)


def _rref(rows):
    """Gauss-Jordan reduction: integer rows that, over the returned
    positive denominator, are the reduced row echelon form, and the
    pivot column of each nonzero row, in order."""
    m = [clear_denominators(row)[1] for row in rows]
    den = 1
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        den = pivot(m, r, col, den)
        pivots.append(col)
    return m, den, pivots


def solve(a, b):
    """Solve the square system a x = b exactly; None if singular.

    As in numpy, b may instead be a matrix (a list of rows): all its
    columns are then solved in one reduction, and x is a matrix with
    one column per column of b."""
    n = len(a)
    matrix = n > 0 and isinstance(b[0], (list, tuple))
    rhs = [list(r) if matrix else [r] for r in b]
    m, den, pivots = _rref([list(row) + rhs[i] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    x = [[Fraction(v, den) for v in m[i][n:]] for i in range(n)]
    return x if matrix else [row[0] for row in x]


def rank(rows) -> int:
    return len(_rref(rows)[2])


def kernel_vector(columns):
    """One nonzero kernel vector of the matrix with the given columns,
    or None if the kernel is trivial or has dimension > 1."""
    ncols = len(columns)
    nrows = len(columns[0]) if columns else 0
    m, den, pivots = _rref(
        [[columns[j][i] for j in range(ncols)] for i in range(nrows)]
    )
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    f = free[0]
    vec = [Fraction(0)] * ncols
    vec[f] = Fraction(1)
    for row_idx, col in enumerate(pivots):
        vec[col] = Fraction(-m[row_idx][f], den)
    return vec

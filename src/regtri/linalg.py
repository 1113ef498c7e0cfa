"""Small exact linear algebra helpers over the rationals.

There are two elimination kernels.  Determinants go through integer
Bareiss elimination after clearing denominators, which is considerably
faster than fraction-by-fraction Gaussian elimination for the
homogenized point matrices we feed it.  `solve`, `rank` and
`kernel_vector` share one Gauss-Jordan reduction, `_rref`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


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
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _scaled_rows(rows):
    scaled = []
    denom = 1
    for row in rows:
        mult = lcm(*(Fraction(x).denominator for x in row)) if row else 1
        scaled.append([int(Fraction(x) * mult) for x in row])
        denom *= mult
    return scaled, denom


def det(rows) -> Fraction:
    scaled, denom = _scaled_rows([list(r) for r in rows])
    return Fraction(_int_det(scaled), denom)


def det_sign(rows) -> int:
    scaled, _ = _scaled_rows([list(r) for r in rows])
    d = _int_det(scaled)
    return (d > 0) - (d < 0)


def _rref(rows):
    """Gauss-Jordan reduction over the rationals: the reduced rows and
    the pivot column of each nonzero row, in order."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][col]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def solve(a, b):
    """Solve the square system a x = b exactly; None if singular."""
    n = len(a)
    m, pivots = _rref([list(row) + [b[i]] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    return [m[i][n] for i in range(n)]


def rank(rows) -> int:
    return len(_rref(rows)[1])


def kernel_vector(columns):
    """One nonzero kernel vector of the matrix with the given columns,
    or None if the kernel is trivial or has dimension > 1."""
    ncols = len(columns)
    nrows = len(columns[0]) if columns else 0
    m, pivots = _rref([[columns[j][i] for j in range(ncols)] for i in range(nrows)])
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    f = free[0]
    vec = [Fraction(0)] * ncols
    vec[f] = Fraction(1)
    for row_idx, col in enumerate(pivots):
        vec[col] = -m[row_idx][f]
    return vec

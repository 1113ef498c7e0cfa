"""Small exact linear algebra helpers over the rationals.

Elimination runs on integers, each row cleared of denominators once
(`clear_denominators`).  `det`, `det_sign`, `solve`, `pivot_columns`
(and `rank`, their number) and `kernel_integral` share one
Gauss-Jordan reduction, `_rref`, built on `pivot`, the fraction-free
step; `kernel_vector` is the `Fraction` view of `kernel_integral`.
Fractions appear only in results.  `pivot` is also the step of the
simplex (`linprog._exchange`), so it is the one place that writes
Edmonds' update.

Both eliminations keep each integer row (v_0, ..., v_{n-1}) packed into
one int, X = sum_j v_j 2^(jB), in signed fields of B bits (Kronecker
substitution; Harvey, J. Symbolic Comput., 2009).  Edmonds' step is
linear in the rows, so on packed rows it is three big-integer
operations per row, (p X - f Y) // den: every field of p X - f Y is
den times the field of the step's result, so the int is den times the
packed result and the floor division is exact.  Products and sums are
never decoded; a `Packing` decodes only the entries a caller reads.

Decoding.  Let H = sum_j 2^(B-1) 2^(jB).  While every field v lies in
[-2^(B-1), 2^(B-1)), field j of X + H holds v_j + 2^(B-1), in [0, 2^B),
with no carry between fields: so v_j = ((X + H) >> jB) & (2^B - 1) -
2^(B-1), and v_j < 0 exactly when the top bit of that field is clear.
One entry can be read without H: the fields below j sum to less than
2^(jB) / 2 in absolute value (each is at most 2^(B-2), see the width),
so X / 2^(jB) rounded to the nearest integer is sum_{i>=j} v_i
2^((i-j)B), whose low B bits are v_j in two's complement.  That shift
comes first, so reading the last field, a right-hand side, touches one
field's bits after it.

The width.  After any number of steps, every entry of Edmonds' tableau
is, up to sign, a minor of the starting rows (Sylvester's identity;
Bareiss, Math. Comp., 1968): a bordered minor of the pivot block in a
row not yet pivoted on, the pivot block with one column replaced in a
pivot row, and 0 or den in a pivot column.  A minor has at most
K = min(rows, columns) rows, and by Hadamard's inequality its absolute
value is at most the product, over its rows, of the Euclidean norm of
the row restricted to its columns, which is at most sqrt(K) max_j |v_j|.
So with b = ceil(log2 max_j |v_j|) for each row, every entry is at most
2^S in absolute value, where

    S = (sum of the K largest b) + ceil(K log2(K) / 2),

and B = S + 2 gives |v| <= 2^S < 2^(B-1).  The bound is met: a
Sylvester matrix of +-1 entries and order n has determinant
n^(n/2) = 2^S, and so has [[2^S]], which one bit fewer would read as
-2^S.
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


class Packing:
    """The layout of the packed rows of one elimination on the given
    integer rows, all of one length n: width is the B of the module
    docstring, from the rows' largest entries.  pack makes the rows'
    ints; column, row, entry and negative read them, and unit(j) is
    the packed row that is 1 in column j and 0 elsewhere."""

    __slots__ = ("width", "_ncols", "_mask", "_half", "_bias")

    def __init__(self, rows):
        self._ncols = n = len(rows[0]) if rows else 0
        k = min(len(rows), n)
        # b = ceil(log2 max |v|) per row (1 for a zero row, which no
        # nonzero minor uses); ceil(log2(K^K) / 2) covers the sqrt(K)s
        bits = [(max(map(abs, row)) - 1).bit_length() for row in rows] if k else []
        if k < len(bits):
            bits = sorted(bits)[-k:]
        self.width = b = sum(bits) + ((k ** k - 1).bit_length() + 1) // 2 + 2
        self._mask = mask = (1 << b) - 1
        self._half = half = 1 << (b - 1)
        # H: (2^(nB) - 1) / (2^B - 1) has a 1 in every field
        self._bias = half * (((1 << (n * b)) - 1) // mask)

    def pack(self, rows) -> list:
        b = self.width
        out = []
        for row in rows:
            x = 0
            for v in reversed(row):
                x = (x << b) + v
            out.append(x)
        return out

    def column(self, xs, j) -> list:
        """Column j of the packed rows xs."""
        bias, mask, half = self._bias, self._mask, self._half
        s = j * self.width
        return [((x + bias) >> s & mask) - half for x in xs]

    def row(self, x) -> list:
        """Every entry of the packed row x."""
        b, mask, half = self.width, self._mask, self._half
        x += self._bias
        return [(x >> (j * b) & mask) - half for j in range(self._ncols)]

    def entry(self, x, j) -> int:
        """Entry j of the packed row x, by rounding (module docstring):
        x >> (jB - 1) is x / 2^(jB) with one fraction bit, and adding 1
        before dropping it rounds to nearest."""
        if j:
            x = (x >> (j * self.width - 1)) + 1 >> 1
        return (x + self._half & self._mask) - self._half

    def negative(self, x) -> list:
        """The columns where the packed row x is negative: the fields
        whose top bit in x + H is clear, which ~(x + H) & H keeps; then
        one step per negative column."""
        z = ~(x + self._bias) & self._bias
        b = self.width
        out = []
        while z:
            low = z & -z  # 2^(jB + B - 1) for the lowest such column j
            out.append(low.bit_length() // b - 1)
            z ^= low
        return out

    def unit(self, j) -> int:
        return 1 << (j * self.width)


def pivot(rows, r, col, den) -> int:
    """One fraction-free Gauss-Jordan step (Edmonds 1967) on packed
    integer rows standing for rows / den: pivot on row r, where col
    holds each row's entry in the pivot column; return the new den.

    The pivot row is kept; every other row becomes (p*X - f*Y) // den, p
    the pivot, f the row's entry in col, Y the pivot row, exact by
    Sylvester's identity, field by field and so on the packed ints.  A
    negative pivot row is negated first, so the denominator stays
    positive."""
    p = col[r]
    prow = rows[r]
    if p < 0:
        p = -p
        prow = rows[r] = -prow
    for i, f in enumerate(col):
        if i == r:
            continue
        if f:
            rows[i] = (p * rows[i] - f * prow) // den
        elif p != den:
            rows[i] = p * rows[i] // den
    return p


def _rref(rows):
    """Gauss-Jordan reduction: packed integer rows that, over the
    returned positive denominator, are the reduced row echelon form,
    their Packing, the pivot column of each nonzero row, in order, and
    the sign, -1 or 1, of the row swaps and pivot-row negations made."""
    m = [clear_denominators(row)[1] for row in rows]
    ncols = len(m[0]) if m else 0
    packing = Packing(m)
    m = packing.pack(m)
    den = 1
    pivots = []
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        col = packing.column(m, c)
        piv = next((i for i in range(r, len(m)) if col[i]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            col[r], col[piv] = col[piv], col[r]
            sign = -sign
        if col[r] < 0:
            sign = -sign
        den = pivot(m, r, col, den)
        pivots.append(c)
    return m, packing, den, pivots, sign


def det(rows) -> Fraction:
    """Determinant of a square rational matrix.  On a matrix of full
    rank the final denominator of `_rref` is, up to its sign, the
    determinant of the cleared rows (Edmonds 1967)."""
    _, _, den, pivots, sign = _rref(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    return Fraction(sign * den, prod(clear_denominators(row)[0] for row in rows))


def det_sign(rows) -> int:
    _, _, _, pivots, sign = _rref(rows)
    return sign if len(pivots) == len(rows) else 0


def solve(a, b):
    """Solve the square system a x = b, b a vector, exactly; None if a
    is singular."""
    n = len(a)
    m, packing, den, pivots, _ = _rref([list(row) + [rhs] for row, rhs in zip(a, b)])
    if pivots != list(range(n)):
        return None
    return [Fraction(v, den) for v in packing.column(m, n)]


def pivot_columns(rows) -> list:
    """The pivot columns of the rows' reduced echelon form, in order:
    the first columns that are independent of those before them."""
    return _rref(rows)[3]


def rank(rows) -> int:
    return len(pivot_columns(rows))


def kernel_integral(columns):
    """One nonzero kernel vector of the matrix with the given columns,
    in one reduction: (den, integer numerators) over den > 0, or None if
    the kernel is trivial or has dimension > 1.  The numerator at the
    one free column is den and every later entry is 0, so the last
    nonzero entry is positive."""
    ncols = len(columns)
    nrows = len(columns[0]) if columns else 0
    m, packing, den, pivots, _ = _rref(
        [[columns[j][i] for j in range(ncols)] for i in range(nrows)]
    )
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    f = free[0]
    vec = [0] * ncols
    vec[f] = den
    for col, v in zip(pivots, packing.column(m[:len(pivots)], f)):
        vec[col] = -v
    return den, vec


def kernel_vector(columns):
    """One nonzero kernel vector of the matrix with the given columns,
    or None if the kernel is trivial or has dimension > 1."""
    sol = kernel_integral(columns)
    if sol is None:
        return None
    den, vec = sol
    return [Fraction(v, den) for v in vec]

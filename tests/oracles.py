"""Independent reference computations used to check the library.

Everything here is deliberately written from textbook definitions,
without importing the package under test, so agreement is meaningful.
"""

from fractions import Fraction
from itertools import combinations
from math import comb


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def gale_evenness_facets(d: int, n: int):
    """Facet label sets of the cyclic d-polytope on n ordered vertices
    1..n, by Gale's evenness condition: any two labels outside the set
    are separated by an even number of labels inside it."""
    out = set()
    for subset in combinations(range(1, n + 1), d):
        s = set(subset)
        outside = [i for i in range(1, n + 1) if i not in s]
        ok = True
        for a, b in combinations(outside, 2):
            if sum(1 for x in s if a < x < b) % 2:
                ok = False
                break
        if ok:
            out.add(frozenset(subset))
    return out


def polygon_triangulations(labels):
    """All triangulations of a convex polygon whose vertices carry the
    given labels in cyclic order, as frozensets of label triples."""
    labels = list(labels)
    if len(labels) < 3:
        return [frozenset()]
    out = []
    first, last = labels[0], labels[-1]
    for k in range(1, len(labels) - 1):
        for left in polygon_triangulations(labels[: k + 1]):
            for right in polygon_triangulations(labels[k:]):
                out.append(left | right | {frozenset({first, labels[k], last})})
    return out


def naive_det(m):
    """Cofactor-expansion determinant over Fractions."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * naive_det(minor)
    return total


def brute_force_facets(points):
    """Facet label sets of conv(points) by checking every hyperplane
    spanned by d of the points; labels are 1-based indices."""
    points = [tuple(Fraction(x) for x in p) for p in points]
    d = len(points[0])
    labels = list(range(1, len(points) + 1))
    facets = set()
    for subset in combinations(labels, d):
        rows = [list(points[i - 1]) + [1] for i in subset]

        def val(p):
            return naive_det([list(p) + [1]] + rows)

        vals = [(l, val(points[l - 1])) for l in labels]
        if all(v >= 0 for _, v in vals) or all(v <= 0 for _, v in vals):
            if any(v != 0 for _, v in vals):
                facets.add(frozenset(l for l, v in vals if v == 0))
    return facets


def lower_hull_cells(points, heights):
    """Cells of the regular subdivision by direct lower-hull check:
    a d-subset spans a lower facet iff the lifted hyperplane through it
    is below or through every other lifted point, with merging of
    cospanning subsets.  Labels are 1-based indices."""
    points = [tuple(Fraction(x) for x in p) for p in points]
    heights = [Fraction(h) for h in heights]
    lifted = [p + (h,) for p, h in zip(points, heights)]
    d1 = len(lifted[0])
    labels = list(range(1, len(points) + 1))
    cells = set()
    for subset in combinations(labels, d1):
        rows = [list(lifted[i - 1]) + [1] for i in subset]

        def val(p):
            return naive_det([list(p) + [1]] + rows)

        # normal's last-coordinate sign via the height unit direction
        base = val(lifted[subset[0] - 1][:-1] + (lifted[subset[0] - 1][-1],))
        e = list(lifted[subset[0] - 1])
        e[-1] += 1
        up = val(tuple(e))
        if up == 0:
            continue  # vertical hyperplane
        vals = [(l, val(lifted[l - 1])) for l in labels]
        sgn = 1 if up > 0 else -1
        # lower facet: every lifted point weakly above the hyperplane
        if all(sgn * v >= 0 for _, v in vals) and any(v != 0 for _, v in vals):
            cells.add(frozenset(l for l, v in vals if v == 0))
    # drop non-maximal label sets produced by sub-spanning subsets
    return {c for c in cells if not any(c < other for other in cells)}


def fraction_rref(rows):
    """Gauss-Jordan reduction over Fractions, pivoting on the first
    nonzero entry of each column: (reduced rows, pivot columns)."""
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


def flip_neighbors_reference(cells, points):
    """Cell sets of the triangulations one bistellar flip away from the
    given one, in the order the library lists them: for each (d+2)-subset
    of the labels the cells use, in combinations order, the Radon
    partition is read off a kernel vector of the homogenized points
    (subsets with a zero coefficient are skipped), and whichever side of
    the circuit lies among the cells is traded for the other.  points
    maps each label to its coordinates."""
    cells = frozenset(frozenset(c) for c in cells)
    labels = sorted({l for c in cells for l in c})
    d = len(points[labels[0]])
    out = []
    for subset in combinations(labels, d + 2):
        cols = [list(points[l]) + [1] for l in subset]
        m, pivots = fraction_rref([list(row) for row in zip(*cols)])
        free = [c for c in range(d + 2) if c not in pivots]
        if len(free) != 1:
            continue
        lam = [Fraction(0)] * (d + 2)
        lam[free[0]] = Fraction(1)
        for r, c in enumerate(pivots):
            lam[c] = -m[r][free[0]]
        if any(v == 0 for v in lam):
            continue
        s = frozenset(subset)
        pos = [l for l, v in zip(subset, lam) if v > 0]
        neg = [l for l, v in zip(subset, lam) if v < 0]
        side_pos = frozenset(s - {l} for l in neg)
        side_neg = frozenset(s - {l} for l in pos)
        if side_pos <= cells:
            out.append((cells - side_pos) | side_neg)
        elif side_neg <= cells:
            out.append((cells - side_neg) | side_pos)
    return out


def _fraction_pivot(tab, obj, basis, row, col):
    pv = tab[row][col]
    tab[row] = [x / pv for x in tab[row]]
    prow = tab[row]
    for r, trow in enumerate(tab):
        if r != row and trow[col] != 0:
            f = trow[col]
            tab[r] = [x - f * y for x, y in zip(trow, prow)]
    if obj[col] != 0:
        f = obj[col]
        for j, y in enumerate(prow):
            if y != 0:
                obj[j] -= f * y
    basis[row] = col


def _fraction_run_simplex(tab, obj, basis, allowed):
    ncols = len(tab[0]) - 1
    while True:
        enter = next((j for j in range(ncols) if allowed[j] and obj[j] < 0), None)
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for r, trow in enumerate(tab):
            a = trow[enter]
            if a > 0:
                ratio = trow[-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave is None:
            return "unbounded"
        _fraction_pivot(tab, obj, basis, leave, enter)


def fraction_simplex(c, a_ub, b_ub, a_eq=(), b_eq=(), nonneg=False):
    """Maximize c.x subject to a_ub x <= b_ub and a_eq x = b_eq with a
    dense two-phase Fraction tableau and Bland's rule: one artificial
    column per row, rows with a negative right-hand side negated.
    Returns (status, x, value, dual) with x, value and dual None unless
    optimal; dual has one multiplier per row, ub rows first."""
    c = [Fraction(v) for v in c]
    nfree = len(c)
    rows = [([Fraction(v) for v in a], Fraction(b), "ub") for a, b in zip(a_ub, b_ub)]
    rows += [([Fraction(v) for v in a], Fraction(b), "eq") for a, b in zip(a_eq, b_eq)]
    nrows = len(rows)
    zero = Fraction(0)
    if nrows == 0:
        if all(v == 0 for v in c) or (nonneg and all(v <= 0 for v in c)):
            return "optimal", [zero] * nfree, zero, []
        return "unbounded", None, None, None
    nvars = nfree if nonneg else 2 * nfree

    def expand(coeffs):
        return list(coeffs) if nonneg else list(coeffs) + [-v for v in coeffs]

    cvec = expand(c)
    n_ub = sum(1 for _, _, kind in rows if kind == "ub")
    ncols = nvars + n_ub + nrows  # structural | slacks | artificials
    tab, basis, flipped, marker = [], [], [], []
    slack_idx = 0
    for coeffs, rhs, kind in rows:
        flip = rhs < 0
        if flip:
            coeffs, rhs = [-v for v in coeffs], -rhs
        row = expand(coeffs) + [zero] * (n_ub + nrows) + [rhs]
        art = True
        if kind == "ub":
            scol = nvars + slack_idx
            slack_idx += 1
            row[scol] = Fraction(-1 if flip else 1)
            if not flip:
                art = False
                basis.append(scol)
                marker.append(scol)
        if art:
            acol = nvars + n_ub + len(tab)
            row[acol] = Fraction(1)
            basis.append(acol)
            marker.append(acol)
        flipped.append(flip)
        tab.append(row)

    art_cols = set(range(nvars + n_ub, ncols))
    allowed = [j not in art_cols for j in range(ncols)]
    live = [True] * nrows
    if any(b in art_cols for b in basis):
        obj = [zero] * (ncols + 1)
        for r, row in enumerate(tab):
            if basis[r] in art_cols:
                obj = [o - x for o, x in zip(obj, row)]
        for j in art_cols:
            obj[j] += 1
        _fraction_run_simplex(tab, obj, basis, allowed)
        if obj[-1] < 0:
            return "infeasible", None, None, None
        for r in range(nrows):
            if basis[r] in art_cols:
                col = next((j for j in range(nvars + n_ub) if tab[r][j] != 0), None)
                if col is not None:
                    _fraction_pivot(tab, obj, basis, r, col)
                else:
                    live[r] = False

    obj = [-v for v in cvec] + [zero] * (n_ub + nrows + 1)
    for r, row in enumerate(tab):
        cb = cvec[basis[r]] if basis[r] < nvars else zero
        if cb != 0:
            obj = [o + cb * x for o, x in zip(obj, row)]
    for r in range(nrows):
        if not live[r]:
            tab[r] = [zero] * (ncols + 1)
    if _fraction_run_simplex(tab, obj, basis, allowed) == "unbounded":
        return "unbounded", None, None, None

    xfull = [zero] * ncols
    for r in range(nrows):
        if live[r]:
            xfull[basis[r]] = tab[r][-1]
    if nonneg:
        x = xfull[:nfree]
    else:
        x = [xfull[i] - xfull[nfree + i] for i in range(nfree)]
    value = sum((ci * xi for ci, xi in zip(c, x)), zero)
    dual = []
    for r in range(nrows):
        y = obj[marker[r]] if live[r] else zero
        dual.append(-y if flipped[r] else y)
    return "optimal", x, value, dual

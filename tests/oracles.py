"""Independent reference computations used to check the library.

Everything here is deliberately written from textbook definitions,
without importing the package under test, so agreement is meaningful.
Two exceptions keep a route that the library replaced:
recover_sigma_suffix_reference the geometric one (contractions) of the
lift-order suffix, and split_point_reference the vertex test of each
split candidate on the circuits of the configuration it makes.
"""

from fractions import Fraction
from functools import lru_cache
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
    """Cofactor-expansion determinant, as a Fraction: expand along the
    first row, then along the first row of each minor, taking each minor
    of the trailing rows once (it is fixed by its columns), so that a
    16 x 16 matrix takes 2^16 minors, not 16!."""
    n = len(m)

    @lru_cache(maxsize=None)
    def minor(cols):
        """The minor of the last len(cols) rows on these columns."""
        if not cols:
            return 1
        row = m[n - len(cols)]
        return sum((-1) ** k * row[j] * minor(cols[:k] + cols[k + 1:])
                   for k, j in enumerate(cols) if row[j])

    return Fraction(minor(tuple(range(n))))


def brute_force_facets(points):
    """Facet label sets of conv(points) by checking every hyperplane
    spanned by d of the points; labels are 1-based indices.  A point's
    side is det([p, 1] + rows), expanded along its first row: the d+1
    cofactors are taken once per subset, then one dot product per
    point."""
    points = [tuple(Fraction(x) for x in p) for p in points]
    d = len(points[0])
    labels = list(range(1, len(points) + 1))
    facets = set()
    for subset in combinations(labels, d):
        rows = [list(points[i - 1]) + [1] for i in subset]
        cofactors = [(-1) ** j * naive_det([r[:j] + r[j + 1:] for r in rows])
                     for j in range(d + 1)]
        vals = [(l, sum(x * c for x, c in zip(points[l - 1] + (1,), cofactors)))
                for l in labels]
        if all(v >= 0 for _, v in vals) or all(v <= 0 for _, v in vals):
            if any(v != 0 for _, v in vals):
                facets.add(frozenset(l for l, v in vals if v == 0))
    return facets


def lower_hull_cells(points, heights):
    """Cells of the regular subdivision by direct lower-hull check:
    a d-subset spans a lower facet iff the lifted hyperplane through it
    is below or through every other lifted point, with merging of
    cospanning subsets.  When every lifted point lies on that
    hyperplane (affine heights) its one cell is all the labels, the
    trivial subdivision.  Labels are 1-based indices.  A lifted point's
    side is det([q, 1] + rows), expanded along its first row as in
    brute_force_facets: the d+2 cofactors are taken once per subset,
    and the height's cofactor is the side of the height unit direction."""
    points = [tuple(Fraction(x) for x in p) for p in points]
    heights = [Fraction(h) for h in heights]
    lifted = [p + (h,) for p, h in zip(points, heights)]
    d1 = len(lifted[0])
    labels = list(range(1, len(points) + 1))
    cells = set()
    for subset in combinations(labels, d1):
        rows = [list(lifted[i - 1]) + [1] for i in subset]
        cofactors = [(-1) ** j * naive_det([r[:j] + r[j + 1:] for r in rows])
                     for j in range(d1 + 1)]
        up = cofactors[d1 - 1]
        if up == 0:
            continue  # vertical hyperplane
        vals = [(l, sum(x * c for x, c in zip(lifted[l - 1] + (1,), cofactors)))
                for l in labels]
        sgn = 1 if up > 0 else -1
        # lower facet: every lifted point weakly above the hyperplane
        if all(sgn * v >= 0 for _, v in vals):
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


def same_side_reference(labels, points, apex):
    """The same-side condition of a lexicographic lift, checked from
    determinants: each point from position d+1 on (d the dimension of
    the points) must lie strictly on the apex side of every hyperplane
    spanned by d earlier points, a d-subset spanning one iff its
    homogenized rows have rank d.  Returns None when the condition
    holds, else (label, frozenset of the hyperplane's labels) for the
    first violation, points in order and subsets in combinations order."""
    d = len(apex)
    rows = {l: [Fraction(x) for x in p] + [Fraction(1)] for l, p in zip(labels, points)}
    apex_row = [Fraction(x) for x in apex] + [Fraction(1)]

    def sign(x):
        return (x > 0) - (x < 0)

    for i in range(d, len(labels)):
        for subset in combinations(labels[:i], d):
            hyper = [rows[l] for l in subset]
            if len(fraction_rref(hyper)[1]) < d:
                continue
            s_apex = sign(naive_det([apex_row] + hyper))
            s_pi = sign(naive_det([rows[labels[i]]] + hyper))
            if s_apex == 0 or s_pi != s_apex:
                return labels[i], frozenset(subset)
    return None


def apex_hyperplane_reference(labels, points, apex, label):
    """The first d-subset, in colexicographic order, of the labels
    before `label` whose points span a hyperplane (homogenized rows of
    rank d) through the apex (zero determinant with the apex row), as a
    frozenset; None when there is none."""
    d = len(apex)
    rows = {l: [Fraction(x) for x in p] + [Fraction(1)] for l, p in zip(labels, points)}
    apex_row = [Fraction(x) for x in apex] + [Fraction(1)]
    before = labels[:labels.index(label)]
    # colex order: by the largest position, then the next largest, ...
    for subset in sorted(combinations(before, d), key=lambda s: [before.index(l) for l in s][::-1]):
        hyper = [rows[l] for l in subset]
        if len(fraction_rref(hyper)[1]) == d and naive_det([apex_row] + hyper) == 0:
            return frozenset(subset)
    return None


def fraction_functional(points):
    """The affine functional through d points in dimension d, over
    Fractions, normalized as the library's hyperplane_functional:
    (normal, offset) with f(x) = normal.x - offset vanishing on the
    points and the last nonzero entry of (normal, -offset) equal to 1,
    read off the kernel of the homogenized rows; None when the points
    do not span a hyperplane."""
    rows = [[Fraction(x) for x in p] + [Fraction(1)] for p in points]
    d = len(rows)
    reduced, pivots = fraction_rref(rows)
    free = [c for c in range(d + 1) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [Fraction(0)] * (d + 1)
    vec[free[0]] = Fraction(1)
    for r, col in enumerate(pivots):
        vec[col] = -reduced[r][free[0]]
    last = next(v for v in reversed(vec) if v)
    return [v / last for v in vec[:d]], -vec[d] / last


def fraction_value(fn, x):
    normal, offset = fn
    return sum(a * Fraction(y) for a, y in zip(normal, x)) - offset


def _fraction_hyperplanes(points, d):
    for subset in combinations(points, d):
        fn = fraction_functional(subset)
        if fn is not None:
            yield fn


def same_side_fraction(labels, points, apex):
    """The same-side condition of a lexicographic lift as
    same_side_reference states it, decided by evaluating Fraction
    functionals instead of determinants: None when it holds, else
    (label, frozenset of the hyperplane's labels) of the first
    violation, points in order and subsets in combinations order."""
    d = len(apex)
    at = dict(zip(labels, points))
    fns = {}
    for i in range(d, len(labels)):
        for subset in combinations(labels[:i], d):
            if subset not in fns:
                fns[subset] = fraction_functional([at[l] for l in subset])
            fn = fns[subset]
            if fn is None:
                continue
            if fraction_value(fn, apex) * fraction_value(fn, at[labels[i]]) <= 0:
                return labels[i], frozenset(subset)
    return None


def hyperplane_gap_fraction(points, p):
    """The smallest nonzero normalized margin |f(p)| / |normal|_1 of p
    over the hyperplanes spanned by d of the points, from Fraction
    functionals; None when there is none."""
    gaps = [abs(fraction_value(fn, p)) / sum(abs(a) for a in fn[0])
            for fn in _fraction_hyperplanes(points, len(p))]
    return min((g for g in gaps if g), default=None)


def is_general_position_fraction(points, q):
    """Whether no hyperplane spanned by d of the points contains q,
    from Fraction functionals."""
    return all(fraction_value(fn, q) != 0 for fn in _fraction_hyperplanes(points, len(q)))


def circuit_table_reference(points):
    """(subset, side_pos, side_neg) for each (d+2)-subset of the labels
    of points, in combinations order of the sorted labels, whose Radon
    partition, read off a kernel vector of the homogenized points, has
    no zero coefficient; subsets of another nullity or with a zero
    coefficient are skipped.  side_pos and side_neg are the cell sets
    of the circuit's two triangulations.  points maps each label to its
    coordinates."""
    labels = sorted(points)
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
        out.append((s, frozenset(s - {l} for l in neg), frozenset(s - {l} for l in pos)))
    return out


def circuits_reference(points):
    """{support: {pos, neg}} over the circuits of the labeled points:
    the label sets that are affinely dependent, by the Fraction rank of
    their homogenized rows, while every proper subset is independent.
    The signs are those of the one kernel vector of the circuit's
    columns, up to scale, so each circuit's pair of parts is unordered.
    points maps each label to its coordinates."""
    labels = sorted(points)
    d = len(points[labels[0]])

    def rank(subset):
        return len(fraction_rref([list(points[l]) + [1] for l in subset])[1])

    out = {}
    for k in range(2, d + 3):
        for subset in combinations(labels, k):
            if rank(subset) == k or any(rank(subset[:i] + subset[i + 1:]) < k - 1
                                         for i in range(k)):
                continue
            cols = [list(points[l]) + [1] for l in subset]
            m, pivots = fraction_rref([list(row) for row in zip(*cols)])
            free = next(c for c in range(k) if c not in pivots)
            lam = [Fraction(0)] * k
            lam[free] = Fraction(1)
            for r, c in enumerate(pivots):
                lam[c] = -m[r][free]
            pos = frozenset(l for l, v in zip(subset, lam) if v > 0)
            neg = frozenset(l for l, v in zip(subset, lam) if v < 0)
            out[frozenset(subset)] = frozenset({pos, neg})
    return out


def flip_neighbors_reference(cells, points):
    """Cell sets of the triangulations one bistellar flip away from the
    given one, in the order the library lists them: for each circuit of
    circuit_table_reference over the labels the cells use, whichever
    side of the circuit lies among the cells is traded for the other.
    points maps each label to its coordinates."""
    cells = frozenset(frozenset(c) for c in cells)
    used = {l for c in cells for l in c}
    out = []
    for _, side_pos, side_neg in circuit_table_reference({l: points[l] for l in used}):
        if side_pos <= cells:
            out.append((cells - side_pos) | side_neg)
        elif side_neg <= cells:
            out.append((cells - side_neg) | side_pos)
    return out


def gkz_regular_subset(points, triangulations):
    """The regular members of a list of all triangulations of points,
    each given as its cells' label sets (1-based labels into points), by
    the secondary polytope (Gelfand, Kapranov and Zelevinsky, 1994; De
    Loera, Rambau and Santos, Triangulations, 2010, ch. 5): the GKZ
    vector of T gives each point the summed volume of the cells of T
    that contain it, and T is regular exactly when its GKZ vector is a
    vertex of the hull of them all, that is, no convex combination of
    the others.  One fraction_simplex feasibility LP per triangulation;
    the regular ones must have pairwise distinct GKZ vectors."""
    vectors = []
    for cells in triangulations:
        phi = [Fraction(0)] * len(points)
        for c in cells:
            vol = abs(naive_det([list(points[l - 1]) + [1] for l in sorted(c)]))
            for l in c:
                phi[l - 1] += vol
        vectors.append(phi)
    regular = []
    for k, (cells, phi) in enumerate(zip(triangulations, vectors)):
        others = vectors[:k] + vectors[k + 1:]
        a_eq = [[v[i] for v in others] for i in range(len(points))] + [[1] * len(others)]
        b_eq = phi + [1]
        if not others or fraction_simplex([0] * len(others), [], [], a_eq, b_eq,
                                          nonneg=True)[0] == "infeasible":
            regular.append((cells, phi))
    assert len({tuple(phi) for _, phi in regular}) == len(regular)
    return [cells for cells, _ in regular]


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


def strictly_separable_reference(base, below, on=()) -> bool:
    """Whether some a has a.(x - base) < 0 for every x in below and
    a.(x - base) = 0 for every x in on.  Scaling a, that is whether
    a.(x - base) <= -1 below and = 0 on is feasible: one fraction_simplex
    LP over the free a with a zero objective."""
    rows = [[Fraction(x) - y for x, y in zip(q, base)] for q in below]
    eq = [[Fraction(x) - y for x, y in zip(q, base)] for q in on]
    status = fraction_simplex([0] * len(base), rows, [-1] * len(rows), eq, [0] * len(eq))[0]
    return status == "optimal"


def simplices_properly_intersect_reference(points, s1, s2) -> bool:
    """Whether two simplices, given by 1-based labels into points, meet
    in a common face (possibly empty): an LP over barycentric weights of
    a common point, maximizing the weight on vertices of s1 outside the
    shared labels, has no positive optimum."""
    s1, s2 = sorted(s1), sorted(s2)
    shared = set(s1) & set(s2)
    n1, n2 = len(s1), len(s2)
    a_eq = [
        [points[l - 1][i] for l in s1] + [-points[l - 1][i] for l in s2]
        for i in range(len(points[0]))
    ]
    a_eq += [[1] * n1 + [0] * n2, [0] * n1 + [1] * n2]
    b_eq = [0] * (len(a_eq) - 2) + [1, 1]
    c = [0 if l in shared else 1 for l in s1] + [0] * n2
    status, _, value, _ = fraction_simplex(c, [], [], a_eq, b_eq, nonneg=True)
    return status != "optimal" or value == 0


def is_triangulation_reference(points, cells):
    """The two triangulation conditions checked from their definitions:
    full-dimensional simplices, each ridge on the hull boundary in one
    cell or inside the hull in two, and every pair of cells meeting in a
    common face.  Labels are 1-based indices into points; cells are
    visited in their iteration order and ridges in first-seen order, so
    a caller passing one set to this and to the library meets the same
    first violation.  Returns (ok, witness) as the library does."""
    d = len(points[0])
    cells = [frozenset(c) for c in cells]
    if not cells:
        return False, "empty cell set"
    for c in cells:
        if len(c) != d + 1:
            return False, ("non-simplicial cell", tuple(sorted(c)))
        if naive_det([list(points[l - 1]) + [1] for l in sorted(c)]) == 0:
            return False, ("degenerate cell", tuple(sorted(c)))
    boundary = brute_force_facets(points)
    owners = {}
    for c in cells:
        for r in combinations(sorted(c), d):
            owners.setdefault(frozenset(r), []).append(c)
    for ridge, on in owners.items():
        on_boundary = any(ridge <= b for b in boundary)
        if len(on) > 2:
            return False, ("overcrowded ridge", tuple(sorted(ridge)))
        if len(on) == 1 and not on_boundary:
            return False, ("uncovered ridge", tuple(sorted(ridge)))
        if len(on) == 2 and on_boundary:
            return False, ("boundary ridge shared twice", tuple(sorted(ridge)))
    ordered = sorted(cells, key=sorted)
    for i, c1 in enumerate(ordered):
        for c2 in ordered[i + 1:]:
            if not simplices_properly_intersect_reference(points, c1, c2):
                return False, ("improper pair", tuple(sorted(c1)), tuple(sorted(c2)))
    return True, None


def height_separation_rows_reference(points, cells, column, nv):
    """The full height-separation rows: for each cell in sorted order
    and each point of column outside it, in column's iteration order,
    the row sum_v lam_v h_v - h_p + margin <= 0 asking the lifted point
    p to clear the cell's lifted hyperplane by the margin (the last of
    the nv variables), with lam the affine coordinates of p in the
    cell's vertices in label order.  column maps each label to its
    variable and points maps it to its coordinates.  Each cell's
    coordinates come from one reduction of its homogenized vertex
    columns augmented by the outside points.  None when a cell is
    degenerate or does not have d+1 vertices."""
    cells = {frozenset(c) for c in cells}
    rows = []
    for cell in sorted(cells, key=sorted):
        vertices = sorted(cell)
        outside = [lab for lab in column if lab not in cell]
        if not outside:
            continue
        d, k = len(points[vertices[0]]), len(vertices)
        if k != d + 1:
            return None
        cols = [list(points[l]) + [1] for l in vertices + outside]
        m, pivots = fraction_rref([list(row) for row in zip(*cols)])
        if pivots[:k] != list(range(k)):
            return None
        for j, lab in enumerate(outside):
            row = [Fraction(0)] * nv
            row[column[lab]] = Fraction(-1)
            for r, l in enumerate(vertices):
                row[column[l]] += m[r][k + j]
            row[-1] = Fraction(1)
            rows.append(row)
    return rows


def recover_sigma_suffix_reference(config, r):
    """The lift-order suffix of a double lift, read geometrically: each
    candidate's double vertex figure with the inner apex is built by two
    contractions (a cut normal from the facets through the vertex and
    chart coordinates each) and tested for r-neighborliness on the
    facets of that configuration."""
    from regtri.census import is_k_neighborly
    from regtri.errors import NonUniqueIndex, TooFewPoints
    from regtri.lifting import contraction

    base_dim = config.dim - 2
    labels = sorted(config.labels)
    apex_inner = labels[-2]
    base_labels = labels[:-2]
    if len(base_labels) <= base_dim + 2:
        raise TooFewPoints(f"{len(base_labels)} base points")
    suffix = []
    current = config
    remaining = list(base_labels)
    while len(remaining) > base_dim + 2:
        at_apex = contraction(current, apex_inner)
        candidates = [k for k in remaining
                      if is_k_neighborly(contraction(at_apex, k), r)]
        if len(candidates) != 1:
            raise NonUniqueIndex(candidates)
        suffix.append(candidates[0])
        remaining.remove(candidates[0])
        current = current.delete([candidates[0]])
    return tuple(reversed(suffix))


def split_point_reference(config, p_label, epsilon=None, seed=0):
    """split_point as a loop over the same seeded draws: skip a draw
    equal to p, then one on a hyperplane spanned by the configuration
    (is_general_position), then one that is no vertex of the
    configuration with it appended (is_vertex, on that configuration's
    circuits).  The default epsilon is half the Fraction gap of
    hyperplane_gap_fraction.  Returns the SplitPair of the first draw
    that passes."""
    import random

    from regtri.enumeration import SplitPair
    from regtri.errors import NotAVertex, RegtriError
    from regtri.geometry import _near_point, is_general_position, is_vertex

    if not is_vertex(config, p_label):
        raise NotAVertex(f"label {p_label} is not a vertex")
    p = config.point(p_label)
    if epsilon is None:
        others = [q for l, q in zip(config.labels, config.points) if l != p_label]
        gap = hyperplane_gap_fraction(others, p)
        if gap is None:
            raise RegtriError("no spanned hyperplane; configuration too small")
        epsilon = gap / 2
    rng = random.Random(seed)
    for _ in range(1000):
        cand = _near_point(rng, p, epsilon)
        if cand == p or not is_general_position(config, cand):
            continue
        new = config.append_point(cand)
        if is_vertex(new, new.labels[-1]):
            return SplitPair(new, p_label, new.labels[-1], epsilon)
    raise RegtriError("could not sample a general-position split point")

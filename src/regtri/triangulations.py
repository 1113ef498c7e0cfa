"""Triangulations and regular subdivisions.

Construction from lifting vectors, placing and pulling triangulations,
links, exact regularity certification, and the f/h-vector machinery
behind the neighborly cell bound.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import (
    DegenerateStep,
    GenericityFailure,
    NonPureComplex,
    NotATriangulation,
    NotConvexPosition,
    NotFullDimensional,
    PointUnused,
    wire_format,
)
from .geometry import (
    PointConfiguration,
    affine_dim,
    facets,
    format_rational,
    in_convex_position,
    orientation,
    parse_rational,
)
from .linprog import max_margin, solve_lp  # noqa: F401  (perfbench traces this import site)

def make_cells(cells) -> frozenset:
    """The cells as a frozenset of frozensets.  A cell set that already
    is one, as every flip builds, comes back as it is: a copy would cost
    time and, built one cell at a time, a larger hash table."""
    if type(cells) is frozenset and all(type(c) is frozenset for c in cells):
        return cells
    return frozenset(frozenset(c) for c in cells)


@dataclass(frozen=True)
class Subdivision:
    """A polyhedral subdivision given by its cells as label sets; cells
    may be non-simplicial."""

    cells: frozenset

    def is_simplicial(self, dim: int) -> bool:
        return all(len(c) == dim + 1 for c in self.cells)


@dataclass(frozen=True, slots=True)
class Triangulation:
    """A triangulation given by its maximal cells (sorted label sets of
    size d+1 each).  Slotted: an enumeration holds thousands."""

    cells: frozenset

    def __post_init__(self):
        object.__setattr__(self, "cells", make_cells(self.cells))

    @property
    def used_labels(self) -> frozenset:
        return frozenset(l for c in self.cells for l in c)

    def link(self, p_label: int) -> "Triangulation":
        link_cells = [c - {p_label} for c in self.cells if p_label in c]
        if not link_cells:
            raise PointUnused(f"label {p_label} unused by the triangulation")
        return Triangulation(make_cells(link_cells))

    def relabel(self, mapping: dict[int, int]) -> "Triangulation":
        return Triangulation(
            make_cells({frozenset(mapping.get(l, l) for l in c) for c in self.cells})
        )

    def faces(self) -> frozenset:
        """Downward closure: all nonempty faces of the complex."""
        out = set()
        for c in self.cells:
            cs = sorted(c)
            for k in range(1, len(cs) + 1):
                out.update(frozenset(s) for s in itertools.combinations(cs, k))
        return frozenset(out)

    def restriction(self, labels) -> frozenset:
        """Faces of the complex contained in the given label set."""
        keep = frozenset(labels)
        return frozenset(f for f in self.faces() if f <= keep)

    def to_json(self) -> str:
        return json.dumps({"config": None, "cells": sorted(sorted(c) for c in self.cells)})

    @classmethod
    def from_json(cls, text: str) -> "Triangulation":
        with wire_format("triangulation"):
            cells = make_cells(json.loads(text)["cells"])
            if not all(type(l) is int for c in cells for l in c):
                raise TypeError("cell labels must be integers")
            return cls(cells)


def heights_to_json(w: dict) -> str:
    return json.dumps(
        {"heights": {str(l): format_rational(v) for l, v in sorted(w.items())}}
    )


def heights_from_json(text: str) -> dict:
    with wire_format("heights"):
        heights = json.loads(text)["heights"]
        # keys as heights_to_json writes labels; no JSON number 0.9 or true
        if not all(str(int(l)) == l and type(v) in (int, str) for l, v in heights.items()):
            raise TypeError("heights must be integers or strings keyed by integer labels")
        return {int(l): parse_rational(v) for l, v in heights.items()}


def regular_subdivision(config: PointConfiguration, w: dict) -> Subdivision:
    """Project the lower faces of the lifted hull; cells are simplicial
    exactly when the heights are generic for the configuration.

    The lower faces are read off config.chirotope, with no lifted
    configuration.  The heights are cleared of denominators once, by
    their lcm; a positive scale keeps every sign.  By Laplace expansion
    along the height column, the lifted determinant of a sorted
    (d+2)-subset C is (-1)^d lam.w, lam the affine dependence of C
    (Chirotope.dependence).  For a (d+1)-subset S = C - {q} with
    nonzero minor, q lies strictly below the lifted hyperplane of S
    when lam_q * (lam.w) < 0, and on it when lam.w = 0.  S bounds a
    lower face when no point lies below it, and the face's cell is S
    and every point on its hyperplane, so coplanar points merge into
    one non-simplicial cell.  Heights that are an affine function of
    position put every lifted point on one such hyperplane, and the
    subdivision is trivial: one cell of all labels.  A label without a
    height is a ValueError."""
    if affine_dim(config) != config.dim:
        raise NotFullDimensional("configuration must be full-dimensional")
    labels = sorted(config.labels)
    missing = [l for l in labels if l not in w]
    if missing:
        raise ValueError(f"heights missing for labels {missing}")
    heights = dict(zip(labels, linalg.clear_denominators(
        [parse_rational(w[l]) for l in labels])[1]))
    chi = config.chirotope
    below, on = set(), {}  # S -> the points on the lifted hyperplane of S
    for subset in itertools.combinations(labels, config.dim + 2):
        lam = chi.dependence(subset)
        t = sum(v * heights[l] for v, l in zip(lam, subset))
        for i, (q, v) in enumerate(zip(subset, lam)):
            if not v:
                continue  # subset - q spans no hyperplane; its lifted one is vertical
            face = subset[:i] + subset[i + 1:]
            if not t:
                on.setdefault(face, []).append(q)
            elif (v > 0) != (t > 0):
                below.add(face)
    cells = {frozenset(face).union(on.get(face, ()))
             for face in itertools.combinations(labels, config.dim + 1)
             if face not in below and chi.minor(face)}
    return Subdivision(make_cells(cells))


def barycentric(config: PointConfiguration, cell, label: int):
    """Affine coordinates of the point `label` with respect to the d+1
    points of `cell` (Chirotope.coordinates); None if the cell is
    degenerate.  A cell without d+1 labels, or an unknown label, is a
    ValueError."""
    sol = config.chirotope.coordinates(frozenset(cell), [label])
    return sol and {l: Fraction(v, sol[0]) for l, v in zip(sorted(cell), sol[1][label])}


def _facet_separates(config: PointConfiguration, s1: frozenset, s2: frozenset) -> bool:
    """Whether s1 is a d-simplex with a facet F = s1 - {a} whose
    hyperplane has a strictly on one side and every label of s2 outside
    F strictly on the other; then s1 and s2 meet in conv(s2 & F), a face
    of both.  With M(s1) != 0, b off s1 lies across F from a exactly
    when lam_a and lam_b of lam = dependence(s1 + b) share a sign
    (lam_b = +-M(s1) != 0), so each such b prunes the apexes off s2."""
    chi = config.chirotope
    key = tuple(sorted(s1))
    if len(key) != config.dim + 1 or not chi.minor(key):
        return False
    apexes = s1 - s2
    for b in s2 - s1:
        if not apexes:
            break
        i = bisect_left(key, b)
        subset = key[:i] + (b,) + key[i:]
        lam = chi.dependence(subset)
        apexes = {a for a, v in zip(subset, lam) if a in apexes and v and (v > 0) == (lam[i] > 0)}
    return bool(apexes)


def simplices_properly_intersect(config: PointConfiguration, s1, s2) -> bool:
    """Whether two simplices meet in a common face (possibly empty),
    read from config.chirotope with no LP.  True at once when a facet of
    one d-simplex separates it from the other (_facet_separates);
    otherwise True iff no circuit (config.circuits) has its positive
    part in one and its negative part in the other (De Loera, Rambau and
    Santos, Triangulations, 2010; Santos, Triangulations of oriented
    matroids, 2002).  A configuration that does not span is
    NotFullDimensional.  A label set that is not affinely independent
    (a zero minor for d+1 labels, otherwise a circuit inside it) is not
    a simplex: a ValueError."""
    one, two = frozenset(s1), frozenset(s2)
    d = config.dim
    circuits = config.circuits
    for s in (one, two):
        key = tuple(sorted(s))
        if (not config.chirotope.minor(key) if len(key) == d + 1
                else any(c <= s for c, _, _ in circuits)):
            raise ValueError(f"labels {key} are affinely dependent: not a simplex")
    return _properly_intersect(config, one, two)


def _properly_intersect(config: PointConfiguration, one, two) -> bool:
    """simplices_properly_intersect on two frozensets its caller knows
    to be simplices, with no check that they are: the oracle's cells,
    d-simplices by its nonzero orientation test, ask it once per placed
    cell."""
    if _facet_separates(config, one, two) or _facet_separates(config, two, one):
        return True
    return not any((pos <= one and neg <= two) or (pos <= two and neg <= one)
                   for _, pos, neg in config.circuits)


def _folding_pass(config: PointConfiguration, cells, column, nv: int, validate: bool):
    """The one pass over a cell set behind is_triangulation, is_regular
    and shared_witness: one ridge -> (cell, apex) map and, from
    Chirotope.coordinates, the affine coordinates of the points each
    cell reads.  These are the points its folding rows lift and, when
    validating, the first cell's vertices over every other cell, whose
    summed coordinates place the first cell's barycentre.  Validating
    checks the conditions of is_triangulation in its order, from the
    signs of the integer numerators; without it, a cell that reads no
    point is skipped.

    The rows are those of the height-separation LP on the local folding
    conditions: each asks a lifted point to clear a cell's lifted
    hyperplane by at least the margin, the last of the nv variables.
    There is one row per interior ridge, for the apex of the later of
    its two cells (in sorted order) over the earlier cell, and one per
    point of column that no cell uses, over the first cell whose affine
    coordinates of it are all >= 0.  Two ridges of one cell whose
    neighbours share their apex give one row.  column maps each label
    of config to the height variable it reads, and a cell's points are
    visited in column's order, their coordinates over one den.

    Every row is a row of the full system, one per (cell, outside
    point).  On a triangulation the two systems hold for the same
    heights (De Loera, Rambau and Santos, Triangulations, 2010, the
    secondary cone): heights that fold upward across every interior
    ridge make the lifted cells a convex surface, so every lifted point
    outside a cell lies strictly above that cell's hyperplane.

    Returns (rows, mults): each folding row as the least integer
    multiple of the rational row, which is what clear_denominators
    makes of it, and that multiple m.  A row over the cell's den whose
    integers have gcd g has m = den / g.  Raises NotATriangulation with
    the first violation found, first a label outside column.  Without
    validating it still raises on a cell without d+1 vertices, a ridge
    in more than two cells, a point in no cell and a degenerate cell
    that reads a point."""
    cells = make_cells(cells)
    d = config.dim
    if validate and not cells:
        raise NotATriangulation("empty cell set")
    stray = frozenset().union(*cells).difference(column)
    if stray:
        # by type first: labels of different types do not compare
        first = min(stray, key=lambda l: (str(type(l)), l))
        raise NotATriangulation(("label not in configuration", first))
    ordered = sorted(cells, key=sorted)
    position = {cell: k for k, cell in enumerate(ordered)}
    owners = {}  # ridge -> (cell, apex) per cell on it; two in sorted order
    for cell in cells:
        for apex in sorted(cell, reverse=True):  # ridges in combinations order
            owners.setdefault(cell - {apex}, []).append((cell, apex))
    targets = {cell: set() for cell in ordered}  # apexes a cell's rows lift
    for pairs in owners.values():
        if len(pairs) == 2:
            if position[pairs[0][0]] > position[pairs[1][0]]:
                pairs.reverse()
            targets[pairs[0][0]].add(pairs[1][1])
    unplaced = set(column).difference(*cells)
    first = sorted(ordered[0]) if validate else []
    coords = {}  # cell -> {label: coordinate numerators}, None if degenerate
    rows, mults = [], []
    for k, cell in enumerate(ordered):
        wanted = targets[cell] | unplaced
        points = [lab for lab in column if lab in wanted]
        if len(cell) != d + 1 or not (points or validate):
            continue
        # the barycentre check reads the first cell's vertices over the others
        extra = [v for v in first if v not in wanted] if k else []
        sol = config.chirotope.coordinates(cell, points + extra)
        coords[cell] = sol and sol[1]
        if sol is None:
            continue
        den = sol[0]
        vertices = sorted(cell)
        for lab in points:
            nums = coords[cell][lab]
            if lab in unplaced:
                if any(v < 0 for v in nums):
                    continue
                unplaced.discard(lab)
            row = [0] * nv  # den times the rational row
            row[column[lab]] = -den
            for l, v in zip(vertices, nums):
                row[column[l]] += v
            row[-1] = den
            g = math.gcd(*row)
            rows.append([v // g for v in row])
            mults.append(den // g)
    for cell in cells:
        if len(cell) != d + 1:
            raise NotATriangulation(("non-simplicial cell", tuple(sorted(cell))))
        if cell in coords and coords[cell] is None:
            raise NotATriangulation(("degenerate cell", tuple(sorted(cell))))
    boundary = facets(config) if validate else ()
    for ridge, pairs in owners.items():
        if len(pairs) > 2:
            raise NotATriangulation(("overcrowded ridge", tuple(sorted(ridge))))
        # one cell on a boundary ridge, two on an interior one
        if validate and (len(pairs) == 2) == any(ridge <= b for b in boundary):
            kind = "uncovered ridge" if len(pairs) == 1 else "boundary ridge shared twice"
            raise NotATriangulation((kind, tuple(sorted(ridge))))
    if validate:  # an apex on its neighbour's side, or a point covered twice
        first, *rest = ordered
        for (c1, a1), (c2, a2) in (p for p in owners.values() if len(p) == 2):
            if coords[c1][a2][sorted(c1).index(a1)] > 0:
                raise NotATriangulation(("improper pair", tuple(sorted(c1)), tuple(sorted(c2))))
        for c in rest:
            if all(sum(nums) >= 0 for nums in zip(*(coords[c][v] for v in first))):
                raise NotATriangulation(("improper pair", tuple(sorted(first)), tuple(sorted(c))))
    if unplaced:
        raise NotATriangulation(("point in no cell", min(unplaced)))
    return rows, mults


def is_triangulation(cells, config: PointConfiguration):
    """Exact check that the cells triangulate conv(config); returns
    (ok, witness) where the witness names a violating cell, ridge or
    pair.  No LP is solved.

    A set of full-dimensional simplices on the points is a triangulation
    iff every ridge either lies on the boundary of the hull and in one
    cell, or lies in two cells on opposite sides of it, and some point
    is covered by exactly one cell (De Loera, Rambau and Santos,
    Triangulations, 2010, section 4.5).  The ridge conditions make the
    cells cover every generic point of the hull equally often: a
    path between two of them crosses only interior ridges, each from
    one cell into the other.  The barycentre of the first cell, in
    sorted order, lies in no other closed cell exactly when a
    neighbourhood of it is covered once, so that number is 1.  A
    violation of either condition is reported as an improper pair: two
    cells that do not meet in a common face.  Each check reads affine
    coordinates off the chirotope: two cells lie on opposite sides of
    their ridge when the later one's apex has a negative coordinate at
    the earlier one's apex."""
    try:
        _folding_pass(config, cells, {l: k for k, l in enumerate(config.labels)},
                      config.n + 1, validate=True)
    except NotATriangulation as e:
        return False, e.witness
    return True, None


@dataclass(frozen=True, slots=True)
class RegularityResult:
    """Verdict of the height-separation LP over the local folding rows
    (see _folding_pass) and the box rows of max_margin: margin
    is that LP's optimum, and certificate its duals, one per folding
    row and then one per box row."""

    regular: bool
    witness: dict | None = None  # heights inducing T when regular
    margin: Fraction | None = None
    # duals proving the margin cannot exceed zero when not regular
    certificate: tuple | None = field(default=None, repr=False)
    certificate_valid: bool | None = None


def _check_certificate(c, a_ub, b_ub, dual, mults=()) -> bool:
    """Independent recheck: nonnegative duals that dominate the
    objective and price out to a nonpositive bound prove that no height
    vector achieves a positive margin.  Row i of a_ub, with its bound,
    stands for itself divided by mults[i] (1 past the end of mults), so
    integer rows with their multipliers check a certificate over the
    rational rows.  Both sides of each check are multiplied by the
    common denominator of the duals and the lcm of the multipliers, so
    on integer rows it runs in integers."""
    scale, ys = linalg.clear_denominators(dual)
    if any(y < 0 for y in ys):
        return False
    ms = list(mults) + [1] * (len(ys) - len(mults))
    big = math.lcm(*ms)
    scale *= big
    used = [(y * (big // m), row, b) for y, m, row, b in zip(ys, ms, a_ub, b_ub) if y]
    for j, cj in enumerate(c):
        if sum(y * row[j] for y, row, _ in used) < cj * scale:
            return False
    return sum(y * b for y, _, b in used) <= 0


def is_regular(t: Triangulation, config: PointConfiguration,
               validate: bool = False) -> RegularityResult:
    """Certify regularity by exact LP: maximize the margin of the local
    folding rows of _folding_pass.  Returns a witness height
    vector, or duals refuting any positive margin.

    A refutation holds for any cell set: every folding row is a row of
    the full system (each lifted outside point above each cell's
    hyperplane), so the duals, padded with zeros, refute that too.  A
    regular verdict rests on the folding lemma, which needs t to be a
    triangulation of config: validate=True checks that, and
    enumerate_regular passes only flips of triangulations.  The pass
    that builds the rows also runs the checks of is_triangulation, from
    the same cell coordinates and with no LP, so a validated verdict
    costs one LP, the margin LP.

    The coordinates come from config.chirotope, so a caller that asks
    about many cell sets of one configuration object, as
    enumerate_regular does along its flip walk, takes each minor once:
    a flip changes only the cells of one circuit.

    The pass hands the LP integer rows, each the rational row times its
    multiplier m.  Those are the rows solve_lp clears the rational rows
    to, so the tableau, pivots, witness and margin are the same; each
    row's dual comes out divided by m, and times m it is the certificate
    over the rational rows.  _check_certificate rechecks that certificate,
    the vector returned, against the integer rows over their
    multipliers, which are the rational rows."""
    labels = sorted(config.labels)
    # heights + margin; the rows are invariant under a common shift of
    # the heights, so max_margin's [0, 2] box on them is [-1, 1] shifted
    nv = len(labels) + 1
    rows, mults = _folding_pass(
        config, t.cells, {l: i for i, l in enumerate(labels)}, nv, validate)
    c, a_ub, b_ub, res = max_margin(rows, nv)
    if res.value > 0:
        den, nums = res.den, res.x_num
        w = {lab: Fraction(nums[i] - den, den) for i, lab in enumerate(labels)}
        return RegularityResult(True, witness=w, margin=res.value)
    # a zero dual stays one shared zero, not a new Fraction per row
    zero, den = Fraction(0), res.dual_den
    ms = itertools.chain(mults, itertools.repeat(1))  # the box rows are ints
    certificate = [Fraction(y * m, den) if y else zero for y, m in zip(res.dual_num, ms)]
    return RegularityResult(
        False,
        margin=res.value,
        certificate=tuple(certificate),
        certificate_valid=_check_certificate(c, a_ub, b_ub, certificate, mults),
    )


def placing_triangulation(config: PointConfiguration, order=None) -> Triangulation:
    """Insert points in the given label order, coning each new point
    over the boundary ridges of the cells placed so far that it lies
    strictly beyond (De Loera, Rambau and Santos, Triangulations, 2010,
    section 4.3).  A point beyond no ridge lies in the hull of the
    points before it, inside or on its boundary, and is skipped.  Each
    boundary ridge keeps orientation(ridge + (apex,)), the side of its
    hyperplane its cell's apex lies on: the sign of its cell, which
    config.chirotope took when the cell was found visible, so each
    ridge test is one sign.  DegenerateStep means the first d+1 points
    of a given order do not span.  The default order is label order
    with the first d+1 labels that span moved to the front, and a
    configuration that has none is NotFullDimensional; a given order
    that is not a permutation of the labels is a ValueError."""
    d = config.dim
    if order is None:
        start = list(config.affine_basis)
        if len(start) <= d:
            raise NotFullDimensional("configuration does not span its dimension")
        order = start + [lab for lab in config.labels if lab not in start]
    elif sorted(order) != sorted(config.labels):
        raise ValueError("order must be a permutation of the labels")
    if len(order) < d + 1:
        raise NotFullDimensional("too few points to span")
    first = tuple(sorted(order[: d + 1]))
    if orientation(config, first) == 0:
        raise DegenerateStep(order[d])
    cells, boundary = [], {}  # boundary: ridge -> orientation(ridge + (its cell's apex,))

    def place(cell):
        cells.append(cell)
        for apex in cell:
            ridge = tuple(l for l in cell if l != apex)
            if ridge in boundary:  # the ridge it covers, or one another new cell shares
                del boundary[ridge]
            else:
                boundary[ridge] = orientation(config, ridge + (apex,))

    place(first)
    for lab in order[d + 1 :]:
        visible = [ridge for ridge, side in boundary.items()
                   if orientation(config, ridge + (lab,)) == -side]
        for ridge in visible:
            place(tuple(sorted(ridge + (lab,))))
    return Triangulation(make_cells(cells))


def pulling_triangulation(config: PointConfiguration) -> Triangulation:
    """Cone the last-labeled point over the hull facets avoiding it;
    valid for configurations in convex and general position.  A
    non-simplicial facet avoiding it, as on the cube, is a
    GenericityFailure.  Points that do not span, none included, are
    NotFullDimensional, and the one point of R^0 is its own cell, as
    in placing."""
    boundary = facets(config)  # refuses points that do not span
    if not in_convex_position(config):
        raise NotConvexPosition("pulling needs a configuration in convex position")
    last = config.labels[-1]
    cells = [] if config.dim else [{last}]  # the point of R^0 has no facet
    for f in boundary:
        if last in f:
            continue
        if len(f) != config.dim:
            raise GenericityFailure("non-simplicial facet; not in general position")
        cells.append(f | {last})
    return Triangulation(make_cells(cells))


def f_vector(cells) -> list[int]:
    """Face counts (f_0, ..., f_dim) of the pure complex generated by
    the given cells."""
    cells = make_cells(cells)
    sizes = {len(c) for c in cells}
    if len(sizes) != 1:
        raise NonPureComplex(f"cell sizes {sorted(sizes)}")
    f = [0] * sizes.pop()
    for face in Triangulation(cells).faces():
        f[len(face) - 1] += 1
    return f


def h_vector(cells) -> list[int]:
    """h-vector by the alternating-sum transform of the f-vector."""
    f = f_vector(cells)
    big_d = len(f)  # cells have big_d vertices; complex dim = big_d - 1
    full = [1] + f  # f_{-1} = 1 for the empty face
    h = []
    for j in range(big_d + 1):
        h.append(
            sum(
                (-1) ** (j - k) * math.comb(big_d - k, big_d - j) * full[k]
                for k in range(j + 1)
            )
        )
    return h


def min_cells_bound(n: int, d: int, k: int) -> int:
    """Lower bound on the number of cells in any triangulation of a
    k-neighborly simplicial d-polytope with n vertices."""
    if not (1 <= k <= d // 2):
        raise ValueError(f"k={k} outside [1, {d // 2}]")
    if n <= d:
        raise ValueError("need n > d")
    return math.comb(n - d - 1 + k, k)

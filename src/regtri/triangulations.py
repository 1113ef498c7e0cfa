"""Triangulations and regular subdivisions.

Construction from lifting vectors, placing and pulling triangulations,
links, exact regularity certification, and the f/h-vector machinery
behind the neighborly cell bound.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import (
    DegenerateStep,
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
    homogenized,
    in_convex_position,
    orientation,
    parse_rational,
)
from .linprog import max_margin, solve_lp

Cells = frozenset  # of frozensets of labels


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

    @property
    def used_labels(self) -> frozenset:
        return frozenset(l for c in self.cells for l in c)

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

    def to_json(self, config_id=None) -> str:
        return json.dumps(
            {
                "config": config_id,
                "cells": sorted(sorted(c) for c in self.cells),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Triangulation":
        with wire_format("triangulation"):
            return cls(make_cells(json.loads(text)["cells"]))


def heights_to_json(w: dict) -> str:
    return json.dumps(
        {"heights": {str(l): format_rational(v) for l, v in sorted(w.items())}}
    )


def heights_from_json(text: str) -> dict:
    with wire_format("heights"):
        data = json.loads(text)
        return {int(l): parse_rational(v) for l, v in data["heights"].items()}


def lifted_configuration(config: PointConfiguration, w: dict) -> PointConfiguration:
    rows = []
    for lab, p in zip(config.labels, config.points):
        rows.append(tuple(p) + (parse_rational(w[lab]),))
    return PointConfiguration(config.dim + 1, tuple(rows), config.labels)


def regular_subdivision(config: PointConfiguration, w: dict) -> Subdivision:
    """Project the lower faces of the lifted hull; cells are simplicial
    exactly when the heights are generic for the configuration."""
    if affine_dim(config) != config.dim:
        raise NotFullDimensional("configuration must be full-dimensional")
    lifted = lifted_configuration(config, w)
    if affine_dim(lifted) < lifted.dim:
        # heights are an affine function of position: trivial subdivision
        return Subdivision(make_cells([config.labels]))
    cells = []
    for f in facets(lifted):
        if f.normal[-1] < 0:
            cells.append(f.labels)
    return Subdivision(make_cells(cells))


def _affine_coordinates(config: PointConfiguration, cell, labels):
    """Affine coordinates of each point of `labels` with respect to the
    d+1 points of `cell` in label order, all from one reduction of the
    cell's homogenized matrix; None if the cell is degenerate."""
    a = [list(row) for row in zip(*homogenized(config, sorted(cell)))]
    b = [list(row) for row in zip(*homogenized(config, labels))]
    sol = linalg.solve(a, b)
    if sol is None:
        return None
    return list(zip(*sol))


def barycentric(config: PointConfiguration, cell, label: int):
    """Affine coordinates of the point `label` with respect to the d+1
    affinely independent points of `cell`; None if the cell is
    degenerate."""
    coords = _affine_coordinates(config, cell, [label])
    if coords is None:
        return None
    return dict(zip(sorted(cell), coords[0]))


def simplices_properly_intersect(config: PointConfiguration, s1, s2) -> bool:
    """Whether two simplices meet in a common face (possibly empty).

    Exact LP on barycentric weights: the simplices meet improperly iff a
    common point can put positive weight on a vertex outside the shared
    label set.
    """
    s1, s2 = sorted(s1), sorted(s2)
    shared = set(s1) & set(s2)
    d = config.dim
    n1, n2 = len(s1), len(s2)
    nv = n1 + n2
    a_eq, b_eq = [], []
    for i in range(d):
        row = [config.point(l)[i] for l in s1] + [-config.point(l)[i] for l in s2]
        a_eq.append(row)
        b_eq.append(Fraction(0))
    a_eq.append([Fraction(1)] * n1 + [Fraction(0)] * n2)
    b_eq.append(Fraction(1))
    a_eq.append([Fraction(0)] * n1 + [Fraction(1)] * n2)
    b_eq.append(Fraction(1))
    c = [Fraction(1) if l not in shared else Fraction(0) for l in s1]
    c += [Fraction(0)] * n2
    res = solve_lp(c, [], [], a_eq, b_eq, nonneg=True)
    if not res.optimal:
        return True  # disjoint simplices intersect properly (empty face)
    return res.value == 0


def is_triangulation(cells, config: PointConfiguration):
    """Exact check of the two triangulation conditions; returns
    (ok, witness) where the witness names a violating ridge or pair."""
    cells = make_cells(cells)
    d = config.dim
    if not cells:
        return False, "empty cell set"
    for c in cells:
        if len(c) != d + 1:
            return False, ("non-simplicial cell", tuple(sorted(c)))
        if orientation(config, sorted(c)) == 0:
            return False, ("degenerate cell", tuple(sorted(c)))
    boundary = {frozenset(f.labels) for f in facets(config)}
    ridge_count: dict[frozenset, list] = {}
    for c in cells:
        for r in itertools.combinations(sorted(c), d):
            ridge_count.setdefault(frozenset(r), []).append(c)
    for ridge, owners in ridge_count.items():
        if len(owners) > 2:
            return False, ("overcrowded ridge", tuple(sorted(ridge)))
        if len(owners) == 1 and not any(ridge <= b for b in boundary):
            return False, ("uncovered ridge", tuple(sorted(ridge)))
        if len(owners) == 2 and any(ridge <= b for b in boundary):
            return False, ("boundary ridge shared twice", tuple(sorted(ridge)))
    ordered = sorted(cells, key=sorted)
    for i, c1 in enumerate(ordered):
        for c2 in ordered[i + 1 :]:
            if not simplices_properly_intersect(config, c1, c2):
                return False, ("improper pair", tuple(sorted(c1)), tuple(sorted(c2)))
    return True, None


@dataclass(frozen=True)
class RegularityResult:
    """Verdict of the height-separation LP over the local folding rows
    (see height_separation_rows) and the box rows of max_margin: margin
    is that LP's optimum, and certificate its duals, one per folding
    row and then one per box row."""

    regular: bool
    witness: dict | None = None  # heights inducing T when regular
    margin: Fraction | None = None
    # duals proving the margin cannot exceed zero when not regular
    certificate: tuple | None = field(default=None, repr=False)
    certificate_valid: bool | None = None


def height_separation_rows(config: PointConfiguration, cells, column, nv: int):
    """Rows of the height-separation LP on the local folding
    conditions: each asks a lifted point to clear a cell's lifted
    hyperplane by at least the margin, the last of the nv variables.
    There is one row per interior ridge, for the apex of the later of
    its two cells (in sorted order) over the earlier cell, and one per
    point of column that no cell uses, over the first cell whose affine
    coordinates of it are all >= 0.  Two ridges of one cell whose
    neighbours share their apex give one row.  column maps each label
    of config to the height variable it reads, and a cell's points are
    visited in column's order, their coordinates from one reduction.

    Every row is a row of the full system, one per (cell, outside
    point).  On a triangulation the two systems hold for the same
    heights (De Loera, Rambau and Santos, Triangulations, 2010, the
    secondary cone): heights that fold upward across every interior
    ridge make the lifted cells a convex surface, so every lifted point
    outside a cell lies strictly above that cell's hyperplane.  A cell
    without d+1 vertices, a degenerate cell, a ridge in more than two
    cells and a point in no cell raise NotATriangulation."""
    ordered = sorted(cells, key=sorted)
    owners = {}  # ridge -> (cell, apex) per cell on it, in sorted order
    for cell in ordered:
        if len(cell) != config.dim + 1:
            raise NotATriangulation(("non-simplicial cell", tuple(sorted(cell))))
        for apex in cell:
            owners.setdefault(cell - {apex}, []).append((cell, apex))
    targets = {cell: set() for cell in ordered}  # labels a cell's rows lift
    for ridge, pairs in owners.items():
        if len(pairs) > 2:
            raise NotATriangulation(("overcrowded ridge", tuple(sorted(ridge))))
        if len(pairs) == 2:
            (first, _), (_, apex) = pairs
            targets[first].add(apex)
    used = frozenset().union(*ordered)
    unplaced = {lab for lab in column if lab not in used}
    rows = []
    for cell in ordered:
        wanted = targets[cell] | unplaced
        if not wanted:
            continue
        points = [lab for lab in column if lab in wanted]
        vertices = sorted(cell)
        coords = _affine_coordinates(config, cell, points)
        if coords is None:
            raise NotATriangulation(("degenerate cell", tuple(vertices)))
        for lab, lams in zip(points, coords):
            if lab in unplaced:
                if any(lam < 0 for lam in lams):
                    continue
                unplaced.discard(lab)
            row = [Fraction(0)] * nv
            row[column[lab]] = Fraction(-1)
            for l, lam in zip(vertices, lams):
                row[column[l]] += lam
            row[-1] = Fraction(1)
            rows.append(row)
    if unplaced:
        raise NotATriangulation(("point in no cell", min(unplaced)))
    return rows


def _check_certificate(c, a_ub, b_ub, dual) -> bool:
    """Independent recheck: nonnegative duals that dominate the
    objective and price out to a nonpositive bound prove that no height
    vector achieves a positive margin."""
    if any(y < 0 for y in dual):
        return False
    nv = len(c)
    for j in range(nv):
        if sum(dual[i] * a_ub[i][j] for i in range(len(a_ub))) < c[j]:
            return False
    return sum(y * b for y, b in zip(dual, b_ub)) <= 0


def is_regular(
    t: Triangulation, config: PointConfiguration, validate: bool = False
) -> RegularityResult:
    """Certify regularity by exact LP: maximize the margin of the local
    folding rows of height_separation_rows.  Returns a witness height
    vector, or duals refuting any positive margin.

    A refutation holds for any cell set: every folding row is a row of
    the full system (each lifted outside point above each cell's
    hyperplane), so the duals, padded with zeros, refute that too.  A
    regular verdict rests on the folding lemma, which needs t to be a
    triangulation of config: validate=True checks that first, and
    enumerate_regular passes only flips of triangulations."""
    if validate:
        ok, witness = is_triangulation(t.cells, config)
        if not ok:
            raise NotATriangulation(witness)
    labels = sorted(config.labels)
    # heights + margin; the rows are invariant under a common shift of
    # the heights, so max_margin's [0, 2] box on them is [-1, 1] shifted
    nv = len(labels) + 1
    rows = height_separation_rows(
        config, t.cells, {l: i for i, l in enumerate(labels)}, nv
    )
    c, a_ub, b_ub, res = max_margin(rows, nv)
    if not res.optimal:  # cannot happen: zero heights are feasible
        raise NotATriangulation("regularity LP unsolvable")
    if res.value > 0:
        w = {lab: res.x[i] - 1 for i, lab in enumerate(labels)}
        return RegularityResult(True, witness=w, margin=res.value)
    return RegularityResult(
        False,
        margin=res.value,
        certificate=tuple(res.dual),
        certificate_valid=_check_certificate(c, a_ub, b_ub, res.dual),
    )


def placing_triangulation(config: PointConfiguration, order=None) -> Triangulation:
    """Insert points in the given label order, coning each new point
    over the facets visible from it.  Interior points are skipped, as
    the visibility rule adds nothing for them."""
    if order is None:
        order = list(config.labels)
    d = config.dim
    if len(order) < d + 1:
        raise NotFullDimensional("too few points to span")
    first = list(order[: d + 1])
    if orientation(config, first) == 0:
        raise DegenerateStep(order[d])
    cells = {frozenset(first)}
    used = list(first)
    for lab in order[d + 1 :]:
        p = config.point(lab)
        sub = config.restrict(used)
        new_cells = set()
        for f in facets(sub):
            v = f.value(p)
            if v == 0:
                raise DegenerateStep(lab)
            if v > 0:  # facet visible from the new point
                if len(f.labels) != d:
                    raise DegenerateStep(lab)
                new_cells.add(frozenset(f.labels | {lab}))
        cells |= new_cells
        used.append(lab)
    return Triangulation(make_cells(cells))


def pulling_triangulation(config: PointConfiguration) -> Triangulation:
    """Cone the last-labeled point over the hull facets avoiding it;
    valid for configurations in convex and general position."""
    if not in_convex_position(config):
        raise NotConvexPosition("pulling needs a configuration in convex position")
    last = config.labels[-1]
    cells = []
    for f in facets(config):
        if last in f.labels:
            continue
        if len(f.labels) != config.dim:
            raise NotFullDimensional("non-simplicial facet; not in general position")
        cells.append(f.labels | {last})
    return Triangulation(make_cells(cells))


def f_vector(cells) -> list[int]:
    """Face counts (f_0, ..., f_dim) of the pure complex generated by
    the given cells."""
    cells = make_cells(cells)
    sizes = {len(c) for c in cells}
    if len(sizes) != 1:
        raise NonPureComplex(f"cell sizes {sorted(sizes)}")
    size = sizes.pop()
    faces = [set() for _ in range(size)]
    for c in cells:
        cs = sorted(c)
        for k in range(1, size + 1):
            faces[k - 1].update(itertools.combinations(cs, k))
    return [len(s) for s in faces]


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

"""Exact geometric kernel.

Point configurations over arbitrary-precision rationals, with the
orientation predicate, brute-force facet enumeration, face lattice
extraction, and the visibility predicates, whose outward facet
functionals vertex-figure contraction and point splitting read.
Every function is pure.  Configurations are immutable, and the facts
they cache are filled at most once per key by one thread, always with
equal values, so concurrent callers need no locking: a race costs
repeated work, never a different answer.  A configuration derived by
delete, restrict or reordered keeps its parent's integer rows and shares
its parent's memo of minors, so one point set takes each determinant
once however many of its subsets and orders are asked about.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import mul, neg
from typing import Iterable, Sequence

from . import linalg
from .errors import NotAFace, NotFullDimensional, wire_format
from .linprog import solve_lp  # noqa: F401  (perfbench traces this import site)


def parse_rational(s) -> Fraction:
    """A Fraction; malformed text, a zero denominator too, is a ValueError."""
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    try:
        return Fraction(str(s))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class PointConfiguration:
    """An ordered, labeled sequence of exact-rational points.

    Labels are the permanent identity of each point: configurations
    derived by deletion or contraction carry the original labels.
    Facts derived from the points alone, such as the integer rows, the
    chirotope, the affine basis, the spanned hyperplanes, the circuits
    and the circuit table, are computed once per object and are not
    part of equality, hashing or the JSON form.
    """

    dim: int
    points: tuple[tuple[Fraction, ...], ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError(f"negative dimension {self.dim}")
        if len(self.points) != len(self.labels):
            raise ValueError("points/labels length mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError("point dimension mismatch")
        if self.dim > 0 and len(set(self.points)) != len(self.points):
            raise ValueError("duplicate points")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], labels=None) -> "PointConfiguration":
        pts = tuple(tuple(parse_rational(x) for x in row) for row in rows)
        dim = len(pts[0]) if pts else 0
        if labels is None:
            labels = tuple(range(1, len(pts) + 1))
        return cls(dim=dim, points=pts, labels=tuple(labels))

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, label: int) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"label {label} not in configuration") from None

    def point(self, label: int) -> tuple[Fraction, ...]:
        return self.points[self.index(label)]

    def delete(self, labels: Iterable[int]) -> "PointConfiguration":
        drop = set(labels)
        return self._derived(drop, tuple(l for l in self.labels if l not in drop))

    def restrict(self, labels: Iterable[int]) -> "PointConfiguration":
        """The points of the given labels, in this configuration's order;
        an unknown label is a ValueError, as in delete."""
        keep = set(labels)
        return self._derived(keep, tuple(l for l in self.labels if l in keep))

    def reordered(self, order) -> "PointConfiguration":
        """The same labeled points in the given label order."""
        order = tuple(order)
        if sorted(order) != sorted(self.labels):
            raise ValueError("order must be a permutation of the labels")
        return self._derived(order, order)

    def _derived(self, asked, order: tuple) -> "PointConfiguration":
        """The labeled points of order, in that order, for delete,
        restrict and reordered; a label in asked that is not this
        configuration's is a ValueError.  The result keeps this
        configuration's axis scales, so its integer rows are these rows
        and its minors these minors, the restriction of a chirotope being
        the chirotope of the restriction (Björner, Las Vergnas, Sturmfels,
        White and Ziegler, Oriented Matroids, 1999, ch. 7): it reads and
        fills this configuration's memo of them (Chirotope)."""
        homogenized(self, asked)  # refuses an unknown label
        out = PointConfiguration(self.dim, tuple(map(self.point, order)), order)
        out.__dict__.update(_axis_scales=self._axis_scales,
                            integer_rows=dict(zip(order, homogenized(self, order))),
                            chirotope=Chirotope(out, self.chirotope))
        return out

    def relabel(self, mapping: dict[int, int]) -> "PointConfiguration":
        return PointConfiguration(
            self.dim,
            self.points,
            tuple(mapping.get(l, l) for l in self.labels),
        )

    def replace_point(self, label: int, new_point) -> "PointConfiguration":
        i = self.index(label)
        pts = list(self.points)
        pts[i] = tuple(parse_rational(x) for x in new_point)
        return PointConfiguration(self.dim, tuple(pts), self.labels)

    def append_point(self, point, label=None) -> "PointConfiguration":
        if label is None:
            label = max(self.labels, default=0) + 1
        return PointConfiguration(
            self.dim,
            self.points + (tuple(parse_rational(x) for x in point),),
            self.labels + (label,),
        )

    @cached_property
    def _axis_scales(self) -> tuple:
        """The lcm of each axis's denominators, by which integer_rows
        scales the axis and hyperplane_functional scales back; a derived
        configuration keeps its parent's (_derived)."""
        return tuple(lcm(*(p[a].denominator for p in self.points)) for a in range(self.dim))

    @cached_property
    def integer_rows(self) -> dict:
        """label -> the homogenized row [p, 1] of its point, each axis
        scaled by _axis_scales, as ints: the one point matrix, read
        through homogenized.  The scaling is a positive diagonal map, so
        ranks, orientation signs and affine coordinates are the points'.
        A derived configuration keeps its parent's scales, under which
        its rows are still integral, and so its parent's rows."""
        scales = self._axis_scales
        return {
            lab: tuple(x.numerator * (s // x.denominator) for x, s in zip(p, scales)) + (1,)
            for lab, p in zip(self.labels, self.points)
        }

    @cached_property
    def chirotope(self) -> Chirotope:
        """The determinants of (d+1)-tuples of labels, each sorted
        tuple's taken once for as long as the object lives: orientation,
        and through it the placing sweep, the oracle's apex test and the
        general-position check, read their signs; the circuits,
        regular_subdivision, the folding rows and barycentric read what
        Cramer's rule makes of them."""
        return Chirotope(self)

    @cached_property
    def affine_basis(self) -> tuple:
        """The first labels, in label order, that span: the pivot
        columns of the homogenized rows taken as columns, so one
        reduction.  Fewer than d+1 when the points do not span."""
        columns = zip(*homogenized(self, self.labels))
        return tuple(self.labels[j] for j in linalg.pivot_columns(columns))

    @cached_property
    def hyperplanes(self) -> tuple:
        """(subset, h) for each d-subset of the labels that spans a
        hyperplane, in colexicographic order, h its integer functional
        on the homogenized rows (_integer_functional); `side_value`
        reads it at a point."""
        return tuple((subset, h) for subset in _colex(self.labels, self.dim)
                     if (h := _integer_functional(self, subset)) is not None)

    @cached_property
    def circuits(self) -> tuple:
        """Every signed circuit of the points, of every rank: (support,
        pos, neg), a minimal affinely dependent label set and the labels
        of its positive and negative coefficients.  Read off
        chirotope.dependence on the (d+2)-subsets in
        combinations(sorted(labels), d+2) order, keeping each support's
        first signs.  In a spanning configuration a nonzero dependence of
        d+2 labels is unique up to scale, so its support is a circuit,
        and every circuit C is one: C less a point extends to d+1
        independent points (De Loera, Rambau and Santos, Triangulations,
        2010).  A configuration that does not span is NotFullDimensional."""
        if affine_dim(self) != self.dim:
            raise NotFullDimensional(f"configuration does not span dimension {self.dim}")
        found = {}
        for subset in itertools.combinations(sorted(self.labels), self.dim + 2):
            lam = self.chirotope.dependence(subset)
            pos = frozenset(l for l, v in zip(subset, lam) if v > 0)
            if pos:  # the coefficients sum to 0, so neg is nonempty too
                neg = frozenset(l for l, v in zip(subset, lam) if v < 0)
                found.setdefault(pos | neg, (pos, neg))
        return tuple((s, pos, neg) for s, (pos, neg) in found.items())

    @cached_property
    def circuit_table(self) -> tuple:
        """The flips of the configuration: one (support, side_pos,
        side_neg) per circuit of d+2 labels, in the order of circuits.
        The two sides are the two triangulations of the circuit, as cell
        sets, side_pos dropping one label of the part without the
        largest label; a flip trades one for the other."""
        table = []
        for s, pos, neg in self.circuits:
            if len(s) == self.dim + 2:
                if max(s) in neg:
                    pos, neg = neg, pos
                table.append((s, frozenset(s - {l} for l in neg),
                              frozenset(s - {l} for l in pos)))
        return tuple(table)

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "labels": list(self.labels),
                "points": [
                    [[str(x.numerator), str(x.denominator)] for x in p]
                    for p in self.points
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PointConfiguration":
        with wire_format("configuration"):
            data = json.loads(text)
            # int() would truncate a JSON number 0.9 and read true as 1
            if not all(type(v) in (int, str) for row in data["points"]
                       for pair in row for v in pair):
                raise TypeError("numerators and denominators must be integers or strings")
            pts = tuple(
                tuple(Fraction(int(num), int(den)) for num, den in row)
                for row in data["points"]
            )
            labels = data.get("labels")  # a given list is used as given
            labels = tuple(range(1, len(pts) + 1) if labels is None else labels)
            if not all(type(v) is int for v in (data["dim"],) + labels):
                raise TypeError("dim and labels must be integers")
            return cls(dim=data["dim"], points=pts, labels=labels)


def homogenized(config: PointConfiguration, labels: Iterable[int]) -> list:
    """The row [p, 1] of each labeled point, in the given order, as the
    tuple of ints config.integer_rows caches: every determinant, rank
    and kernel of the points reads them."""
    rows = config.integer_rows
    try:
        return [rows[l] for l in labels]
    except KeyError as e:
        raise ValueError(f"label {e.args[0]} not in configuration") from None


class Chirotope:
    """The lazy memo behind PointConfiguration.chirotope (the chirotope
    of the oriented matroid of the points: Björner, Las Vergnas,
    Sturmfels, White and Ziegler, Oriented Matroids, 1999, ch. 7).  It
    keeps the integer determinant of the homogenized rows, the minor,
    of each sorted (d+1)-tuple of labels asked for; a sign in any other
    order is the minor's sign times the parity of the sort.  Cramer's
    rule reads off d+2 minors the affine dependence of a sorted
    (d+2)-tuple (`dependence`, also kept) and so a point's affine
    coordinates over a cell (`coordinates`).  The chirotope of a
    configuration derived from a parent's (PointConfiguration._derived)
    keeps its minors and dependences in the parent's dicts, whose keys
    may hold labels the derived one dropped: those it refuses."""

    __slots__ = ("config", "_minors", "_dependences", "_dropped")

    def __init__(self, config: PointConfiguration, parent: Chirotope | None = None):
        self.config = config
        # sorted labels -> determinant of their homogenized rows
        self._minors = parent._minors if parent else {}
        # sorted (d+2)-tuple -> its affine dependence
        self._dependences = parent._dependences if parent else {}
        # labels the keys may hold that config does not
        self._dropped = (parent._dropped.union(parent.config.labels).difference(config.labels)
                         if parent else frozenset())

    def minor(self, key: tuple) -> int:
        """The determinant of the homogenized rows of the sorted labels:
        0 when a label repeats.  An unknown label is a ValueError and is
        not remembered."""
        m = self._minors.get(key)
        if m is None:
            # the rows are integers, so their determinant is one
            m = self._minors[key] = linalg.det(homogenized(self.config, key)).numerator
        elif self._dropped and not self._dropped.isdisjoint(key):
            homogenized(self.config, key)  # refuses the dropped label
        return m

    def sign(self, labels: tuple) -> int:
        """The sign of the determinant of the homogenized rows of the
        labels, in the given order, read off the minor of the sorted
        labels."""
        m = self.minor(tuple(sorted(labels)))
        s = (m > 0) - (m < 0)
        inversions = sum(a > b for a, b in itertools.combinations(labels, 2))
        return -s if inversions & 1 else s

    def dependence(self, subset: tuple) -> tuple:
        """The affine dependence of a sorted (d+2)-tuple of labels by
        Cramer's rule: lam[i] = (-1)^i times the minor of the subset
        without its i-th label, so that sum lam[i] (p_i, 1) = 0 (expand
        the determinant of the rows with one of their columns repeated).
        All zero when the subset spans less than its dimension."""
        lam = self._dependences.get(subset)
        if lam is None:
            lam = self._dependences[subset] = tuple(
                (-1) ** i * self.minor(subset[:i] + subset[i + 1:]) for i in range(len(subset)))
        elif self._dropped and not self._dropped.isdisjoint(subset):
            homogenized(self.config, subset)  # refuses the dropped label
        return lam

    def coordinates(self, cell, labels):
        """(den, {label: numerators}): each label's affine coordinates
        over the cell's d+1 points, in sorted order, as integers over
        den = |M(cell)| > 0; None if the cell is degenerate.  Off the
        cell, lam = dependence(cell + q) has lam_q = +-M(cell), and q's
        coordinate at v is -lam_v / lam_q.  A cell without d+1 labels,
        or an unknown label, is a ValueError, and nothing is kept."""
        vertices = tuple(sorted(cell))
        if len(vertices) != self.config.dim + 1:
            raise ValueError(f"cell {vertices} has {len(vertices)} labels, "
                             f"not {self.config.dim + 1}")
        homogenized(self.config, labels)  # refuses an unknown label
        m = self.minor(vertices)
        if not m:
            return None
        den = abs(m)
        zeros = (0,) * len(vertices)
        out = {}
        for q in labels:
            i = bisect_left(vertices, q)
            if q in cell:
                out[q] = zeros[:i] + (den,) + zeros[i + 1:]
                continue
            lam = self.dependence(vertices[:i] + (q,) + vertices[i:])
            nums = lam[:i] + lam[i + 1:]  # the numerators are -sgn(lam_q) lam_v
            out[q] = nums if lam[i] < 0 else tuple(map(neg, nums))
        return den, out


def orientation(config: PointConfiguration, labels: Sequence[int]) -> int:
    """Sign of the determinant of the homogenized (d+1)-tuple, in the
    given label order; 0 iff affinely dependent, and so for a repeated
    label.  Read from config.chirotope, so each subset's determinant is
    taken once per configuration object.  A wrong number of labels or
    an unknown one, repeated labels or not, is a ValueError."""
    labels = tuple(labels)
    if len(labels) != config.dim + 1:
        raise ValueError(f"need {config.dim + 1} labels, got {len(labels)}")
    return config.chirotope.sign(labels)


def affine_dim(config: PointConfiguration) -> int:
    return len(config.affine_basis) - 1


def _integer_functional(config: PointConfiguration, labels) -> list | None:
    """The integer kernel h of the homogenized rows of the d labels, or
    None when they do not span a hyperplane: h.row vanishes on their
    rows, and its sign at another point's row (`side_value`) is the
    sign of hyperplane_functional there, since h's last nonzero entry
    is positive."""
    sol = linalg.kernel_integral(list(zip(*homogenized(config, labels))))
    return None if sol is None else sol[1]


def hyperplane_functional(config: PointConfiguration, labels: Sequence[int]):
    """Affine functional vanishing on the span of the given d labels,
    or None when they do not span a hyperplane.  Returned as
    (normal, offset) with f(x) = normal.x - offset and the last nonzero
    entry of (normal, -offset) 1: the integer kernel of the homogenized
    rows, scaled back to the axes, one Fraction per entry."""
    labels = tuple(labels)
    d = config.dim
    if len(labels) != d:
        raise ValueError(f"need {d} labels for a hyperplane in dim {d}")
    h = _integer_functional(config, labels)
    if h is None:
        return None
    g = [a * s for a, s in zip(h, config._axis_scales)] + [h[d]]
    last = next(v for v in reversed(g) if v)
    return tuple(Fraction(v, last) for v in g[:d]), Fraction(-g[d], last)


def _colex(labels, k):
    """The k-subsets of labels in colexicographic order: the subsets
    inside any prefix of labels come first."""
    # colex order is the lex order of the reversed labels, backwards
    for rev in reversed(list(itertools.combinations(labels[::-1], k))):
        yield rev[::-1]


def side_value(config: PointConfiguration, h, label: int) -> int:
    """h.row at the labeled point's integer row: positive, zero or
    negative as the point lies on the positive side of the hyperplane,
    on it or on the negative side."""
    return sum(map(mul, h, config.integer_rows[label]))


def normal_l1(config: PointConfiguration, h) -> int:
    """The 1-norm of h's normal in the configuration's own axes, so that
    |side_value| / normal_l1 is the point's normalized margin."""
    return sum(abs(a * s) for a, s in zip(h, config._axis_scales))


def functional_value(fn, x) -> Fraction:
    """f(x) = normal.x - offset for fn = (normal, offset)."""
    normal, offset = fn
    return sum(a * y for a, y in zip(normal, x)) - offset


@lru_cache(maxsize=256)
def facets(config: PointConfiguration) -> tuple[frozenset, ...]:
    """The label sets of the facets of the convex hull, by brute force
    over d-subsets, sorted by their sorted labels.

    Points lying on a facet hyperplane are merged into the facet's label
    set, so non-simplicial facets come out as maximal coplanar sets.
    """
    d = config.dim
    if affine_dim(config) != d:
        raise NotFullDimensional(f"configuration does not span dimension {d}")
    found = set()
    for subset in _colex(config.labels, d):
        fn = hyperplane_functional(config, subset)
        if fn is None:
            continue
        on, neg, pos = [], False, False
        for lab, p in zip(config.labels, config.points):
            v = functional_value(fn, p)
            if v == 0:
                on.append(lab)
            elif v > 0:
                pos = True
            else:
                neg = True
            if pos and neg:
                break
        if not (pos and neg):
            found.add(frozenset(on))
    return tuple(sorted(found, key=sorted))


@lru_cache(maxsize=1024)
def proper_faces(config: PointConfiguration) -> set[frozenset]:
    """Label sets of all proper nonempty faces of the hull, obtained by
    closing the facet family under intersection."""
    sets = set(facets(config))
    frontier = set(sets)
    while frontier:
        new = set()
        for a in frontier:
            for b in sets:
                c = a & b
                if c and c not in sets and c not in new:
                    new.add(c)
        sets |= new
        frontier = new
    return frozenset(sets)


def face_lattice_faces(config: PointConfiguration, k: int) -> set[frozenset]:
    """Vertex-label sets of the k-dimensional faces of the hull."""
    if not 0 <= k <= config.dim - 1:
        raise ValueError(f"k={k} outside [0, {config.dim - 1}]")
    return {s for s in proper_faces(config) if affine_dim(config.restrict(s)) == k}


def is_facet_meet(facet_sets, labels: Iterable[int]) -> bool:
    """The face test on a hull's facet label sets: whether the nonempty
    label set equals the meet of the facet sets that contain it."""
    s = frozenset(labels)
    if not s:
        return False
    meet = None
    for f in facet_sets:
        if s <= f:
            meet = f if meet is None else meet & f
    return meet == s


def is_face(config: PointConfiguration, labels: Iterable[int]) -> bool:
    """Whether the label set is exactly the set of configuration points
    of some proper face of the hull."""
    return is_facet_meet(facets(config), labels)


def _integer_row(config: PointConfiguration, q) -> list:
    """The row [q, 1] of a point, scaled like integer_rows and then by a
    positive integer, so that an integer functional's sign at it is its
    side of the hyperplane; a point of another dimension is a
    ValueError."""
    q = [parse_rational(x) for x in q]
    if len(q) != config.dim:
        raise ValueError(f"point has dimension {len(q)}, configuration {config.dim}")
    return linalg.clear_denominators([x * s for x, s in zip(q, config._axis_scales)] + [1])[1]


def _outward_functionals(config: PointConfiguration, face) -> list:
    """The outward integer functional of each facet of the hull that
    holds the labels of face: the functional of d labels spanning the
    facet (_integer_functional), signed so that side_value is 0 on the
    facet and negative at every point off it.  The functionals that are
    0 on a face and negative off it are the positive combinations of
    these (the face's normal cone)."""
    out = []
    for f in facets(config):
        if face <= f:
            spans = itertools.combinations(sorted(f), config.dim)
            h = next(filter(None, (_integer_functional(config, s) for s in spans)))
            off = next(l for l in config.labels if l not in f)
            out.append([-v for v in h] if side_value(config, h, off) > 0 else h)
    return out


def visibility(config: PointConfiguration, face: Iterable[int], p) -> tuple[bool, bool]:
    """(visible, hidden) for a face of the hull viewed from p.

    Visible means some affine functional is zero on the face, strictly
    positive at p, strictly negative on the remaining configuration
    points; hidden asks for strictly negative at p instead.  A face that
    is not a facet can be both.  Such functionals are the positive
    combinations of the outward functionals of the facets through the
    face, so p is visible when one of those is positive at p, and
    hidden when one is negative there.
    """
    face = frozenset(face)
    if not is_face(config, face):
        raise NotAFace(f"{sorted(face)} is not a face")
    row = _integer_row(config, p)
    values = [sum(map(mul, h, row)) for h in _outward_functionals(config, face)]
    return any(v > 0 for v in values), any(v < 0 for v in values)


def classify_visibility(config: PointConfiguration, face, p) -> str:
    vis, hid = visibility(config, face, p)
    if vis and hid:
        return "both"
    if vis:
        return "visible"
    if hid:
        return "hidden"
    return "neither"


def is_general_position(config: PointConfiguration, q) -> bool:
    """True iff no hyperplane spanned by d configuration points
    contains q: no zero among the side values of q's integer row on the
    configuration's cached hyperplanes."""
    row = _integer_row(config, q)
    return all(sum(map(mul, h, row)) for _, h in config.hyperplanes)


def _near_point(rng, p, scale) -> tuple[Fraction, ...]:
    """p with each coordinate moved by a draw of rng from the multiples
    of scale / 10^6 in [-scale, scale], one randint per coordinate."""
    return tuple(x + Fraction(rng.randint(-(10**6), 10**6), 10**6) * scale for x in p)


def configuration_in_general_position(config: PointConfiguration) -> bool:
    """No d+1 points on a common hyperplane: no zero in the chirotope."""
    subsets = itertools.combinations(config.labels, config.dim + 1)
    return all(orientation(config, s) for s in subsets)


def is_vertex(config: PointConfiguration, label: int) -> bool:
    """Whether the labeled point is a vertex of the hull: it is the one
    point, or no circuit has it alone as its positive or negative part
    (a point in the hull of others is, with some of them, a circuit
    whose positive part is the point alone, by Carathéodory: De Loera,
    Rambau and Santos, Triangulations, 2010).  Copies of the point of
    R^0 make such circuits too.  Two or more points that do not span
    are NotFullDimensional, as config.circuits is."""
    config.index(label)  # an unknown label is a ValueError
    return config.n == 1 or all({label} not in (pos, neg) for _, pos, neg in config.circuits)


def in_convex_position(config: PointConfiguration) -> bool:
    return all(is_vertex(config, lab) for lab in config.labels)


def centroid(config: PointConfiguration) -> tuple[Fraction, ...]:
    n = config.n
    if not n:
        raise ValueError("the centroid of no points")
    return tuple(
        sum(p[j] for p in config.points) / n for j in range(config.dim)
    )


def moment_curve_point(t: Fraction, d: int) -> tuple[Fraction, ...]:
    t = parse_rational(t)
    return tuple(t ** (j + 1) for j in range(d))


def cyclic_configuration(d: int, params: Sequence) -> PointConfiguration:
    """Points on the moment curve at the given (distinct, increasing)
    parameters; the standard realization of the cyclic polytope."""
    ts = [parse_rational(t) for t in params]
    if sorted(ts) != ts or len(set(ts)) != len(ts):
        raise ValueError("moment curve parameters must be strictly increasing")
    return PointConfiguration.from_rows([moment_curve_point(t, d) for t in ts])

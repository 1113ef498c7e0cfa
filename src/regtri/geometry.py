"""Exact geometric kernel.

Point configurations over arbitrary-precision rationals, with the
orientation predicate, brute-force facet enumeration, face lattice
extraction, and the visibility predicates used by lifting construction.
Every function is pure and every value immutable, so concurrent callers
need no locking.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from . import linalg
from .errors import NotAFace, NotFullDimensional, wire_format
from .linprog import max_margin, solve_lp  # noqa: F401  (perfbench traces this import site)

Rational = Fraction


def parse_rational(s) -> Fraction:
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    return Fraction(str(s))


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class PointConfiguration:
    """An ordered, labeled sequence of exact-rational points.

    Labels are the permanent identity of each point: configurations
    derived by deletion or contraction carry the original labels.
    Facts derived from the points alone, such as the circuit table, are
    computed once per object and are not part of equality, hashing or
    the JSON form.
    """

    dim: int
    points: tuple[tuple[Fraction, ...], ...]
    labels: tuple[int, ...]

    def __post_init__(self):
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
        for lab in drop:
            self.index(lab)
        keep = [(p, l) for p, l in zip(self.points, self.labels) if l not in drop]
        return PointConfiguration(
            self.dim, tuple(p for p, _ in keep), tuple(l for _, l in keep)
        )

    def restrict(self, labels: Iterable[int]) -> "PointConfiguration":
        keep = set(labels)
        kept = [(p, l) for p, l in zip(self.points, self.labels) if l in keep]
        return PointConfiguration(
            self.dim, tuple(p for p, _ in kept), tuple(l for _, l in kept)
        )

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
    def circuit_table(self) -> tuple:
        """The flips of the configuration: one (subset, side_pos,
        side_neg) per (d+2)-subset whose Radon partition has no zero
        coefficient, in combinations(sorted(labels), d+2) order.  The two
        sides are the two triangulations of the subset's circuit, as
        cell sets; a flip trades one for the other."""
        table = []
        for subset in itertools.combinations(sorted(self.labels), self.dim + 2):
            rp = _radon_partition(self, subset)
            if rp is None:
                continue
            pos, neg = rp
            s = frozenset(subset)
            table.append((
                s,
                frozenset(s - {l} for l in neg),
                frozenset(s - {l} for l in pos),
            ))
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
            pts = tuple(
                tuple(Fraction(int(num), int(den)) for num, den in row)
                for row in data["points"]
            )
            labels = tuple(data.get("labels") or range(1, len(pts) + 1))
            return cls(dim=data["dim"], points=pts, labels=labels)


def _radon_partition(config: PointConfiguration, subset):
    """Signs of the unique affine dependence on d+2 points, or None off
    general position."""
    lam = linalg.kernel_vector(homogenized(config, subset))
    if lam is None or any(v == 0 for v in lam):
        return None
    pos = frozenset(l for l, v in zip(subset, lam) if v > 0)
    neg = frozenset(l for l, v in zip(subset, lam) if v < 0)
    return pos, neg


@dataclass(frozen=True)
class FaceRecord:
    """A facet given by its label set and a certified supporting
    functional: normal.x - offset vanishes on the face and is strictly
    negative on every other configuration point."""

    labels: frozenset[int]
    normal: tuple[Fraction, ...]
    offset: Fraction

    def value(self, point) -> Fraction:
        return functional_value((self.normal, self.offset), point)


def homogenized(config: PointConfiguration, labels: Iterable[int]) -> list:
    """The row [p, 1] of each labeled point, in the given order."""
    return [list(config.point(l)) + [1] for l in labels]


def orientation(config: PointConfiguration, labels: Sequence[int]) -> int:
    """Sign of the determinant of the homogenized (d+1)-tuple, in the
    given label order; 0 iff affinely dependent."""
    labels = tuple(labels)
    if len(labels) != config.dim + 1:
        raise ValueError(f"need {config.dim + 1} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        return 0
    return linalg.det_sign(homogenized(config, labels))


def affine_dim(config: PointConfiguration) -> int:
    if config.n == 0:
        return -1
    base = config.points[0]
    diffs = [[x - b for x, b in zip(p, base)] for p in config.points[1:]]
    return linalg.rank(diffs)


def hyperplane_functional(config: PointConfiguration, labels: Sequence[int]):
    """Affine functional vanishing on the span of the given d labels,
    or None when they do not span a hyperplane.  Returned as
    (normal, offset) with f(x) = normal.x - offset: the kernel of the
    homogenized rows [p, 1], which is one-dimensional iff they have
    rank d."""
    labels = tuple(labels)
    d = config.dim
    if len(labels) != d:
        raise ValueError(f"need {d} labels for a hyperplane in dim {d}")
    vec = linalg.kernel_vector(list(zip(*homogenized(config, labels))))
    if vec is None or not any(vec[:d]):
        return None
    return tuple(vec[:d]), -vec[d]


def spanned_hyperplanes(config: PointConfiguration, labels=None):
    """Yield (subset, hyperplane_functional) for each d-subset of labels
    (default: all) that spans a hyperplane, in colexicographic order:
    the subsets inside any prefix of labels come first."""
    labels = config.labels if labels is None else labels
    # colex order is the lex order of the reversed labels, backwards
    for rev in reversed(list(itertools.combinations(labels[::-1], config.dim))):
        subset = rev[::-1]
        fn = hyperplane_functional(config, subset)
        if fn is not None:
            yield subset, fn


def functional_value(fn, x) -> Fraction:
    """f(x) = normal.x - offset for fn = (normal, offset)."""
    normal, offset = fn
    return sum(a * y for a, y in zip(normal, x)) - offset


@lru_cache(maxsize=256)
def facets(config: PointConfiguration):
    """All facets of the convex hull, by brute force over d-subsets.

    Points lying on a facet hyperplane are merged into the facet's label
    set, so non-simplicial facets come out as maximal coplanar sets.
    """
    d = config.dim
    if affine_dim(config) != d:
        raise NotFullDimensional(f"configuration does not span dimension {d}")
    found: dict[frozenset, FaceRecord] = {}
    for _, fn in spanned_hyperplanes(config):
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
        if pos and neg:
            continue
        normal, offset = fn
        if pos:
            normal = tuple(-a for a in normal)
            offset = -offset
        key = frozenset(on)
        if key not in found:
            found[key] = FaceRecord(key, normal, offset)
    return tuple(sorted(found.values(), key=lambda f: sorted(f.labels)))


@lru_cache(maxsize=1024)
def proper_faces(config: PointConfiguration) -> set[frozenset]:
    """Label sets of all proper nonempty faces of the hull, obtained by
    closing the facet family under intersection."""
    sets = {f.labels for f in facets(config)}
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
    out = set()
    for s in proper_faces(config):
        if affine_dim(config.restrict(s)) == k:
            out.add(s)
    return out


def is_face(config: PointConfiguration, labels: Iterable[int]) -> bool:
    """Whether the label set is exactly the set of configuration points
    of some proper face of the hull."""
    s = frozenset(labels)
    if not s:
        return False
    meet = None
    for f in facets(config):
        if s <= f.labels:
            meet = f.labels if meet is None else meet & f.labels
    return meet == s


def _strictly_separable(base, below, on=()):
    """Some a with a.(x - base) = 0 for every x in `on` and
    a.(x - base) < 0 for every x in `below`, or None if there is none.
    One max_margin LP over nonnegative (u, v, delta) with a = u - v:
    a.(x - base) + delta <= 0 for each point below, a.(x - base) <= 0
    and -a.(x - base) <= 0 for each point on."""
    d = len(base)
    rows = []
    for q in below:
        diff = [x - y for x, y in zip(q, base)]
        rows.append(diff + [-x for x in diff] + [1])
    for q in on:
        diff = [x - y for x, y in zip(q, base)]
        neg = [-x for x in diff]
        rows += [diff + neg + [0], neg + diff + [0]]
    res = max_margin(rows, 2 * d + 1)[3]
    if res.value <= 0:
        return None
    return tuple(u - v for u, v in zip(res.x[:d], res.x[d : 2 * d]))


def visibility(config: PointConfiguration, face: Iterable[int], p) -> tuple[bool, bool]:
    """(visible, hidden) for a face of the hull viewed from p.

    Visible means some affine functional is zero on the face, strictly
    positive at p, strictly negative on the remaining configuration
    points; hidden asks for strictly negative at p instead.  A face that
    is not a facet can be both.  Decided by exact LP feasibility with a
    maximized margin, with the functional's offset fixed by a face point.
    """
    face = frozenset(face)
    if not is_face(config, face):
        raise NotAFace(f"{sorted(face)} is not a face")
    p = tuple(parse_rational(x) for x in p)
    first, *rest = sorted(face)
    base = config.point(first)
    on = [config.point(lab) for lab in rest]
    others = [q for lab, q in zip(config.labels, config.points) if lab not in face]
    # a.(mirror - base) = -a.(p - base): mirror below means p above
    mirror = tuple(2 * b - x for b, x in zip(base, p))
    return (
        _strictly_separable(base, [mirror] + others, on) is not None,
        _strictly_separable(base, [p] + others, on) is not None,
    )


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
    contains q."""
    q = tuple(parse_rational(x) for x in q)
    return all(functional_value(fn, q) != 0 for _, fn in spanned_hyperplanes(config))


def configuration_in_general_position(config: PointConfiguration) -> bool:
    """No d+1 points on a common hyperplane."""
    for subset in itertools.combinations(config.labels, config.dim + 1):
        if orientation(config, subset) == 0:
            return False
    return True


def is_vertex(config: PointConfiguration, label: int) -> bool:
    """Exact test for p being a vertex of the hull."""
    if config.dim == 0:
        return config.n == 1
    others = [q for lab, q in zip(config.labels, config.points) if lab != label]
    return _strictly_separable(config.point(label), others) is not None


def in_convex_position(config: PointConfiguration) -> bool:
    if config.dim == 0:
        return True
    return all(is_vertex(config, lab) for lab in config.labels)


def centroid(config: PointConfiguration) -> tuple[Fraction, ...]:
    n = config.n
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

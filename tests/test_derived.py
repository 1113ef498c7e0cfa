"""Configurations derived by delete, restrict and reordered keep their
parent's integer rows and read and fill their parent's memo of minors.
Every fact read off them must be the one a fresh configuration of the
same labeled points reads, and a label they dropped stays unknown to
them."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtri.enumeration import flip_neighbors
from regtri.errors import RegtriError
from regtri.geometry import (
    PointConfiguration,
    facets,
    homogenized,
    hyperplane_functional,
    is_general_position,
    orientation,
)
from regtri.triangulations import (
    Triangulation,
    _folding_pass,
    barycentric,
    is_regular,
    placing_triangulation,
    regular_subdivision,
)


NESTED = [[4, 0], [0, 4], [0, 0], [2, 1], [1, 2], [1, 1]]
# the twisted triangulation of the nested triangles, as positions in NESTED
TWISTED = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5), (3, 4, 5)]


def seeded_configuration(rng, d, n, nested):
    """(configuration, twisted cells or None): n distinct points of
    dimension d under shuffled labels, each random coordinate over a
    denominator from 1 to 6, so that the points a derivation drops often
    set an axis scale of the parent's.  Random points almost never give
    a non-regular triangulation, so a nested one starts from the nested
    triangles moved by odd multiples of 1/64, whose twisted
    triangulation is not regular."""
    points = [tuple(x + F(rng.choice((-3, -1, 1, 3)), 64) for x in r)
              for r in NESTED] if nested else []
    while len(points) < n:
        p = tuple(F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(d))
        if p not in points:
            points.append(p)
    labels = rng.sample(range(1, 3 * n), n)
    twisted = Triangulation([{labels[i] for i in c} for c in TWISTED]) if nested else None
    return PointConfiguration.from_rows(points, labels), twisted


def derive(rng, cfg):
    """delete, restrict or reordered on a random subset or order, keeping
    at least d+2 points."""
    labels = list(cfg.labels)
    kind = rng.choice(("delete", "restrict", "reordered"))
    if kind == "reordered":
        return cfg.reordered(rng.sample(labels, len(labels)))
    keep = rng.sample(labels, rng.randint(min(cfg.dim + 2, len(labels)), len(labels)))
    if kind == "restrict":
        return cfg.restrict(keep)
    return cfg.delete(l for l in labels if l not in keep)


def outcome(f, *args):
    """f's value, or the class and arguments of the error it raised."""
    try:
        return f(*args)
    except (ValueError, RegtriError) as e:
        return type(e), e.args


def facts(cfg, seed, twisted=None):
    """What the program reads off the points of cfg, in cfg's label
    order, with random choices drawn from the seed alone; with the
    twisted cells too when cfg keeps their labels."""
    rng = random.Random(seed)
    d, labels = cfg.dim, sorted(cfg.labels)
    out = {
        "signs": [orientation(cfg, rng.sample(s, len(s)))
                  for s in itertools.combinations(cfg.labels, d + 1)],
        "circuits": outcome(lambda: cfg.circuits),
        "circuit_table": outcome(lambda: cfg.circuit_table),
        # uncached: the lru_cache would hand an equal configuration this entry
        "facets": outcome(facets.__wrapped__, cfg),
        "functionals": [hyperplane_functional(cfg, s)
                        for s in itertools.combinations(cfg.labels, d)],
        "general": is_general_position(
            cfg, [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(d)]),
    }
    w = {l: F(rng.randint(-9, 9), rng.randint(1, 4)) for l in labels}
    sub = outcome(regular_subdivision, cfg, w)
    out["subdivision"] = sub
    start = outcome(placing_triangulation, cfg)
    if isinstance(start, Triangulation):
        tris = [start, *flip_neighbors(start, cfg)]
        if not isinstance(sub, tuple) and sub.is_simplicial(d):
            tris.append(Triangulation(sub.cells))
        if twisted and twisted.used_labels <= set(labels):
            tris.append(twisted)
        column = {l: k for k, l in enumerate(labels)}
        out["folding"] = [outcome(_folding_pass, cfg, t.cells, column, len(labels) + 1, True)
                          for t in tris]
        # not validated: the twisted cells need not cover the other points
        out["regularity"] = [outcome(is_regular, t, cfg) for t in tris]
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]), st.booleans())
def test_derived_configurations_read_what_fresh_ones_read(seed, d, nested):
    rng = random.Random(seed)
    nested = nested and d == 2
    parent, twisted = seeded_configuration(rng, d, rng.randint(d + 3, d + 5) + nested, nested)
    facts(parent, seed, twisted)  # fills the memo the derived configurations read
    for subset in itertools.combinations(sorted(parent.labels), d + 2):
        parent.chirotope.dependence(subset)
    child = derive(rng, parent)
    grandchild = derive(rng, child)
    for derived in (child, grandchild):
        fresh = PointConfiguration(derived.dim, derived.points, derived.labels)
        assert derived == fresh
        assert derived.chirotope._minors is parent.chirotope._minors
        assert facts(derived, seed, twisted) == facts(fresh, seed, twisted)
        cell = tuple(derived.labels[:d + 1])
        for dropped in set(parent.labels) - set(derived.labels):
            with pytest.raises(ValueError, match=f"label {dropped} not in configuration"):
                homogenized(derived, [dropped])
            with pytest.raises(ValueError, match=f"label {dropped} not in configuration"):
                barycentric(derived, cell, dropped)
            with pytest.raises(ValueError, match=f"label {dropped} not in configuration"):
                derived.chirotope.coordinates(frozenset(cell), [dropped])
            # the parent's memo holds these keys; the derived one refuses them
            with_dropped = cell[1:] + (dropped,)
            with pytest.raises(ValueError, match=f"label {dropped} not in configuration"):
                derived.chirotope.coordinates(frozenset(with_dropped), [cell[0]])
            with pytest.raises(ValueError, match=f"label {dropped} not in configuration"):
                orientation(derived, with_dropped)
            with pytest.raises(ValueError, match=f"label {dropped} not in configuration"):
                derived.chirotope.dependence(tuple(sorted(with_dropped + (cell[0],))))

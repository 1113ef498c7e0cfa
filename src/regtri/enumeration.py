"""Point splitting, the one-parameter lifting sweep, inseparability
checking, and enumeration of (regular) triangulations.

The flip-based enumerator relies on connectivity of regular
triangulations through the secondary polytope, an external fact; it is
therefore cross-checked against an independent extension-search oracle
on every instance small enough for the oracle.

Flips come from the configuration's circuit table
(`PointConfiguration.circuit_table`), computed once per configuration
object: every (d+2)-subset whose Radon partition has no zero
coefficient, with the two triangulations of its circuit as ready-made
cell sets.  A flip is then set operations on a triangulation's cells,
and the flips found from one table share their cell objects.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    GenericityFailure,
    NonTriangulationSnapshot,
    NotATriangulation,
    NotAVertex,
    RegtriError,
)
from .geometry import (
    PointConfiguration,
    facets,
    functional_value,
    is_general_position,
    is_vertex,
    moment_curve_point,
    orientation,
    parse_rational,
    spanned_hyperplanes,
)
from .linprog import max_margin, solve_lp  # noqa: F401  (perfbench traces this import site)
from .triangulations import (
    Triangulation,
    barycentric,
    height_separation_rows,
    is_regular,
    placing_triangulation,
    regular_subdivision,
    simplices_properly_intersect,
)


@dataclass(frozen=True)
class SplitPair:
    """A configuration containing a vertex p and a certified
    general-position copy p' within epsilon of it."""

    config: PointConfiguration
    p_label: int
    p_prime_label: int
    epsilon: Fraction


@dataclass(frozen=True)
class SweepTrace:
    """Record of one sweep of the lifting family w_t: breakpoints carry
    the flat cell tau ∪ {p, p'} witnessing each transition, snapshots
    the triangulation strictly between consecutive breakpoints, and
    partitions the split (L_t, L'_t) of the link cells."""

    base_w: dict
    breakpoints: tuple  # of (t, frozenset flat cell), sorted by t
    snapshots: tuple  # of (t, Triangulation)
    partitions: tuple  # of (L_t, L'_t) frozensets of link cells


def _hyperplane_gap(config: PointConfiguration, p_label: int) -> Fraction:
    """Smallest normalized margin |f(p)| / |f|_1 over hyperplanes
    spanned by the other points; an exact lower bound (up to the norm
    choice) on how far p can move before crossing one."""
    p = config.point(p_label)
    others = [l for l in config.labels if l != p_label]
    gaps = [
        abs(functional_value(fn, p)) / sum(abs(a) for a in fn[0])
        for _, fn in spanned_hyperplanes(config, others)
    ]
    if not any(gaps):
        raise RegtriError("no spanned hyperplane; configuration too small")
    return min(g for g in gaps if g)


def split_point(
    config: PointConfiguration,
    p_label: int,
    epsilon=None,
    seed: int = 0,
) -> SplitPair:
    """Add a near-copy p' of the vertex p, sampled in the epsilon-ball
    and certified in general position with respect to everything else
    and a vertex of the new configuration.
    Default epsilon is half the gap from p to the nearest spanned
    hyperplane, so p' inherits p's cell of the hyperplane arrangement.
    """
    if not is_vertex(config, p_label):
        raise NotAVertex(f"label {p_label} is not a vertex")
    if epsilon is None:
        epsilon = _hyperplane_gap(config, p_label) / 2
    else:
        epsilon = parse_rational(epsilon)
    p = config.point(p_label)
    rng = random.Random(seed)
    for _ in range(1000):
        offset = tuple(
            Fraction(rng.randint(-(10**6), 10**6), 10**6) * epsilon
            for _ in range(config.dim)
        )
        if all(o == 0 for o in offset):
            continue
        cand = tuple(x + o for x, o in zip(p, offset))
        if not is_general_position(config, cand):
            continue
        new = config.append_point(cand)
        p_prime = new.labels[-1]
        if not is_vertex(new, p_prime):
            continue
        return SplitPair(new, p_label, p_prime, epsilon)
    raise RegtriError("could not sample a general-position split point")


def _heights_at(w: dict, t: Fraction, p: int, pp: int) -> dict:
    wt = dict(w)
    if t <= 0:
        wt[pp] = w[pp] - t
    if t >= 0:
        wt[p] = w[p] + t
    return wt


def _cell_height(config, w, cell, label):
    """Height at the point `label` of the hyperplane through the lifted
    points of `cell`; None when the cell is affinely degenerate."""
    coords = barycentric(config, cell, label)
    if coords is None:
        return None
    return sum(lam * w[l] for l, lam in coords.items())


def t_sweep(pair: SplitPair, t: Triangulation, w: dict) -> SweepTrace:
    """Sweep the one-parameter family of liftings w_t that raises p'
    for t < 0 and p for t > 0, collecting the triangulation on each
    interval between breakpoints.

    The heights w must induce t on the configuration without p' and its
    relabeled copy on the configuration without p (a shared
    inseparability witness); breakpoints are solved exactly from the
    flatness condition of each link cell joined with {p, p'}.
    """
    config = pair.config
    p, pp = pair.p_label, pair.p_prime_label
    d = config.dim
    missing = sorted(set(config.labels) - set(w))
    if missing:
        raise ValueError(f"heights missing for labels {missing}")
    w = {l: parse_rational(w[l]) for l in config.labels}

    without_pp = config.delete([pp])
    without_p = config.delete([p]).relabel({pp: p})
    sub = regular_subdivision(without_pp, {l: w[l] for l in without_pp.labels})
    if sub.cells != t.cells:
        raise ValueError("heights do not induce the given triangulation")
    w_other = {l: w[l] for l in config.labels if l != p}
    w_other[p] = w_other.pop(pp)
    sub2 = regular_subdivision(without_p, w_other)
    if sub2.cells != t.cells:
        raise ValueError("heights are not a shared inseparability witness")

    link = t.link(p)
    candidates = []
    for tau in link.cells:
        flat = tau | {p, pp}
        # t <= 0 side: lifted p' meets the hyperplane of tau ∪ {p}
        h = _cell_height(config, w, tau | {p}, pp)
        if h is not None:
            tv = w[pp] - h
            if tv <= 0:
                candidates.append((tv, flat))
        # t >= 0 side: lifted p meets the hyperplane of tau ∪ {p'}
        h = _cell_height(config, w, tau | {pp}, p)
        if h is not None:
            tv = h - w[p]
            if tv >= 0:
                candidates.append((tv, flat))

    breakpoints = []
    for tv, flat in sorted(set(candidates)):
        sub_t = regular_subdivision(config, _heights_at(w, tv, p, pp))
        if any(flat <= c for c in sub_t.cells):
            breakpoints.append((tv, flat))
    times = [tv for tv, _ in breakpoints]
    if len(set(times)) != len(times):
        raise GenericityFailure("two cells flatten at the same parameter")

    if times:
        samples = [times[0] - 1]
        samples += [(a + b) / 2 for a, b in zip(times, times[1:])]
        samples.append(times[-1] + 1)
    else:
        samples = [Fraction(0)]

    snapshots = []
    partitions = []
    for s in samples:
        sub_s = regular_subdivision(config, _heights_at(w, s, p, pp))
        if not sub_s.is_simplicial(d):
            raise NonTriangulationSnapshot(f"non-simplicial snapshot at t={s}")
        tri = Triangulation(sub_s.cells)
        snapshots.append((s, tri))
        l_t = frozenset(c - {p} for c in tri.cells if p in c and pp not in c)
        lp_t = frozenset(c - {pp} for c in tri.cells if pp in c and p not in c)
        partitions.append((l_t, lp_t))
    return SweepTrace(w, tuple(breakpoints), tuple(snapshots), tuple(partitions))


def shared_witness(config: PointConfiguration, i: int, j: int, t: Triangulation):
    """Heights on all of config inducing t on config minus p_j and the
    relabeled copy of t on config minus p_i, or None.

    t lives on the labels of config minus p_j (so it uses i, not j).
    Decided by one LP over shifted heights in [0, 2] with a maximized
    strict margin shared by both constraint systems.
    """
    labels = sorted(config.labels)
    idx = {l: k for k, l in enumerate(labels)}
    nv = len(labels) + 1
    without_j = config.delete([j])
    without_i = config.delete([i])
    t_on_i = t.relabel({i: j})  # uses j in place of i
    try:
        rows = height_separation_rows(
            without_j, t.cells, {l: idx[l] for l in without_j.labels}, nv
        )
        rows += height_separation_rows(
            without_i,
            t_on_i.cells,
            {l: idx[i if l == j else l] for l in without_i.labels},
            nv,
        )
    except NotATriangulation:
        return None
    _, _, _, res = max_margin(rows, nv)
    if not res.optimal or res.value <= 0:
        return None
    return {lab: res.x[k] - 1 for k, lab in enumerate(labels)}


@dataclass(frozen=True)
class InseparabilityReport:
    inseparable: bool
    witnesses: dict = field(default_factory=dict)  # Triangulation -> heights
    reason: str | None = None


def check_inseparable(config: PointConfiguration, i: int, j: int) -> InseparabilityReport:
    """Decide whether p_i and p_j are triangulation-inseparable: the
    regular triangulations of the two one-point deletions agree up to
    relabeling j to i, and each is induced on both deletions by one
    common height vector."""
    if i == j:
        raise ValueError("need two distinct labels")
    r_i = enumerate_regular(config.delete([i]))
    r_j = enumerate_regular(config.delete([j]))
    r_i_relabeled = {t.relabel({j: i}) for t in r_i}
    if r_i_relabeled != r_j:
        return InseparabilityReport(False, reason="triangulation sets differ")
    witnesses = {}
    for t in sorted(r_j, key=lambda t: sorted(sorted(c) for c in t.cells)):
        w = shared_witness(config, i, j, t)
        if w is None:
            return InseparabilityReport(
                False, witnesses=witnesses, reason="no shared witness"
            )
        witnesses[t] = w
    return InseparabilityReport(True, witnesses=witnesses)


def flip_neighbors(t: Triangulation, config: PointConfiguration):
    """All triangulations one bistellar flip away, over full-dimensional
    circuits (d+2 point subsets in general position) among the labels t
    uses, read from config's circuit table."""
    used = t.used_labels
    out = []
    for s, side_pos, side_neg in config.circuit_table:
        if not s <= used:
            continue
        if side_pos <= t.cells:
            out.append(Triangulation((t.cells - side_pos) | side_neg))
        elif side_neg <= t.cells:
            out.append(Triangulation((t.cells - side_neg) | side_pos))
    return out


def enumerate_regular(config: PointConfiguration, budget=None) -> set:
    """All regular triangulations, by flip search from the placing
    triangulation restricted to certified-regular nodes."""
    found = set()
    frontier = []

    def add(t):
        found.add(t)
        if budget is not None and len(found) > budget:
            raise BudgetExceeded(len(found), partial=found, frontier=frontier)
        frontier.append(t)

    add(placing_triangulation(config))
    while frontier:
        t = frontier.pop()
        for nb in flip_neighbors(t, config):
            if nb not in found and is_regular(nb, config).regular:
                add(nb)
    return found


def enumerate_all_oracle(config: PointConfiguration, budget=None) -> set:
    """Every triangulation, by deterministic extension search.

    The search fixes the lexicographically first hull facet, branches
    over the apex of the unique cell over it, then repeatedly extends
    across the lexicographically first open ridge; each triangulation is
    produced exactly once.  Independent of the flip enumerator by
    design, so the two can cross-check each other.
    """
    d = config.dim
    hull = facets(config)
    for f in hull:
        if len(f.labels) != d:
            raise GenericityFailure("non-simplicial hull facet; oracle needs "
                                    "general position")
    boundary = {f.labels for f in hull}
    results = set()

    def open_ridges(cells):
        count = {}
        for c in cells:
            for r in itertools.combinations(sorted(c), d):
                count[frozenset(r)] = count.get(frozenset(r), 0) + 1
        out = []
        for r, k in count.items():
            if k == 1 and not any(r <= b for b in boundary):
                out.append(r)
        return out

    def apex_candidates(cells, ridge):
        owner = next(c for c in cells if ridge <= c)
        other = next(iter(owner - ridge))
        ridge_sorted = sorted(ridge)
        sign_owner = orientation(config, ridge_sorted + [other])
        out = []
        for lab in config.labels:
            if lab in ridge:
                continue
            s = orientation(config, ridge_sorted + [lab])
            if s == 0 or s == sign_owner:
                continue
            cand = ridge | {lab}
            if cand in cells:
                continue
            if all(
                simplices_properly_intersect(config, cand, c)
                for c in cells
            ):
                out.append(cand)
        return out

    def extend(cells):
        ridges = open_ridges(cells)
        if not ridges:
            results.add(Triangulation(frozenset(cells)))
            if budget is not None and len(results) > budget:
                raise BudgetExceeded(len(results), partial=results)
            return
        ridge = min(ridges, key=sorted)
        for cand in apex_candidates(cells, ridge):
            extend(cells | {cand})

    start_facet = min(boundary, key=sorted)
    fn = next(f for f in hull if f.labels == start_facet)
    for lab in config.labels:
        if lab in start_facet or fn.value(config.point(lab)) == 0:
            continue
        extend({start_facet | {lab}})
    return results


@dataclass(frozen=True)
class RealizationRun:
    """A cyclic configuration built by sliding each new moment-curve
    point toward the last one until the pair is certified
    triangulation-inseparable.  bound is triangulation_count_bound(n,
    d), a lower bound on the number of regular triangulations of
    config."""

    config: PointConfiguration
    q_label: int
    params: dict  # label -> moment curve parameter
    bound: int
    halvings: tuple  # halving count per sliding stage


def triangulation_count_bound(n: int, d: int) -> int:
    """Lower bound on the number of regular triangulations of the
    inseparable cyclic realization.  Adding the point m+1 next to its
    inseparable partner multiplies the count by at least C + 1, where
    C = C(m-d-1+k, k) is the fewest cells in a triangulation of the
    vertex figure, a k-neighborly (d-1)-polytope on m-1 vertices, and
    k = (d-1)//2 (the splitting inequality of criterion 3)."""
    k = (d - 1) // 2
    if k == 0:
        return 1
    out = 1
    for m in range(d, n):
        out *= math.comb(m - d - 1 + k, k) + 1
    return out


def cyclic_inseparable_realization(d: int, n: int, max_halvings: int = 40) -> RealizationRun:
    """Realize the cyclic polytope on the moment curve with each point
    after the initial simplex certified inseparable from the last point
    at its insertion stage, which forces the regular triangulation
    count to multiply by at least one more than the cell bound of the
    vertex figure at every step."""
    if n < d + 2:
        raise ValueError("need n >= d + 2")
    q_param = Fraction(n)
    params = {k: Fraction(k) for k in range(1, d + 1)}
    q_label = d + 1
    params[q_label] = q_param
    rows = [moment_curve_point(params[l], d) for l in sorted(params)]
    config = PointConfiguration.from_rows(rows, sorted(params))
    halvings = []
    gap = Fraction(1)
    for i in range(d + 2, n + 1):
        placed = False
        for h in range(max_halvings):
            t_new = q_param - gap
            if any(abs(t_new - t) == 0 for t in params.values()):
                gap /= 2
                continue
            cand = config.append_point(moment_curve_point(t_new, d), i)
            if check_inseparable(cand, i, q_label).inseparable:
                config = cand
                params[i] = t_new
                halvings.append(h)
                gap /= 2
                placed = True
                break
            gap /= 2
        if not placed:
            raise RegtriError(f"could not certify inseparability at point {i}")
    return RealizationRun(
        config, q_label, params, triangulation_count_bound(n, d), tuple(halvings)
    )

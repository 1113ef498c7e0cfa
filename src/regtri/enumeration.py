"""Point splitting, the one-parameter lifting sweep, inseparability
checking, and enumeration of (regular) triangulations.

The flip-based enumerator relies on connectivity of regular
triangulations through the secondary polytope, an external fact; it is
therefore cross-checked against an independent extension-search oracle
on every instance small enough for the oracle.

Flips come from the configuration's circuit table
(`PointConfiguration.circuit_table`), read once per configuration object
off its circuits: every circuit of d+2 labels, with its two
triangulations as ready-made cell sets.  A flip is then set operations
on a triangulation's cells, and the flips found from one table share
their cell objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

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
    _integer_row,
    _near_point,
    _outward_functionals,
    configuration_in_general_position,
    cyclic_configuration,
    facets,
    is_general_position,
    is_vertex,
    moment_curve_point,
    normal_l1,
    orientation,
    parse_rational,
    side_value,
)
from .linprog import max_margin, solve_lp  # noqa: F401  (perfbench traces this import site)
from .triangulations import (
    Triangulation,
    _folding_pass,
    _properly_intersect,
    is_regular,
    min_cells_bound,
    placing_triangulation,
    regular_subdivision,
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
    spanned by the other points, the configuration's hyperplanes whose
    subsets leave p out; an exact lower bound (up to the norm choice)
    on how far p can move before crossing one.  Each margin is read in
    integers: |h.row_p| over the 1-norm of h's normal."""
    config.index(p_label)  # an unknown label is a ValueError
    gaps = [
        Fraction(abs(side_value(config, h, p_label)), normal_l1(config, h))
        for subset, h in config.hyperplanes if p_label not in subset
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
    Both checks read the configuration's cached hyperplanes and its
    facets: p' is in general position when it lies off every
    hyperplane they span (is_general_position), which also keeps p'
    off p, and such a p' is a vertex exactly when it lies outside the
    hull, that is when some facet's outward integer functional is
    positive at it (the values visibility reads).  A configuration
    that does not span is NotFullDimensional, as facets is.
    """
    if not is_vertex(config, p_label):
        raise NotAVertex(f"label {p_label} is not a vertex")
    if epsilon is None:
        epsilon = _hyperplane_gap(config, p_label) / 2
    else:
        epsilon = parse_rational(epsilon)
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
    outward = _outward_functionals(config, frozenset())  # of every facet
    p = config.point(p_label)
    rng = random.Random(seed)
    for _ in range(1000):
        cand = _near_point(rng, p, epsilon)
        row = _integer_row(config, cand)
        if is_general_position(config, cand) and any(sum(map(mul, h, row)) > 0 for h in outward):
            new = config.append_point(cand)
            return SplitPair(new, p_label, new.labels[-1], epsilon)
    raise RegtriError("could not sample a general-position split point")


def _heights_at(w: dict, t: Fraction, p: int, pp: int) -> dict:
    wt = dict(w)
    if t <= 0:
        wt[pp] = w[pp] - t
    if t >= 0:
        wt[p] = w[p] + t
    return wt


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
    if p == pp:
        raise ValueError("need two distinct labels")
    d = config.dim
    missing = sorted(set(config.labels) - set(w))
    if missing:
        raise ValueError(f"heights missing for labels {missing}")
    w = {l: parse_rational(w[l]) for l in config.labels}

    if regular_subdivision(config.delete([pp]), w).cells != t.cells:
        raise ValueError("heights do not induce the given triangulation")
    other = Triangulation(regular_subdivision(config.delete([p]), w).cells)
    if other.relabel({pp: p}).cells != t.cells:
        raise ValueError("heights are not a shared inseparability witness")

    # The lifted flat lies in one hyperplane when lam.w_t = 0, lam its
    # affine dependence (Chirotope.dependence); let s = lam.w.  w_t
    # raises p' by -t for t <= 0, so t = s/lam_p' there, and p by t for
    # t >= 0, so t = -s/lam_p; a zero lam_p' (lam_p) is the degenerate
    # cell tau + p (tau + p').
    candidates = []
    for tau in t.link(p).cells:
        flat = tau | {p, pp}
        key = tuple(sorted(flat))
        lam = dict(zip(key, config.chirotope.dependence(key)))
        s = sum(v * w[l] for l, v in lam.items())
        if lam[pp] and (tv := s / lam[pp]) <= 0:
            candidates.append((tv, flat))
        if lam[p] and (tv := -s / lam[p]) >= 0:
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
    strict margin shared by both systems of folding rows.  The pass
    that builds the rows also validates both cell sets, from the same
    coordinates, as the folding lemma needs: None if either fails.  In
    the second system p_j takes p_i's place and reads p_i's height, so
    the returned heights give p_j that height too: read per label, they
    induce both triangulations, as t_sweep reads them.  Both deletions
    read config's memo of minors and of hull volumes
    (PointConfiguration.delete), so validating takes one placing per
    deletion for all the calls on config.
    """
    labels = sorted(config.labels)
    idx = {l: k for k, l in enumerate(labels)}
    nv = len(labels) + 1
    without_i, without_j = config.delete([i]), config.delete([j])
    on_j = {l: idx[l] for l in without_j.labels}
    on_i = {l: idx[i if l == j else l] for l in without_i.labels}  # j reads i's height
    try:
        rows = _folding_pass(without_j, t.cells, on_j, nv, validate=True)[0]
        rows += _folding_pass(without_i, t.relabel({i: j}).cells, on_i, nv, validate=True)[0]
    except NotATriangulation:
        return None
    _, _, _, res = max_margin(rows, nv)
    if res.value <= 0:
        return None
    w = {lab: res.x[k] - 1 for k, lab in enumerate(labels)}
    w[j] = w[i]  # the variable p_j reads; its own is in no row
    return w


@dataclass(frozen=True)
class InseparabilityReport:
    inseparable: bool
    witnesses: dict = field(default_factory=dict)  # Triangulation -> heights
    reason: str | None = None


def check_inseparable(config: PointConfiguration, i: int, j: int) -> InseparabilityReport:
    """Decide whether p_i and p_j are triangulation-inseparable: the
    regular triangulations of the two one-point deletions agree up to
    relabeling j to i, and each is induced on both deletions by one
    common height vector.  Every deletion of config reads config's memo
    of minors, so the enumerations and the shared witnesses take each
    minor once."""
    if i == j:
        raise ValueError("need two distinct labels")
    r_i = enumerate_regular(config.delete([i]))
    r_j = enumerate_regular(config.delete([j]))
    if {t.relabel({j: i}) for t in r_i} != r_j:
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
    """All triangulations one bistellar flip away, over the circuits of
    d+2 labels among the labels t uses, read from config's circuit
    table."""
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
    triangulation restricted to certified-regular nodes.

    The flips are over circuits of d+2 points with no zero coefficient,
    which connect the regular triangulations only in general position,
    so a configuration with d+1 points on a hyperplane, a zero sign in
    config.chirotope, raises GenericityFailure rather than return a
    partial set.  Known miss: flipping only circuits among the labels in
    use, it finds 5 of the 16 regular triangulations of a pentagon with
    its centre.  A budget of k stops the search once it holds k + 1; it
    must not be negative.

    Each minor and dependence is taken once per configuration object
    (config.chirotope), and the walk remembers the flips
    is_regular rejected, so each distinct candidate costs at most one
    regularity LP however many triangulations reach it."""
    if budget is not None and budget < 0:
        raise ValueError(f"negative budget {budget}")
    start = placing_triangulation(config)
    if not configuration_in_general_position(config):
        raise GenericityFailure("d+1 points on a hyperplane; flip search "
                                "needs general position")
    found = set()
    rejected = set()
    frontier = []

    def add(t):
        found.add(t)
        if budget is not None and len(found) > budget:
            raise BudgetExceeded(len(found), partial=found)
        frontier.append(t)

    add(start)
    while frontier:
        t = frontier.pop()
        for nb in flip_neighbors(t, config):
            if nb in found or nb in rejected:
                continue
            if is_regular(nb, config).regular:
                add(nb)
            else:
                rejected.add(nb)
    return found


def enumerate_all_oracle(config: PointConfiguration, budget=None) -> set:
    """Every triangulation, by deterministic extension search.

    The search fixes the lexicographically first hull facet, branches
    over the apex of the unique cell over it, then repeatedly extends
    across the lexicographically first open ridge; each triangulation is
    produced exactly once.  Independent of the flip enumerator by
    design, so the two can cross-check each other.  The budget is read
    as in enumerate_regular.

    The frontier maps each open ridge (in one placed cell, on no hull
    facet) to that cell's apex; placing a cell closes its open ridges
    and opens its others off the hull.  An apex is a candidate when it
    lies strictly on the other side of the ridge from the ridge's apex,
    and when the new cell meets every cell placed so far properly.  Both
    tests read what config keeps, each determinant taken once per
    configuration object: the apex test reads orientation signs, the
    pair test's facet test the affine dependences of the minors
    (Chirotope.dependence), and its circuit test config.circuits, so
    the search solves no LP.  Every cell is a d-simplex, a hull facet
    or an open ridge joined to a point off its hyperplane, so the pair
    test runs without simplices_properly_intersect's refusal of
    dependent label sets.  In R^0 each point alone is a triangulation.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"negative budget {budget}")
    d = config.dim
    boundary = set(facets(config))
    if any(len(f) != d for f in boundary):
        raise GenericityFailure("non-simplicial hull facet; oracle needs "
                                "general position")
    results = set()

    def place(frontier, cell):
        out = dict(frontier)
        for apex in cell:
            ridge = cell - {apex}
            if ridge in out:
                del out[ridge]
            elif ridge not in boundary:
                out[ridge] = apex
        return out

    def apex_candidates(cells, ridge, apex):
        ridge_sorted = sorted(ridge)
        sign_owner = orientation(config, ridge_sorted + [apex])
        out = []
        for lab in config.labels:
            if lab in ridge:
                continue
            s = orientation(config, ridge_sorted + [lab])
            if s == 0 or s == sign_owner:
                continue
            cand = ridge | {lab}
            if all(_properly_intersect(config, cand, c) for c in cells):
                out.append(cand)
        return out

    def extend(cells, frontier):
        if not frontier:
            results.add(Triangulation(frozenset(cells)))
            if budget is not None and len(results) > budget:
                raise BudgetExceeded(len(results), partial=results)
            return
        ridge = min(frontier, key=sorted)
        for cand in apex_candidates(cells, ridge, frontier[ridge]):
            extend(cells | {cand}, place(frontier, cand))

    if d == 0:  # no facet to start from: each point is a cell
        for lab in config.labels:
            extend({frozenset({lab})}, {})
        return results
    start_facet = min(boundary, key=sorted)
    for lab in config.labels:
        if lab not in start_facet:
            cell = start_facet | {lab}
            extend({cell}, place({}, cell))
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
    C = min_cells_bound(m-1, d-1, k) is the fewest cells in a
    triangulation of the vertex figure, a k-neighborly (d-1)-polytope on
    m-1 vertices, and k = (d-1)//2 (the splitting inequality of
    criterion 3)."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    k = (d - 1) // 2
    if k == 0:
        return 1
    out = 1
    for m in range(d + 1, n):
        out *= min_cells_bound(m - 1, d - 1, k) + 1
    return out


def cyclic_inseparable_realization(d: int, n: int) -> RealizationRun:
    """Realize the cyclic polytope on the moment curve with each point
    after the initial simplex certified inseparable from the last point
    at its insertion stage, which forces the regular triangulation
    count to multiply by at least one more than the cell bound of the
    vertex figure at every step (40 tries per point, halving its gap)."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if n < d + 2:
        raise ValueError("need n >= d + 2")
    q_param = Fraction(n)
    params = {k: Fraction(k) for k in range(1, d + 1)}
    q_label = d + 1
    params[q_label] = q_param
    config = cyclic_configuration(d, [params[l] for l in sorted(params)])
    halvings = []
    gap = Fraction(1)
    for i in range(d + 2, n + 1):
        for h in range(40):
            t_new = q_param - gap
            gap /= 2
            cand = config.append_point(moment_curve_point(t_new, d), i)
            if check_inseparable(cand, i, q_label).inseparable:
                config = cand
                params[i] = t_new
                halvings.append(h)
                break
        else:
            raise RegtriError(f"could not certify inseparability at point {i}")
    return RealizationRun(
        config, q_label, params, triangulation_count_bound(n, d), tuple(halvings)
    )

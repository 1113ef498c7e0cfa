"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion before
asserting, so the run log doubles as an acceptance report.  All
comparisons are exact (integers and rationals); no tolerances.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from regtri.census import (
    FingerprintStore,
    degenerate_base,
    double_lift,
    fingerprint,
    is_k_neighborly,
    recover_sigma_suffix,
    sew,
)
from regtri.enumeration import (
    SplitPair,
    check_inseparable,
    cyclic_inseparable_realization,
    enumerate_all_oracle,
    enumerate_regular,
    shared_witness,
    split_point,
    t_sweep,
)
from regtri.geometry import (
    PointConfiguration,
    centroid,
    classify_visibility,
    cyclic_configuration,
    facets,
    in_convex_position,
)
from regtri.lifting import auto_epsilons, contraction, lex_lift
from regtri.triangulations import (
    Triangulation,
    h_vector,
    is_regular,
    placing_triangulation,
    pulling_triangulation,
    regular_subdivision,
)

from oracles import gkz_regular_subset


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def circle_polygon(ticks):
    """Convex polygon on the rational unit circle, one point per tick
    in (0, 50); no three rational circle points are collinear."""
    rows = []
    for t in sorted(ticks):
        u = F(t, 25) - 1
        rows.append(((1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)))
    return PointConfiguration.from_rows(rows)


def square():
    return PointConfiguration.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])


def hexagon():
    return PointConfiguration.from_rows(
        [[2, 0], [1, 2], [-1, 2], [-2, 0], [-1, -2], [1, -2]]
    )


def regular_subset(config):
    return {t for t in enumerate_all_oracle(config) if is_regular(t, config).regular}


def test_criterion_01_inseparable_cyclic_realization():
    # build cyclic(3, n) by repeatedly placing a near-copy of the last
    # moment-curve point, certified inseparable from it at every stage;
    # the regular-triangulation count must reach (n - 3)!
    details = []
    ok = True
    for n, expect in ((6, 6), (7, 24)):
        run = cyclic_inseparable_realization(3, n)
        regs = enumerate_regular(run.config)
        cross = regular_subset(run.config)
        ok = ok and run.bound == expect and len(regs) >= expect and regs == cross
        details.append(f"n={n}: |R|={len(regs)} >= {expect}, oracle agrees")
    # beyond d = 3 the bound is checked against the count; (6, 10) is
    # left out for its oracle's run time
    for d, n in ((4, 8), (5, 8), (5, 9), (6, 9)):
        run = cyclic_inseparable_realization(d, n)
        regs = enumerate_regular(run.config)
        cross = regular_subset(run.config)
        ok = ok and run.bound <= len(regs) and regs == cross
        details.append(f"d={d} n={n}: |R|={len(regs)} >= {run.bound}, oracle agrees")
    report(1, ok, "; ".join(details))


def test_criterion_02_sweep_on_split_heptagon():
    cfg = PointConfiguration.from_rows(
        [
            ("3/10", "188/100"),
            ("-76/100", "154/100"),
            ("-76/100", "69/100"),
            ("-10/100", "16/100"),
            ("73/100", "35/100"),
            ("11/10", "111/100"),
            ("1", "3/2"),
        ]
    )
    pair = SplitPair(cfg, 6, 7, F(1, 2))
    t = Triangulation([{6, 1, 2}, {6, 2, 3}, {6, 3, 5}, {3, 4, 5}])
    w = shared_witness(cfg, 6, 7, t)
    start = time.monotonic()
    trace = t_sweep(pair, t, w)
    elapsed = time.monotonic() - start
    distinct = {tri for _, tri in trace.snapshots}
    expect = len(t.link(6).cells) + 1
    keep = set(cfg.labels) - {6, 7}
    restrict_ok = all(
        tri.restriction(keep) == t.restriction(keep) for _, tri in trace.snapshots
    )
    ok = len(distinct) == expect == 4 and restrict_ok
    report(2, ok, f"{len(distinct)} distinct sweep triangulations, "
                  f"all restrict to T away from the pair, {elapsed:.2f}s")


def split_instances():
    """Twenty seeded desk-scale instances (d = 2, 3) with a certified
    inseparable split vertex on each."""
    rng = random.Random(424)
    out = []
    while len(out) < 20:
        if len(out) % 2 == 0:
            n = rng.choice((5, 6))
            cfg = circle_polygon(rng.sample(range(1, 50), n))
        else:
            n = rng.choice((5, 6))
            params = sorted(F(t, 5) for t in rng.sample(range(1, 60), n))
            cfg = cyclic_configuration(3, params)
        p = rng.choice(cfg.labels)
        epsilon = None
        for attempt in range(6):
            pair = split_point(cfg, p, epsilon=epsilon, seed=rng.randint(0, 10**6))
            if check_inseparable(pair.config, pair.p_label,
                                 pair.p_prime_label).inseparable:
                out.append(pair)
                break
            epsilon = pair.epsilon / 4
    return out


def test_criterion_03_splitting_counting_inequality():
    checked = 0
    ok = True
    for pair in split_instances():
        base = pair.config.delete([pair.p_prime_label])
        r_base = enumerate_regular(base)
        r_split = enumerate_regular(pair.config)
        link = contraction(base, pair.p_label)
        c = min(len(t.cells) for t in enumerate_regular(link))
        ok = ok and len(r_split) >= len(r_base) * (c + 1)
        checked += 1
    report(3, ok and checked >= 20,
           f"{checked} split instances satisfy |R(P u p')| >= |R(P)|(C+1)")


def test_criterion_04_cell_bound_and_h_identity():
    cfg = cyclic_configuration(4, list(range(1, 9)))
    boundary = [set(f) for f in facets(cfg)]
    h_b = h_vector(boundary) + [0, 0]
    tris = enumerate_all_oracle(cfg)
    d = 4
    ok = len(tris) == 40
    min_cells = min(len(t.cells) for t in tris)
    ok = ok and min_cells >= 10
    for t in tris:
        h_t = h_vector(t.cells)
        for j in range(d + 1):
            prev = h_b[j - 1] if j > 0 else 0
            ok = ok and h_b[j] - prev == h_t[j] - h_t[d + 1 - j]
    report(4, ok, f"{len(tris)} triangulations, min cells {min_cells} >= 10, "
                  "boundary/triangulation h-identity holds at every j")


def test_criterion_05_neighborly_h_entries():
    checked = 0
    ok = True
    for d in (3, 4, 5, 6):
        for n in range(d + 1, 11):
            cfg = cyclic_configuration(d, list(range(1, n + 1)))
            cells = [set(f) for f in facets(cfg)]
            h = h_vector(cells)
            for k in range(d // 2 + 1):
                ok = ok and h[k] == math.comb(n - d - 1 + k, k)
                checked += 1
    report(5, ok, f"{checked} boundary h-entries match C(n-d-1+k, k)")


def test_criterion_06_double_lift_neighborliness():
    rng = random.Random(77)
    runs = []
    for n in (3, 4, 5, 6, 7):
        runs += [(0, degenerate_base(n))] * 5
    for n in (4, 5, 6, 7):
        runs += [(1, sew(n, 2).stage_configs[-1])] * 4
    runs += [(1, sew(6, 2).stage_configs[-1])]
    for n in (6, 7):
        runs += [(2, sew(n, 4).stage_configs[-1])] * 4
    assert len(runs) == 50
    ok = True
    for r, base in runs:
        sigma = list(base.labels)
        rng.shuffle(sigma)
        out = double_lift(base, tuple(sigma), verify=False)
        ok = ok and bool(is_k_neighborly(out, r + 1))
    report(6, ok, f"{len(runs)} seeded double lifts over r = 0, 1, 2 are "
                  "(r+1)-neighborly")


def test_criterion_07_census_and_suffix_recovery(tmp_path):
    base = sew(6, 2).stage_configs[-1]
    store = FingerprintStore(tmp_path / "census.store")
    attempted = 0
    recovered = 0
    for sigma in itertools.permutations(sorted(base.labels)):
        lifted = double_lift(base, sigma, verify=False)
        store.add(fingerprint(lifted), {"sigma": list(sigma)})
        # raises on any non-unique index, so success certifies uniqueness
        if recover_sigma_suffix(lifted, 1) == sigma[-2:]:
            recovered += 1
        attempted += 1
    ok = attempted == 720 and recovered == 720 and len(store) >= 30
    report(7, ok, f"720 permutations, {len(store)} distinct labeled "
                  f"fingerprints >= 30, suffix recovered on {recovered}/720")


def lift_faces_agree(base):
    apex = tuple(centroid(base)) + (F(1),)
    lc = lex_lift(base, auto_epsilons(base, apex))
    lifted = lc.lifted.delete([lc.apex_label])
    apex_pt = lc.lifted.point(lc.apex_label)
    hidden, visible = set(), set()
    for f in facets(lifted):
        cls = classify_visibility(lifted, f, apex_pt)
        if cls in ("hidden", "both"):
            hidden.add(f)
        if cls in ("visible", "both"):
            visible.add(f)
    ok = hidden == set(placing_triangulation(base).cells)
    if in_convex_position(base):
        ok = ok and visible == set(pulling_triangulation(base).cells)
    full = set(facets(lc.lifted))
    coned = {f | {lc.apex_label} for f in facets(base)}
    return ok and full == hidden | coned


def test_criterion_08_lift_face_structure():
    rng = random.Random(909)
    bases = []
    for _ in range(6):
        coords = sorted(rng.sample(range(-20, 21), rng.choice((3, 4, 5))))
        bases.append(PointConfiguration.from_rows([[c] for c in coords]))
    for _ in range(7):
        bases.append(circle_polygon(rng.sample(range(1, 50), rng.choice((4, 5, 6)))))
    for _ in range(7):
        params = sorted(F(t, 3) for t in rng.sample(range(1, 40), rng.choice((5, 6))))
        bases.append(cyclic_configuration(3, params))
    assert len(bases) == 20
    ok = all(lift_faces_agree(base) for base in bases)
    report(8, ok, "20 seeded lifts (base d = 1, 2, 3): hidden facets = placing "
                  "cells, visible facets = pulling cells, coned facet formula")


def test_criterion_09_regularity_engine():
    configs = [
        PointConfiguration.from_rows([[0], [1], [3], [7]]),
        square(),
        PointConfiguration.from_rows([[0, 0], [4, 0], [5, 3], [2, 5], [-1, 3]]),
        hexagon(),
        cyclic_configuration(3, [1, 2, 3, 4, 5, 6]),
        cyclic_configuration(4, [1, 2, 3, 4, 5, 6, 7]),
    ]
    ok = True
    for cfg in configs:
        t = placing_triangulation(cfg)
        res = is_regular(t, cfg)
        ok = ok and res.regular
        ok = ok and regular_subdivision(cfg, res.witness).cells == t.cells
    twisted_cfg = PointConfiguration.from_rows(
        [[4, 0], [0, 4], [0, 0], [2, 1], [1, 2], [1, 1]]
    )
    twisted = Triangulation(
        [{1, 2, 4}, {2, 4, 5}, {2, 3, 5}, {3, 5, 6}, {1, 3, 6}, {1, 4, 6}, {4, 5, 6}]
    )
    res = is_regular(twisted, twisted_cfg)
    ok = ok and not res.regular and res.certificate_valid
    report(9, ok, f"{len(configs)} placing triangulations certified regular with "
                  "witness round-trip; twisted nested triangles refuted with a "
                  "verified certificate")


def test_criterion_10_enumerator_equals_oracle():
    catalog = [
        ("segment d=1 n=4", PointConfiguration.from_rows([[0], [1], [3], [7]])),
        ("square", square()),
        ("hexagon", hexagon()),
        ("heptagon", circle_polygon([2, 8, 15, 22, 30, 38, 45])),
        ("octagon", circle_polygon([1, 7, 13, 19, 26, 33, 40, 46])),
        ("cyclic(3,6)", cyclic_configuration(3, [1, 2, 3, 4, 5, 6])),
        ("cyclic(3,7)", cyclic_configuration(3, [1, 2, 3, 4, 5, 6, 7])),
        ("cyclic(3,8)", cyclic_configuration(3, [1, 2, 3, 4, 5, 6, 7, 8])),
        ("random d=3 n=6", PointConfiguration.from_rows(
            [[5, 8, 5], [5, 7, 9], [-3, -4, 7], [6, -4, -6],
             [5, 0, -5], [-7, 8, -8]]
        )),
        ("cyclic(4,7)", cyclic_configuration(4, [1, 2, 3, 4, 5, 6, 7])),
    ]
    counts, gkz = [], []
    ok = True
    for name, cfg in catalog:
        every = enumerate_all_oracle(cfg)
        regular = {t for t in every if is_regular(t, cfg).regular}
        flip = enumerate_regular(cfg)
        ok = ok and flip == regular
        counts.append(f"{name}: {len(flip)}")
        # one dense Fraction LP over all GKZ vectors per triangulation:
        # 0.3 s at 25 (cyclic(3,7)), 3 s at 42 (the heptagon) on 2 cores
        if len(every) <= 25:
            found = gkz_regular_subset(list(cfg.points), [t.cells for t in every])
            ok = ok and {Triangulation(c) for c in found} == regular
            gkz.append(name)
    report(10, ok, "flip enumeration = oracle regular subset on " +
                   ", ".join(counts) + "; = GKZ vertex subset on " + ", ".join(gkz))

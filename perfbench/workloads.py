"""Seeded inputs, timed operations and output checks of the three
workloads.

A workload hands the harness its operations one cycle at a time:
census a single double lift over a permutation not used before in the
run, enumerate and certify the same batch every cycle.  All inputs come
from the seed.  A check runs after the timed window and returns None
for a correct output or a Failure.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import regtri


@dataclass(frozen=True)
class Failure:
    reason: str
    # The ROADMAP item that records this defect, when it is a known one.
    known: str | None = None


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Failure | None]


def tri_key(t):
    return sorted(sorted(c) for c in t.cells)


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def circle_point(u):
    """Rational point of the unit circle at stereographic parameter u."""
    return ((1 - u * u) / (1 + u * u), 2 * u / (1 + u * u))


def odd_eighths(rng, x, spread):
    """A rational with denominator exactly 8 near x + a seeded jitter
    of at most spread; fixing the denominator keeps the arithmetic cost
    of the inputs alike from seed to seed."""
    x += rng.uniform(-spread, spread)
    return Fraction(2 * math.floor(4 * x) + 1, 8)


def circle_polygon(rng, n):
    """Convex n-gon on the rational unit circle, each vertex a seeded
    small jitter away from a regular n-gon's."""
    while True:
        us = [odd_eighths(rng, math.tan(math.pi * (2 * k + 1 - n) / (2 * n)),
                          1 / n)
              for k in range(n)]
        if len(set(us)) == n:
            return regtri.PointConfiguration.from_rows(
                [circle_point(u) for u in sorted(us)])


def cyclic(rng, d, n):
    """Moment-curve configuration at parameters i +- 1/8 or i +- 3/8."""
    params = [i + Fraction(rng.choice((-3, -1, 1, 3)), 8)
              for i in range(1, n + 1)]
    return regtri.cyclic_configuration(d, params)


def polygon_with_centre(rng, n):
    """Convex n-gon on the unit circle plus its centre, in general
    position."""
    while True:
        poly = circle_polygon(rng, n)
        cfg = poly.append_point((0, 0))
        if regtri.configuration_in_general_position(cfg):
            return cfg


class Census:
    """One op is double_lift(base, sigma, verify=False), fingerprint and
    FingerprintStore.add, for a seeded permutation sigma of the labels
    of the sew(6, 2) base; no sigma repeats within a run."""

    name = "census"
    trace_cycles = 16
    deep_check_every = 4  # neighborliness and suffix recovery on 1 op in 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.passes = 0

    def setup(self):
        rng = random.Random(self.seed)
        self.base = regtri.sew(6, 2).stage_configs[-1]
        sigmas = list(itertools.permutations(sorted(self.base.labels)))
        # the same two permutations warm up every run and are never timed
        self.warm_sigmas = [sigmas.pop(0), sigmas.pop()]
        rng.shuffle(sigmas)
        self.sigmas = sigmas
        self.deep_offset = rng.randrange(self.deep_check_every)

    def warm_up(self):
        self.start_pass()
        for sigma in self.warm_sigmas:
            self._lift_and_store(sigma)

    def start_pass(self):
        self.store_path = os.path.join(self.workdir, f"census-{self.passes}")
        self.passes += 1
        self.store = regtri.FingerprintStore(self.store_path)

    def _lift_and_store(self, sigma):
        lifted = regtri.double_lift(self.base, sigma, verify=False)
        fp = regtri.fingerprint(lifted)
        written = self.store.add(fp, {"sigma": list(sigma)})
        return lifted, fp, written

    def cycle(self, i):
        sigma = self.sigmas[i]
        deep = i % self.deep_check_every == self.deep_offset
        return [Op(f"sigma={sigma}", lambda: self._lift_and_store(sigma),
                   lambda out: self._check(sigma, out, deep))]

    def finish_pass(self, outputs):
        """Reopen the store; the bench's own count of distinct
        fingerprints must equal the records read back."""
        distinct = {out[1].data for out in outputs if isinstance(out, tuple)}
        records = regtri.FingerprintStore(self.store_path).records
        stored = {bytes.fromhex(r["fingerprint"]) for r in records}
        self.store_error = None
        if len(records) != len(distinct) or stored != distinct:
            self.store_error = Failure(
                f"reopened store holds {len(records)} records for "
                f"{len(distinct)} distinct fingerprints")

    def _check(self, sigma, out, deep):
        lifted = out[0]
        if self.store_error:
            return self.store_error
        if deep:
            if not regtri.is_k_neighborly(lifted, 2):
                return Failure("double lift is not 2-neighborly")
            suffix = regtri.recover_sigma_suffix(lifted, 1)
            if suffix != tuple(sigma[-2:]):
                return Failure(f"recovered suffix {suffix}, lifted {sigma}")
        return None


class Enumerate:
    """One op is enumerate_regular on one seeded configuration; a cycle
    runs each member of the mix once."""

    name = "enumerate"
    trace_cycles = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self._oracle = {}
        self._regular = {}

    def setup(self):
        rng = random.Random(self.seed)
        # (label, configuration, number of triangulations it has); the
        # centred pentagon has an interior point, which the flip search
        # misses triangulations on (ROADMAP item 2)
        self.members = [
            ("pentagon+centre", polygon_with_centre(rng, 5), None),
            ("cyclic(3,7)", cyclic(rng, 3, 7), 25),
            ("7-gon", circle_polygon(rng, 7), catalan(7 - 2)),
            ("cyclic(4,8)", cyclic(rng, 4, 8), 40),
        ]
        self.warm_config = circle_polygon(random.Random(0), 5)

    def warm_up(self):
        regtri.enumerate_regular(self.warm_config)

    def start_pass(self):
        pass

    def cycle(self, i):
        return [Op(label, lambda cfg=cfg: regtri.enumerate_regular(cfg),
                   lambda found, cfg=cfg, total=total:
                       self._check(cfg, total, found))
                for label, cfg, total in self.members]

    def finish_pass(self, outputs):
        pass

    def _check(self, cfg, total, found):
        """found must equal the is_regular-filtered oracle set.  Members
        of found were certified by the enumerator itself, so only the
        oracle triangulations it did not return are re-solved."""
        if cfg not in self._oracle:
            self._oracle[cfg] = regtri.enumerate_all_oracle(cfg)
        every = self._oracle[cfg]
        if total is not None and len(every) != total:
            return Failure(f"oracle counts {len(every)} triangulations, "
                           f"known count is {total}")
        if not found <= every:
            return Failure(f"{len(found - every)} results are not "
                           "triangulations the oracle knows")
        missed = 0
        for t in every - found:
            if (cfg, t) not in self._regular:
                self._regular[cfg, t] = regtri.is_regular(t, cfg).regular
            missed += self._regular[cfg, t]
        if missed:
            interior = not regtri.in_convex_position(cfg)
            return Failure(f"found {len(found)} of {len(found) + missed} "
                           "regular triangulations",
                           "ROADMAP item 2" if interior else None)
        return None


NESTED = [[4, 0], [0, 4], [0, 0], [2, 1], [1, 2], [1, 1]]
SEVENTH = [Fraction(6, 5), Fraction(3, 2)]


def perturbed(rng, rows):
    """Rows moved by odd multiples of 1/64 (at most 3/64 per coordinate)
    until they are in general position."""
    while True:
        cfg = regtri.PointConfiguration.from_rows(
            [[Fraction(x) + Fraction(rng.choice((-3, -1, 1, 3)), 64)
              for x in r]
             for r in rows])
        if regtri.configuration_in_general_position(cfg):
            return cfg


def affine_image(rng, cfg):
    """A seeded integer shear, translation and optional swap of the two
    axes.  Affine maps keep every barycentric coordinate, so the
    regularity LPs, and with them the work of an op, hardly change from
    seed to seed; seeded perturbations changed it by about 10%."""
    k = rng.choice((-2, -1, 1, 2))
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    rows = [(x + k * y + a, y + b) for x, y in cfg.points]
    if rng.random() < 0.5:
        rows = [(y, x) for x, y in rows]
    return regtri.PointConfiguration.from_rows(rows, cfg.labels)


def float_witness(cfg, t):
    """Candidate heights for t from a floating-point margin LP, or None
    when the LP finds no positive margin or scipy is missing.  Callers
    must confirm them exactly."""
    try:
        import numpy as np
        from scipy.optimize import linprog
    except ImportError:
        return None
    labels = sorted(cfg.labels)
    idx = {l: i for i, l in enumerate(labels)}
    pts = {l: [float(x) for x in cfg.point(l)] + [1.0] for l in labels}
    rows = []
    for cell in map(sorted, t.cells):
        lam = np.linalg.solve(np.array([pts[l] for l in cell]).T,
                              np.array([pts[l] for l in labels]).T)
        for j, lab in enumerate(labels):
            if lab in cell:
                continue
            row = np.zeros(len(labels) + 1)
            row[idx[lab]] -= 1
            for k, l in enumerate(cell):
                row[idx[l]] += lam[k, j]
            row[-1] = 1
            rows.append(row)
    cost = np.zeros(len(labels) + 1)
    cost[-1] = -1
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.zeros(len(rows)),
                  bounds=[(0, 2)] * len(labels) + [(0, 1)], method="highs")
    if res.status != 0 or -res.fun <= 1e-9:
        return None
    return {l: Fraction(v).limit_denominator(10**6)
            for l, v in zip(labels, res.x)}


def is_regular_exact(cfg, t):
    """Regularity, proved exactly: float heights confirmed by the
    regular subdivision they induce, else the exact LP."""
    w = float_witness(cfg, t)
    if w is not None and regtri.regular_subdivision(cfg, w).cells == t.cells:
        return True
    return regtri.is_regular(t, cfg).regular


class Certify:
    """One op is is_regular(t, cfg, validate=True) on seeded affine
    images of one rational perturbation of the nested-triangles
    configuration, with 6 and 7 points; the batch is every non-regular
    triangulation plus, for each, a regular one a flip away."""

    name = "certify"
    trace_cycles = 1

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        rng = random.Random(self.seed)
        self.batch = []
        self.configs = []
        for rows in (NESTED, NESTED + [SEVENTH]):
            cfg = affine_image(rng, perturbed(random.Random(0), rows))
            tris = sorted(regtri.enumerate_all_oracle(cfg), key=tri_key)
            regular, non_regular = set(), []
            for t in tris:
                if is_regular_exact(cfg, t):
                    regular.add(t)
                else:
                    non_regular.append(t)
            self.configs.append((cfg, min(regular, key=tri_key)))
            chosen = set()
            for t in non_regular:
                # its control: a regular triangulation one flip away
                near = [r for r in regtri.flip_neighbors(t, cfg) if r in regular]
                control = next((r for r in near if r not in chosen), near[0])
                chosen.add(control)
                self.batch += [(cfg, t, False), (cfg, control, True)]
        rng.shuffle(self.batch)

    def warm_up(self):
        for cfg, t in self.configs:
            regtri.is_regular(t, cfg, validate=True)

    def start_pass(self):
        pass

    def cycle(self, i):
        return [Op(f"n={cfg.n} {tri_key(t)}",
                   lambda cfg=cfg, t=t: regtri.is_regular(t, cfg, validate=True),
                   lambda res, cfg=cfg, t=t, expected=expected:
                       self._check(cfg, t, expected, res))
                for cfg, t, expected in self.batch]

    def finish_pass(self, outputs):
        pass

    @staticmethod
    def _check(cfg, t, expected, res):
        if res.regular != expected:
            return Failure(f"verdict regular={res.regular}, expected {expected}")
        if res.regular:
            if regtri.regular_subdivision(cfg, res.witness).cells != t.cells:
                return Failure("witness heights do not induce the triangulation")
        elif res.certificate_valid is not True:
            return Failure("refutation certificate is not valid")
        return None


WORKLOADS = {w.name: w for w in (Census, Enumerate, Certify)}

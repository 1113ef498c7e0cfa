"""Neighborly polytopes by iterated sewing, label-order recovery, and a
fingerprint census of the distinct labeled types produced.

The pipeline starts from a degenerate zero-dimensional configuration
and applies double positive lexicographic lifts, each raising the
neighborliness by one; distinct lift orders of the final stage leave a
recoverable trace in the face lattice, which is what makes the census
lower bound work.
"""

from __future__ import annotations

import fcntl
import itertools
import json
import math
import os
import random
import struct
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceeded, NonUniqueIndex, TooFewPoints
from .geometry import PointConfiguration, centroid, facets, is_face
from .lifting import auto_lift, contraction


@dataclass(frozen=True)
class NeighborlinessResult:
    neighborly: bool
    refuting_subset: frozenset | None = None

    def __bool__(self) -> bool:
        return self.neighborly


def is_k_neighborly(config: PointConfiguration, k: int) -> NeighborlinessResult:
    """Whether every k-subset of the points is the vertex set of a hull
    face; on failure the first refuting subset is returned."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return NeighborlinessResult(True)
    for subset in itertools.combinations(sorted(config.labels), k):
        if not is_face(config, subset):
            return NeighborlinessResult(False, frozenset(subset))
    return NeighborlinessResult(True)


def _lift_apex(base: PointConfiguration):
    return tuple(centroid(base)) + (Fraction(1),)


def single_lift(base: PointConfiguration, order, check_convex: bool = True):
    """One positive lexicographic lift processing the points in the
    given label order; labels are preserved and the apex gets the next
    free label.  Returns (lifted configuration, spec used)."""
    order = tuple(order)
    if sorted(order) != sorted(base.labels):
        raise ValueError("order must be a permutation of the labels")
    reordered = PointConfiguration(
        base.dim, tuple(base.point(l) for l in order), order
    )
    lifted = auto_lift(reordered, _lift_apex(reordered), check_convex=check_convex)
    return lifted.lifted, lifted.spec


def double_lift(
    config: PointConfiguration, sigma, verify: bool = True, specs=None
) -> PointConfiguration:
    """Two stacked lifts in the label order sigma; the intermediate
    apex is lifted last in the second pass.

    The input must be r-neighborly of even dimension 2r; the output is
    then (r+1)-neighborly, which verify=True certifies subset by
    subset.  Pass a list as specs to capture the two LiftSpecs used.
    """
    if config.dim % 2:
        raise ValueError("double lift needs an even-dimensional base")
    r = config.dim // 2
    if verify and not is_k_neighborly(config, r):
        raise ValueError(f"base is not {r}-neighborly")
    sigma = tuple(sigma)
    mid, spec1 = single_lift(config, sigma, check_convex=config.dim > 0)
    # the intermediate of a dim-0 base is collinear, so skip the hull
    # vertex check there; the same-side validation still guards it
    out, spec2 = single_lift(mid, mid.labels, check_convex=False)
    if specs is not None:
        specs.extend([spec1, spec2])
    if verify:
        check = is_k_neighborly(out, r + 1)
        if not check:
            raise ValueError(
                f"double lift not {r + 1}-neighborly; "
                f"refuted by {sorted(check.refuting_subset)}"
            )
    return out


def recover_sigma_suffix(config: PointConfiguration, r: int) -> tuple:
    """Read the tail of the lift order back out of a double-lifted
    configuration: at each step exactly one point's double contraction
    with the inner apex is r-neighborly, and it is the point lifted
    last.  Zero or several candidates indicate a corrupted input and
    fail loudly."""
    base_dim = config.dim - 2
    labels = sorted(config.labels)
    apex_outer, apex_inner = labels[-1], labels[-2]
    base_labels = labels[:-2]
    if len(base_labels) <= base_dim + 2:
        raise TooFewPoints(
            f"{len(base_labels)} base points, need more than {base_dim + 2}"
        )
    suffix = []
    current = config
    remaining = list(base_labels)
    while len(remaining) > base_dim + 2:
        at_apex = contraction(current, apex_inner)
        candidates = []
        for k in remaining:
            if is_k_neighborly(contraction(at_apex, k), r):
                candidates.append(k)
        if len(candidates) != 1:
            raise NonUniqueIndex(candidates)
        k = candidates[0]
        suffix.append(k)
        remaining.remove(k)
        current = current.delete([k])
    return tuple(reversed(suffix))


@dataclass(frozen=True)
class SewingRun:
    n: int
    d: int
    permutations: tuple  # one label order per stage
    stage_configs: tuple  # P_0, P_2, ..., final
    specs: tuple = field(default=(), repr=False)


def degenerate_base(n_points: int) -> PointConfiguration:
    """n copies of the unique point of R^0, the seed of the pipeline."""
    return PointConfiguration(0, ((),) * n_points, tuple(range(1, n_points + 1)))


def sew(n: int, d: int, permutations=None, verify: bool = True) -> SewingRun:
    """Build an n-point neighborly d-polytope from the degenerate
    0-dimensional configuration: one double lift per two dimensions,
    plus a final single lift when d is odd.  permutations supplies the
    lift order of each stage (default: increasing labels)."""
    if n <= d:
        raise ValueError("need n > d")
    stages = d // 2
    extra = d % 2
    current = degenerate_base(n - d)
    if permutations is None:
        permutations = [None] * (stages + extra)
    permutations = list(permutations)
    if len(permutations) != stages + extra:
        raise ValueError(f"need {stages + extra} stage permutations")
    used_perms = []
    stage_configs = [current]
    specs = []
    for s in range(stages):
        sigma = permutations[s] or tuple(sorted(current.labels))
        current = double_lift(current, sigma, verify=verify, specs=specs)
        used_perms.append(tuple(sigma))
        stage_configs.append(current)
    if extra:
        sigma = permutations[-1] or tuple(sorted(current.labels))
        current, spec = single_lift(current, sigma)
        specs.append(spec)
        used_perms.append(tuple(sigma))
        stage_configs.append(current)
        if verify and not is_k_neighborly(current, d // 2):
            raise ValueError("final lift lost neighborliness")
    return SewingRun(n, d, tuple(used_perms), tuple(stage_configs), tuple(specs))


@dataclass(frozen=True)
class FacetFingerprint:
    """Canonical byte encoding of the labeled facet sets; equal
    fingerprints mean equal labeled face lattices for simplicial
    polytopes."""

    data: bytes

    @property
    def hex(self) -> str:
        return self.data.hex()

    @classmethod
    def from_hex(cls, s: str) -> "FacetFingerprint":
        return cls(bytes.fromhex(s))


# a census fingerprints each lift once; caching would keep every lift alive
_uncached_facets = facets.__wrapped__


def fingerprint(config: PointConfiguration) -> FacetFingerprint:
    sets = sorted(sorted(f.labels) for f in _uncached_facets(config))
    return FacetFingerprint(json.dumps(sets, separators=(",", ":")).encode())


class FingerprintStore:
    """Append-only store of fingerprints with provenance.

    File format: 4-byte big-endian record length followed by a JSON
    object {"fingerprint": hex, "provenance": {...}}.  The in-memory
    index is rebuilt on open; a fresh open sees a consistent snapshot
    and truncates a partial trailing record.  Appends and loads hold an
    exclusive flock on the file, so several processes may share it.
    """

    def __init__(self, path):
        self.path = str(path)
        self._index: set[bytes] = set()
        self._records = []
        if os.path.exists(self.path):
            self._load()

    def _load(self):
        end = 0  # offset just past the last complete record
        with open(self.path, "rb") as fh:
            # lock out writers, so a record being appended is not
            # mistaken for a torn tail
            fcntl.flock(fh, fcntl.LOCK_EX)
            while True:
                header = fh.read(4)
                if len(header) < 4:
                    break
                (length,) = struct.unpack(">I", header)
                body = fh.read(length)
                if len(body) < length:
                    break  # trailing partial write; truncated below
                rec = json.loads(body)
                self._index.add(bytes.fromhex(rec["fingerprint"]))
                self._records.append(rec)
                end = fh.tell()
            # drop a torn tail left by an interrupted write, so the next
            # append starts on a record boundary instead of inside it
            if os.path.getsize(self.path) > end:
                os.truncate(self.path, end)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, fp: FacetFingerprint) -> bool:
        return fp.data in self._index

    @property
    def records(self):
        return list(self._records)

    def add(self, fp: FacetFingerprint, provenance: dict) -> bool:
        """Record a fingerprint; returns False (and writes nothing) if
        it is already present."""
        if fp.data in self._index:
            return False
        rec = {"fingerprint": fp.data.hex(), "provenance": provenance}
        body = json.dumps(rec, separators=(",", ":")).encode()
        with open(self.path, "ab") as fh:
            # one writer at a time, so concurrent records never interleave
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                fh.write(struct.pack(">I", len(body)) + body)
                fh.flush()
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)
        self._index.add(fp.data)
        self._records.append(rec)
        return True


@dataclass(frozen=True)
class CensusReport:
    distinct: int
    attempted: int
    bound: int
    bound_params: dict
    budget_hit: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "distinct": self.distinct,
                "attempted": self.attempted,
                "bound": self.bound,
                "bound_params": self.bound_params,
                "budget_hit": self.budget_hit,
            }
        )


def _spec_digest(specs) -> str:
    import hashlib  # here, as it loads OpenSSL, which only the census needs

    h = hashlib.sha256()
    for s in specs:
        h.update(s.to_json().encode())
    return h.hexdigest()


def census(
    n: int,
    d: int,
    store: FingerprintStore,
    budget=None,
    seed: int = 0,
) -> CensusReport:
    """Count distinct labeled types of d-polytopes produced by varying
    the lift order of the final sewing stage over an n-point base.

    The base is the (d-2)-dimensional stage built with default orders;
    exactly one double lift per permutation is then fingerprinted and
    deduplicated in the store.  Runs exhaustively over all n!
    permutations when they fit the budget, otherwise samples distinct
    permutations with the given seed.  The reported count covers the
    fingerprints of this call only, whatever else the store holds; the
    reported bound is the count of recoverable order suffixes, n!/d!.
    """
    if d % 2 or d < 2:
        raise ValueError("census varies a double lift; d must be even")
    if n <= d:
        raise ValueError("need n > d")
    base = sew(n, d - 2).stage_configs[-1] if d > 2 else degenerate_base(n)
    labels = tuple(sorted(base.labels))
    total = math.factorial(n)
    if budget is not None and total > budget:
        rng = random.Random(seed)
        seen = set()
        perms = []
        while len(perms) < budget:
            p = tuple(rng.sample(labels, len(labels)))
            if p not in seen:
                seen.add(p)
                perms.append(p)
        budget_hit = True
    else:
        perms = [tuple(p) for p in itertools.permutations(labels)]
        budget_hit = False
    produced = set()
    for sigma in perms:
        specs = []
        lifted = double_lift(base, sigma, verify=False, specs=specs)
        fp = fingerprint(lifted)
        produced.add(fp.data)
        store.add(
            fp,
            {
                "n": n,
                "d": d,
                "sigma": list(sigma),
                "seed": seed,
                "spec_digest": _spec_digest(specs),
            },
        )
    return CensusReport(
        distinct=len(produced),
        attempted=len(perms),
        bound=math.factorial(n) // math.factorial(d),
        bound_params={"n": n, "d": d, "formula": "n!/d!"},
        budget_hit=budget_hit,
    )

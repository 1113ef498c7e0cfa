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
from dataclasses import asdict, dataclass
from fractions import Fraction

from .errors import NonUniqueIndex, TooFewPoints, wire_format
from .geometry import PointConfiguration, centroid, facets, is_facet_meet
from .lifting import auto_lift

# neighborliness checks, fingerprints and recovery read each
# configuration once; a cache would only keep them alive
_uncached_facets = facets.__wrapped__


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
    facet_sets = _uncached_facets(config)
    for subset in itertools.combinations(sorted(config.labels), k):
        if not is_facet_meet(facet_sets, subset):
            return NeighborlinessResult(False, frozenset(subset))
    return NeighborlinessResult(True)


def _lift_apex(base: PointConfiguration):
    return tuple(centroid(base)) + (Fraction(1),)


def single_lift(base: PointConfiguration, order):
    """One positive lexicographic lift processing the points in the
    given label order; labels are preserved and the apex gets the next
    free label.  Returns (lifted configuration, spec used).  The
    reordered base keeps base's integer rows and reads and fills base's
    memo of minors (PointConfiguration.reordered), so the lifts of one
    base in many orders take each of its minors once."""
    reordered = base.reordered(order)
    lifted = auto_lift(reordered, _lift_apex(reordered))
    return lifted.lifted, lifted.spec


def double_lift(
    config: PointConfiguration, sigma, verify: bool = True, specs=None
) -> PointConfiguration:
    """Two stacked lifts in the label order sigma; the intermediate
    apex is lifted last in the second pass.

    The input must be r-neighborly of even dimension 2r; the output is
    then (r+1)-neighborly, which verify=True certifies subset by
    subset; verify=False trusts the base.  Pass a list as specs to
    capture the two LiftSpecs used.
    """
    if config.dim % 2:
        raise ValueError("double lift needs an even-dimensional base")
    r = config.dim // 2
    if verify and not is_k_neighborly(config, r):
        raise ValueError(f"base is not {r}-neighborly")
    sigma = tuple(sigma)
    mid, spec1 = single_lift(config, sigma)
    out, spec2 = single_lift(mid, mid.labels)
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
    configuration: at each step exactly one point k has an r-neighborly
    double vertex figure with the inner apex a, and it is the point
    lifted last.  That figure's facets are F - {a, k} for the facets F
    containing both, so each step reads facets once and solves no LP.
    Zero or several candidates mean a corrupted input and fail loudly."""
    base_dim = config.dim - 2
    labels = sorted(config.labels)
    apex = labels[-2]  # the inner apex
    base_labels = labels[:-2]
    if len(base_labels) <= base_dim + 2:
        raise TooFewPoints(
            f"{len(base_labels)} base points, need more than {base_dim + 2}"
        )
    suffix = []
    current = config
    remaining = list(base_labels)
    while len(remaining) > base_dim + 2:
        facet_sets = _uncached_facets(current)
        candidates = []
        for k in remaining:
            pair = {apex, k}
            figure = [f - pair for f in facet_sets if pair <= f]
            rest = sorted(set(current.labels) - pair)
            if all(is_facet_meet(figure, s) for s in itertools.combinations(rest, r)):
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
    stage_configs: tuple  # P_0, P_2, ..., final


def degenerate_base(n_points: int) -> PointConfiguration:
    """n copies of the unique point of R^0, the seed of the pipeline."""
    return PointConfiguration(0, ((),) * n_points, tuple(range(1, n_points + 1)))


def sew(n: int, d: int) -> SewingRun:
    """Build an n-point neighborly d-polytope from the degenerate
    0-dimensional configuration: one double lift per two dimensions and
    a single lift when d is odd, each in increasing label order and
    certified neighborly."""
    if d < 0:
        raise ValueError(f"negative dimension {d}")
    if n <= d:
        raise ValueError("need n > d")
    current = degenerate_base(n - d)
    stage_configs = [current]
    for _ in range(d // 2):
        current = double_lift(current, tuple(sorted(current.labels)))
        stage_configs.append(current)
    if d % 2:
        current = single_lift(current, tuple(sorted(current.labels)))[0]
        stage_configs.append(current)
        if not is_k_neighborly(current, d // 2):
            raise ValueError("final lift lost neighborliness")
    return SewingRun(n, d, tuple(stage_configs))


@dataclass(frozen=True)
class FacetFingerprint:
    """Canonical byte encoding of the labeled facet sets; equal
    fingerprints mean equal labeled face lattices for simplicial
    polytopes."""

    data: bytes


def fingerprint(config: PointConfiguration) -> FacetFingerprint:
    sets = sorted(map(sorted, _uncached_facets(config)))
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
                # a complete record that does not parse is no torn tail
                with wire_format("fingerprint store"):
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
        return json.dumps(asdict(self))


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
    if budget is not None and budget < 0:
        raise ValueError(f"negative budget {budget}")
    base = sew(n, d - 2).stage_configs[-1]
    labels = tuple(sorted(base.labels))
    total = math.factorial(n)
    if budget is not None and total > budget:
        rng = random.Random(seed)
        perms = {}  # the distinct draws, in the order drawn
        while len(perms) < budget:
            perms[tuple(rng.sample(labels, len(labels)))] = None
        budget_hit = True
    else:
        perms = list(itertools.permutations(labels))
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

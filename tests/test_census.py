import json
import multiprocessing
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtri.census import (
    FacetFingerprint,
    FingerprintStore,
    census,
    degenerate_base,
    double_lift,
    fingerprint,
    is_k_neighborly,
    recover_sigma_suffix,
    sew,
    single_lift,
)
from regtri.errors import NonUniqueIndex, TooFewPoints
from regtri.geometry import (
    PointConfiguration,
    cyclic_configuration,
    facets,
    in_convex_position,
)
from regtri.lifting import double_contraction

from oracles import gale_evenness_facets


def square():
    return PointConfiguration.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])


def test_is_k_neighborly_basics():
    assert is_k_neighborly(square(), 0)
    assert is_k_neighborly(square(), 1)
    res = is_k_neighborly(square(), 2)
    assert not res
    assert res.refuting_subset in ({1, 4}, {2, 3})  # a diagonal


def test_cyclic_48_two_neighborly():
    cfg = cyclic_configuration(4, list(range(1, 9)))
    assert is_k_neighborly(cfg, 2)
    # cross-check the edge set against the Gale evenness facets
    fs = gale_evenness_facets(4, 8)
    from itertools import combinations

    for pair in combinations(range(1, 9), 2):
        assert any(set(pair) <= f for f in fs)


def test_double_lift_of_degenerate_base_is_polygon():
    base = degenerate_base(4)
    out = double_lift(base, (1, 2, 3, 4))
    assert out.dim == 2
    assert out.n == 6
    assert in_convex_position(out)
    assert is_k_neighborly(out, 1)


def test_double_lift_requires_even_dimension():
    seg = PointConfiguration.from_rows([[0], [1], [2]])
    with pytest.raises(ValueError):
        double_lift(seg, (1, 2, 3))


def test_double_lift_rejects_wrong_order():
    with pytest.raises(ValueError):
        double_lift(degenerate_base(3), (1, 2))


def test_double_contraction_recovers_base_type():
    base = sew(6, 2).stage_configs[-1]
    lifted = double_lift(base, tuple(sorted(base.labels)))
    apex_inner, apex_outer = sorted(lifted.labels)[-2:]
    back = double_contraction(lifted, apex_inner, apex_outer)
    assert fingerprint(back) == fingerprint(base)


def test_sew_simplex_when_one_extra_point():
    for d in (2, 3, 4):
        run = sew(d + 1, d)
        final = run.stage_configs[-1]
        assert final.n == d + 1
        assert len(facets(final)) == d + 1


def test_sew_shapes_and_neighborliness():
    run = sew(7, 4)
    final = run.stage_configs[-1]
    assert (final.dim, final.n) == (4, 7)
    assert is_k_neighborly(final, 2)
    run3 = sew(6, 3)
    assert (run3.stage_configs[-1].dim, run3.stage_configs[-1].n) == (3, 6)
    assert is_k_neighborly(run3.stage_configs[-1], 1)


def test_sew_odd_final_contraction_recovers_previous_stage():
    run = sew(6, 3)
    final = run.stage_configs[-1]
    prev = run.stage_configs[-2]
    from regtri.lifting import contraction

    figure = contraction(final, sorted(final.labels)[-1])
    assert fingerprint(figure) == fingerprint(prev)


def test_recover_sigma_suffix_identity_and_planted():
    base = sew(6, 2).stage_configs[-1]
    lifted = double_lift(base, tuple(sorted(base.labels)))
    assert recover_sigma_suffix(lifted, 1) == (5, 6)
    rng = random.Random(21)
    for _ in range(3):
        sigma = list(base.labels)
        rng.shuffle(sigma)
        lifted = double_lift(base, tuple(sigma))
        assert recover_sigma_suffix(lifted, 1) == tuple(sigma[-2:])


def test_recover_sigma_suffix_too_few_points():
    # hypothesis boundary: a base with exactly dim + 2 points leaves
    # nothing recoverable
    base = sew(4, 2).stage_configs[-1]  # 4 points, dim 2
    lifted = double_lift(base, tuple(sorted(base.labels)))
    with pytest.raises(TooFewPoints):
        recover_sigma_suffix(lifted, 1)


def test_fingerprint_labeled_comparison():
    cfg = PointConfiguration.from_rows([[0, 0], [4, 0], [5, 3], [2, 5], [-1, 3]])
    fp = fingerprint(cfg)
    assert fingerprint(cfg) == fp
    relabeled = cfg.relabel({1: 2, 2: 1})
    assert fingerprint(relabeled) != fp
    assert FacetFingerprint.from_hex(fp.hex) == fp


def test_fingerprint_independent_of_liftspec():
    # the labeled type of a double lift depends only on the base and
    # the order, not on the epsilon chain chosen
    base = sew(5, 2).stage_configs[-1]
    sigma = (2, 4, 1, 5, 3)
    mid1, _ = single_lift(base, sigma)
    out1, _ = single_lift(mid1, mid1.labels, check_convex=False)
    # steeper chain: lift with apex shifted
    from regtri.lifting import auto_epsilons, lex_lift
    from regtri.geometry import centroid

    reordered = PointConfiguration(
        base.dim, tuple(base.point(l) for l in sigma), sigma
    )
    apex = tuple(x + F(1, 7) for x in centroid(base)) + (F(2),)
    spec = auto_epsilons(reordered, apex)
    mid2 = lex_lift(reordered, spec).lifted
    out2, _ = single_lift(mid2, mid2.labels, check_convex=False)
    assert fingerprint(out1) == fingerprint(out2)


def test_store_roundtrip(tmp_path):
    path = tmp_path / "census.store"
    store = FingerprintStore(path)
    fp1 = FacetFingerprint(b"abc")
    fp2 = FacetFingerprint(b"xyz")
    assert store.add(fp1, {"run": 1})
    assert not store.add(fp1, {"run": 2})  # dedup
    assert store.add(fp2, {"run": 3})
    assert len(store) == 2
    reopened = FingerprintStore(path)
    assert len(reopened) == 2
    assert fp1 in reopened and fp2 in reopened
    assert reopened.records[0]["provenance"] == {"run": 1}


def test_store_truncates_torn_tail_on_open(tmp_path):
    path = tmp_path / "census.store"
    FingerprintStore(path).add(FacetFingerprint(b"abc"), {"run": 1})
    with open(path, "ab") as fh:
        fh.write(b"\x00\x00\x00\x40{\"fing")  # interrupted append
    store = FingerprintStore(path)
    assert len(store) == 1
    assert store.add(FacetFingerprint(b"xyz"), {"run": 2})
    reopened = FingerprintStore(path)
    assert len(reopened) == 2
    assert [r["provenance"] for r in reopened.records] == [{"run": 1}, {"run": 2}]


def test_store_reopens_after_truncation_at_every_offset(tmp_path):
    full = tmp_path / "full.store"
    store = FingerprintStore(full)
    ends = []  # file size after each complete record
    for i in range(3):
        store.add(FacetFingerprint(bytes([i]) * 4), {"run": i})
        ends.append(full.stat().st_size)
    data = full.read_bytes()
    torn = tmp_path / "torn.store"
    for cut in range(len(data) + 1):
        torn.write_bytes(data[:cut])
        kept = [{"run": i} for i, end in enumerate(ends) if end <= cut]
        store = FingerprintStore(torn)
        assert [r["provenance"] for r in store.records] == kept
        assert store.add(FacetFingerprint(b"late"), {"run": "late"})
        reopened = FingerprintStore(torn)
        assert [r["provenance"] for r in reopened.records] == kept + [{"run": "late"}]


def _add_fingerprints(path, tag, count, start):
    store = FingerprintStore(path)
    start.wait(timeout=60)  # both writers append at the same time
    for i in range(count):
        store.add(FacetFingerprint(f"{tag}-{i}".encode()), {"tag": tag, "i": i})


def test_store_keeps_every_record_of_concurrent_writers(tmp_path):
    path = tmp_path / "shared.store"
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Barrier(2)
    writers = [ctx.Process(target=_add_fingerprints,
                           args=(str(path), tag, 200, start))
               for tag in ("a", "b")]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=120)
        assert not w.is_alive() and w.exitcode == 0
    reopened = FingerprintStore(path)
    assert len(reopened.records) == len(reopened) == 400
    assert {(r["provenance"]["tag"], r["provenance"]["i"]) for r in reopened.records} == {
        (tag, i) for tag in ("a", "b") for i in range(200)
    }


SEW_62_BASE = sew(6, 2).stage_configs[-1]


@settings(max_examples=12, deadline=None)
@given(st.permutations(sorted(SEW_62_BASE.labels)), st.randoms(use_true_random=False))
def test_fingerprint_commutes_with_relabeling(sigma, rng):
    lifted = double_lift(SEW_62_BASE, sigma, verify=False)
    labels = list(lifted.labels)
    pi = dict(zip(labels, rng.sample(labels, len(labels))))
    facet_sets = json.loads(fingerprint(lifted).data)
    relabeled = sorted(sorted(pi[l] for l in f) for f in facet_sets)
    expected = FacetFingerprint(json.dumps(relabeled, separators=(",", ":")).encode())
    assert fingerprint(lifted.relabel(pi)) == expected


def test_census_counts_only_its_own_fingerprints(tmp_path):
    fresh = census(3, 2, FingerprintStore(tmp_path / "fresh.store"))
    shared = FingerprintStore(tmp_path / "shared.store")
    census(4, 2, shared)
    after = census(3, 2, shared)
    assert fresh.distinct == after.distinct == 6
    assert len(shared) > after.distinct


def test_census_single_permutation_budget(tmp_path):
    store = FingerprintStore(tmp_path / "c.store")
    report = census(5, 4, store, budget=1, seed=3)
    assert report.attempted == 1
    assert report.distinct == 1
    assert report.budget_hit
    assert report.bound == 5  # 5!/4!


def test_census_resubmission_keeps_store_size(tmp_path):
    store = FingerprintStore(tmp_path / "c.store")
    census(5, 4, store, budget=1, seed=3)
    size = len(store)
    report = census(5, 4, store, budget=1, seed=3)
    assert len(store) == size
    assert report.distinct == size


def test_census_rejects_odd_dimension(tmp_path):
    with pytest.raises(ValueError):
        census(6, 3, FingerprintStore(tmp_path / "c.store"))

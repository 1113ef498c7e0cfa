"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import random
import sys
from pathlib import Path

import run

regtri = run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Failure, Op  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(1, 41)) == (30, 75.0)
    assert run.tail(range(1, 12)) == (1, 100 / 11)
    # with ten samples or fewer, the tail is the maximum
    assert run.tail([5, 1, 9, 3]) == (9, 100.0)
    assert run.tail(range(10)) == (9, 100.0)


def test_probe_scales_to_reference_speed_and_drops_its_own_time():
    probe = run.SpeedProbe()
    # a machine at half the reference speed, sampled once a second
    probe.starts = [float(t) for t in range(11)]
    probe.durations = [2 * run.REF_S] * 11
    # [2.5, 5.5] holds the samples taken at 3, 4 and 5
    expected = (3.0 - 3 * 2 * run.REF_S) / 2
    assert abs(probe.seconds(2.5, 5.5) - expected) < 1e-12


def test_reference_kernel_is_exact():
    m = run.reference_kernel()
    assert all(m[i][j] == (i == j) for i in range(7) for j in range(7))


def test_self_time_subtracts_the_union_of_child_spans():
    #   root [0, 10]: children [1, 4] and [3, 6] overlap on [3, 4]
    #   child [1, 4]: grandchild [2, 3]
    recorded = [
        ["root", 0.0, 10.0, None, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["g", 2.0, 3.0, 1, 0, None],
        ["b", 3.0, 6.0, 0, 0, None],
    ]
    assert spans.self_times(recorded) == [5.0, 2.0, 1.0, 3.0]


def test_tracer_nests_spans_and_unmeasured_share():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)
    outer = tracer.wrap("outer", lambda: (leaf(), leaf()))
    tracer.op = 7
    outer()
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", None, 7), ("leaf", 0, 7), ("leaf", 0, 7)]
    # outer spans [0, 5], each leaf one tick: self time 5 - 2
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]
    # an op window of [0, 10] leaves half of it outside the root span
    assert spans.unmeasured_share(tracer.spans, {7: (0.0, 10.0)}) == 0.5


def test_tracing_wraps_every_import_site_and_undoes_it():
    sites = [regtri.linprog, regtri.geometry, regtri.lifting,
             regtri.triangulations, regtri.enumeration]
    original = regtri.linprog.solve_lp
    with spans.installed(spans.Tracer()):
        wrapped = {id(m.solve_lp) for m in sites}
        assert len(wrapped) == 1 and regtri.geometry.solve_lp is not original
        # regtri.census is the census function; the module is in sys.modules
        assert sys.modules["regtri.census"].facets is regtri.geometry.facets
    assert all(m.solve_lp is original for m in sites)
    assert hasattr(regtri.geometry.facets, "cache_info")


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    def census_inputs(seed):
        w = workloads.Census(seed, tmp_path)
        w.setup()
        assert not set(w.warm_sigmas) & set(w.sigmas)
        return w.sigmas[:50], w.deep_offset

    def enumerate_inputs(seed):
        w = workloads.Enumerate(seed, tmp_path)
        w.setup()
        return [cfg for _, cfg, _ in w.members]

    for inputs in (census_inputs, enumerate_inputs):
        assert inputs(1) == inputs(1)
        assert inputs(1) != inputs(2)
    # certify's batch follows from its configurations
    nested = workloads.perturbed(random.Random(0), workloads.NESTED)

    def image(seed):
        return workloads.affine_image(random.Random(seed), nested)

    assert image(1) == image(1)
    assert image(1) != image(2)


def square():
    return regtri.PointConfiguration.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])


def test_wrong_results_count_as_failed_and_are_not_raised():
    cfg = square()
    w = workloads.Enumerate(0, None)
    both = regtri.enumerate_regular(cfg)
    one = set(list(both)[:1])

    def boom():
        raise ValueError("deliberate")

    ops = [
        Op("right", lambda: both, lambda out: w._check(cfg, 2, out)),
        Op("wrong", lambda: one, lambda out: w._check(cfg, 2, out)),
        Op("raises", boom, lambda out: None),
        Op("check raises", lambda: None, lambda out: out.missing),
    ]
    results = [(op, *run.call(op, Failure)) for op in ops]
    got = run.verdicts(results, None, Failure)
    assert got[0] is None
    assert all(isinstance(f, Failure) and f.known is None for f in got[1:])
    assert "found 1 of 2" in got[1].reason
    assert "deliberate" in got[2].reason
    # a failed pass-level check fails every op
    assert run.verdicts(results[:1], Failure("store"), Failure) == [Failure("store")]


def test_known_defect_is_failed_but_marked():
    # a square with one interior point in general position
    cfg = regtri.PointConfiguration.from_rows(
        [[0, 0], [4, 0], [0, 4], [4, 4], [1, 2]])
    w = workloads.Enumerate(0, None)
    failure = w._check(cfg, None, regtri.enumerate_regular(cfg))
    assert failure is not None and failure.known == "ROADMAP item 2"


def test_certify_check_rejects_a_wrong_verdict():
    cfg = square()
    t = regtri.placing_triangulation(cfg)
    res = regtri.is_regular(t, cfg)
    assert workloads.Certify._check(cfg, t, True, res) is None
    assert workloads.Certify._check(cfg, t, False, res) is not None
    other = next(iter(regtri.enumerate_regular(cfg) - {t}))
    assert "witness" in workloads.Certify._check(cfg, other, True, res).reason


class SmallCensus(workloads.Census):
    trace_cycles = 2


def test_traced_call_counts_repeat_for_a_seed(tmp_path):
    runs = [run.traced_run(regtri, workloads, spans,
                           SmallCensus(3, tmp_path))[0] for _ in range(2)]
    counts = [{k: v for k, (v, unit) in r.items() if unit == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["census.double_lift.calls"] == 2
    assert runs[0]["bench.unmeasured_share"][0] < 0.1


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in spans.METRICS]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)

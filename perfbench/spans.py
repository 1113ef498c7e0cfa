"""In-memory span tracing of the regtri layers, installed from outside
the package.

Each traced function is replaced by a wrapper at its definition and at
every module that imported it by name (``from .linprog import solve_lp``
in geometry, lifting, triangulations and enumeration, for example), so
calls between layers are seen whichever binding they go through.  A
span is ``[name, start, end, parent, op, info]``: ``parent`` is the
index of the enclosing span or None, ``op`` the id of the benchmark
operation that caused it, and ``info`` what a probe read from the
call's arguments and result, or the exception class it raised.  A
layer's self time is its spans' durations minus the part covered by
their child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# Layers in stack order; cli is left out because its cost is JSON I/O
# and process start-up.
LAYERS = ("linalg", "linprog", "geometry", "lifting", "triangulations",
          "enumeration", "census")

# Functions traced per layer.  A span is named "<layer>.<function>";
# the two store methods become census.store_add and census.store_load.
TRACED = {
    "linalg": ("det", "det_sign", "rank", "solve", "kernel_vector"),
    "linprog": ("solve_lp", "lp_feasible"),
    "geometry": ("facets", "proper_faces", "is_vertex", "in_convex_position",
                 "hyperplane_functional", "orientation", "is_face",
                 "affine_dim", "visibility", "is_general_position",
                 "configuration_in_general_position", "face_lattice_faces"),
    "lifting": ("auto_epsilons", "lex_lift", "contraction",
                "double_contraction", "perturb_general"),
    "triangulations": ("is_regular", "barycentric", "is_triangulation",
                       "simplices_properly_intersect",
                       "placing_triangulation", "pulling_triangulation",
                       "regular_subdivision"),
    "enumeration": ("enumerate_regular", "flip_neighbors",
                    "enumerate_all_oracle", "split_point", "t_sweep",
                    "shared_witness", "check_inseparable"),
    "census": ("double_lift", "single_lift", "fingerprint",
               "is_k_neighborly", "recover_sigma_suffix", "sew", "census"),
}
STORE_METHODS = {"add": "census.store_add", "_load": "census.store_load"}


def _lp_shape(out, c, a_ub, b_ub, a_eq=(), b_eq=(), nonneg=False):
    return (len(a_ub) + len(a_eq), len(c), out.optimal)


# Probes read what the per-layer ratios need from a call that returned.
PROBES = {
    "linprog.solve_lp": _lp_shape,
    "triangulations.is_regular": lambda out, *a, **k: out.regular,
    "enumeration.flip_neighbors": lambda out, *a, **k: len(out),
    "enumeration.enumerate_regular": lambda out, *a, **k: len(out),
    "census.store_add": lambda out, *a, **k: out,
}

# Per-layer metrics of the traced run: (name, unit, better, the
# end-to-end metric and workload it should move).
METRICS = []
for _fn, _moves in (("det", "census.ops_per_s"),
                    ("det_sign", "census.ops_per_s"),
                    ("rank", "census.ops_per_s"),
                    ("solve", "enumerate.op_p50_ms, certify.ops_per_s"),
                    ("kernel_vector", "enumerate.op_p50_ms")):
    METRICS += [(f"linalg.{_fn}.calls", "count", "lower", _moves),
                (f"linalg.{_fn}.self_s", "s", "lower", _moves)]
_LP = ("small LPs: census.ops_per_s; large LPs: enumerate.op_p50_ms, "
       "certify.ops_per_s")
_CENSUS = "census.ops_per_s"
_ENUM = "enumerate.op_p50_ms"
_TRI = "enumerate.op_p50_ms, certify.ops_per_s"
METRICS += [
    ("linprog.solve_lp.calls", "count", "lower", _LP),
    ("linprog.solve_lp.self_s", "s", "lower", _LP),
    ("linprog.solve_lp.rows_mean", "rows", "lower", _LP),
    ("linprog.solve_lp.vars_mean", "vars", "lower", _LP),
    ("linprog.solve_lp.optimal_share", "ratio", "higher", _LP),
    ("geometry.facets.calls", "count", "lower", _CENSUS),
    ("geometry.facets.self_s", "s", "lower", _CENSUS),
    ("geometry.facets.hit_ratio", "ratio", "higher", _CENSUS),
    ("geometry.is_vertex.calls", "count", "lower", _CENSUS),
    ("geometry.is_vertex.self_s", "s", "lower", _CENSUS),
    ("geometry.in_convex_position.calls", "count", "lower", _CENSUS),
    ("geometry.hyperplane_functional.calls", "count", "lower", _CENSUS),
    ("geometry.orientation.calls", "count", "lower", _CENSUS),
    ("geometry.is_face.calls", "count", "lower", _CENSUS),
    ("lifting.auto_epsilons.calls", "count", "lower", _CENSUS),
    ("lifting.auto_epsilons.self_s", "s", "lower", _CENSUS),
    ("lifting.lex_lift.calls", "count", "lower", _CENSUS),
    ("lifting.lex_lift.self_s", "s", "lower", _CENSUS),
    ("lifting.lex_lift.accept_ratio", "ratio", "higher", _CENSUS),
    ("triangulations.is_regular.calls", "count", "lower", _TRI),
    ("triangulations.is_regular.self_s", "s", "lower", _TRI),
    ("triangulations.is_regular.regular_share", "ratio", "higher", _TRI),
    ("triangulations.barycentric.calls", "count", "lower", _TRI),
    ("triangulations.barycentric.self_s", "s", "lower", _TRI),
    ("triangulations.is_triangulation.calls", "count", "lower", _TRI),
    ("triangulations.is_triangulation.self_s", "s", "lower", _TRI),
    ("triangulations.simplices_properly_intersect.calls", "count", "lower",
     _TRI),
    ("triangulations.placing_triangulation.self_s", "s", "lower", _TRI),
    ("enumeration.enumerate_regular.self_s", "s", "lower", _ENUM),
    ("enumeration.flip_neighbors.calls", "count", "lower", _ENUM),
    ("enumeration.flip_neighbors.self_s", "s", "lower", _ENUM),
    ("enumeration.neighbors_returned", "count", "lower", _ENUM),
    ("enumeration.found_per_is_regular", "ratio", "higher", _ENUM),
    ("census.double_lift.calls", "count", "lower", _CENSUS),
    ("census.double_lift.self_s", "s", "lower", _CENSUS),
    ("census.single_lift.self_s", "s", "lower", _CENSUS),
    ("census.fingerprint.calls", "count", "lower", _CENSUS),
    ("census.fingerprint.self_s", "s", "lower", _CENSUS),
    ("census.store_add.calls", "count", "lower", _CENSUS),
    ("census.store_add.self_s", "s", "lower", _CENSUS),
    ("census.store_add.written_ratio", "ratio", "higher", _CENSUS),
    ("census.store_load.self_s", "s", "lower", _CENSUS),
    ("bench.unmeasured_share", "ratio", "lower", "all workloads"),
    ("bench.trace_overhead_ratio", "ratio", "lower", "all workloads"),
]


class Tracer:
    """Collects spans in memory.  Single-threaded: one span stack."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.op = None
        self._stack = []
        self._clock = clock

    def wrap(self, name, fn, probe=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None,
                    self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[5] = probe(out, *args, **kwargs)
            return out

        return traced


@contextmanager
def installed(tracer):
    """Trace every function in TRACED, at all its import sites, and
    the two FingerprintStore methods; undone on exit."""
    modules = [importlib.import_module(f"regtri.{layer}") for layer in LAYERS]
    sites = [m for name, m in list(sys.modules.items())
             if name == "regtri" or name.startswith("regtri.")]
    undo = []
    try:
        for layer, mod in zip(LAYERS, modules):
            for fname in TRACED[layer]:
                orig = getattr(mod, fname)
                name = f"{layer}.{fname}"
                wrapper = tracer.wrap(name, orig, PROBES.get(name))
                for site in sites:
                    for key, val in list(vars(site).items()):
                        if val is orig:
                            setattr(site, key, wrapper)
                            undo.append((site, key, orig))
        store = importlib.import_module("regtri.census").FingerprintStore
        for meth, name in STORE_METHODS.items():
            orig = vars(store)[meth]
            setattr(store, meth, tracer.wrap(name, orig, PROBES.get(name)))
            undo.append((store, meth, orig))
        yield tracer
    finally:
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)


def covered(intervals, lo=float("-inf"), hi=float("inf")):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Self time of each span: its duration minus the union of its
    children's intervals."""
    children = [[] for _ in spans]
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    return [(s[2] - s[1]) - covered(children[i], s[1], s[2])
            for i, s in enumerate(spans)]


def unmeasured_share(spans, op_windows):
    """Share of op wall time that no root span covers; op_windows maps
    an op id to its (start, end)."""
    roots = {}
    for s in spans:
        if s[3] is None and s[4] in op_windows:
            roots.setdefault(s[4], []).append((s[1], s[2]))
    wall = sum(b - a for a, b in op_windows.values())
    gap = sum((b - a) - covered(roots.get(op, ()), a, b)
              for op, (a, b) in op_windows.items())
    return gap / wall if wall > 0 else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, facets_hits, facets_misses, op_windows,
                  overhead_ratio):
    """Every METRICS entry from the spans of one traced pass.

    facets_hits and facets_misses are deltas of facets.cache_info() over
    the pass; a ratio whose base is zero reads 0.
    """
    selfs = self_times(spans)
    calls, self_s, infos = {}, {}, {}
    for s, st in zip(spans, selfs):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
        infos.setdefault(name, []).append(s[5])
    out = {}
    for metric, _, _, _ in METRICS:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(base, 0)
        elif field == "self_s":
            out[metric] = self_s.get(base, 0.0)
    lp = [i for i in infos.get("linprog.solve_lp", ()) if isinstance(i, tuple)]
    out["linprog.solve_lp.rows_mean"] = _ratio(sum(i[0] for i in lp), len(lp))
    out["linprog.solve_lp.vars_mean"] = _ratio(sum(i[1] for i in lp), len(lp))
    out["linprog.solve_lp.optimal_share"] = _ratio(
        sum(1 for i in lp if i[2]), len(lp))
    out["geometry.facets.hit_ratio"] = _ratio(
        facets_hits, facets_hits + facets_misses)
    lifts = infos.get("lifting.lex_lift", ())
    out["lifting.lex_lift.accept_ratio"] = _ratio(
        sum(1 for i in lifts if not isinstance(i, type)), len(lifts))
    regs = infos.get("triangulations.is_regular", ())
    out["triangulations.is_regular.regular_share"] = _ratio(
        sum(1 for i in regs if i is True), len(regs))
    out["enumeration.neighbors_returned"] = sum(
        i for i in infos.get("enumeration.flip_neighbors", ())
        if isinstance(i, int))
    found = sum(i for i in infos.get("enumeration.enumerate_regular", ())
                if isinstance(i, int))
    out["enumeration.found_per_is_regular"] = _ratio(
        found, calls.get("triangulations.is_regular", 0))
    adds = infos.get("census.store_add", ())
    out["census.store_add.written_ratio"] = _ratio(
        sum(1 for i in adds if i is True), len(adds))
    out["bench.unmeasured_share"] = unmeasured_share(spans, op_windows)
    out["bench.trace_overhead_ratio"] = overhead_ratio
    return out

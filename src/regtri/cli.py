"""Command-line front end.

Every command reads and writes the JSON wire formats of the library.
The runner `command` registers each one and owns what they share: it
adds --output, prints the command's text or writes it to --output with
a run manifest beside it, and exits with the command's code: 0 success,
1 validation failure, 2 budget exhaustion (with partial results
emitted).  A RegtriError, ValueError or OSError becomes a JSON error on
stderr and exit 1, with nothing on stdout and neither --output nor its
manifest left behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import click

from . import __version__
from .census import FingerprintStore, _lift_apex, census as run_census, sew as run_sew
from .enumeration import (
    SplitPair,
    cyclic_inseparable_realization,
    enumerate_all_oracle,
    enumerate_regular,
    t_sweep,
)
from .errors import BudgetExceeded, NotConvexPosition, RegtriError
from .geometry import PointConfiguration, format_rational, in_convex_position
from .lifting import LiftSpec, auto_lift, contraction, lex_lift
from .triangulations import (
    Triangulation,
    f_vector,
    h_vector,
    heights_from_json,
    is_regular,
    placing_triangulation,
    pulling_triangulation,
)


def _load_config(path) -> PointConfiguration:
    return PointConfiguration.from_json(Path(path).read_text())


@click.group()
@click.version_option(__version__)
def main():
    """Exact construction and enumeration of regular triangulations."""


def command(name):
    """Register `body` as the command `name`, with an --output option.
    The body only computes: it returns (text, parameters, exit_code).
    The manifest written beside --output records those parameters, the
    --seed option as its seeds, and the sha256 of every
    click.Path(exists=True) parameter as its input digests."""

    def register(body):
        def run(output, **params):
            started = time.monotonic()
            try:
                text, parameters, code = body(**params)
                if not output:
                    click.echo(text)
                else:
                    inputs = [
                        params[p.name]
                        for p in click.get_current_context().command.params
                        if isinstance(p.type, click.Path) and p.type.exists and params[p.name]
                    ]
                    manifest = {
                        "command": name,
                        "parameters": parameters,
                        "seeds": {"seed": params["seed"]} if "seed" in params else {},
                        "input_digests": {
                            p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs
                        },
                        "tool_version": __version__,
                        "wall_clock_seconds": round(time.monotonic() - started, 3),
                    }
                    Path(output).write_text(text)
                    try:
                        Path(output + ".manifest.json").write_text(json.dumps(manifest, indent=2))
                    except OSError:
                        Path(output).unlink()
                        raise
            except (RegtriError, ValueError, OSError) as exc:
                click.echo(
                    json.dumps({"error": type(exc).__name__, "message": str(exc)}), err=True
                )
                code = 1
            sys.exit(code)

        run.__doc__ = body.__doc__
        run.__click_params__ = [click.Option(["--output"], type=click.Path())]
        run.__click_params__ += body.__click_params__
        return main.command(name)(run)

    return register


@command("lift")
@click.argument("config_file", type=click.Path(exists=True))
@click.option("--spec-file", type=click.Path(exists=True), help="LiftSpec JSON; default auto-epsilons over the centroid apex.")
@click.option("--apex", help="comma-separated rationals; used with auto-epsilons")
def lift(config_file, spec_file, apex):
    """Positive lexicographic lift of a configuration."""
    base = _load_config(config_file)
    # segments with interior points are a standard base case
    if base.dim > 1 and not in_convex_position(base):
        raise NotConvexPosition("base configuration is not in convex position")
    if spec_file:
        lifted = lex_lift(base, LiftSpec.from_json(Path(spec_file).read_text()))
    else:
        apex_pt = [x.strip() for x in apex.split(",")] if apex else _lift_apex(base)
        lifted = auto_lift(base, apex_pt)
    return lifted.lifted.to_json(), {"spec": json.loads(lifted.spec.to_json())}, 0


@command("contract")
@click.argument("config_file", type=click.Path(exists=True))
@click.option("--label", type=int, required=True)
def contract(config_file, label):
    """Vertex figure of the configuration at a labeled vertex."""
    return contraction(_load_config(config_file), label).to_json(), {"label": label}, 0


@command("triangulate")
@click.argument("config_file", type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["placing", "pulling"]), default="placing")
@click.option("--csv", "csv_path", type=click.Path(), help="write f- and h-vector rows as CSV")
def triangulate(config_file, method, csv_path):
    """Placing or pulling triangulation, with f/h-vector emission."""
    config = _load_config(config_file)
    t = (placing_triangulation if method == "placing" else pulling_triangulation)(config)
    if csv_path:
        f = f_vector(t.cells)
        h = h_vector(t.cells)
        rows = ["vector," + ",".join(f"c{i}" for i in range(len(h)))]
        rows.append("f," + ",".join(str(x) for x in f))
        rows.append("h," + ",".join(str(x) for x in h))
        Path(csv_path).write_text("\n".join(rows) + "\n")
    return t.to_json(), {"method": method}, 0


@command("regular")
@click.argument("config_file", type=click.Path(exists=True))
@click.argument("triangulation_file", type=click.Path(exists=True))
def regular(config_file, triangulation_file):
    """Certify a triangulation regular or produce a refutation."""
    config = _load_config(config_file)
    t = Triangulation.from_json(Path(triangulation_file).read_text())
    res = is_regular(t, config, validate=True)
    payload = {"regular": res.regular}
    if res.regular:
        payload["witness"] = {
            str(l): format_rational(v) for l, v in sorted(res.witness.items())
        }
    else:
        payload["certificate"] = [format_rational(y) for y in res.certificate]
        payload["certificate_valid"] = res.certificate_valid
    return json.dumps(payload), {}, 0 if res.regular else 1


@command("enumerate")
@click.argument("config_file", type=click.Path(exists=True))
@click.option("--oracle", is_flag=True, help="use the extension-search oracle instead of flip search")
@click.option(
    "--budget", type=int,
    help="stop once BUDGET + 1 triangulations are found; they are emitted and the exit code is 2",
)
def enumerate(config_file, oracle, budget):
    """Enumerate (regular) triangulations as JSON lines plus summary."""
    config = _load_config(config_file)
    lines = []
    budget_hit = False
    try:
        found = (
            enumerate_all_oracle(config, budget=budget)
            if oracle
            else enumerate_regular(config, budget=budget)
        )
    except BudgetExceeded as exc:
        # partial results are emitted, then the exit code says so
        found = exc.partial or set()
        budget_hit = True
    certified = 0
    for t in sorted(found, key=lambda t: sorted(sorted(c) for c in t.cells)):
        reg = is_regular(t, config).regular if oracle else True
        certified += reg
        lines.append(json.dumps({"cells": sorted(sorted(c) for c in t.cells), "regular": reg}))
    lines.append(
        json.dumps(
            {"count": len(found), "certified_regular": certified, "budget_hit": budget_hit}
        )
    )
    return "\n".join(lines) + "\n", {"oracle": oracle, "budget": budget}, 2 if budget_hit else 0


@command("sweep")
@click.argument("config_file", type=click.Path(exists=True))
@click.argument("triangulation_file", type=click.Path(exists=True))
@click.argument("heights_file", type=click.Path(exists=True))
@click.option("--p", "p_label", type=int, required=True)
@click.option("--p-prime", "pp_label", type=int, required=True)
def sweep(config_file, triangulation_file, heights_file, p_label, pp_label):
    """One-parameter lifting sweep between a split pair of points."""
    config = _load_config(config_file)
    t = Triangulation.from_json(Path(triangulation_file).read_text())
    w = heights_from_json(Path(heights_file).read_text())
    pair = SplitPair(config, p_label, pp_label, epsilon=0)
    trace = t_sweep(pair, t, w)
    payload = {
        "breakpoints": [
            {"t": format_rational(tv), "flat_cell": sorted(cell)}
            for tv, cell in trace.breakpoints
        ],
        "snapshots": [
            {"t": format_rational(tv), "cells": sorted(sorted(c) for c in tri.cells)}
            for tv, tri in trace.snapshots
        ],
    }
    return json.dumps(payload), {"p": p_label, "p_prime": pp_label}, 0


@command("sew")
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, required=True)
def sew(n, d):
    """Build an n-vertex neighborly d-polytope by iterated sewing."""
    return run_sew(n, d).stage_configs[-1].to_json(), {"n": n, "d": d}, 0


@command("census")
@click.option("--n", type=int, required=True, help="base points of the varied stage")
@click.option("--d", type=int, required=True)
@click.option("--exhaustive", is_flag=True)
@click.option(
    "--budget", type=int,
    help="when n! exceeds BUDGET, fingerprint BUDGET distinct permutations drawn with --seed "
    "and exit 2; otherwise run all n!",
)
@click.option("--seed", type=int, default=0)
@click.option("--store", "store_path", type=click.Path(), envvar="REGTRI_STORE")
def census_cmd(n, d, exhaustive, budget, seed, store_path):
    """Fingerprint census over final-stage lift orders."""
    if store_path is None:
        raise ValueError("no store path; pass --store or set REGTRI_STORE")
    store = FingerprintStore(store_path)
    report = run_census(n, d, store, budget=None if exhaustive else budget, seed=seed)
    parameters = {"n": n, "d": d, "exhaustive": exhaustive, "budget": budget}
    return report.to_json(), parameters, 2 if report.budget_hit else 0


@command("verify-bounds")
@click.option("--construction", type=click.Choice(["cyclic", "census"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--store", "store_path", type=click.Path(), envvar="REGTRI_STORE")
def verify_bounds(construction, n, d, seed, store_path):
    """Compare enumerated counts against the construction lower bounds."""
    if construction == "cyclic":
        run = cyclic_inseparable_realization(d, n)
        bound, count = run.bound, len(enumerate_regular(run.config))
        payload = {"construction": "cyclic", "n": n, "d": d, "bound": bound, "enumerated": count}
    else:
        with tempfile.TemporaryDirectory() as scratch:
            path = store_path or os.path.join(scratch, "census.store")
            report = run_census(n, d, FingerprintStore(path), seed=seed)
        bound, count = report.bound, report.distinct
        payload = {"construction": "census", "n": n, "d": d, "bound": bound, "distinct": count}
    payload["status"] = "PASS" if count >= bound else "FAIL"
    parameters = {"construction": construction, "n": n, "d": d}
    return json.dumps(payload), parameters, 0 if count >= bound else 1


if __name__ == "__main__":
    main()

"""Command-line front end.

Every command reads/writes the JSON wire formats of the library, writes
a run manifest capturing parameters, seeds, and input digests, and maps
errors to exit codes: 0 success, 1 validation failure, 2 budget
exhaustion (with partial results emitted).
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
from .census import FingerprintStore, census as run_census, sew as run_sew
from .enumeration import (
    SplitPair,
    cyclic_inseparable_realization,
    enumerate_all_oracle,
    enumerate_regular,
    t_sweep,
)
from .errors import BudgetExceeded, RegtriError
from .geometry import PointConfiguration, format_rational
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


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(output, command, parameters, seeds, inputs, started):
    manifest = {
        "command": command,
        "parameters": parameters,
        "seeds": seeds,
        "input_digests": {str(p): _digest(p) for p in inputs},
        "tool_version": __version__,
        "wall_clock_seconds": round(time.monotonic() - started, 3),
    }
    if output:
        Path(str(output) + ".manifest.json").write_text(json.dumps(manifest, indent=2))


def _emit(output, text):
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text)


def _load_config(path) -> PointConfiguration:
    return PointConfiguration.from_json(Path(path).read_text())


@click.group()
@click.version_option(__version__)
def main():
    """Exact construction and enumeration of regular triangulations."""


def _run(fn):
    try:
        fn()
    except BudgetExceeded as exc:
        click.echo(json.dumps({"error": "budget_exceeded", "count": exc.count}))
        sys.exit(2)
    except (RegtriError, ValueError) as exc:
        click.echo(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}), err=True
        )
        sys.exit(1)


@main.command()
@click.argument("config_file", type=click.Path(exists=True))
@click.option("--spec-file", type=click.Path(exists=True), help="LiftSpec JSON; default auto-epsilons over the centroid apex.")
@click.option("--apex", help="comma-separated rationals; used with auto-epsilons")
@click.option("--output", type=click.Path())
def lift(config_file, spec_file, apex, output):
    """Positive lexicographic lift of a configuration."""
    started = time.monotonic()

    def go():
        base = _load_config(config_file)
        if spec_file:
            lifted = lex_lift(base, LiftSpec.from_json(Path(spec_file).read_text()))
        else:
            if apex:
                apex_pt = [x.strip() for x in apex.split(",")]
            else:
                from .census import _lift_apex

                apex_pt = _lift_apex(base)
            lifted = auto_lift(base, apex_pt)
        _emit(output, lifted.lifted.to_json())
        _write_manifest(
            output,
            "lift",
            {"spec": json.loads(lifted.spec.to_json())},
            {},
            [config_file] + ([spec_file] if spec_file else []),
            started,
        )

    _run(go)


@main.command()
@click.argument("config_file", type=click.Path(exists=True))
@click.option("--label", type=int, required=True)
@click.option("--output", type=click.Path())
def contract(config_file, label, output):
    """Vertex figure of the configuration at a labeled vertex."""
    started = time.monotonic()

    def go():
        out = contraction(_load_config(config_file), label)
        _emit(output, out.to_json())
        _write_manifest(output, "contract", {"label": label}, {}, [config_file], started)

    _run(go)


@main.command()
@click.argument("config_file", type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["placing", "pulling"]), default="placing")
@click.option("--output", type=click.Path())
@click.option("--csv", "csv_path", type=click.Path(), help="write f- and h-vector rows as CSV")
def triangulate(config_file, method, output, csv_path):
    """Placing or pulling triangulation, with f/h-vector emission."""
    started = time.monotonic()

    def go():
        config = _load_config(config_file)
        t = (placing_triangulation if method == "placing" else pulling_triangulation)(
            config
        )
        _emit(output, t.to_json())
        if csv_path:
            f = f_vector(t.cells)
            h = h_vector(t.cells)
            rows = ["vector," + ",".join(f"c{i}" for i in range(len(h)))]
            rows.append("f," + ",".join(str(x) for x in f))
            rows.append("h," + ",".join(str(x) for x in h))
            Path(csv_path).write_text("\n".join(rows) + "\n")
        _write_manifest(output, "triangulate", {"method": method}, {}, [config_file], started)

    _run(go)


@main.command()
@click.argument("config_file", type=click.Path(exists=True))
@click.argument("triangulation_file", type=click.Path(exists=True))
@click.option("--output", type=click.Path())
def regular(config_file, triangulation_file, output):
    """Certify a triangulation regular or produce a refutation."""
    started = time.monotonic()

    def go():
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
        _emit(output, json.dumps(payload))
        _write_manifest(
            output, "regular", {}, {}, [config_file, triangulation_file], started
        )
        if not res.regular:
            sys.exit(1)

    _run(go)


@main.command()
@click.argument("config_file", type=click.Path(exists=True))
@click.option("--oracle", is_flag=True, help="use the extension-search oracle instead of flip search")
@click.option("--budget", type=int)
@click.option("--output", type=click.Path())
def enumerate(config_file, oracle, budget, output):
    """Enumerate (regular) triangulations as JSON lines plus summary."""
    started = time.monotonic()

    def go():
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
        _emit(output, "\n".join(lines) + "\n")
        _write_manifest(
            output,
            "enumerate",
            {"oracle": oracle, "budget": budget},
            {},
            [config_file],
            started,
        )
        if budget_hit:
            sys.exit(2)

    _run(go)


@main.command()
@click.argument("config_file", type=click.Path(exists=True))
@click.argument("triangulation_file", type=click.Path(exists=True))
@click.argument("heights_file", type=click.Path(exists=True))
@click.option("--p", "p_label", type=int, required=True)
@click.option("--p-prime", "pp_label", type=int, required=True)
@click.option("--output", type=click.Path())
def sweep(config_file, triangulation_file, heights_file, p_label, pp_label, output):
    """One-parameter lifting sweep between a split pair of points."""
    started = time.monotonic()

    def go():
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
        _emit(output, json.dumps(payload))
        _write_manifest(
            output,
            "sweep",
            {"p": p_label, "p_prime": pp_label},
            {},
            [config_file, triangulation_file, heights_file],
            started,
        )

    _run(go)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--output", type=click.Path())
def sew(n, d, output):
    """Build an n-vertex neighborly d-polytope by iterated sewing."""
    started = time.monotonic()

    def go():
        run = run_sew(n, d)
        _emit(output, run.stage_configs[-1].to_json())
        _write_manifest(output, "sew", {"n": n, "d": d}, {}, [], started)

    _run(go)


@main.command("census")
@click.option("--n", type=int, required=True, help="base points of the varied stage")
@click.option("--d", type=int, required=True)
@click.option("--exhaustive", is_flag=True)
@click.option("--budget", type=int)
@click.option("--seed", type=int, default=0)
@click.option("--store", "store_path", type=click.Path(), envvar="REGTRI_STORE")
@click.option("--output", type=click.Path())
def census_cmd(n, d, exhaustive, budget, seed, store_path, output):
    """Fingerprint census over final-stage lift orders."""
    started = time.monotonic()

    def go():
        if store_path is None:
            raise ValueError("no store path; pass --store or set REGTRI_STORE")
        store = FingerprintStore(store_path)
        report = run_census(
            n, d, store, budget=None if exhaustive else budget, seed=seed
        )
        _emit(output, report.to_json())
        _write_manifest(
            output,
            "census",
            {"n": n, "d": d, "exhaustive": exhaustive, "budget": budget},
            {"seed": seed},
            [],
            started,
        )
        if report.budget_hit:
            sys.exit(2)

    _run(go)


@main.command("verify-bounds")
@click.option("--construction", type=click.Choice(["cyclic", "census"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--store", "store_path", type=click.Path(), envvar="REGTRI_STORE")
@click.option("--output", type=click.Path())
def verify_bounds(construction, n, d, seed, store_path, output):
    """Compare enumerated counts against the construction lower bounds."""
    started = time.monotonic()

    def go():
        if construction == "cyclic":
            run = cyclic_inseparable_realization(d, n)
            count = len(enumerate_regular(run.config))
            bound = run.bound
            payload = {
                "construction": "cyclic",
                "n": n,
                "d": d,
                "bound": bound,
                "enumerated": count,
                "status": "PASS" if count >= bound else "FAIL",
            }
        else:
            with tempfile.TemporaryDirectory() as scratch:
                path = store_path or os.path.join(scratch, "census.store")
                report = run_census(n, d, FingerprintStore(path), seed=seed)
            payload = {
                "construction": "census",
                "n": n,
                "d": d,
                "bound": report.bound,
                "distinct": report.distinct,
                "status": "PASS" if report.distinct >= report.bound else "FAIL",
            }
        _emit(output, json.dumps(payload))
        _write_manifest(
            output,
            "verify-bounds",
            {"construction": construction, "n": n, "d": d},
            {"seed": seed},
            [],
            started,
        )
        if payload["status"] != "PASS":
            sys.exit(1)

    _run(go)


if __name__ == "__main__":
    main()

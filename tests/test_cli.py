import json

import pytest
from click.testing import CliRunner

from regtri import geometry
from regtri.cli import main
from regtri.enumeration import shared_witness
from regtri.geometry import PointConfiguration
from regtri.triangulations import Triangulation, heights_to_json


def write_square(path):
    cfg = PointConfiguration.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])
    path.write_text(cfg.to_json())
    return cfg


def test_enumerate_oracle_square(tmp_path):
    cfg_path = tmp_path / "square.json"
    write_square(cfg_path)
    runner = CliRunner()
    result = runner.invoke(main, ["enumerate", str(cfg_path), "--oracle"])
    assert result.exit_code == 0, result.output
    lines = [json.loads(l) for l in result.output.strip().splitlines()]
    summary = lines[-1]
    assert summary == {"count": 2, "certified_regular": 2, "budget_hit": False}


def test_enumerate_budget_exit_code(tmp_path):
    cfg_path = tmp_path / "hex.json"
    cfg = PointConfiguration.from_rows(
        [[2, 0], [1, 2], [-1, 2], [-2, 0], [-1, -2], [1, -2]]
    )
    cfg_path.write_text(cfg.to_json())
    runner = CliRunner()
    result = runner.invoke(main, ["enumerate", str(cfg_path), "--budget", "3"])
    assert result.exit_code == 2
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["budget_hit"]


def test_enumerate_degenerate_start_is_a_json_error(tmp_path):
    cfg_path = tmp_path / "collinear.json"
    cfg = PointConfiguration.from_rows([[0, 0], [1, 0], [2, 0], [0, 1]])
    cfg_path.write_text(cfg.to_json())
    result = CliRunner().invoke(main, ["enumerate", str(cfg_path)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert json.loads(result.stderr)["error"] == "DegenerateStep"


def test_triangulate_and_regular_roundtrip(tmp_path):
    cfg_path = tmp_path / "square.json"
    write_square(cfg_path)
    tri_path = tmp_path / "tri.json"
    csv_path = tmp_path / "vectors.csv"
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["triangulate", str(cfg_path), "--output", str(tri_path), "--csv", str(csv_path)],
    )
    assert result.exit_code == 0, result.output
    t = Triangulation.from_json(tri_path.read_text())
    assert len(t.cells) == 2
    rows = csv_path.read_text().strip().splitlines()
    assert rows[1].startswith("f,4,5,2")
    # manifest written next to the output
    manifest = json.loads((tmp_path / "tri.json.manifest.json").read_text())
    assert manifest["command"] == "triangulate"
    assert str(cfg_path) in manifest["input_digests"]

    result = runner.invoke(main, ["regular", str(cfg_path), str(tri_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["regular"]
    assert payload["witness"]


def test_regular_nonregular_exits_one(tmp_path):
    cfg = PointConfiguration.from_rows(
        [[4, 0], [0, 4], [0, 0], [2, 1], [1, 2], [1, 1]]
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    t = Triangulation(
        [{1, 2, 4}, {2, 4, 5}, {2, 3, 5}, {3, 5, 6}, {1, 3, 6}, {1, 4, 6}, {4, 5, 6}]
    )
    tri_path = tmp_path / "tri.json"
    tri_path.write_text(t.to_json())
    runner = CliRunner()
    result = runner.invoke(main, ["regular", str(cfg_path), str(tri_path)])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert not payload["regular"]
    assert payload["certificate_valid"]


def test_lift_and_contract(tmp_path):
    cfg_path = tmp_path / "square.json"
    write_square(cfg_path)
    lifted_path = tmp_path / "lifted.json"
    runner = CliRunner()
    result = runner.invoke(
        main, ["lift", str(cfg_path), "--output", str(lifted_path)]
    )
    assert result.exit_code == 0, result.output
    lifted = PointConfiguration.from_json(lifted_path.read_text())
    assert (lifted.dim, lifted.n) == (3, 5)

    result = runner.invoke(main, ["contract", str(lifted_path), "--label", "5"])
    assert result.exit_code == 0, result.output
    back = PointConfiguration.from_json(result.output)
    assert (back.dim, back.n) == (2, 4)


def test_lift_proves_convex_position_once(tmp_path, monkeypatch):
    calls = []
    real = geometry.is_vertex
    monkeypatch.setattr(
        geometry, "is_vertex", lambda cfg, lab: calls.append(lab) or real(cfg, lab)
    )
    # a pentagon order whose lift needs at least one epsilon halving
    pentagon = PointConfiguration.from_rows([[5, 3], [-1, 3], [2, 5], [4, 0], [0, 0]])
    cfg_path = tmp_path / "pentagon.json"
    cfg_path.write_text(pentagon.to_json())
    lifted_path = tmp_path / "lifted.json"
    result = CliRunner().invoke(main, ["lift", str(cfg_path), "--output", str(lifted_path)])
    assert result.exit_code == 0, result.output
    assert len(calls) == pentagon.n
    manifest = json.loads((tmp_path / "lifted.json.manifest.json").read_text())
    assert manifest["parameters"]["spec"]["epsilons"][0] != "1/2"


def test_contract_invalid_label_exits_one(tmp_path):
    cfg_path = tmp_path / "square.json"
    write_square(cfg_path)
    runner = CliRunner()
    result = runner.invoke(main, ["contract", str(cfg_path), "--label", "9"])
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "command, bad_text",
    [
        (["contract", "{bad}", "--label", "1"],
         json.dumps({"points": [[["0", "1"], ["0", "1"]]]})),
        (["contract", "{bad}", "--label", "1"],
         json.dumps({"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]})),
        (["regular", "{square}", "{bad}"], json.dumps({"config": None})),
        (["sweep", "{square}", "{cells}", "{bad}", "--p", "1", "--p-prime", "4"],
         json.dumps({"heights": [0, 0, 0, 1]})),
        (["lift", "{square}", "--spec-file", "{bad}"], json.dumps({"apex": ["0", "1"]})),
    ],
    ids=["config-without-dim", "config-integer-points", "triangulation-without-cells",
         "heights-as-list", "spec-without-epsilons"],
)
def test_malformed_wire_format_is_a_json_error(tmp_path, command, bad_text):
    paths = {"square": tmp_path / "square.json", "cells": tmp_path / "cells.json",
             "bad": tmp_path / "bad.json"}
    write_square(paths["square"])
    paths["cells"].write_text(json.dumps({"cells": [[1, 2, 3], [2, 3, 4]]}))
    paths["bad"].write_text(bad_text)
    args = [a.format(**paths) for a in command]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert json.loads(result.stderr)["error"] == "ValueError"


def sweep_inputs(tmp_path):
    """Files for `regtri sweep` on a split heptagon pair (6, 7), and a
    shared witness for them."""
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
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    t = Triangulation([{6, 1, 2}, {6, 2, 3}, {6, 3, 5}, {3, 4, 5}])
    tri_path = tmp_path / "tri.json"
    tri_path.write_text(t.to_json())
    return cfg_path, tri_path, shared_witness(cfg, 6, 7, t)


def run_sweep(cfg_path, tri_path, w, w_path):
    w_path.write_text(heights_to_json(w))
    return CliRunner().invoke(
        main,
        ["sweep", str(cfg_path), str(tri_path), str(w_path), "--p", "6", "--p-prime", "7"],
    )


def test_sweep_command(tmp_path):
    cfg_path, tri_path, w = sweep_inputs(tmp_path)
    result = run_sweep(cfg_path, tri_path, w, tmp_path / "w.json")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert len(payload["breakpoints"]) == 3
    assert len(payload["snapshots"]) == 4


def test_sweep_heights_missing_a_label_is_a_json_error(tmp_path):
    cfg_path, tri_path, w = sweep_inputs(tmp_path)
    del w[3], w[7]
    result = run_sweep(cfg_path, tri_path, w, tmp_path / "w.json")
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    error = json.loads(result.stderr)
    assert error["error"] == "ValueError"
    assert "[3, 7]" in error["message"]


def test_sew_command(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["sew", "--n", "6", "--d", "3"])
    assert result.exit_code == 0, result.output
    cfg = PointConfiguration.from_json(result.output)
    assert (cfg.dim, cfg.n) == (3, 6)


def test_census_command_uses_store_env(tmp_path, monkeypatch):
    store_path = tmp_path / "census.store"
    monkeypatch.setenv("REGTRI_STORE", str(store_path))
    runner = CliRunner()
    result = runner.invoke(
        main, ["census", "--n", "5", "--d", "4", "--budget", "2", "--seed", "1"]
    )
    assert result.exit_code == 2, result.output  # sampled run flags budget
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["attempted"] == 2
    assert store_path.exists()


def test_census_requires_store(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["census", "--n", "5", "--d", "4", "--budget", "1"])
    assert result.exit_code == 1


def test_verify_bounds_cyclic(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main, ["verify-bounds", "--construction", "cyclic", "--d", "3", "--n", "6"]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["status"] == "PASS"
    assert payload["bound"] == 6
    assert payload["enumerated"] >= 6


def test_verify_bounds_cyclic_d5():
    result = CliRunner().invoke(
        main, ["verify-bounds", "--construction", "cyclic", "--d", "5", "--n", "8"]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["status"] == "PASS"
    assert (payload["bound"], payload["enumerated"]) == (8, 8)

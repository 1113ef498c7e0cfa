import hashlib
import json
import struct
from pathlib import Path

import pytest
from click.testing import CliRunner

from regtri import __version__, geometry, lifting
from regtri.cli import main
from regtri.enumeration import shared_witness
from regtri.geometry import PointConfiguration
from regtri.lifting import LiftSpec
from regtri.triangulations import Triangulation, heights_to_json, is_triangulation


SQUARE_JSON = PointConfiguration.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]]).to_json()


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
    # placing starts from labels 1, 2, 4, which span; three points on
    # a line then stop the flip search
    assert json.loads(result.stderr)["error"] == "GenericityFailure"


def test_triangulate_places_from_the_first_labels_that_span(tmp_path):
    cfg_path = tmp_path / "collinear.json"
    cfg = PointConfiguration.from_rows([[0, 0], [1, 0], [2, 0], [0, 1]])
    cfg_path.write_text(cfg.to_json())
    result = CliRunner().invoke(main, ["triangulate", str(cfg_path)])
    assert result.exit_code == 0, result.stderr
    cells = Triangulation.from_json(result.output).cells
    assert cells == {frozenset({1, 2, 4}), frozenset({2, 3, 4})}
    assert is_triangulation(cells, cfg) == (True, None)


def test_enumerate_off_general_position_is_a_json_error(tmp_path):
    # placing skips the point on the hull edge, and no full circuit
    # flips it in, so a count here would miss {134, 234}
    cfg_path = tmp_path / "triangle.json"
    cfg_path.write_text(
        PointConfiguration.from_rows([[0, 0], [2, 0], [0, 2], [1, 0]]).to_json()
    )
    result = CliRunner().invoke(main, ["enumerate", str(cfg_path)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "GenericityFailure"


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


def test_lift_refuses_a_base_not_in_convex_position(tmp_path):
    cfg = PointConfiguration.from_rows([[0, 0], [4, 0], [5, 3], [2, 5], [-1, 3], [2, 2]])
    cfg_path = tmp_path / "pentagon_and_centre.json"
    cfg_path.write_text(cfg.to_json())
    # a spec one epsilon short: the base is refused before the spec is read
    spec_path = tmp_path / "spec.json"
    spec = LiftSpec.make(["2", "2", "1"], ["1/2", "1/4", "1/8", "1/16", "1/32"])
    spec_path.write_text(spec.to_json())
    for extra in ([], ["--spec-file", str(spec_path)]):
        result = CliRunner().invoke(main, ["lift", str(cfg_path), *extra])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert json.loads(result.stderr)["error"] == "NotConvexPosition"
    # a segment with an interior point is a standard base case
    cfg_path.write_text(PointConfiguration.from_rows([[0], [1], [3]]).to_json())
    result = CliRunner().invoke(main, ["lift", str(cfg_path)])
    assert result.exit_code == 0, result.output
    assert PointConfiguration.from_json(result.stdout).n == 4


def test_lift_of_the_cube_stops_at_once_with_its_error_kind(tmp_path, monkeypatch):
    # the cube is in convex position, but four of its vertices share a
    # face, which no epsilon chain lifts off the apex's hyperplane
    attempts = []
    real = lifting.lex_lift
    monkeypatch.setattr(lifting, "lex_lift",
                        lambda base, spec: attempts.append(spec) or real(base, spec))
    cube = PointConfiguration.from_rows(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )
    cfg_path = tmp_path / "cube.json"
    cfg_path.write_text(cube.to_json())
    result = CliRunner().invoke(main, ["lift", str(cfg_path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)
    assert error["error"] == "RegtriError"
    assert "[1, 2, 3, 4]" in error["message"]
    assert len(attempts) == 1


def test_contract_invalid_label_exits_one(tmp_path):
    cfg_path = tmp_path / "square.json"
    write_square(cfg_path)
    runner = CliRunner()
    result = runner.invoke(main, ["contract", str(cfg_path), "--label", "9"])
    assert result.exit_code == 1


def test_contract_two_points_on_one_half_line_names_both(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        PointConfiguration.from_rows([[0, 0], [1, 0], [2, 0], [0, 1]]).to_json()
    )
    result = CliRunner().invoke(main, ["contract", str(cfg_path), "--label", "1"])
    assert result.exit_code == 1
    error = json.loads(result.stderr)
    assert error["error"] == "ValueError"
    assert "duplicate points: labels 2 and 3" in error["message"]
    assert "from label 1" in error["message"]


@pytest.mark.parametrize(
    "rows, cells, named",
    [
        ([[0, 0], [1, 0], [0, 1], [1, 1]], [[1, 2, 3], [1, 2, 4]],
         "('boundary ridge shared twice', (1, 2))"),
        # the halves of a square and its midpoint subdivision, which pass
        # every ridge check and cover the square twice
        ([[0, 0], [2, 0], [2, 2], [0, 2], [1, 0], [2, 1], [1, 2], [0, 1]],
         [[1, 2, 3], [1, 3, 4], [1, 5, 8], [2, 5, 6], [3, 6, 7], [4, 7, 8],
          [5, 6, 7], [5, 7, 8]],
         "('improper pair', (1, 2, 3), (5, 6, 7))"),
    ],
    ids=["overlapping-halves", "double-cover"],
)
def test_regular_on_overlapping_cells_is_a_json_error(tmp_path, rows, cells, named):
    cfg_path, tri_path = tmp_path / "cfg.json", tmp_path / "tri.json"
    cfg_path.write_text(PointConfiguration.from_rows(rows).to_json())
    tri_path.write_text(json.dumps({"cells": cells}))
    result = CliRunner().invoke(main, ["regular", str(cfg_path), str(tri_path)])
    assert result.exit_code == 1
    error = json.loads(result.stderr)
    assert error["error"] == "NotATriangulation"
    assert named in error["message"]


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
        (["lift", "{bad}"], SQUARE_JSON.replace("[1, 2, 3, 4]", '["a", "b", "c", "d"]')),
        (["triangulate", "{bad}"], SQUARE_JSON.replace("[1, 2, 3, 4]", "[1.5, 2, 3, 4]")),
        (["triangulate", "{bad}"], SQUARE_JSON.replace('"dim": 2', '"dim": 2.0')),
        (["triangulate", "{bad}"],
         json.dumps({"dim": 2, "points": [[[0.9, "1"], ["0", 1]], [[4.7, 1], ["0", 1]],
                                          [["0", 1], ["4", 1]]]})),
        (["triangulate", "{bad}"],
         json.dumps({"dim": 2, "points": [[[True, 1], ["0", 1]], [["4", 1], ["0", 1]],
                                          [["0", 1], ["4", 1]]]})),
        (["lift", "{square}", "--apex", "1/0,1,1"], ""),
        (["sweep", "{square}", "{cells}", "{bad}", "--p", "1", "--p-prime", "1"],
         heights_to_json({1: 0, 2: 0, 3: 0, 4: 1})),
        # each case below is read, and the command exits 0, when the
        # value is taken for the number or label it resembles
        (["lift", "{square}", "--spec-file", "{bad}"],
         json.dumps({"apex": [True, "1/2", "1"], "epsilons": ["1/2", "1/4", "1/8", "1/16"]})),
        (["lift", "{square}", "--spec-file", "{bad}"],
         json.dumps({"apex": ["1", "1/2", "1"], "epsilons": ["1/2", "1/4", "1/8", 0.0625]})),
        (["sweep", "{square}", "{triangle}", "{bad}", "--p", "1", "--p-prime", "4"],
         json.dumps({"heights": {"1": True, "2": "0", "3": "0", "4": "1"}})),
        (["sweep", "{square}", "{triangle}", "{bad}", "--p", "1", "--p-prime", "4"],
         json.dumps({"heights": {"1": "0", "2": 0.0, "3": "0", "4": "1"}})),
        (["sweep", "{square}", "{triangle}", "{bad}", "--p", "1", "--p-prime", "4"],
         json.dumps({"heights": {"1": "0", "2": "0", "3": "0", "0_4": "1"}})),
        (["sweep", "{square}", "{triangle}", "{bad}", "--p", "1", "--p-prime", "4"],
         json.dumps({"heights": {"1": "0", "2": "0", "3": "0", " 4": "1"}})),
        (["triangulate", "{bad}"],
         json.dumps({"dim": 2, "labels": [], "points": [[["0", 1], ["0", 1]], [["4", 1], ["0", 1]],
                                                        [["0", 1], ["4", 1]]]})),
    ],
    ids=["config-without-dim", "config-integer-points", "triangulation-without-cells",
         "heights-as-list", "spec-without-epsilons", "config-string-labels",
         "config-float-label", "config-float-dim", "config-float-coordinate",
         "config-bool-coordinate", "apex-zero-denominator", "sweep-one-label-twice",
         "spec-bool-apex", "spec-float-epsilon", "heights-bool-value", "heights-float-value",
         "heights-underscored-label", "heights-padded-label", "config-empty-labels"],
)
def test_malformed_wire_format_is_a_json_error(tmp_path, command, bad_text):
    paths = {"square": tmp_path / "square.json", "cells": tmp_path / "cells.json",
             "triangle": tmp_path / "triangle.json", "bad": tmp_path / "bad.json"}
    write_square(paths["square"])
    paths["cells"].write_text(json.dumps({"cells": [[1, 2, 3], [2, 3, 4]]}))
    paths["triangle"].write_text(json.dumps({"cells": [[1, 2, 3]]}))
    paths["bad"].write_text(bad_text)
    args = [a.format(**paths) for a in command]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert json.loads(result.stderr)["error"] == "ValueError"
    assert result.stdout == ""


@pytest.mark.parametrize(
    "cells, error",
    [([[1, 2, 99], [2, 3, 4]], "NotATriangulation"), ([["1", 2, 3], [2, 3, 4]], "ValueError")],
    ids=["label-outside-configuration", "string-label"],
)
def test_regular_on_labels_outside_the_configuration_is_a_json_error(tmp_path, cells, error):
    cfg_path, tri_path = tmp_path / "square.json", tmp_path / "tri.json"
    write_square(cfg_path)
    tri_path.write_text(json.dumps({"cells": cells}))
    result = CliRunner().invoke(main, ["regular", str(cfg_path), str(tri_path)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == error


@pytest.mark.parametrize(
    "args",
    [["enumerate", "{square}", "--budget", "-1"],
     ["enumerate", "{square}", "--oracle", "--budget", "-1"],
     ["census", "--n", "3", "--d", "2", "--budget", "-2", "--store", "{store}"]],
    ids=["enumerate", "enumerate-oracle", "census"],
)
def test_negative_budget_is_a_json_error(tmp_path, args):
    paths = {"square": tmp_path / "square.json", "store": tmp_path / "census.store"}
    write_square(paths["square"])
    result = CliRunner().invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    error = json.loads(result.stderr)
    assert error["error"] == "ValueError" and "negative budget" in error["message"]


@pytest.mark.parametrize(
    "command, says",
    [("enumerate", "stop once BUDGET + 1 triangulations are found"),
     ("census", "when n! exceeds BUDGET, fingerprint BUDGET distinct permutations")],
)
def test_budget_help_says_what_the_budget_counts(command, says):
    result = CliRunner().invoke(main, [command, "--help"])
    assert result.exit_code == 0
    assert says in " ".join(result.output.split())


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


@pytest.mark.parametrize(
    "args, says",
    [(["enumerate", "{config}"], "negative dimension -1"),
     (["enumerate", "{config}", "--oracle"], "negative dimension -1"),
     (["sew", "--n", "3", "--d", "-2"], "negative dimension -2"),
     (["verify-bounds", "--construction", "cyclic", "--n", "5", "--d", "-1"], "need d >= 1"),
     (["verify-bounds", "--construction", "cyclic", "--n", "5", "--d", "0"], "need d >= 1")],
    ids=["enumerate", "enumerate-oracle", "sew", "verify-bounds-d-1", "verify-bounds-d0"],
)
def test_a_dimension_below_the_least_is_a_json_error(tmp_path, args, says):
    config = tmp_path / "negative.json"
    config.write_text(json.dumps({"dim": -1, "points": []}))
    result = CliRunner().invoke(main, [a.format(config=config) for a in args])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    error = json.loads(result.stderr)
    assert error["error"] == "ValueError" and says in error["message"]


def test_lift_of_no_points_is_a_json_error(tmp_path):
    config = tmp_path / "empty.json"
    config.write_text(json.dumps({"dim": 2, "points": []}))
    result = CliRunner().invoke(main, ["lift", str(config)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"error": "ValueError",
                                         "message": "the centroid of no points"}


DEGENERATE_INPUTS = {
    "no-points-in-r2": {"dim": 2, "points": []},
    "the-point-of-r0": {"dim": 0, "points": [[]]},
    "coplanar-in-r3": json.loads(PointConfiguration.from_rows(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]).to_json()),
}
DEGENERATE_RUNS = {
    "lift": ["lift"],
    "contract": ["contract", "--label", "1"],
    "placing": ["triangulate", "--method", "placing"],
    "pulling": ["triangulate", "--method", "pulling"],
    "flips": ["enumerate"],
    "oracle": ["enumerate", "--oracle"],
    "regular": ["regular", "{triangulation}"],  # the one cell [1]
}
ONE_TRIANGULATION = {"count": 1, "certified_regular": 1, "budget_hit": False}
# input -> run -> the error kind of a run that exits 1, or the last
# output line of a run that exits 0
DEGENERATE_OUTCOMES = {
    "no-points-in-r2": {**dict.fromkeys(DEGENERATE_RUNS, "NotFullDimensional"),
                        "lift": "ValueError", "contract": "ValueError",
                        "regular": "NotATriangulation"},
    "the-point-of-r0": {
        "lift": {"dim": 1, "labels": [1, 2], "points": [[["1", "2"]], [["1", "1"]]]},
        "contract": "ValueError",
        "placing": {"config": None, "cells": [[1]]},
        "pulling": {"config": None, "cells": [[1]]},
        "flips": ONE_TRIANGULATION,
        "oracle": ONE_TRIANGULATION,
        "regular": {"regular": True, "witness": {"1": "-1/1"}},
    },
    "coplanar-in-r3": {**dict.fromkeys(DEGENERATE_RUNS, "NotFullDimensional"),
                       "regular": "NotATriangulation"},
}


@pytest.mark.parametrize("run", sorted(DEGENERATE_RUNS))
@pytest.mark.parametrize("name", sorted(DEGENERATE_INPUTS))
def test_degenerate_inputs_keep_the_exit_code_contract(tmp_path, name, run):
    # each run exits 0 with JSON lines on stdout, or 1 with one JSON
    # error line on stderr, never a traceback or a bare Python message
    config = tmp_path / "config.json"
    config.write_text(json.dumps(DEGENERATE_INPUTS[name]))
    triangulation = tmp_path / "triangulation.json"
    triangulation.write_text(json.dumps({"config": None, "cells": [[1]]}))
    command, *options = DEGENERATE_RUNS[run]
    options = [o.format(triangulation=triangulation) for o in options]
    result = CliRunner().invoke(main, [command, str(config), *options])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    expected = DEGENERATE_OUTCOMES[name][run]
    if result.exit_code == 0:
        assert result.stderr == ""
        lines = [json.loads(line) for line in result.stdout.splitlines() if line]
        assert lines[-1] == expected
        return
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    error = json.loads(result.stderr)
    assert set(error) == {"error", "message"}
    for text in ("Traceback", "arg is an empty sequence", "index out of range"):
        assert text not in error["message"]
    assert error["error"] == expected


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


@pytest.mark.parametrize(
    "record", [{"provenance": {}}, [1, 2], {"fingerprint": 5}],
    ids=["without-fingerprint", "list", "integer-fingerprint"],
)
def test_census_store_with_a_malformed_record_is_a_json_error(tmp_path, record):
    # a complete record that does not parse is reported, not truncated
    # away as if it were a torn tail
    store_path = tmp_path / "census.store"
    body = json.dumps(record).encode()
    store_path.write_bytes(struct.pack(">I", len(body)) + body)
    result = CliRunner().invoke(
        main, ["census", "--n", "3", "--d", "2", "--store", str(store_path)]
    )
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert json.loads(result.stderr)["error"] == "ValueError"
    assert store_path.read_bytes() == struct.pack(">I", len(body)) + body


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


def write_pinned_inputs(directory):
    """The input files of the pinned runs below: the unit square, a
    non-regular triangulation of nested triangles, a hexagon, and the
    split heptagon sweep files."""
    write_square(directory / "square.json")
    nested = PointConfiguration.from_rows([[4, 0], [0, 4], [0, 0], [2, 1], [1, 2], [1, 1]])
    (directory / "nested.json").write_text(nested.to_json())
    (directory / "mirror.json").write_text(Triangulation(
        [{1, 2, 4}, {2, 4, 5}, {2, 3, 5}, {3, 5, 6}, {1, 3, 6}, {1, 4, 6}, {4, 5, 6}]
    ).to_json())
    hexagon = PointConfiguration.from_rows(
        [[2, 0], [1, 2], [-1, 2], [-2, 0], [-1, -2], [1, -2]]
    )
    (directory / "hex.json").write_text(hexagon.to_json())
    _, _, w = sweep_inputs(directory)
    (directory / "w.json").write_text(heights_to_json(w))


SQUARE = "ce3e7149a8311bc4d8af18153b26b4363242b911c37b543c3222072e51fccc3f"

# command -> (arguments, exit code, sha256 of the output text, manifest
# parameters, seeds, input digests), as the per-command code wrote them
PINNED = {
    "census": (
        ["census", "--n", "3", "--d", "2", "--store", "census.store"], 0,
        "6306a66223a193b30076cd5f1b6047b74206b5216dbe207a6ca1e8ecc8d6d28e",
        {"n": 3, "d": 2, "exhaustive": False, "budget": None}, {"seed": 0}, {},
    ),
    "contract": (
        ["contract", "square.json", "--label", "1"], 0,
        "3c72deb47c2da18511d945a240d1ec055d3af087843a479769491a4118163c35",
        {"label": 1}, {}, {"square.json": SQUARE},
    ),
    "enumerate": (
        ["enumerate", "hex.json", "--budget", "3"], 2,
        "1b699fa64ada8dd2b535dd0a5b9623eb6143022c7c40a27ca92615bf28cfc0e2",
        {"oracle": False, "budget": 3}, {},
        {"hex.json": "f55c1233267c3af52bd8759dbf9e5c033d4ebed945efc5649886ff4440ab5588"},
    ),
    "lift": (
        ["lift", "square.json"], 0,
        "abff5df2c96da1e8a48ca8affb9d173567a5dbcbdd8cad5b5a0be923b9ef0559",
        {"spec": {"apex": ["1/2", "1/2", "1/1"],
                  "epsilons": ["1/2", "1/4", "1/8", "1/16"]}},
        {}, {"square.json": SQUARE},
    ),
    "regular": (
        ["regular", "nested.json", "mirror.json"], 1,
        "ee5fae1f5ffbf3ffc0e0e8db7b436b588b62278bbeffbc5ab635352da2dc6d59",
        {}, {},
        {"nested.json": "809f2a5ea6aadd4979c673938cf0a049dab736525609810425deb2d65e3c3a74",
         "mirror.json": "1521daf091dbafd3154f0d5ebf33c91572b6f9162b60148eb4d90d1b46ef0361"},
    ),
    "sew": (
        ["sew", "--n", "5", "--d", "2"], 0,
        "89181bae0166f21c4e186cde9324136609bf3e6f36a14d359ee211c0bbab35af",
        {"n": 5, "d": 2}, {}, {},
    ),
    "sweep": (
        ["sweep", "cfg.json", "tri.json", "w.json", "--p", "6", "--p-prime", "7"], 0,
        "8cdd2e21c62f79d815c8d4137bd9319b688fa61b9f903c2ad8d6485534bfcd07",
        {"p": 6, "p_prime": 7}, {},
        {"cfg.json": "f22c6780ecac3e0fa21be841a771f909c21367326691554144f7259251448431",
         "tri.json": "3344c008246ce2f9e9e69fc46bae9aee42d7bf4e322751717d1d4e81b7031997",
         "w.json": "8588c47e8f9e7f6d42a938614b15ef487ea31d4868ef68bc8a22d986299ea728"},
    ),
    "triangulate": (
        ["triangulate", "square.json", "--method", "placing"], 0,
        "1ef8df43f58aa7e58bf003bf1fd7f808958e274c92810b004d0da2948c78251c",
        {"method": "placing"}, {}, {"square.json": SQUARE},
    ),
    "verify-bounds": (
        ["verify-bounds", "--construction", "census", "--n", "3", "--d", "2"], 0,
        "b1a32480319de4e2e35a690af2dbe849a78f3831d80c3aef19722d3735fd2266",
        {"construction": "census", "n": 3, "d": 2}, {"seed": 0}, {},
    ),
}


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_keeps_its_exit_code_output_and_manifest(tmp_path, monkeypatch, command):
    # a command without a pinned case fails here until it gets one
    args, code, digest, parameters, seeds, inputs = PINNED[command]
    monkeypatch.chdir(tmp_path)
    write_pinned_inputs(tmp_path)
    result = CliRunner().invoke(main, args + ["--output", "out.txt"])
    assert result.exit_code == code, result.output + result.stderr
    assert hashlib.sha256(Path("out.txt").read_bytes()).hexdigest() == digest
    manifest = json.loads(Path("out.txt.manifest.json").read_text())
    assert manifest.pop("wall_clock_seconds") >= 0
    assert manifest == {
        "command": command, "parameters": parameters, "seeds": seeds,
        "input_digests": inputs, "tool_version": __version__,
    }


@pytest.mark.parametrize(
    "flags, error, left",
    [
        (["--output", "missing/t.json"], "FileNotFoundError", []),
        (["--output", "t.json", "--csv", "missing/v.csv"], "FileNotFoundError", []),
        # the csv is written by the command body, before the runner fails
        (["--csv", "v.csv", "--output", "missing/t.json"], "FileNotFoundError", ["v.csv"]),
        (["--output", "t.json"], "IsADirectoryError", []),
    ],
    ids=["output", "csv", "csv-then-output", "manifest"],
)
def test_unwritable_output_is_a_json_error(tmp_path, monkeypatch, flags, error, left):
    monkeypatch.chdir(tmp_path)
    write_square(tmp_path / "square.json")
    # a directory where the manifest would go makes only the manifest unwritable
    (tmp_path / "t.json.manifest.json").mkdir()
    result = CliRunner().invoke(main, ["triangulate", "square.json"] + flags)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert json.loads(result.stderr)["error"] == error
    assert result.stdout == ""
    # neither the triangulation nor a manifest file is left behind
    expected = ["square.json", "t.json.manifest.json"] + left
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    assert (tmp_path / "t.json.manifest.json").is_dir()


def test_pulling_the_cube_is_a_genericity_failure(tmp_path):
    # the cube is full-dimensional; its square facets are what pulling
    # cannot cone over
    cube = PointConfiguration.from_rows(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    path = tmp_path / "cube.json"
    path.write_text(cube.to_json())
    result = CliRunner().invoke(main, ["triangulate", str(path), "--method", "pulling"])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "GenericityFailure"


def test_triangulate_placing_with_a_point_on_a_hull_edge(tmp_path):
    cfg_path = tmp_path / "triangle.json"
    cfg_path.write_text(
        PointConfiguration.from_rows([[0, 0], [2, 0], [0, 2], [1, 0]]).to_json()
    )
    result = CliRunner().invoke(main, ["triangulate", str(cfg_path), "--method", "placing"])
    assert result.exit_code == 0, result.stderr
    assert Triangulation.from_json(result.output).cells == {frozenset({1, 2, 3})}

"""End-to-end command-line behavior: generation, expansion, decomposition,
verification, embedding, exit codes, and manifest embedding."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from spexp.cli import build_parser, main
from spexp.errors import UnsupportedStrategy
from spexp.serialize import graph_from_json, tuple_from_json, tuple_to_json
from spexp import BistochasticTuple, validate_bistochastic


def run_cli(args, tmp_path=None):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_gen_cycle(tmp_path):
    out = tmp_path / "c8.json"
    assert run_cli(["gen", "cycle", "--n", "8", "--out", str(out), "--quiet"]) == 0
    doc = read_json(out)
    assert doc["manifest"]["subcommand"] == "gen"
    assert doc["manifest"]["version"]
    g = graph_from_json(doc["graph"])
    assert g.n == 8 and g.d == 2


def test_gen_unitary_tuple(tmp_path):
    out = tmp_path / "t.json"
    assert (
        run_cli(
            ["gen", "unitary-tuple", "--n", "8", "--d", "3", "--seed", "1", "--out", str(out), "--quiet"]
        )
        == 0
    )
    t = tuple_from_json(read_json(out)["tuple"])
    assert validate_bistochastic(t, tol=1e-10).passed


def test_gen_random_regular(tmp_path):
    out = tmp_path / "g.json"
    assert (
        run_cli(
            ["gen", "random-regular", "--n", "50", "--d", "6", "--seed", "2", "--out", str(out), "--quiet"]
        )
        == 0
    )
    g = graph_from_json(read_json(out)["graph"])
    assert np.all(g.adjacency.sum(axis=1) == 6)


def test_expansion_classical(tmp_path, capsys):
    out = tmp_path / "c8.json"
    run_cli(["gen", "cycle", "--n", "8", "--out", str(out), "--quiet"])
    res = tmp_path / "h.json"
    assert run_cli(["expansion", str(out), "--mode", "classical", "--out", str(res), "--quiet"]) == 0
    doc = read_json(res)
    assert doc["result"]["value"] == 0.25
    assert doc["result"]["witness_subset"] == [0, 1, 2, 3]


def test_expansion_pipeline_sp_coordinate(tmp_path):
    graph = tmp_path / "c8.json"
    run_cli(["gen", "cycle", "--n", "8", "--out", str(graph), "--quiet"])
    perms = tmp_path / "perms.json"
    assert run_cli(["decompose", str(graph), "--out", str(perms), "--quiet"]) == 0
    tup = tmp_path / "tuple.json"
    assert (
        run_cli(["gen", "permutation-tuple", "--perms", str(perms), "--out", str(tup), "--quiet"]) == 0
    )
    res = tmp_path / "est.json"
    assert (
        run_cli(
            [
                "expansion", str(tup), "--mode", "sp", "--p", "2",
                "--strategy", "coordinate", "--out", str(res), "--quiet",
            ]
        )
        == 0
    )
    doc = read_json(res)
    assert doc["result"]["estimate"]["value"] == 0.25
    assert doc["result"]["estimate"]["subset"] == [0, 1, 2, 3]


def test_expansion_riemannian_identity_tuple(tmp_path):
    perms = tmp_path / "id-perms.json"
    perms.write_text(json.dumps({"permutations": [list(range(6))] * 2}))
    tup = tmp_path / "id-tuple.json"
    run_cli(["gen", "permutation-tuple", "--perms", str(perms), "--out", str(tup), "--quiet"])
    res = tmp_path / "est.json"
    assert (
        run_cli(
            [
                "expansion", str(tup), "--mode", "sp", "--p", "1",
                "--strategy", "riemannian", "--restarts", "2", "--max-iters", "40",
                "--out", str(res), "--quiet",
            ]
        )
        == 0
    )
    assert read_json(res)["result"]["estimate"]["value"] <= 1e-9


def test_decompose_k4_and_reject_nonregular(tmp_path):
    graph = tmp_path / "k4.json"
    run_cli(["gen", "complete", "--n", "4", "--out", str(graph), "--quiet"])
    perms = tmp_path / "perms.json"
    assert run_cli(["decompose", str(graph), "--out", str(perms), "--quiet"]) == 0
    doc = read_json(perms)
    assert doc["d"] == 3 and len(doc["permutations"]) == 3

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "d": 1, "adjacency": [[0, 1], [0, 1]], "symmetric": False}))
    assert run_cli(["decompose", str(bad), "--quiet"]) == 2


def test_expansion_infeasible_mode_strategy_combination(tmp_path, capsys):
    tup = tmp_path / "t.json"
    run_cli(["gen", "unitary-tuple", "--n", "4", "--d", "2", "--out", str(tup), "--quiet"])
    for mode, strategy in [("Q", "random"), ("dim", "riemannian")]:
        argv = ["expansion", str(tup), "--mode", mode, "--strategy", strategy]
        args = build_parser().parse_args(argv)
        with pytest.raises(UnsupportedStrategy):
            args.func(args)
        assert run_cli(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "supports only the coordinate strategy" in err


@pytest.mark.parametrize(
    "strategy, name",
    [("coordinate", "coordinate-exhaustive"), ("random", "random-sample"),
     ("riemannian", "riemannian")],
)
def test_expansion_payload_names_the_strategy(strategy, name, tmp_path, capsys):
    tup = tmp_path / "t.json"
    run_cli(["gen", "unitary-tuple", "--n", "4", "--d", "2", "--out", str(tup), "--quiet"])
    argv = ["expansion", str(tup), "--strategy", strategy, "--samples", "2", "--restarts", "1",
            "--max-iters", "3"]
    assert run_cli(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["estimate"]["strategy"] == name


@pytest.mark.parametrize(
    "argv, option",
    [
        (["{tuple}", "--mode", "Q", "--epsilon", "nan"], "epsilon"),
        (["{graph}", "--mode", "classical", "--p", "inf"], "--p"),
        (["{tuple}", "--mode", "dim", "--p", "nan"], "--p"),
        (["{graph}", "--mode", "classical", "--p", "0.5"], "--p"),
        (["{tuple}", "--mode", "Q", "--p", "0.5"], "--p"),
        (["{tuple}", "--mode", "dim", "--p", "0.5"], "--p"),
    ],
)
def test_expansion_unused_non_finite_option_is_input_error(argv, option, tmp_path, capsys):
    # every option lands in the manifest, whose JSON has no NaN or infinity,
    # and an exponent below 1 is out of range wherever it would be used
    graph, tup = tmp_path / "c8.json", tmp_path / "t8.json"
    run_cli(["gen", "cycle", "--n", "8", "--out", str(graph), "--quiet"])
    run_cli(["gen", "permutation-tuple", "--n", "8", "--out", str(tup), "--quiet"])
    argv = ["expansion"] + [a.format(graph=graph, tuple=tup) for a in argv]
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and option in err


def test_expansion_missing_file_is_input_error(tmp_path):
    assert run_cli(["expansion", str(tmp_path / "nope.json"), "--quiet"]) == 2


def test_expansion_rejects_ignored_k(tmp_path):
    tup = tmp_path / "t.json"
    run_cli(["gen", "permutation-tuple", "--n", "6", "--d", "2", "--out", str(tup), "--quiet"])
    argv = ["expansion", str(tup), "--mode", "sp", "--strategy", "coordinate", "--k", "2"]
    assert run_cli(argv + ["--quiet"]) == 2
    graph = tmp_path / "c6.json"
    run_cli(["gen", "cycle", "--n", "6", "--out", str(graph), "--quiet"])
    assert run_cli(["expansion", str(graph), "--mode", "classical", "--k", "2", "--quiet"]) == 2


def _one_vertex_graph(tmp_path):
    graph = tmp_path / "g1.json"
    argv = ["gen", "random-regular", "--n", "1", "--d", "2", "--out", str(graph), "--quiet"]
    assert run_cli(argv) == 0
    return graph


def test_expansion_classical_one_vertex_is_input_error(tmp_path, capsys):
    graph = _one_vertex_graph(tmp_path)
    assert run_cli(["expansion", str(graph), "--mode", "classical", "--quiet"]) == 2
    assert "no admissible subset size for n=1" in capsys.readouterr().err


BOUNDARY_INPUTS = {
    "fractional-adjacency": (
        {"n": 2, "d": 1, "symmetric": True, "adjacency": [[0, 1.9], [1.9, 0]]},
        ["expansion", "{path}", "--mode", "classical"],
    ),
    "fractional-permutation": (
        {"n": 3, "d": 1, "permutations": [[0.5, 1, 2]]},
        ["gen", "permutation-tuple", "--perms", "{path}"],
    ),
    "string-permutation": (
        {"n": 3, "d": 1, "permutations": [["a", 1, 2]]},
        ["gen", "permutation-tuple", "--perms", "{path}"],
    ),
    "negative-shape": (
        {"n": 1, "d": 1, "matrices": [{"rows": -1, "cols": -1, "re": [1.0], "im": [0.0]}]},
        ["expansion", "{path}", "--mode", "Q", "--strategy", "coordinate"],
    ),
    # a cast would read "no" as true and these entries as the identity
    "string-symmetric-flag": (
        {"n": 2, "d": 1, "symmetric": "no", "adjacency": [[0, 1], [1, 0]]},
        ["expansion", "{path}", "--mode", "classical"],
    ),
    "boolean-matrix-entries": (
        {"n": 2, "d": 1, "matrices": [
            {"rows": 2, "cols": 2, "re": [True, False, False, True], "im": [0, 0, 0, 0]}]},
        ["expansion", "{path}", "--mode", "Q", "--strategy", "coordinate"],
    ),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_INPUTS))
def test_non_integral_counts_and_indices_are_input_errors(case, tmp_path, capsys):
    doc, argv = BOUNDARY_INPUTS[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert run_cli([a.format(path=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err


def test_expansion_rejects_non_bistochastic_tuple(tmp_path, capsys):
    tup = tmp_path / "scaled.json"
    scaled = BistochasticTuple((2.0 * np.eye(4), 2.0 * np.eye(4)))
    tup.write_text(json.dumps({"tuple": tuple_to_json(scaled)}))
    assert run_cli(["expansion", str(tup), "--mode", "sp", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "left deviation" in err and "right deviation" in err


def test_emit_writes_past_stale_tmp_and_cleans_up(tmp_path):
    out = tmp_path / "c4.json"
    (tmp_path / "c4.json.tmp").mkdir()  # where a fixed temp name would collide
    assert run_cli(["gen", "cycle", "--n", "4", "--out", str(out), "--quiet"]) == 0
    assert graph_from_json(read_json(out)["graph"]).n == 4
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask
    # a failed replace leaves no temp file behind
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        run_cli(["gen", "cycle", "--n", "4", "--out", str(target), "--quiet"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c4.json", "c4.json.tmp", "taken"]


def test_verify_cli_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    assert (
        run_cli(["verify", "--instances", "25", "--seed", "7", "--out", str(out), "--quiet"]) == 0
    )
    doc = read_json(out)
    assert doc["result"]["all_pass"] is True
    assert run_cli(["verify", "--instances", "0", "--quiet"]) == 0


@pytest.mark.parametrize(
    "bad",
    [
        ["--instances", "-5"],
        ["--n-min", "9", "--n-max", "4"],
        ["--n-min", "1", "--n-max", "1"],
        ["--d-min", "0"],
        ["--p-max", "nan"],
        ["--p-min", "0.5"],
    ],
)
def test_verify_bad_ranges_are_input_errors(bad, capsys):
    assert run_cli(["verify", "--quiet", *bad]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "huge", [["--instances", "2", "--n-max", "100000"], ["--d-max", "1000000000"]]
)
def test_verify_oversized_range_is_infeasible(huge, capsys):
    # refused by SweepConfig before any instance is drawn
    assert run_cli(["verify", "--quiet", *huge]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "infeasible configuration" in err


def test_verify_byte_identical_across_threads(tmp_path):
    env = dict(os.environ)
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"report-{threads}.json"
        env["SPEXP_THREADS"] = threads
        proc = subprocess.run(
            [
                sys.executable, "-m", "spexp.cli", "verify",
                "--instances", "40", "--seed", "11", "--out", str(out), "--quiet",
            ],
            env=env,
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_embed_k4(tmp_path):
    graph = tmp_path / "k4.json"
    run_cli(["gen", "complete", "--n", "4", "--out", str(graph), "--quiet"])
    res = tmp_path / "embed.json"
    assert (
        run_cli(
            ["embed", str(graph), "--target", "lp", "--p", "1", "--out", str(res), "--quiet"]
        )
        == 0
    )
    doc = read_json(res)["result"]
    assert doc["estimate"] == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert doc["metric_ratio"] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert doc["distortion_lower_bound"] == pytest.approx(1.0, abs=1e-9)
    assert doc["bound_kind"] == "oracle"


def test_embed_c4_lp_and_sp_p2(tmp_path):
    graph = tmp_path / "c4.json"
    run_cli(["gen", "cycle", "--n", "4", "--out", str(graph), "--quiet"])
    res_lp = tmp_path / "lp.json"
    assert (
        run_cli(
            ["embed", str(graph), "--target", "lp", "--p", "2", "--out", str(res_lp), "--quiet"]
        )
        == 0
    )
    lp_doc = read_json(res_lp)["result"]
    assert abs(lp_doc["estimate"] - 1.0) <= 0.05  # exact l2 value is 1
    assert lp_doc["bound_kind"] == "oracle"

    res_sp = tmp_path / "sp.json"
    assert (
        run_cli(
            [
                "embed", str(graph), "--target", "sp", "--p", "2", "--m", "3",
                "--restarts", "3", "--max-iters", "150", "--out", str(res_sp), "--quiet",
            ]
        )
        == 0
    )
    sp_doc = read_json(res_sp)["result"]
    assert abs(sp_doc["estimate"] - lp_doc["estimate"]) <= 0.05 * lp_doc["estimate"]


def test_embed_csv_batch(tmp_path):
    graph = tmp_path / "c4.json"
    run_cli(["gen", "cycle", "--n", "4", "--out", str(graph), "--quiet"])
    csv_path = tmp_path / "rows.csv"
    for p in ("1", "2"):
        assert (
            run_cli(
                [
                    "embed", str(graph), "--target", "lp", "--p", p,
                    "--csv", str(csv_path), "--quiet",
                ]
            )
            == 0
        )
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("n,d,target,p,m,")
    assert len(lines) == 3


def test_embed_zero_dimension_is_input_error(tmp_path, capsys):
    # m = 0 once ran silently at m = n while the manifest recorded "m": 0
    graph = tmp_path / "c10.json"
    run_cli(["gen", "cycle", "--n", "10", "--out", str(graph), "--quiet"])
    res = tmp_path / "embed.json"
    assert run_cli(["embed", str(graph), "--m", "0", "--out", str(res), "--quiet"]) == 2
    assert "target dimension" in capsys.readouterr().err
    assert not res.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--instances", "2", "--seed", "-1"],
        ["gen", "unitary-tuple", "--n", "4", "--d", "2", "--seed", "-3"],
        # runs that draw nothing refuse a negative seed too
        ["expansion", "{graph}", "--mode", "classical", "--seed", "-1"],
        ["verify", "--instances", "0", "--seed", "-3"],
        ["gen", "cycle", "--n", "8", "--seed", "-2"],
        ["embed", "{graph}", "--restarts", "0", "--seed", "-1"],
    ],
)
def test_negative_seed_is_input_error(argv, tmp_path, capsys):
    graph = tmp_path / "c8.json"
    run_cli(["gen", "cycle", "--n", "8", "--out", str(graph), "--quiet"])
    argv = [a.format(graph=graph) for a in argv]
    assert run_cli([*argv, "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err


def test_embed_disconnected_graph_is_input_error(tmp_path):
    bad = tmp_path / "disc.json"
    adjacency = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    bad.write_text(json.dumps({"n": 4, "d": 1, "adjacency": adjacency, "symmetric": True}))
    assert run_cli(["embed", str(bad), "--quiet"]) == 2


def test_embed_one_vertex_is_input_error(tmp_path, capsys):
    graph = _one_vertex_graph(tmp_path)
    assert run_cli(["embed", str(graph), "--quiet"]) == 2
    assert "n >= 2" in capsys.readouterr().err


def test_gen_bad_params_is_input_error(tmp_path):
    assert run_cli(["gen", "cycle", "--n", "2", "--quiet"]) == 2
    assert run_cli(["gen", "unitary-tuple", "--n", "0", "--d", "2", "--quiet"]) == 2


def test_gen_stdout_payload(capsys):
    assert main(["gen", "cycle", "--n", "4"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["graph"]["n"] == 4


MANIFEST_ARGV = {
    "gen": ["gen", "random-regular", "--n", "6", "--d", "3", "--seed", "4", "--no-loops"],
    "expansion": ["expansion", "{tuple}", "--strategy", "random", "--k", "1", "--samples", "3"],
    "decompose": ["decompose", "{graph}"],
    "verify": ["verify", "--instances", "2", "--seed", "3", "--p-max", "2.5"],
    "embed": ["embed", "{graph}", "--target", "sp", "--p", "2", "--max-iters", "5",
              "--csv", "{csv}"],
}


@pytest.mark.parametrize("command", sorted(MANIFEST_ARGV))
def test_manifest_parameters_are_the_parsed_options(command, tmp_path):
    graph, tup = tmp_path / "c6.json", tmp_path / "t6.json"
    run_cli(["gen", "cycle", "--n", "6", "--out", str(graph), "--quiet"])
    run_cli(["gen", "permutation-tuple", "--n", "6", "--out", str(tup), "--quiet"])
    paths = {"graph": graph, "tuple": tup, "csv": tmp_path / "rows.csv"}
    argv = [a.format(**paths) for a in MANIFEST_ARGV[command]]
    out = tmp_path / "out.json"
    assert run_cli(argv + ["--out", str(out), "--quiet"]) == 0
    options = vars(build_parser().parse_args(argv))
    manifest = read_json(out)["manifest"]
    assert manifest["subcommand"] == command
    assert manifest["seed"] == options.get("seed")
    assert manifest["parameters"] == {
        k: v
        for k, v in options.items()
        if k not in ("command", "func", "seed", "out", "quiet", "csv") and v is not None
    }


def test_gen_manifest_records_directed_and_no_loops(capsys):
    argv = ["gen", "random-regular", "--n", "6", "--d", "3", "--seed", "4"]
    manifests = []
    for flags in ([], ["--directed", "--no-loops"]):
        assert main(argv + flags) == 0
        manifests.append(json.loads(capsys.readouterr().out)["manifest"])
    assert manifests[0] != manifests[1]
    assert manifests[1]["parameters"]["directed"] is manifests[1]["parameters"]["no_loops"] is True


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
def test_expansion_bad_epsilon_is_input_error(epsilon, tmp_path, capsys):
    tup = tmp_path / "t.json"
    run_cli(["gen", "unitary-tuple", "--n", "4", "--d", "2", "--out", str(tup), "--quiet"])
    argv = ["expansion", str(tup), "--strategy", "riemannian", "--epsilon", epsilon, "--quiet"]
    assert run_cli(argv) == 2
    assert "smoothing epsilon must be finite and >= 0" in capsys.readouterr().err

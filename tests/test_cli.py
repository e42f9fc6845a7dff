"""End-to-end command-line behavior: generation, expansion, decomposition,
verification, embedding, exit codes, and manifest embedding."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spexp
from spexp import cli, errors
from spexp.cli import MAX_CONTAINERS, _load_json, build_parser, main
from spexp.errors import SpexpError, UnsupportedStrategy
from spexp.serialize import graph_from_json, tuple_from_json, tuple_to_json
from spexp import BistochasticTuple, random_unitary_tuple, validate_bistochastic


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
    report = validate_bistochastic(t)
    assert max(report.left_deviation, report.right_deviation) <= 1e-10 * t.d * np.sqrt(t.n)


def test_gen_unitary_tuple_reads_back_bit_for_bit(tmp_path):
    out = tmp_path / "u96.json"
    argv = ["gen", "unitary-tuple", "--n", "96", "--d", "3", "--seed", "5", "--out", str(out)]
    assert run_cli(argv + ["--quiet"]) == 0
    again = tuple_from_json(_load_json(str(out))["tuple"])
    for a, b in zip(random_unitary_tuple(96, 3, 5).matrices, again.matrices, strict=True):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


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
        (["{tuple}", "--mode", "dim", "--p", "0.5"], "--p"),
        (["{graph}", "--mode", "classical", "--p", "inf"], "--p"),
        (["{tuple}", "--mode", "dim", "--p", "nan"], "--p"),
        (["{graph}", "--mode", "classical", "--p", "0.5"], "--p"),
        (["{tuple}", "--mode", "Q", "--p", "0.5"], "--p"),
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
    "nested-matrix-entries": (
        {"n": 2, "d": 1, "matrices": [
            {"rows": 2, "cols": 2, "re": [[1.0], [0.0], [0.0], [1.0]], "im": [0, 0, 0, 0]}]},
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


def test_emit_writes_past_stale_tmp_and_cleans_up(tmp_path, monkeypatch):
    out = tmp_path / "c4.json"
    (tmp_path / "c4.json.tmp").mkdir()  # where a fixed temp name would collide
    assert run_cli(["gen", "cycle", "--n", "4", "--out", str(out), "--quiet"]) == 0
    assert graph_from_json(read_json(out)["graph"]).n == 4
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask
    # a directory as the output is refused before anything is written
    target = tmp_path / "taken"
    target.mkdir()
    assert run_cli(["gen", "cycle", "--n", "4", "--out", str(target), "--quiet"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c4.json", "c4.json.tmp", "taken"]

    def fail(src, dst):
        raise OSError("replace failed")

    # a failed replace is an input error and leaves no temp file behind
    monkeypatch.setattr(os, "replace", fail)
    assert run_cli(["gen", "cycle", "--n", "4", "--out", str(out), "--quiet"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c4.json", "c4.json.tmp", "taken"]


def test_emit_leaves_the_umask_alone(tmp_path, monkeypatch):
    # a umask flipped for a moment would leave another thread's files unmasked
    umask = os.umask(0o022)
    os.umask(umask)

    def refuse(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", refuse)
    out = tmp_path / "c4.json"
    assert run_cli(["gen", "cycle", "--n", "4", "--out", str(out), "--quiet"]) == 0
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask
    assert [p.name for p in tmp_path.iterdir()] == ["c4.json"]


# the exit codes and stderr labels that cli.main sorted errors by before the
# classes carried them
_OLD_EXIT_CODES = {
    "InstanceTooLarge": (3, "infeasible configuration: "),
    "DimensionTooLarge": (3, "infeasible configuration: "),
    "UnsupportedStrategy": (3, "infeasible configuration: "),
    "NumericalFailure": (4, "numerical failure: "),
}
_ERROR_CLASSES = sorted(
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, SpexpError)
)


@pytest.mark.parametrize("name", _ERROR_CLASSES)
def test_each_error_class_carries_its_exit_code(name, monkeypatch, capsys):
    def fail(args):
        raise getattr(errors, name)("boom")

    monkeypatch.setattr(cli, "_cmd_verify", fail)
    code, label = _OLD_EXIT_CODES.get(name, (2, ""))
    assert run_cli(["verify", "--quiet"]) == code
    out, err = capsys.readouterr()
    assert out == "" and err == f"spexp: {label}boom\n"


def test_write_failures_are_input_errors(tmp_path, monkeypatch, capsys):
    # exit 1 means failing inequalities, so an unwritable report must not exit 1;
    # the output paths are checked before the work runs
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before the output path was checked")

    graph = tmp_path / "c4.json"
    run_cli(["gen", "cycle", "--n", "4", "--out", str(graph), "--quiet"])
    monkeypatch.setattr(cli, "sweep", refuse)
    monkeypatch.setattr(cli, "lp_expansion_estimate", refuse)
    missing = tmp_path / "missing" / "v.json"
    verify = ["verify", "--instances", "5", "--quiet"]
    embed = ["embed", str(graph), "--restarts", "0", "--max-iters", "2", "--quiet"]
    for argv, bad in (
        (verify, ["--out", str(missing)]),
        (verify, ["--out", str(tmp_path)]),
        (embed, ["--out", str(missing)]),
        (embed, ["--csv", str(tmp_path)]),
        (embed, ["--csv", str(missing)]),
    ):
        assert run_cli(argv + bad) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"cannot write {bad[1]}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c4.json"]


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
    # a negative size is an input error, however large its square
    assert run_cli(["gen", "cycle", "--n", "-100000", "--quiet"]) == 2
    assert run_cli(["gen", "unitary-tuple", "--n", "100000", "--d", "-1", "--quiet"]) == 2


GEN_TOO_LARGE = {
    "cycle": ["--n", "3000000000"],
    # a 200 MB adjacency and a 52 MB tuple, each taking over 1 GiB to write as JSON
    "cycle-rendered": ["--n", "5000"],
    "unitary-tuple-rendered": ["--n", "1200", "--d", "3"],
    "complete": ["--n", "100000000"],
    "hypercube": ["--k", "40"],
    "hypercube-huge-k": ["--k", str(10**12)],  # 2^k is never built
    "random-regular": ["--n", "20000", "--d", "3"],
    "unitary-tuple": ["--n", "200000", "--d", "2"],
    "permutation-tuple": ["--n", "100000000", "--d", "2"],
    "permutation-tuple-perms": ["--perms", "{perms}"],
}


@pytest.mark.parametrize("case", sorted(GEN_TOO_LARGE))
def test_gen_refuses_an_output_too_large_before_building_it(case, tmp_path, capsys, monkeypatch):
    # two permutations of 6,000 points fill a (2, 6000, 6000) complex stack of
    # 1.15e9 bytes; reaching a constructor or a draw would fail the test at once
    perms = tmp_path / "perms.json"
    perms.write_text(json.dumps({"permutations": [list(range(6000))] * 2}))
    for name in ("build_cycle", "build_complete", "build_hypercube", "random_regular",
                 "random_unitary_tuple", "tuple_from_permutations", "as_rng"):
        monkeypatch.setattr(cli, name, None)
    kind = case.removesuffix("-huge-k").removesuffix("-perms").removesuffix("-rendered")
    argv = ["gen", kind] + [a.format(perms=perms) for a in GEN_TOO_LARGE[case]]
    assert run_cli(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "infeasible configuration" in err and "bytes" in err


GEN_FLAG_USERS = {"--perms": "permutation-tuple", "--directed": "random-regular",
                  "--no-loops": "random-regular"}


@pytest.mark.parametrize("flag", sorted(GEN_FLAG_USERS))
def test_gen_refuses_a_flag_its_kind_never_reads(flag, tmp_path, capsys, monkeypatch):
    # the manifest would record the flag; nothing may be read, drawn or built first
    for name in ("build_cycle", "build_complete", "build_hypercube", "random_regular",
                 "random_unitary_tuple", "tuple_from_permutations", "as_rng", "_load_json"):
        monkeypatch.setattr(cli, name, None)
    value = [str(tmp_path / "missing.json")] if flag == "--perms" else []
    kinds = ["cycle", "complete", "hypercube", "random-regular", "unitary-tuple",
             "permutation-tuple"]
    for kind in kinds:
        if kind != GEN_FLAG_USERS[flag]:
            assert run_cli(["gen", kind, flag, *value]) == 2
            out, err = capsys.readouterr()
            assert out == "" and flag in err and f"used only by {GEN_FLAG_USERS[flag]}" in err


def test_gen_reads_an_empty_perms_path(capsys):
    # an empty path is still a --perms: drawing instead would record a flag never read
    assert run_cli(["gen", "permutation-tuple", "--perms", ""]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "cannot read" in err


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
    if command == "expansion":  # the smoothing constant is no option
        assert sorted(manifest["parameters"]) == [
            "input", "k", "max_iters", "mode", "p", "restarts", "samples", "strategy"
        ]


def test_gen_manifest_records_directed_and_no_loops(capsys):
    argv = ["gen", "random-regular", "--n", "6", "--d", "3", "--seed", "4"]
    manifests = []
    for flags in ([], ["--directed", "--no-loops"]):
        assert main(argv + flags) == 0
        manifests.append(json.loads(capsys.readouterr().out)["manifest"])
    assert manifests[0] != manifests[1]
    assert manifests[1]["parameters"]["directed"] is manifests[1]["parameters"]["no_loops"] is True


MATRIX_DOC = '{"n": 1, "d": 1, "matrices": [{"rows": 1, "cols": 1, "re": [%s], "im": [0.0]}]}'
UNREADABLE_INPUTS = {
    "non-utf8-string": b'{"n": "\xff"}',
    "top-level-array": b"[1, 2]",
    "top-level-string": b'"x"',
    "top-level-number": b"3",
    "nan-entry": (MATRIX_DOC % "NaN").encode(),
    "infinity-entry": (MATRIX_DOC % "-Infinity").encode(),
    "entry-beyond-float64": (MATRIX_DOC % "1e400").encode(),
}


@pytest.mark.parametrize("command", ["expansion", "decompose", "embed"])
@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_is_input_error(case, command, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(UNREADABLE_INPUTS[case])
    assert run_cli([command, str(path), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot read {path}" in captured.err


def run_cli_process(args):
    """The CLI in a child process, so that a crash in the parser shows as its exit code."""
    src = os.path.dirname(os.path.dirname(spexp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "spexp.cli", *args], env=env, capture_output=True)


def nested_graph(kind, containers):
    """A graph file whose "graph" value is nested so that the file holds this many
    '[' and '{' bytes, the top-level object included."""
    depth = containers - 1
    if kind == "array":
        inner = b"[" * depth + b"]" * depth
    else:
        inner = b'{"a": ' * depth + b"0" + b"}" * depth
    return b'{"graph": ' + inner + b"}"


@pytest.mark.parametrize("kind", ["array", "object"])
@pytest.mark.parametrize("containers", [MAX_CONTAINERS, MAX_CONTAINERS + 1, 100_000])
def test_nesting_is_bounded_before_parsing(kind, containers, tmp_path):
    path = tmp_path / "deep.json"
    path.write_bytes(nested_graph(kind, containers))
    proc = run_cli_process(["expansion", str(path), "--mode", "classical", "--quiet"])
    assert proc.returncode == 2, proc.stderr.decode()
    guard = f"cannot read {path}: more than {MAX_CONTAINERS} arrays and objects"
    if containers > MAX_CONTAINERS:
        assert guard in proc.stderr.decode()
    else:  # past the guard, the file fails on its format
        assert "malformed graph object" in proc.stderr.decode()

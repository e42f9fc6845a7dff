"""Inequality checkers and the randomized sweep."""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spexp import (
    BistochasticTuple,
    SweepConfig,
    check_rank_relation,
    check_singular_bound,
    check_ratio_scaling,
    check_ratio_power,
    decompose_permutations,
    edge_expansion_bruteforce,
    minimize_coordinate,
    random_regular,
    sweep,
    tuple_from_permutations,
)
from spexp.errors import (
    InstanceTooLarge,
    InvalidExponent,
    InvalidExponentOrder,
    InvalidParameters,
)
from spexp.serialize import dumps_canonical, matrix_from_json, tuple_from_json
from spexp.channels import (
    Subspace,
    ValidationReport,
    expansion_ratio_dim,
    expansion_ratio_sp,
    restriction_singular_values,
    validate_bistochastic,
)
from spexp.linalg import haar_unitary
from spexp.verify import CHECKERS, MAX_TUPLE_BYTES, InequalityReport

from util import coord, cycle_tuple, identity_tuple, reference_sweep


def spectrum(t, v):
    return restriction_singular_values(t.matrices, v)


def ratio(t, v, p):
    return expansion_ratio_sp(t, v, p).value


def test_ratio_scaling_identity_tuple():
    t, v = identity_tuple(4, 2), coord(4, [0])
    report = check_ratio_scaling(ratio(t, v, 3.0), ratio(t, v, 2.0), t.d, 3.0, 2.0)
    assert report.passed
    assert report.lhs == 0.0 and report.rhs == 0.0


def test_ratio_scaling_cycle_numbers():
    t, v = cycle_tuple(4), coord(4, [0, 1])
    report = check_ratio_scaling(ratio(t, v, 4.0), ratio(t, v, 2.0), t.d, 4.0, 2.0)
    assert report.lhs == pytest.approx(0.5, abs=1e-12)
    assert report.rhs == pytest.approx(2.0 * 0.5, abs=1e-12)
    assert report.passed


def test_ratio_power_cycle_numbers():
    t, v = cycle_tuple(4), coord(4, [0, 1])
    report = check_ratio_power(ratio(t, v, 4.0), ratio(t, v, 2.0), 4.0, 2.0)
    assert report.lhs == pytest.approx(0.5, abs=1e-12)
    assert report.rhs == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert report.passed


def test_checkers_reject_bad_exponent_order():
    with pytest.raises(InvalidExponentOrder):
        check_ratio_scaling(0.5, 0.5, 2, 2.0, 3.0)
    with pytest.raises(InvalidExponentOrder):
        check_ratio_power(0.5, 0.5, 2.0, 0.5)


def test_checkers_reject_bad_exponents_and_spectra():
    # the order check runs first, then the range check of each exponent
    for bad in (0.5, float("nan"), float("inf")):
        with pytest.raises(InvalidExponent):
            check_rank_relation(0.5, 0.5, 2, bad)
    with pytest.raises(InvalidExponent):
        check_ratio_scaling(0.5, 0.5, 2, float("nan"), 2.0)
    with pytest.raises(InvalidExponent):
        check_ratio_scaling(0.5, 0.5, 2, float("inf"), 2.0)
    with pytest.raises(InvalidExponent):
        check_ratio_power(0.5, 0.5, 3.0, float("nan"))
    with pytest.raises(InvalidExponentOrder):
        check_ratio_scaling(0.5, 0.5, 2, 0.5, 0.5)
    with pytest.raises(InvalidExponentOrder):
        check_ratio_power(0.5, 0.5, 1.5, 2.0)
    with pytest.raises(InvalidExponentOrder):
        check_ratio_power(0.5, 0.5, 2.0, float("inf"))
    # d is an integer >= 1, never truncated or read from a boolean
    for bad in (0, -1, 2.5, True, "2", None, float("nan"), float("inf"), 2**70, [2, 3]):
        with pytest.raises(InvalidParameters):
            check_ratio_scaling(0.5, 0.5, bad, 3.0, 2.0)
        with pytest.raises(InvalidParameters):
            check_singular_bound(0.5, bad)
        with pytest.raises(InvalidParameters):
            check_rank_relation(0.5, 0.5, bad, 2.0)
    for good in (3, 3.0, np.int64(3)):
        assert check_singular_bound(0.5, good).rhs == float(np.sqrt(3))
    # the numbers are finite and >= 0: a negative ratio_p would make
    # ratio_p^(q/p) complex, and NaN would read as a failed inequality
    for bad in (-0.25, float("nan"), float("inf"), -float("inf"), "0.5", None, 1j, [0.5]):
        with pytest.raises(InvalidParameters):
            check_ratio_scaling(bad, 0.5, 2, 3.0, 2.0)
        with pytest.raises(InvalidParameters):
            check_ratio_scaling(0.5, bad, 2, 3.0, 2.0)
        with pytest.raises(InvalidParameters):
            check_ratio_power(bad, 0.1, 2.0, 1.0)
        with pytest.raises(InvalidParameters):
            check_ratio_power(0.5, bad, 2.0, 1.0)
        with pytest.raises(InvalidParameters):
            check_singular_bound(bad, 2)
        with pytest.raises(InvalidParameters):
            check_rank_relation(bad, 0.5, 2, 2.0)
        with pytest.raises(InvalidParameters):
            check_rank_relation(0.5, bad, 2, 2.0)
    for good in (0, 0.0, np.float64(0.25)):
        assert check_ratio_power(good, good, 2.0, 1.0).rhs == float(good) ** 0.5


def test_singular_bound_permutation_and_identity():
    s = spectrum(cycle_tuple(6), coord(6, [0, 1, 2]))
    report = check_singular_bound(float(s[:, 0].max()), 2)
    assert report.lhs <= 1.0 + 1e-12
    assert report.passed
    s = spectrum(identity_tuple(5, 3), coord(5, [0]))
    report_id = check_singular_bound(float(s[:, 0].max()), 3)
    assert report_id.lhs == 0.0
    assert report_id.passed


def test_rank_relation_cycle_numbers():
    t, v = cycle_tuple(4), coord(4, [0, 1])
    report = check_rank_relation(ratio(t, v, 2.0), expansion_ratio_dim(t, v).value, t.d, 2.0)
    assert report.lhs == pytest.approx(0.5, abs=1e-12)
    assert report.rhs == pytest.approx(2.0 * 0.5, abs=1e-12)
    assert report.passed


def test_ratio_scaling_slack_exactly_zero_on_binary_spectrum():
    # d = 1 permutation tuple: every restriction singular value is 0 or 1,
    # the equality case of the norm-power comparison
    t = tuple_from_permutations([[1, 2, 3, 4, 5, 0]])
    for idx in ([0], [0, 1], [1, 3, 5]):
        v = coord(6, idx)
        report = check_ratio_scaling(ratio(t, v, 4.0), ratio(t, v, 1.5), t.d, 4.0, 1.5)
        assert report.slack == 0.0
        assert report.passed


def test_checkers_judge_minima_taken_at_different_witnesses():
    # on a permutation tuple every h_p over coordinate subspaces is h(G), so
    # minima found apart from each other satisfy both exponent comparisons
    g = random_regular(12, 4, seed=3)
    t = tuple_from_permutations(decompose_permutations(g))
    h_p, h_q = (minimize_coordinate(t, p).value for p in (3.0, 1.5))
    assert h_p == h_q == edge_expansion_bruteforce(g)[0]
    assert check_ratio_scaling(h_p, h_q, t.d, 3.0, 1.5).passed
    assert check_ratio_power(h_p, h_q, 3.0, 1.5).passed
    # on a Haar unitary tuple the p = 3 and q = 1.5 minima sit at different
    # vertex subsets, so no single spectrum holds both numbers
    rng = np.random.default_rng(3)
    t = BistochasticTuple(tuple(haar_unitary(6, rng) for _ in range(2)))
    e_p, e_q = (minimize_coordinate(t, p) for p in (3.0, 1.5))
    assert e_p.subset != e_q.subset
    assert check_ratio_scaling(e_p.value, e_q.value, t.d, 3.0, 1.5).passed
    assert check_ratio_power(e_p.value, e_q.value, 3.0, 1.5).passed
    # numbers no pair of minima can take fail
    assert not check_ratio_scaling(1.0, 0.1, 2, 3.0, 1.5).passed
    assert not check_ratio_power(0.1, 0.9, 3.0, 1.5).passed


def test_sweep_reduces_each_spectrum_once(monkeypatch):
    # two Schatten sums (p and q) and one rank count per instance
    from spexp import verify as verify_mod

    calls = {"sp": 0, "rank": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(verify_mod, "sp_numerator", counted("sp", verify_mod.sp_numerator))
    monkeypatch.setattr(verify_mod, "rank_numerator", counted("rank", verify_mod.rank_numerator))
    cfg = SweepConfig(instances=30, seed=4, n_range=(2, 12), d_range=(1, 4))
    assert dumps_canonical(sweep(cfg)) == dumps_canonical(reference_sweep(cfg))
    assert calls == {"sp": 2 * 30, "rank": 30}


def test_sweep_empty_is_vacuous_pass():
    report = sweep(SweepConfig(instances=0, seed=1))
    assert report["all_pass"]
    assert report["failures_total"] == 0
    for row in report["checkers"]:
        assert row["total"] == 0
        assert row["worst_slack"] is None


def test_sweep_small_run_all_pass():
    report = sweep(SweepConfig(instances=120, seed=7))
    assert report["all_pass"], dumps_canonical(report)
    names = [row["checker"] for row in report["checkers"]]
    assert names == list(CHECKERS)
    for row in report["checkers"]:
        assert row["total"] == 120
        assert row["failures"] == 0
        assert row["worst_slack"] >= -1e-9
        assert row["failing_instances"] == []


def test_sweep_deterministic_bytes(monkeypatch):
    # the report is the same with one block, a block per instance, and blocks
    # of unequal length that split an n group between two blocks
    from spexp import linalg, verify as verify_mod

    cfg = SweepConfig(instances=40, seed=3)
    a = dumps_canonical(sweep(cfg))
    assert len(list(verify_mod._blocks(cfg))) == 1
    for budget in (1, 700):
        monkeypatch.setattr(linalg, "BATCH_ENTRIES", budget)
        blocks = [{desc["n"] for desc, _, _ in block} for block in verify_mod._blocks(cfg)]
        if budget == 1:
            assert len(blocks) == 40
        else:
            assert 1 < len(blocks) < 40 and any(x & y for x, y in zip(blocks, blocks[1:]))
        assert dumps_canonical(sweep(cfg)) == a


@pytest.mark.parametrize(
    "cfg",
    [
        SweepConfig(instances=0, seed=1),
        SweepConfig(instances=25, seed=2, n_range=(2, 2), d_range=(1, 4)),
        SweepConfig(instances=25, seed=3, n_range=(2, 9), d_range=(1, 1)),
        SweepConfig(instances=25, seed=4, p_range=(2.5, 2.5)),
        SweepConfig(instances=25, seed=5, n_range=(2, 2), d_range=(1, 1), p_range=(1.0, 1.0)),
        SweepConfig(instances=60, seed=6, n_range=(2, 24), d_range=(1, 5)),
        SweepConfig(instances=120, seed=7),
    ],
    ids=["empty", "n2", "d1", "p-point", "smallest", "wide", "default"],
)
def test_sweep_matches_reference_oracle(cfg):
    assert dumps_canonical(sweep(cfg)) == dumps_canonical(reference_sweep(cfg))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    instances=st.integers(0, 30),
    n=st.tuples(st.integers(2, 24), st.integers(0, 6)),
    d=st.tuples(st.integers(1, 5), st.integers(0, 3)),
    p=st.tuples(st.floats(1.0, 6.0), st.floats(0.0, 3.0)),
    seed=st.integers(0, 2**32),
)
def test_sweep_matches_reference_oracle_on_random_ranges(instances, n, d, p, seed):
    cfg = SweepConfig(
        instances=instances,
        n_range=(n[0], min(n[0] + n[1], 24)),
        d_range=(d[0], d[0] + d[1]),
        p_range=(p[0], p[0] + p[1]),
        seed=seed,
    )
    assert dumps_canonical(sweep(cfg)) == dumps_canonical(reference_sweep(cfg))


def test_sweep_failure_path_serializes_and_replays(monkeypatch, capsys):
    # a wrapper fails ratio_scaling on every instance; the checkers are looked
    # up on spexp.verify at call time, so the sweep sees the patch
    from spexp import verify as verify_mod
    from spexp.cli import main

    real = verify_mod.check_ratio_scaling
    monkeypatch.setattr(
        verify_mod,
        "check_ratio_scaling",
        lambda *args, **kw: dataclasses.replace(real(*args, **kw), passed=False),
    )
    cfg = SweepConfig(instances=6, seed=13)
    report = sweep(cfg)
    row = report["checkers"][CHECKERS.index("ratio_scaling")]
    assert report["failures_total"] == row["failures"] == 6
    assert [f["descriptor"]["index"] for f in row["failing_instances"]] == list(range(6))
    for frozen in row["failing_instances"]:
        t2 = tuple_from_json(frozen["tuple"])
        v2 = Subspace(matrix_from_json(frozen["subspace_basis"]))
        lhs = expansion_ratio_sp(t2, v2, frozen["descriptor"]["p"]).value
        assert lhs == pytest.approx(frozen["lhs"], rel=1e-12)
    # the replayed tuples are the bits the sweep checked
    assert dumps_canonical(report) == dumps_canonical(reference_sweep(cfg))
    assert main(["verify", "--instances", "6", "--seed", "13", "--quiet"]) == 1
    capsys.readouterr()


def test_sweep_failure_serialization_is_replayable(monkeypatch):
    # force a failure with a hostile tolerance, read when the checker runs,
    # and replay the instance
    from spexp import verify as verify_mod

    monkeypatch.setattr(verify_mod, "RATIO_TOL", -10.0)
    cfg = SweepConfig(instances=5, seed=13)
    t, v, p, q, desc = verify_mod._draw_instance(cfg, 2)
    report = verify_mod.check_ratio_scaling(
        ratio(t, v, p), ratio(t, v, q), t.d, p, q, instance=desc
    )
    assert not report.passed
    frozen = verify_mod._serialize_failure(cfg, report)
    t2 = tuple_from_json(frozen["tuple"])
    v2 = Subspace(matrix_from_json(frozen["subspace_basis"]))
    lhs = expansion_ratio_sp(t2, v2, frozen["descriptor"]["p"]).value
    assert lhs == pytest.approx(report.lhs, rel=1e-12)


@pytest.mark.parametrize(
    "bad",
    [
        {"instances": -5},
        {"instances": 2.5},
        {"instances": True},
        {"seed": 1.5},
        {"n_range": (2.5, 4)},
        {"d_range": (1, True)},
        {"n_range": (9, 4)},
        {"n_range": (1, 1)},
        {"d_range": (0, 3)},
        {"d_range": (4, 2)},
        {"p_range": (1.0, float("nan"))},
        {"p_range": (float("nan"), 6.0)},
        {"p_range": (1.0, float("inf"))},
        {"p_range": (0.5, 6.0)},
        {"p_range": (4.0, 2.0)},
        {"seed": -1},
    ],
)
def test_sweep_config_rejects_bad_ranges(bad):
    with pytest.raises(InvalidParameters):
        SweepConfig(**bad)


def test_sweep_config_stores_integral_values_as_ints():
    cfg = SweepConfig(instances=np.int64(4), seed=3.0, n_range=(4.0, np.int32(6)), d_range=(2, 3))
    assert (cfg.instances, cfg.seed, cfg.n_range) == (4, 3, (4, 6))
    assert type(cfg.instances) is type(cfg.seed) is type(cfg.n_range[1]) is int
    plain = SweepConfig(instances=4, seed=3, n_range=(4, 6), d_range=(2, 3))
    assert dumps_canonical(sweep(cfg)) == dumps_canonical(sweep(plain))


def test_sweep_config_refuses_tuples_above_limit():
    # a (1, 8192, 8192) complex128 tuple is exactly MAX_TUPLE_BYTES
    assert MAX_TUPLE_BYTES == 1 << 30
    SweepConfig(instances=1, n_range=(4, 8192), d_range=(1, 1))
    for n_range, d_range in (((4, 8193), (1, 1)), ((4, 8192), (1, 2)), ((4, 16), (1, 10**12))):
        with pytest.raises(InstanceTooLarge):
            SweepConfig(instances=1, n_range=n_range, d_range=d_range)


def test_sweep_config_accepts_smallest_ranges():
    cfg = SweepConfig(instances=3, n_range=(2, 2), d_range=(1, 1), p_range=(3.0, 3.0))
    assert sweep(cfg)["all_pass"]


def test_tolerances_are_constants_not_parameters():
    # BISTOCH_TOL, RATIO_TOL and SINGULAR_TOL are read when a check runs;
    # no caller can pass its own
    for fn in (
        validate_bistochastic,
        check_ratio_scaling,
        check_ratio_power,
        check_singular_bound,
        check_rank_relation,
    ):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
    for report in (ValidationReport, InequalityReport):
        assert "tol" not in {f.name for f in dataclasses.fields(report)}, report.__name__

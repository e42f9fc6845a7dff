"""Inequality checkers and the randomized sweep."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spexp import (
    SweepConfig,
    check_rank_relation,
    check_singular_bound,
    check_ratio_scaling,
    check_ratio_power,
    sweep,
    tuple_from_permutations,
)
from spexp.errors import (
    InstanceTooLarge,
    InvalidExponent,
    InvalidExponentOrder,
    InvalidMatrix,
    InvalidParameters,
)
from spexp.serialize import dumps_canonical, matrix_from_json, tuple_from_json
from spexp.channels import Subspace, expansion_ratio_sp, restriction_singular_values
from spexp.verify import CHECKERS, MAX_TUPLE_BYTES

from util import coord, cycle_tuple, identity_tuple, reference_sweep


def spectrum(t, v):
    return restriction_singular_values(t.matrices, v)


def test_ratio_scaling_identity_tuple():
    report = check_ratio_scaling(spectrum(identity_tuple(4, 2), coord(4, [0])), 3.0, 2.0)
    assert report.passed
    assert report.lhs == 0.0 and report.rhs == 0.0


def test_ratio_scaling_cycle_numbers():
    report = check_ratio_scaling(spectrum(cycle_tuple(4), coord(4, [0, 1])), 4.0, 2.0)
    assert report.lhs == pytest.approx(0.5, abs=1e-12)
    assert report.rhs == pytest.approx(2.0 * 0.5, abs=1e-12)
    assert report.passed


def test_ratio_power_cycle_numbers():
    report = check_ratio_power(spectrum(cycle_tuple(4), coord(4, [0, 1])), 4.0, 2.0)
    assert report.lhs == pytest.approx(0.5, abs=1e-12)
    assert report.rhs == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert report.passed


def test_checkers_reject_bad_exponent_order():
    s = spectrum(cycle_tuple(4), coord(4, [0]))
    with pytest.raises(InvalidExponentOrder):
        check_ratio_scaling(s, 2.0, 3.0)
    with pytest.raises(InvalidExponentOrder):
        check_ratio_power(s, 2.0, 0.5)


def test_checkers_reject_bad_exponents_and_spectra():
    s = spectrum(cycle_tuple(4), coord(4, [0, 1]))
    for bad in (0.5, float("nan"), float("inf")):
        with pytest.raises(InvalidExponent):
            check_rank_relation(s, bad)
    with pytest.raises(InvalidExponent):
        check_ratio_scaling(s, float("nan"), 2.0)
    with pytest.raises(InvalidExponent):
        check_ratio_power(s, 3.0, float("nan"))
    with pytest.raises(InvalidExponentOrder):
        check_ratio_scaling(s, 0.5, 0.5)
    with pytest.raises(InvalidExponentOrder):
        check_ratio_power(s, 1.5, 2.0)
    for bad in (s[0], s[None], s[:, :0]):
        with pytest.raises(InvalidMatrix):
            check_singular_bound(bad)
        with pytest.raises(InvalidMatrix):
            check_ratio_scaling(bad, 3.0, 2.0)


def test_singular_bound_permutation_and_identity():
    report = check_singular_bound(spectrum(cycle_tuple(6), coord(6, [0, 1, 2])))
    assert report.lhs <= 1.0 + 1e-12
    assert report.passed
    report_id = check_singular_bound(spectrum(identity_tuple(5, 3), coord(5, [0])))
    assert report_id.lhs == 0.0
    assert report_id.passed


def test_rank_relation_cycle_numbers():
    report = check_rank_relation(spectrum(cycle_tuple(4), coord(4, [0, 1])), 2.0)
    assert report.lhs == pytest.approx(0.5, abs=1e-12)
    assert report.rhs == pytest.approx(2.0 * 0.5, abs=1e-12)
    assert report.passed


def test_ratio_scaling_slack_exactly_zero_on_binary_spectrum():
    # d = 1 permutation tuple: every restriction singular value is 0 or 1,
    # the equality case of the norm-power comparison
    t = tuple_from_permutations([[1, 2, 3, 4, 5, 0]])
    for idx in ([0], [0, 1], [1, 3, 5]):
        report = check_ratio_scaling(spectrum(t, coord(6, idx)), 4.0, 1.5)
        assert report.slack == 0.0
        assert report.passed


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
    from spexp import verify as verify_mod

    cfg = SweepConfig(instances=40, seed=3)
    a = dumps_canonical(sweep(cfg))
    assert len(list(verify_mod._blocks(cfg))) == 1
    for budget in (1, 700):
        monkeypatch.setattr(verify_mod, "BLOCK_ENTRIES", budget)
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
    # a hostile tolerance fails ratio_scaling on every instance; the checkers
    # are looked up on spexp.verify at call time, so the sweep sees the patch
    from spexp import verify as verify_mod
    from spexp.cli import main

    real = verify_mod.check_ratio_scaling
    monkeypatch.setattr(
        verify_mod, "check_ratio_scaling", lambda s, p, q, **kw: real(s, p, q, tol=-10.0, **kw)
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


def test_sweep_failure_serialization_is_replayable():
    # force a failure with a hostile tolerance and replay the instance
    from spexp import verify as verify_mod

    cfg = SweepConfig(instances=5, seed=13)
    t, v, p, q, desc = verify_mod._draw_instance(cfg, 2)
    report = verify_mod.check_ratio_scaling(spectrum(t, v), p, q, tol=-10.0, instance=desc)
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

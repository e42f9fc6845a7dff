"""Inequality checkers and the randomized sweep."""

import numpy as np
import pytest

from spexp import (
    SweepConfig,
    check_rank_relation,
    check_singular_bound,
    check_ratio_scaling,
    check_ratio_power,
    sweep,
    tuple_from_permutations,
)
from spexp.errors import InvalidExponent, InvalidExponentOrder, InvalidMatrix, InvalidParameters
from spexp.serialize import dumps_canonical, matrix_from_json, tuple_from_json
from spexp.channels import Subspace, expansion_ratio_sp, restriction_singular_values
from spexp.verify import CHECKERS

from util import coord, cycle_tuple, identity_tuple


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


def test_sweep_deterministic_bytes():
    cfg = SweepConfig(instances=40, seed=3)
    a = dumps_canonical(sweep(cfg, workers=1))
    b = dumps_canonical(sweep(cfg, workers=4))
    assert a == b


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


def test_sweep_config_accepts_smallest_ranges():
    cfg = SweepConfig(instances=3, n_range=(2, 2), d_range=(1, 1), p_range=(3.0, 3.0))
    assert sweep(cfg)["all_pass"]

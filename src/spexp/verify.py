"""Inequality checkers over randomized instance sweeps.

Each checker evaluates one theorem-backed inequality pointwise at a concrete
(tuple, subspace) pair and reports lhs, rhs and the slack rhs - lhs; a pass is
slack >= -tol. The four inequalities are functions of one restriction
spectrum: a checker takes the (d, k) singular values
``restriction_singular_values(t.matrices, v)`` (row i for B_i), and the sweep
computes that spectrum once per instance. Because the inequalities are
theorems for valid bistochastic tuples, a failing instance indicates an
implementation bug and the full instance is serialized for replay.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# expansion_ratio_sp and expansion_ratio_dim are not called here; they stay
# bound in this module because bench/tracing.py wraps them by attribute.
from .channels import (  # noqa: F401
    RANK_TOL,
    BistochasticTuple,
    Subspace,
    expansion_ratio_dim,
    expansion_ratio_sp,
    rank_numerator,
    restriction_singular_values,
    sp_numerator,
)
from .errors import InvalidExponentOrder, InvalidMatrix, InvalidParameters
from .linalg import _check_exponent, haar_isometry, haar_unitary, substream

RATIO_TOL = 1e-9
SINGULAR_TOL = 1e-8


@dataclass
class InequalityReport:
    checker: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    tol: float
    instance: dict = field(default_factory=dict)


def _check_order(p: float, q: float):
    if p < q:
        raise InvalidExponentOrder(f"need p >= q, got p={p}, q={q}")
    if q < 1:
        raise InvalidExponentOrder(f"need q >= 1, got q={q}")


def _shape(s) -> tuple:
    """(d, k) of a restriction spectrum."""
    if np.ndim(s) != 2 or 0 in np.shape(s):
        raise InvalidMatrix(f"need a (d, k) restriction spectrum, got shape {np.shape(s)}")
    return s.shape


def _sp_ratio(s, p: float) -> float:
    """Schatten-p ratio sum_i ||restriction of B_i||_{S_p}^p / (d k)."""
    d, k = _shape(s)
    return sp_numerator(s, _check_exponent(p)) / float(d * k)


def _report(checker, lhs, rhs, tol, instance):
    slack = rhs - lhs
    return InequalityReport(checker, lhs, rhs, slack, slack >= -tol, tol, instance or {})


def check_ratio_scaling(s, p, q, tol: float = RATIO_TOL, instance=None) -> InequalityReport:
    """ratio_p(V) <= d^((p-q)/2) * ratio_q(V) for p >= q >= 1."""
    _check_order(p, q)
    lhs = _sp_ratio(s, p)
    rhs = s.shape[0] ** ((p - q) / 2.0) * _sp_ratio(s, q)
    return _report("ratio_scaling", lhs, rhs, tol, instance)


def check_ratio_power(s, p, q, tol: float = RATIO_TOL, instance=None) -> InequalityReport:
    """ratio_q(V) <= ratio_p(V)^(q/p) for p >= q >= 1 (the Hoelder chain)."""
    _check_order(p, q)
    lhs = _sp_ratio(s, q)
    rhs = _sp_ratio(s, p) ** (q / p)
    return _report("ratio_power", lhs, rhs, tol, instance)


def check_singular_bound(s, tol: float = SINGULAR_TOL, instance=None) -> InequalityReport:
    """max_i sigma_max(restriction of B_i) <= sqrt(d)."""
    d, _ = _shape(s)
    lhs = float(s[:, 0].max())
    rhs = float(np.sqrt(d))
    return _report("singular_bound", lhs, rhs, tol, instance)


def check_rank_relation(
    s, p, rank_tol: float = RANK_TOL, tol: float = RATIO_TOL, instance=None
) -> InequalityReport:
    """ratio_p(V) <= d^(p/2) * rank_ratio(V)."""
    lhs = _sp_ratio(s, p)
    d, k = s.shape
    rhs = d ** (p / 2.0) * (rank_numerator(s, rank_tol) / float(d * k))
    return _report("rank_relation", lhs, rhs, tol, instance)


CHECKERS = ("ratio_scaling", "ratio_power", "singular_bound", "rank_relation")


@dataclass
class SweepConfig:
    instances: int = 1000
    n_range: tuple = (4, 16)
    d_range: tuple = (2, 5)
    p_range: tuple = (1.0, 6.0)
    seed: int = 0

    def __post_init__(self):
        (n_min, n_max), (d_min, d_max), (p_min, p_max) = self.n_range, self.d_range, self.p_range
        if self.instances < 0:
            raise InvalidParameters(f"instances must be >= 0, got {self.instances}")
        if not 2 <= n_min <= n_max:
            raise InvalidParameters(f"need 2 <= n_min <= n_max, got n range {self.n_range}")
        if not 1 <= d_min <= d_max:
            raise InvalidParameters(f"need 1 <= d_min <= d_max, got d range {self.d_range}")
        # NaN fails every comparison; p_min <= p_max bounds p_min by a finite p_max
        if not (np.isfinite(p_max) and 1 <= p_min <= p_max):
            raise InvalidParameters(
                f"need finite 1 <= p_min <= p_max, got p range {self.p_range}"
            )


def _draw_instance(cfg: SweepConfig, index: int):
    rng = substream(cfg.seed, index)
    n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
    d = int(rng.integers(cfg.d_range[0], cfg.d_range[1] + 1))
    k = int(rng.integers(1, n // 2 + 1))
    lo, hi = cfg.p_range
    a, b = rng.uniform(lo, hi, size=2)
    p, q = float(max(a, b)), float(min(a, b))
    t = BistochasticTuple(tuple(haar_unitary(n, rng) for _ in range(d)))
    v = Subspace(haar_isometry(n, k, rng))
    descriptor = {"index": index, "n": n, "d": d, "k": k, "p": p, "q": q, "seed": cfg.seed}
    return t, v, p, q, descriptor


def _run_instance(cfg: SweepConfig, index: int):
    t, v, p, q, desc = _draw_instance(cfg, index)
    # the kernel and the checkers are called through module globals, so a
    # wrapper installed on one (bench/tracing.py) sees every call
    s = restriction_singular_values(t.matrices, v)
    return [
        check_ratio_scaling(s, p, q, instance=desc),
        check_ratio_power(s, p, q, instance=desc),
        check_singular_bound(s, instance=desc),
        check_rank_relation(s, p, instance=desc),
    ]


def _serialize_failure(cfg: SweepConfig, report: InequalityReport) -> dict:
    from .serialize import tuple_to_json, matrix_to_json

    index = report.instance["index"]
    t, v, p, q, desc = _draw_instance(cfg, index)
    return {
        "descriptor": desc,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "slack": report.slack,
        "tuple": tuple_to_json(t),
        "subspace_basis": matrix_to_json(v.basis),
    }


def sweep(cfg: SweepConfig, workers: int | None = None) -> dict:
    """Run every checker over the generated instance set.

    Instances are independent; with workers > 1 they are evaluated in a
    thread pool and aggregated in instance order, so the report is identical
    regardless of SPEXP_THREADS.
    """
    if workers is None:
        raw = os.environ.get("SPEXP_THREADS", "1") or "1"
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidParameters(f"SPEXP_THREADS must be an integer, got {raw!r}") from None
    indices = list(range(cfg.instances))
    if workers > 1 and indices:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_instance = list(pool.map(lambda i: _run_instance(cfg, i), indices))
    else:
        per_instance = [_run_instance(cfg, i) for i in indices]

    checker_rows = []
    total_failures = 0
    for name in CHECKERS:
        reports = [r for reports in per_instance for r in reports if r.checker == name]
        failures = [r for r in reports if not r.passed]
        total_failures += len(failures)
        worst = min((r.slack for r in reports), default=None)
        checker_rows.append(
            {
                "checker": name,
                "total": len(reports),
                "failures": len(failures),
                "worst_slack": worst,
                "failing_instances": [_serialize_failure(cfg, r) for r in failures],
            }
        )
    return {
        "instances": cfg.instances,
        "seed": cfg.seed,
        "n_range": list(cfg.n_range),
        "d_range": list(cfg.d_range),
        "p_range": list(cfg.p_range),
        "failures_total": total_failures,
        "all_pass": total_failures == 0,
        "checkers": checker_rows,
    }

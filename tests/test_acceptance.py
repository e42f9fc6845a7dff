"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print; every tolerance is pinned here, not configurable.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from spexp import (
    BistochasticTuple,
    OptimizerConfig,
    Subspace,
    SweepConfig,
    build_complete,
    build_cycle,
    build_hypercube,
    cut_oracle_l1,
    decompose_permutations,
    edge_expansion_bruteforce,
    expansion_ratio_sp,
    l2_expansion_oracle,
    lp_expansion_estimate,
    metric_ratio,
    minimize_coordinate,
    objective_and_gradient,
    quantum_edge_ratio,
    random_regular,
    shortest_path_metric,
    sweep,
    tuple_from_permutations,
)
from spexp.graphs import metric_ratio_parts
from spexp.linalg import haar_isometry, haar_unitary

from util import finite_difference_gradient


def _line(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def inequality_sweep():
    started = time.perf_counter()
    report = sweep(SweepConfig(instances=1000, seed=2026))
    elapsed = time.perf_counter() - started
    return report, elapsed


def _checker_row(report, name):
    return next(row for row in report["checkers"] if row["checker"] == name)


def test_criterion_1_inequality_sweep(inequality_sweep):
    report, elapsed = inequality_sweep
    rows = [_checker_row(report, "ratio_scaling"), _checker_row(report, "ratio_power")]
    ok = all(r["failures"] == 0 and r["total"] == 1000 for r in rows)
    ok = ok and all(r["worst_slack"] >= -1e-9 for r in rows)
    ok = ok and elapsed < 60.0
    _line(
        1,
        ok,
        f"1000-instance exponent-inequality sweep, worst slacks "
        f"{rows[0]['worst_slack']:.3e}/{rows[1]['worst_slack']:.3e}, {elapsed:.2f}s (< 60s)",
    )


def test_criterion_2_singular_bound(inequality_sweep):
    report, _ = inequality_sweep
    row = _checker_row(report, "singular_bound")
    ok = row["failures"] == 0 and row["total"] == 1000
    _line(2, ok, f"singular values <= sqrt(d) + 1e-8 on all 1000 instances")


def test_criterion_3_rank_relation(inequality_sweep):
    report, _ = inequality_sweep
    row = _checker_row(report, "rank_relation")
    ok = row["failures"] == 0 and row["total"] == 1000
    _line(3, ok, f"d^(p/2) rank ratio dominates Schatten ratio on all 1000 instances")


def test_criterion_4_classical_recovery():
    cases = [
        (build_cycle(8), 0.25),
        (build_complete(4), 2.0 / 3.0),
        (build_hypercube(3), 1.0 / 3.0),
    ]
    ok = True
    details = []
    for g, expected in cases:
        t = tuple_from_permutations(decompose_permutations(g))
        brute, _ = edge_expansion_bruteforce(g)
        est_q = minimize_coordinate(t, 2.0, mode="Q").value
        est_sp = minimize_coordinate(t, 2.0, mode="sp").value
        this = (
            abs(brute - expected) <= 1e-15
            and abs(est_q - brute) <= 1e-12
            and abs(est_sp - brute) <= 1e-12
        )
        ok = ok and this
        details.append(f"{expected:.4f}->{est_q:.4f}")
    _line(4, ok, "pipeline equals brute force on C8/K4/Q3: " + ", ".join(details))


def test_criterion_5_hall_decomposition():
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    ok = True
    for i in range(200):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(2, 9))
        g = random_regular(
            n, d, seed=int(rng.integers(0, 2**31)), symmetric=bool(rng.integers(0, 2))
        )
        perms = decompose_permutations(g)
        recon = np.zeros((n, n), dtype=np.int64)
        for perm in perms:
            recon[perm, np.arange(n)] += 1
        ok = ok and len(perms) == d and np.array_equal(recon, g.adjacency)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _line(5, ok, f"200 exact reconstructions (n<=200, d<=8) in {elapsed:.2f}s (< 30s)")


def test_criterion_6_boundary_equals_schatten2():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 6))
        t = BistochasticTuple(tuple(haar_unitary(n, rng) for _ in range(d)))
        k = int(rng.integers(1, n // 2 + 1))
        v = Subspace(haar_isometry(n, k, rng))
        a = quantum_edge_ratio(t, v).value
        b = expansion_ratio_sp(t, v, 2.0).value
        worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    ok = worst <= 1e-9
    _line(6, ok, f"boundary ratio == Schatten-2 ratio on 500 pairs, worst rel dev {worst:.2e}")


def test_criterion_7_gradient_checks():
    rng = np.random.default_rng(707)
    worst_p2 = 0.0
    worst_p15 = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 8))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, n // 2 + 1))
        t = BistochasticTuple(tuple(haar_unitary(n, rng) for _ in range(d)))
        q = haar_isometry(n, k, rng)

        _, grad = objective_and_gradient(t, q, 2.0, 0.0)
        fd = finite_difference_gradient(
            lambda m: objective_and_gradient(t, m, 2.0, 0.0)[0], q, h=1e-5
        )
        worst_p2 = max(worst_p2, np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd)))

        _, grad15 = objective_and_gradient(t, q, 1.5, 1e-8)
        fd15 = finite_difference_gradient(
            lambda m: objective_and_gradient(t, m, 1.5, 1e-8)[0], q, h=1e-5
        )
        worst_p15 = max(
            worst_p15, np.linalg.norm(grad15 - fd15) / max(1.0, np.linalg.norm(fd15))
        )
    ok = worst_p2 <= 1e-5 and worst_p15 <= 1e-4
    _line(
        7,
        ok,
        f"finite-difference gradients on 50 instances: p=2 rel {worst_p2:.2e} (<=1e-5), "
        f"p=1.5 rel {worst_p15:.2e} (<=1e-4)",
    )


def test_criterion_8_metric_ratios():
    c8 = build_cycle(8)
    q3 = build_hypercube(3)
    rho_c8 = shortest_path_metric(c8)
    rho_q3 = shortest_path_metric(q3)
    r_c8 = metric_ratio(c8, rho_c8, 1.0)
    r_q3 = metric_ratio(q3, rho_q3, 1.0)
    num_c8, _ = metric_ratio_parts(c8, rho_c8, 1.0)
    num_q3, _ = metric_ratio_parts(q3, rho_q3, 1.0)
    ok = (
        abs(r_c8 - 0.5) <= 1e-12
        and abs(r_q3 - 2.0 / 3.0) <= 1e-12
        and num_c8 == 1.0
        and num_q3 == 1.0
    )
    _line(8, ok, f"R(C8,p=1)={r_c8!r}, R(Q3,p=1)={r_q3!r}, numerators exactly 1")


def _builder_instances():
    graphs = []
    for n in range(3, 11):
        graphs.append((f"C{n}", build_cycle(n)))
    for n in range(2, 11):
        graphs.append((f"K{n}", build_complete(n)))
    for k in range(1, 4):
        graphs.append((f"Q{k}", build_hypercube(k)))
    from spexp.graphs import is_connected

    for seed in (1, 2, 4, 7):
        g = random_regular(6 + 2 * (seed % 3), 3, seed=seed, allow_loops=False)
        if is_connected(g):
            graphs.append((f"R{seed}", g))
    return graphs


def test_criterion_9_embedding_oracles():
    cfg = OptimizerConfig(restarts=4, max_iters=200, seed=0)
    ok = True
    worst_gap_p1 = 0.0
    worst_gap_p2 = 0.0
    for name, g in _builder_instances():
        oracle1, _ = cut_oracle_l1(g)
        est1 = lp_expansion_estimate(g, 1.0, 4, cfg).value
        this1 = oracle1 - 1e-9 <= est1 <= 1.15 * oracle1
        worst_gap_p1 = max(worst_gap_p1, est1 / oracle1 - 1.0)

        oracle2 = l2_expansion_oracle(g)
        est2 = lp_expansion_estimate(g, 2.0, 4, cfg).value
        this2 = oracle2 - 1e-9 <= est2 <= 1.05 * oracle2
        worst_gap_p2 = max(worst_gap_p2, est2 / oracle2 - 1.0)
        if not (this1 and this2):
            ok = False
            print(f"  criterion 9 gap at {name}: p1 {est1} vs {oracle1}, p2 {est2} vs {oracle2}")
    for n in (4, 5, 6):
        g = build_complete(n)
        for p in (1.0, 2.0):
            est = lp_expansion_estimate(g, p, 4, cfg).value
            if abs(est - (n / (n - 1.0)) ** (1.0 / p)) > 1e-6:
                ok = False
    _line(
        9,
        ok,
        f"lp estimates within [oracle, 1.15/1.05 oracle] on all builders n<=10 "
        f"(worst gaps p1 {worst_gap_p1:.2%}, p2 {worst_gap_p2:.2%}); K_n constants exact to 1e-6",
    )


def test_criterion_10_verify_determinism(tmp_path):
    outputs = []
    for threads in ("1", "3"):
        out = tmp_path / f"report-{threads}.json"
        env = dict(os.environ)
        env["SPEXP_THREADS"] = threads
        proc = subprocess.run(
            [
                sys.executable, "-m", "spexp.cli", "verify",
                "--instances", "60", "--seed", "17", "--out", str(out), "--quiet",
            ],
            env=env,
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _line(10, ok, f"cmd_verify byte-identical across SPEXP_THREADS ({len(outputs[0])} bytes)")

"""Shared fixtures-in-code for the test suite: small canonical instances and
the independent oracles used to freeze expected values."""

from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np

from spexp import BistochasticTuple, Subspace, tuple_from_permutations
from spexp import embed, verify
from spexp.channels import RANK_TOL, expansion_ratio_sp
from spexp.embed import EPSILON, TARGET_LP, EmbedEstimate, VertexEmbedding, embedding_ratio
from spexp.errors import NumericalFailure, RankDeficient
from spexp.linalg import haar_isometry, haar_unitary, orthonormalize, substream
from spexp.search import ARMIJO_C1, BACKTRACK, MIN_STEP, objective_and_gradient
from spexp.serialize import matrix_to_json, tuple_to_json
from spexp.verify import CHECKERS, RATIO_TOL, SINGULAR_TOL


def shift_matrix(n: int) -> np.ndarray:
    """Cyclic shift: column j carries 1 in row j+1 mod n."""
    s = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        s[(j + 1) % n, j] = 1.0
    return s


def cycle_tuple(n: int) -> BistochasticTuple:
    """The permutation tuple {shift, shift^-1} of the n-cycle."""
    fwd = [(j + 1) % n for j in range(n)]
    bwd = [(j - 1) % n for j in range(n)]
    return tuple_from_permutations([fwd, bwd])


def identity_tuple(n: int, d: int) -> BistochasticTuple:
    return tuple_from_permutations([list(range(n))] * d)


def coord(n: int, idx) -> Subspace:
    return Subspace.coordinate(n, idx)


def random_complex(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def finite_difference_gradient(fun, q: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences over the real and imaginary part of every entry.

    Matches a gradient defined as the Riesz representer under the real inner
    product Re Tr[A* B].
    """
    grad = np.zeros_like(q, dtype=np.complex128)
    for i in range(q.shape[0]):
        for j in range(q.shape[1]):
            for unit, write in ((1.0, 1.0), (1j, 1j)):
                plus = q.copy()
                plus[i, j] += h * unit
                minus = q.copy()
                minus[i, j] -= h * unit
                grad[i, j] += write * (fun(plus) - fun(minus)) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# Reference subset sweeps: one combinations() loop per size, exact Fraction
# comparison for the graph ratios, lexicographically smallest subset on ties.
# ---------------------------------------------------------------------------


def _first_minimum(scored):
    """(value, subset) with the smallest value, then the smallest subset."""
    best = None
    best_w = None
    for value, w in scored:
        if best is None or value < best or (value == best and w < best_w):
            best, best_w = value, w
    return best, list(best_w)


def _subsets(n: int):
    for k in range(1, n // 2 + 1):
        yield from combinations(range(n), k)


def reference_edge_expansion(g):
    """h(G) = min |boundary(W)| / (d |W|) as (float value, witness)."""
    a, n, d = g.adjacency, g.n, g.d

    def ratio(w):
        k = len(w)
        return Fraction(d * k - int(a[np.ix_(w, w)].sum()), d * k)

    value, witness = _first_minimum((ratio(w), w) for w in _subsets(n))
    return float(value), witness


def reference_cut_oracle_l1(g):
    """min over cuts of [(1/|E|) |cut edges|] / [(1/n^2) 2 |S| |S_bar|]."""
    a, n, d = g.adjacency, g.n, g.d
    edges = g.edge_count()

    def ratio(s):
        k = len(s)
        boundary = d * k - int(a[np.ix_(s, s)].sum())
        return Fraction(n * n * boundary, 2 * edges * k * (n - k))

    value, witness = _first_minimum((ratio(s), s) for s in _subsets(n))
    return float(value), witness


def reference_hopcroft_karp(adj: list, n: int) -> list:
    """graphs._hopcroft_karp with a recursive DFS, which visits the rows in
    the same order; the call stack bounds its augmenting paths (a cycle of
    about 2,000 vertices exceeds the default recursion limit)."""
    inf = 2 * n + 1
    match_col = [-1] * n
    match_row = [-1] * n
    while True:
        dist = [inf] * n
        queue = deque()
        for j in range(n):
            if match_col[j] == -1:
                dist[j] = 0
                queue.append(j)
        barrier = inf
        while queue:
            j = queue.popleft()
            if dist[j] >= barrier:
                continue
            for r in adj[j]:
                nxt = match_row[r]
                if nxt == -1:
                    barrier = min(barrier, dist[j] + 1)
                elif dist[nxt] == inf:
                    dist[nxt] = dist[j] + 1
                    queue.append(nxt)
        if barrier == inf:
            break

        def dfs(j):
            for r in adj[j]:
                nxt = match_row[r]
                if nxt == -1 or (dist[nxt] == dist[j] + 1 and dfs(nxt)):
                    match_col[j] = r
                    match_row[r] = j
                    return True
            dist[j] = inf
            return False

        for j in range(n):
            if match_col[j] == -1:
                dfs(j)
    return match_col


def reference_coordinate(t, p, mode: str, rank_tol: float = RANK_TOL):
    """Coordinate-subspace minimum of the Q, sp or dim ratio as
    (value, witness, subsets evaluated)."""
    n, d = t.n, t.d
    weight = np.zeros((n, n))
    for b in t.matrices:
        weight += np.abs(b) ** 2
    threshold = rank_tol * np.sqrt(d)

    def ratio(w):
        comp = [j for j in range(n) if j not in w]
        if mode == "Q":
            num = float(weight[np.ix_(comp, w)].sum())
        else:
            num = 0.0
            for b in t.matrices:
                s = np.linalg.svd(b[np.ix_(w, comp)], compute_uv=False)
                if mode == "sp":
                    num += float(np.sum(s**p))
                else:
                    num += int(np.count_nonzero(s > threshold))
        return num / (d * len(w))

    scored = [(ratio(w), w) for w in _subsets(n)]
    value, witness = _first_minimum(scored)
    return value, witness, len(scored)


# ---------------------------------------------------------------------------
# Reference restrictions and their spectra: the full n x n restriction, one
# compression and one SVD per matrix, and the ratio numerators accumulated
# matrix by matrix.
# ---------------------------------------------------------------------------


def reference_restriction(b, v):
    """The full n x n restriction P B (Id - P), P = QQ* from the basis Q of v."""
    q = v.basis
    proj = q @ q.conj().T
    return proj @ b @ (np.eye(v.n) - proj)


def reference_spectrum(b, v):
    """Singular values of the k x n compressed restriction Q* B (Id - QQ*)."""
    q = v.basis
    row = q.conj().T @ b
    row = row - (row @ q) @ q.conj().T
    return np.linalg.svd(row, compute_uv=False)


def reference_sp_numerator(t, v, p):
    """sum_i ||restriction of B_i||_{S_p}^p."""
    num = 0.0
    for b in t.matrices:
        num += float(np.sum(reference_spectrum(b, v) ** p))
    return num


def reference_rank_count(t, v, rank_tol: float = RANK_TOL):
    """sum_i rank(restriction of B_i), counting values above rank_tol sqrt(d)."""
    threshold = rank_tol * np.sqrt(t.d)
    num = 0
    for b in t.matrices:
        num += int(np.count_nonzero(reference_spectrum(b, v) > threshold))
    return num


def reference_max_singular(t, v):
    """max_i sigma_max(restriction of B_i)."""
    lhs = 0.0
    for b in t.matrices:
        s = reference_spectrum(b, v)
        if s.size:
            lhs = max(lhs, float(s[0]))
    return lhs


# ---------------------------------------------------------------------------
# Reference verify checkers: each number recomputed from its own per-matrix
# spectra, numerator over float(d k), and each inequality written out.
# ---------------------------------------------------------------------------


def reference_numbers(t, v, p, q, rank_tol: float = RANK_TOL):
    """(ratio_p, ratio_q, rank_ratio, sigma_max) of one instance."""
    dk = float(t.d * v.k)
    return (
        reference_sp_numerator(t, v, p) / dk,
        reference_sp_numerator(t, v, q) / dk,
        reference_rank_count(t, v, rank_tol) / dk,
        reference_max_singular(t, v),
    )


def reference_checks(t, v, p, q, rank_tol: float = RANK_TOL):
    """checker name -> (lhs, rhs, slack, passed) of the four verify checkers."""
    ratio_p, ratio_q, rank_ratio, sigma_max = reference_numbers(t, v, p, q, rank_tol)
    rows = {
        "ratio_scaling": (ratio_p, t.d ** ((p - q) / 2.0) * ratio_q, RATIO_TOL),
        "ratio_power": (ratio_q, ratio_p ** (q / p), RATIO_TOL),
        "singular_bound": (sigma_max, float(np.sqrt(t.d)), SINGULAR_TOL),
        "rank_relation": (ratio_p, t.d ** (p / 2.0) * rank_ratio, RATIO_TOL),
    }
    return {
        name: (lhs, rhs, rhs - lhs, rhs - lhs >= -tol) for name, (lhs, rhs, tol) in rows.items()
    }


# ---------------------------------------------------------------------------
# Reference verify sweep: each instance drawn alone (one single-matrix QR per
# Haar draw), its numbers reduced from per-matrix spectra, then the four
# checkers. The checkers are looked up on spexp.verify at call time, so a
# patched checker is seen here too.
# ---------------------------------------------------------------------------


def reference_draw_instance(cfg, index):
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


def reference_sweep(cfg) -> dict:
    """The report of ``spexp.verify.sweep(cfg)``, one instance at a time."""
    per_instance = []
    for index in range(cfg.instances):
        t, v, p, q, desc = reference_draw_instance(cfg, index)
        ratio_p, ratio_q, rank_ratio, sigma_max = reference_numbers(t, v, p, q)
        per_instance.append((t, v, [
            verify.check_ratio_scaling(ratio_p, ratio_q, t.d, p, q, instance=desc),
            verify.check_ratio_power(ratio_p, ratio_q, p, q, instance=desc),
            verify.check_singular_bound(sigma_max, t.d, instance=desc),
            verify.check_rank_relation(ratio_p, rank_ratio, t.d, p, instance=desc),
        ]))
    rows = []
    for name in CHECKERS:
        mine = [(t, v, r) for t, v, reports in per_instance for r in reports if r.checker == name]
        failing = [
            {
                "descriptor": r.instance,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "slack": r.slack,
                "tuple": tuple_to_json(t),
                "subspace_basis": matrix_to_json(v.basis),
            }
            for t, v, r in mine
            if not r.passed
        ]
        rows.append({
            "checker": name,
            "total": len(mine),
            "failures": len(failing),
            "worst_slack": min((r.slack for _, _, r in mine), default=None),
            "failing_instances": failing,
        })
    failures = sum(row["failures"] for row in rows)
    return {
        "instances": cfg.instances,
        "seed": cfg.seed,
        "n_range": list(cfg.n_range),
        "d_range": list(cfg.d_range),
        "p_range": list(cfg.p_range),
        "failures_total": failures,
        "all_pass": failures == 0,
        "checkers": rows,
    }


# ---------------------------------------------------------------------------
# Reference embedding kernels: the l_p objective over row blocks of the
# difference tensor, and the Schatten objective, normalization, pair powers
# and distortion one vertex pair at a time (one eigh or SVD per pair).
# ---------------------------------------------------------------------------


def _reference_row_blocks(n: int, m: int):
    block = max(1, (1 << 22) // max(1, n * m))
    for lo in range(0, n, block):
        yield lo, min(lo + block, n)


def reference_lp_parts(x, w_edges, p, eps, n2, edge_count):
    """Smoothed (num, den, grad_num, grad_den) for the vector objective."""
    n, m = x.shape
    num = 0.0
    den = 0.0
    gnum = np.zeros_like(x)
    gden = np.zeros_like(x)
    for lo, hi in _reference_row_blocks(n, m):
        diff = x[lo:hi, None, :] - x[None, :, :]
        phi = (diff**2 + eps) ** (p / 2.0)
        t = phi.sum(axis=2)
        for i in range(lo, hi):
            t[i - lo, i] = 0.0
        psi = p * diff * (diff**2 + eps) ** (p / 2.0 - 1.0)
        num += float((w_edges[lo:hi] * t).sum())
        den += float(t.sum())
        gnum[lo:hi] = np.einsum("ij,ija->ia", w_edges[lo:hi], psi)
        gden[lo:hi] = 2.0 * psi.sum(axis=1)
    return num / (2.0 * edge_count), den / n2, gnum / edge_count, gden / n2


def reference_normalize_lp(x, p):
    x = x - x.mean(axis=0)
    n, m = x.shape
    total = 0.0
    for lo, hi in _reference_row_blocks(n, m):
        total += float(np.sum(np.abs(x[lo:hi, None, :] - x[None, :, :]) ** p))
    den = total / n**2
    if den <= 0:
        return None
    return x * den ** (-1.0 / p)


def reference_sp_parts(x, w_edges, p, eps, n2, edge_count):
    n = x.shape[0]
    num = 0.0
    den = 0.0
    gnum = np.zeros_like(x)
    gden = np.zeros_like(x)
    for i in range(n):
        for j in range(i + 1, n):
            d_ij = x[i] - x[j]
            lam, u = np.linalg.eigh(d_ij @ d_ij.T)
            lam = np.clip(lam, 0.0, None)
            val = float(np.sum((lam + eps) ** (p / 2.0)))
            h = (u * (lam + eps) ** (p / 2.0 - 1.0)) @ u.T
            gd = p * (h @ d_ij)
            wght = float(w_edges[i, j])
            num += wght * val
            den += 2.0 * val
            gnum[i] += wght * gd
            gnum[j] -= wght * gd
            gden[i] += 2.0 * gd
            gden[j] -= 2.0 * gd
    return num / edge_count, den / n2, gnum / edge_count, gden / n2


def reference_normalize_sp(x, p):
    x = x - x.mean(axis=0)
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            s = np.linalg.svd(x[i] - x[j], compute_uv=False)
            total += 2.0 * float(np.sum(s**p))
    den = total / n**2
    if den <= 0:
        return None
    return x * den ** (-1.0 / p)


def reference_pair_distance(f, i: int, j: int) -> float:
    """Target-norm distance ||f(i) - f(j)|| of a VertexEmbedding."""
    diff = f.images[i] - f.images[j]
    if f.target == TARGET_LP:
        return float(np.sum(np.abs(diff) ** f.p) ** (1.0 / f.p))
    s = np.linalg.svd(diff, compute_uv=False)
    return float(np.sum(s**f.p) ** (1.0 / f.p))


def reference_pair_powers(f) -> np.ndarray:
    """Matrix of ||f(i)-f(j)||^p for all ordered pairs."""
    n = f.n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dp = reference_pair_distance(f, i, j) ** f.p
            out[i, j] = out[j, i] = dp
    return out


def reference_embedding_ratio(g, f) -> float:
    dp = reference_pair_powers(f)
    upper = np.triu_indices(g.n, k=1)
    num = float((g.adjacency[upper] * dp[upper]).sum()) / g.edge_count()
    den = float(dp.sum()) / g.n**2
    return (num / den) ** (1.0 / f.p)


def reference_distortion(f, rho):
    """(D, expansion, contraction, expansion pair, contraction pair, offending
    pair) from the first strict maxima in (i, j) row-major order; the first
    coincident pair of metrically distinct points makes D infinite."""
    expansion = 0.0
    contraction = 0.0
    exp_pair = None
    con_pair = None
    for i in range(f.n):
        for j in range(i + 1, f.n):
            r = rho[i, j]
            if r <= 0:
                continue
            delta = reference_pair_distance(f, i, j)
            if delta == 0.0:
                return float("inf"), float("inf"), float("inf"), None, None, (i, j)
            if delta / r > expansion:
                expansion, exp_pair = delta / r, (i, j)
            if r / delta > contraction:
                contraction, con_pair = r / delta, (i, j)
    return expansion * contraction, expansion, contraction, exp_pair, con_pair, None


# ---------------------------------------------------------------------------
# Reference Riemannian objective: two n x n projectors and one n x n eigh of
# the full restriction P B_i (Id - P) per matrix.
# ---------------------------------------------------------------------------


def reference_objective_and_gradient(t, qm, p, epsilon):
    """Smoothed Schatten numerator sum_i sum_l (sigma_l^2 + epsilon)^(p/2)
    over all n singular values of P B_i (Id - P), P = QQ*, and its gradient
    (Riesz representer under Re Tr[A* B]) at an orthonormal basis Q."""
    n = qm.shape[0]
    proj = qm @ qm.conj().T
    comp = np.eye(n) - proj
    value = 0.0
    grad = np.zeros_like(qm)
    for b in t.matrices:
        m = proj @ b @ comp
        lam, u = np.linalg.eigh(m @ m.conj().T)
        lam = np.clip(lam, 0.0, None)
        value += float(np.sum((lam + epsilon) ** (p / 2.0)))
        h = (u * (lam + epsilon) ** (p / 2.0 - 1.0)) @ u.conj().T
        gm = p * (h @ m)
        k_mat = b @ comp @ gm.conj().T - gm.conj().T @ proj @ b
        grad += (k_mat + k_mat.conj().T) @ qm
    return value, grad


def tangent_part(qm, grad):
    """Projection of a Euclidean gradient onto the tangent space of the
    orthonormal-basis manifold at Q."""
    qhg = qm.conj().T @ grad
    return grad - qm @ ((qhg + qhg.conj().T) / 2.0)


# ---------------------------------------------------------------------------
# Reference descent: one start at a time, the loop the lock-step engine
# replaced, and the per-start closures of its two callers.
# ---------------------------------------------------------------------------


def reference_descend(x, value, slope, evaluate, retract, initial_step, grad_tol, max_iters):
    """Armijo descent of one start. ``slope()`` gives the direction at x and
    its squared norm; ``evaluate(y)`` gives the value at y and the slope
    there; ``retract(y)`` gives a feasible point or None. Returns (final
    point, values at every accepted point, stop reason)."""
    trace = [value]
    step = initial_step
    for _ in range(max_iters):
        direction, gnorm2 = slope()
        if np.sqrt(gnorm2) <= grad_tol * max(1.0, abs(value)):
            return x, trace, "grad_tol"
        s = step
        while s > MIN_STEP:
            y = retract(x - s * direction)
            if y is not None:
                v, y_slope = evaluate(y)
                if not np.isfinite(v):
                    raise NumericalFailure("non-finite objective during line search")
                if v <= value - ARMIJO_C1 * s * gnorm2:
                    break
            s *= BACKTRACK
        else:
            return x, trace, "no_step"
        x, value, slope = y, v, y_slope
        step = min(2.0 * s, initial_step)
        trace.append(value)
    return x, trace, "max_iters"


def reference_embedding_descent(g, x, p, max_iters, target):
    """Descent of the smoothed quotient ratio from the one normalized start
    x, with the embedding kernels applied to a stack of that start alone."""
    smoothed, powers = embed._SMOOTHED[target], embed._POWERS[target]
    upper = np.triu(g.adjacency, k=1).astype(np.float64)
    w = upper + upper.T
    n2, edges = g.n * g.n, float(g.edge_count())

    def evaluate(y):
        parts = embed._parts(y[None], w, p, EPSILON, n2, edges, smoothed)
        num, den, gnum, gden = (a[0] for a in parts)

        def slope():
            grad = (gnum - num / den * gden) / den
            return grad, float(np.sum(grad**2))

        return float(num / den), slope

    def retract(y):
        z, ok = embed._normalize(y[None], p, powers)
        return z[0] if ok[0] else None

    value, slope = evaluate(x)
    return reference_descend(x, value, slope, evaluate, retract, 0.5, 1e-9, max_iters)


def reference_best_of_starts(g, inits, p, cfg, target):
    """embed._best_of_starts one candidate at a time: each start normalized
    and descended alone, then the normalized start and its end each wrapped in
    a VertexEmbedding and scored by embedding_ratio, in the order start 0, its
    end, start 1, ...; the first strict minimum wins."""
    best, starts, iterations = None, 0, 0
    for init in inits:
        x, ok = embed._normalize(np.array(init, dtype=np.float64)[None], p, embed._POWERS[target])
        if not ok[0]:
            continue
        x_fin, trace, _ = reference_embedding_descent(g, x[0], p, cfg.max_iters, target)
        starts, iterations = starts + 1, iterations + len(trace) - 1
        for xi in (x[0], x_fin):
            f = VertexEmbedding(xi, target, p)
            value = embedding_ratio(g, f)
            if best is None or value < best.value:
                best = EmbedEstimate(value, f)
    best.starts, best.iterations = starts, iterations
    return best


def reference_subspace_descent(t, q0, p, epsilon, max_iters):
    """Riemannian descent from the one basis q0, with the unstacked objective
    and retraction."""

    def tangent(qm, grad):
        xi = tangent_part(qm, grad)
        return xi, float(np.linalg.norm(xi) ** 2)

    def evaluate(qm):
        def slope():
            return tangent(qm, objective_and_gradient(t, qm, p, epsilon)[1])

        return objective_and_gradient(t, qm, p, epsilon)[0], slope

    def retract(y):
        try:
            return orthonormalize(y)
        except RankDeficient:
            return None

    value, grad = objective_and_gradient(t, q0, p, epsilon)
    return reference_descend(
        q0, value, lambda: tangent(q0, grad), evaluate, retract, 1.0, 1e-8, max_iters
    )


def reference_random_search(t, p, cfg):
    """(value, k, basis) of the random strategy one candidate at a time: a
    Haar draw and a ratio per candidate, the first minimum in (k, j) order."""
    best = None
    for k in cfg.dims(t.n):
        for j in range(cfg.samples):
            q = haar_isometry(t.n, k, substream(cfg.seed, k, j))
            value = expansion_ratio_sp(t, Subspace(q), p).value
            if best is None or value < best[0]:
                best = (value, k, q)
    return best


def reference_sp_smoothed_full(diff, p, eps):
    """The Schatten smoothed terms and gradient with one eigh per ordered
    pair of the block, diagonal included."""
    lam, u = np.linalg.eigh(diff @ diff.swapaxes(-1, -2))
    lam = np.clip(lam, 0.0, None) + eps
    h = (u * (lam ** (p / 2.0 - 1.0))[..., None, :]) @ u.swapaxes(-1, -2)
    return lam ** (p / 2.0), p * (h @ diff)


def reference_sp_powers_full(diff, p):
    """The Schatten p-th power terms with one SVD per ordered pair."""
    return np.linalg.svd(diff, compute_uv=False) ** p

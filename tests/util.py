"""Shared fixtures-in-code for the test suite: small canonical instances and
the independent oracles used to freeze expected values."""

from fractions import Fraction
from itertools import combinations

import numpy as np

from spexp import BistochasticTuple, Subspace, tuple_from_permutations
from spexp.channels import RANK_TOL
from spexp.verify import RATIO_TOL, SINGULAR_TOL


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
# Reference restriction spectra: one compression and one SVD per matrix, and
# the ratio numerators accumulated matrix by matrix.
# ---------------------------------------------------------------------------


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
# Reference verify checkers: each ratio recomputed from its own per-matrix
# spectra, numerator over float(d k), as every checker did per call before
# the sweep shared one spectrum per instance.
# ---------------------------------------------------------------------------


def reference_checks(t, v, p, q, rank_tol: float = RANK_TOL):
    """checker name -> (lhs, rhs, slack, passed) of the four verify checkers."""

    def sp_ratio(r):
        return reference_sp_numerator(t, v, r) / float(t.d * v.k)

    dim_ratio = reference_rank_count(t, v, rank_tol) / float(t.d * v.k)
    rows = {
        "ratio_scaling": (sp_ratio(p), t.d ** ((p - q) / 2.0) * sp_ratio(q), RATIO_TOL),
        "ratio_power": (sp_ratio(q), sp_ratio(p) ** (q / p), RATIO_TOL),
        "singular_bound": (reference_max_singular(t, v), float(np.sqrt(t.d)), SINGULAR_TOL),
        "rank_relation": (sp_ratio(p), t.d ** (p / 2.0) * dim_ratio, RATIO_TOL),
    }
    return {
        name: (lhs, rhs, rhs - lhs, rhs - lhs >= -tol) for name, (lhs, rhs, tol) in rows.items()
    }

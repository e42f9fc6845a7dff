"""The bitmask subset kernel against the reference combinations() sweeps:
identical value bits and witnesses on graphs and permutation tuples, and
agreement to rounding on Haar tuples. Modes sp and dim read the kernel only
on 0/1 partial-permutation tuples; the tuples just outside that gate must
give the reference's singular-value results."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spexp import (
    BistochasticTuple,
    build_complete,
    build_cycle,
    build_hypercube,
    cut_oracle_l1,
    decompose_permutations,
    edge_expansion_bruteforce,
    expansion_ratio_sp,
    is_connected,
    minimize_coordinate,
    quantum_edge_ratio,
    random_regular,
    random_unitary_tuple,
    tuple_from_permutations,
)
from spexp import channels, linalg
from spexp.channels import RANK_TOL, rank_numerator, sp_numerator
from spexp.errors import DisconnectedGraph
from spexp.graphs import RegularGraph

from util import reference_coordinate, reference_cut_oracle_l1, reference_edge_expansion

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**31 - 1)


@st.composite
def random_graphs(draw):
    """Symmetric d-regular multigraphs; loops and parallel edges allowed."""
    n = draw(st.integers(2, 12))
    return random_regular(n, draw(st.integers(1, 6)), draw(SEEDS))


@st.composite
def tied_graphs(draw):
    """Families with many equal ratios: cycles, complete graphs, hypercubes,
    all-loop graphs, and cycles with every vertex given extra loops."""
    kind = draw(st.sampled_from(["cycle", "complete", "hypercube", "loops", "looped-cycle"]))
    if kind == "hypercube":
        return build_hypercube(draw(st.integers(1, 3)))
    n = draw(st.integers(3 if "cycle" in kind else 2, 12))
    if kind == "cycle":
        return build_cycle(n)
    if kind == "complete":
        return build_complete(n)
    loops = draw(st.integers(1, 3))
    if kind == "loops":
        return RegularGraph(n, loops, loops * np.eye(n, dtype=np.int64))
    cycle = build_cycle(n)
    return RegularGraph(n, 2 + loops, cycle.adjacency + loops * np.eye(n, dtype=np.int64))


@st.composite
def directed_permutation_tuples(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(SEEDS))
    return tuple_from_permutations([rng.permutation(n).tolist() for _ in range(draw(st.integers(1, 4)))])


@st.composite
def partial_permutation_tuples(draw):
    """d = 1 tuples of one 0/1 partial permutation with at least one row and
    one column without a one: not bistochastic, so the weight leaving W
    differs from the weight entering it."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(SEEDS))
    cols = np.flatnonzero(rng.random(n) < 0.7)[: n - 1]
    m = np.zeros((n, n))
    m[rng.permutation(n)[: len(cols)], cols] = 1.0
    return BistochasticTuple((m,))


@st.composite
def crowded_zero_one_tuples(draw, kind):
    """0/1 tuples with two ones in some row or column. "rows": two members
    that send the columns two at a time to one row, the first to rows
    r(0), r(1), ... and the second to r(n-1), r(n-2), ..., so that no column
    holds two ones but most rows do; "columns": their transposes; "ones": the
    all-ones matrix next to a permutation matrix."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(SEEDS))
    if kind == "ones":
        return BistochasticTuple((np.ones((n, n)), np.eye(n)[rng.permutation(n)]))
    rows, cols = rng.permutation(n), rng.permutation(n)
    first, second = np.zeros((n, n)), np.zeros((n, n))
    first[rows[np.arange(n) // 2], cols] = 1.0
    second[rows[::-1][np.arange(n) // 2], cols] = 1.0
    return BistochasticTuple((first, second) if kind == "rows" else (first.T, second.T))


@st.composite
def rotated_permutation_tuples(draw, max_n=8, mixed=True):
    """One or two pairs (cos a P1 + sin a P2, -sin a P1 + cos a P2) of mixed
    permutation matrices, bistochastic with entries other than 0 and 1; with
    ``mixed`` False the monomial pairs (cos a P1, sin a P2)."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(SEEDS))
    mats = []
    for _ in range(draw(st.integers(1, 2))):
        p1, p2 = tuple_from_permutations([rng.permutation(n).tolist() for _ in range(2)]).matrices
        a = draw(st.floats(0.05, 1.5))
        c, s = np.cos(a), np.sin(a)
        mats += [c * p1 + s * p2, -s * p1 + c * p2] if mixed else [c * p1, s * p2]
    return BistochasticTuple(tuple(mats))


GRAPHS = st.one_of(random_graphs(), tied_graphs())
GATE_EDGES = {
    "partial": partial_permutation_tuples(),
    "rows": crowded_zero_one_tuples("rows"),
    "columns": crowded_zero_one_tuples("columns"),
    "ones": crowded_zero_one_tuples("ones"),
    "rotated": rotated_permutation_tuples(),
    "monomial": rotated_permutation_tuples(mixed=False),
}


def _same_estimate(est, reference):
    value, witness, evaluated = reference
    assert (repr(est.value), est.subset, est.samples_used) == (repr(value), witness, evaluated)
    assert est.k == len(witness)


@SETTINGS
@given(GRAPHS)
def test_graph_sweeps_match_reference(g):
    assert repr(edge_expansion_bruteforce(g)) == repr(reference_edge_expansion(g))
    if is_connected(g):
        assert repr(cut_oracle_l1(g)) == repr(reference_cut_oracle_l1(g))
    else:
        with pytest.raises(DisconnectedGraph):
            cut_oracle_l1(g)


@SETTINGS
@given(GRAPHS)
def test_boundary_mode_matches_reference_on_graph_tuples(g):
    t = tuple_from_permutations(decompose_permutations(g))
    est = minimize_coordinate(t, 2.0, mode="Q")
    _same_estimate(est, reference_coordinate(t, 2.0, "Q"))
    assert est.value == edge_expansion_bruteforce(g)[0]


@SETTINGS
@given(directed_permutation_tuples())
def test_boundary_mode_matches_reference_on_directed_tuples(t):
    _same_estimate(minimize_coordinate(t, 2.0, mode="Q"), reference_coordinate(t, 2.0, "Q"))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(directed_permutation_tuples(max_n=8), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_spectral_modes_match_reference_on_directed_tuples(t, p):
    _same_estimate(minimize_coordinate(t, p, mode="sp"), reference_coordinate(t, p, "sp"))
    _same_estimate(minimize_coordinate(t, p, mode="dim"), reference_coordinate(t, p, "dim"))


@pytest.mark.parametrize("edge", list(GATE_EDGES))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(p=st.sampled_from([1.0, 1.5, 3.0]), data=st.data())
def test_spectral_modes_match_reference_at_the_table_gate(edge, p, data):
    # partial permutations must read the table transposed; two ones in a row
    # or a column, or entries other than 0 and 1, must take the SVD
    t = data.draw(GATE_EDGES[edge])
    _same_estimate(minimize_coordinate(t, p, mode="sp"), reference_coordinate(t, p, "sp"))
    _same_estimate(minimize_coordinate(t, p, mode="dim"), reference_coordinate(t, p, "dim"))


@pytest.mark.parametrize("rank_tol", [0.4, 0.6])
def test_dim_mode_threshold_on_permutation_tuple(monkeypatch, rank_tol):
    # d = 4: the threshold RANK_TOL sqrt(d) is 0.8, below every one, or 1.2,
    # above all of them, where every ratio is 0 and [0] is the witness
    monkeypatch.setattr(channels, "RANK_TOL", rank_tol)
    rng = np.random.default_rng(3)
    t = tuple_from_permutations([rng.permutation(10).tolist() for _ in range(4)])
    est = minimize_coordinate(t, 2.0, mode="dim")
    _same_estimate(est, reference_coordinate(t, 2.0, "dim", rank_tol))
    if rank_tol == 0.6:
        assert (est.value, est.subset) == (0.0, [0])
    else:
        assert est.value > 0.0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.integers(1, 4), SEEDS, st.floats(1.0, 6.0))
def test_spectral_modes_match_reference_on_haar_tuples(n, d, seed, p):
    t = random_unitary_tuple(n, d, seed)
    _same_estimate(minimize_coordinate(t, p, mode="sp"), reference_coordinate(t, p, "sp"))
    _same_estimate(minimize_coordinate(t, p, mode="dim"), reference_coordinate(t, p, "dim"))


@SETTINGS
@given(st.integers(2, 10), st.integers(1, 4), SEEDS)
def test_boundary_mode_on_haar_tuples(n, d, seed):
    # |W| = n/2 sets tie their complements in exact arithmetic, so rounding
    # may pick either witness: compare values, and recompute at the witness
    t = random_unitary_tuple(n, d, seed)
    est = minimize_coordinate(t, 2.0, mode="Q")
    value, _, evaluated = reference_coordinate(t, 2.0, "Q")
    assert est.samples_used == evaluated
    assert abs(est.value - value) <= 1e-12 * value
    assert abs(quantum_edge_ratio(t, est.witness).value - est.value) <= 1e-12 * est.value


def _block_budget(kind, n, d):
    """1 puts one subset in each batched SVD; "uneven" makes the size class
    |W| = n/2 split into blocks of C(n, n/2) - 1 subsets and one subset."""
    if kind == 1:
        return 1
    k = n // 2
    return max(1, comb(n, k) - 1) * d * k * (n - k)


BUDGETS = st.sampled_from([1, "uneven"])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(directed_permutation_tuples(max_n=9), st.sampled_from([1.0, 1.5, 3.0]), BUDGETS)
def test_spectral_modes_match_reference_across_blocks_on_directed_tuples(t, p, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "BATCH_ENTRIES", _block_budget(budget, t.n, t.d))
        for mode in ("sp", "dim"):
            _same_estimate(minimize_coordinate(t, p, mode=mode), reference_coordinate(t, p, mode))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rotated_permutation_tuples(max_n=9), st.sampled_from([1.0, 1.5, 3.0]), BUDGETS)
def test_spectral_modes_match_reference_across_blocks_on_rotated_tuples(t, p, budget):
    # permutation tuples read the table, so the blocking is checked here on
    # structured tuples that take the SVD: mixed permutations keep the exact
    # zeros of a permutation tuple
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "BATCH_ENTRIES", _block_budget(budget, t.n, t.d))
        for mode in ("sp", "dim"):
            _same_estimate(minimize_coordinate(t, p, mode=mode), reference_coordinate(t, p, mode))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(2, 9), st.integers(1, 5), SEEDS, st.floats(1.0, 6.0), BUDGETS)
def test_spectral_modes_match_reference_across_blocks_on_haar_tuples(n, d, seed, p, budget):
    t = random_unitary_tuple(n, d, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "BATCH_ENTRIES", _block_budget(budget, n, d))
        for mode in ("sp", "dim"):
            _same_estimate(minimize_coordinate(t, p, mode=mode), reference_coordinate(t, p, mode))


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 6), SEEDS, st.floats(1.0, 4.0))
def test_batched_reductions_equal_per_spectrum_calls(stack, d, r, seed, p):
    stack += stack == d  # a stack size equal to d would hide a swapped axis
    rng = np.random.default_rng(seed)
    s = rng.random((stack, d, r)) * np.sqrt(d)
    s[rng.random(s.shape) < 0.3] = 0.0  # exact zeros, as rank-deficient blocks give
    s[rng.random(s.shape) < 0.2] = RANK_TOL * np.sqrt(d)  # at the threshold: not counted
    sp, rank = sp_numerator(s, p), rank_numerator(s)
    assert sp.shape == rank.shape == (stack,)
    for i in range(stack):
        assert repr(float(sp[i])) == repr(sp_numerator(s[i], p))
        assert int(rank[i]) == rank_numerator(s[i])
    assert type(sp_numerator(s[0], p)) is float and type(rank_numerator(s[0])) is int


@SETTINGS
@given(GRAPHS, st.floats(1.0, 4.0))
def test_spectral_modes_recover_edge_expansion_on_graph_tuples(g, p):
    # every B_i[W, complement] block of a permutation tuple is a partial
    # permutation: its rank is its number of ones, and each nonzero singular
    # value is 1, exactly in the sweep and up to rounding in an SVD
    t = tuple_from_permutations(decompose_permutations(g))
    h, witness = edge_expansion_bruteforce(g)
    dim = minimize_coordinate(t, p, mode="dim")
    assert (repr(dim.value), dim.subset) == (repr(h), witness)
    sp = minimize_coordinate(t, p, mode="sp")
    assert (repr(sp.value), sp.subset) == (repr(h), witness)
    assert abs(expansion_ratio_sp(t, sp.witness, p).value - h) <= 1e-12 * h
    outside = [j for j in range(g.n) if j not in sp.subset]
    assert g.adjacency[np.ix_(outside, sp.subset)].sum() / (g.d * len(sp.subset)) == h


@pytest.mark.parametrize("n", range(10, 19))
def test_spectral_modes_equal_edge_expansion_on_4_regular_graphs(n):
    g = random_regular(n, 4, n)
    h, witness = edge_expansion_bruteforce(g)
    t = tuple_from_permutations(decompose_permutations(g))
    for mode, p in [("dim", 2.0), ("sp", 1.0), ("sp", 1.5), ("sp", 2.0), ("sp", 3.0)]:
        est = minimize_coordinate(t, p, mode=mode)
        assert (repr(est.value), est.subset) == (repr(h), witness)

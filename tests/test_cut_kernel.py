"""The bitmask subset kernel against the reference combinations() sweeps:
identical value bits and witnesses on graphs and permutation tuples, and
agreement to rounding on Haar tuples."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spexp import (
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
from spexp import search
from spexp.channels import rank_numerator, sp_numerator
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


GRAPHS = st.one_of(random_graphs(), tied_graphs())


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
        mp.setattr(search, "_BLOCK_ENTRIES", _block_budget(budget, t.n, t.d))
        for mode in ("sp", "dim"):
            _same_estimate(minimize_coordinate(t, p, mode=mode), reference_coordinate(t, p, mode))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(2, 9), st.integers(1, 5), SEEDS, st.floats(1.0, 6.0), BUDGETS)
def test_spectral_modes_match_reference_across_blocks_on_haar_tuples(n, d, seed, p, budget):
    t = random_unitary_tuple(n, d, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_BLOCK_ENTRIES", _block_budget(budget, n, d))
        for mode in ("sp", "dim"):
            _same_estimate(minimize_coordinate(t, p, mode=mode), reference_coordinate(t, p, mode))


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 6), SEEDS, st.floats(1.0, 4.0))
def test_batched_reductions_equal_per_spectrum_calls(stack, d, r, seed, p):
    stack += stack == d  # a stack size equal to d would hide a swapped axis
    rng = np.random.default_rng(seed)
    s = rng.random((stack, d, r)) * np.sqrt(d)
    s[rng.random(s.shape) < 0.3] = 0.0  # exact zeros, as rank-deficient blocks give
    rank_tol = 1e-8
    s[rng.random(s.shape) < 0.2] = rank_tol * np.sqrt(d)  # at the threshold: not counted
    sp, rank = sp_numerator(s, p), rank_numerator(s, rank_tol)
    assert sp.shape == rank.shape == (stack,)
    for i in range(stack):
        assert repr(float(sp[i])) == repr(sp_numerator(s[i], p))
        assert int(rank[i]) == rank_numerator(s[i], rank_tol)
    assert type(sp_numerator(s[0], p)) is float and type(rank_numerator(s[0], rank_tol)) is int


@SETTINGS
@given(GRAPHS, st.floats(1.0, 4.0))
def test_spectral_modes_recover_edge_expansion_on_graph_tuples(g, p):
    # every B_i[W, complement] block of a permutation tuple is a partial
    # permutation: its rank is its number of ones, and each nonzero singular
    # value is 1 up to rounding
    t = tuple_from_permutations(decompose_permutations(g))
    h, witness = edge_expansion_bruteforce(g)
    dim = minimize_coordinate(t, p, mode="dim")
    assert (repr(dim.value), dim.subset) == (repr(h), witness)
    sp = minimize_coordinate(t, p, mode="sp")
    assert abs(sp.value - h) <= 1e-12 * h
    assert abs(expansion_ratio_sp(t, sp.witness, p).value - h) <= 1e-12 * h
    outside = [j for j in range(g.n) if j not in sp.subset]
    assert g.adjacency[np.ix_(outside, sp.subset)].sum() / (g.d * len(sp.subset)) == h

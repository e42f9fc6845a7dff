"""The stacked pair-difference kernels of the embedding estimators against the
reference versions in util.py: identical bits for the l_p objective and
normalization, agreement to rounding for the Schatten objective and
normalization, and for the embedding ratio and distortion of both targets,
whose reported pairs are identical. The Schatten kernel decomposes each
unordered pair once and mirrors it; it gives the bits of the kernel that
decomposes every ordered pair."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spexp import VertexEmbedding, distortion, embedding_ratio, random_regular
from spexp import embed
from spexp.embed import EPSILON, TARGET_LP, TARGET_SP

from util import (
    reference_distortion,
    reference_embedding_ratio,
    reference_lp_parts,
    reference_normalize_lp,
    reference_normalize_sp,
    reference_sp_parts,
    reference_sp_powers_full,
    reference_sp_smoothed_full,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**31 - 1)
REL = 1e-12


@st.composite
def cases(draw, targets=(TARGET_LP, TARGET_SP)):
    """(graph, images, p, target): a random regular graph on n vertices and
    n Gaussian images, some of them copies of earlier ones."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 4))
    p = draw(st.floats(1.0, 4.0))
    target = draw(st.sampled_from(targets))
    rng = np.random.default_rng(draw(SEEDS))
    x = rng.standard_normal((n, m) if target == TARGET_LP else (n, m, m))
    # images 0 and 1 stay distinct, so the pair average never vanishes
    copies = draw(st.sampled_from([0.0, 0.3]))
    for i in range(2, n):
        if rng.random() < copies:
            x[i] = x[rng.integers(0, i)]
    g = random_regular(n, draw(st.integers(1, 6)), draw(SEEDS))
    return g, x, p, target


def _objective_inputs(g):
    w = g.adjacency.astype(np.float64).copy()
    np.fill_diagonal(w, 0.0)
    return w, float(g.n * g.n), float(g.edge_count())


def _close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b)) <= REL * max(1.0, float(np.max(np.abs(b))))


def _parts(x, p, target, w, n2, edges):
    """The objective parts of the single start x, as a stack of one."""
    parts = embed._parts(x[None], w, p, EPSILON, n2, edges, embed._SMOOTHED[target])
    return tuple(a[0] for a in parts)


def _normalize(x, p, powers):
    z, ok = embed._normalize(x[None], p, powers)
    return z[0] if ok[0] else None


@SETTINGS
@given(cases(targets=(TARGET_LP,)))
def test_lp_parts_and_normalize_keep_their_bits(case):
    g, x, p, _ = case
    w, n2, edges = _objective_inputs(g)
    got = _parts(x, p, TARGET_LP, w, n2, edges)
    want = reference_lp_parts(x, w, p, EPSILON, n2, edges)
    assert got[0] == want[0] and got[1] == want[1]
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])
    normalized = _normalize(x, p, embed._lp_powers)
    assert np.array_equal(normalized, reference_normalize_lp(x, p))


@pytest.mark.parametrize("shape", [(0, 5, 2), (0, 5, 2, 2)])
def test_parts_and_normalize_of_an_empty_stack(shape):
    # a line-search round whose every trial fails to normalize evaluates no start
    g = random_regular(5, 2, 0)
    w, n2, edges = _objective_inputs(g)
    target = TARGET_LP if len(shape) == 3 else TARGET_SP
    smoothed, powers = embed._SMOOTHED[target], embed._POWERS[target]
    num, den, gnum, gden = embed._parts(np.zeros(shape), w, 1.5, EPSILON, n2, edges, smoothed)
    assert num.shape == den.shape == (0,) and gnum.shape == gden.shape == shape
    x, ok = embed._normalize(np.zeros(shape), 1.5, powers)
    assert x.shape == shape and ok.shape == (0,)


def test_lp_parts_and_normalize_keep_their_bits_across_row_blocks():
    # 600 x 600 x 12 differences exceed one block of 2^22 entries
    rng = np.random.default_rng(5)
    g = random_regular(600, 4, 5)
    x = rng.standard_normal((600, 12))
    w, n2, edges = _objective_inputs(g)
    assert len(list(embed._pair_blocks(x[None]))) == 2
    got = _parts(x, 1.5, TARGET_LP, w, n2, edges)
    want = reference_lp_parts(x, w, 1.5, EPSILON, n2, edges)
    assert got[:2] == want[:2]
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])
    normalized = _normalize(x, 3.0, embed._lp_powers)
    assert np.array_equal(normalized, reference_normalize_lp(x, 3.0))


@SETTINGS
@given(cases(targets=(TARGET_SP,)))
def test_sp_parts_and_normalize_match_the_pair_loops(case):
    g, x, p, _ = case
    w, n2, edges = _objective_inputs(g)
    got = _parts(x, p, TARGET_SP, w, n2, edges)
    want = reference_sp_parts(x, w, p, EPSILON, n2, edges)
    for a, b in zip(got, want):
        assert _close(a, b)
    assert _close(_normalize(x, p, embed._sp_powers), reference_normalize_sp(x, p))


@SETTINGS
@given(cases(targets=(TARGET_SP,)), st.integers(1, 3), st.sampled_from([None, 50, 300]))
def test_mirrored_sp_kernel_equals_the_full_pair_kernel(case, starts, entries):
    # entries=50 or 300: row blocks, so pairs j < lo of a block are decomposed directly
    g, x, p, _ = case
    stack = np.stack([x * (1.0 + 0.5 * s) for s in range(starts)])
    w, n2, edges = _objective_inputs(g)

    def full(diff, lo, p, eps):
        return reference_sp_smoothed_full(diff, p, eps)

    with pytest.MonkeyPatch.context() as mp:
        if entries is not None:
            mp.setattr(embed, "_PAIR_ENTRIES", entries)
        got = embed._parts(stack, w, p, EPSILON, n2, edges, embed._sp_smoothed)
        want = embed._parts(stack, w, p, EPSILON, n2, edges, full)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        for _, _, lo, _, diff in embed._pair_blocks(stack):
            assert np.array_equal(embed._sp_powers(diff, lo, p), reference_sp_powers_full(diff, p))


@SETTINGS
@given(cases(), st.integers(1, 4), st.sampled_from([None, 50, 300]))
def test_pair_powers_of_a_stack_equal_one_start_calls(case, starts, entries):
    # entries=50 or 300: row blocks, and blocks that hold some of the starts
    _, x, p, target = case
    stack = np.stack([x * (1.0 + 0.5 * s) for s in range(starts)])
    with pytest.MonkeyPatch.context() as mp:
        if entries is not None:
            mp.setattr(embed, "_PAIR_ENTRIES", entries)
        got = embed._pair_powers(stack, target, p)
        assert got.shape == (starts, len(x), len(x))
        for s in range(starts):
            assert np.array_equal(got[s], embed._pair_powers(stack[s : s + 1], target, p)[0])


@SETTINGS
@given(cases())
def test_embedding_ratio_matches_the_pair_loop(case):
    g, x, p, target = case
    f = VertexEmbedding(list(x), target, p)
    assert embedding_ratio(g, f) == pytest.approx(reference_embedding_ratio(g, f), rel=REL)


@SETTINGS
@given(cases(), SEEDS)
def test_distortion_matches_the_pair_loop(case, metric_seed):
    # integer distances, zeros off the diagonal included: skipped pairs and
    # ties. On odd seeds distances are 0 or 1 and every coincident pair is at
    # distance 0, so copied images tie for the largest finite ratios.
    g, x, p, target = case
    n = g.n
    top = 2 if metric_seed % 2 else 4
    r = np.triu(np.random.default_rng(metric_seed).integers(0, top, (n, n)), k=1)
    if metric_seed % 2:
        r[np.all(x[:, None] == x[None, :], axis=tuple(range(2, x.ndim + 1)))] = 0
    rho = r + r.T
    f = VertexEmbedding(list(x), target, p)
    got = distortion(f, rho)
    d, expansion, contraction, exp_pair, con_pair, offending = reference_distortion(f, rho)
    assert got.infinite == (offending is not None)
    assert got.offending_pair == offending
    assert got.expansion_pair == exp_pair and got.contraction_pair == con_pair
    for a, b in ((got.D, d), (got.expansion, expansion), (got.contraction, contraction)):
        assert a == b or a == pytest.approx(b, rel=REL)


@pytest.mark.parametrize("target", [TARGET_LP, TARGET_SP])
def test_distortion_ties_go_to_the_first_pair(target):
    # images a, b, a, b with the coincident pairs at distance 0: the four
    # other pairs tie for both ratios, and (0, 1) comes first
    shape = (1,) if target == TARGET_LP else (1, 1)
    x = [np.full(shape, v) for v in (0.0, 1.0, 0.0, 1.0)]
    r = np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64)
    r[0, 2] = r[2, 0] = r[1, 3] = r[3, 1] = 0
    report = distortion(VertexEmbedding(x, target, 1.5), r)
    assert report.expansion_pair == report.contraction_pair == (0, 1)
    assert report.D == 1.0 and not report.infinite


@pytest.mark.parametrize("target, shape", [(TARGET_LP, (8, 3)), (TARGET_SP, (8, 2, 2))])
def test_objective_is_the_reported_ratio(target, shape):
    # the descent weighs pairs by the adjacency, loops included; the smoothed
    # objective at p = 2 must be embedding_ratio squared, up to the smoothing
    g = random_regular(8, 4, 3)
    assert np.trace(g.adjacency) > 0
    x = np.random.default_rng(4).standard_normal(shape)
    _, (trace,) = embed._descend_embedding(g, x[None], 2.0, 1, target)
    ratio = embedding_ratio(g, VertexEmbedding(list(x), target, 2.0))
    assert trace[0] == pytest.approx(ratio**2, rel=1e-8)

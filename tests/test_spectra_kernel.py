"""The batched restriction-spectrum kernel, its Schatten and rank reductions
and the verify instance check that reduces one spectrum, against per-matrix
reference loops: identical bits on Haar tuples with Haar subspaces and on
permutation tuples with coordinate subspaces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spexp import (
    BistochasticTuple,
    Subspace,
    SweepConfig,
    expansion_ratio_dim,
    expansion_ratio_sp,
    quantum_edge_ratio,
    random_unitary_tuple,
    restriction_singular_values,
    tuple_from_permutations,
)
from spexp import verify
from spexp.errors import InvalidMatrix, ShapeMismatch

from util import (
    reference_checks,
    reference_max_singular,
    reference_rank_count,
    reference_sp_numerator,
    reference_spectrum,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**31 - 1)


@st.composite
def haar_instances(draw):
    n = draw(st.integers(2, 40))
    t = random_unitary_tuple(n, draw(st.integers(1, 5)), draw(SEEDS))
    return t, Subspace.haar(n, draw(st.integers(1, n // 2)), draw(SEEDS))


@st.composite
def permutation_instances(draw):
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(SEEDS))
    t = tuple_from_permutations([rng.permutation(n).tolist() for _ in range(draw(st.integers(1, 5)))])
    k = draw(st.integers(1, n // 2))
    return t, Subspace.coordinate(n, rng.choice(n, k, replace=False))


INSTANCES = st.one_of(haar_instances(), permutation_instances())


@SETTINGS
@given(INSTANCES, st.floats(1.0, 6.0))
def test_ratios_equal_per_matrix_reference(instance, p):
    t, v = instance
    num = reference_sp_numerator(t, v, p)
    sp = expansion_ratio_sp(t, v, p)
    assert (sp.numerator, sp.value) == (num, num / (t.d * v.k))
    assert expansion_ratio_dim(t, v).numerator == reference_rank_count(t, v)
    s = restriction_singular_values(t.matrices, v)
    assert verify._check_instance({"p": p, "q": p}, s)[2].lhs == reference_max_singular(t, v)


@SETTINGS
@given(INSTANCES)
def test_stack_rows_equal_single_matrix_spectra(instance):
    t, v = instance
    batched = restriction_singular_values(t.matrices, v)
    assert batched.shape == (t.d, v.k)
    for i, b in enumerate(t.matrices):
        single = restriction_singular_values(b, v)
        assert batched[i].tobytes() == single.tobytes() == reference_spectrum(b, v).tobytes()


def _fields(reports):
    return {r.checker: (r.lhs, r.rhs, r.slack, r.passed) for r in reports}


@SETTINGS
@given(SEEDS, st.integers(0, 10**6))
def test_sweep_instance_reports_equal_reference_checkers(seed, index):
    cfg = SweepConfig(instances=index + 1, seed=seed)
    t, v, p, q, _ = verify._draw_instance(cfg, index)
    drawn = verify._draw(cfg, index)
    [s] = verify._spectra([drawn])
    assert _fields(verify._check_instance(drawn[0], s)) == reference_checks(t, v, p, q)


@SETTINGS
@given(permutation_instances(), st.floats(1.0, 6.0), st.floats(1.0, 6.0))
def test_checkers_on_coordinate_subspaces_equal_reference(instance, a, b):
    # every restriction singular value is 0 or 1: the zero-slack equality cases
    t, v = instance
    p, q = max(a, b), min(a, b)
    s = restriction_singular_values(t.matrices, v)
    assert _fields(verify._check_instance({"p": p, "q": q}, s)) == reference_checks(t, v, p, q)


def test_tuple_is_one_read_only_stack():
    members = [np.eye(3), np.roll(np.eye(3), 1, axis=0)]
    t = BistochasticTuple(members)
    assert t.matrices.shape == (2, 3, 3) and t.matrices.dtype == np.complex128
    assert (t.n, t.d, len(t.matrices)) == (3, 2, 2)
    members[0][0, 0] = 5.0  # the tuple holds its own copy
    assert [m.tolist() for m in t.matrices] == [np.eye(3).tolist(), np.roll(np.eye(3), 1, axis=0).tolist()]
    with pytest.raises(ValueError):
        t.matrices[1][0, 0] = 2.0


def test_stack_input_errors():
    t = random_unitary_tuple(6, 3, 0)
    v = Subspace.haar(6, 2, 1)
    bad = np.array(t.matrices)
    bad[1, 2, 3] = np.nan
    with pytest.raises(InvalidMatrix):
        restriction_singular_values(bad, v)
    with pytest.raises(InvalidMatrix):
        restriction_singular_values(t.matrices[None], v)
    with pytest.raises(ShapeMismatch):
        restriction_singular_values(random_unitary_tuple(8, 3, 0).matrices, v)


@st.composite
def mixed_instances(draw):
    """Haar or permutation tuples, n 2-24, with a Haar or a coordinate
    subspace of dimension k <= n/2."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(SEEDS))
    if draw(st.booleans()):
        t = random_unitary_tuple(n, d, draw(SEEDS))
    else:
        t = tuple_from_permutations([rng.permutation(n).tolist() for _ in range(d)])
    k = draw(st.integers(1, n // 2))
    if draw(st.booleans()):
        return t, Subspace.haar(n, k, draw(SEEDS))
    return t, Subspace.coordinate(n, rng.choice(n, k, replace=False))


@SETTINGS
@given(mixed_instances())
def test_boundary_ratio_equals_schatten_two_ratio(instance):
    # sum_i ||(Id - P) B_i P||_F^2 against sum_i ||P B_i (Id - P)||_F^2:
    # equal on a bistochastic tuple, which is why mode Q and mode sp at p = 2
    # of the coordinate sweep agree on one
    t, v = instance
    q, s2 = quantum_edge_ratio(t, v).value, expansion_ratio_sp(t, v, 2.0).value
    assert abs(q - s2) <= 1e-12 * max(abs(q), abs(s2))

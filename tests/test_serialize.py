"""JSON file format round-trips and schema errors."""

import numpy as np
import pytest

from spexp import (
    Subspace,
    VertexEmbedding,
    build_hypercube,
    minimize_coordinate,
    random_unitary_tuple,
)
from spexp.embed import TARGET_LP, TARGET_SP
from spexp.errors import InvalidMatrix, InvalidParameters, InvalidPermutation
from spexp.serialize import (
    dumps_canonical,
    embedding_from_json,
    embedding_to_json,
    estimate_to_json,
    graph_from_json,
    graph_to_json,
    matrix_from_json,
    matrix_to_json,
    permutations_from_json,
    permutations_to_json,
    tuple_from_json,
    tuple_to_json,
)

from util import cycle_tuple, random_complex


def test_matrix_roundtrip():
    rng = np.random.default_rng(1)
    m = random_complex(rng, 3, 5)
    again = matrix_from_json(matrix_to_json(m))
    np.testing.assert_array_equal(m, again)


def test_matrix_rejects_bad_entry_count():
    with pytest.raises(InvalidMatrix):
        matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})


def test_matrix_shape_must_be_nonnegative_integers():
    # a cast would read 0.5 x 2 as an empty 0 x 2 matrix, and (-1, -1) or
    # (-2, -2) match the entry counts of one or four entries
    for rows, cols, size in [(-1, -1, 1), (-2, -2, 4), (0.5, 2, 0), (True, 1, 1), ("1", 1, 1),
                             (float("inf"), 1, 1)]:
        with pytest.raises(InvalidMatrix):
            matrix_from_json({"rows": rows, "cols": cols, "re": [1.0] * size, "im": [0.0] * size})
    m = matrix_from_json({"rows": 1.0, "cols": 2.0, "re": [1.0, 2.0], "im": [0.0, 3.0]})
    np.testing.assert_array_equal(m, [[1.0, 2.0 + 3.0j]])


def test_entries_flags_and_exponents_must_be_json_types():
    # a float cast would read each of these as the number 1, 0 or 2
    for re in ([True, False], ["1", "0"], [None, 0.0], [[1.0], [0.0, 1.0]]):
        with pytest.raises(InvalidMatrix, match="must be numbers"):
            matrix_from_json({"rows": 1, "cols": 2, "re": re, "im": [0.0, 0.0]})
    with pytest.raises(InvalidMatrix, match="im must be numbers"):
        matrix_from_json({"rows": 1, "cols": 2, "re": [1.0, 0.0], "im": [False, 0.0]})
    with pytest.raises(InvalidMatrix, match="malformed"):  # an integer beyond float64
        matrix_from_json({"rows": 1, "cols": 2, "re": [10**400, 0.0], "im": [0.0, 0.0]})
    images = [[0.0, 1.0], [2.0, 3.0]]
    for p, imgs in (("2", images), (True, images), (2.0, [[0.0, True], [2.0, 3.0]])):
        with pytest.raises(InvalidParameters, match="must be numbers"):
            embedding_from_json({"target": TARGET_LP, "p": p, "images": imgs})
    for p in ([2.0], 10**400):
        with pytest.raises(InvalidParameters, match="malformed embedding"):
            embedding_from_json({"target": TARGET_LP, "p": p, "images": images})
    directed = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    with pytest.raises(InvalidParameters, match="symmetric must be a boolean"):
        graph_from_json({"n": 3, "d": 1, "symmetric": "false", "adjacency": directed})
    assert not graph_from_json({"n": 3, "d": 1, "symmetric": False, "adjacency": directed}).symmetric
    assert graph_from_json({"n": 2, "d": 1, "adjacency": [[0, 1], [1, 0]]}).symmetric is True


def test_tuple_roundtrip():
    t = random_unitary_tuple(4, 3, seed=9)
    again = tuple_from_json(tuple_to_json(t))
    assert again.n == 4 and again.d == 3
    for a, b in zip(t.matrices, again.matrices):
        np.testing.assert_array_equal(a, b)


def test_tuple_rejects_inconsistent_header():
    doc = tuple_to_json(cycle_tuple(4))
    doc["d"] = 5
    with pytest.raises(InvalidParameters):
        tuple_from_json(doc)


def test_graph_roundtrip():
    g = build_hypercube(3)
    again = graph_from_json(graph_to_json(g))
    np.testing.assert_array_equal(g.adjacency, again.adjacency)
    assert again.d == 3 and again.symmetric


def test_permutations_roundtrip():
    perms = [[1, 2, 0], [2, 0, 1]]
    doc = permutations_to_json(perms)
    assert doc["n"] == 3 and doc["d"] == 2
    assert permutations_from_json(doc) == perms


def test_graph_and_permutations_refuse_non_integral_entries():
    with pytest.raises(InvalidParameters, match="must be integers"):
        graph_from_json({"n": 2, "d": 1, "adjacency": [[0, 1.9], [1.9, 0]]})
    with pytest.raises(InvalidParameters, match="must be integers"):
        graph_from_json({"n": 2, "d": 1.5, "adjacency": [[0, 1], [1, 0]]})
    for bad in (0.5, True, "a"):
        with pytest.raises(InvalidPermutation):
            permutations_from_json({"permutations": [[bad, 1, 2]]})
    with pytest.raises(InvalidParameters, match="must be integers"):
        tuple_from_json({"n": 3.5, "matrices": tuple_to_json(cycle_tuple(3))["matrices"]})


def test_embedding_roundtrip_both_targets():
    f_lp = VertexEmbedding([np.array([0.0, 1.0]), np.array([2.0, 3.0])], TARGET_LP, 1.5)
    again = embedding_from_json(embedding_to_json(f_lp))
    assert again.target == TARGET_LP and again.p == 1.5
    assert isinstance(again.images, np.ndarray) and again.images.shape == (2, 2)
    np.testing.assert_array_equal(again.images[1], [2.0, 3.0])

    f_sp = VertexEmbedding([np.eye(2), np.zeros((2, 2))], TARGET_SP, 2.0)
    again_sp = embedding_from_json(embedding_to_json(f_sp))
    assert again_sp.target == TARGET_SP and again_sp.images.shape == (2, 2, 2)
    np.testing.assert_array_equal(again_sp.images[0], np.eye(2))


def test_embedding_declared_sizes_must_match_the_images():
    images = [[0.0, 1.0], [2.0, 3.0]]
    for declared in ({"n": 5, "m": 7}, {"n": 5}, {"m": 7}, {"n": 2, "m": 3}, {"n": 2.5}):
        with pytest.raises(InvalidParameters):
            embedding_from_json({"target": TARGET_LP, "p": 2, "images": images, **declared})
    sp = embedding_to_json(VertexEmbedding([np.eye(2), np.zeros((2, 2))], TARGET_SP, 2.0))
    with pytest.raises(InvalidParameters, match="declared m=3"):
        embedding_from_json({**sp, "m": 3})
    for declared in ({}, {"n": 2}, {"m": 2}, {"n": 2.0, "m": 2}):
        f = embedding_from_json({"target": TARGET_LP, "p": 2, "images": images, **declared})
        assert (f.n, f.m) == (2, 2)


def test_estimate_serialization_includes_witness_basis():
    est = minimize_coordinate(cycle_tuple(8), 2.0, mode="sp")
    doc = estimate_to_json(est)
    assert doc["value"] == est.value
    assert doc["subset"] == [0, 1, 2, 3]
    basis = matrix_from_json(doc["witness"]["basis"])
    np.testing.assert_array_equal(basis, est.witness.basis)
    v = Subspace(basis)
    assert v.k == 4


def test_dumps_canonical_is_stable():
    doc = {"b": 1.5, "a": [1, 2, {"z": 0.1, "y": -3}]}
    assert dumps_canonical(doc) == dumps_canonical(dict(reversed(doc.items())))

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
from spexp.errors import InvalidMatrix, InvalidParameters
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


def test_embedding_roundtrip_both_targets():
    f_lp = VertexEmbedding([np.array([0.0, 1.0]), np.array([2.0, 3.0])], TARGET_LP, 1.5)
    again = embedding_from_json(embedding_to_json(f_lp))
    assert again.target == TARGET_LP and again.p == 1.5
    np.testing.assert_array_equal(again.images[1], [2.0, 3.0])

    f_sp = VertexEmbedding([np.eye(2), np.zeros((2, 2))], TARGET_SP, 2.0)
    again_sp = embedding_from_json(embedding_to_json(f_sp))
    assert again_sp.target == TARGET_SP
    np.testing.assert_array_equal(again_sp.images[0], np.eye(2))


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


def test_distortion_report_serialization():
    from spexp import build_cycle, distortion, shortest_path_metric
    from spexp.embed import TARGET_LP as LP
    from spexp.serialize import distortion_report_to_json

    rho = shortest_path_metric(build_cycle(4))
    f = VertexEmbedding([np.array([float(v)]) for v in (0, 1, 2, 1)], LP, 1.0)
    doc = distortion_report_to_json(distortion(f, rho))
    assert doc["infinite"] is True
    assert doc["D"] is None  # infinities map to null for JSON
    assert doc["offending_pair"] == [1, 3]
    dumps_canonical(doc)  # must be representable without NaN/Inf

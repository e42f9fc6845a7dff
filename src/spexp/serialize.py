"""JSON file formats shared by the library and the CLI.

* matrix      {rows, cols, re: [...], im: [...]}           (row-major)
* tuple       {n, d, matrices: [matrix, ...]}
* graph       {n, d, symmetric, adjacency: [[counts]]}
* permutations{n, d, permutations: [[0-based ints], ...]}
* embedding   {n, target, p, m, images: [...]}
* estimate    {value, k, p, strategy, witness, ...}

``dumps_canonical`` renders deterministically (sorted keys, fixed layout) so
identical payloads serialize to identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import BistochasticTuple, Subspace, check_permutation
from .embed import TARGET_LP, VertexEmbedding
from .errors import InvalidMatrix, InvalidParameters
from .graphs import RegularGraph
from .linalg import _check_numbers, as_count, as_matrix, as_numbers
from .search import ExpansionEstimate


def matrix_to_json(m) -> dict:
    a = as_matrix(m)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        shape = obj["rows"], obj["cols"]
        re, im = obj["re"], obj["im"]
        # flat lists of numbers: a nested list would broadcast or pass as its entries
        _check_numbers(re, "re", InvalidMatrix)
        _check_numbers(im, "im", InvalidMatrix)
        re, im = np.array(re, dtype=np.float64), np.array(im, dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidMatrix(f"malformed matrix object: {exc}") from exc
    rows = as_count(shape[0], "rows", error=InvalidMatrix)
    cols = as_count(shape[1], "cols", error=InvalidMatrix)
    if re.size != rows * cols or im.size != rows * cols:
        raise InvalidMatrix("matrix entry count does not match rows*cols")
    m = np.empty(rows * cols, dtype=np.complex128)
    m.real, m.imag = re, im  # re + 1j * im would turn a -0.0 into 0.0
    return as_matrix(m.reshape(rows, cols))


def tuple_to_json(t: BistochasticTuple) -> dict:
    return {"n": t.n, "d": t.d, "matrices": [matrix_to_json(b) for b in t.matrices]}


def tuple_from_json(obj) -> BistochasticTuple:
    try:
        mats = tuple(matrix_from_json(m) for m in obj["matrices"])
    except (KeyError, TypeError) as exc:
        raise InvalidParameters(f"malformed tuple object: {exc}") from exc
    t = BistochasticTuple(mats)
    if "n" in obj and as_count(obj["n"], "n") != t.n:
        raise InvalidParameters(f"declared n={obj['n']} but matrices are {t.n}x{t.n}")
    if "d" in obj and as_count(obj["d"], "d") != t.d:
        raise InvalidParameters(f"declared d={obj['d']} but tuple has {t.d} matrices")
    return t


def graph_to_json(g: RegularGraph) -> dict:
    return {
        "n": g.n,
        "d": g.d,
        "symmetric": bool(g.symmetric),
        "adjacency": g.adjacency.tolist(),
    }


def graph_from_json(obj) -> RegularGraph:
    try:
        n, d, adjacency = obj["n"], obj["d"], obj["adjacency"]
    except (KeyError, TypeError) as exc:
        raise InvalidParameters(f"malformed graph object: {exc}") from exc
    return RegularGraph(n, d, adjacency, symmetric=obj.get("symmetric", True))


def permutations_to_json(perms) -> dict:
    perms = [np.asarray(p, dtype=np.int64).tolist() for p in perms]
    n = len(perms[0]) if perms else 0
    return {"n": n, "d": len(perms), "permutations": perms}


def permutations_from_json(obj) -> list:
    try:
        perms = [list(p) for p in obj["permutations"]]
    except (KeyError, TypeError) as exc:
        raise InvalidParameters(f"malformed permutations object: {exc}") from exc
    if not perms:
        raise InvalidParameters("permutation list is empty")
    n = len(perms[0])
    return [check_permutation(p, n) for p in perms]


def embedding_to_json(f: VertexEmbedding) -> dict:
    if f.target == TARGET_LP:
        images = f.images.real.astype(np.float64).tolist()
    else:
        images = [matrix_to_json(img) for img in f.images]
    return {"n": f.n, "target": f.target, "p": f.p, "m": f.m, "images": images}


def embedding_from_json(obj) -> VertexEmbedding:
    try:
        target, p, raw = obj["target"], obj["p"], obj["images"]
        as_numbers(p, "p")  # float() alone would read "2" or true as a number
        p = float(p)
        if target == TARGET_LP:
            images = [as_numbers(img, "images").astype(np.float64) for img in raw]
        else:
            images = [matrix_from_json(img) for img in raw]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameters(f"malformed embedding object: {exc}") from exc
    f = VertexEmbedding(images, target, p)
    for key, size in (("n", f.n), ("m", f.m)):
        if key in obj and as_count(obj[key], key) != size:
            raise InvalidParameters(f"declared {key}={obj[key]} but the images give {key}={size}")
    return f


def subspace_to_json(v: Subspace) -> dict:
    return {"k": v.k, "basis": matrix_to_json(v.basis)}


def estimate_to_json(est: ExpansionEstimate) -> dict:
    out = {
        "value": est.value,
        "k": est.k,
        "p": est.p if isinstance(est.p, str) else float(est.p),
        "strategy": est.strategy,
        "samples_used": est.samples_used,
        "iterations": est.iterations,
        "witness": subspace_to_json(est.witness),
    }
    if est.subset is not None:
        out["subset"] = [int(x) for x in est.subset]
    return out


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"

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
from .embed import TARGET_LP, DistortionReport, VertexEmbedding
from .errors import InvalidMatrix, InvalidParameters
from .graphs import RegularGraph
from .linalg import as_matrix
from .search import ExpansionEstimate


def matrix_to_json(m) -> dict:
    a = as_matrix(m)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": [float(x) for x in a.real.ravel()],
        "im": [float(x) for x in a.imag.ravel()],
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidMatrix(f"malformed matrix object: {exc}") from exc
    if re.size != rows * cols or im.size != rows * cols:
        raise InvalidMatrix("matrix entry count does not match rows*cols")
    return as_matrix((re + 1j * im).reshape(rows, cols))


def tuple_to_json(t: BistochasticTuple) -> dict:
    return {"n": t.n, "d": t.d, "matrices": [matrix_to_json(b) for b in t.matrices]}


def tuple_from_json(obj) -> BistochasticTuple:
    try:
        mats = tuple(matrix_from_json(m) for m in obj["matrices"])
    except (KeyError, TypeError) as exc:
        raise InvalidParameters(f"malformed tuple object: {exc}") from exc
    t = BistochasticTuple(mats)
    if "n" in obj and int(obj["n"]) != t.n:
        raise InvalidParameters(f"declared n={obj['n']} but matrices are {t.n}x{t.n}")
    if "d" in obj and int(obj["d"]) != t.d:
        raise InvalidParameters(f"declared d={obj['d']} but tuple has {t.d} matrices")
    return t


def graph_to_json(g: RegularGraph) -> dict:
    return {
        "n": g.n,
        "d": g.d,
        "symmetric": bool(g.symmetric),
        "adjacency": [[int(x) for x in row] for row in g.adjacency],
    }


def graph_from_json(obj) -> RegularGraph:
    try:
        return RegularGraph(
            n=int(obj["n"]),
            d=int(obj["d"]),
            adjacency=np.asarray(obj["adjacency"], dtype=np.int64),
            symmetric=bool(obj.get("symmetric", True)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameters(f"malformed graph object: {exc}") from exc


def permutations_to_json(perms) -> dict:
    perms = [list(int(x) for x in p) for p in perms]
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
        images = [[float(x) for x in np.asarray(img).real] for img in f.images]
    else:
        images = [matrix_to_json(img) for img in f.images]
    return {"n": f.n, "target": f.target, "p": f.p, "m": f.m, "images": images}


def embedding_from_json(obj) -> VertexEmbedding:
    try:
        target = obj["target"]
        p = float(obj["p"])
        raw = obj["images"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameters(f"malformed embedding object: {exc}") from exc
    if target == TARGET_LP:
        images = [np.asarray(img, dtype=np.float64) for img in raw]
    else:
        images = [matrix_from_json(img) for img in raw]
    return VertexEmbedding(images, target, p)


def subspace_to_json(v: Subspace) -> dict:
    return {"k": v.k, "basis": matrix_to_json(v.basis)}


def distortion_report_to_json(report: DistortionReport) -> dict:
    def _num(x):
        return None if not np.isfinite(x) else float(x)

    return {
        "D": _num(report.D),
        "infinite": bool(report.infinite),
        "expansion": _num(report.expansion),
        "contraction": _num(report.contraction),
        "expansion_pair": list(report.expansion_pair) if report.expansion_pair else None,
        "contraction_pair": list(report.contraction_pair) if report.contraction_pair else None,
        "offending_pair": list(report.offending_pair) if report.offending_pair else None,
    }


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

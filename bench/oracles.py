"""Plain numpy reference computations the benchmark checks outputs against.

Nothing here imports spexp: each oracle recomputes a reported quantity from
the JSON files the CLI reads and writes, so a wrong kernel in the program
cannot also make its own check pass.
"""

from __future__ import annotations

import numpy as np


def matrix(obj) -> np.ndarray:
    """A ``{rows, cols, re, im}`` matrix object as a complex array."""
    re = np.asarray(obj["re"], dtype=np.float64)
    im = np.asarray(obj["im"], dtype=np.float64)
    return (re + 1j * im).reshape(int(obj["rows"]), int(obj["cols"]))


def adjacency(doc) -> np.ndarray:
    return np.asarray(doc["graph"]["adjacency"], dtype=np.int64)


def tuple_stack(doc) -> np.ndarray:
    return np.stack([matrix(m) for m in doc["tuple"]["matrices"]])


def edge_count(adj: np.ndarray) -> int:
    loops = int(np.trace(adj))
    return (int(adj.sum()) - loops) // 2 + loops


def is_connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    reach = np.zeros(n, dtype=bool)
    reach[0] = True
    linked = (adj + adj.T) > 0
    while True:
        grown = reach | linked[reach].any(axis=0)
        if grown.sum() == reach.sum():
            return bool(reach.all())
        reach = grown


def boundary(adj: np.ndarray, subset) -> int:
    """Edges leaving ``subset``, counted with multiplicity; loops never cross."""
    w = sorted(int(i) for i in subset)
    d = int(adj[0].sum())
    return d * len(w) - int(adj[np.ix_(w, w)].sum())


def _half_subsets(n: int):
    """Membership rows and sizes of every subset W with 1 <= |W| <= n/2."""
    masks = np.arange(1, 1 << n, dtype=np.int64)
    member = (masks[:, None] >> np.arange(n)) & 1
    size = member.sum(axis=1)
    keep = size <= n // 2
    return member[keep], size[keep]


def _boundaries(adj: np.ndarray):
    member, size = _half_subsets(adj.shape[0])
    inside = ((member @ adj) * member).sum(axis=1)
    d = int(adj[0].sum())
    return d * size - inside, size, d


def edge_expansion(adj: np.ndarray) -> float:
    """h(G) = min |boundary(W)| / (d |W|) over 1 <= |W| <= n/2, by bitmask."""
    bnd, size, d = _boundaries(adj)
    return float(np.min(bnd / (d * size)))


def cut_oracle_l1(adj: np.ndarray) -> float:
    """Exact l1 expansion: the edge/pair ratio minimised over all cuts."""
    n = adj.shape[0]
    bnd, size, _ = _boundaries(adj)
    return float(np.min(n * n * bnd / (2 * edge_count(adj) * size * (n - size))))


def l2_oracle(adj: np.ndarray) -> float:
    """Exact l2 expansion sqrt(n lambda_2 / (2|E|)) from the Laplacian."""
    sym = (adj + adj.T) / 2.0
    lap = np.diag(sym.sum(axis=1)) - sym
    lam = np.linalg.eigvalsh(lap)
    return float(np.sqrt(adj.shape[0] * lam[1] / (2.0 * edge_count(adj))))


def schatten_ratio(stack: np.ndarray, basis: np.ndarray, p: float) -> float:
    """sum_i ||P B_i (Id - P)||_{S_p}^p / (d k) with the full n x n products."""
    d, n, _ = stack.shape
    proj = basis @ basis.conj().T
    comp = np.eye(n) - proj
    s = np.linalg.svd(proj @ stack @ comp, compute_uv=False)
    return float(np.sum(s**p)) / (d * basis.shape[1])


def orthonormality_defect(basis: np.ndarray) -> float:
    k = basis.shape[1]
    return float(np.linalg.norm(basis.conj().T @ basis - np.eye(k)))


def embedding_ratio(adj: np.ndarray, images: np.ndarray, p: float) -> float:
    """Edge-average over pair-average of ||f(i) - f(j)||^p, p-th-rooted.

    ``images`` is (n, m) for vectors in l_p and (n, m, m) for matrices in the
    Schatten-p class.
    """
    n = adj.shape[0]
    diff = images[:, None] - images[None, :]
    if images.ndim == 2:
        dist_p = np.sum(np.abs(diff) ** p, axis=-1)
    else:
        dist_p = np.sum(np.linalg.svd(diff, compute_uv=False) ** p, axis=-1)
    upper = np.triu_indices(n, k=1)
    num = float((adj[upper] * dist_p[upper]).sum()) / edge_count(adj)
    den = float(dist_p.sum()) / n**2
    return (num / den) ** (1.0 / p)

"""d-regular multigraphs: builders, permutation decomposition, exact edge
expansion, shortest-path metrics, the edge/pair metric ratio, and the exact
l1 cut oracle.

Adjacency matrices are nonnegative integer count matrices (parallel edges
carry multiplicity, a diagonal entry counts loops, each loop contributing 1
to its vertex degree). Loops never cross a cut, so they contribute 0 to every
boundary, but they do count as edges of the multiset E.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMetric,
    DisconnectedGraph,
    InstanceTooLarge,
    InvalidDimension,
    InvalidParameters,
    NotRegular,
    ShapeMismatch,
)
from .linalg import _check_exponent, as_count, as_integers, as_rng

BRUTE_FORCE_LIMIT = 24


@dataclass(frozen=True)
class RegularGraph:
    """n-vertex d-regular multigraph as an integer count matrix."""

    n: int
    d: int
    adjacency: np.ndarray
    symmetric: bool = True

    def __post_init__(self):
        if not isinstance(self.symmetric, (bool, np.bool_)):
            raise InvalidParameters(f"symmetric must be a boolean, got {self.symmetric!r}")
        for field in ("n", "d"):
            object.__setattr__(self, field, as_count(getattr(self, field), field))
        a = as_integers(self.adjacency, "adjacency counts")
        if a.shape != (self.n, self.n):
            raise ShapeMismatch(f"adjacency must be {self.n}x{self.n}, got {a.shape}")
        if np.any(a < 0):
            raise InvalidParameters("adjacency counts must be nonnegative")
        rows = a.sum(axis=1)
        cols = a.sum(axis=0)
        if np.any(rows != self.d) or np.any(cols != self.d):
            raise NotRegular(
                f"row/column sums must all equal d={self.d}; "
                f"got rows {rows.tolist()}, cols {cols.tolist()}"
            )
        if self.symmetric and np.any(a != a.T):
            raise InvalidParameters("symmetric flag set but adjacency != transpose")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    def edge_count(self) -> int:
        """Undirected edge multiset size: off-diagonal pairs plus loops."""
        a = self.adjacency
        off = int(a.sum() - np.trace(a))
        return off // 2 + int(np.trace(a))


def _check_symmetric(g: RegularGraph, what: str) -> None:
    """Raise InvalidParameters unless g is symmetric: edge expansion, cuts,
    metric and embedding ratios count undirected edges."""
    if not g.symmetric:
        raise InvalidParameters(f"{what} needs a symmetric graph")


def _check_connected(g: RegularGraph, what: str) -> None:
    """Raise DisconnectedGraph unless every vertex reaches every other."""
    if not is_connected(g):
        raise DisconnectedGraph(f"{what} needs a connected graph")


def build_cycle(n: int) -> RegularGraph:
    n = as_count(n, "n", None)
    if n < 3:
        raise InvalidParameters(f"cycle needs n >= 3, got {n}")
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        a[i, (i + 1) % n] += 1
        a[i, (i - 1) % n] += 1
    return RegularGraph(n, 2, a, symmetric=True)


def build_complete(n: int) -> RegularGraph:
    n = as_count(n, "n", None)
    if n < 2:
        raise InvalidParameters(f"complete graph needs n >= 2, got {n}")
    a = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    return RegularGraph(n, n - 1, a, symmetric=True)


def build_hypercube(k: int) -> RegularGraph:
    k = as_count(k, "k", None)
    if k < 1:
        raise InvalidParameters(f"hypercube needs k >= 1, got {k}")
    n = 1 << k
    a = np.zeros((n, n), dtype=np.int64)
    for v in range(n):
        for bit in range(k):
            a[v, v ^ (1 << bit)] = 1
    return RegularGraph(n, k, a, symmetric=True)


def _random_permutation(rng, n: int, derangement: bool) -> np.ndarray:
    while True:
        perm = rng.permutation(n)
        if not derangement or not np.any(perm == np.arange(n)):
            return perm


def _random_involution(rng, n: int, fixed_points_ok: bool) -> np.ndarray:
    if n % 2 == 1 and not fixed_points_ok:
        raise InvalidParameters("fixed-point-free involution needs even n")
    order = rng.permutation(n)
    inv = np.empty(n, dtype=np.int64)
    pairs = n - (n % 2)
    for i in range(0, pairs, 2):
        inv[order[i]] = order[i + 1]
        inv[order[i + 1]] = order[i]
    if n % 2 == 1:
        inv[order[-1]] = order[-1]
    return inv


def random_regular(
    n: int, d: int, seed, symmetric: bool = True, allow_loops: bool = True
) -> RegularGraph:
    """Random d-regular multigraph from sums of random permutation matrices.

    Symmetric graphs pair each permutation with its inverse and, for odd d,
    add one random involution (a perfect matching; with ``allow_loops`` its
    fixed points become loops). Asymmetric graphs sum d permutations.
    """
    n, d = as_count(n, "n", None), as_count(d, "d", None)
    if n < 1 or d < 1:
        raise InvalidParameters(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if not allow_loops and symmetric and d % 2 == 1 and n % 2 == 1:
        raise InvalidParameters("loop-free symmetric graph needs n*d even")
    rng = as_rng(seed)
    a = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(n)
    if symmetric:
        for _ in range(d // 2):
            perm = _random_permutation(rng, n, derangement=not allow_loops)
            a[perm, idx] += 1
            a[idx, perm] += 1
        if d % 2 == 1:
            inv = _random_involution(rng, n, fixed_points_ok=allow_loops)
            a[inv, idx] += 1
    else:
        for _ in range(d):
            perm = _random_permutation(rng, n, derangement=not allow_loops)
            a[perm, idx] += 1
    return RegularGraph(n, d, a, symmetric=symmetric)


# ---------------------------------------------------------------------------
# Hall / Birkhoff decomposition into permutations
# ---------------------------------------------------------------------------


def _hopcroft_karp(adj: list, n: int) -> list:
    """Maximum matching of columns -> rows on a bipartite adjacency list.

    ``adj[j]`` lists rows available to column j. Returns match_col with
    match_col[j] = matched row (or -1). Standard Hopcroft-Karp with BFS
    layering and layered DFS augmentation; the DFS keeps its path on a list,
    not on the call stack, so an augmenting path may be as long as n.
    """
    inf = 2 * n + 1
    match_col = [-1] * n
    match_row = [-1] * n
    while True:
        dist = [inf] * n
        queue = deque()
        for j in range(n):
            if match_col[j] == -1:
                dist[j] = 0
                queue.append(j)
        barrier = inf
        while queue:
            j = queue.popleft()
            if dist[j] >= barrier:
                continue
            for r in adj[j]:
                nxt = match_row[r]
                if nxt == -1:
                    barrier = min(barrier, dist[j] + 1)
                elif dist[nxt] == inf:
                    dist[nxt] = dist[j] + 1
                    queue.append(nxt)
        if barrier == inf:
            break

        for j in range(n):
            if match_col[j] != -1:
                continue
            # the columns of the path from j, each with its rows not yet
            # tried, and the row that leads from each column to the next
            path, via = [(j, iter(adj[j]))], []
            while path:
                c, rows = path[-1]
                r = next(rows, -1)
                if r == -1:  # a dead end: leave it and back up
                    dist[c] = inf
                    path.pop()
                    del via[len(path) - 1 :]
                    continue
                nxt = match_row[r]
                if nxt == -1:  # a free row: flip the matching along the path
                    for (col, _), row in zip(path, via + [r]):
                        match_col[col] = row
                        match_row[row] = col
                    break
                if dist[nxt] == dist[c] + 1:
                    path.append((nxt, iter(adj[nxt])))
                    via.append(r)
    return match_col


def decompose_permutations(g: RegularGraph) -> list:
    """Write the adjacency count matrix as an exact sum of d permutations.

    Repeatedly extracts a perfect matching of the n x n bipartite multigraph
    (columns matched to rows) and decrements multiplicities; regularity keeps
    Hall's condition alive at every round.
    """
    n, d = g.n, g.d
    counts = g.adjacency.copy()
    adj = [[int(r) for r in np.nonzero(counts[:, j])[0]] for j in range(n)]
    perms = []
    for _ in range(d):
        match_col = _hopcroft_karp(adj, n)
        if any(r == -1 for r in match_col):
            raise NotRegular("no perfect matching; input multigraph is not regular")
        perms.append(list(match_col))
        for j, r in enumerate(match_col):
            counts[r, j] -= 1
            if counts[r, j] == 0:
                adj[j].remove(r)
    return perms


# ---------------------------------------------------------------------------
# Exact expansion and metrics
# ---------------------------------------------------------------------------


def _subset_boundaries(w):
    """(masks, sizes, boundaries) of every vertex subset W with 1 <= |W| <= n/2.

    Bit j of a mask marks vertex j in W, whose boundary is the weight
    sum_{a not in W, b in W} w[a, b] entering it (w may be asymmetric; loops
    never count). Adding a vertex v above every member of W adds the weight
    entering v from outside and removes the weight between v and W, so each
    vertex doubles the table. At n = 24, the limit, h(G) of a random 4-regular
    graph peaks at about 417 MiB of process RSS, and 517 MiB when every subset
    ties, because _lex_min then copies all the tied masks.
    """
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[0]
    if n > BRUTE_FORCE_LIMIT:
        raise InstanceTooLarge(f"2^n sweep limited to n <= {BRUTE_FORCE_LIMIT}, got n={n}")
    if n < 2:
        raise InvalidDimension(f"no admissible subset size for n={n}")
    boundary = np.zeros(1 << n)
    size = np.zeros(1 << n, dtype=np.int8)
    for v in range(n):
        half = 1 << v
        top = boundary[half : 2 * half]  # the masks whose top member is v, still zero
        for u in range(v):  # first the weight between v and each W below v
            np.add(top[: 1 << u], w[u, v] + w[v, u], out=top[1 << u : 2 << u])
        np.subtract(boundary[:half], top, out=top)
        top += w[:, v].sum() - w[v, v]
        size[half : 2 * half] = size[:half] + 1
    masks = np.flatnonzero((size >= 1) & (size <= n // 2))
    return masks, size[masks].astype(np.int64), boundary[masks]


def _lex_min(masks, values):
    """(minimum value, lexicographically smallest sorted subset attaining it).

    Narrows the tied masks one member at a time: a mask holding just the
    members chosen so far is a prefix of the others, hence the smallest;
    otherwise only the masks with the lowest next member stay.
    """
    best = values.min()
    rest = masks[values == best]  # the tied masks less the members chosen so far
    chosen = 0
    while np.all(rest):
        lowest = rest & -rest
        bit = int(lowest.min())
        rest = rest[lowest == bit] ^ bit
        chosen |= bit
    return float(best), [j for j in range(chosen.bit_length()) if chosen >> j & 1]


def _cut_ratio(boundary, size, n: int, edges: int):
    """The l1 cut ratio [(1/|E|) boundary] / [(1/n^2) 2 |W| (n - |W|)]."""
    return n * n * boundary / (2 * edges * size * (n - size))


def edge_expansion_bruteforce(g: RegularGraph):
    """Exact h(G) = min |boundary(W)| / (d |W|) over 1 <= |W| <= n/2.

    Boundary counts edge multiplicities; loops contribute nothing. Returns
    (value, witness) with the lexicographically smallest witness on ties.
    """
    _check_symmetric(g, "edge expansion")
    masks, sizes, boundary = _subset_boundaries(g.adjacency)
    return _lex_min(masks, boundary / (g.d * sizes))


def _hops(g: RegularGraph, sources):
    """Breadth-first hop counts from each source to every vertex, one list per
    source, -1 where unreachable; edges are followed in both directions."""
    a = g.adjacency
    nbrs = [np.flatnonzero(a[i] + a[:, i]).tolist() for i in range(g.n)]
    for src in sources:
        row = [-1] * g.n
        row[src] = 0
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for u in nbrs[v]:
                if row[u] < 0:
                    row[u] = row[v] + 1
                    queue.append(u)
        yield row


def is_connected(g: RegularGraph) -> bool:
    return min(next(_hops(g, [0]))) >= 0


def shortest_path_metric(g: RegularGraph) -> np.ndarray:
    """(n, n) BFS hop distances; raises DisconnectedGraph when any pair is unreachable."""
    dist = np.array(list(_hops(g, range(g.n))), dtype=np.float64)
    if np.any(dist < 0):
        raise DisconnectedGraph("graph is not connected")
    return dist


@functools.lru_cache(maxsize=16)
def _upper_pairs(n: int):
    return np.triu_indices(n, k=1)  # built once per n


def _edge_pair_averages(g: RegularGraph, powers: np.ndarray):
    """(edge average, ordered-pair average) of an (n, n) matrix of p-th
    powers: the pairs i < j weighted by adjacency over |E|, and all n^2
    entries over n^2."""
    upper = _upper_pairs(g.n)
    num = float((g.adjacency[upper] * powers[upper]).sum()) / g.edge_count()
    return num, float(powers.sum()) / g.n**2


def metric_ratio_parts(g: RegularGraph, rho: np.ndarray, p: float):
    """(numerator, denominator) inside the p-th root of the metric ratio.

    numerator = edge-average of rho^p (undirected multiset, loops included in
    |E| but contributing rho(i,i)=0); denominator = ordered-pair average over
    all n^2 pairs including the diagonal.
    """
    _check_symmetric(g, "metric ratio")
    p = _check_exponent(p)
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (g.n, g.n):
        raise ShapeMismatch(f"metric has shape {rho.shape}, graph has {g.n} vertices")
    if g.n < 2:
        raise DegenerateMetric("metric ratio needs at least two points")
    num, den = _edge_pair_averages(g, rho**p)
    if den <= 0:
        raise DegenerateMetric("all pairwise distances vanish")
    return num, den


def metric_ratio(g: RegularGraph, rho: np.ndarray, p: float) -> float:
    """Edge-average over pair-average of rho^p, p-th-rooted.

    On the graph's own shortest-path metric the numerator is exactly 1 for
    loop-free graphs (every edge joins vertices at distance 1).
    """
    num, den = metric_ratio_parts(g, rho, p)
    return (num / den) ** (1.0 / p)


def cut_oracle_l1(g: RegularGraph):
    """Exact l1 expansion: minimize the edge/pair ratio over all vertex cuts.

    Cut metrics generate the cone of l1-embeddable semimetrics, and a ratio
    of linear functionals over a cone attains its minimum at a generator, so
    the minimum over cuts equals the minimum over l1 embeddings. Integer
    counts make each ratio one correctly rounded division of exact floats,
    which keeps the order and equality of these small-denominator rationals;
    lexicographically smallest witness on ties.
    """
    _check_symmetric(g, "cut oracle")
    _check_connected(g, "cut oracle")
    masks, sizes, boundary = _subset_boundaries(g.adjacency)
    return _lex_min(masks, _cut_ratio(boundary, sizes, g.n, g.edge_count()))

"""The four benchmark workloads: seeded CLI job lists and their output checks.

A workload is a template of T job kinds (sizes and parameters fixed here) and
a pool of generated input files. Job j runs template entry j % T on input
instance (j // T) % INSTANCES with its own derived ``--seed``, so a run of
whole passes always has the same mix of kinds, whatever its seed.
``setup`` writes the inputs with the CLI's own ``gen``/``decompose``
commands; the program sees only those files and the job arguments.

Each job carries a check against an oracle in ``oracles.py``; a check
returns an error message, or None when the output is right.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

TOL_EXACT = 1e-12
TOL_RATIO = 1e-9


@dataclass
class Job:
    argv: list
    params: dict  # n, d, k, p, m and seed, recorded in the run manifest
    check: Callable[[dict], str | None]


def derive(seed: int, *key: int) -> int:
    """A seed for one input or job, fixed by the workload seed and a key."""
    return int(np.random.default_rng([seed, *key]).integers(2**31))


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class Workload:
    name = ""
    instances = 1  # distinct inputs per template entry
    trace_passes = 1  # template passes in each pass of a traced run

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.template = []
        self.workdir = None
        self._cache = {}

    def setup(self, cli, workdir: str) -> None:
        self.workdir = workdir

    def job(self, j: int) -> Job:
        raise NotImplementedError

    def cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def gen_graph(self, cli, name: str, n: int, key, connected: bool = False):
        """Random loop-free 4-regular graph; with ``connected``, the first
        connected one in the seeded sequence."""
        path = self.path(name)
        for attempt in range(100):
            gseed = derive(self.seed, *key, attempt)
            cli(["gen", "random-regular", "--n", str(n), "--d", "4", "--no-loops",
                 "--seed", str(gseed), "--out", path, "--quiet"])
            if not connected or oracles.is_connected(oracles.adjacency(_load(path))):
                return path, gseed
        raise RuntimeError(f"no connected 4-regular graph on {n} vertices")


class ExactCuts(Workload):
    """Exact expansion by 2^n subset sweeps: classical h(G) on the graph, and
    coordinate Q/sp/dim on its Hall-decomposed permutation tuple."""

    name = "exact_cuts"
    instances = 4  # coordinate search times vary by graph; more graphs steady p90
    trace_passes = 2

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        sizes = (6, 7, 8) if tiny else (10, 11, 12, 13, 14)
        small = sizes[:3]
        self.sizes = sizes
        self.template = (
            [("classical", n, None) for n in sizes]
            + [("Q", n, None) for n in sizes]
            + [("sp", n, p) for n, p in zip(small, (2.0, 3.0, 1.0))]
            + [("dim", n, None) for n in small]
        )

    def setup(self, cli, workdir):
        super().setup(cli, workdir)
        self.inputs = {}
        for n in self.sizes:
            for f in range(self.instances):
                graph, gseed = self.gen_graph(cli, f"g{n}_{f}.json", n, (n, f))
                perms, tup = self.path(f"perms{n}_{f}.json"), self.path(f"t{n}_{f}.json")
                cli(["decompose", graph, "--out", perms, "--quiet"])
                cli(["gen", "permutation-tuple", "--perms", perms, "--out", tup, "--quiet"])
                self.inputs[n, f] = (graph, tup, gseed)

    def job(self, j):
        mode, n, p = self.template[j % len(self.template)]
        f = (j // len(self.template)) % self.instances
        graph, tup, gseed = self.inputs[n, f]
        if mode == "classical":
            argv = ["expansion", graph, "--mode", "classical"]
        else:
            argv = ["expansion", tup, "--mode", mode, "--strategy", "coordinate"]
            if p is not None:
                argv += ["--p", str(p)]
        params = {"kind": mode, "n": n, "d": 4, "p": p, "seed": gseed}

        def check(doc):
            adj = self.cached(graph, lambda: oracles.adjacency(_load(graph)))
            h = self.cached((graph, "h"), lambda: oracles.edge_expansion(adj))
            res = doc["result"]
            if mode == "classical":
                value, subset = res["value"], res["witness_subset"]
            else:
                value, subset = res["estimate"]["value"], res["estimate"]["subset"]
            if abs(value - h) > TOL_EXACT:
                return f"value {value!r} differs from h(G) = {h!r}"
            if not 1 <= len(set(subset)) == len(subset) <= n // 2 or not set(subset) <= set(range(n)):
                return f"witness {subset} is not a subset of size 1..{n // 2}"
            recount = oracles.boundary(adj, subset) / (4 * len(subset))
            if abs(recount - value) > TOL_EXACT:
                return f"witness boundary ratio {recount!r} differs from value {value!r}"
            return None

        return Job(argv, params, check)


class SubspaceSearch(Workload):
    """Schatten-p expansion of Haar unitary tuples by Riemannian descent and
    by random subspaces, at fixed k."""

    name = "subspace_search"
    instances = 2
    trace_passes = 1
    D = 3
    RESTARTS, MAX_ITERS, SAMPLES = 2, 8, 40

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.sizes = (8, 12) if tiny else (32, 48, 64, 96)
        ks = (1, 2, 3) if tiny else (2, 4, 6)
        self.template = []
        for i, n in enumerate(self.sizes):
            for jp, p in enumerate((1.5, 2.0, 3.0)):
                k = ks[(i + jp) % 3]
                self.template += [("riemannian", n, p, k), ("random", n, p, k)]

    def setup(self, cli, workdir):
        super().setup(cli, workdir)
        self.inputs = {}
        for n in self.sizes:
            for f in range(self.instances):
                tseed = derive(self.seed, n, f)
                path = self.path(f"u{n}_{f}.json")
                cli(["gen", "unitary-tuple", "--n", str(n), "--d", str(self.D),
                     "--seed", str(tseed), "--out", path, "--quiet"])
                self.inputs[n, f] = (path, tseed)

    def job(self, j):
        strategy, n, p, k = self.template[j % len(self.template)]
        f = (j // len(self.template)) % self.instances
        path, tseed = self.inputs[n, f]
        jseed = derive(self.seed, 1 << 20, j)
        argv = ["expansion", path, "--mode", "sp", "--p", str(p), "--strategy", strategy,
                "--k", str(k), "--seed", str(jseed)]
        if strategy == "riemannian":
            argv += ["--restarts", str(self.RESTARTS), "--max-iters", str(self.MAX_ITERS)]
        else:
            argv += ["--samples", str(self.SAMPLES)]
        params = {"kind": strategy, "n": n, "d": self.D, "k": k, "p": p,
                  "seed": jseed, "input_seed": tseed}

        def check(doc):
            stack = self.cached(path, lambda: oracles.tuple_stack(_load(path)))
            est = doc["result"]["estimate"]
            basis = oracles.matrix(est["witness"]["basis"])
            if est["k"] != k or basis.shape != (n, k) or not 1 <= k <= n // 2:
                return f"witness dimension {est['k']} ({basis.shape}) for requested k={k}"
            # the amount of work done: every random sample is evaluated, and a
            # descent takes at most max_iters steps per restart
            if strategy == "random" and est["samples_used"] != self.SAMPLES:
                return f"{est['samples_used']} random samples evaluated, not {self.SAMPLES}"
            if strategy == "riemannian" and not 0 <= est["iterations"] <= self.RESTARTS * self.MAX_ITERS:
                return f"{est['iterations']} descent steps for {self.RESTARTS} x {self.MAX_ITERS}"
            defect = oracles.orthonormality_defect(basis)
            if defect > 1e-10 * max(1.0, np.sqrt(k)):
                return f"witness is not orthonormal: ||Q*Q - I|| = {defect:.3e}"
            ratio = oracles.schatten_ratio(stack, basis, p)
            if abs(ratio - est["value"]) > TOL_RATIO * max(1.0, abs(ratio)):
                return f"witness ratio {ratio!r} differs from value {est['value']!r}"
            return None

        return Job(argv, params, check)


class VerifySweep(Workload):
    """Inequality sweeps over small random instances, one seed per call."""

    name = "verify_sweep"
    trace_passes = 20

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.count = 5 if tiny else 50
        self.template = [("verify",)]

    def job(self, j):
        jseed = derive(self.seed, j)
        argv = ["verify", "--instances", str(self.count), "--seed", str(jseed)]
        # n, d and p are drawn per instance from the CLI's default ranges
        params = {"kind": "verify", "instances": self.count, "n": "4-16", "d": "2-5",
                  "p": "1-6", "seed": jseed}

        def check(doc):
            res = doc["result"]
            if not res["all_pass"] or res["failures_total"] != 0:
                return f"{res['failures_total']} inequality failures"
            totals = {row["checker"]: row["total"] for row in res["checkers"]}
            if len(totals) != 4 or set(totals.values()) != {self.count}:
                return f"checker totals {totals} differ from {self.count} instances"
            return None

        return Job(argv, params, check)


class Embed(Workload):
    """Embedding estimates of random 4-regular graphs into l_p vectors and
    Schatten-p matrices."""

    name = "embed"
    instances = 8
    trace_passes = 2

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        sizes = (6, 7, 8) if tiny else (10, 11, 12)
        self.template = []
        # every (target, p) at both m, so lp is 2/3 of a pass: with lp at one m
        # only, half the jobs were lp and job_s.p50 fell in the gap between the
        # slowest lp and the fastest sp job (see README.md)
        for n in sizes:
            for target, p in (("lp", 1.0), ("lp", 2.0), ("sp", 2.0)):
                self.template += [(target, n, p, m) for m in (2, 3)]

    def setup(self, cli, workdir):
        super().setup(cli, workdir)
        self.inputs = {}
        for t, (_, n, _, _) in enumerate(self.template):
            for f in range(self.instances):
                self.inputs[t, f] = self.gen_graph(cli, f"g{t}_{f}.json", n, (t, f), connected=True)

    def job(self, j):
        t = j % len(self.template)
        target, n, p, m = self.template[t]
        path, gseed = self.inputs[t, (j // len(self.template)) % self.instances]
        jseed = derive(self.seed, 1 << 20, j)
        argv = ["embed", path, "--target", target, "--p", str(p), "--m", str(m),
                "--restarts", "1", "--max-iters", "20", "--seed", str(jseed)]
        params = {"kind": target, "n": n, "d": 4, "p": p, "m": m, "seed": jseed,
                  "input_seed": gseed}

        def check(doc):
            adj = self.cached(path, lambda: oracles.adjacency(_load(path)))
            oracle = oracles.cut_oracle_l1 if p == 1.0 else oracles.l2_oracle
            low = self.cached((path, p), lambda: oracle(adj))
            res = doc["result"]
            est = res["estimate"]
            if est < low - TOL_RATIO:
                return f"estimate {est!r} below the p={p} oracle {low!r}"
            images = res["witness"]["images"]
            if target == "sp":
                images = [oracles.matrix(x).real for x in images]
            images = np.asarray(images, dtype=np.float64)
            if images.shape[0] != n or images.shape[1] != m or res["m"] != m:
                return f"witness shape {images.shape} for n={n}, m={m}"
            ratio = oracles.embedding_ratio(adj, images, p)
            if abs(ratio - est) > TOL_RATIO * max(1.0, abs(est)):
                return f"witness ratio {ratio!r} differs from estimate {est!r}"
            return None

        return Job(argv, params, check)


WORKLOADS = {w.name: w for w in (ExactCuts, SubspaceSearch, VerifySweep, Embed)}

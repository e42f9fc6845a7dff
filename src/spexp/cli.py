"""Command-line entry point.

Subcommands: gen, expansion, decompose, verify, embed. Every output file
embeds a run manifest: the subcommand, the master seed (``--seed``; null for
decompose), the tool version and ``parameters``, which holds every parsed
option of the subcommand except --seed, --out, --quiet and --csv, by its
argparse dest, with unset (None) options left out. So gen manifests carry
``directed`` and ``no_loops`` too. Wall-clock duration goes to stderr so
reruns with the same manifest produce byte-identical payloads. Exit codes:
0 success, 1 verify found failing inequalities, and otherwise the exit_code
of the error's class (errors.py): 2 input error, 3 infeasible configuration,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

import numpy as np
import orjson

from . import __version__
from .channels import random_unitary_tuple, tuple_from_permutations, validate_bistochastic
from .embed import (
    OptimizerConfig,
    l2_expansion_oracle,
    lp_expansion_estimate,
    sp_expansion_estimate,
)
from .errors import (
    InstanceTooLarge,
    InvalidParameters,
    NumericalFailure,
    SpexpError,
    UnsupportedStrategy,
)
from .graphs import (
    BRUTE_FORCE_LIMIT,
    build_complete,
    build_cycle,
    build_hypercube,
    cut_oracle_l1,
    decompose_permutations,
    edge_expansion_bruteforce,
    metric_ratio,
    random_regular,
    shortest_path_metric,
)
from .linalg import _check_seed, as_rng
from .search import SearchConfig, minimize_coordinate, minimize_random, minimize_riemannian
from .serialize import (
    dumps_canonical,
    embedding_to_json,
    estimate_to_json,
    graph_from_json,
    graph_to_json,
    permutations_from_json,
    permutations_to_json,
    tuple_from_json,
    tuple_to_json,
)
from .verify import MAX_TUPLE_BYTES, SweepConfig, sweep

# orjson has no nesting limit: it crashed (SIGSEGV) on objects nested 100,000
# deep. The count of '[' and '{' bytes, in strings or not, bounds the depth
# from above; objects 16,384 deep parse in about 3 MB of stack, well inside
# the usual 8 MB of a main thread.
MAX_CONTAINERS = 16_384


# parsed options outside manifest.parameters: the subcommand and its handler,
# the seed (a manifest field of its own) and where the output goes
_NOT_PARAMETERS = frozenset({"command", "func", "seed", "out", "quiet", "csv"})


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError raised while writing path into an input error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise SpexpError(f"cannot write {path}: {exc}") from exc


def _emit(args, payload: dict) -> None:
    """Write the payload under its run manifest, derived from the parsed options."""
    parameters = {
        k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS and v is not None
    }
    manifest = {
        "subcommand": args.command,
        "parameters": parameters,
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }
    text = dumps_canonical({"manifest": manifest, **payload})
    if args.out:
        with _writing(args.out):
            # a temp file of its own, so runs writing one output never collide;
            # the kernel masks its mode by the umask, as for a plain open()
            tmp = f"{args.out}.{os.urandom(8).hex()}"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                os.replace(tmp, args.out)
            except BaseException:
                os.unlink(tmp)
                raise
    if not args.quiet:
        sys.stdout.write(text)


def _check_output(path: str) -> None:
    """Refuse, before any work, an output path that is a directory or whose
    directory is missing."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise SpexpError(f"cannot write {path}: no directory {folder}")
    if os.path.isdir(path):
        raise SpexpError(f"cannot write {path}: it is a directory")


def _load_json(path: str) -> dict:
    """The top-level object of a UTF-8 JSON file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if data.count(b"[") + data.count(b"{") > MAX_CONTAINERS:
            raise SpexpError(f"cannot read {path}: more than {MAX_CONTAINERS} arrays and objects")
        doc = orjson.loads(data)
    except (OSError, orjson.JSONDecodeError) as exc:
        raise SpexpError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        kind = type(doc).__name__
        raise SpexpError(f"cannot read {path}: expected an object at the top level, got {kind}")
    return doc


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


# Peak RSS per output entry of a gen run, which renders the payload as Python
# lists and then as indented JSON text: (peak RSS - that of a tiny run) /
# entries, with --out, on a 2-vCPU x86-64 VM.
GEN_COUNT_BYTES = 93  # gen cycle --n 3000: 826 MiB peak, 9.0e6 adjacency counts
GEN_COMPLEX_BYTES = 352  # gen unitary-tuple --n 800 --d 3: 681 MiB peak, 1.9e6 entries


def _check_gen_size(kind: str, n: int, d: int, k: int) -> None:
    """Raise InstanceTooLarge when writing the output gen makes, the n x n
    adjacency counts of a graph (n = 2^k for a hypercube) or the d x n x n
    complex entries of a tuple, would take more than MAX_TUPLE_BYTES of memory
    at the measured cost per entry. A negative size is left to the input check
    of the function that makes the output."""
    n, d = max(n, 0), max(d, 0)
    if kind == "hypercube":  # 2^k is never built beyond 2^32, which is refused anyway
        n = 1 << min(max(k, 0), 32)
    if kind in ("unitary-tuple", "permutation-tuple"):
        need = GEN_COMPLEX_BYTES * d * n * n
    else:
        need = GEN_COUNT_BYTES * n * n
    if need > MAX_TUPLE_BYTES:
        raise InstanceTooLarge(
            f"writing the {kind} output would take about {need} bytes, over {MAX_TUPLE_BYTES}"
        )


def _cmd_gen(args) -> int:
    kind = args.kind
    seed = _check_seed(args.seed)
    n, d = args.n, args.d
    if kind == "permutation-tuple" and args.perms:
        perms = permutations_from_json(_load_json(args.perms))
        n, d = len(perms[0]), len(perms)
    _check_gen_size(kind, n, d, args.k)  # before anything is drawn or built
    if kind == "cycle":
        payload = {"graph": graph_to_json(build_cycle(args.n))}
    elif kind == "complete":
        payload = {"graph": graph_to_json(build_complete(args.n))}
    elif kind == "hypercube":
        payload = {"graph": graph_to_json(build_hypercube(args.k))}
    elif kind == "random-regular":
        g = random_regular(
            args.n, args.d, seed, symmetric=not args.directed, allow_loops=not args.no_loops
        )
        payload = {"graph": graph_to_json(g)}
    elif kind == "unitary-tuple":
        payload = {"tuple": tuple_to_json(random_unitary_tuple(args.n, args.d, seed))}
    elif kind == "permutation-tuple":
        if not args.perms:
            rng = as_rng(seed)
            perms = [rng.permutation(args.n).tolist() for _ in range(args.d)]
        t = tuple_from_permutations(perms)
        payload = {"tuple": tuple_to_json(t), "permutations": permutations_to_json(perms)}
    else:  # pragma: no cover - argparse restricts choices
        raise SpexpError(f"unknown kind {kind}")
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def _cmd_expansion(args) -> int:
    if args.k is not None and (args.mode == "classical" or args.strategy == "coordinate"):
        raise InvalidParameters("--k is used only by the random and riemannian strategies")
    # every option lands in the manifest, so those this run ignores are checked too
    cfg = SearchConfig(
        k=args.k,
        samples=args.samples,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    if not (np.isfinite(args.p) and args.p >= 1):
        raise InvalidParameters(f"--p must be finite and >= 1, got {args.p}")
    doc = _load_json(args.input)
    if args.mode == "classical":
        g = graph_from_json(doc.get("graph", doc))
        value, witness = edge_expansion_bruteforce(g)
        result = {"value": value, "witness_subset": witness, "mode": "classical"}
    else:
        t = tuple_from_json(doc.get("tuple", doc))
        check = validate_bistochastic(t)
        if not check.passed:
            raise InvalidParameters(
                f"tuple is not bistochastic: left deviation {check.left_deviation:.3e}, "
                f"right deviation {check.right_deviation:.3e}"
            )
        if args.strategy == "coordinate":
            est = minimize_coordinate(t, args.p, mode=args.mode)
        elif args.mode != "sp":
            raise UnsupportedStrategy(f"mode {args.mode!r} supports only the coordinate strategy")
        elif args.strategy == "random":
            est = minimize_random(t, args.p, cfg)
        else:
            est = minimize_riemannian(t, args.p, cfg)
        result = {"estimate": estimate_to_json(est), "mode": args.mode}
    _emit(args, {"result": result})
    return 0


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def _cmd_decompose(args) -> int:
    doc = _load_json(args.input)
    g = graph_from_json(doc.get("graph", doc))
    perms = decompose_permutations(g)
    recon = np.zeros((g.n, g.n), dtype=np.int64)
    for perm in perms:
        recon[perm, np.arange(g.n)] += 1
    if np.any(recon != g.adjacency):
        raise NumericalFailure("decomposition failed to reconstruct the adjacency")
    _emit(args, permutations_to_json(perms))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    cfg = SweepConfig(
        instances=args.instances,
        n_range=(args.n_min, args.n_max),
        d_range=(args.d_min, args.d_max),
        p_range=(args.p_min, args.p_max),
        seed=args.seed,
    )
    report = sweep(cfg)
    _emit(args, {"result": report})
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------


def _cmd_embed(args) -> int:
    doc = _load_json(args.input)
    g = graph_from_json(doc.get("graph", doc))
    cfg = OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    m = g.n if args.m is None else args.m
    if args.target == "lp":
        est = lp_expansion_estimate(g, args.p, m, cfg)
    else:
        est = sp_expansion_estimate(g, args.p, m, cfg)
    r_rho = metric_ratio(g, shortest_path_metric(g), args.p)
    if args.p == 1.0 and g.n <= BRUTE_FORCE_LIMIT:
        h_low, _ = cut_oracle_l1(g)
        bound_kind = "oracle"
    elif args.p == 2.0:
        h_low = l2_expansion_oracle(g)
        bound_kind = "oracle"
    else:
        h_low = est.value
        bound_kind = "heuristic"
    bound = float(h_low) / r_rho  # distortion_lower_bound, without a second metric ratio
    result = {
        "estimate": est.value,
        "target": args.target,
        "p": args.p,
        "m": m,
        "metric_ratio": r_rho,
        "distortion_lower_bound": bound,
        "bound_kind": bound_kind,
        "witness": embedding_to_json(est.witness),
    }
    _emit(args, {"result": result})
    if args.csv:
        line = "n,d,target,p,m,estimate,metric_ratio,bound,bound_kind\n"
        row = (
            f"{g.n},{g.d},{args.target},{args.p},{m},"
            f"{est.value!r},{r_rho!r},{bound!r},{bound_kind}\n"
        )
        with _writing(args.csv):
            write_header = not os.path.exists(args.csv)
            with open(args.csv, "a") as fh:
                if write_header:
                    fh.write(line)
                fh.write(row)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spexp",
        description="Expansion of bistochastic matrix tuples and regular graphs",
    )
    parser.add_argument("--version", action="version", version=f"spexp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out")
    output.add_argument("--quiet", action="store_true")

    g = sub.add_parser("gen", parents=[output], help="generate graphs and tuples")
    g.add_argument(
        "kind",
        choices=[
            "cycle",
            "complete",
            "hypercube",
            "random-regular",
            "unitary-tuple",
            "permutation-tuple",
        ],
    )
    g.add_argument("--n", type=int, default=8)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--k", type=int, default=3, help="hypercube dimension")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--perms", help="JSON permutations file for permutation-tuple")
    g.add_argument("--directed", action="store_true", help="asymmetric random graph")
    g.add_argument("--no-loops", action="store_true", help="forbid loops")
    g.set_defaults(func=_cmd_gen)

    e = sub.add_parser("expansion", parents=[output], help="minimize an expansion functional")
    e.add_argument("input", help="tuple or graph JSON file")
    e.add_argument("--mode", choices=["sp", "dim", "Q", "classical"], default="sp")
    e.add_argument("--p", type=float, default=2.0)
    e.add_argument(
        "--strategy", choices=["coordinate", "random", "riemannian"], default="coordinate"
    )
    e.add_argument("--k", type=int, default=None, help="fixed subspace dimension")
    e.add_argument("--samples", type=int, default=SearchConfig.samples)
    e.add_argument("--restarts", type=int, default=SearchConfig.restarts)
    e.add_argument("--max-iters", type=int, default=SearchConfig.max_iters)
    e.add_argument("--seed", type=int, default=SearchConfig.seed)
    e.set_defaults(func=_cmd_expansion)

    d = sub.add_parser(
        "decompose", parents=[output], help="decompose a regular graph into permutations"
    )
    d.add_argument("input")
    d.set_defaults(func=_cmd_decompose)

    v = sub.add_parser("verify", parents=[output], help="run the inequality sweep")
    v.add_argument("--instances", type=int, default=SweepConfig.instances)
    v.add_argument("--seed", type=int, default=SweepConfig.seed)
    v.add_argument("--n-min", type=int, default=SweepConfig.n_range[0])
    v.add_argument("--n-max", type=int, default=SweepConfig.n_range[1])
    v.add_argument("--d-min", type=int, default=SweepConfig.d_range[0])
    v.add_argument("--d-max", type=int, default=SweepConfig.d_range[1])
    v.add_argument("--p-min", type=float, default=SweepConfig.p_range[0])
    v.add_argument("--p-max", type=float, default=SweepConfig.p_range[1])
    v.set_defaults(func=_cmd_verify)

    m = sub.add_parser(
        "embed", parents=[output], help="embedding expansion estimate and distortion bound"
    )
    m.add_argument("input")
    m.add_argument("--target", choices=["lp", "sp"], default="lp")
    m.add_argument("--p", type=float, default=1.0)
    m.add_argument("--m", type=int, default=None, help="target dimension (default n)")
    m.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    m.add_argument("--max-iters", type=int, default=OptimizerConfig.max_iters)
    m.add_argument("--seed", type=int, default=OptimizerConfig.seed)
    m.add_argument("--csv", help="append a CSV row for batch experiments")
    m.set_defaults(func=_cmd_embed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        for path in (args.out, getattr(args, "csv", None)):
            if path:
                _check_output(path)
        code = args.func(args)
    except SpexpError as exc:
        print(f"spexp: {exc.label}{exc}", file=sys.stderr)
        return exc.exit_code
    print(f"spexp: {args.command} finished in {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

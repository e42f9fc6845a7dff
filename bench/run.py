"""spexp benchmark: seeded CLI job lists, end-to-end and per-layer metrics.

    python3 bench/run.py --workload exact_cuts --seed 1 --seconds 25 --trace 0

Workloads: exact_cuts, subspace_search, verify_sweep, embed (see
``workloads.py`` and README.md). With ``--trace 0`` the workload runs
untraced for ``--seconds`` and the end-to-end metrics are printed; with
``--trace 1`` a fixed job list runs once untraced and twice traced, and the
per-layer metrics are printed. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

The workload runs in its own process (``worker.py``), started from this one,
so that interpreter start, ``import spexp``, input generation and a warm-up
job can be timed as set-up. Set-up runs SETUPS times per untraced run: set-up
only workers before and after the measuring worker, whose own set-up is the
middle one, so that a short burst of host load sways few of them. The median
is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact_cuts", "subspace_search", "verify_sweep", "embed")
SETUPS = 7
DEADLINE_S = 170.0


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def start_worker(args, mode, deadline):
    """Run one worker to completion; returns (spawn time, parsed last line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return spawned, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "spexp", "cli.py")):
        print(f"bench: no spexp sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.trace:
            _, result = start_worker(args, "trace", deadline)
            units = metric_units("per_layer")
            metrics = result["metrics"]
        else:
            def setup_s(mode):
                spawned, res = start_worker(args, mode, deadline)
                return res["setup_done"] - spawned, res

            others = 2 if args.tiny else SETUPS - 1
            setups = [setup_s("setup")[0] for _ in range(others // 2)]
            took, result = setup_s("run")
            setups += [took] + [setup_s("setup")[0] for _ in range(others - others // 2)]
            units = metric_units("end_to_end")
            metrics = dict(result["metrics"])
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = result["peak_rss_mb"]
            metrics["pass_ratio"] = 1.0 - result["failed"] / result["attempted"]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"bench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    for line in result["errors"][:20]:
        print(f"bench: error: {line}", file=sys.stderr)
    print("manifest " + json.dumps(result["manifest"], sort_keys=True))
    for name, unit in units.items():
        extra = f"  (n={result['attempted']} jobs)" if name.startswith("job_s.") else ""
        print(f"{name:32s} {metrics[name]!r:>24} {unit}{extra}")
    correct = not result["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

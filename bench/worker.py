"""One workload process: set up, run the CLI jobs, check them, report.

Started by ``run.py``; the last line of its standard output is a JSON object
for ``run.py`` to read. Modes:

* ``setup`` — import spexp, generate the inputs, run one warm-up job, exit;
* ``run``   — set up, then run whole passes of the job list untraced until
  ``--seconds`` have passed and at least MIN_JOBS jobs ran;
* ``trace`` — set up, then run a fixed job list twice with spans recorded
  and once untraced between them, and check that the exact counts of the
  two traced passes agree.

Every job is ``spexp.cli.main(argv)`` called in this process, one after
another (a closed loop with one client). Outputs are checked after the timed
loop, so checks never count toward job times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_JOBS = 100  # p90 needs ten samples beyond it
OVERRUN_S = 90.0  # stop a run this long past --seconds even mid-pass
JOB_FIELDS = ("kind", "n", "d", "k", "p", "m", "instances", "seed", "input_seed")
THREAD_VARS = ("SPEXP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_spexp():
    """Import spexp from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import spexp
    import spexp.cli

    if not os.path.abspath(spexp.__file__).startswith(src + os.sep):
        raise ImportError(f"spexp resolved to {spexp.__file__}, not under {src}")
    return spexp


def invoke(cli, argv):
    """Run one CLI job; returns (exit code or error text, captured stderr)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = "raised: " + traceback.format_exc(limit=3)
    return code, err.getvalue()


def git_sha() -> str:
    """HEAD of the checkout, when the checkout is a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def manifest(spexp, workload, jobs) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "git_sha": git_sha(),
        "spexp_version": spexp.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "clients": 1,
        "job_fields": list(JOB_FIELDS),
        "jobs": [[job.params.get(k) for k in JOB_FIELDS] for job in jobs],
    }


class Runner:
    def __init__(self, spexp, workload, outdir):
        self.cli = spexp.cli
        self.workload = workload
        self.outdir = outdir
        self.tracer = None

    def run_job(self, j, label):
        job = self.workload.job(j)
        out = os.path.join(self.outdir, f"{label}-{j}.json")
        if self.tracer is not None:
            self.tracer.job = j
        start = time.perf_counter()
        code, err = invoke(self.cli, job.argv + ["--out", out, "--quiet"])
        return job, out, code, err, time.perf_counter() - start


def check_outputs(records) -> dict:
    """Error message of each failed job, by its index in ``records``."""
    errors = {}
    for i, (job, out, code, err, _) in enumerate(records):
        if code != 0:
            errors[i] = f"{job.argv}: exit {code}: {err.strip()[-300:]}"
            continue
        try:
            with open(out) as fh:
                problem = job.check(json.load(fh))
        except Exception as exc:
            problem = f"output check raised {exc!r}"
        if problem:
            errors[i] = f"{job.argv}: {problem}"
    return errors


def rerun_identical(runner, records) -> list:
    """Rerun the first job and compare its output bytes with the first run."""
    job, out, code, _, _ = records[0]
    if code != 0:
        return []
    _, again, code2, err2, _ = runner.run_job(0, "rerun")
    with open(out, "rb") as a, open(again, "rb") as b:
        if code2 != 0 or a.read() != b.read():
            return [f"{job.argv}: rerun output differs from the first run ({code2}, {err2.strip()})"]
    return []


def quantile(values, q):
    # linear interpolation between order statistics (numpy's default)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(runner, seconds) -> tuple:
    workload = runner.workload
    period = len(workload.template)
    records, errors = [], []
    start = time.perf_counter()
    j = 0
    while True:
        elapsed = time.perf_counter() - start
        if j % period == 0 and j >= MIN_JOBS and elapsed >= seconds:
            break
        if elapsed >= seconds + OVERRUN_S:
            errors.append(f"run stopped after {j} jobs, {elapsed:.1f} s: fewer than "
                          f"{MIN_JOBS} jobs or a partial pass of {period}")
            break
        records.append(runner.run_job(j, "run"))
        j += 1
    wall = time.perf_counter() - start
    times = [r[4] for r in records]
    metrics = {
        "jobs_per_s": len(records) / wall,
        "job_s.p50": quantile(times, 50),
        "job_s.p90": quantile(times, 90),
    }
    return records, metrics, errors


def traced_run(spexp, runner) -> tuple:
    workload = runner.workload
    count = workload.trace_passes * len(workload.template)
    passes = {}
    # the untraced pass runs between the traced ones, so drift in machine
    # speed during the run biases the overhead ratio less
    for label in ("traced1", "untraced", "traced2"):
        tracer = tracing.Tracer(tracing.trace_points(spexp)) if label != "untraced" else None
        runner.tracer = tracer
        start = time.perf_counter()
        with tracer or contextlib.nullcontext():
            records = [runner.run_job(j, label) for j in range(count)]
        wall = time.perf_counter() - start
        passes[label] = (records, wall, tracer.take() if tracer else None)
    runner.tracer = None
    rec_1, wall_1, spans_1 = passes["traced1"]
    rec_u, wall_u, _ = passes["untraced"]
    rec_2, wall_2, spans_2 = passes["traced2"]

    errors = []
    m1, m2 = tracing.layer_metrics(spans_1), tracing.layer_metrics(spans_2)
    for name in tracing.EXACT:
        if m1[name] != m2[name]:
            errors.append(f"exact count {name} differs between traced passes: {m1[name]} != {m2[name]}")
    metrics = {
        name: (m1[name] if name in tracing.EXACT else (m1[name] + m2[name]) / 2.0)
        for name in m1
    }
    metrics["trace.overhead_ratio"] = (wall_1 + wall_2) / (2.0 * wall_u)
    spans_path = os.path.join(ROOT, ".bench_out", f"spans_{workload.name}_seed{workload.seed}.jsonl")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracing.write_spans(spans_path, [("traced1", spans_1), ("traced2", spans_2)])
    return rec_1 + rec_u + rec_2, metrics, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    spexp = import_spexp()
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.mode}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        def gen(gen_argv):
            code, err = invoke(spexp.cli, gen_argv)
            if code != 0:
                raise RuntimeError(f"input generation {gen_argv} failed: {code} {err}")

        workload.setup(gen, workdir)
        runner = Runner(spexp, workload, workdir)
        runner.run_job(0, "warmup")  # a failure here shows again as job 0's
        result = {"setup_done": time.monotonic()}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        if args.mode == "run":
            records, metrics, errors = timed_run(runner, args.seconds)
            jobs = [r[0] for r in records]
        else:
            records, metrics, errors = traced_run(spexp, runner)
            jobs = [r[0] for r in records[: len(records) // 3]]
        # taken before the checks, whose oracles are the benchmark's memory
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = check_outputs(records)
        errors += list(failures.values()) + rerun_identical(runner, records)
        result.update(
            attempted=len(records),
            failed=len(failures),
            errors=errors,
            metrics=metrics,
            peak_rss_mb=peak_rss_mb,
            manifest=manifest(spexp, workload, jobs),
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

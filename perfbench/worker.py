"""Benchmark worker: one process, one client, operations run back to back.

Started by run.py with OT_CONVERT_THREADS=1 in its environment. It imports
the CLI (which pins the BLAS pools before numpy loads), prints ``ready``,
then reads one job as a JSON line from stdin. An empty stdin means the
worker was only started to time set-up, and it exits.

A job is a list of operations (CLI argument lists) that make one round.
Rounds repeat until the next one would end after ``seconds``; every round
writes to its own output directory. In a traced job, odd rounds run with
the span wrappers installed and even rounds without, so the traced and
untraced wall times come from the same process; round 0 warms the process
up and at least one traced and one later untraced round follow it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import otconvert.cli as cli  # before numpy: honours OT_CONVERT_THREADS
import numpy as np
from spans import Tracer, layer_metrics


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.entry(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a dead worker
            traceback.print_exc()
            code = -1
    wall = perf_counter() - start
    return {"code": code, "wall_s": wall, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _peak_gemm_gflop_per_s() -> float:
    """Best rate of a 1000x512 @ 512x512 float64 GEMM on the pinned pool."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(1000, 512))
    b = rng.normal(size=(512, 512))
    best = float("inf")
    for _ in range(7):
        start = perf_counter()
        a @ b
        best = min(best, perf_counter() - start)
    return 2.0 * 1000 * 512 * 512 / best / 1e9


def run_job(job) -> dict:
    tracer = Tracer() if job["trace"] else None
    min_rounds = 3 if tracer else 1
    rounds = []
    begin = perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        round_dir = job["round_dir"].format(r=index)
        os.makedirs(round_dir, exist_ok=True)
        if traced:
            tracer.install()
        ops = []
        cpu0, wall0 = _cpu_seconds(), perf_counter()
        for op_index, argv in enumerate(job["ops"]):
            if tracer:
                tracer.op = (index, op_index)
            ops.append(_run_op([arg.format(out=round_dir) for arg in argv]))
        wall, cpu = perf_counter() - wall0, _cpu_seconds() - cpu0
        if traced:
            tracer.uninstall()
        rounds.append({"round_dir": round_dir, "traced": traced, "wall_s": wall,
                       "cpu_s": cpu, "ops": ops})
        typical = statistics.median(r["wall_s"] for r in rounds)
        if (len(rounds) >= min_rounds
                and perf_counter() - begin + typical > job["seconds"]):
            break
    result = {"rounds": rounds,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.dump(job["spans_path"])
        traced_rounds = {i for i, r in enumerate(rounds) if r["traced"]}
        result["layers"] = [layer_metrics(tracer.spans, {i}) for i in sorted(traced_rounds)]
        result["peak_gflop_per_s"] = _peak_gemm_gflop_per_s()
    return result


def main():
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if not line.strip():
        return
    job = json.loads(line)
    result = run_job(job)
    with open(job["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()

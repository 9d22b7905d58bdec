"""Benchmark of the otconvert CLI: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Set-up generates the run's inputs from the seed and starts a fresh
worker process with ``OT_CONVERT_THREADS=1`` and otconvert imported. Each of
the two steps is timed SETUP_REPEATS times, and the sum of their medians is
reported. The last worker then runs rounds of CLI operations (a closed
loop, one client) for about ``--seconds``, after which every operation's
output is checked here.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). Diagnostics go to
standard error. See README.md for the workloads, metrics and tolerances.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
SETUP_REPEATS = 7
# the whole command must end within 180 s
DEADLINE_S = 170.0
THREAD_VARS = ("OT_CONVERT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("convert-discrete", "eval-w2", "convert-fmvc", "train-not")


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _start_worker(env):
    worker = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                              env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True)
    if worker.stdout.readline().strip() != "ready":
        worker.kill()
        worker.wait()
        _fail("worker did not start; is src/otconvert present?")
    return worker


def _finish(worker, timeout):
    try:
        worker.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        _fail("worker overran the deadline")
    worker.stdout.close()
    if worker.returncode != 0:
        _fail(f"worker exited with code {worker.returncode}")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = perf_counter()
    if not (SRC / "otconvert" / "cli.py").is_file():
        _fail(f"no otconvert sources under {SRC}")

    # pin BLAS here too: this process generates inputs and runs the checks
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads  # imports numpy and otconvert.synth

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    run_dir = RUNS / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"

    generate, start_worker = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        ops = workloads.ROUNDS[args.workload](args.seed, inputs)
        generate.append(perf_counter() - start)
    worker = None
    try:
        for repeat in range(SETUP_REPEATS):
            start = perf_counter()
            worker = _start_worker(env)
            start_worker.append(perf_counter() - start)
            if repeat < SETUP_REPEATS - 1:
                worker.stdin.close()
                _finish(worker, DEADLINE_S - (perf_counter() - begin))

        job = {"ops": [op.argv for op in ops], "seconds": args.seconds,
               "trace": bool(args.trace), "round_dir": str(run_dir / "r{r}"),
               "result_path": str(run_dir / "result.json"),
               "spans_path": str(run_dir / "spans.jsonl")}
        worker.stdin.write(json.dumps(job) + "\n")
        worker.stdin.close()
        _finish(worker, DEADLINE_S - (perf_counter() - begin))
    finally:
        if worker is not None and worker.poll() is None:
            worker.kill()
            worker.wait()
    result = json.loads((run_dir / "result.json").read_text())

    attempted = failed = 0
    correct = True
    for round_ in result["rounds"]:
        out = Path(round_["round_dir"])
        for op, op_result in zip(ops, round_["ops"]):
            attempted += 1
            if op_result["code"] != 0:
                failed += 1
                correct = False
                print(f"perfbench: {' '.join(op.argv)} exited {op_result['code']}:"
                      f" {op_result['stderr'].strip()}", file=sys.stderr)
                continue
            try:
                problems = op.check(op_result, out)
            except Exception as exc:  # unreadable or missing output
                problems = [f"output could not be checked: {exc!r}"]
            if problems:
                failed += 1
                correct = False
                print(f"perfbench: {' '.join(op.argv)} in {out.name}: "
                      + "; ".join(problems), file=sys.stderr)

    rounds = result["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    wall = [r["wall_s"] for r in plain]
    if args.trace:
        traced = [r["wall_s"] for r in rounds if r["traced"]]
        warm = [r["wall_s"] for r in plain[1:]]
        layers = result["layers"]
        metrics = {name: statistics.fmean(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics["nn.peak_gflop_per_s"] = result["peak_gflop_per_s"]
        metrics["trace.wall_s"] = statistics.fmean(traced)
        metrics["trace.unaccounted_s"] = metrics["trace.wall_s"] - metrics["cli.entry.s"]
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(warm)
    else:
        metrics = {
            "setup_s": statistics.median(generate) + statistics.median(start_worker),
            "wall_s": statistics.median(wall),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mib": result["peak_rss_mib"],
        }
        low, high = _quartiles(wall)
        print(f"perfbench: {args.workload} seed {args.seed}: {len(plain)} rounds of"
              f" {len(ops)} operations, round wall median {metrics['wall_s']:.3f} s"
              f" (quartiles {low:.3f}, {high:.3f})", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        _fail(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))


if __name__ == "__main__":
    main()

"""Benchmark of the chevalley verifier: one workload per run.

    python3 bench/run.py --workload enum-dc --seed 1 --seconds 25 --trace 0

Run from a checkout that holds src/chevalley.  Workloads, metrics and bounds
are listed in BENCHMARK.json at the root of the checkout; bench/README.md
says what each workload contains and why.

--trace 0 prints the end-to-end metrics.  SETUP_SAMPLES fresh processes
only set up the workload; then fresh processes each run the whole body
once, one after another, until --seconds have passed (at least one), since
the host's speed drifts over tens of seconds and one short body would
sample a single phase of it.  setup_s is the median set-up time of all
these processes, each timed from its start to the end of its set-up;
verdict_s and peak_rss_mb are medians over the body processes.

--trace 1 runs the body once in one process with the program's public
functions wrapped (bench/spans.py), writes the spans as JSON lines under
bench/results/, and prints the per-layer metrics.

Both modes time a fixed host-speed reference loop before and after the
workload and print it on the line before the result; it is not a metric,
it lets a run taken on a slow host be recognised.  The last line of
standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 9
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def host_reference() -> float:
    """Seconds for a fixed pure-Python loop and a fixed numpy loop."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    a = np.arange(96 * 96, dtype=np.int64).reshape(96, 96) % 7
    for _ in range(150):
        a = (a @ a + 1) % 7
    return time.perf_counter() - t0


def spawn(args, phase: str, deadline: float, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--phase", phase, *extra]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} process of {args.workload} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{phase} process of {args.workload} exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["setup_end"] - t0
    return res


def run_untraced(args, deadline: float) -> tuple[list, dict]:
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    bodies = []
    start = time.monotonic()
    while not bodies or time.monotonic() - start < args.seconds:
        bodies.append(spawn(args, "body", deadline))
    setups += [b["setup_s"] for b in bodies]
    values = {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(b["verdict_s"] for b in bodies),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in bodies),
    }
    return bodies, values


def run_traced(args, deadline: float, names: list) -> tuple[list, dict]:
    trace_out = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"
    body = spawn(args, "body", deadline,
                 ["--trace-out", str(trace_out), "--layer-metrics", *names])
    return [body], body["layers"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "chevalley" / "__init__.py").is_file():
        print("bench: src/chevalley not found; run from a checkout of the program",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    RESULTS.mkdir(exist_ok=True)

    ref_before = host_reference()
    try:
        if args.trace:
            bodies, values = run_traced(args, deadline, [m["name"] for m in metrics])
        else:
            bodies, values = run_untraced(args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    ref_after = host_reference()

    attempted = sum(b["attempted"] for b in bodies)
    failed = sum(b["failed"] for b in bodies)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    info = {"host_ref_s": [ref_before, ref_after], "bodies": len(bodies),
            "verdict_s": [b["verdict_s"] for b in bodies]}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(f"host_ref_s before={ref_before:.4f} after={ref_after:.4f} "
          f"bodies={len(bodies)} verdict_s={info['verdict_s']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh process of the benchmark: set up a workload and, unless only
set-up is asked for, run its body once.

    python3 bench/worker.py --workload enum-dc --seed 1 --phase body [--trace-out FILE]

The last line of standard output is one JSON object.  `setup_end` is the
CLOCK_MONOTONIC reading (system-wide on Linux) when set-up finished; the
parent subtracts its own reading taken before it started this process.
With --trace-out the program's public functions are wrapped (bench/spans.py)
before set-up, the spans are written to that file, and the per-layer
metrics named on the command line are added to the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("setup", "body"), required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--layer-metrics", nargs="*", default=[])
    args = ap.parse_args(argv)

    import numpy as np

    import workloads
    from checks import Tally

    tracer = None
    if args.trace_out:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    setup, body = workloads.WORKLOADS[args.workload]
    ctx = setup()
    setup_end = time.monotonic()
    out = {"setup_end": setup_end}
    if args.phase == "body":
        tally = Tally()
        body(ctx, np.random.default_rng(args.seed), tally)
        out["verdict_s"] = time.monotonic() - setup_end
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["attempted"] = tally.attempted
        out["failed"] = len(tally.failures)
        for line in tally.failures:
            print(f"FAILED {line}", file=sys.stderr)
        if tracer is not None:
            tracer.write(args.trace_out)
            out["layers"] = {m: tracer.metric(m) for m in args.layer_metrics}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

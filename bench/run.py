"""sortclust benchmark: library fit/predict/explain and the CLI on make_blobs workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON line last: the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1), with "correct" false if an operation or an
output check failed. Exits 2 without a result if the sources are missing.
A results file with the machine description, raw samples, calibration times,
checks and spans goes to bench/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: with two on a 2-vCPU machine, anything else running on the
# second vCPU stalls every BLAS call, and the 16-row predict p90 spread over
# five seeds was 0.21 against 0.06 with one thread.
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sortclust" / "__init__.py").is_file():
        print(f"error: no sortclust sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is imported: pin it first.
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    start = time.perf_counter()
    import harness
    import tracing
    import_s = time.perf_counter() - start
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS[args.workload]
    run = tracing.run_traced if args.trace else harness.run_end_to_end

    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        result, detail = run(workload, args.seed, args.seconds, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    kind = "trace" if args.trace else "e2e"
    out = BENCH / "results" / f"BENCH_{stamp}_{args.workload}_seed{args.seed}_{kind}.json"
    out.parent.mkdir(exist_ok=True)
    threads = {var: BLAS_THREADS for var in THREAD_VARS}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": harness.machine(threads),
              "config": workload.__dict__, "result": result, **detail}
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    # A failed operation or check shows as "correct": false in the result line.
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

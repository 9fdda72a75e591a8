"""One repetition of one workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --work DIR
                               [--setup-only] [--trace] [--spans PATH]

Set-up (importing ftlab and building the workload's configs) is timed from
the top of this file.  The workload then runs once, timed; with --trace
every layer call inside that region records a span.  A `speed.Speedometer`
samples the machine's speed through set-up and, untraced, through the timed
region, and both times are reported raw and calibrated.  The outputs are
checked after the timed region.  The last stdout line is one JSON object
with the measurements and the checks' results.
"""

import time

from speed import Speedometer

SPEED = Speedometer()
SPEED.sample()
SETUP_START = time.perf_counter()
SPEED.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _timed(t0: float, t1: float, name: str) -> dict:
    net, scale = SPEED.calibrated(t0, t1)
    return {name: net * scale, f"{name[:-2]}_raw_s": t1 - t0, f"{name[:-2]}_speed": scale}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    if not (SRC / "ftlab" / "__init__.py").is_file():
        print(f"ftlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads

    args.work.mkdir(parents=True, exist_ok=True)
    job = workloads.prepare(args.workload, args.seed, args.work)
    setup_end = time.perf_counter()
    SPEED.sample()
    result = {**_timed(SETUP_START, setup_end, "setup_s"),
              "machine": {"nproc": len(os.sched_getaffinity(0)),
                          "python": platform.python_version(),
                          "numpy": np.__version__}}
    if args.setup_only:
        SPEED.stop()
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        SPEED.stop()   # the probes would land in the spans
        import tracing
        tracer = tracing.Tracer()
        from ftlab import cli
        tracer.install(extra=[(cli, "_run_and_write", "cli.run"),
                              (workloads, "run_member", "bench.member")])
        timed = tracer.wrap(job.run, "bench.workload")
    else:
        timed = job.run
    SPEED.sample()
    start = time.perf_counter()
    try:
        outcome = timed()
    finally:
        end = time.perf_counter()
        SPEED.sample()
        SPEED.stop()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, general = job.check(outcome)
    digests = workloads.load_digests()
    known = [c for c in checks if c.key in digests]
    result.update(
        **_timed(start, end, "wall_s"), peak_rss_mb=peak_rss_mb,
        runs=len(checks), steps=sum(c.steps for c in checks),
        problems={c.key: c.problems for c in checks if not c.ok}, general=general,
        quality={c.key: c.quality for c in checks},
        digests={c.key: c.digest for c in checks},
        digest_checked=len(known),
        digest_mismatches=sum(c.digest != digests[c.key] for c in known))
    if tracer is not None:
        spans = tracer.spans()
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            spans.save(args.spans)
        result.update(layers=tracing.layer_totals(spans),
                      thread_s=tracing.thread_seconds(spans),
                      busy_frac=tracing.busy_fraction(spans, "cli.sweep", "cli.run"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

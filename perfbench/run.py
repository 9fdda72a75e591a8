"""Benchmark entry point: one workload, repeated in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it reads the workloads and metrics from
BENCHMARK.json there.  Each repetition is a new `child.py` process, so set-up
time and peak memory belong to that workload alone.  Repetitions run one
after another until `--seconds` have passed (at least one always runs).

--trace 0 reports the end-to-end metrics, medians over the repetitions;
set-up time is the median over the repetitions and SETUP_PROBES
set-up-only processes run before each repetition.  Times are calibrated
against the machine's speed while they ran (see speed.py); the raw times
are kept in the result record.  --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, with the
tracing overhead.

Every metric is printed as `name value unit`, then the machine facts, and
the last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The same object, with the machine facts, is written under
.perfbench_out/.  Without ftlab's sources next to BENCHMARK.json the command
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).with_name("child.py")
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3   # set-up-only processes before each repetition
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def _child(workload: str, seed: int, work: Path, *flags: str) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--work", str(work), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(flags) or 'run'} timed out after {CHILD_TIMEOUT_S} s") \
            from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _worst_quality(rep: dict) -> dict:
    """Worst value of each solution-quality output over one repetition's runs."""
    worst: dict = {}
    for quality in rep["quality"].values():
        for name, value in quality.items():
            worst[name] = max(worst.get(name, value), value)
    return worst


def _consistent(reps: list) -> list:
    """Problems that show up as repetitions disagreeing on deterministic output."""
    first = reps[0]
    return [f"repetition {i} gave other {what}" for i, rep in enumerate(reps[1:], 1)
            for what in ("quality", "digests") if rep[what] != first[what]]


def end_to_end(workload: str, seed: int, seconds: float, work: Path):
    setups, reps = [], []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        # set-up takes ~0.2 s, so probes spread over the run see the same
        # machine as the repetitions do
        setups += [_child(workload, seed, work / f"setup{i}", "--setup-only")
                   for i in range(SETUP_PROBES)]
        reps.append(_child(workload, seed, work / f"rep{len(reps)}"))
    med = statistics.median
    setups += reps
    values = {
        "wall_s": med(r["wall_s"] for r in reps),
        "runs_per_s": med(r["runs"] / r["wall_s"] for r in reps),
        "step_us": med(1e6 * r["wall_s"] / r["steps"] for r in reps),
        "setup_s": med(r["setup_s"] for r in setups),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }
    values.update(_worst_quality(reps[0]))
    raw = {"wall_raw_s": med(r["wall_raw_s"] for r in reps),
           "setup_raw_s": med(r["setup_raw_s"] for r in setups),
           "wall_speed": med(r["wall_speed"] for r in reps),
           "setup_speed": med(r["setup_speed"] for r in setups)}
    return values, reps, raw


def per_layer(workload: str, seed: int, seconds: float, work: Path, spans: list):
    plain, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(_child(workload, seed, work / f"plain{len(plain)}"))
        else:
            traced.append(_child(workload, seed, work / f"traced{len(traced)}", "--trace",
                                 "--spans", str(OUT / f"spans-{workload}.npz")))
    med = statistics.median
    values = {
        "trace_overhead": med(r["wall_s"] for r in traced) / med(r["wall_s"] for r in plain),
        "trace.wall_s": med(r["wall_raw_s"] for r in traced),
        "trace.thread_s": med(r["thread_s"] for r in traced),
        "cli.sweep.busy_frac": med(r["busy_frac"] for r in traced),
        "other.self_s": med(sum(s for name, (_, s) in r["layers"].items() if name not in spans)
                            for r in traced),
        "sim.trace_digest_checked": max(r["digest_checked"] for r in plain + traced),
        "sim.trace_digest_mismatches": max(r["digest_mismatches"] for r in plain + traced),
    }
    problems = []
    for span in spans:
        calls = {r["layers"].get(span, (0, 0.0))[0] for r in traced}
        if len(calls) > 1:
            problems.append(f"{span}.calls differs between repetitions: {sorted(calls)}")
        values[f"{span}.calls"] = min(calls)
        values[f"{span}.self_s"] = med(r["layers"].get(span, (0, 0.0))[1] for r in traced)
    raw = {"wall_raw_s": med(r["wall_raw_s"] for r in plain),
           "wall_speed": med(r["wall_speed"] for r in plain)}
    return values, plain + traced, problems, raw


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ftlab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no ftlab checkout at {ROOT}: need src/ftlab and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    spans = [m["name"][:-len(".calls")] for m in spec["per_layer"]
             if m["name"].endswith(".calls")]

    work = OUT / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        if args.trace:
            values, reps, problems, raw = per_layer(args.workload, args.seed, args.seconds,
                                                    work, spans)
        else:
            values, reps, raw = end_to_end(args.workload, args.seed, args.seconds, work)
            problems = []
    except ChildFailed as exc:
        print(f"benchmark repetition failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems += _consistent(reps)
    attempted = sum(r["runs"] for r in reps)
    failed = sum(len(r["problems"]) for r in reps)
    for rep in reps:
        problems += rep["general"]
        for key, found in rep["problems"].items():
            problems.append(f"{key}: {'; '.join(found)}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    machine = reps[0]["machine"]
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print("uncalibrated " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items())
          + f" repetitions={len(reps)}")
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "machine": machine,
                                  "repetitions": len(reps),
                                  "repetition_wall_s": [r["wall_s"] for r in reps],
                                  "repetition_wall_raw_s": [r["wall_raw_s"] for r in reps],
                                  "uncalibrated": raw,
                                  **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

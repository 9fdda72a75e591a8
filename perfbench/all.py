"""Run every workload of BENCHMARK.json and print one table.

    python3 perfbench/all.py [--seed 1] [--seconds S] [--trace 0|1]

Each workload runs through perfbench/run.py, the command BENCHMARK.json
names (`--seconds` defaults to BENCHMARK.json's run_seconds).  The table
lists every metric with its unit, plus failed_frac (failed runs / attempted
runs) per workload; the same figures and the machine facts go to
.perfbench_out/summary.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: benchmark exited with {proc.returncode}", file=sys.stderr)
            return 1
        record = ROOT / ".perfbench_out" / \
            f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        results[workload] = json.loads(record.read_text())

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(results)
    print(f"{'metric':40} {'unit':8} " + " ".join(f"{n:>12}" for n in names))
    for metric in listed:
        cells = " ".join(f"{results[n]['metrics'][metric['name']]['value']:>12.6g}"
                         for n in names)
        print(f"{metric['name']:40} {metric['unit']:8} {cells}")
    fracs = {n: r["failed"] / r["attempted"] for n, r in results.items()}
    print(f"{'failed_frac':40} {'ratio':8} " + " ".join(f"{fracs[n]:>12.6g}" for n in names))
    print(f"{'correct':40} {'':8} " + " ".join(f"{str(results[n]['correct']):>12}"
                                                for n in names))
    machine = next(iter(results.values()))["machine"]
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    summary = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "machine": machine, "failed_frac": fracs, "results": results}
    (ROOT / ".perfbench_out" / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Interleaved pairs of ``perfbench/run.py`` runs between a git revision and
the working tree, summarised as a ``BENCH_<n>.json`` records them.

    python tests/bench_pairs.py REV [--pairs 10] [--seed 3011] [--seconds S]
                                    [--workloads NAME,...] [--out FILE]

REV's ``src/``, ``perfbench/`` and ``BENCHMARK.json`` are exported with
``step_ab.py``'s ``git archive`` export, and the working tree's are copied,
side by side into one temporary directory, so that both sides write their
outputs to the same file system.  Pair i runs on seed ``--seed`` + i: for
each workload, ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once on each side, REV first on even i and the working tree
first on odd i.  ``--seconds`` defaults to BENCHMARK.json's run_seconds.

For each workload and each end-to-end metric of the working tree's
BENCHMARK.json, the summary holds each side's median and quartiles
(numpy's linear percentiles), the pairs the working tree is better in and
those tied (by the metric's "better" direction), and the relative change of
the medians.  The table printed at the end gives each metric's verdicts
under BENCHMARK.json's rules, whose bounds it reads and never changes:

* ``WORSE`` if the working tree's median is worse than REV's by more than
  the metric's bound, else ``ok``;
* ``unresolved`` if REV's quartile spread is wider than the bound and some
  run of the working tree is not better than every run of REV;
* ``gain`` if the working tree is better in at least nine tenths of the
  pairs and the medians differ by more than REV's quartile spread.

Below the table, ``workload_problems`` names each WORSE metric, each
workload whose share of failed runs is larger on the working tree, and each
whose result is not ``correct``; any of them makes the exit status 1.  ``--out``
writes the pairs and summaries as ``<workload>_pairs`` entries, with the
revision, the command and the machine, into a JSON file; keys already in
that file that the run does not write (a description, notes) are kept.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from step_ab import ROOT, export

PATHS = ("src", "perfbench", "BENCHMARK.json")


def run_side(root: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(values, machine) of one ``perfbench/run.py`` run in ``root``: each
    end-to-end metric's value, with ``correct``, ``failed`` and
    ``attempted``, and the machine facts of its result record."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py {workload} seed {seed} in {root} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values.update(correct=result["correct"], failed=result["failed"],
                  attempted=result["attempted"])
    record = root / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0.json"
    return values, json.loads(record.read_text())["machine"]


def better(metric: dict, a: float, b: float) -> bool:
    """Whether a reads better than b for ``metric``."""
    return a < b if metric["better"] == "lower" else a > b


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change
    is better in and those tied, and the relative change of the medians."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        entry = {}
        for side, values in (("parent", parent), ("change", change)):
            q1, med, q3 = np.percentile(values, [25, 50, 75]).tolist()
            entry.update({f"{side}_median": med, f"{side}_q1": q1, f"{side}_q3": q3})
        entry["change_better_pairs"] = sum(better(metric, c, p) for p, c in zip(parent, change))
        entry["tied_pairs"] = sum(c == p for p, c in zip(parent, change))
        entry["median_change_rel"] = (entry["change_median"] / entry["parent_median"] - 1.0
                                      if entry["parent_median"] else None)
        summary[name] = entry
    return summary


def verdicts(metric: dict, entry: dict, pairs: list) -> list:
    """BENCHMARK.json's verdicts on one metric's summary (see the module
    docstring)."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    med, spread = entry["parent_median"], entry["parent_q3"] - entry["parent_q1"]
    worse = sign * (entry["change_median"] - med) > bound * abs(med)
    found = ["WORSE" if worse else "ok"]
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    if spread > bound * abs(med) and not all(better(metric, c, p)
                                             for c in change for p in parent):
        found.append("unresolved")
    if (entry["change_better_pairs"] >= math.ceil(0.9 * len(pairs))
            and abs(entry["change_median"] - med) > spread):
        found.append("gain")
    return found


def workload_problems(workload: str, runs: list, metrics: list, summary: dict) -> list:
    """One line per fault of the working tree on ``workload``: each metric
    whose verdicts include WORSE, a larger share of failed runs than REV's,
    and each side with a run that is not ``correct``."""
    problems = [f"{workload}: {metric['name']} is WORSE than the bound {metric['bound']:g} "
                f"allows" for metric in metrics
                if "WORSE" in verdicts(metric, summary[metric["name"]], runs)]
    share = {side: sum(p[side]["failed"] for p in runs)
             / max(1, sum(p[side]["attempted"] for p in runs)) for side in ("parent", "change")}
    if share["change"] > share["parent"]:
        problems.append(f"{workload}: failed share {share['change']:.3g} against "
                        f"{share['parent']:.3g}")
    for side in ("parent", "change"):
        if not all(p[side]["correct"] for p in runs):
            problems.append(f"{workload}: a {side} run is not correct")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3011, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", type=lambda text: text.split(","), default=names,
                        help=f"comma-separated workloads: {','.join(names)}")
    parser.add_argument("--out", type=Path, help="JSON file to write the pairs into")
    args = parser.parse_args()
    unknown = [name for name in args.workloads if name not in names]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; known: {', '.join(names)}")
    metrics = spec["end_to_end"]
    rev = subprocess.run(["git", "rev-parse", "--short", args.rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()

    pairs = {w: [] for w in args.workloads}
    machine = None
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": export(args.rev, Path(tmp) / "parent", PATHS),
                 "change": Path(tmp) / "change"}
        for path in PATHS:
            src, dest = ROOT / path, sides["change"] / path
            if src.is_dir():
                shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest)
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in args.workloads:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], machine = run_side(sides[side], workload, seed, args.seconds)
                pairs[workload].append(pair)
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    record = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    record.update(parent_commit=rev, machine=machine, commands={"pairs": (
        f"python tests/bench_pairs.py {args.rev} --pairs {args.pairs} --seed {args.seed} "
        f"--seconds {args.seconds:g}: perfbench/run.py --trace 0 per workload, in copies of "
        f"the parent's and the change's trees, the parent first on even pair indices; seeds "
        f"{args.seed}-{args.seed + args.pairs - 1}; quartiles are numpy's linear percentiles")})
    print(f"{'workload':10} {'metric':12} {rev + ' median':>16} {'tree median':>14} "
          f"{'change':>9} {'better':>7} {'tied':>5}  verdict")
    problems = []
    for workload, runs in pairs.items():
        summary = summarize(runs, metrics)
        record[f"{workload}_pairs"] = {"summary": summary, "pairs": runs}
        for metric in metrics:
            entry = summary[metric["name"]]
            rel = entry["median_change_rel"]
            print(f"{workload:10} {metric['name']:12} {entry['parent_median']:16.6g} "
                  f"{entry['change_median']:14.6g} "
                  f"{'n/a' if rel is None else f'{100.0 * rel:+.2f}%':>9} "
                  f"{entry['change_better_pairs']:>7} {entry['tied_pairs']:>5}  "
                  f"{' '.join(verdicts(metric, entry, runs))}")
        problems += workload_problems(workload, runs, metrics, summary)
    for problem in problems:
        print(problem)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""In-process A/B of the step loop's cost between the working tree and a git
revision, in microseconds and in Python-level calls per step, and of the
memory a run stages beyond its trace.

    python tests/step_ab.py REV [--rounds 10] [--runs NAME,...]

REV's ``src/`` is exported with ``git archive`` into a temporary directory.
Each round runs every entry of ``RUNS`` once per side, each in a fresh
process that times ``sim.run_closed_loop`` over T_FINAL simulated seconds
three times and keeps the fastest; the time covers the loop and its
post-loop monitors and is divided by the number of steps.  ``--runs``
times only the named entries, so that a change to one family need not
time all eight.  The two sides alternate which runs first from one round
to the next.  The table gives
each side's median over the rounds, the median of the per-round ratios
tree / REV as a change, the number of rounds in which the working tree was
faster, and each side's Python-level calls per step, counted once per run
and side after the timing by ``conftest.calls_per_step``, the counter of
the call-budget test in ``test_sim.py``.  The same untimed pass takes each
side's tracemalloc peak during ``run_closed_loop`` beyond the bytes of the
trace it returns, in MB (``conftest.run_staging``, the measure of the
bounded-staging test in ``test_sim.py``), and the bytes of that trace per
1 000 steps, in MB (``conftest.trace_bytes``), so that a change in what a
run keeps shows beside a change in what it stages.

This measures the library's step path alone, without the imports, the CSV
and the metrics that ``perfbench/`` times end to end; it serves changes of
a few percent, which the end-to-end spread hides.
"""

import argparse
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> SimConfig fields: the four families in case1 on force balance (the
# default parameterization), the ensemble's c2 / case2 / power-balance
# family, and the other case2 runs of the grid workload
RUNS = {
    "c1": {"controller": "c1"},
    "c2": {"controller": "c2"},
    "c2/case2/pb": {"controller": "c2", "scenario": "case2",
                    "parameterization": "power_balance"},
    "c3": {"controller": "c3"},
    "c4": {"controller": "c4"},
    "c1/case2": {"controller": "c1", "scenario": "case2"},
    "c3/case2": {"controller": "c3", "scenario": "case2"},
    "c4/case2": {"controller": "c4", "scenario": "case2"},
}
REPEATS = 3
T_FINAL = 2.0    # simulated seconds per run: 4000 steps at the default dt


def child(name: str, count: bool) -> None:
    """Print the fastest of REPEATS runs of ``name``, in µs per step, and
    then, if ``count``, its Python-level calls per step, the MB its run
    stages beyond its trace and the MB of its trace per 1 000 steps."""
    import time

    from ftlab import sim

    config = sim.SimConfig(t_final=T_FINAL, **RUNS[name])
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        sim.run_closed_loop(config)
        best = min(best, time.perf_counter() - start)
    print(1e6 * best / config.n_steps)
    if count:
        from conftest import calls_per_step, run_staging, trace_bytes

        print(calls_per_step(RUNS[name]))
        trace, staged = run_staging(config)
        print(staged / 1e6)
        print(trace_bytes(trace) / 1e6 * 1000 / config.n_steps)


def measure(src: Path, name: str, count: bool) -> list:
    """[µs per step] of ``name`` on the sources ``src``, with the calls per
    step, the MB staged beyond the trace and the trace's MB per 1 000 steps
    appended if ``count``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, __file__, "--child", name, str(int(count))],
                         env=env, check=True, capture_output=True, text=True).stdout
    return [float(x) for x in out.split()]


def export(rev: str, dest: Path, paths=("src",)) -> Path:
    """Extract REV's ``paths`` (directories or files of the repository) under
    dest and return dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, *paths], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3] == "1")
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--runs", type=lambda text: text.split(","), default=list(RUNS),
                        help=f"comma-separated names of RUNS to time: {','.join(RUNS)}")
    args = parser.parse_args()
    unknown = [name for name in args.runs if name not in RUNS]
    if unknown:
        parser.error(f"unknown run(s) {', '.join(unknown)}; known: {', '.join(RUNS)}")

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"tree": ROOT / "src", "rev": export(args.rev, Path(tmp)) / "src"}
        times = {name: {"tree": [], "rev": []} for name in args.runs}
        counted = {name: {} for name in args.runs}
        for r in range(args.rounds):
            order = ("tree", "rev") if r % 2 == 0 else ("rev", "tree")
            for name in args.runs:
                for side in order:
                    us, *extra = measure(sides[side], name, r == 0)
                    times[name][side].append(us)
                    if extra:
                        counted[name][side] = extra
            print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)

    print(f"{'run':14} {'tree us/step':>13} {args.rev + ' us/step':>16} {'change':>9} "
          f"{'rounds faster':>14} {'tree calls':>11} {args.rev + ' calls':>13} "
          f"{'tree MB':>8} {args.rev + ' MB':>10} "
          f"{'tree trace MB/1k':>17} {args.rev + ' trace MB/1k':>19}")
    for name, t in times.items():
        tree, rev = statistics.median(t["tree"]), statistics.median(t["rev"])
        ratio = statistics.median(a / b for a, b in zip(t["tree"], t["rev"]))
        won = sum(a < b for a, b in zip(t["tree"], t["rev"]))
        (tree_calls, tree_mb, tree_kept), (rev_calls, rev_mb, rev_kept) = (
            counted[name]["tree"], counted[name]["rev"])
        print(f"{name:14} {tree:13.2f} {rev:16.2f} {100.0 * (ratio - 1.0):+8.1f}% "
              f"{won:>9}/{args.rounds} {tree_calls:11g} {rev_calls:13g} "
              f"{tree_mb:8.2f} {rev_mb:10.2f} {tree_kept:17.3f} {rev_kept:19.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

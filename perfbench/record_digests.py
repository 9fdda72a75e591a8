"""Re-record the reference trace digests in perfbench/digests.json.

    python3 perfbench/record_digests.py

Runs each workload once per seed in DIGEST_SEEDS (reference and grid do not
depend on the seed, so they run once) and stores the SHA-256 of every run's trace CSV,
keyed as the benchmark reports them.  Runs whose checks fail are not
recorded.  Use it after a deliberate change to the numerics, and say in the
change's notes that the digests were re-recorded and why.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_out" / "record-digests"
DIGEST_SEEDS = range(51)


def main() -> int:
    runs = [("reference", DIGEST_SEEDS[0]), ("grid", DIGEST_SEEDS[0])]
    runs += [("ensemble", seed) for seed in DIGEST_SEEDS]
    digests = {}
    for workload, seed in runs:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--work", str(WORK)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        digests.update({k: v for k, v in result["digests"].items()
                        if k not in result["problems"]})
        print(f"{workload} seed {seed}: {len(result['digests'])} runs, "
              f"{len(result['problems'])} failed")
    (HERE / "digests.json").write_text(json.dumps(dict(sorted(digests.items())), indent=1)
                                       + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

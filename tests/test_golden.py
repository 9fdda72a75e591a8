"""Golden traces: every recorded bit of the reference runs is pinned.

Each digest is the SHA-256 of the trace's CSV serialization, then the name,
dtype, shape and raw bytes of every diagnostics array and of every series
of the extension's history that ``drem.replay`` rebuilds (``w`` and
``z_forget``, or ``phi1`` and ``phi2``), in name order, then the
``metrics.txt`` text of ``compute_metrics`` at its defaults, so a change that
moves any float of any recorded series, in the CSV or only in memory, or any
printed metric, fails here.  The session fixtures of ``conftest.py`` are
hashed as they are (they cost no extra simulation time); ``EXTRA_RUNS`` adds
short runs of the controller / extension / parameterization combinations the
fixtures miss.

A change that alters the numerics on purpose re-records the digests of the
runs it moves with

    PYTHONPATH=src python tests/test_golden.py NAME...

(every run if no NAME is given), which prints for each run it re-records
whether its digest changed, and states the measured deviation in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import history, run
from ftlab import sim
from ftlab.control import FtPdGains

GOLDEN = Path(__file__).with_name("golden_digests.json")

# session fixture name -> run(...) arguments, as conftest.py builds them
FIXTURE_RUNS = {
    "c1_case1": ("c1", "case1", {}),
    "c2_case1": ("c2", "case1", {}),
    "c3_case1": ("c3", "case1", {}),
    "c4_case1": ("c4", "case1", {}),
    "c1_case2": ("c1", "case2", {}),
    "c2_case2": ("c2", "case2", {}),
    "c3_case2": ("c3", "case2", {}),
    "c4_case2": ("c4", "case2", {}),
    "c1_case1_pb": ("c1", "case1", {"parameterization": "power_balance"}),
    "c2_case1_pb": ("c2", "case1", {"parameterization": "power_balance"}),
}

THETA_HAT0_FULL = (0.1, 0.2, 0.3, 0.4, 0.5)

# combinations no fixture covers, at a 1 s horizon; the r1 = 1.4 runs have
# b = 0.6, so they pin that the composite law's saturation exponent is b
EXTRA_RUNS = {
    "c1_case1_1s": ("c1", "case1", {"t_final": 1.0}),
    "c2_case1_1s": ("c2", "case1", {"t_final": 1.0}),
    "c1_case2_pb": ("c1", "case2", {"parameterization": "power_balance", "t_final": 1.0}),
    "c2_case2_pb": ("c2", "case2", {"parameterization": "power_balance", "t_final": 1.0}),
    "c3_case1_pb": ("c3", "case1", {"parameterization": "power_balance", "t_final": 1.0}),
    "c3_case2_theta0": ("c3", "case2", {"theta_hat0": THETA_HAT0_FULL, "t_final": 1.0}),
    "c4_case1_theta0": ("c4", "case1", {"theta_hat0": THETA_HAT0_FULL, "t_final": 1.0}),
    "c1_case2_r14_theta0": ("c1", "case2", {"ftpd": FtPdGains(r1=1.4),
                                            "theta_hat0": (0.5, 4.0), "t_final": 1.0}),
    "c2_case1_r14": ("c2", "case1", {"ftpd": FtPdGains(r1=1.4), "t_final": 1.0}),
}


def trace_digest(trace) -> str:
    h = hashlib.sha256(sim.trace_csv_string(trace).encode())
    arrays = {**trace.diagnostics, **history(trace)}
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(sim.compute_metrics(trace).to_text().encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(FIXTURE_RUNS))
def test_fixture_trace_matches_golden(name, golden, request):
    assert trace_digest(request.getfixturevalue(name)) == golden[name]


@pytest.mark.parametrize("name", sorted(EXTRA_RUNS))
def test_extra_trace_matches_golden(name, golden):
    controller, scenario, kwargs = EXTRA_RUNS[name]
    assert trace_digest(run(controller, scenario, **kwargs)) == golden[name]


def test_golden_covers_every_run(golden):
    assert set(golden) == set(FIXTURE_RUNS) | set(EXTRA_RUNS)


def rerecord(names) -> None:
    """Re-record the digests of the named runs and print, per run, whether
    its digest changed; every other stored digest is kept as it is."""
    runs = {**FIXTURE_RUNS, **EXTRA_RUNS}
    unknown = sorted(set(names) - set(runs))
    if unknown:
        raise SystemExit(f"unknown run(s): {', '.join(unknown)}; known: {', '.join(sorted(runs))}")
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    digests = dict(stored)
    for name in names:
        controller, scenario, kwargs = runs[name]
        digests[name] = trace_digest(run(controller, scenario, **kwargs))
        print(f"{name}: {'unchanged' if digests[name] == stored.get(name) else 'changed'}")
    GOLDEN.write_text(json.dumps(dict(sorted(digests.items())), indent=2) + "\n")
    print(f"re-recorded {len(names)} of {len(digests)} digests in {GOLDEN}")


if __name__ == "__main__":
    rerecord(sys.argv[1:] or sorted({**FIXTURE_RUNS, **EXTRA_RUNS}))

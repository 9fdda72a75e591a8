import dataclasses
import gc
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import ftlab
from ftlab import drem
from ftlab.drem import KreisselmeierDre
from ftlab.regression import RegressionPair

# property tests share a session with multi-second simulation fixtures;
# wall-clock deadlines would only add flakiness on loaded machines
settings.register_profile("ftlab", deadline=None)
settings.load_profile("ftlab")

DT = 5e-4


def run(controller, scenario="case1", **kwargs):
    cfg = ftlab.SimConfig(controller=controller, scenario=scenario, **kwargs)
    start = time.perf_counter()
    trace = ftlab.run_closed_loop(cfg)
    trace.meta["wall_time"] = time.perf_counter() - start
    return trace


def calls_per_step(fields: dict) -> float:
    """Python-level calls per step of a run of the SimConfig ``fields``, as
    ``sys.setprofile`` sees them ("call" events: functions, methods,
    property getters, generator resumptions and, on Python 3.11,
    comprehensions): the calls of a 0.1 s run less those of a 0.05 s run,
    over the difference of their step counts, so that the set-up and the
    monitors after the loop cancel.  A first run, not counted, fills the
    caches that set-up keeps across runs, and the garbage collector is off
    while the runs are counted, so that no finalizer of an object made
    elsewhere runs among their calls."""
    ftlab.run_closed_loop(ftlab.SimConfig(t_final=0.05, **fields))
    counts = []
    for t_final in (0.05, 0.1):
        config = ftlab.SimConfig(t_final=t_final, **fields)
        seen = [0]

        def count(frame, event, arg):
            if event == "call":
                seen[0] += 1

        gc.collect()
        gc.disable()
        sys.setprofile(count)
        try:
            ftlab.run_closed_loop(config)
        finally:
            sys.setprofile(None)
            gc.enable()
        counts.append((seen[0], config.n_steps))
    (calls0, steps0), (calls1, steps1) = counts
    return (calls1 - calls0) / (steps1 - steps0)


def traced_peak(fn, *args) -> tuple:
    """(fn's result, the peak of tracemalloc's traced bytes during the call
    above those traced when it started)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base


def trace_buffers(trace) -> list:
    """The distinct buffers the trace's series and diagnostics hold, each
    buffer once however many views of it the trace holds."""
    owners = {}
    for arr in [getattr(trace, f.name) for f in dataclasses.fields(trace)] \
            + list(trace.diagnostics.values()):
        if isinstance(arr, np.ndarray):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            owners[id(arr)] = arr
    return list(owners.values())


def trace_bytes(trace) -> int:
    """Bytes of the distinct buffers the trace holds (``trace_buffers``)."""
    return sum(arr.nbytes for arr in trace_buffers(trace))


def run_staging(config) -> tuple:
    """(trace, bytes) of ``run_closed_loop(config)``: its traced peak beyond
    the bytes of the trace it returns.  A 0.05 s run of the same config, not
    counted, first fills the caches that set-up keeps across runs."""
    ftlab.run_closed_loop(dataclasses.replace(config, t_final=0.05))
    trace, peak = traced_peak(ftlab.run_closed_loop, config)
    return trace, peak - trace_bytes(trace)


def history(trace) -> dict:
    """The per-step history of the trace's extension, which ``drem.replay``
    rebuilds from the run's recorded regression pairs."""
    return drem.replay(trace.extension, trace.diagnostics["omega"], trace.diagnostics["y"])


def at(trace, t):
    """Record index for time t on the uniform grid."""
    return int(round(t / trace.meta["dt"]))


@pytest.fixture(scope="session")
def plant():
    return ftlab.Plant.two_link()


@pytest.fixture(scope="session")
def c1_case1():
    return run("c1")


@pytest.fixture(scope="session")
def c2_case1():
    return run("c2")


@pytest.fixture(scope="session")
def c3_case1():
    return run("c3")


@pytest.fixture(scope="session")
def c4_case1():
    return run("c4")


@pytest.fixture(scope="session")
def c1_case2():
    return run("c1", "case2")


@pytest.fixture(scope="session")
def c2_case2():
    return run("c2", "case2")


@pytest.fixture(scope="session")
def c3_case2():
    return run("c3", "case2")


@pytest.fixture(scope="session")
def c4_case2():
    return run("c4", "case2")


@pytest.fixture(scope="session")
def c1_case1_pb():
    return run("c1", parameterization="power_balance")


@pytest.fixture(scope="session")
def c2_case1_pb():
    return run("c2", parameterization="power_balance")


def theta_tilde_u(trace):
    true = trace.meta["theta_u_true"]
    return np.linalg.norm(trace.theta_hat[:, -true.size:] - true, axis=1)


class MixStub:
    """A regressor extension whose step leaves it as it is and whose mix
    writes the given row [Delta | Y]: drives a controller's step on a
    chosen mixing output."""

    kind = "stub"

    def __init__(self, row):
        self.row = [float(x) for x in row]
        self.dim = len(self.row) - 1

    def step(self, pair):
        pass

    def mix(self, out):
        out[:] = self.row
        return out.tolist()


class PairStub:
    """A regression filter whose step returns one fixed pair, by default a
    zero force-balance pair."""

    def __init__(self, pair=None):
        self.pair = pair if pair is not None else RegressionPair(np.zeros(2), np.zeros((2, 5)))

    def step(self, q, qd, tau, psi):
        return self.pair


def step_once(ctrl, e1, q, qd, psi, pair=None, dt=DT):
    """One ``step`` of ``ctrl`` at the step size ``dt`` as sample 0 of a
    one-sample record, its regression filter a PairStub of ``pair``; a c3
    controller built without an extension gets a fresh Kreisselmeier one at
    ``dt``.  Returns (tau, Delta)."""
    if ctrl.extension is None:
        ctrl.extension = KreisselmeierDre(5, dt=dt)
    ctrl.regression = PairStub(pair)
    ctrl.dt = dt
    ctrl.diagnostics(1)
    return ctrl.step(0, e1, q, qd, psi)


def composite_step(ctrl, e1, e2, psi, delta, y_u, dt):
    """One step of the CompositeFtController ``ctrl`` at the velocity error
    ``e2``, with an extension that mixes Delta = ``delta`` and the theta_u
    block ``y_u`` of Y; returns the torque."""
    ctrl.extension = MixStub([delta, 0.0, 0.0, 0.0, *y_u])
    return step_once(ctrl, e1, None, e2, psi, dt=dt)[0]


def composite_rate(ctrl, e1, e2, psi, delta, y_u):
    """The composite rate of ``ctrl``'s step, as the difference of one Euler
    step of unit length; ``ctrl`` is left where it was."""
    before = ctrl.estimate
    composite_step(ctrl, e1, e2, psi, delta, y_u, 1.0)
    rate = np.subtract(ctrl.estimate, before)
    ctrl.estimate = before
    return rate

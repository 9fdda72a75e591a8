import time

import numpy as np
import pytest
from hypothesis import settings

import ftlab

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
    writes the given row [Delta | Y]: drives a controller's update on a
    chosen mixing output."""

    kind = "stub"

    def __init__(self, row):
        self.row = [float(x) for x in row]
        self.dim = len(self.row) - 1

    def step(self, pair, dt):
        pass

    def mix(self, out):
        out[:] = self.row
        return out.tolist()

    def diagnostics(self, n_rec):
        return {}

    def record(self, diag, k):
        pass


def composite_step(ctrl, e1, e2, psi, delta, y_u, dt):
    """One torque and update of the CompositeFtController ``ctrl`` at the
    velocity error ``e2``, with an extension that mixes Delta = ``delta`` and
    the theta_u block ``y_u`` of Y; returns the torque."""
    ctrl.extension = MixStub([delta, 0.0, 0.0, 0.0, *y_u])
    ctrl.diagnostics(1)
    tau = ctrl.torque(e1, None, e2, psi, None)
    ctrl.update(None, dt, 0)
    return tau


def composite_rate(ctrl, e1, e2, psi, delta, y_u):
    """The composite rate of ``ctrl``'s update, as the difference of one Euler
    step of unit length; ``ctrl`` is left where it was."""
    before = ctrl.estimate
    composite_step(ctrl, e1, e2, psi, delta, y_u, 1.0)
    rate = np.subtract(ctrl.estimate, before)
    ctrl.estimate = before
    return rate

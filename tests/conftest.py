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

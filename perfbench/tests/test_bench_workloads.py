"""The ensemble workload's generator."""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import workloads  # noqa: E402
from ftlab.plant import Plant  # noqa: E402


def test_same_seed_gives_same_configs():
    first = workloads.ensemble_configs(7)
    again = workloads.ensemble_configs(7)
    assert len(first) == workloads.ENSEMBLE_MEMBERS
    for a, b in zip(first, again):
        assert np.array_equal(a.q0, b.q0)
        assert np.array_equal(a.theta_hat0, b.theta_hat0)
        assert workloads.member_key(a) == workloads.member_key(b)
    other = workloads.ensemble_configs(8)
    assert [workloads.member_key(c) for c in other] != [workloads.member_key(c) for c in first]


def test_every_generated_config_validates_and_stays_in_range():
    for seed in range(5):
        for config in workloads.ensemble_configs(seed):
            config.validate()
            assert (config.controller, config.scenario, config.effective_parameterization) \
                == ("c2", "case2", "power_balance")
            assert np.all(np.abs(config.q0 - config.q_d) <= 1.0)
            theta_u = Plant.two_link(config.params).theta.theta_u
            bound = 2.0 * np.linalg.norm(config.theta_bar)
            assert np.linalg.norm(config.theta_hat0 - theta_u) < bound


def test_a_failed_sweep_job_fails_only_its_own_run(tmp_path):
    (tmp_path / "grid").mkdir()
    runs = workloads.prepare("grid", 0, tmp_path / "grid").runs
    job = workloads.CliJob("sweep", "sim.t_final = 0.01\n", runs, tmp_path)
    status, mixing = job.run()
    assert status == 0
    (tmp_path / "out" / "c3_case2" / "trace.csv").unlink()
    checks, general = job.check((3, mixing))
    assert general == ["ftlab sweep ended with 3"]
    failed = {c.key for c in checks if not c.ok}
    # c1/c2 case1 runs cannot settle in 0.01 s, so they fail their own check
    assert failed == {"grid/c3_case2", "grid/c1_case1", "grid/c2_case1"}
    assert any("missing output" in p for p in
               next(c for c in checks if c.key == "grid/c3_case2").problems)


def test_an_exception_in_ftlab_is_a_problem_of_the_command(tmp_path, monkeypatch):
    job = workloads.prepare("reference", 0, tmp_path)

    def crash(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads.cli, "main", crash)
    checks, general = job.check(job.run())
    assert general == ["ftlab simulate ended with RuntimeError: boom"]
    assert [c.key for c in checks if not c.ok] == ["reference/c1_case1"]

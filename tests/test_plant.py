import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from ftlab import ConfigError, SimConfig, mathx, verify
from ftlab.plant import FrictionModel, NoiseModel, PhysicalParams, Plant, ThetaVector


def reference_deltas():
    """Independent evaluation of the lumped coefficients for the reference
    arm under the uniform-rod completion."""
    m1, m2, l1, l2, g = 2.0, 1.0, 0.3, 0.2, 9.81
    lc1, lc2 = l1 / 2, l2 / 2
    i1, i2 = m1 * l1 ** 2 / 12, m2 * l2 ** 2 / 12
    return np.array([
        (l1 ** 2 + lc2 ** 2) * m2 + lc1 ** 2 * m1 + i1 + i2,
        l1 * lc2 * m2,
        lc2 ** 2 * m2 + i2,
        m2 * lc2 * g,
        (m1 * lc1 + m2 * l1) * g,
    ])


class TestParamsAndTheta:
    def test_uniform_rod_completion(self):
        p = PhysicalParams.uniform_rods()
        assert p.lc1 == 0.15 and p.lc2 == 0.1
        assert p.I1 == pytest.approx(2.0 * 0.09 / 12.0)
        assert p.I2 == pytest.approx(1.0 * 0.04 / 12.0)

    def test_theta_matches_reference(self):
        theta = ThetaVector.from_params(PhysicalParams.uniform_rods())
        np.testing.assert_allclose(theta.stacked, reference_deltas(), rtol=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PhysicalParams.uniform_rods(m1=-1.0)

    def test_theta_bounds(self):
        SimConfig(theta_bar=np.array([2.0, 8.0])).validate()
        with pytest.raises(ConfigError, match="does not contain"):
            SimConfig(theta_bar=np.array([2.0, 1.0])).validate()
        for bad in ([0.0, 8.0], [0.0, 1.0], [-1.0, 8.0]):
            with pytest.raises(ConfigError, match="theta_bar entries must be positive"):
                SimConfig(theta_bar=np.array(bad)).validate()


class TestInertia:
    def test_straight_configuration(self, plant):
        d = reference_deltas()
        expected = np.array([[d[0] + 2 * d[1], d[2] + d[1]],
                             [d[2] + d[1], d[2]]])
        np.testing.assert_allclose(plant.inertia_rows([0.0, 0.0]), expected, atol=1e-14)

    def test_folded_configuration(self, plant):
        d = reference_deltas()
        expected = np.array([[d[0] - 2 * d[1], d[2] - d[1]],
                             [d[2] - d[1], d[2]]])
        np.testing.assert_allclose(plant.inertia_rows([0.0, np.pi]), expected, atol=1e-12)

    def test_basis_decomposition_exact(self, plant):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.uniform(-np.pi, np.pi, 2)
            stack = ref.inertia_basis(q)
            recomposed = sum(t * mk for t, mk in zip(plant.theta.theta_m, stack))
            np.testing.assert_allclose(plant.inertia_rows(q), recomposed, atol=1e-14)

    def test_uniformly_positive_definite(self, plant):
        # sampled bounds mu_m I <= M(q) <= mu_M I over [-pi, pi]^2, which covers
        # the range of M, as it is periodic in q
        rng = np.random.default_rng(0)
        eigs = np.linalg.eigvalsh([plant.inertia_rows(q)
                                   for q in rng.uniform(-np.pi, np.pi, (10000, 2))])
        mu_m, mu_M = float(eigs[:, 0].min()), float(eigs[:, -1].max())
        assert mu_m > 1e-4
        assert mu_M < 1.0
        # independent spot check; small slack since both sides are sampled
        rng = np.random.default_rng(99)
        for _ in range(200):
            eigs = np.linalg.eigvalsh(plant.inertia_rows(rng.uniform(-np.pi, np.pi, 2)))
            assert eigs[0] >= mu_m * (1.0 - 1e-3)
            assert eigs[-1] <= mu_M * (1.0 + 1e-3)


class TestCoriolis:
    def test_zero_velocity(self, plant):
        np.testing.assert_array_equal(plant.coriolis_rows([0.3, 1.1], [0.0, 0.0]),
                                      np.zeros((2, 2)))

    def test_zero_elbow_angle(self, plant):
        np.testing.assert_allclose(plant.coriolis_rows([0.7, 0.0], [1.0, 2.0]),
                                   np.zeros((2, 2)), atol=1e-15)

    def test_skew_symmetry_against_finite_difference(self, plant):
        result = verify.check_skew_symmetry(plant, seed=2)
        assert result.passed, result.line()


class TestGravity:
    def test_hanging_pose(self, plant):
        g = ref.matvec2(plant.psi_rows([0.0, 0.0]), plant.theta.theta_u)
        np.testing.assert_array_equal(g, [0.0, 0.0])

    def test_horizontal_first_link(self, plant):
        d = reference_deltas()
        np.testing.assert_allclose(plant.psi_rows([np.pi / 2, 0.0]),
                                   [[1.0, 1.0], [1.0, 0.0]], atol=1e-15)
        g = ref.matvec2(plant.psi_rows([np.pi / 2, 0.0]), plant.theta.theta_u)
        np.testing.assert_allclose(g, [d[3] + d[4], d[3]], rtol=1e-12)

    def test_factorization_exact(self, plant):
        result = verify.check_gravity_factorization(plant, seed=3)
        assert result.passed, result.line()

    def test_psi_uniformly_bounded(self, plant):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q = rng.uniform(-10.0, 10.0, 2)
            assert np.linalg.norm(plant.psi_rows(q)) <= 2.0


class TestEnergy:
    def test_potential_basis_at_rest_pose(self, plant):
        np.testing.assert_allclose(plant.energy_terms([0.0, 0.0], [0.0, 0.0])[3:],
                                   [-1.0, -1.0])

    def test_kinetic_basis_zero_velocity(self, plant):
        np.testing.assert_array_equal(plant.energy_terms([1.0, 2.0], [0.0, 0.0])[:3],
                                      np.zeros(3))

    def test_energy_is_regressor_times_theta(self, plant):
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = rng.uniform(-np.pi, np.pi, 2)
            qd = rng.uniform(-3.0, 3.0, 2)
            direct = 0.5 * qd @ np.array(plant.inertia_rows(q)) @ qd \
                - plant.theta.theta_u[0] * np.cos(q[0] + q[1]) \
                - plant.theta.theta_u[1] * np.cos(q[0])
            assert plant.total_energy(q, qd) == pytest.approx(direct, abs=1e-12)

    def test_rest_energy(self, plant):
        d = reference_deltas()
        assert plant.total_energy([0.0, 0.0], [0.0, 0.0]) == pytest.approx(-(d[3] + d[4]))


class TestForwardDynamics:
    def test_gravity_hold_is_equilibrium(self, plant):
        q = np.array([0.4, -0.9])
        g = ref.matvec2(plant.psi_rows(q), plant.theta.theta_u)
        qdd = plant.forward_dynamics(q, np.zeros(2), g)
        np.testing.assert_allclose(qdd, np.zeros(2), atol=1e-14)

    def test_hanging_pose_zero_torque(self, plant):
        qdd = plant.forward_dynamics([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(qdd, np.zeros(2), atol=1e-14)

    def test_residual_oracle(self, plant):
        rng = np.random.default_rng(6)
        for _ in range(200):
            q = rng.uniform(-np.pi, np.pi, 2)
            qd = rng.uniform(-3.0, 3.0, 2)
            tau = rng.uniform(-10.0, 10.0, 2)
            coulomb = tuple(rng.uniform(0.0, 0.5, 2).tolist())
            tau_f = np.array(ref.friction_torque(coulomb, qd))
            qdd = plant.forward_dynamics(q, qd, tau, coulomb)
            resid = np.array(plant.inertia_rows(q)) @ qdd \
                + np.array(plant.coriolis_rows(q, qd)) @ qd \
                + ref.matvec2(plant.psi_rows(q), plant.theta.theta_u) - tau + tau_f
            assert np.max(np.abs(resid)) <= 1e-10


def friction_applied(coulomb, qd, q=(0.7, -0.3), tau=(1.5, -0.5)):
    """The friction torque the forward dynamics apply: M(q) times the drop
    in acceleration that the Coulomb coefficients cause."""
    plant = Plant.two_link()
    free = np.array(plant.forward_dynamics(q, qd, tau))
    damped = np.array(plant.forward_dynamics(q, qd, tau, coulomb))
    return np.array(plant.inertia_rows(q)) @ (free - damped)


class TestFrictionAndNoise:
    def test_friction_at_rest(self):
        plant = Plant.two_link()
        q, tau = (0.7, -0.3), (1.5, -0.5)
        assert plant.forward_dynamics(q, (0.0, 0.0), tau, FrictionModel().coulomb) \
            == plant.forward_dynamics(q, (0.0, 0.0), tau)

    def test_friction_signs(self):
        np.testing.assert_allclose(friction_applied(FrictionModel().coulomb, (-1.0, 2.0)),
                                   [-0.5, 0.4], atol=1e-12)

    @given(coulomb=st.tuples(*[st.sampled_from([0.0]) | st.floats(0.0, 10.0)] * 2),
           v=st.tuples(*[st.sampled_from([0.0, -0.0]) | st.floats(0.0, 10.0)] * 2),
           signs=st.tuples(*[st.sampled_from([1.0, -1.0])] * 2))
    def test_friction_is_the_per_joint_expression_bitwise(self, coulomb, v, signs):
        # +-v and +-0.0 on each joint, zero coefficients included: the sign of
        # a zero velocity carries into the torque, which the forward dynamics
        # subtract as the friction model's torque would be
        qd = [s * x for s, x in zip(signs, v)]
        plant, q, tau = Plant.two_link(), (0.7, -0.3), (1.5, -0.5)
        got = plant.forward_dynamics(q, qd, tau, FrictionModel(np.array(coulomb)).coulomb)
        assert type(got) is tuple and all(type(x) is float for x in got)
        want = ref.forward_dynamics_layered(plant, q, qd, tau, ref.friction_torque(coulomb, qd))
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_noise_at_zero(self):
        # position noise (sin, cos), velocity noise the first on both joints
        (n1, n2), = NoiseModel().sample([0.0]).tolist()
        np.testing.assert_allclose((n1, n2), [0.0, 0.005])
        np.testing.assert_allclose((n1, n1), [0.0, 0.0])

    def test_noise_bounded(self):
        noise = NoiseModel()
        for n1, n2 in noise.sample(np.linspace(0.0, 1.0, 500)).tolist():
            assert np.max(np.abs((n1, n2))) <= 0.005 + 1e-15
            assert np.max(np.abs((n1, n1))) <= 0.005 + 1e-15

    def test_friction_rejects_negative(self):
        with pytest.raises(ValueError):
            FrictionModel(np.array([-0.1, 0.4]))

    @pytest.mark.parametrize("coulomb", [[0.5], [0.5, 0.4, 0.3]])
    def test_friction_rejects_a_vector_not_one_per_joint(self, coulomb):
        with pytest.raises(ValueError, match="one coefficient per joint"):
            FrictionModel(np.array(coulomb))

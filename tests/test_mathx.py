import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from ftlab import mathx, verify
from ftlab.drem import KreisselmeierDre


class TestSignedPower:
    def test_definition_values(self):
        spow = mathx.signed_power_vec
        assert spow(-4.0, 0.5) == -2.0
        assert spow(0.0, 1.0 / 3.0) == 0.0
        assert spow(2.0, 1.0 / 3.0) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mathx.signed_power_vec(1.0, 0.0)
        with pytest.raises(ValueError):
            mathx.signed_power_vec(1.0, -2.0)
        with pytest.raises(ValueError):
            mathx.signed_power_vec(float("nan"), 0.5)
        with pytest.raises(ValueError):
            mathx.signed_power_vec(float("inf"), 0.5)
        with pytest.raises(ValueError):
            mathx.signed_power_vec([1.0, float("nan")], 0.5)

    @given(z=st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
           q=st.sampled_from([0.2, 1.0 / 3.0, 0.5, 1.0, 1.5, 3.0]))
    def test_odd_symmetry_exact(self, z, q):
        assert mathx.signed_power_vec(-z, q) == -mathx.signed_power_vec(z, q)

    def test_vector_examples(self):
        np.testing.assert_array_equal(
            mathx.signed_power_vec([-1.0, 0.0, 8.0], 1.0 / 3.0), [-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(mathx.signed_power_vec([1.0, 1.0], 0.5), [1.0, 1.0])
        np.testing.assert_array_equal(
            mathx.signed_power_vec([-0.25, 4.0], 0.5), [-0.5, 2.0])

    @given(q=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    @settings(max_examples=30)
    def test_vector_odd_symmetry(self, q):
        z = np.array([-3.7, -1e-8, 0.0, 2.2e5, 0.4])
        np.testing.assert_array_equal(mathx.signed_power_vec(-z, q),
                                      -mathx.signed_power_vec(z, q))


def kreis_mix(phi, v):
    """(Delta, Y) from the row that the Kreisselmeier mix writes, with
    phi2 = phi and phi1 = v assigned: the run's mixing.  The extension is
    never stepped, so its step size moves nothing."""
    dre = KreisselmeierDre(len(v), dt=1.0)
    dre.phi2, dre.phi1 = phi, v
    row = np.empty(len(v) + 1)
    dre.mix(row)
    return row[0], row[1:]


def det(phi):
    return kreis_mix(phi, np.zeros(len(phi)))[0]


def cramer_products(phi, v):
    return kreis_mix(phi, v)[1]


class TestDetAdjugate:
    """The Kreisselmeier mixing's determinant and the adjugate that
    ``verify`` holds its Cramer products to."""

    def test_identity_and_zero(self):
        assert det(np.eye(5)) == 1.0
        np.testing.assert_array_equal(verify.adjugate(np.eye(5)), np.eye(5))
        assert det(np.zeros((5, 5))) == 0.0
        np.testing.assert_array_equal(verify.adjugate(np.zeros((5, 5))), np.zeros((5, 5)))

    def test_small_hand_values(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert det(a) == pytest.approx(-2.0)
        np.testing.assert_allclose(verify.adjugate(a), [[4.0, -2.0], [-3.0, 1.0]])
        b = np.array([[2.0, 0.0, 1.0], [1.0, 3.0, 0.0], [0.0, 1.0, 1.0]])
        # cofactor expansion by hand: 2*(3) - 0 + 1*(1) = 7
        assert det(b) == pytest.approx(7.0)

    def test_adjugate_identity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            m = int(rng.integers(2, 7))
            a = rng.standard_normal((m, m))
            resid = a @ verify.adjugate(a) - np.linalg.det(a) * np.eye(m)
            assert np.max(np.abs(resid)) <= 1e-9 * max(1.0, np.max(np.abs(a)) ** m)

    def test_rejects_nonsquare(self):
        # phi2 must be (m, m): its setter refuses what does not broadcast there
        dre = KreisselmeierDre(3, dt=1.0)
        for shape in ((2, 2), (3, 4), (4, 3), (6,), (1, 2, 3)):
            with pytest.raises(ValueError):
                dre.phi2 = np.ones(shape)
        with pytest.raises(ValueError):
            verify.adjugate(np.ones((3, 2)))


class TestCramerProducts:
    def test_identity_matrix_returns_vector(self):
        v = np.array([3.0, -1.0, 2.0, 0.5, 7.0])
        np.testing.assert_allclose(cramer_products(np.eye(5), v), v)

    def test_scaled_identity(self):
        got = cramer_products(2.0 * np.eye(3), np.ones(3))
        np.testing.assert_allclose(got, [4.0, 4.0, 4.0])

    def test_matches_adjugate_product(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(2, 7))
            phi = rng.standard_normal((m, m))
            v = rng.standard_normal(m)
            ref = verify.adjugate(phi) @ v
            got = cramer_products(phi, v)
            assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_rejects_mismatched_vector(self):
        dre = KreisselmeierDre(3, dt=1.0)
        for shape in ((3, 2), (2,), (4,)):
            with pytest.raises(ValueError):
                dre.phi1 = np.ones(shape)

    def test_fused_determinants_equal_separate_calls_bitwise(self):
        # the mixing stage's one batched call must reproduce the determinants
        # of phi and of its column-replaced copies taken one at a time
        # exactly, not just closely
        rng = np.random.default_rng(4)
        for m in range(1, 7):
            for _ in range(20):
                phi = rng.standard_normal((m, m))
                v = rng.standard_normal(m)
                delta, w = kreis_mix(phi, v)
                assert delta == np.linalg.det(phi)
                replaced = []
                for j in range(m):
                    a = phi.copy()
                    a[:, j] = v
                    replaced.append(np.linalg.det(a))
                assert w.tobytes() == np.array(replaced).tobytes()


class TestEigSym2:
    def test_max_eig(self):
        # the closed-form 2x2 pair, whose upper value c3's step writes out
        # as lambda_max(M)
        assert ref.eig_sym2(3.0, 0.0, -2.0) == (-2.0, 3.0)
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b, d = rng.standard_normal(3)
            want = np.linalg.eigvalsh([[a, b], [b, d]])
            np.testing.assert_allclose(ref.eig_sym2(a, b, d), want, atol=1e-12)

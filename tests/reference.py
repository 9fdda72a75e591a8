"""The numpy formulations of the per-step quantities, kept as references.

The step loop evaluates every n = 2 quantity in Python floats.  Before that,
it evaluated them with the numpy expressions below (BLAS products, numpy's
vectorised ``power``, ``eigvalsh`` + ``inv`` in the least-squares
extension, the least-squares mixing through phi = I - z f0 F and its
Cramer determinants, and the Kreisselmeier filters as two separate arrays
mixed from a masked Cramer stack).  ``test_kernels.py`` compares the float
kernels with these over drawn states, within tolerances derived from
float64 rounding; ``test_drem.py`` holds the stacked Kreisselmeier state to
its two-array form bit for bit.  The basis
stacks are also the statement of the two-link decomposition M(q) =
sum_k theta_m[k] M_k(q) that ``test_plant.py`` and ``test_regression.py``
hold the plant's closed forms to.  ``csv_rows`` is the row loop that wrote
``trace.csv`` before its vectorised formatter; ``test_g17.py`` and
``test_sim.py`` hold the formatter to it byte for byte.  Nothing in ``src/``
imports this module.
"""

import math

import numpy as np


# -- signed power -------------------------------------------------------------

def signed_power_vec(z, q):
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.abs(z) ** q


# -- two-link plant: basis stacks and the products taken over them -------------

def inertia_basis(q):
    c2 = math.cos(q[1])
    return np.array([
        [[1.0, 0.0], [0.0, 0.0]],
        [[2.0 * c2, c2], [c2, 0.0]],
        [[0.0, 1.0], [1.0, 1.0]],
    ])


def coriolis_basis(q, qd):
    s2 = math.sin(q[1])
    qd1, qd2 = np.asarray(qd, dtype=float).tolist()
    return np.array([
        [[0.0, 0.0], [0.0, 0.0]],
        [[s2 * -qd2, s2 * -(qd1 + qd2)], [s2 * qd1, s2 * 0.0]],
        [[0.0, 0.0], [0.0, 0.0]],
    ])


def potential_basis(q):
    q1, q2 = np.asarray(q, dtype=float).tolist()
    return np.array([-math.cos(q1 + q2), -math.cos(q1)])


def psi(q):
    q1, q2 = np.asarray(q, dtype=float).tolist()
    s12 = math.sin(q1 + q2)
    return np.array([[s12, math.sin(q1)], [s12, 0.0]])


def kinetic_grad_basis(q, qd):
    qd1, qd2 = np.asarray(qd, dtype=float).tolist()
    out = np.zeros((2, 3))
    out[1, 1] = -2.0 * math.sin(q[1]) * qd1 * (qd1 + qd2)
    return out


def _combine(theta_m, stack):
    k, n = stack.shape[0], stack.shape[1]
    return (np.asarray(theta_m) @ stack.reshape(k, n * n)).reshape(n, n)


def inertia(theta_m, q):
    return _combine(theta_m, inertia_basis(np.asarray(q, dtype=float)))


def coriolis(theta_m, q, qd):
    return _combine(theta_m, coriolis_basis(np.asarray(q, dtype=float),
                                            np.asarray(qd, dtype=float)))


def gravity(theta_u, q):
    return psi(q) @ np.asarray(theta_u)


def kinetic_basis(q, qd):
    qd = np.asarray(qd, dtype=float)
    return 0.5 * ((inertia_basis(np.asarray(q, dtype=float)) @ qd) @ qd)


def energy_regressor(q, qd):
    return np.concatenate([kinetic_basis(q, qd), potential_basis(q)])


def forward_dynamics(theta, q, qd, tau, tau_f=None):
    """theta is the ThetaVector; the 2x2 solve was already in floats."""
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    rhs = np.asarray(tau, dtype=float) - coriolis(theta.theta_m, q, qd) @ qd \
        - psi(q) @ theta.theta_u
    if tau_f is not None:
        rhs = rhs - np.asarray(tau_f, dtype=float)
    (m11, m12), (m21, m22) = inertia(theta.theta_m, q).tolist()
    r1, r2 = rhs.tolist()
    det = m11 * m22 - m12 * m21
    return np.array([(m22 * r1 - m12 * r2) / det, (m11 * r2 - m21 * r1) / det])


def friction_torque(coulomb, qd):
    """Coulomb friction joint by joint, c * sign(v), and c * v at v = +-0.0."""
    return [c * (math.copysign(1.0, v) if v != 0.0 else v) for c, v in zip(coulomb, qd)]


# -- controllers ---------------------------------------------------------------

def ftpd_torque(e1, e2, psi_q, theta_hat_u, gains, a=None, b=None):
    a = gains.a if a is None else a
    b = gains.b if b is None else b
    return (-np.asarray(gains.kp) * signed_power_vec(e1, a)
            - gains.kd * signed_power_vec(e2, b)
            - gains.kd_lin * np.asarray(e2, dtype=float)
            + psi_q @ theta_hat_u)


def saturation(delta, c, d):
    num = 0.0 if delta == 0.0 else math.copysign(abs(delta) ** d, delta)
    return num / (1.0 + abs(float(delta)) ** (c + d))


def composite_adapt_rate(e1, e2, psi_q, theta_hat_u, delta, y_u, gains, c):
    direct = psi_q.T @ (gains.gamma1 * gains.d1 * np.tanh(np.asarray(e1, dtype=float))
                        + (gains.gamma1 + gains.gamma2) * np.asarray(e2, dtype=float))
    xi = signed_power_vec(delta * np.asarray(theta_hat_u, dtype=float)
                          - np.asarray(y_u, dtype=float), c)
    f_gain = saturation(delta, c, gains.sat_d)
    indirect = (gains.gamma1 + gains.gamma2) * np.asarray(gains.upsilon_diag) * f_gain * xi
    return -np.asarray(gains.gamma_diag) * (direct + indirect)


def max_eig_sym2(m):
    a = -0.5 * (m + m.T)
    tr = a[0, 0] + a[1, 1]
    gap = math.sqrt((a[0, 0] - a[1, 1]) ** 2 + 4.0 * a[0, 1] ** 2)
    return -float(0.5 * (tr - gap))


def switching_function(params, a, e1, e2, inertia_q):
    ref = params.k2 * signed_power_vec(e1, a)
    e2 = np.asarray(e2, dtype=float)
    return float(e2 @ inertia_q @ e2) - max_eig_sym2(inertia_q) * float(ref @ ref)


def slotine_li_regressor(q, qd, qd_r, qdd_r):
    q1, q2 = np.asarray(q, dtype=float).tolist()
    qd1, qd2 = np.asarray(qd, dtype=float).tolist()
    r1, r2 = np.asarray(qd_r, dtype=float).tolist()
    a1, a2 = np.asarray(qdd_r, dtype=float).tolist()
    c2 = math.cos(q2)
    s2 = math.sin(q2)
    s12 = math.sin(q1 + q2)
    w12 = c2 * (2.0 * a1 + a2) - s2 * (qd2 * r1 + (qd1 + qd2) * r2)
    w21 = c2 * a1 + s2 * qd1 * r1
    return np.array([[a1, w12, a2, s12, math.sin(q1)],
                     [0.0, w21, a1 + a2, s12, 0.0]])


def _unit_or_zero(v):
    norm = float(np.linalg.norm(v))
    return np.zeros_like(v) if norm == 0.0 else v / norm


def tsm_torque(params, a, theta_hat, e1, e2, q, qd, inertia_q):
    """(torque, nonlinear branch?, W, s) of the switching controller."""
    e1 = np.asarray(e1, dtype=float)
    qd = np.asarray(qd, dtype=float)
    nonlinear = switching_function(params, a, e1, e2, inertia_q) <= 0.0
    if nonlinear:
        ref = signed_power_vec(e1, a)
        qd_r = -params.k2 * ref
        s = qd + params.k2 * ref
        clamped = np.maximum(np.abs(e1), params.clamp)
        qdd_r = -a * params.k2 * clamped ** (a - 1.0) * qd
    else:
        qd_r = -params.k2 * e1
        s = qd + params.k2 * e1
        qdd_r = -params.k2 * qd
    w = slotine_li_regressor(q, qd, qd_r, qdd_r)
    return w @ theta_hat - params.k1 * s - params.ks * _unit_or_zero(s), nonlinear, w, s


def slotine_li_torque(params, theta_hat, e1, q, qd):
    """(torque, W, s) of the least-squares Slotine-Li controller."""
    e1 = np.asarray(e1, dtype=float)
    qd = np.asarray(qd, dtype=float)
    s = qd + params.k2 * e1
    w = slotine_li_regressor(q, qd, -params.k2 * e1, -params.k2 * qd)
    return w @ theta_hat - params.k1 * s - params.ks * _unit_or_zero(s), w, s


# -- regression filters --------------------------------------------------------

class PowerBalanceRegression:
    def __init__(self, q0, qd0, lambda0, lambda1):
        self.lambda0, self.lambda1 = float(lambda0), float(lambda1)
        self.y = 0.0
        self.z = -self.lambda0 * energy_regressor(q0, qd0)

    def step(self, q, qd, tau, dt):
        qd = np.asarray(qd, dtype=float)
        row = self.z + self.lambda0 * energy_regressor(q, qd)
        pair = (np.array([self.y]), row[None, :])
        power = float(qd @ np.asarray(tau, dtype=float))
        self.y += dt * (-self.lambda1 * self.y + self.lambda0 * power)
        self.z += dt * (-self.lambda1 * row)
        return pair


class ForceBalanceRegression:
    def __init__(self, q0, qd0, lambda0, lambda1):
        self.lambda0, self.lambda1 = float(lambda0), float(lambda1)
        self.grad_gain = self.lambda0 / (2.0 * self.lambda1)
        self.y = np.zeros(2)
        self.z = -self.lambda0 * self._phi3(q0, qd0)
        self.omega_d2 = np.zeros((2, 2))

    @staticmethod
    def _phi3(q, qd):
        return (inertia_basis(np.asarray(q, dtype=float)) @ np.asarray(qd, dtype=float)).T

    def step(self, q, qd, tau, dt):
        q = np.asarray(q, dtype=float)
        qd = np.asarray(qd, dtype=float)
        lambda0_phi3 = self.lambda0 * self._phi3(q, qd)
        pair = (self.y, np.hstack([self.z + lambda0_phi3, self.omega_d2]))
        phi1 = lambda0_phi3 + self.grad_gain * kinetic_grad_basis(q, qd)
        self.y = self.y + dt * (-self.lambda1 * self.y
                                + self.lambda0 * np.asarray(tau, dtype=float))
        self.z = self.z + dt * (-self.lambda1 * (self.z + phi1))
        self.omega_d2 = self.omega_d2 + dt * (-self.lambda1 * self.omega_d2
                                              + self.lambda0 * psi(q))
        return pair


# -- least-squares extension ---------------------------------------------------

def ls_beta(f, params):
    eigs = np.linalg.eigvalsh(f)
    if eigs[0] <= 0.0:
        raise ValueError("F is not positive definite")
    norm = float(eigs[-1]) if params.norm == "spectral" else float(np.sqrt(np.sum(f * f)))
    return params.beta0 * (1.0 - norm / params.gain_cap)


def ls_step(r, u, z, f, params, y, omega, dt):
    """One step of the least-squares extension from (R, u, z, F):
    returns (beta used, R, u, z, F, rho_hat)."""
    b = ls_beta(f, params)
    decay = 1.0 - dt * b
    gain = dt * params.alpha
    r = decay * r + gain * (omega.T @ omega)
    r = 0.5 * (r + r.T)
    u = decay * u + gain * (omega.T @ y)
    f = np.linalg.inv(r)
    f = 0.5 * (f + f.T)
    return b, r, u, z * decay, f, f @ u


def ls_mix(f, rho_hat, z, params):
    """(Delta, Y) of the least-squares extension: phi = I - z f0 F and
    v = rho_hat, then det(phi) and the column-replaced determinants
    adj(phi) v (``kreis_mix`` of v and phi)."""
    zf = z * params.f0
    phi = np.eye(f.shape[0]) - zf * f
    # before any excitation phi is exactly singular, and the LU divides by 0
    with np.errstate(divide="ignore"):
        return kreis_mix(rho_hat, phi)


# -- Kreisselmeier extension ---------------------------------------------------

def kreis_step(phi1, phi2, lambda2, lambda3, y, omega, dt):
    phi1 = phi1 + dt * (-lambda2 * phi1 + lambda3 * (omega.T @ y))
    phi2 = phi2 + dt * (-lambda2 * phi2 + lambda3 * (omega.T @ omega))
    return phi1, 0.5 * (phi2 + phi2.T)


def kreis_update(phi1, phi2, params, y, omega, dt):
    """The extension's step on two arrays: phi1 and phi2 each take
    decay * phi + gain * their block of the one product
    Omega' [Omega | y].  The stacked step equals it bit for bit."""
    decay, gain = 1.0 - dt * params.lambda2, dt * params.lambda3
    product = omega.T @ np.column_stack((omega, y))
    return (decay * phi1 + gain * product[:, -1],
            decay * phi2 + gain * product[:, :-1])


def kreis_mix(phi1, phi2):
    """(det(phi2), adj(phi2) phi1) from the stack phi2 and its copies with
    column j replaced by phi1, built by ``np.where`` over a boolean mask."""
    m = phi2.shape[0]
    mask = np.zeros((m + 1, m, m), dtype=bool)
    cols = np.arange(m)
    mask[cols + 1, :, cols] = True
    dets = np.linalg.det(np.where(mask, phi1[:, None], phi2))
    return float(dets[0]), dets[1:]


# -- trace CSV -----------------------------------------------------------------

def csv_rows(data):
    """The rows of a 2-D float array, each value through ``'%.17g'``, joined
    by ',' and ended by '\\n'."""
    row_format = ",".join(["%.17g"] * data.shape[1]) + "\n"
    return "".join([row_format % tuple(row) for row in data.tolist()])

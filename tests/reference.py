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
hold the plant's closed forms to.  The layered float step path is the
float kernels as the loop called them before their calls were flattened
into the callers, and then folded into each controller's one ``step`` per
sample (the torque, update and record methods, the regression filters'
calls of the plant's basis terms, the extensions' forgetting rate and
affine step, and the friction and noise models' per-sample
calls); ``test_kernels.py`` holds the flattened forms to it bit for
bit.  ``csv_rows`` is the row loop that wrote ``trace.csv`` before its
vectorised formatter; ``test_g17.py`` and ``test_sim.py`` hold the
formatter to it byte for byte.  ``trace_figures`` is the one pass over
whole-run arrays that ``compute_metrics`` made before it worked in blocks
of rows; ``test_sim.py`` holds the blocks to it bit for bit.  Nothing in
``src/`` imports this module.
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


# -- the layered float step path -------------------------------------------------
#
# The float kernels as the step loop called them before their calls were
# flattened into the callers: C(q, qd) qd and Psi theta through ``matvec2``,
# the energy terms through the basis forces, the noise in two calls, the
# composite law through adapt_rate -> _composite_rate -> _prediction_error +
# sat and advance, and c3's switching value in its own method.
# ``test_kernels.py`` holds each flattened form to these bit for bit.

def matvec2(a, v):
    (a11, a12), (a21, a22) = a
    v1, v2 = v
    return a11 * v1 + a12 * v2, a21 * v1 + a22 * v2


def forward_dynamics_layered(plant, q, qd, tau, tau_f=None, psi=None, inertia=None):
    if psi is None:
        psi = plant.psi_rows(q)
    c1, c2 = matvec2(plant.coriolis_rows(q, qd), qd)
    g1, g2 = matvec2(psi, plant.theta.theta_u)
    t1, t2 = tau
    r1 = t1 - c1 - g1
    r2 = t2 - c2 - g2
    if tau_f is not None:
        f1, f2 = tau_f
        r1 = r1 - f1
        r2 = r2 - f2
    (m11, m12), (m21, m22) = plant.inertia_rows(q) if inertia is None else inertia
    det = m11 * m22 - m12 * m21
    return ((m22 * r1 - m12 * r2) / det, (m11 * r2 - m21 * r1) / det)


def energy_terms_layered(plant, q, qd):
    qd1, qd2 = qd
    (f11, f12, f13), (f21, f22, f23) = plant.basis_force_rows(q, qd)
    q1, q2 = q
    return (0.5 * (f11 * qd1 + f21 * qd2), 0.5 * (f12 * qd1 + f22 * qd2),
            0.5 * (f13 * qd1 + f23 * qd2), -math.cos(q1 + q2), -math.cos(q1))


def noise_layered(noise, t):
    """(position noise, velocity noise) of the two calls."""
    w = noise.frequency * t
    position = noise.amplitude * math.sin(w), noise.amplitude * math.cos(w)
    v = noise.amplitude * math.sin(noise.frequency * t)
    return position, (v, v)


def spow(z, q):
    return math.copysign(abs(z) ** q, z) if z else 0.0


def sat(delta, c, d):
    """The step loop's unchecked saturation of a float: <delta>^-c where
    |delta|^(c + d) overflows."""
    try:
        return spow(delta, d) / (1.0 + abs(delta) ** (c + d))
    except OverflowError:
        return math.copysign(abs(delta) ** -c, delta)


def eig_sym2(a, b, d):
    """Eigenvalues (lower, upper) of the symmetric 2x2 matrix [[a, b], [b, d]]."""
    tr = a + d
    gap = math.sqrt((a - d) ** 2 + 4.0 * b ** 2)
    return 0.5 * (tr - gap), 0.5 * (tr + gap)


def ftpd_layered(e1, e2, psi_q, theta_hat_u, gains, a, b):
    (kp1, kp2), (kd1, kd2), (kl1, kl2) = gains.kp, gains.kd, gains.kd_lin
    (e11, e12), (e21, e22) = e1, e2
    g1, g2 = matvec2(psi_q, theta_hat_u)
    return (-kp1 * spow(e11, a) - kd1 * spow(e21, b) - kl1 * e21 + g1,
            -kp2 * spow(e12, a) - kd2 * spow(e22, b) - kl2 * e22 + g2)


def prediction_error(delta, theta_hat_u, y_u, c):
    """Componentwise <delta * theta_hat_u - y_u>^c."""
    (t1, t2), (y1, y2) = theta_hat_u, y_u
    return spow(delta * t1 - y1, c), spow(delta * t2 - y2, c)


def composite_rate(e1, e2, psi_q, theta_hat_u, delta, y_u, gains, c):
    (e11, e12), (e21, e22), ((p11, p12), (p21, p22)) = e1, e2, psi_q
    g1d1, g12 = gains.g1d1, gains.g12
    v1 = g1d1 * math.tanh(e11) + g12 * e21
    v2 = g1d1 * math.tanh(e12) + g12 * e22
    xi1, xi2 = prediction_error(delta, theta_hat_u, y_u, c)
    f_gain = sat(delta, c, gains.sat_d)
    (g1, g2), (u1, u2) = gains.gamma_diag, gains.upsilon_diag
    return (-g1 * (p11 * v1 + p21 * v2 + g12 * u1 * f_gain * xi1),
            -g2 * (p12 * v1 + p22 * v2 + g12 * u2 * f_gain * xi2))


def advance(estimate, rate, dt):
    """The Euler step of an estimate at a rate, both sequences of floats."""
    return tuple(th + dt * r for th, r in zip(estimate, rate))


def switching_value_layered(params, a, e1, e2, inertia_q):
    k2 = params.k2
    (e11, e12), (e21, e22), ((m11, m12), (m21, m22)) = e1, e2, inertia_q
    ref1, ref2 = k2 * spow(e11, a), k2 * spow(e12, a)
    lam_max = eig_sym2(m11, m12, m22)[1]
    return ((e21 * m11 + e22 * m21) * e21 + (e21 * m12 + e22 * m22) * e22
            - lam_max * (ref1 * ref1 + ref2 * ref2))


def tsm_torque_layered(params, a, theta_hat, e1, q, qd, inertia_q):
    """(torque, nonlinear branch?, W rows, s) of the switching controller,
    with <e1>^a taken once for the switching value and again for the
    nonlinear branch."""
    k2 = params.k2
    f = switching_value_layered(params, a, e1, qd, inertia_q)
    (e11, e12), (qd1, qd2) = e1, qd
    if f <= 0.0:
        ref1, ref2 = spow(e11, a), spow(e12, a)
        qd_r = (-k2 * ref1, -k2 * ref2)
        s = (qd1 + k2 * ref1, qd2 + k2 * ref2)
        gain = -a * k2
        qdd_r = (gain * max(abs(e11), params.clamp) ** (a - 1.0) * qd1,
                 gain * max(abs(e12), params.clamp) ** (a - 1.0) * qd2)
    else:
        qd_r = (-k2 * e11, -k2 * e12)
        s = (qd1 + k2 * e11, qd2 + k2 * e12)
        qdd_r = (-k2 * qd1, -k2 * qd2)
    w = slotine_li_regressor(q, qd, qd_r, qdd_r).tolist()
    return slotine_li_torque_layered(w, theta_hat, s, params.k1, params.ks), f <= 0.0, w, s


def slotine_li_torque_layered(w, theta_hat, s, k1, ks):
    """W theta_hat - k1 s - ks s / |s| of the rows of W, as floats."""
    (w1, w2), (s1, s2) = w, s
    norm = math.sqrt(s1 * s1 + s2 * s2)
    u1, u2 = (0.0, 0.0) if norm == 0.0 else (s1 / norm, s2 / norm)
    return (sum(x * y for x, y in zip(w1, theta_hat)) - k1 * s1 - ks * u1,
            sum(x * y for x, y in zip(w2, theta_hat)) - k1 * s2 - ks * u2)


def regressor_times(w, s):
    """W' s for the two rows of W, as a list of floats."""
    (w1, w2), (s1, s2) = w, s
    return [a * s1 + b * s2 for a, b in zip(w1, w2)]


def tsm_rate_layered(params, estimate, w, s, nonlinear, phi1, phi2):
    """The switching controller's estimate rate from its last torque's W
    and s and the extension's phi1 and phi2, as its ``adapt_rate`` formed
    it: -gamma W' s minus gamma k times the drift phi2 theta_hat - phi1
    (linear branch) or phi2' times its unit vector (nonlinear branch)."""
    w_s = regressor_times(w, s)
    drift = phi2 @ np.array(estimate) - phi1
    if nonlinear:
        gain, weight = params.gamma_tsm, params.gamma_tsm * params.k_tsm
        norm = math.sqrt(drift.dot(drift))
        term = (phi2.T @ (drift / norm)).tolist() if norm else [0.0] * len(w_s)
    else:
        gain, weight = params.gamma_lin, params.gamma_lin * params.k_lin
        term = drift.tolist()
    return [-gain * a - weight * b for a, b in zip(w_s, term)]


def slotine_li_ls_drive(w, s, estimate, y, omega):
    """c4's W' s + Omega' e_p, e_p = Omega theta_hat - y, as its update
    formed it; the estimate then steps by -dt F times it."""
    e_p = omega.dot(estimate) - y
    return np.add(regressor_times(w, s), e_p.dot(omega))


def slotine_li_ls_torque_layered(params, theta_hat, e1, q, qd):
    """(torque, W rows, s) of the least-squares Slotine-Li controller, as
    its float ``torque`` formed them."""
    (e11, e12), (qd1, qd2) = e1, qd
    k2 = params.k2
    s = (qd1 + k2 * e11, qd2 + k2 * e12)
    w = slotine_li_regressor(q, qd, (-k2 * e11, -k2 * e12), (-k2 * qd1, -k2 * qd2)).tolist()
    return slotine_li_torque_layered(w, theta_hat, s, params.k1, params.ks), w, s


# -- the layered regression filters and extensions ------------------------------

def kinetic_grad_rows(q, qd):
    """The n x 3 matrix whose column k is grad_q(qd' M_k(q) qd), as rows of
    floats; only M_2 depends on q."""
    qd1, qd2 = qd
    return ((0.0, 0.0, 0.0), (0.0, -2.0 * math.sin(q[1]) * qd1 * (qd1 + qd2), 0.0))


def regression_step_layered(reg, plant, q, qd, tau, dt, psi):
    """One step of a regression filter's float state, the pair and the
    update formed through the plant's basis-term calls: returns
    (the [Omega | y] rows, y, z, and the force-balance Omega_d2 or None)
    after the step, the filter's private state untouched."""
    l0, l1 = reg.lambda0, reg.lambda1
    if reg.pair.aug.shape[0] == 1:
        w = plant.energy_terms(q, qd)
        rows = [tuple(z + l0 * x for z, x in zip(reg._z, w)) + (reg._y,)]
        (qd1, qd2), (t1, t2) = qd, tau
        power = qd1 * t1 + qd2 * t2
        y = reg._y + dt * (-l1 * reg._y + l0 * power)
        z = tuple(zz + dt * (-l1 * r) for zz, r in zip(reg._z, rows[0][:5]))
        return rows, y, z, None
    gg = reg._grad_gain
    f = [[l0 * x for x in row] for row in plant.basis_force_rows(q, qd)]
    rows = [tuple(z + x for z, x in zip(reg._z[i], f[i])) + reg._omega_d2[i] + (reg._y[i],)
            for i in range(2)]
    g = kinetic_grad_rows(q, qd)
    f = [[x + gg * gx for x, gx in zip(f[i], g[i])] for i in range(2)]
    y = tuple(yy + dt * (-l1 * yy + l0 * t) for yy, t in zip(reg._y, tau))
    z = tuple(tuple(zz + dt * (-l1 * (zz + x)) for zz, x in zip(reg._z[i], f[i]))
              for i in range(2))
    omega_d2 = tuple(tuple(w + dt * (-l1 * w + l0 * p) for w, p in zip(reg._omega_d2[i], psi[i]))
                     for i in range(2))
    return rows, y, z, omega_d2


def ls_beta_of(dre):
    """The least-squares extension's forgetting rate from the eigenvalues w
    of R that its last step (or assignment) left, as its ``beta`` formed
    it; raises ValueError where F is not positive definite."""
    w = dre._w
    if min(w) <= 0.0:
        raise ValueError("F is not positive definite")
    if dre.params.norm == "spectral":
        norm = 1.0 / w[0]
    else:
        norm = math.sqrt(sum((1.0 / x) * (1.0 / x) for x in reversed(w)))
    return dre.params.beta0 * (1.0 - norm / dre.params.gain_cap)


def checked_mix(row):
    """The mixing row [Delta | Y] as floats, or the ValueError naming the
    first of Delta and Y that is not finite."""
    mixed = row.tolist()
    if not math.isfinite(mixed[0]):
        raise ValueError("mixing factor Delta is not finite")
    if not all(map(math.isfinite, mixed)):
        raise ValueError("mixed regression Y is not finite")
    return mixed


# -- trace CSV -----------------------------------------------------------------

def csv_rows(data):
    """The rows of a 2-D float array, each value through ``'%.17g'``, joined
    by ',' and ended by '\\n'."""
    row_format = ",".join(["%.17g"] * data.shape[1]) + "\n"
    return "".join([row_format % tuple(row) for row in data.tolist()])


# -- trace metrics ---------------------------------------------------------------

def trace_figures(trace, settle_tol, param_tol, steady_fraction):
    """(settling time, steady-state error, parameter convergence time,
    chattering amplitude, zeta1 integral) of ``trace``, each over whole-run
    arrays in one pass."""
    def last_exceed(magnitude, tol):
        over = np.nonzero(magnitude > tol)[0]
        return float(trace.t[over[-1]]) if over.size else 0.0

    n = len(trace)
    e1_norm = np.linalg.norm(trace.e1, axis=1)
    window = slice(n - max(2, int(np.ceil(n * steady_fraction))), n)
    true = trace.meta["theta_u_true"]
    tilde = np.linalg.norm(trace.theta_hat[:, -true.size:] - true, axis=1)
    jumps = np.abs(np.diff(trace.tau, axis=0)).max(axis=1)
    areas = 0.5 * (trace.zeta1[1:] + trace.zeta1[:-1]) * np.diff(trace.t)
    return (last_exceed(e1_norm, settle_tol), float(np.mean(e1_norm[window])),
            0.0 if tilde[0] == 0.0 else last_exceed(tilde, param_tol * tilde[0]),
            float(jumps[window.start - 1:].max()) if n > 1 else 0.0,
            float(np.cumsum(areas)[-1]) if areas.size else 0.0)

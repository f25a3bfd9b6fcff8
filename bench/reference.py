"""Reference values computed apart from the program under test.

The Gaussian law of the linearised solution from a fixed initial point is
re-derived here by integrating the flow and the Lyapunov covariance ODE

    dx/dt = u(x, t),   dP/dt = J P + P J^T + eps^2 S S^T,   P(0) = 0,

with scipy's eighth-order DOP853 at a tolerance far tighter than the
program's. Only the model's coefficient callables are shared with the
program; the integrator, its set-up and the eigenvalue step are not.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-11
ATOL = 1e-13


def gaussian_law(model, x0, t: float, epsilon: float):
    """Mean and covariance at time t of the linearisation about x0."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    eps2 = epsilon ** 2

    def rhs(s, z):
        x = z[:n]
        p = z[n:].reshape(n, n)
        jac = np.asarray(model.drift_gradient(x, s)).reshape(n, n)
        sig = np.asarray(model.diffusion(x, s)).reshape(n, -1)
        dp = jac @ p + p @ jac.T + eps2 * (sig @ sig.T)
        return np.concatenate([np.asarray(model.drift(x, s)).reshape(n),
                               dp.ravel()])

    sol = solve_ivp(rhs, (0.0, t), np.concatenate([x0, np.zeros(n * n)]),
                    method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    end = sol.y[:, -1]
    cov = end[n:].reshape(n, n)
    return end[:n], 0.5 * (cov + cov.T)


def s2_value(model, x0, t: float) -> float:
    """Largest eigenvalue of the unit-noise covariance (the s2 value)."""
    _, cov = gaussian_law(model, x0, t, 1.0)
    return float(np.linalg.eigvalsh(cov)[-1])


def ou_s2(a: float, t: float) -> float:
    """Closed-form s2 of dy = -a y dt + dW: the variance (1 - e^{-2at})/(2a)."""
    return -math.expm1(-2.0 * a * t) / (2.0 * a)


def rel_err(value, reference) -> float:
    """Relative error in the Frobenius (or absolute) norm."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.linalg.norm(value - reference)
                 / max(np.linalg.norm(reference), 1e-300))

"""Deterministic flow map and its spatial gradient.

The flow map advances an initial state under dy/dt = u(y, t); its gradient
with respect to the initial condition solves the variational matrix equation
d(DF)/dt = grad_u(F(t), t) DF from DF(0) = I. State and gradient are
integrated jointly as one augmented system with an adaptive embedded
Runge-Kutta 4(5) scheme (default relative tolerance 1e-8, absolute 1e-10)
by :func:`solve_flow`, whose dense path gives ``state(t)`` and
``gradient(t)`` at any time of the interval; finite differencing of the
flow is reserved for tests.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from . import _checks
from .exceptions import IntegrationFailure

DEFAULT_TOL = 1e-8


class FlowPath:
    """Dense-in-time interpolant of one flow trajectory on [0, t_final].

    Wraps the continuous output of the adaptive solver; ``state`` and
    ``gradient`` accept a scalar time or an array of times within the
    integration interval.
    """

    def __init__(self, x0: np.ndarray, t_final: float, sol, with_gradient: bool):
        self._x0 = x0
        self._n = x0.shape[0]
        self.t_final = t_final
        self._sol = sol
        self._with_gradient = with_gradient

    def _eval(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        if self._sol is None:  # t_final == 0
            n = self._n
            width = n + n * n if self._with_gradient else n
            base = np.concatenate([self._x0, np.eye(n).ravel()]) \
                if self._with_gradient else self._x0
            return np.broadcast_to(base, times.shape + (width,)).copy()
        out = self._sol(times)
        return np.moveaxis(out, 0, -1) if times.ndim else out

    def state(self, times) -> np.ndarray:
        return self._eval(times)[..., :self._n]

    def gradient(self, times) -> np.ndarray:
        if not self._with_gradient:
            raise ValueError("flow path was computed without the gradient")
        n = self._n
        return self._eval(times)[..., n:].reshape(
            np.shape(times) + (n, n))


def _flow_rate(model, with_gradient: bool):
    """Right-hand side ``rate(t, z)`` of the flow on states (..., n), or of
    the flow and its variational equation on (..., n + n * n), DF row-major."""
    if not with_gradient:
        return lambda t, z: model.drift(z, t)
    n = model.dim_state

    def rate(t, z):
        x = z[..., :n]
        return _variational_rate(z, model.drift(x, t),
                                 model.drift_gradient(x, t))
    return rate


def _variational_rate(z, drift, jac):
    """Rate of the flow and its variational equation at z (..., n + n * n)
    from the drift and the drift gradient at its state."""
    n = jac.shape[-1]
    lead = z.shape[:-1]
    out = np.empty_like(z)
    out[..., n:] = (jac @ z[..., n:].reshape(lead + (n, n))).reshape(
        lead + (n * n,))
    out[..., :n] = drift
    return out


def solve_flow(model, x0, t_final: float, tol: float = DEFAULT_TOL,
               with_gradient: bool = True) -> FlowPath:
    """Integrate the flow (optionally with its gradient) and keep dense output."""
    n = model.dim_state
    x0 = _checks.finite_array(x0, "x0", (n,))
    _checks.at_least(t_final, "t_final")
    _checks.positive(tol, "tol")
    if t_final == 0.0:
        return FlowPath(x0, 0.0, None, with_gradient)

    z0 = np.concatenate([x0, np.eye(n).ravel()]) if with_gradient else x0
    sol = solve_ivp(_flow_rate(model, with_gradient), (0.0, t_final), z0,
                    method="RK45", rtol=tol, atol=tol * 1e-2, dense_output=True)
    if not sol.success or not np.all(np.isfinite(sol.y[:, -1])):
        raise IntegrationFailure(
            f"flow integration failed for model {model.name!r} at "
            f"t={sol.t[-1]:.6g}: {sol.message}", last_time=float(sol.t[-1]))
    return FlowPath(x0, t_final, sol.sol, with_gradient)

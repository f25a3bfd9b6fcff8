"""Deterministic flow map and its spatial gradient.

The flow map advances an initial state under dy/dt = u(y, t); its gradient
with respect to the initial condition solves the variational matrix equation
d(DF)/dt = grad_u(F(t), t) DF from DF(0) = I. State and gradient are
integrated jointly as one augmented system with an adaptive embedded
Runge-Kutta 4(5) scheme (default relative tolerance 1e-8, absolute 1e-10)
by :func:`solve_flow`, which reads the solver's dense output at the
caller's times; finite differencing of the flow is reserved for tests.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from . import _checks
from .exceptions import IntegrationFailure

DEFAULT_TOL = 1e-8


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


def solve_flow(model, x0, times, tol: float = DEFAULT_TOL,
               with_gradient: bool = True):
    """The flow F (times.shape + (n,)) at ``times``, a scalar or an array
    of non-negative times, and its gradient DF (times.shape + (n, n)) or
    None. One adaptive solve runs to the latest time and its dense output
    is read at each; at t = 0 the flow is x0 and DF is I, with no solve."""
    n = model.dim_state
    x0 = _checks.finite_array(x0, "x0", (n,))
    times = _checks.finite_array(times, "times").reshape(np.shape(times))
    _checks.at_least(float(times.min(initial=0.0)), "times")
    _checks.positive(tol, "tol")
    t_end = times.max(initial=0.0)

    z0 = np.concatenate([x0, np.eye(n).ravel()]) if with_gradient else x0
    if t_end == 0.0:
        z = np.broadcast_to(z0, times.shape + z0.shape).copy()
    else:
        sol = solve_ivp(_flow_rate(model, with_gradient), (0.0, t_end), z0,
                        method="RK45", rtol=tol, atol=tol * 1e-2,
                        dense_output=True)
        if not sol.success or not np.all(np.isfinite(sol.y[:, -1])):
            raise IntegrationFailure(
                f"flow integration failed for model {model.name!r} at "
                f"t={sol.t[-1]:.6g}: {sol.message}",
                last_time=float(sol.t[-1]))
        z = sol.sol(times.ravel() if times.ndim else times)
        z = np.moveaxis(z, 0, -1).reshape(times.shape + z0.shape)
    if not with_gradient:
        return z, None
    return z[..., :n], z[..., n:].reshape(times.shape + (n, n))

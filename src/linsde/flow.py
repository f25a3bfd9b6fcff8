"""Deterministic flow map and its spatial gradient, and the adaptive
integrator behind every adaptive solve of the package.

The flow map advances an initial state under dy/dt = u(y, t); its gradient
with respect to the initial condition solves the variational matrix equation
d(DF)/dt = grad_u(F(t), t) DF from DF(0) = I. State and gradient are
integrated jointly as one augmented system by :func:`solve_flow`, which
reads each step's interpolant at the caller's times and keeps no solution
(default relative tolerance 1e-8, absolute 1e-10). It is the package's one
variational solve: the covariance kernels of the linearise module carry
the state and the unit-noise covariance alone, and a law that needs DF
takes it from here. Finite differencing of the flow is reserved for tests.

The integrator, :func:`_dormand_prince`, is the Dormand-Prince 5(4) pair
with Shampine's quartic dense output (Shampine 1986, "Some practical
Runge-Kutta formulas"; Hairer, Norsett and Wanner I, section II.6) under a
copy of scipy RK45's step controller per row, so that a block of
independent rows, such as the nodes of a covariance field, steps together.
"""

from __future__ import annotations

import numpy as np

from . import _checks
from .exceptions import IntegrationFailure

DEFAULT_TOL = 1e-8

#: Dormand-Prince 5(4) tableau of scipy's RK45 (Dormand & Prince 1980):
#: stage times and coefficients, fifth-order weights, and the weights of
#: the error estimate over the seven stages (the last is the rate at the
#: step end, which starts the next step). The weights are 0-d arrays:
#: numpy multiplies one into a stage faster than a Python float, which it
#: converts on every call, and to the same bits.
_DP_C = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_A = tuple(tuple(map(np.array, row)) for row in (
    (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)))
_DP_B = tuple(map(np.array, (35 / 384, 0.0, 500 / 1113, 125 / 192,
                             -2187 / 6784, 11 / 84)))
_DP_E = tuple(map(np.array, (-71 / 57600, 0.0, 71 / 16695, -71 / 1920,
                             17253 / 339200, -22 / 525, 1 / 40)))
#: Shampine's quartic interpolant over the seven stages, as in scipy's
#: RK45: z(s + x h) = z(s) + h sum_j K_j sum_c P[j, c] x^(c + 1)
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


def _combine(weights, stages):
    """sum_j w_j K_j as one product and sum per stage, so that every row is
    formed alone, whatever the other rows of the block."""
    acc = None
    for w, k in zip(weights, stages):
        if w:
            acc = w * k if acc is None else acc + w * k
    return acc


def _rms(x):
    """Root mean square of each row, as scipy's RK45 norms a state."""
    return np.sqrt((x * x).sum(axis=-1)) / x.shape[-1] ** 0.5


@np.errstate(all="ignore")
def _dormand_prince(rate, z, times, tol):
    """Rows of ``z`` (k, d) carried by ``rate(s, z)`` from 0 to t, the last
    of the increasing non-negative ``times``, each under its own copy of scipy
    RK45's step controller: relative tolerance ``tol`` (at least 100
    machine epsilons, as in scipy) and absolute ``tol / 100``.

    Returns the rows at ``times`` (k, len(times), d), the time each row
    reached, and whether a row that stopped short did so because its step
    fell below 10 ulp of its time (else its error norm went non-finite);
    such a row stays NaN at the times it did not reach. An accepted step
    from s to s + h reads its interpolant at the times in [s, s + h), and
    t reads the end state itself. Every stage is one
    ``rate`` call on the rows still running, and the working arrays shrink
    when a row ends."""
    t = times[-1]
    out = np.full((len(z), len(times), z.shape[1]), np.nan)
    reached = np.zeros(len(z))
    stalled = np.zeros(len(z), dtype=bool)
    if t == 0.0 or not len(z):
        out[:] = z[:, None]
        return out, reached, stalled
    rtol, atol = max(tol, 100 * np.finfo(float).eps), tol * 1e-2
    live = np.arange(len(z))
    s = np.zeros(len(z))
    # index of each row's first time not yet read
    unread = np.zeros(len(z), dtype=int)
    f = rate(s, z)
    # select_initial_step of Hairer-Norsett-Wanner I, section II.4
    scale = atol + np.abs(z) * rtol
    d0, d1 = _rms(z / scale), _rms(f / scale)
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6,
                             0.01 * d0 / d1), t)
    d2 = _rms((rate(h0, z + h0[:, None] * f) - f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d1, d2)) ** 0.2)
    h = np.minimum(np.minimum(100 * h0, h1), t)
    # growth cap of the next accepted step: 10, or 1 after a rejection
    cap = np.full(len(z), 10.0)
    while live.size:
        # a retried step is never below the minimum, or its row has ended
        min_step = 10 * (np.nextafter(s, np.inf) - s)
        s_new = np.minimum(s + np.maximum(h, min_step), t)
        h = s_new - s
        dt = h[:, None]
        stages = [f]
        for stage_times, a in zip(_DP_C[:, None] * h + s, _DP_A):
            stages.append(rate(stage_times, z + _combine(a, stages) * dt))
        z_new = z + dt * _combine(_DP_B, stages)
        stages.append(rate(s + h, z_new))
        scale = atol + np.maximum(np.abs(z), np.abs(z_new)) * rtol
        norm = _rms(_combine(_DP_E, stages) * dt / scale)
        ok = norm < 1
        read_to = np.where(ok, np.searchsorted(times, s_new), unread)
        for i in np.flatnonzero(read_to > unread):
            x = (times[unread[i]:read_to[i]] - s[i]) / h[i]
            powers = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1)
            slopes = np.stack([stage[i] for stage in stages]).T @ _DP_P
            out[live[i], unread[i]:read_to[i]] = \
                z[i] + h[i] * (powers @ slopes.T)
        unread = read_to
        # 0.9 norm^(-1/5) exceeds 0.9 on acceptance and is at most 0.9 on
        # rejection, so one clip applies both of scipy's limits
        h = h * np.minimum(np.maximum(0.9 * norm ** -0.2, 0.2), cap)
        if np.count_nonzero(ok) == len(ok):
            s, z, f = s_new, z_new, stages[-1]
        else:
            s, z = np.where(ok, s_new, s), np.where(ok[:, None], z_new, z)
            f = np.where(ok[:, None], stages[-1], f)
        cap = np.where(ok, 10.0, 1.0)
        ended = np.where(ok, s_new >= t, ~(h >= min_step) | (norm == np.inf))
        if np.count_nonzero(ended):
            done = ended & ok
            out[live[done], -1] = z[done]
            reached[live[ended]] = s[ended]
            stalled[live[ended]] = np.isfinite(norm[ended]) & ~ok[ended]
            keep = ~ended
            live, s, z, f, h, cap, unread = (
                live[keep], s[keep], z[keep], f[keep], h[keep], cap[keep],
                unread[keep])
    return out, reached, stalled


def _flow_rate(model, with_gradient: bool):
    """Right-hand side ``rate(t, z)`` of the flow on states (..., n), or of
    the flow and its variational equation on (..., n + n * n), DF row-major."""
    if not with_gradient:
        return lambda t, z: model.drift(z, t)
    n = model.dim_state

    def rate(t, z):
        x, lead = z[..., :n], z.shape[:-1]
        out = np.empty_like(z)
        out[..., :n] = model.drift(x, t)
        out[..., n:] = (model.drift_gradient(x, t)
                        @ z[..., n:].reshape(lead + (n, n))).reshape(
            lead + (n * n,))
        return out
    return rate


def solve_flow(model, x0, times, tol: float = DEFAULT_TOL,
               with_gradient: bool = True):
    """The flow F (times.shape + (n,)) at ``times``, a scalar or an array
    of non-negative times, and its gradient DF (times.shape + (n, n)) or
    None. One adaptive solve runs to the latest time and reads each step's
    interpolant at the times inside it, so memory does not grow with the
    horizon; the latest time reads the end state, and at t = 0 the flow is
    x0 and DF is I, with no solve. A solve that stops short raises
    IntegrationFailure with the time it reached and the reason."""
    n = model.dim_state
    x0 = _checks.finite_array(x0, "x0", (n,))
    times = _checks.finite_array(times, "times").reshape(np.shape(times))
    _checks.at_least(float(times.min(initial=0.0)), "times")
    _checks.positive(tol, "tol")

    z0 = np.concatenate([x0, np.eye(n).ravel()]) if with_gradient else x0
    # the distinct times in order, with 0 among them so that an empty
    # array needs no case of its own
    grid, inverse = np.unique(np.append(times, 0.0), return_inverse=True)
    out, reached, stalled = _dormand_prince(
        _flow_rate(model, with_gradient), z0[None], grid, tol)
    if reached[0] < grid[-1] or not np.isfinite(out).all():
        why = ("its step fell below 10 ulp of its time" if stalled[0]
               else "its error norm or state went non-finite")
        raise IntegrationFailure(
            f"flow integration failed for model {model.name!r} at "
            f"t={reached[0]:.6g}: {why}", last_time=float(reached[0]))
    z = out[0, inverse[:-1]].reshape(times.shape + z0.shape)
    if not with_gradient:
        return z, None
    return z[..., :n], z[..., n:].reshape(times.shape + (n, n))

"""Exact Gaussian law of the linearised SDE solution.

The solution of the linearisation about a reference deterministic trajectory
is Gaussian for fixed or Gaussian initial conditions. Its mean follows the
flow (shifted by the transported initial-mean offset) and its covariance
solves the Lyapunov-type matrix ODE

    dPi/dt = J(t) Pi + Pi J(t)^T + eps^2 S(t) S(t)^T,   Pi(0) = Var(x),

with J and S the drift gradient and diffusion evaluated along the reference
trajectory. Its solution splits as Pi(t) = DF Var(x) DF^T + eps^2 P1(t),
with P1 the unit-noise covariance (eps = 1, P1(0) = 0); the integrators
compute only P1 and, when needed, DF. Both take a block of independent
nodes: the adaptive one is a Dormand-Prince 5(4) loop that steps every
node still running together, each under its own copy of scipy RK45's
step controller, and the fixed-step one advances the whole block. P1 is
also available in quadrature form as DF (int L L^T dtau) DF^T with
L(tau) = DF(tau)^{-1} S(tau) at the Gauss nodes of one flow solve, an
independent discretisation used for cross-checking; the ODE route never
needs the gradient inverse and is the production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _checks
from .artifacts import read_record
from .exceptions import (CovarianceError, IntegrationFailure,
                         SingularGradientError)
from .flow import DEFAULT_TOL, _flow_rate, _variational_rate, solve_flow

#: condition number of the flow gradient above which the quadrature
#: cross-check treats it as numerically singular
COND_LIMIT = 1e12

#: covariance integrators of :func:`linearised_distribution` and s2 fields
METHODS = ("rk45", "mazzoni")

#: dense-output nodes per unit time for the quadrature cross-check
QUAD_NODES_PER_UNIT_TIME = 200


def _check_covariance(cov: np.ndarray, where: str) -> np.ndarray:
    """Validate symmetry and positive semi-definiteness, return symmetrised."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if not np.all(np.isfinite(cov)):
        raise CovarianceError(f"{where}: covariance has non-finite entries")
    scale = max(float(np.linalg.norm(cov)), 1e-300)
    asym = float(np.max(np.abs(cov - cov.T)))
    if asym > 1e-12 * scale:
        raise CovarianceError(f"{where}: covariance asymmetry {asym:.3g} "
                              f"exceeds 1e-12 * norm ({scale:.3g})")
    sym = 0.5 * (cov + cov.T)
    eigvals = np.linalg.eigvalsh(sym)
    if eigvals[0] < -1e-10 * scale:
        raise CovarianceError(f"{where}: covariance is not PSD; eigenvalues "
                              f"{eigvals}")
    return sym


@dataclass(frozen=True)
class GaussianState:
    """Mean and covariance of the linearised solution at one time."""

    mean: np.ndarray
    covariance: np.ndarray
    t: float
    epsilon: float

    def validate(self) -> "GaussianState":
        _check_covariance(self.covariance, "GaussianState")
        if not np.all(np.isfinite(self.mean)):
            raise CovarianceError("GaussianState: non-finite mean")
        return self

    def to_json(self) -> dict:
        return {"mean": list(map(float, self.mean)),
                "covariance": list(map(float, np.asarray(self.covariance).ravel())),
                "t": float(self.t),
                "epsilon": float(self.epsilon)}

    @classmethod
    def from_json(cls, data: dict) -> "GaussianState":
        mean = np.asarray(data["mean"], dtype=float)
        n = mean.shape[0]
        cov = np.asarray(data["covariance"], dtype=float).reshape(n, n)
        return cls(mean, cov, float(data["t"]), float(data["epsilon"]))

    @classmethod
    def load(cls, path) -> "GaussianState":
        return cls.from_json(read_record(path))


@dataclass(frozen=True)
class InitialCondition:
    """Initial law of the coupled system, relative to a reference point.

    ``kind`` is "fixed" (point mass at the reference point) or "gaussian".
    For the Gaussian case the reference point defaults to the mean, the
    natural linearisation point. ``rho`` records the isotropic scale when
    the covariance was specified as rho^2 * I, else None.
    """

    kind: str
    reference_point: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    rho: Optional[float] = None

    @classmethod
    def fixed(cls, x0) -> "InitialCondition":
        x0 = _checks.real_array(x0, "x0")
        n = x0.shape[0]
        return cls("fixed", x0, x0.copy(), np.zeros((n, n)), rho=0.0)

    @classmethod
    def gaussian(cls, mean, covariance=None, rho: Optional[float] = None,
                 reference_point=None) -> "InitialCondition":
        mean = _checks.real_array(mean, "mean")
        n = mean.shape[0]
        if (covariance is None) == (rho is None):
            raise ValueError("specify exactly one of covariance or rho")
        if rho is not None:
            covariance = _checks.at_least(rho, "rho") ** 2 * np.eye(n)
        covariance = np.atleast_2d(_checks.real_array(covariance, "covariance"))
        if covariance.shape != (n, n):
            raise ValueError(f"covariance must have shape ({n}, {n})")
        ref = mean.copy() if reference_point is None \
            else _checks.real_array(reference_point, "reference_point")
        return cls("gaussian", ref, mean, covariance, rho=rho)

    def validate(self) -> "InitialCondition":
        if self.kind not in ("fixed", "gaussian"):
            raise ValueError(f"unknown initial-condition kind {self.kind!r}")
        n = _check_covariance(self.covariance, "InitialCondition").shape[0]
        _checks.finite_array(self.mean, "mean", (n,))
        _checks.finite_array(self.reference_point, "reference_point", (n,))
        if self.kind == "fixed":
            if np.any(self.covariance != 0.0):
                raise ValueError("fixed initial condition must have zero covariance")
            if not np.array_equal(self.mean, self.reference_point):
                raise ValueError("fixed initial condition must have "
                                 "mean equal to the reference point")
        return self

    @property
    def dim(self) -> int:
        return self.reference_point.shape[0]


def linearised_distribution(model, init: InitialCondition, t: float,
                            epsilon: float, tol: float = DEFAULT_TOL,
                            method: str = "rk45", dt: float = 1e-3) -> GaussianState:
    """Gaussian law at time t of the linearised solution from ``init``.

    With x0, mean0 and Sigma0 the reference point, mean and covariance of
    ``init``, the law splits by linearity into

        mean = F(t) + DF(t) (mean0 - x0),
        Pi(t) = DF(t) Sigma0 DF(t)^T + eps^2 P1(t),

    where P1, the unit-noise covariance, solves the covariance ODE with
    eps = 1 from P1(0) = 0. Only P1, the reference state and (when Sigma0
    is non-zero or the mean is offset) the flow gradient DF are
    integrated, so one solve serves every noise scale.

    ``method`` selects the kernel of :func:`_propagate`, the one s2 fields
    use: "rk45" (default, adaptive embedded Runge-Kutta on the augmented
    system to tolerance ``tol``) or "mazzoni" (fixed steps of ``dt`` and no
    use of ``tol``; its congruence keeps P1 symmetric PSD). A non-finite
    result raises IntegrationFailure.
    """
    init.validate()
    if init.dim != model.dim_state:
        raise ValueError(f"initial condition has shape ({init.dim},), model "
                         f"{model.name!r} needs ({model.dim_state},)")
    _checks.at_least(t, "t")
    _checks.at_least(epsilon, "epsilon")
    _checks.positive(tol, "tol")
    _checks.positive(dt, "dt")
    if method not in METHODS:
        raise ValueError(f"unknown covariance integrator {method!r}")
    x0 = init.reference_point
    sigma0 = _check_covariance(init.covariance, "InitialCondition")
    offset = None if np.array_equal(init.mean, x0) else init.mean - x0

    if t == 0.0:
        mean = x0.copy() if offset is None else x0 + offset
        return GaussianState(mean, sigma0, 0.0, epsilon).validate()

    need_gradient = offset is not None or bool(np.any(sigma0))
    state, grad, unit = _propagate(model, x0, t, method, tol, dt,
                                   need_gradient)
    if not (np.isfinite(state).all() and np.isfinite(unit).all()
            and (grad is None or np.isfinite(grad).all())):
        raise IntegrationFailure(
            f"{method} covariance integration for model {model.name!r} "
            f"became non-finite before t={t:.6g}")

    mean = state if offset is None else state + grad @ offset
    cov = epsilon ** 2 * unit
    if need_gradient:
        cov = cov + grad @ sigma0 @ grad.T
    cov = 0.5 * (cov + cov.T)
    return GaussianState(mean, cov, float(t), float(epsilon)).validate()


def _propagate(model, x0, t, method, tol, dt, need_gradient):
    """States, DF (or None) and unit-noise covariances at t of independent
    nodes ``x0`` (..., n) by ``method``; a failed node ends non-finite."""
    if method == "rk45":
        return _propagate_rk45(model, x0, t, tol, need_gradient)
    return _propagate_fixed_step(model, x0, t, dt, need_gradient)


#: Dormand-Prince 5(4) tableau of scipy's RK45 (Dormand & Prince 1980):
#: stage times and coefficients, fifth-order weights, and the weights of
#: the error estimate over the seven stages (the last is the rate at the
#: step end, which starts the next step)
_DP_C = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200,
         -22 / 525, 1 / 40)


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


def _dormand_prince(rate, z, t, rtol, atol):
    """Rows of ``z`` (k, d) carried from 0 to t by ``rate(s, z)``, each under
    its own copy of scipy RK45's step controller; a row whose error norm
    goes non-finite, or whose step falls below 10 ulp of its time, ends as
    NaN. Every stage is one ``rate`` call on the rows still running, and
    the working arrays shrink when a row ends."""
    out = np.full(z.shape, np.nan)
    live = np.arange(len(z))
    s = np.zeros(len(z))
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
        for times, a in zip(_DP_C[:, None] * h + s, _DP_A):
            stages.append(rate(times, z + _combine(a, stages) * dt))
        z_new = z + dt * _combine(_DP_B, stages)
        stages.append(rate(s + h, z_new))
        scale = atol + np.maximum(np.abs(z), np.abs(z_new)) * rtol
        norm = _rms(_combine(_DP_E, stages) * dt / scale)
        ok = norm < 1
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
            out[live[done]] = z[done]
            keep = ~ended
            live, s, z, f, h, cap = (live[keep], s[keep], z[keep], f[keep],
                                     h[keep], cap[keep])
    return out


def _covariance_rate(model, n, need_gradient):
    """Rate ``rate(s, z)`` of the augmented rows z (k, n + [n * n] + n * n):
    state, DF row-major when ``need_gradient``, and the unit-noise
    covariance P, symmetrised before use; one ``coefficients`` call on the
    (k, n) states per evaluation."""
    ng = n * n if need_gradient else 0

    def rate(s, z):
        k = len(z)
        pi = z[:, n + ng:].reshape(k, n, n)
        pi = 0.5 * (pi + pi.swapaxes(1, 2))
        drift, jac, sig = model.coefficients(z[:, :n], s)
        jp = jac @ pi
        out = np.empty_like(z)
        out[:, :n] = drift
        if need_gradient:
            out[:, n:n + ng] = (jac @ z[:, n:n + ng].reshape(k, n, n)
                                ).reshape(k, ng)
        out[:, n + ng:] = (jp + jp.swapaxes(1, 2)
                           + sig @ sig.swapaxes(1, 2)).reshape(k, n * n)
        return out
    return rate


def _propagate_rk45(model, x0, t, tol, need_gradient):
    """States, DF (or None) and unit-noise covariances at t of the nodes of
    ``x0`` (..., n), stepped together by one Dormand-Prince 5(4) loop with
    scipy RK45's controller per node (relative tolerance ``tol``, at least
    100 machine epsilons as in scipy, absolute ``tol / 100``); a node that
    fails ends as NaN rows."""
    n = x0.shape[-1]
    ng = n * n if need_gradient else 0
    nodes = x0.reshape(-1, n)
    tail = np.concatenate([np.eye(n).ravel()[:ng], np.zeros(n * n)])
    z = np.concatenate([nodes, np.broadcast_to(tail, (len(nodes), len(tail)))],
                       axis=1)
    if t > 0.0 and len(z):
        with np.errstate(all="ignore"):
            z = _dormand_prince(_covariance_rate(model, n, need_gradient), z,
                                t, max(tol, 100 * np.finfo(float).eps),
                                tol * 1e-2)
    z = z.reshape(x0.shape[:-1] + z.shape[-1:])
    cov = z[..., n + ng:].reshape(x0.shape[:-1] + (n, n))
    grad = z[..., n:n + ng].reshape(cov.shape) if need_gradient else None
    return z[..., :n], grad, cov


def _midpoint_step(jac, sig, h):
    """Midpoint transition Phi and unit-noise forcing of one step of size h.

    ``jac`` (..., n, n) and ``sig`` (..., n, m) are taken at the step
    midpoints, over any leading batch axis. Phi is the implicit-midpoint
    (Cayley) transition; the symmetrised forcing carries the noise from the
    midpoint to the end of the step, which keeps the update
    P <- Phi P Phi^T + forcing second order as well as symmetric PSD.
    """
    eye = np.eye(jac.shape[-1])
    phi = np.linalg.solve(eye - 0.5 * h * jac, eye + 0.5 * h * jac)
    half = np.linalg.solve(eye - 0.25 * h * jac, eye + 0.25 * h * jac)
    moved = half @ sig
    forcing = h * np.einsum("...ij,...lj->...il", moved, moved)
    return phi, 0.5 * (forcing + np.swapaxes(forcing, -1, -2))


def _propagate_fixed_step(model, x0, t, dt, need_gradient):
    """States, DF (or None) and unit-noise covariances at t by fixed steps.

    ``x0`` has shape (..., n), one independent node per leading index. Two
    classical RK4 half steps per step h = t / round(t / dt) carry the state
    (and DF, by the variational equation), so the step midpoint falls on
    the state grid for the congruence of :func:`_midpoint_step`. A node
    that blows up ends non-finite without affecting the others.
    """
    n = x0.shape[-1]
    steps = max(1, round(t / dt))
    h = t / steps
    rate = _flow_rate(model, need_gradient)
    eye = np.broadcast_to(np.eye(n).ravel(), x0.shape[:-1] + (n * n,))
    z = np.concatenate([x0, eye], axis=-1) if need_gradient else x0
    cov = np.zeros(x0.shape[:-1] + (n, n))

    def rk4(zc, tc, hc, k1=None):
        if k1 is None:
            k1 = rate(tc, zc)
        k2 = rate(tc + 0.5 * hc, zc + 0.5 * hc * k1)
        k3 = rate(tc + 0.5 * hc, zc + 0.5 * hc * k2)
        k4 = rate(tc + hc, zc + hc * k3)
        return zc + (hc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            tk = k * h
            z_mid = rk4(z, tk, 0.5 * h)
            # the midpoint coefficients also give the second half step's
            # first stage
            drift, jac, sig = model.coefficients(z_mid[..., :n],
                                                 tk + 0.5 * h)
            z = rk4(z_mid, tk + 0.5 * h, 0.5 * h,
                    _variational_rate(z_mid, drift, jac)
                    if need_gradient else drift)
            phi, forcing = _midpoint_step(jac, sig, h)
            cov = phi @ cov @ np.swapaxes(phi, -1, -2) + forcing
    # mirror the lower triangle (eigvalsh's) so points and fields agree
    cov = np.tril(cov) + np.swapaxes(np.tril(cov, -1), -1, -2)
    grad = z[..., n:].reshape(cov.shape) if need_gradient else None
    return z[..., :n], grad, cov


def covariance_by_quadrature(model, x0, t: float, quad_points: Optional[int] = None,
                             tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ongoing-uncertainty covariance via the quadrature form.

    Computes DF(t) (int_0^t L L^T dtau) DF(t)^T with
    L(tau) = DF(tau)^{-1} sigma(F(tau), tau), using composite 5-point
    Gauss-Legendre quadrature over the dense output of one flow solve.
    ``quad_points`` is the number of composite subintervals (default
    QUAD_NODES_PER_UNIT_TIME per unit time, at least 16). Requires an
    invertible flow gradient along the trajectory; the node time is named
    if the gradient is numerically singular there.

    Equals the covariance from :func:`linearised_distribution` with
    epsilon = 1 from a fixed start, up to discretisation error.
    """
    n = model.dim_state
    x0 = _checks.finite_array(x0, "x0", (n,))
    _checks.at_least(t, "t")
    n_sub = max(16, int(np.ceil(QUAD_NODES_PER_UNIT_TIME * t))) \
        if quad_points is None else _checks.integer(quad_points, "quad_points")
    if t == 0.0:
        return np.zeros((n, n))

    nodes, weights = np.polynomial.legendre.leggauss(5)
    edges = np.linspace(0.0, t, n_sub + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    times = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()

    states, grads = solve_flow(model, x0, np.append(times, t), tol=tol)
    states, grads, grad_t = states[:-1], grads[:-1], grads[-1]
    conds = np.linalg.cond(grads)
    if np.any(conds > COND_LIMIT):
        bad = times[int(np.argmax(conds > COND_LIMIT))]
        raise SingularGradientError(
            f"flow gradient is numerically singular at quadrature node "
            f"t={bad:.6g} (cond={conds.max():.3g})", node_time=float(bad))
    sig = model.diffusion(states, times)
    loc = np.linalg.solve(grads, sig)
    integral = np.einsum("k,kij,klj->il", w, loc, loc)
    cov = grad_t @ integral @ grad_t.T
    return 0.5 * (cov + cov.T)

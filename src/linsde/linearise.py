"""Exact Gaussian law of the linearised SDE solution.

The solution of the linearisation about a reference deterministic trajectory
is Gaussian for fixed or Gaussian initial conditions. Its mean follows the
flow (shifted by the transported initial-mean offset) and its covariance
solves the Lyapunov-type matrix ODE

    dPi/dt = J(t) Pi + Pi J(t)^T + eps^2 S(t) S(t)^T,   Pi(0) = Var(x),

with J and S the drift gradient and diffusion evaluated along the reference
trajectory. Its solution splits as Pi(t) = DF Var(x) DF^T + eps^2 P1(t),
with P1 the unit-noise covariance (eps = 1, P1(0) = 0); the covariance
integrators compute only the state and P1, and DF, when a Gaussian or
offset start needs it, comes from :func:`flow.solve_flow`, the one
variational solve. Both integrators take a block of independent nodes:
the adaptive one is the flow module's Dormand-Prince 5(4) loop, which
steps every node still running together, each under its own copy of
scipy RK45's step controller, and the fixed-step one advances the whole
block. P1 is also available in quadrature form as
DF (int L L^T dtau) DF^T with L(tau) = DF(tau)^{-1} S(tau) at the Gauss
nodes of one flow solve, an independent discretisation used for
cross-checking; the ODE route never needs the gradient inverse and is the
production path.

Both laws, :class:`InitialCondition` and :class:`GaussianState`, check
themselves when built, and :meth:`GaussianState.load` reads a law file
through that check, so no law with a non-finite entry or a covariance
that is not symmetric PSD exists; an initial law's ``kind`` is derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _checks
from .artifacts import read_record
from .exceptions import (CovarianceError, IntegrationFailure,
                         SingularGradientError)
from .flow import DEFAULT_TOL, _dormand_prince, solve_flow

#: condition number of the flow gradient above which the quadrature
#: cross-check treats it as numerically singular
COND_LIMIT = 1e12

#: covariance integrators of :func:`linearised_distribution` and s2 fields
METHODS = ("rk45", "mazzoni")

#: dense-output nodes per unit time for the quadrature cross-check
QUAD_NODES_PER_UNIT_TIME = 200


def _check_covariance(cov, n: int, where: str) -> np.ndarray:
    """``cov`` as a float (n, n) array, symmetrised, if it is finite and
    symmetric PSD."""
    cov = np.atleast_2d(_checks.real_array(cov, "covariance"))
    if cov.shape != (n, n):
        raise ValueError(f"covariance must have shape ({n}, {n}), "
                         f"got {cov.shape}")
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
    """Mean and covariance of the linearised solution at one time, checked
    when built: a finite mean and a symmetric PSD covariance."""

    mean: np.ndarray
    covariance: np.ndarray
    t: float
    epsilon: float

    def __post_init__(self):
        _check_covariance(self.covariance, np.size(self.mean),
                          "GaussianState")
        if not np.all(np.isfinite(self.mean)):
            raise CovarianceError("GaussianState: non-finite mean")

    def to_json(self) -> dict:
        return {"mean": list(map(float, self.mean)),
                "covariance": list(map(float, np.asarray(self.covariance).ravel())),
                "t": float(self.t),
                "epsilon": float(self.epsilon)}

    @classmethod
    def load(cls, path) -> "GaussianState":
        data = read_record(path)
        mean = np.asarray(data["mean"], dtype=float)
        cov = np.asarray(data["covariance"], dtype=float).reshape(len(mean), -1)
        return cls(mean, cov, float(data["t"]), float(data["epsilon"]))


@dataclass(frozen=True)
class InitialCondition:
    """Initial law of the coupled system, relative to a reference point.

    Building one converts the mean and the reference point to finite
    points of R^n and the covariance to a symmetrised (n, n) PSD matrix.
    ``kind`` is derived: "fixed" (point mass at the reference point) when
    the covariance is zero and the mean is the reference point, else
    "gaussian". The reference point defaults to the mean, the natural
    linearisation point. ``rho`` records the isotropic scale when the
    covariance was specified as rho^2 * I, else None.
    """

    reference_point: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    rho: Optional[float] = None

    def __post_init__(self):
        mean = _checks.finite_array(self.mean, "mean", (np.size(self.mean),))
        object.__setattr__(self, "reference_point", _checks.finite_array(
            self.reference_point, "reference_point", mean.shape))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", _check_covariance(
            self.covariance, len(mean), "InitialCondition"))

    @classmethod
    def fixed(cls, x0) -> "InitialCondition":
        x0 = _checks.real_array(x0, "x0")
        n = x0.shape[0]
        return cls(x0, x0.copy(), np.zeros((n, n)), rho=0.0)

    @classmethod
    def gaussian(cls, mean, covariance=None, rho: Optional[float] = None,
                 reference_point=None) -> "InitialCondition":
        mean = _checks.real_array(mean, "mean")
        if (covariance is None) == (rho is None):
            raise ValueError("specify exactly one of covariance or rho")
        if rho is not None:
            covariance = _checks.at_least(rho, "rho") ** 2 * np.eye(len(mean))
        ref = mean.copy() if reference_point is None else reference_point
        return cls(ref, mean, covariance, rho=rho)

    @property
    def kind(self) -> str:
        return "gaussian" if np.any(self.covariance) or not np.array_equal(
            self.mean, self.reference_point) else "fixed"

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
    eps = 1 from P1(0) = 0. The covariance kernel integrates only the
    reference state and P1, so one solve serves every noise scale; when
    Sigma0 is non-zero or the mean is offset, DF comes from one
    :func:`solve_flow` to tolerance ``tol``, for either method.

    ``method`` selects the kernel of :func:`_propagate`, the one s2 fields
    use: "rk45" (default, adaptive embedded Runge-Kutta on the augmented
    system to tolerance ``tol``) or "mazzoni" (fixed steps of ``dt``; its
    congruence keeps P1 symmetric PSD, and it reads ``tol`` only for DF).
    A non-finite kernel result raises IntegrationFailure before DF is
    solved.
    """
    if init.dim != model.dim_state:
        raise ValueError(f"initial condition has shape ({init.dim},), model "
                         f"{model.name!r} needs ({model.dim_state},)")
    _checks.at_least(t, "t")
    _checks.at_least(epsilon, "epsilon")
    _checks.positive(tol, "tol")
    _checks.positive(dt, "dt")
    if method not in METHODS:
        raise ValueError(f"unknown covariance integrator {method!r}")
    x0, sigma0 = init.reference_point, init.covariance
    offset = None if np.array_equal(init.mean, x0) else init.mean - x0

    state, unit = _propagate(model, x0, t, method, tol, dt)
    if not (np.isfinite(state).all() and np.isfinite(unit).all()):
        raise IntegrationFailure(
            f"{method} covariance integration for model {model.name!r} "
            f"became non-finite before t={t:.6g}")

    mean, cov = state, epsilon ** 2 * unit
    if offset is not None or np.any(sigma0):
        grad = solve_flow(model, x0, t, tol)[1]
        if offset is not None:
            mean = state + grad @ offset
        cov = cov + grad @ sigma0 @ grad.T
    cov = 0.5 * (cov + cov.T)
    return GaussianState(mean, cov, float(t), float(epsilon))


def _propagate(model, x0, t, method, tol, dt):
    """States and unit-noise covariances at t of independent nodes ``x0``
    (..., n) by ``method``; a failed node ends non-finite."""
    if method == "rk45":
        return _propagate_rk45(model, x0, t, tol)
    return _propagate_fixed_step(model, x0, t, dt)


def _covariance_rate(model, n):
    """Rate ``rate(s, z)`` of the augmented rows z (k, n + n * n): state and
    the unit-noise covariance P; one ``coefficients`` call on the (k, n)
    states per evaluation. P needs no symmetrisation: J P + (J P)^T and
    S S^T are symmetric bit for bit, and the Runge-Kutta combinations act
    entrywise, so P stays exactly symmetric from P(0) = 0."""
    def rate(s, z):
        k = len(z)
        drift, jac, sig = model.coefficients(z[:, :n], s)
        jp = jac @ z[:, n:].reshape(k, n, n)
        out = np.empty_like(z)
        out[:, :n] = drift
        # S times a contiguous copy of S^T: the same bits as S times its
        # own transposed view, two to three times faster on small stacks
        out[:, n:] = (jp + jp.swapaxes(1, 2)
                      + sig @ sig.swapaxes(1, 2).copy()).reshape(k, n * n)
        return out
    return rate


def _propagate_rk45(model, x0, t, tol):
    """States and unit-noise covariances at t of the nodes of ``x0``
    (..., n), stepped together by one Dormand-Prince 5(4) loop with scipy
    RK45's controller per node (:func:`flow._dormand_prince`); a node that
    fails ends as NaN rows."""
    n = x0.shape[-1]
    nodes = x0.reshape(-1, n)
    z = np.concatenate([nodes, np.zeros((len(nodes), n * n))], axis=1)
    z = _dormand_prince(_covariance_rate(model, n), z, np.array([t]),
                        tol)[0][:, 0]
    z = z.reshape(x0.shape[:-1] + z.shape[-1:])
    return z[..., :n], z[..., n:].reshape(x0.shape[:-1] + (n, n))


def _midpoint_step(jac, sig, h):
    """Midpoint transition Phi and unit-noise forcing of one step of size h.

    ``jac`` (..., n, n) and ``sig`` (..., n, m) are taken at the step
    midpoints, over any leading batch axis. Phi is the implicit-midpoint
    (Cayley) transition; the forcing carries the noise from the midpoint to
    the end of the step, which keeps the update P <- Phi P Phi^T + forcing
    second order as well as PSD. Its entries (i, l) and (l, i) sum the same
    products in the same order, so it is symmetric bit for bit.
    """
    eye = np.eye(jac.shape[-1])
    phi = np.linalg.solve(eye - 0.5 * h * jac, eye + 0.5 * h * jac)
    half = np.linalg.solve(eye - 0.25 * h * jac, eye + 0.25 * h * jac)
    moved = half @ sig
    return phi, h * np.einsum("...ij,...lj->...il", moved, moved)


def _propagate_fixed_step(model, x0, t, dt):
    """States and unit-noise covariances at t by fixed steps.

    ``x0`` has shape (..., n), one independent node per leading index. Two
    classical RK4 half steps per step h = t / round(t / dt) carry the
    state, so the step midpoint falls on the state grid for the congruence
    of :func:`_midpoint_step`. A node that blows up ends non-finite without
    affecting the others.
    """
    n = x0.shape[-1]
    steps = max(1, round(t / dt))
    h = t / steps
    z = x0
    cov = np.zeros(x0.shape[:-1] + (n, n))

    def rk4(zc, tc, hc, k1=None):
        if k1 is None:
            k1 = model.drift(zc, tc)
        k2 = model.drift(zc + 0.5 * hc * k1, tc + 0.5 * hc)
        k3 = model.drift(zc + 0.5 * hc * k2, tc + 0.5 * hc)
        k4 = model.drift(zc + hc * k3, tc + hc)
        return zc + (hc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            tk = k * h
            z_mid = rk4(z, tk, 0.5 * h)
            # the midpoint coefficients also give the second half step's
            # first stage
            drift, jac, sig = model.coefficients(z_mid, tk + 0.5 * h)
            z = rk4(z_mid, tk + 0.5 * h, 0.5 * h, drift)
            phi, forcing = _midpoint_step(jac, sig, h)
            cov = phi @ cov @ np.swapaxes(phi, -1, -2) + forcing
    # mirror the lower triangle (eigvalsh's) so points and fields agree
    cov = np.tril(cov) + np.swapaxes(np.tril(cov, -1), -1, -2)
    return z, cov


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

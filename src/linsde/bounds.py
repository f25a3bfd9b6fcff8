"""Explicit constants and right-hand side of the strong linearisation-error bound.

The moment bound on E||y_t - l_t||^r splits into three non-negative terms:
a purely ongoing-noise term scaling as eps^{2r}, a purely initial-uncertainty
term scaling as delta_{2r}^{2r}, and a cross term scaling as delta_r^r eps^r.
This module evaluates the Gaussian absolute-moment constants, the Gronwall
lemma constants H1/H2, the theorem constants D1/D2/D3 (including the max-type
constant K_M), the assembled three-term breakdown, and a grid-sampling
estimator for the coefficient suprema of a given model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _checks
from .exceptions import NumericalDomainError


def default_bdg_constant(r: float) -> float:
    """Burkholder-Davis-Gundy constant G_{r/2} for the r-th moment.

    Classical explicit choice G_p = (p/(p-1))^p * p^{p/2} for p > 1,
    extended by G_p = 4 for p <= 1. Any valid constant preserves the
    scaling structure of the bound; this default is documented, not
    claimed sharp, and can be overridden per BoundConstants instance.
    """
    check_bound(r, 0.0)
    p = 0.5 * r
    if p <= 1.0:
        return 4.0
    return (p / (p - 1.0)) ** p * p ** (0.5 * p)


@dataclass(frozen=True)
class BoundConstants:
    """Coefficient suprema of a model, as used by the error bound.

    k_grad_u bounds the spectral norm of the drift gradient (Lipschitz
    constant of the drift), k_hess_u the drift second derivatives,
    k_grad_sigma the diffusion spatial derivatives and k_sigma the
    diffusion itself. ``bdg_constant`` maps a moment order r to G_{r/2}.
    """

    k_grad_u: float
    k_hess_u: float
    k_grad_sigma: float
    k_sigma: float
    bdg_constant: Callable[[float], float] = default_bdg_constant
    n: int = 1

    def __post_init__(self):
        for name in ("k_grad_u", "k_hess_u", "k_grad_sigma", "k_sigma"):
            _checks.at_least(getattr(self, name), name)
        _checks.integer(self.n, "n")


@dataclass(frozen=True)
class BoundBreakdown:
    """Three-term decomposition of the bound's right-hand side.

    total == term_ongoing + term_initial + term_cross; all terms >= 0.
    Inputs are echoed for provenance.
    """

    term_ongoing: float
    term_initial: float
    term_cross: float
    total: float
    r: float
    t: float
    epsilon: float
    delta_r: float
    delta_2r: float

    def to_json(self) -> dict:
        return {
            "term_ongoing": self.term_ongoing,
            "term_initial": self.term_initial,
            "term_cross": self.term_cross,
            "total": self.total,
            "inputs": {
                "r": self.r,
                "t": self.t,
                "epsilon": self.epsilon,
                "delta_r": self.delta_r,
                "delta_2r": self.delta_2r,
            },
        }


def _overflowed() -> float:
    """+inf for a constant that overflowed (the bound stays valid, just
    vacuous), with a warning."""
    warnings.warn("bound constant overflowed to infinity; the bound is "
                  "still valid but vacuous", RuntimeWarning, stacklevel=4)
    return math.inf


def _exp(x: float) -> float:
    """exp with overflow mapped to +inf."""
    try:
        return math.exp(x)
    except OverflowError:
        return _overflowed()


def moment_constant(r: float) -> float:
    """Absolute moment E|Z|^r of a standard normal: 2^{r/2} Gamma((r+1)/2) / sqrt(pi).

    For a univariate Gaussian with standard deviation rho, the r-th absolute
    central moment equals moment_constant(r) * rho^r exactly. A value that
    overflows is +inf, with a warning.
    """
    r = float(_checks.at_least(r, "r"))
    try:
        value = 2.0 ** (0.5 * r) * math.gamma(0.5 * (r + 1.0)) / math.sqrt(math.pi)
    except OverflowError:
        return _overflowed()
    return value if value < math.inf else _overflowed()


def gaussian_delta_bound(sigma0: np.ndarray, r: float) -> float:
    """Upper bound on the L_r distance delta_r of a Gaussian draw from its mean.

    Uses the trace bound delta_r^r <= n^{3r/2-1} M_r tr(Sigma0)^{r/2},
    which holds with equality when n = 1 (where it reduces to M_r rho^r
    with rho^2 = tr(Sigma0)). Returns delta_r itself, not its r-th power.
    """
    _checks.positive(r, "r")
    sigma0 = np.atleast_2d(_checks.finite_array(sigma0, "covariance"))
    n = sigma0.shape[0]
    trace = _checks.at_least(float(np.trace(sigma0)), "covariance trace")
    delta_pow_r = n ** (1.5 * r - 1.0) * moment_constant(r) * trace ** (0.5 * r)
    return delta_pow_r ** (1.0 / r)


def lemma_constants(q: float, t: float, constants: BoundConstants) -> tuple[float, float]:
    """Constants (H1, H2) of the Gronwall lemma controlling E int ||y - F||^q.

    H1(q, t) = 3^{q-1} n^{3q/2} K_sigma^{q/2} G_{q/2} t^{q/2+1} exp(3^{q-1} K_grad_u^q t^q)
    H2(q, t) = 3^{q-1} t exp(3^{q-1} K_grad_u^q t^q)

    Both are non-decreasing in t and vanish at t = 0. Overflow at large
    q * t yields +inf.
    """
    check_bound(q, t)
    g = _checks.positive(constants.bdg_constant(q), "BDG constant")
    pre = 3.0 ** (q - 1.0)
    growth = _exp(pre * constants.k_grad_u ** q * t ** q)
    h1 = pre * constants.n ** (1.5 * q) * constants.k_sigma ** (0.5 * q) \
        * g * t ** (0.5 * q + 1.0) * growth
    h2 = pre * t * growth
    return h1, h2


def check_bound(r: float, t: float, epsilon: float = 0.0,
                delta_r: float = 0.0, delta_2r: float = 0.0) -> None:
    """Reject arguments outside the bound's domain: finite r >= 1, t >= 0
    and epsilon, delta_r, delta_2r >= 0."""
    _checks.at_least(r, "r", 1)
    for value, name in ((t, "t"), (epsilon, "epsilon"), (delta_r, "delta_r"),
                        (delta_2r, "delta_2r")):
        _checks.at_least(value, name)


def theorem_constants(r: float, t: float, constants: BoundConstants) -> tuple[float, float, float]:
    """Constants (D1, D2, D3) multiplying the three terms of the bound.

    D1(r, t) = 3^{r-1} exp(3^{r-1} t^r K_grad_u^r) K_M(r, t)
    D2(r, t) = 3^{r-1} t^{r-1} n^{r/2} H2(2r, t) exp(3^{r-1} t^r K_grad_u^r)
    D3(r, t) = 3^{r-1} G_{r/2} t^{r/2-1} H2(r, t) exp(3^{r-1} t^r K_grad_u^r)

    with K_M(r, t) = max(t^{r-1} n^{r/2} H1(2r, t) / 2^r,
                         G_{r/2} t^{r/2-1} H1(r, t)).

    The apparent t^{r/2-1} singularity at t = 0 for r < 2 is removable
    because H1 and H2 both carry a positive power of t; the limit value 0
    is returned for all three constants at t = 0.
    """
    check_bound(r, t)
    if t == 0.0:
        return 0.0, 0.0, 0.0
    g = constants.bdg_constant(r)
    n = constants.n
    pre = 3.0 ** (r - 1.0)
    growth = _exp(pre * t ** r * constants.k_grad_u ** r)
    h1_2r, h2_2r = lemma_constants(2.0 * r, t, constants)
    h1_r, h2_r = lemma_constants(r, t, constants)
    k_m = max(t ** (r - 1.0) * n ** (0.5 * r) * h1_2r / 2.0 ** r,
              g * t ** (0.5 * r - 1.0) * h1_r)
    d1 = pre * growth * k_m
    d2 = pre * t ** (r - 1.0) * n ** (0.5 * r) * h2_2r * growth
    d3 = pre * g * t ** (0.5 * r - 1.0) * h2_r * growth
    return d1, d2, d3


def bound_rhs(r: float, t: float, epsilon: float, delta_r: float,
              delta_2r: float, constants: BoundConstants) -> BoundBreakdown:
    """Evaluate the full right-hand side of the moment bound.

    Parameters
    ----------
    r : moment order, >= 1.
    t : horizon time, >= 0.
    epsilon : ongoing-noise scale, >= 0.
    delta_r, delta_2r : L_r and L_{2r} distances of the initial condition
        from the reference point (0 for a fixed initial condition; for a
        Gaussian initial condition use :func:`gaussian_delta_bound`).
    constants : coefficient suprema of the model.

    A vanishing drift-curvature constant kills the initial term and its
    share of the ongoing term; a vanishing diffusion-derivative constant
    kills the cross term and its share of the ongoing term. With both zero
    the total is exactly 0 (the linearisation is exact).
    """
    check_bound(r, t, epsilon, delta_r, delta_2r)
    d1, d2, d3 = theorem_constants(r, t, constants)
    hess_pow = constants.k_hess_u ** r
    gsig_pow = constants.k_grad_sigma ** r
    term_ongoing = (hess_pow + gsig_pow) * d1 * epsilon ** (2.0 * r)
    term_initial = hess_pow * d2 * delta_2r ** (2.0 * r)
    term_cross = gsig_pow * d3 * delta_r ** r * epsilon ** r
    total = term_ongoing + term_initial + term_cross
    return BoundBreakdown(term_ongoing, term_initial, term_cross, total,
                          r, t, epsilon, delta_r, delta_2r)


def _max_spectral_norm(mats: np.ndarray) -> float:
    """Largest spectral norm over a stack of matrices (..., rows, cols)."""
    return float(np.max(np.linalg.norm(mats, 2, axis=(-2, -1))))


def _tensor_norm_probe(slabs: np.ndarray, probes: np.ndarray) -> float:
    """Lower estimate of the largest spectral norm of 3rd-order tensors.

    ``slabs`` has shape (n_points, n_rows, n_cols, n_dirs); each tensor's
    norm is sup_{||v||=1} || sum_k v_k T[:, :, k] ||_2, estimated over the
    given unit probe directions (axis-aligned probes should be included).
    """
    return _max_spectral_norm(np.einsum("qijk,pk->qpij", slabs, probes))


def _central_difference(fn, points: np.ndarray, t, h: float) -> np.ndarray:
    """Central differences of fn(points, t) along each axis, axis last."""
    return np.stack([fn(points + dp, t) - fn(points - dp, t)
                     for dp in h * np.eye(points.shape[-1])], axis=-1) / (2 * h)


def estimate_constants(model, domain=None, samples_per_axis: int = 33,
                       times=(0.0,), n_jitter: int = 32, n_probe: int = 64,
                       seed: int = 0, fd_step: float = 1e-5) -> BoundConstants:
    """Estimate coefficient suprema of a model by grid sampling.

    Evaluates the drift gradient, its finite-difference derivative, the
    diffusion and its finite-difference derivative over a tensor grid on
    the given axis-aligned box (default: the model's documented domain),
    augmented with uniformly jittered points, at each of the given times.
    The returned values are lower estimates of the true suprema.
    """
    _checks.integer(samples_per_axis, "samples_per_axis")
    _checks.integer(n_jitter, "n_jitter", 0)
    _checks.integer(n_probe, "n_probe", 0)
    _checks.positive(fd_step, "fd_step")
    times = [_checks.at_least(t, f"times[{i}]") for i, t in enumerate(times)]
    if not times:
        # no time sampled would give zero constants: a bound of 0
        raise ValueError("times must hold at least one time")
    if domain is None:
        domain = model.domain
    if domain is None:
        raise ValueError(f"model {model.name!r} has no documented domain; "
                         "pass one explicitly")
    n = model.dim_state
    lo = _checks.finite_array(domain[0], "domain[0]", (n,))
    hi = _checks.finite_array(domain[1], "domain[1]", (n,))

    axes = [np.linspace(lo[k], hi[k], samples_per_axis) for k in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    rng = np.random.default_rng(seed)
    points = np.vstack([points, lo + (hi - lo) * rng.random((n_jitter, n))])

    probes = np.vstack([np.eye(n), rng.standard_normal((n_probe, n))])
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)

    h = fd_step * max(1.0, float(np.max(np.abs(np.stack([lo, hi])))))
    k_grad_u = k_hess_u = k_grad_sigma = k_sigma = 0.0
    for t in times:
        grads = model.drift_gradient(points, t)
        sigmas = model.diffusion(points, t)
        drifts = model.drift(points, t)
        finite = (np.isfinite(drifts).all(axis=-1)
                  & np.isfinite(grads).all(axis=(-2, -1))
                  & np.isfinite(sigmas).all(axis=(-2, -1)))
        if not np.all(finite):
            bad = points[~finite][:1]
            raise NumericalDomainError(
                f"non-finite coefficient evaluation near {bad}", point=bad, time=t)
        k_grad_u = max(k_grad_u, _max_spectral_norm(grads))
        k_sigma = max(k_sigma, _max_spectral_norm(sigmas))

        hess = _central_difference(model.drift_gradient, points, t, h)
        dsig = _central_difference(model.diffusion, points, t, h)
        k_hess_u = max(k_hess_u, _tensor_norm_probe(hess, probes))
        k_grad_sigma = max(k_grad_sigma, _tensor_norm_probe(dsig, probes))

    return BoundConstants(k_grad_u=k_grad_u, k_hess_u=k_hess_u,
                          k_grad_sigma=k_grad_sigma, k_sigma=k_sigma, n=n)

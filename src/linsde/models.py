"""Built-in vector-field models: drift, diffusion, exact gradients, constants.

Every coefficient callable broadcasts over leading sample axes: states of
shape (..., n) map to drifts of shape (..., n), drift gradients (..., n, n)
and diffusions (..., n, m). Time is a scalar or an array broadcastable
against the leading axes. Scalar models use n = 1 with a trailing state axis.

The catalog ships the two 1-D benchmark systems (sine drift with additive
noise; linear drift with cosine multiplicative noise), the 2-D unsteady
meandering jet, and the linear-additive family dy = (A y + b) dt + eps S dW,
whose linearisation is exact: a default 2-D system, and Ornstein-Uhlenbeck
and Brownian motion as its named cases.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from . import _checks
from .bounds import BoundConstants
from .exceptions import UnknownModelError

__all__ = ["VectorFieldModel", "MeanderingJetParams", "builtin_model",
           "MODEL_NAMES"]


@dataclass(frozen=True)
class VectorFieldModel:
    """A stochastic model dy = u(y, t) dt + eps * sigma(y, t) dW.

    ``drift``, ``drift_gradient`` (the exact analytic spatial gradient of
    the drift) and ``diffusion`` are the model contract; a user model needs
    nothing else. They must be row-independent: each row of a batch
    (k, n), at its own time, gets the bits it gets alone as a (1, n)
    batch, since the adaptive covariance kernel evaluates the nodes still
    running as one batch and fields promise values that do not depend on
    their blocks. :meth:`coefficients` evaluates all three at one point,
    through a fused evaluation that shares work between them where the
    catalog provides one (the meandering jet), else through the three
    callables. Neither the fused evaluation nor the recipe that
    :func:`builtin_model` stamps is a constructor argument, so a model
    rebuilt by ``dataclasses.replace`` takes the callables and has no recipe.
    ``diffusion_gradient`` (shape (..., n, m, n), derivative axis last) is
    optional and only required by the 1-D Milstein scheme.
    ``domain`` is the documented axis-aligned box used for numerical
    constant estimation. A catalog model's ``params`` hold its full
    parameter set and its recipe only the parameters that were passed; a
    field's header names the model by ``name`` and ``params`` only when it
    has a recipe. The model carries no closed-form flow: the tests hold
    those oracles.
    """

    name: str
    dim_state: int
    dim_noise: int
    drift: Callable
    drift_gradient: Callable
    diffusion: Callable
    constants: BoundConstants
    diffusion_gradient: Optional[Callable] = None
    domain: Optional[tuple] = None
    params: dict = field(default_factory=dict)
    _fused: Optional[Callable] = field(default=None, init=False, repr=False,
                                       compare=False)
    _recipe: Optional[tuple] = field(default=None, init=False, repr=False,
                                     compare=False)

    def coefficients(self, x, t):
        """(drift, drift gradient, diffusion) at states x and times t."""
        if self._fused is not None:
            return self._fused(x, t)
        return self.drift(x, t), self.drift_gradient(x, t), self.diffusion(x, t)


@dataclass(frozen=True)
class MeanderingJetParams:
    """Parameters of the unsteady meandering jet (all dimensionless).

    c is the phase speed and A the amplitude of the primary wave with
    wavenumber K; the oscillatory perturbation has amplitude eps_mj,
    co-moving phase speed c1 and wavenumbers k1, l1.
    """

    c: float = 0.5
    A: float = 1.0
    K: float = 4.0
    eps_mj: float = 0.3
    c1: float = math.pi
    k1: float = 1.0
    l1: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            _checks.finite(getattr(self, f.name), f.name)


def _sine_model() -> VectorFieldModel:
    # dy = sin(y) dt + eps dW
    def drift(x, t):
        return np.sin(x)

    def drift_gradient(x, t):
        return np.cos(x)[..., None]

    def diffusion(x, t):
        return np.ones_like(np.asarray(x, dtype=float))[..., None]

    def diffusion_gradient(x, t):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (1, 1))

    constants = BoundConstants(k_grad_u=1.0, k_hess_u=1.0, k_grad_sigma=0.0,
                               k_sigma=1.0, n=1)
    return VectorFieldModel(
        name="sine", dim_state=1, dim_noise=1, drift=drift,
        drift_gradient=drift_gradient, diffusion=diffusion,
        diffusion_gradient=diffusion_gradient, constants=constants,
        domain=((-math.pi,), (math.pi,)))


def _linear_multiplicative_model() -> VectorFieldModel:
    # dy = y/2 dt + eps cos(y) dW
    def drift(x, t):
        return 0.5 * np.asarray(x, dtype=float)

    def drift_gradient(x, t):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape + (1,), 0.5)

    def diffusion(x, t):
        return np.cos(x)[..., None]

    def diffusion_gradient(x, t):
        return -np.sin(x)[..., None, None]

    constants = BoundConstants(k_grad_u=0.5, k_hess_u=0.0, k_grad_sigma=1.0,
                               k_sigma=1.0, n=1)
    return VectorFieldModel(
        name="linear_multiplicative", dim_state=1, dim_noise=1, drift=drift,
        drift_gradient=drift_gradient, diffusion=diffusion,
        diffusion_gradient=diffusion_gradient, constants=constants,
        domain=((-math.pi,), (math.pi,)))


def _jet_constants(p: MeanderingJetParams) -> BoundConstants:
    # entrywise amplitude bounds; Frobenius of the bound matrix dominates
    # the spectral norm, so these are valid (crude) suprema
    A, K, e, k1, l1 = p.A, p.K, p.eps_mj, p.k1, p.l1
    try:
        g = np.array([[A * K + e * l1 * k1, A + e * l1 ** 2],
                      [A * K ** 2 + e * k1 ** 2, A * K + e * k1 * l1]])
        k_grad_u = float(np.linalg.norm(g))
        h = np.array([A * K ** 2 + e * l1 * k1 ** 2,   # u1: d11
                      A * K + e * l1 ** 2 * k1,        # u1: d12 = d21
                      A + e * l1 ** 3,                 # u1: d22
                      A * K ** 3 + e * k1 ** 3,        # u2: d11
                      A * K ** 2 + e * k1 ** 2 * l1,   # u2: d12 = d21
                      A * K + e * k1 * l1 ** 2])       # u2: d22
        k_hess_u = float(math.sqrt(float(h[0] ** 2 + 2 * h[1] ** 2 + h[2] ** 2
                                         + h[3] ** 2 + 2 * h[4] ** 2 + h[5] ** 2)))
        k_grad_sigma = float(math.sqrt(K ** 2 + 1.0 + K ** 4 + K ** 2))
        k_sigma = float(math.sqrt(1.0 + 1.0 + K ** 2))
    except OverflowError:
        raise ValueError(f"meandering_jet bound constants overflow for A={A!r}, "
                         f"K={K!r}, eps_mj={e!r}, k1={k1!r}, l1={l1!r}") from None
    return BoundConstants(k_grad_u=k_grad_u, k_hess_u=k_hess_u,
                          k_grad_sigma=k_grad_sigma, k_sigma=k_sigma, n=2)


def _meandering_jet_model(**kwargs) -> VectorFieldModel:
    p = MeanderingJetParams(**kwargs)
    c, A, K, e, c1, k1, l1 = p.c, p.A, p.K, p.eps_mj, p.c1, p.k1, p.l1

    def trig(x, t, phase=True):
        """The batch shape and the sines and cosines of the coefficients."""
        # one point, alone or as a one-row batch, gives Python floats and
        # numpy scalars rather than arrays: the terms' values are the same,
        # and scalar arithmetic is several times cheaper
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1]
        if phase and np.shape(t) not in ((), shape):
            shape = np.broadcast_shapes(shape, np.shape(t))
        if math.prod(shape) == 1:
            y1, y2 = x.ravel().tolist()
            t = np.asarray(t).item() if phase else t
        else:
            y1, y2 = x[..., 0], x[..., 1]
        terms = (np.sin(K * y1), np.cos(K * y1), np.sin(y2), np.cos(y2))
        if not phase:
            return shape, terms
        ph = k1 * (y1 - c1 * t)
        return shape, terms + (np.sin(ph), np.cos(ph), np.sin(l1 * y2),
                               np.cos(l1 * y2))

    def drift_entries(terms):
        s1, cq, s2, c2, sp, cp, sl, cl = terms
        return (c - A * s1 * c2 + e * l1 * sp * cl,
                A * K * cq * s2 + e * k1 * cp * sl)

    def gradient_entries(terms):
        s1, cq, s2, c2, sp, cp, sl, cl = terms
        return (-A * K * cq * c2 + e * l1 * k1 * cp * cl,
                A * s1 * s2 - e * l1 ** 2 * sp * sl,
                -A * K ** 2 * s1 * s2 - e * k1 ** 2 * sp * sl,
                A * K * cq * c2 + e * k1 * l1 * cp * cl)

    def diffusion_entries(terms):
        # columns model perturbations to the phase speed and the amplitude
        s1, cq, s2, c2 = terms[:4]
        return (1.0, s1 * c2, 0.0, K * cq * s2)

    def pack(shape, entries, tail):
        """``entries`` (row-major over ``tail``) of a batch of ``shape`` as
        one contiguous array of shape ``shape + tail``."""
        if math.prod(shape) == 1:
            return np.array(entries).reshape(shape + tail)
        out = np.empty(shape + (len(entries),))
        for k, entry in enumerate(entries):
            out[..., k] = entry
        return out.reshape(shape + tail)

    # the phase terms carry t, so the drift's shape is theirs
    def drift(x, t):
        shape, terms = trig(x, t)
        return pack(shape, drift_entries(terms), (2,))

    def drift_gradient(x, t):
        shape, terms = trig(x, t)
        return pack(shape, gradient_entries(terms), (2, 2))

    def diffusion(x, t):
        shape, terms = trig(x, t, phase=False)
        return pack(shape, diffusion_entries(terms), (2, 2))

    def fused(x, t):
        shape, terms = trig(x, t)
        u, g, d = (drift_entries(terms), gradient_entries(terms),
                   diffusion_entries(terms))
        if math.prod(shape) == 1:
            # one point: one small array holds all three
            buf = np.array(u + g + d)
            return (buf[:2].reshape(shape + (2,)),
                    buf[2:6].reshape(shape + (2, 2)),
                    buf[6:].reshape(np.shape(x)[:-1] + (2, 2)))
        return (pack(shape, u, (2,)), pack(shape, g, (2, 2)),
                pack(np.shape(x)[:-1], d, (2, 2)))

    model = VectorFieldModel(
        name="meandering_jet", dim_state=2, dim_noise=2, drift=drift,
        drift_gradient=drift_gradient, diffusion=diffusion,
        constants=_jet_constants(p),
        domain=((0.0, 0.0), (math.pi, math.pi)),
        params={"c": c, "A": A, "K": K, "eps_mj": e, "c1": c1,
                "k1": k1, "l1": l1})
    object.__setattr__(model, "_fused", fused)
    return model


_LINEAR_ADDITIVE_A = ((0.0, 1.0), (-1.0, -0.3))
_LINEAR_ADDITIVE_B = (0.1, -0.2)
_LINEAR_ADDITIVE_SIGMA = ((0.8, 0.2), (0.1, 0.6))


def _linear_additive_model(a_matrix=None, b_vector=None, sigma_matrix=None) -> VectorFieldModel:
    # dy = (A y + b) dt + eps * Sigma dW; linear drift + additive noise,
    # so the linearisation about any reference trajectory is exact
    # copies, so that a caller's later edit of its array does not reach them
    A, b, S = (_checks.finite_array(value, name).copy() for value, name in (
        (_LINEAR_ADDITIVE_A if a_matrix is None else a_matrix, "a_matrix"),
        (_LINEAR_ADDITIVE_B if b_vector is None else b_vector, "b_vector"),
        (_LINEAR_ADDITIVE_SIGMA if sigma_matrix is None else sigma_matrix,
         "sigma_matrix")))
    n = A.shape[0] if A.ndim == 2 else 0
    if A.shape != (n, n) or b.shape != (n,) or S.ndim != 2 \
            or S.shape[0] != n or S.shape[1] < 1:
        raise ValueError("inconsistent linear-additive coefficient shapes")
    m = S.shape[1]

    rows, offsets = A.tolist(), b.tolist()

    def drift(x, t):
        # products summed column by column, the same for every row: a
        # matrix product rounds a one-row batch differently from a longer
        # one; a point's columns are Python floats, the same bits cheaper
        x = np.asarray(x, dtype=float)
        cols = x.tolist() if x.ndim == 1 else [x[..., j] for j in range(n)]
        out = np.empty(x.shape)
        for i, row in enumerate(rows):
            acc = cols[0] * row[0]
            for j in range(1, n):
                acc = acc + cols[j] * row[j]
            out[..., i] = acc + offsets[i]
        return out

    def drift_gradient(x, t):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(A, x.shape[:-1] + (n, n)).copy()

    def diffusion(x, t):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(S, x.shape[:-1] + (n, m)).copy()

    def diffusion_gradient(x, t):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (n, m, n))

    constants = BoundConstants(
        k_grad_u=float(np.linalg.norm(A, 2)), k_hess_u=0.0, k_grad_sigma=0.0,
        k_sigma=float(np.linalg.norm(S, 2)), n=n)
    return VectorFieldModel(
        name="linear_additive", dim_state=n, dim_noise=m, drift=drift,
        drift_gradient=drift_gradient, diffusion=diffusion,
        diffusion_gradient=diffusion_gradient, constants=constants,
        domain=((-2.0,) * n, (2.0,) * n),
        params={"a_matrix": A.tolist(), "b_vector": b.tolist(),
                "sigma_matrix": S.tolist()})


def _ornstein_uhlenbeck_model(a: float = 1.0) -> VectorFieldModel:
    # dy = -a y dt + eps dW; terminal variance eps^2 (1 - e^{-2at}) / (2a)
    _checks.positive(a, "a")
    return replace(_linear_additive_model([[-a]], [0.0], [[1.0]]),
                   name="ornstein_uhlenbeck", params={"a": a})


def _brownian_model(dim: int = 1) -> VectorFieldModel:
    # dy = eps dW: zero drift and identity diffusion
    _checks.integer(dim, "dim")
    return replace(_linear_additive_model(np.zeros((dim, dim)), np.zeros(dim),
                                          np.eye(dim)),
                   name="brownian", domain=((-1.0,) * dim, (1.0,) * dim),
                   params={"dim": dim})


_CATALOG = {
    "sine": _sine_model,
    "linear_multiplicative": _linear_multiplicative_model,
    "meandering_jet": _meandering_jet_model,
    "ornstein_uhlenbeck": _ornstein_uhlenbeck_model,
    "brownian": _brownian_model,
    "linear_additive": _linear_additive_model,
}

MODEL_NAMES = tuple(sorted(_CATALOG))


def builtin_model(name: str, **params) -> VectorFieldModel:
    """Build a catalog model by name.

    Raises :class:`UnknownModelError` for an unrecognised name and
    ``ValueError``/``TypeError`` for invalid parameters.
    """
    try:
        factory = _CATALOG[name]
    except KeyError:
        raise UnknownModelError(
            f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}") from None
    model = factory(**params)
    object.__setattr__(model, "_recipe", (name, copy.deepcopy(params)))
    return model

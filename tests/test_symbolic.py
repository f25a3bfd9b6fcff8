"""Independent symbolic checks of the catalog's analytic pieces.

Each catalog drift and diffusion is written here from its model equation,
differentiated by sympy, and compared with the hand-coded callables and
with the fused ``coefficients`` evaluation; the hand-derived coefficient
suprema must dominate the symbolic ones over the documented domain.
"""

import math

import numpy as np
import pytest
import sympy as sp

from linsde.models import MODEL_NAMES, builtin_model

T = sp.Symbol("t")


def symbolic_model(name, params):
    """(state symbols, drift, diffusion) of a catalog model as sympy arrays."""
    if name == "meandering_jet":
        y1, y2 = ys = sp.symbols("y1:3")
        c, A, K, e, c1, k1, l1 = (params[k] for k in
                                  ("c", "A", "K", "eps_mj", "c1", "k1", "l1"))
        phase = k1 * (y1 - c1 * T)
        drift = [c - A * sp.sin(K * y1) * sp.cos(y2)
                 + e * l1 * sp.sin(phase) * sp.cos(l1 * y2),
                 A * K * sp.cos(K * y1) * sp.sin(y2)
                 + e * k1 * sp.cos(phase) * sp.sin(l1 * y2)]
        diffusion = [[1, sp.sin(K * y1) * sp.cos(y2)],
                     [0, K * sp.cos(K * y1) * sp.sin(y2)]]
    elif name == "linear_additive":
        a, b, s = (sp.Matrix(params[k]) for k in
                   ("a_matrix", "b_vector", "sigma_matrix"))
        ys = sp.symbols(f"y1:{a.shape[0] + 1}")
        drift = list(a * sp.Matrix(ys) + b)
        diffusion = s.tolist()
    elif name == "brownian":
        ys = sp.symbols(f"y1:{params['dim'] + 1}")
        drift = [0] * len(ys)
        diffusion = sp.eye(len(ys)).tolist()
    else:
        y, = ys = sp.symbols("y1:2")
        drift, diffusion = {
            "sine": ([sp.sin(y)], [[1]]),
            "linear_multiplicative": ([y / 2], [[sp.cos(y)]]),
            "ornstein_uhlenbeck": ([-params.get("a", 1.0) * y], [[1]]),
        }[name]
    return ys, sp.Array(drift), sp.Array(diffusion)


def gradient(expr, ys):
    """Spatial derivative of a sympy array, derivative axis last."""
    d = sp.derive_by_array(expr, ys)
    return sp.permutedims(d, list(range(1, d.rank())) + [0])


def evaluate(expr, ys, x, t):
    """Values (..., *expr.shape) of a sympy array at states x (..., n) and
    times t (scalar or broadcastable against x's leading axes)."""
    entries = [np.broadcast_to(np.asarray(
        sp.lambdify((*ys, T), e, "numpy")(*np.moveaxis(x, -1, 0), t),
        dtype=float), x.shape[:-1]) for e in sp.flatten(expr)]
    return np.stack(entries, axis=-1).reshape(x.shape[:-1] + expr.shape)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_gradients_match_symbolic_derivatives(name):
    model = builtin_model(name)
    ys, drift, diffusion = symbolic_model(name, model.params)
    rng = np.random.default_rng(11)
    lo, hi = (np.asarray(b, dtype=float) for b in model.domain)
    x = lo + (hi - lo) * rng.random((64, model.dim_state))
    t = 2.0 * rng.random(64)
    fused = model.coefficients(x, t)
    pairs = [(model.drift(x, t), drift), (fused[0], drift),
             (model.drift_gradient(x, t), gradient(drift, ys)),
             (fused[1], gradient(drift, ys)),
             (model.diffusion(x, t), diffusion), (fused[2], diffusion)]
    if model.diffusion_gradient is not None:
        pairs.append((model.diffusion_gradient(x, t),
                      gradient(diffusion, ys)))
    for coded, symbolic in pairs:
        np.testing.assert_allclose(coded, evaluate(symbolic, ys, x, t),
                                   rtol=1e-12, atol=1e-12)


def _max_norm(values, tensor):
    """Largest spectral norm (matrices) or Frobenius norm (3-tensors, an
    upper bound of any operator norm) over a stack."""
    if tensor:
        return float(np.sqrt((values ** 2).sum(axis=(-3, -2, -1))).max())
    return float(np.linalg.norm(values, 2, axis=(-2, -1)).max())


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_catalog_constants_dominate_symbolic_suprema(name):
    model = builtin_model(name)
    ys, drift, diffusion = symbolic_model(name, model.params)
    axes = [np.linspace(a, b, 41) for a, b in zip(*model.domain)]
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(
        -1, model.dim_state)
    # the jet is periodic in time: sample one period of its phase
    period = 2.0 * math.pi / (model.params["k1"] * model.params["c1"]) \
        if name == "meandering_jet" else 1.0
    suprema = {"k_grad_u": 0.0, "k_hess_u": 0.0, "k_grad_sigma": 0.0,
               "k_sigma": 0.0}
    for t in np.linspace(0.0, period, 16, endpoint=False):
        for key, expr, tensor in (
                ("k_grad_u", gradient(drift, ys), False),
                ("k_hess_u", gradient(gradient(drift, ys), ys), True),
                ("k_grad_sigma", gradient(diffusion, ys), True),
                ("k_sigma", diffusion, False)):
            suprema[key] = max(suprema[key],
                               _max_norm(evaluate(expr, ys, x, t), tensor))
    for key, value in suprema.items():
        assert value <= getattr(model.constants, key) * (1 + 1e-12), key
    assert model.constants.n == model.dim_state

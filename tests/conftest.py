import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from linsde.models import VectorFieldModel, builtin_model


@pytest.fixture(scope="session")
def sine():
    return builtin_model("sine")


@pytest.fixture(scope="session")
def mult():
    return builtin_model("linear_multiplicative")


@pytest.fixture(scope="session")
def jet():
    return builtin_model("meandering_jet")


@pytest.fixture(scope="session")
def ou():
    return builtin_model("ornstein_uhlenbeck", a=1.0)


@pytest.fixture(scope="session")
def brownian2():
    return builtin_model("brownian", dim=2)


@pytest.fixture(scope="session")
def linadd():
    return builtin_model("linear_additive")


#: canonical evaluation point per model for cross-model sweeps
TEST_POINTS = {
    "sine": [0.5],
    "linear_multiplicative": [2.0],
    "meandering_jet": [0.3, 1.1],
    "ornstein_uhlenbeck": [1.0],
    "brownian": [0.2],
    "linear_additive": [0.3, -0.4],
}


def model_and_point(name, **params):
    model = builtin_model(name, **params)
    return model, np.asarray(TEST_POINTS[name], dtype=float)


def _sine_flow(x, t):
    # separable solution of dy/dt = sin(y) on (-pi, pi)
    return 2.0 * np.arctan(np.exp(t) * np.tan(0.5 * np.asarray(x, dtype=float)))


def _sine_flow_gradient(x, t):
    tn = np.tan(0.5 * np.asarray(x, dtype=float))
    return (np.exp(t) * (1.0 + tn ** 2) / (1.0 + (np.exp(t) * tn) ** 2))[
        ..., None]


def _growth_flow(x, t):
    return np.exp(0.5 * t) * np.asarray(x, dtype=float)


def _growth_flow_gradient(x, t):
    x = np.asarray(x, dtype=float)
    return np.full(x.shape + (1,), np.exp(0.5 * t))


def _affine_flow(a, b):
    """Flow and flow gradient of dy/dt = A y + b, from the augmented
    matrix exponential."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = len(b)
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n], aug[:n, n] = a, b

    def flow(x, t):
        phi = expm(aug * t)
        return np.asarray(x, dtype=float) @ phi[:n, :n].T + phi[:n, n]

    def gradient(x, t):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(expm(a * t), x.shape[:-1] + (n, n)).copy()

    return flow, gradient


#: catalog name -> its params -> (flow, flow gradient) in closed form; the
#: gradient has shape (..., n, n) and both reduce to the identity at t = 0
FLOW_ORACLES = {
    "sine": lambda: (_sine_flow, _sine_flow_gradient),
    "linear_multiplicative": lambda: (_growth_flow, _growth_flow_gradient),
    "linear_additive": lambda a_matrix, b_vector, sigma_matrix:
        _affine_flow(a_matrix, b_vector),
    "ornstein_uhlenbeck": lambda a: _affine_flow([[-a]], [0.0]),
    "brownian": lambda dim: _affine_flow(np.zeros((dim, dim)), np.zeros(dim)),
}


def flow_oracle(model):
    """The closed-form (flow, flow gradient) of a catalog model, or None."""
    build = FLOW_ORACLES.get(model.name)
    return None if build is None else build(**model.params)


def cubic_model(sine):
    """dy/dt = y^3, which blows up at t = 1 / (2 y0^2), with sine's noise."""
    return VectorFieldModel(
        name="cubic", dim_state=1, dim_noise=1,
        drift=lambda x, t: np.asarray(x, dtype=float) ** 3,
        drift_gradient=lambda x, t:
            3.0 * np.asarray(x, dtype=float)[..., None] ** 2,
        diffusion=sine.diffusion, constants=sine.constants)


def van_loan_covariance(a, sigma, t):
    """int_0^t e^{As} S S^T e^{A^T s} ds from one block exponential:
    expm([[-A, S S^T], [0, A^T]] t) = [[., G], [0, e^{A^T t}]] and the
    integral is e^{At} G (Van Loan 1978)."""
    a, sigma = np.asarray(a), np.asarray(sigma)
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = sigma @ sigma.T
    block[n:, n:] = a.T
    e = expm(block * t)
    cov = e[n:, n:].T @ e[:n, n:]
    return 0.5 * (cov + cov.T)


def linear_additive_law(a, b, sigma, mean0, sigma0, eps, t):
    """Mean and covariance at t of dy = (A y + b) dt + eps S dW from
    N(mean0, Sigma0): e^{At} mean0 plus the integral of e^{A(t-s)} b, and
    e^{At} Sigma0 e^{A^T t} plus eps^2 times Van Loan's P1."""
    n = len(b)
    affine = np.zeros((n + 1, n + 1))
    affine[:n, :n], affine[:n, n] = a, b
    flow = expm(affine * t)
    mean = flow[:n, :n] @ mean0 + flow[:n, n]
    cov = flow[:n, :n] @ sigma0 @ flow[:n, :n].T \
        + eps ** 2 * van_loan_covariance(a, sigma, t)
    return mean, cov


def rk45_oracle(model, x0, t, tol):
    """State and unit-noise covariance at t of one node from scipy's RK45
    on the concatenated covariance RHS of the model's three callables, at
    the adaptive kernel's tolerances; and the solve's number of RHS
    evaluations."""
    n = model.dim_state

    def rhs(s, z):
        x = z[:n]
        pi = z[n:].reshape(n, n)
        pi = 0.5 * (pi + pi.T)
        jac, sig = model.drift_gradient(x, s), model.diffusion(x, s)
        return np.concatenate([model.drift(x, s),
                               (jac @ pi + pi @ jac.T + sig @ sig.T).ravel()])

    z0 = np.concatenate([x0, np.zeros(n * n)])
    sol = solve_ivp(rhs, (0.0, t), z0, method="RK45", rtol=tol,
                    atol=tol * 1e-2)
    z = sol.y[:, -1]
    return (z[:n], z[n:].reshape(n, n)), sol.nfev

import numpy as np
import pytest

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


def cubic_model(sine):
    """dy/dt = y^3, which blows up at t = 1 / (2 y0^2), with sine's noise."""
    return VectorFieldModel(
        name="cubic", dim_state=1, dim_noise=1,
        drift=lambda x, t: np.asarray(x, dtype=float) ** 3,
        drift_gradient=lambda x, t:
            3.0 * np.asarray(x, dtype=float)[..., None] ** 2,
        diffusion=sine.diffusion, constants=sine.constants)

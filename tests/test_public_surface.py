"""The package's public names, pinned so that any change to them is
deliberate."""

import dataclasses

import numpy as np
import pytest

import linsde
from linsde import flow, linearise, models, sampling
from linsde.sampling import SamplePairBatch, SimulationConfig

PUBLIC = [
    "BASES", "BatchError", "BoundBreakdown", "BoundConstants", "ConfigError",
    "CovarianceError", "FieldError", "GaussianState", "GridSpec",
    "InitialCondition", "IntegrationFailure", "LinSDEError", "MODEL_NAMES",
    "MeanderingJetParams", "NumericalDomainError", "RobustSet", "S2Field",
    "SamplePairBatch", "ScalingFit", "SimulationConfig",
    "SingularGradientError", "SweepResult", "UnknownModelError",
    "VectorFieldModel", "bootstrap_coefficients", "bound_rhs",
    "builtin_model", "covariance_by_quadrature", "default_bdg_constant",
    "estimate_constants", "extract_robust_set", "fit_scaling",
    "gaussian_delta_bound", "lemma_constants", "linearised_distribution",
    "moment_constant", "read_batch", "read_field", "read_sweep",
    "rho_curvature_interval", "run_sweep", "s2_empirical_limit", "s2_field",
    "s2_point", "sample_coupled", "solve_flow", "strong_error",
    "theorem_constants", "write_robust_csv",
]


def test_all_is_pinned():
    assert len(set(linsde.__all__)) == len(linsde.__all__)
    assert sorted(linsde.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves(name):
    assert getattr(linsde, name) is not None


def test_star_import_gives_exactly_the_public_names():
    namespace = {}
    exec("from linsde import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


@pytest.mark.parametrize("module, name", [
    (flow, "integrate_flow"), (flow, "integrate_flow_with_gradient"),
    (flow, "FlowResult"), (flow, "FlowPath"), (models, "eval_model"),
    (linearise, "propagate_covariance"), (sampling, "sample_nonlinear"),
    (sampling, "_terminal_samples"), (sampling, "draw_initial")])
def test_deleted_name_is_gone(module, name):
    # the flow has one entry point, solve_flow, which returns F and DF at
    # the caller's times, the coefficients are the model's own callables,
    # the law has one, linearised_distribution, and the sampler one
    # stepping loop, sample_cells, and one initial draw, _draw
    assert not hasattr(module, name)
    assert not hasattr(linsde, name)


def test_run_inputs_are_stated_once():
    # the horizon is the t argument alone: the config holds the step, and
    # the batch and its sidecar record the t it was sampled to
    assert [f.name for f in dataclasses.fields(SimulationConfig)] == [
        "dt", "scheme", "n_samples", "seed"]
    batch = SamplePairBatch(np.zeros((2, 1)), np.zeros((2, 1)), 0.1, None,
                            SimulationConfig(), 1.5)
    assert sorted(batch.sidecar()) == ["config", "epsilon", "model",
                                       "n_flagged", "n_retained", "rho", "t"]
    assert sorted(batch.sidecar()["config"]) == ["dt", "n_samples", "scheme",
                                                 "seed"]


def test_the_model_contract_carries_no_flow_oracle():
    # closed-form flows are test oracles and live in the tests' conftest
    assert [f.name for f in dataclasses.fields(models.VectorFieldModel)
            if f.init] == ["name", "dim_state", "dim_noise", "drift",
                           "drift_gradient", "diffusion", "constants",
                           "diffusion_gradient", "domain", "params"]

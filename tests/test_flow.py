import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from linsde import flow
from linsde.exceptions import IntegrationFailure
from linsde.flow import _flow_rate, solve_flow
from linsde.models import VectorFieldModel, builtin_model

from conftest import flow_oracle, model_and_point

ALL_MODELS = [("sine", {}), ("linear_multiplicative", {}),
              ("meandering_jet", {}), ("ornstein_uhlenbeck", {}),
              ("brownian", {}), ("linear_additive", {})]


def flow_state(model, x0, t, **kwargs):
    # a state-only solve, read at its end
    return solve_flow(model, x0, t, with_gradient=False, **kwargs)[0]


def flow_gradient(model, x0, t):
    return solve_flow(model, x0, t)[1]


def sine_closed_form(x0, t):
    # separable solution of dy/dt = sin(y) on (-pi, pi)
    return 2.0 * math.atan(math.exp(t) * math.tan(0.5 * x0))


def test_sine_flow_matches_closed_form(sine):
    got = flow_state(sine, [0.5], 1.5)
    assert got[0] == pytest.approx(sine_closed_form(0.5, 1.5), abs=1e-7)


def test_mult_flow_matches_closed_form(mult):
    got = flow_state(mult, [2.0], 1.0)
    assert got[0] == pytest.approx(2.0 * math.exp(0.5), abs=1e-7)


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_flow_identity_at_t0(name, params):
    model, x0 = model_and_point(name, **params)
    n = model.dim_state
    np.testing.assert_array_equal(flow_state(model, x0, 0.0), x0)
    for times in (0.0, [0.0], np.zeros((2, 3))):
        shape = np.shape(times)
        states, grads = solve_flow(model, x0, times)
        assert states.shape == shape + (n,) and grads.shape == shape + (n, n)
        np.testing.assert_array_equal(states,
                                      np.broadcast_to(x0, states.shape))
        np.testing.assert_array_equal(grads,
                                      np.broadcast_to(np.eye(n), grads.shape))
        assert solve_flow(model, x0, times, with_gradient=False)[1] is None


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_flow_matches_analytic_flow(name, params):
    model, x0 = model_and_point(name, **params)
    oracle = flow_oracle(model)
    if oracle is None:
        pytest.skip("no closed form for this model")
    analytic_flow, _ = oracle
    for t in (0.25, 1.0):
        got = flow_state(model, x0, t, tol=1e-8)
        np.testing.assert_allclose(got, analytic_flow(x0, t),
                                   atol=1e-7, rtol=1e-7)


@pytest.mark.parametrize("name,params", [m for m in ALL_MODELS
                                         if m[0] != "meandering_jet"])
def test_flow_gradient_matches_analytic_gradient(name, params):
    # the variational solve against the closed-form flow gradient
    model, x0 = model_and_point(name, **params)
    n = model.dim_state
    _, analytic_gradient = flow_oracle(model)
    for t in (0.25, 1.0):
        got = flow_gradient(model, x0, t)
        np.testing.assert_allclose(
            got, analytic_gradient(x0, t).reshape(n, n),
            rtol=1e-7)


def test_mult_gradient_exponential(mult):
    grad = flow_gradient(mult, [2.0], 1.0)
    assert grad[0, 0] == pytest.approx(math.exp(0.5), rel=1e-8)
    # linear drift makes the gradient state independent
    grad2 = flow_gradient(mult, [-1.3], 1.0)
    assert grad2[0, 0] == pytest.approx(grad[0, 0], rel=1e-9)


def test_sine_gradient_matches_closed_form_fd(sine):
    grad = flow_gradient(sine, [0.5], 1.5)
    h = 1e-6
    fd = (sine_closed_form(0.5 + h, 1.5) - sine_closed_form(0.5 - h, 1.5)) \
        / (2 * h)
    assert grad[0, 0] == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_variational_gradient_matches_flow_fd(name, params):
    model, x0 = model_and_point(name, **params)
    t = 1.0
    grad = flow_gradient(model, x0, t)
    n = model.dim_state
    h = 1e-4
    fd = np.empty((n, n))
    for k in range(n):
        dx = np.zeros(n)
        dx[k] = h
        fd[:, k] = (flow_state(model, x0 + dx, t)
                    - flow_state(model, x0 - dx, t)) / (2 * h)
    err = np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))
    assert err < 1e-4, f"{name}: relative Frobenius error {err}"


@pytest.mark.parametrize("name", ["sine", "meandering_jet"])
def test_semigroup_property(name):
    model, x0 = model_and_point(name)
    s, t = 0.4, 1.1
    mid = flow_state(model, x0, s)
    if name == "sine":
        shifted = model  # autonomous
    else:
        shifted = VectorFieldModel(
            name="shifted", dim_state=2, dim_noise=2,
            drift=lambda x, tt: model.drift(x, tt + s),
            drift_gradient=lambda x, tt: model.drift_gradient(x, tt + s),
            diffusion=lambda x, tt: model.diffusion(x, tt + s),
            constants=model.constants)
    composed = flow_state(shifted, mid, t - s)
    direct = flow_state(model, x0, t)
    np.testing.assert_allclose(composed, direct, atol=1e-7, rtol=1e-7)


def test_dense_path_consistent_with_endpoints(jet):
    times = np.linspace(0.0, 1.0, 9)
    states, grads = solve_flow(jet, [0.3, 1.1], times)
    np.testing.assert_allclose(states[0], [0.3, 1.1], atol=1e-12)
    np.testing.assert_allclose(states[-1], flow_state(jet, [0.3, 1.1], 1.0),
                               atol=1e-8)
    np.testing.assert_allclose(grads[0], np.eye(2), atol=1e-10)


@pytest.mark.parametrize("with_gradient", [False, True])
def test_flow_is_the_dense_solve_read_at_the_times(jet, with_gradient):
    # one RK45 solve to the last time, read by its own dense output: the
    # in-house integrator takes scipy's steps and reads the same
    # interpolant, so only the rounding of the reads differs
    x0 = np.array([0.3, 1.1])
    tgrid = np.linspace(0.0, 1.5, 301)
    z0 = np.concatenate([x0, np.eye(2).ravel()]) if with_gradient else x0
    sol = solve_ivp(_flow_rate(jet, with_gradient), (0.0, 1.5), z0,
                    method="RK45", rtol=1e-8, atol=1e-10, dense_output=True)
    want = sol.sol(tgrid).T
    states, grads = solve_flow(jet, x0, tgrid, with_gradient=with_gradient)
    if with_gradient:
        got = np.concatenate([states, grads.reshape(301, 4)], axis=1)
    else:
        got = states
        assert grads is None
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())
    # a scalar time and an unsorted grid of any shape read the same solve
    np.testing.assert_array_equal(
        solve_flow(jet, x0, 1.5, with_gradient=with_gradient)[0], states[-1])
    shuffled = tgrid[::-1].reshape(7, 43)
    np.testing.assert_array_equal(
        solve_flow(jet, x0, shuffled, with_gradient=with_gradient)[0],
        states[::-1].reshape(7, 43, 2))


def test_flow_memory_does_not_grow_with_the_horizon(jet):
    # each step's interpolant is read at the times inside it and dropped,
    # so a solve keeps no solution
    def peak(t):
        solve_flow(jet, [0.3, 1.1], 0.1)  # warm caches before tracing
        tracemalloc.start()
        try:
            solve_flow(jet, [0.3, 1.1], t)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(10.0) <= 1.25 * peak(1.0)


def cubic_model(sine, drift=lambda x, t: np.asarray(x, dtype=float) ** 3):
    return VectorFieldModel(
        name="cubic", dim_state=1, dim_noise=1, drift=drift,
        drift_gradient=lambda x, t: 3.0 * np.asarray(x, dtype=float)[..., None] ** 2,
        diffusion=sine.diffusion, constants=sine.constants)


def test_integration_failure_reports_last_time(sine):
    # dy/dt = y^3 from 1 blows up at t = 0.5, where the step shrinks to
    # nothing
    with pytest.raises(IntegrationFailure, match="10 ulp") as err:
        flow_state(cubic_model(sine), [1.0], 2.0)
    assert err.value.last_time is not None
    assert err.value.last_time <= 0.55


@pytest.mark.parametrize("with_gradient", [False, True])
def test_integration_failure_when_the_drift_goes_nan(sine, with_gradient):
    # the drift is NaN from t = 0.7 on: the solve stops at the last step
    # it accepted before then, with a non-finite error norm as its reason
    model = cubic_model(sine, drift=lambda x, t: np.where(
        np.asarray(t)[..., None] < 0.7, -np.asarray(x, dtype=float), np.nan))
    with pytest.raises(IntegrationFailure, match="non-finite") as err:
        solve_flow(model, [1.0], [0.5, 2.0], with_gradient=with_gradient)
    assert 0.5 <= err.value.last_time < 0.7


def test_backward_time_rejected(sine):
    with pytest.raises(ValueError):
        flow_state(sine, [0.5], -1.0)


@pytest.mark.parametrize("times", [[0.5, -1e-3], [[1.0], [-2.0]],
                                   [0.5, math.nan], [True], ["1.0"]])
def test_bad_time_grid_rejected_before_solve(monkeypatch, sine, times):
    monkeypatch.setattr(flow, "_dormand_prince", None)
    with pytest.raises(ValueError, match="times"):
        solve_flow(sine, [0.5], times)


@pytest.mark.parametrize("t, tol", [(math.nan, 1e-8), (math.inf, 1e-8),
                                    (1.0, math.nan)])
def test_nonfinite_horizon_or_tolerance_rejected_before_solve(
        monkeypatch, ou, t, tol):
    # NaN passes both t < 0 and tol <= 0, and the solver never returned
    monkeypatch.setattr(flow, "_dormand_prince", None)
    with pytest.raises(ValueError):
        solve_flow(ou, [0.5], t, tol=tol)


@pytest.mark.parametrize("x0", [[math.nan], [math.inf], [0.5, 0.5]])
def test_bad_point_rejected_before_solve(monkeypatch, ou, x0):
    monkeypatch.setattr(flow, "_dormand_prince", None)
    with pytest.raises(ValueError, match="x0"):
        solve_flow(ou, x0, 1.0)

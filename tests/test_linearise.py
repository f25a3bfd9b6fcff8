import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsde import linearise
from linsde.artifacts import write_record
from linsde.exceptions import (CovarianceError, IntegrationFailure,
                               SingularGradientError)
from linsde.flow import solve_flow
from linsde.linearise import (GaussianState, InitialCondition,
                              covariance_by_quadrature,
                              linearised_distribution)
from linsde.models import MODEL_NAMES, VectorFieldModel, builtin_model
from linsde.sampling import SimulationConfig, sample_coupled
from linsde.sensitivity import GridSpec, s2_field

from conftest import (cubic_model, linear_additive_law, model_and_point,
                      rk45_oracle, van_loan_covariance)

ALL_MODELS = [("sine", {}), ("linear_multiplicative", {}),
              ("meandering_jet", {}), ("ornstein_uhlenbeck", {}),
              ("brownian", {}), ("linear_additive", {})]

OU_VARIANCE_T1 = (1.0 - math.exp(-2.0)) / 2.0  # analytic scalar Lyapunov ODE


def fixed_law(model, x0, t, epsilon, **options):
    """The linearised law at t from the point mass at ``x0``."""
    return linearised_distribution(model, InitialCondition.fixed(x0), t,
                                   epsilon, **options)


def start(x0, sigma_init):
    """A fixed start at ``x0``, or a Gaussian one of covariance
    ``sigma_init`` about it."""
    return InitialCondition.fixed(x0) if sigma_init is None \
        else InitialCondition.gaussian(x0, covariance=sigma_init)


class TestPropagateCovariance:
    def test_ou_analytic_variance(self, ou):
        got = fixed_law(ou, [1.0], 1.0, epsilon=1.0)
        assert got.covariance[0, 0] == pytest.approx(OU_VARIANCE_T1, abs=1e-9)

    def test_ou_analytic_variance_general(self, ou):
        # Var(t) = eps^2 (1 - e^{-2 a t}) / (2 a), with a = 1
        for t, eps in ((0.5, 1.0), (2.0, 0.3)):
            got = fixed_law(ou, [0.2], t, epsilon=eps)
            expected = eps ** 2 * (1 - math.exp(-2 * t)) / 2
            assert got.covariance[0, 0] == pytest.approx(expected, rel=1e-7)

    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-3])
    def test_ou_unit_noise_accuracy_independent_of_epsilon(self, ou, eps):
        # the integrator solves for the unit-noise covariance, so the
        # relative accuracy of Pi / eps^2 does not depend on eps
        got = fixed_law(ou, [1.0], 1.0, epsilon=eps).covariance
        assert got[0, 0] / eps ** 2 == pytest.approx(OU_VARIANCE_T1,
                                                     rel=1e-8)

    def test_zero_noise_zero_init_stays_zero(self, jet):
        for t in (0.3, 1.0):
            got = fixed_law(jet, [0.3, 1.1], t, epsilon=0.0)
            np.testing.assert_allclose(got.covariance, 0.0, atol=1e-13)

    def test_brownian_linear_growth(self, brownian2):
        eps, t = 0.4, 0.7
        got = fixed_law(brownian2, [0.0, 0.0], t, epsilon=eps)
        np.testing.assert_allclose(got.covariance, eps ** 2 * t * np.eye(2),
                                   atol=1e-12)

    def test_fixed_initial_mean_is_flow_state(self, jet):
        x0 = [0.3, 1.1]
        got = fixed_law(jet, x0, 1.0, epsilon=0.05)
        np.testing.assert_allclose(got.mean,
                                   solve_flow(jet, x0, 1.0)[0],
                                   atol=1e-7)

    def test_t0_returns_initial(self, sine):
        init_cov = np.array([[0.04]])
        init = InitialCondition.gaussian([0.6], covariance=init_cov,
                                         reference_point=[0.5])
        got = linearised_distribution(sine, init, 0.0, epsilon=1.0)
        np.testing.assert_array_equal(got.covariance, init_cov)
        np.testing.assert_array_equal(got.mean, [0.6])

    def test_epsilon_scaling_linearity(self, jet):
        # cov(eps) - cov(0) = eps^2 (cov(1) - cov(0)) up to solver noise
        init = InitialCondition.gaussian(
            [0.3, 1.1], covariance=[[0.01, 0.002], [0.002, 0.02]])
        base = linearised_distribution(jet, init, 1.0, 0.0,
                                       tol=1e-10).covariance
        unit = linearised_distribution(jet, init, 1.0, 1.0,
                                       tol=1e-10).covariance
        eps = 0.3
        got = linearised_distribution(jet, init, 1.0, eps,
                                      tol=1e-10).covariance
        lhs = got - base
        rhs = eps ** 2 * (unit - base)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10

    @pytest.mark.parametrize("name,params", ALL_MODELS)
    def test_output_invariants(self, name, params):
        model, x0 = model_and_point(name, **params)
        got = fixed_law(model, x0, 0.8, epsilon=0.7)
        cov = got.covariance
        scale = max(np.linalg.norm(cov), 1e-300)
        assert np.max(np.abs(cov - cov.T)) <= 1e-12 * scale
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10 * scale

    def test_bad_sigma_init_raises_with_eigen_report(self, sine):
        init = InitialCondition.gaussian([0.5], covariance=[[-1.0]])
        with pytest.raises(CovarianceError, match="eigenvalue"):
            linearised_distribution(sine, init, 1.0, 1.0)

    def test_mazzoni_matches_adaptive(self, jet):
        ref = fixed_law(jet, [0.0, 1.0], 1.0, 1.0).covariance
        got = fixed_law(jet, [0.0, 1.0], 1.0, 1.0, method="mazzoni",
                        dt=1e-3).covariance
        rel = np.linalg.norm(ref - got) / np.linalg.norm(ref)
        assert rel < 1e-4

    def test_mazzoni_preserves_psd_at_coarse_steps(self, jet):
        got = fixed_law(jet, [0.3, 1.1], 1.0, 1.0, method="mazzoni",
                        dt=0.05)
        assert np.linalg.eigvalsh(got.covariance)[0] >= 0.0

    def test_mazzoni_gaussian_law_matches_adaptive(self, jet):
        # the fixed-step path assembles DF Sigma0 DF^T + eps^2 P1 and the
        # offset mean from the same pieces as the adaptive path
        init = InitialCondition.gaussian([0.35, 1.05], rho=0.1,
                                         reference_point=[0.3, 1.1])
        ref = linearised_distribution(jet, init, 1.0, 0.05)
        got = linearised_distribution(jet, init, 1.0, 0.05,
                                      method="mazzoni", dt=1e-3)
        np.testing.assert_allclose(got.mean, ref.mean, rtol=1e-7)
        rel = np.linalg.norm(got.covariance - ref.covariance) \
            / np.linalg.norm(ref.covariance)
        assert rel < 1e-4

    def test_unknown_method(self, sine):
        with pytest.raises(ValueError, match="integrator"):
            fixed_law(sine, [0.5], 1.0, 1.0, method="euler")


class TestFixedStepPointPath:
    """The "mazzoni" point law comes from the block kernel of the fields."""

    def test_tolerance_is_not_read(self, jet):
        loose = fixed_law(jet, [0.3, 1.1], 1.0, 1.0, tol=1e-4,
                          method="mazzoni")
        tight = fixed_law(jet, [0.3, 1.1], 1.0, 1.0, tol=1e-10,
                          method="mazzoni")
        np.testing.assert_array_equal(loose.covariance, tight.covariance)
        np.testing.assert_array_equal(loose.mean, tight.mean)

    def test_accurate_at_loose_tolerance_on_jet_grid(self, jet):
        # every other node of the 12x10 jet grid (spacing 1/4 from the
        # origin); step midpoints taken from a tol-1e-4 dense output used
        # to err by up to 2.8e-2
        nodes = GridSpec(((0.0, 2.75, 12), (0.0, 2.25, 10))).points()
        worst = 0.0
        for x0 in nodes.reshape(12, 10, 2)[::2, ::2].reshape(-1, 2):
            got = fixed_law(jet, x0, 1.0, 1.0, tol=1e-4, method="mazzoni",
                            dt=2e-3).covariance
            ref = fixed_law(jet, x0, 1.0, 1.0, tol=1e-10).covariance
            worst = max(worst, np.linalg.norm(got - ref)
                        / np.linalg.norm(ref))
        assert worst < 5e-5

    @pytest.mark.parametrize("sigma_init", [None, [[0.01]]])
    def test_blow_up_raises(self, monkeypatch, sine, sigma_init):
        # dy/dt = y^3 from 1 blows up at t = 0.5; the failure is found by
        # the fixed-step kernel itself, with or without DF
        monkeypatch.setattr(linearise, "solve_flow", None)
        monkeypatch.setattr(linearise, "_dormand_prince", None)
        with pytest.raises(IntegrationFailure, match="non-finite"):
            linearised_distribution(cubic_model(sine),
                                    start([1.0], sigma_init), 2.0, 1.0,
                                    method="mazzoni")


@pytest.mark.parametrize("sigma_init", [None, [[0.01]]])
def test_adaptive_blow_up_raises(sine, sigma_init):
    # dy/dt = y^3 from 2 blows up at t = 0.125: the failed solve comes back
    # as NaN rows, which the point path reports as one IntegrationFailure
    with pytest.raises(IntegrationFailure, match="non-finite"):
        linearised_distribution(cubic_model(sine), start([2.0], sigma_init),
                                0.25, 1.0)


@pytest.mark.parametrize("method", linearise.METHODS)
@pytest.mark.parametrize("init, solves", [
    (InitialCondition.fixed([0.3, 1.1]), 0),
    (InitialCondition.gaussian([0.3, 1.1], rho=0.1), 1),
    (InitialCondition.gaussian([0.35, 1.05], rho=0.0,
                               reference_point=[0.3, 1.1]), 1),
    (InitialCondition.gaussian([0.35, 1.05], rho=0.1,
                               reference_point=[0.3, 1.1]), 1)],
    ids=["fixed", "gaussian", "offset", "gaussian-offset"])
def test_flow_gradient_comes_from_one_solve_flow(monkeypatch, jet, method,
                                                 init, solves):
    # the kernel carries the state and P1 alone; a Gaussian or offset start
    # takes DF from one solve_flow at the law's tolerance, for either method
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_flow(*args)
    monkeypatch.setattr(linearise, "solve_flow", counted)
    x0, t, eps, tol, dt = init.reference_point, 1.0, 0.05, 1e-7, 1e-2
    law = linearised_distribution(jet, init, t, eps, tol=tol, method=method,
                                  dt=dt)
    assert len(calls) == solves
    state, unit = linearise._propagate(jet, x0, t, method, tol, dt)
    grad = np.zeros((2, 2))
    if solves:
        assert calls[0][0] is jet and calls[0][2:] == (t, tol)
        np.testing.assert_array_equal(calls[0][1], x0)
        grad = solve_flow(jet, x0, t, tol)[1]
    cov = eps ** 2 * unit + grad @ init.covariance @ grad.T
    np.testing.assert_array_equal(law.covariance, 0.5 * (cov + cov.T))
    np.testing.assert_array_equal(law.mean,
                                  state + grad @ (init.mean - x0))


@pytest.mark.parametrize("method", linearise.METHODS)
def test_propagate_stack_equals_per_node_calls(jet, method):
    nodes = np.array([[0.3, 1.1], [0.0, 1.0], [2.5, 0.4], [1.7, 2.9]])
    stack = linearise._propagate(jet, nodes, 0.5, method, 1e-6, 1e-2)
    for i, x0 in enumerate(nodes):
        single = linearise._propagate(jet, x0, 0.5, method, 1e-6, 1e-2)
        for whole, part in zip(stack, single):
            assert whole.shape == (len(nodes),) + part.shape
            np.testing.assert_array_equal(whole[i], part)


def _count_calls(monkeypatch):
    """Counter of ``coefficients`` calls on every model from now on."""
    calls = collections.Counter()
    coefficients = VectorFieldModel.coefficients

    def counted(self, x, t):
        calls["coefficients"] += 1
        return coefficients(self, x, t)
    monkeypatch.setattr(VectorFieldModel, "coefficients", counted)
    return calls


def _counting_callables(model, calls):
    """Copy of ``model`` whose three coefficient callables count their calls
    (the copy has no fused evaluation)."""
    def wrap(name):
        fn = getattr(model, name)

        def counted(x, t):
            calls[name] += 1
            return fn(x, t)
        return counted
    return dataclasses.replace(model, **{
        name: wrap(name) for name in ("drift", "drift_gradient", "diffusion")})


NODES = np.array([[0.3, 1.1], [2.5, 0.4]])


def test_adaptive_kernel_makes_one_coefficients_call_per_stage(monkeypatch,
                                                               jet):
    # a node's RK45 solve takes 2 + 6 * (attempted steps) RHS evaluations;
    # the block makes one coefficients call per stage, on a (k, n) batch of
    # the nodes still running, so as many calls as its slowest node takes
    # evaluations, and as many rows as all its nodes take together
    nfev = [rk45_oracle(jet, x0, 0.5, 1e-6)[1] for x0 in NODES]
    rows = []
    coefficients = VectorFieldModel.coefficients

    def counted(self, x, t):
        assert x.ndim == 2 and np.shape(t) == (len(x),)
        rows.append(len(x))
        return coefficients(self, x, t)
    monkeypatch.setattr(VectorFieldModel, "coefficients", counted)
    linearise._propagate_rk45(jet, NODES, 0.5, 1e-6)
    assert (len(rows), sum(rows)) == (max(nfev), sum(nfev))
    # a lone node is a one-row batch too
    rows.clear()
    linearise._propagate_rk45(jet, NODES[0], 0.5, 1e-6)
    assert set(rows) == {1} and len(rows) == nfev[0]
    # without the fused evaluation each callable is called once instead
    calls = _count_calls(monkeypatch)
    linearise._propagate_rk45(_counting_callables(jet, calls), NODES, 0.5,
                              1e-6)
    k = max(nfev)
    assert calls == {"coefficients": k, "drift": k, "drift_gradient": k,
                     "diffusion": k}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_adaptive_kernel_matches_scipy_rk45_per_node(name):
    # the kernel copies scipy RK45's controller, so each node takes scipy's
    # steps and ends within rounding of its per-node solve
    model, x0 = model_and_point(name)
    nodes = x0 + np.linspace(-0.4, 0.4, 5)[:, None]
    got = linearise._propagate_rk45(model, nodes, 1.5, 1e-6)
    for i, node in enumerate(nodes):
        want, _ = rk45_oracle(model, node, 1.5, 1e-6)
        for part, ref in zip(got, want):
            assert np.linalg.norm(part[i] - ref) \
                <= 1e-12 * max(np.linalg.norm(ref), 1e-300)


def test_adaptive_kernel_of_no_nodes_is_empty(jet):
    state, cov = linearise._propagate_rk45(jet, np.empty((0, 2)), 1.0, 1e-6)
    assert state.shape == (0, 2) and cov.shape == (0, 2, 2)


@pytest.mark.parametrize("name, dims", [
    pytest.param(name, None, id=name) for name in MODEL_NAMES] + [
    pytest.param("linear_additive", (n, m), id=f"linear_additive-{n}x{m}")
    for n, m in ((3, 2), (4, 3), (6, 4))])
def test_adaptive_covariance_is_bitwise_symmetric(name, dims):
    # the rate uses P as it comes: J P + (J P)^T and S S^T are symmetric
    # bit for bit and the Runge-Kutta combinations act entrywise, so P
    # stays exactly symmetric with no symmetrisation step
    rng = np.random.default_rng(len(name) if dims is None else dims[0])
    params = {} if dims is None else {
        "a_matrix": rng.standard_normal((dims[0],) * 2) / math.sqrt(dims[0]),
        "b_vector": rng.standard_normal(dims[0]),
        "sigma_matrix": rng.standard_normal(dims)}
    model = builtin_model(name, **params)
    nodes = rng.uniform(-1.5, 1.5, (16, model.dim_state))
    for t, tol in ((0.7, 1e-6), (2.0, 1e-9)):
        cov = linearise._propagate_rk45(model, nodes, t, tol)[1]
        assert np.isfinite(cov).all()
        assert np.array_equal(cov, cov.swapaxes(-1, -2))


@pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 7)
                                  for m in range(1, 6)])
def test_fixed_step_forcing_is_bitwise_symmetric(n, m):
    # entries (i, l) and (l, i) of the forcing sum the same products in the
    # same order, so it is used with no symmetrisation step
    rng = np.random.default_rng(10 * n + m)
    jac = rng.standard_normal((512, n, n))
    sig = rng.standard_normal((512, n, m))
    for h in (2e-3, 1e-2, 0.3):
        forcing = linearise._midpoint_step(jac, sig, h)[1]
        assert np.array_equal(forcing, forcing.swapaxes(-1, -2))


def test_fixed_step_reuses_midpoint_coefficients(monkeypatch, jet):
    # per step: seven RK4 stages of the drift, and one coefficients call at
    # the midpoint that also gives the second half step's first stage
    calls = _count_calls(monkeypatch)
    steps = 5
    linearise._propagate_fixed_step(_counting_callables(jet, calls), NODES,
                                    0.5, 0.1)
    assert calls == {"coefficients": steps, "drift": 8 * steps,
                     "drift_gradient": steps, "diffusion": steps}
    calls.clear()
    linearise._propagate_fixed_step(jet, NODES, 0.5, 0.1)
    assert calls == {"coefficients": steps}


#: a non-normal 3x3 drift with 4 noise columns for the Van Loan oracle
VAN_LOAN_A = [[-0.5, 1.0, 0.2], [-0.8, -0.3, 0.4], [0.1, -0.6, 0.2]]
VAN_LOAN_B = [0.1, -0.2, 0.3]
VAN_LOAN_SIGMA = [[0.5, 0.1, 0.0, 0.2], [0.0, 0.4, 0.3, -0.1],
                  [0.2, -0.3, 0.6, 0.1]]


class TestThreeDimensionalOracle:
    T = 1.5
    X0 = [0.3, -0.2, 0.5]

    @pytest.fixture(scope="class")
    def model(self):
        return builtin_model("linear_additive", a_matrix=VAN_LOAN_A,
                             b_vector=VAN_LOAN_B, sigma_matrix=VAN_LOAN_SIGMA)

    @pytest.fixture(scope="class")
    def exact(self):
        return van_loan_covariance(VAN_LOAN_A, VAN_LOAN_SIGMA, self.T)

    @pytest.mark.parametrize("method, bound", [("rk45", 1e-8),
                                               ("mazzoni", 1e-6)])
    def test_point_covariance(self, model, exact, method, bound):
        got = fixed_law(model, self.X0, self.T, 1.0, method=method,
                        dt=1e-3).covariance
        assert np.linalg.norm(got - exact) / np.linalg.norm(exact) < bound

    @pytest.mark.parametrize("method", ["rk45", "mazzoni"])
    def test_field(self, model, exact, method):
        # the linearisation of an affine drift is exact and its covariance
        # does not depend on the initial point
        grid = GridSpec(((-1.0, 1.0, 3), (-1.0, 1.0, 3), (-1.0, 1.0, 2)))
        field = s2_field(model, grid, self.T, method=method)
        top = np.linalg.eigvalsh(exact)[-1]
        assert np.max(np.abs(field.values - top)) / top < 1e-6

    def test_coupled_sampler_linearised_covariance(self, model, exact):
        # four noise columns: a mixed-up column order shows as a wrong l law
        n, eps = 4000, 0.05
        batch = sample_coupled(model, InitialCondition.fixed(self.X0), eps,
                               self.T, SimulationConfig(dt=2e-3, n_samples=n,
                                                        seed=3))
        sample_cov = np.cov(batch.l_samples, rowvar=False)
        rel = np.linalg.norm(sample_cov - eps ** 2 * exact) \
            / np.linalg.norm(eps ** 2 * exact)
        assert rel <= 5.0 / math.sqrt(n)


#: bound on the relative error of the mean and the covariance against the
#: exact law, per method; over the examples below the worst errors are
#: 2.8e-9 (rk45) and 8.7e-7 (mazzoni, dt 1e-3)
ORACLE_BOUNDS = {"rk45": 1e-7, "mazzoni": 1e-5}


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_random_linear_additive_law_is_exact(n, m, seed):
    # dy = (A y + b) dt + eps S dW from N(mean0, Sigma0), linearised about
    # an offset reference point: the linearisation is exact, so its law is
    # the SDE's own
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) / math.sqrt(n)
    b, sigma = rng.standard_normal(n), rng.standard_normal((n, m))
    root = rng.standard_normal((n, n))
    sigma0 = 0.01 * root @ root.T / n
    x0 = rng.standard_normal(n)
    mean0 = x0 + 0.1 * rng.standard_normal(n)
    t, eps = rng.uniform(0.2, 2.0), 0.2
    model = builtin_model("linear_additive", a_matrix=a, b_vector=b,
                          sigma_matrix=sigma)
    init = InitialCondition.gaussian(mean0, covariance=sigma0,
                                     reference_point=x0)
    mean, cov = linear_additive_law(a, b, sigma, mean0, sigma0, eps, t)
    for method, bound in ORACLE_BOUNDS.items():
        law = linearised_distribution(model, init, t, eps, method=method,
                                      dt=1e-3)
        assert np.linalg.norm(law.mean - mean) <= bound * np.linalg.norm(mean)
        assert np.linalg.norm(law.covariance - cov) \
            <= bound * np.linalg.norm(cov)
        np.testing.assert_array_equal(law.covariance, law.covariance.T)
        assert np.linalg.eigvalsh(law.covariance)[0] \
            >= -1e-12 * np.linalg.norm(law.covariance)


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_random_linear_additive_field_is_exact(n, m, seed):
    # an affine drift's P1 does not depend on the node, so every field
    # value is the top eigenvalue of the Van Loan P1 (worst relative errors
    # 1.9e-9 for rk45 and 9.1e-7 for mazzoni over these examples); each is
    # also the value of its node's own _propagate call, bitwise
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) / math.sqrt(n)
    b, sigma = rng.standard_normal(n), rng.standard_normal((n, m))
    t = rng.uniform(0.2, 2.0)
    model = builtin_model("linear_additive", a_matrix=a, b_vector=b,
                          sigma_matrix=sigma)
    grid = GridSpec(tuple((x, x + 1.0, 2) for x in rng.standard_normal(n)))
    top = np.linalg.eigvalsh(van_loan_covariance(a, sigma, t))[-1]
    for method, bound in ORACLE_BOUNDS.items():
        field = s2_field(model, grid, t, tol=1e-8, method=method, dt=1e-3)
        for x0, value in zip(grid.points(), field.values):
            cov = linearise._propagate(model, x0, t, method, 1e-8,
                                       1e-3)[1]
            assert value == np.linalg.eigvalsh(cov)[-1]
        assert field.n_missing == 0
        assert np.max(np.abs(field.values - top)) <= bound * top

class TestQuadratureForm:
    def test_t0_zero_matrix(self, jet):
        np.testing.assert_array_equal(
            covariance_by_quadrature(jet, [0.3, 1.1], 0.0), np.zeros((2, 2)))

    def test_ou_analytic(self, ou):
        # accuracy is limited by the dense-output tolerance of the flow
        got = covariance_by_quadrature(ou, [1.0], 1.0)
        assert got[0, 0] == pytest.approx(OU_VARIANCE_T1, abs=1e-8)

    @pytest.mark.parametrize("name,params", ALL_MODELS)
    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_matches_covariance_ode(self, name, params, t):
        model, x0 = model_and_point(name, **params)
        ode = fixed_law(model, x0, t, epsilon=1.0).covariance
        quad = covariance_by_quadrature(model, x0, t)
        denom = max(np.linalg.norm(ode), 1e-300)
        assert np.linalg.norm(ode - quad) / denom < 1e-6

    def test_singular_gradient_names_node(self):
        stiff = builtin_model("linear_additive",
                              a_matrix=[[-30.0, 0.0], [0.0, 30.0]],
                              b_vector=[0.0, 0.0],
                              sigma_matrix=[[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(SingularGradientError) as err:
            covariance_by_quadrature(stiff, [1.0, 1.0], 2.0)
        assert err.value.node_time is not None
        assert 0.0 < err.value.node_time <= 2.0


class TestLinearisedDistribution:
    def test_fixed_init_form(self, sine):
        # fixed init: mean is the flow state, covariance eps^2 * unit-noise
        eps, t = 0.05, 1.5
        init = InitialCondition.fixed([0.5])
        law = linearised_distribution(sine, init, t, eps)
        np.testing.assert_allclose(law.mean,
                                   solve_flow(sine, [0.5], t)[0],
                                   atol=1e-7)
        unit = covariance_by_quadrature(sine, [0.5], t)
        np.testing.assert_allclose(law.covariance, eps ** 2 * unit,
                                   rtol=1e-6)

    def test_univariate_gaussian_variance_form(self, sine):
        # variance = rho^2 (DF)^2 + eps^2 * unit-noise variance
        mu, rho, eps, t = 0.5, 0.1, 0.01, 1.5
        law = linearised_distribution(
            sine, InitialCondition.gaussian([mu], rho=rho), t, eps)
        grad = solve_flow(sine, [mu], t)[1][0, 0]
        unit = covariance_by_quadrature(sine, [mu], t)[0, 0]
        expected = rho ** 2 * grad ** 2 + eps ** 2 * unit
        assert law.covariance[0, 0] == pytest.approx(expected, rel=1e-6)

    def test_jet_gaussian_congruence_identity(self, jet):
        # covariance = DF Sigma0 DF^T + eps^2 * unit-noise covariance
        x0 = np.array([0.3, 1.1])
        s0 = np.array([[0.01, 0.002], [0.002, 0.02]])
        eps, t = 0.05, 1.0
        law = linearised_distribution(
            jet, InitialCondition.gaussian(x0, covariance=s0), t, eps)
        grad = solve_flow(jet, x0, t)[1]
        unit = covariance_by_quadrature(jet, x0, t)
        expected = grad @ s0 @ grad.T + eps ** 2 * unit
        assert np.linalg.norm(law.covariance - expected) \
            / np.linalg.norm(expected) < 1e-6

    def test_t0_returns_initial_law(self, jet):
        s0 = np.array([[0.04, 0.0], [0.0, 0.09]])
        init = InitialCondition.gaussian([0.3, 1.1], covariance=s0)
        law = linearised_distribution(jet, init, 0.0, 0.7)
        np.testing.assert_array_equal(law.mean, [0.3, 1.1])
        np.testing.assert_array_equal(law.covariance, s0)

    def test_offset_reference_mean_transport(self, mult):
        # mean = flow(x0) + DF (mu0 - x0); exact for linear drift
        init = InitialCondition.gaussian([2.1], rho=0.05,
                                         reference_point=[2.0])
        law = linearised_distribution(mult, init, 1.0, 0.01)
        grad = math.exp(0.5)
        expected = 2.0 * grad + grad * 0.1
        assert law.mean[0] == pytest.approx(expected, rel=1e-8)


class TestGaussianStateType:
    def test_json_roundtrip(self, tmp_path):
        state = GaussianState(np.array([1.0, -2.0]),
                              np.array([[2.0, 0.3], [0.3, 1.0]]), 1.5, 0.01)
        path = tmp_path / "law.json"
        write_record(path, state.to_json())
        back = GaussianState.load(path)
        np.testing.assert_array_equal(back.mean, state.mean)
        np.testing.assert_array_equal(back.covariance, state.covariance)
        assert back.t == state.t and back.epsilon == state.epsilon

    def test_validation_rejects_asymmetry(self):
        bad = GaussianState(np.zeros(2),
                            np.array([[1.0, 0.5], [0.1, 1.0]]), 0.0, 0.0)
        with pytest.raises(CovarianceError, match="asymmetry"):
            bad.validate()

    def test_validation_rejects_negative_eigenvalue(self):
        bad = GaussianState(np.zeros(2),
                            np.array([[1.0, 2.0], [2.0, 1.0]]), 0.0, 0.0)
        with pytest.raises(CovarianceError, match="eigenvalue"):
            bad.validate()


class TestInitialConditionType:
    def test_fixed_invariants(self):
        init = InitialCondition.fixed([0.5, -1.0])
        init.validate()
        assert init.rho == 0.0
        np.testing.assert_array_equal(init.covariance, np.zeros((2, 2)))
        np.testing.assert_array_equal(init.mean, init.reference_point)

    def test_gaussian_rho_shorthand(self):
        init = InitialCondition.gaussian([1.0, 2.0], rho=0.2)
        init.validate()
        np.testing.assert_allclose(init.covariance, 0.04 * np.eye(2))

    def test_gaussian_needs_exactly_one_spec(self):
        with pytest.raises(ValueError):
            InitialCondition.gaussian([0.0], rho=0.1,
                                      covariance=np.eye(1))
        with pytest.raises(ValueError):
            InitialCondition.gaussian([0.0])

    def test_non_finite_covariance_rejected(self):
        with pytest.raises(CovarianceError, match="non-finite"):
            GaussianState(np.zeros(1), np.full((1, 1), np.nan), 1.0,
                          0.1).validate()
        with pytest.raises(CovarianceError, match="non-finite"):
            InitialCondition.gaussian([0.0, 0.0], covariance=np.full(
                (2, 2), np.inf)).validate()

    def test_gaussian_rejects_non_psd(self):
        init = InitialCondition.gaussian(
            [0.0, 0.0], covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(CovarianceError):
            init.validate()


@pytest.mark.parametrize("t, epsilon, options", [
    (math.nan, 0.1, {}), (math.inf, 0.1, {}), (1.0, math.nan, {}),
    (1.0, 0.1, {"tol": math.nan}), (1.0, 0.1, {"tol": math.inf}),
    (1.0, 0.1, {"method": "mazzoni", "dt": math.inf}),
    (1.0, 0.1, {"method": "mazzoni", "dt": math.nan})])
def test_nonfinite_arguments_rejected_before_solve(monkeypatch, ou, t,
                                                   epsilon, options):
    # NaN passes t < 0 and tol <= 0, and the adaptive solver never
    # returned; a mazzoni dt = inf ran one silent step
    monkeypatch.setattr(linearise, "_dormand_prince", None)
    monkeypatch.setattr(linearise, "solve_flow", None)
    with pytest.raises(ValueError):
        fixed_law(ou, [0.5], t, epsilon, **options)


@pytest.mark.parametrize("t", [0.0, 1.0])
@pytest.mark.parametrize("x0, mean0", [
    ([math.nan, 1.1], None), ([0.3, math.inf], None),
    ([0.3, 1.1], [math.nan, 1.1]), ([0.3, 1.1], [0.3, -math.inf]),
    ([0.3, 1.1], [0.3, 1.1, 0.0])])
@pytest.mark.parametrize("method", ["rk45", "mazzoni"])
def test_bad_point_or_mean_rejected_before_solve(monkeypatch, jet, t, x0,
                                                 mean0, method):
    for name in ("_dormand_prince", "solve_flow", "_propagate_fixed_step",
                 "_propagate_rk45"):
        monkeypatch.setattr(linearise, name, None)
    with pytest.raises(ValueError, match="mean|reference_point"):
        init = InitialCondition.fixed(x0) if mean0 is None else \
            InitialCondition.gaussian(mean0, rho=0.0, reference_point=x0)
        linearised_distribution(jet, init, t, 0.1, method=method)

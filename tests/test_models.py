import dataclasses
import math
import re

import numpy as np
import pytest

from linsde.exceptions import UnknownModelError
from linsde.linearise import _propagate_fixed_step, _propagate_rk45
from linsde.models import MODEL_NAMES, VectorFieldModel, builtin_model

from conftest import TEST_POINTS, flow_oracle, rk45_oracle


def test_catalog_names():
    assert MODEL_NAMES == ("brownian", "linear_additive",
                           "linear_multiplicative", "meandering_jet",
                           "ornstein_uhlenbeck", "sine")


def test_unknown_name_is_lookup_error():
    with pytest.raises(UnknownModelError):
        builtin_model("not_a_model")
    assert issubclass(UnknownModelError, KeyError)


def test_ou_invalid_rate():
    with pytest.raises(ValueError):
        builtin_model("ornstein_uhlenbeck", a=0.0)
    with pytest.raises(ValueError):
        builtin_model("ornstein_uhlenbeck", a=-1.0)
    for a in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^a must be finite and positive"):
            builtin_model("ornstein_uhlenbeck", a=a)


def test_brownian_invalid_dim():
    with pytest.raises(ValueError):
        builtin_model("brownian", dim=0)


@pytest.mark.parametrize("params", [{"K": 1e200}, {"k1": 1e200}])
def test_jet_constant_overflow_is_a_value_error(params):
    # float ** raises OverflowError in the catalog constants
    (name, value), = params.items()
    with pytest.raises(ValueError, match=f"bound constants overflow .*"
                                         f"{re.escape(f'{name}={value!r}')}"):
        builtin_model("meandering_jet", **params)


def test_linear_additive_keeps_its_own_matrices():
    # a caller's later edit of its arrays does not reach the model
    a, b, s = np.array([[-1.0]]), np.array([0.5]), np.array([[1.0]])
    model = builtin_model("linear_additive", a_matrix=a, b_vector=b,
                          sigma_matrix=s)
    a[:], b[:], s[:] = 7.0, 7.0, 7.0
    assert model.params == {"a_matrix": [[-1.0]], "b_vector": [0.5],
                            "sigma_matrix": [[1.0]]}
    assert model.drift(np.array([1.0]), 0.0)[0] == -0.5
    assert model.diffusion(np.array([1.0]), 0.0)[0, 0] == 1.0


#: every catalog model, with defaults and with non-default parameters
REBUILD_CASES = [
    ("sine", {}), ("linear_multiplicative", {}), ("meandering_jet", {}),
    ("meandering_jet", {"K": 3.0, "eps_mj": 0.1}),
    ("ornstein_uhlenbeck", {}), ("ornstein_uhlenbeck", {"a": 1.5}),
    ("brownian", {}), ("brownian", {"dim": 3}), ("linear_additive", {}),
    ("linear_additive", {"a_matrix": [[-1.0, 0.5, 0.0], [0.2, -0.7, 0.1],
                                      [0.0, 0.3, -0.4]],
                         "b_vector": [0.1, 0.0, -0.2],
                         "sigma_matrix": [[0.5, 0.0, 0.1, 0.0],
                                          [0.0, 0.4, 0.0, 0.2],
                                          [0.1, 0.0, 0.3, 0.0]]}),
]
COEFFICIENTS = ("drift", "drift_gradient", "diffusion", "diffusion_gradient")


@pytest.mark.parametrize("name,params", REBUILD_CASES)
def test_model_rebuilds_from_name_and_params(name, params):
    # field worker processes rebuild the model from its (name, params)
    # recipe; the params it records rebuild it too
    model = builtin_model(name, **params)
    assert model._recipe == (name, params)
    again = builtin_model(model.name, **model.params)
    assert (again.name, again.params, again.domain, again.constants,
            again.dim_state, again.dim_noise) == (
        model.name, model.params, model.domain, model.constants,
        model.dim_state, model.dim_noise)
    lo, hi = (np.asarray(b) for b in model.domain)
    x = lo + (hi - lo) * np.random.default_rng(3).random((9, model.dim_state))
    for coefficient in COEFFICIENTS:
        f, g = getattr(model, coefficient), getattr(again, coefficient)
        assert (f is None) == (g is None), coefficient
        if f is not None:
            for xs in (x, x[0]):
                assert np.array_equal(f(xs, 0.7), g(xs, 0.7)), coefficient


def test_sine_drift_at_origin(sine):
    assert sine.drift(np.array([0.0]), 0.0) == pytest.approx(0.0)


def test_mult_drift_value(mult):
    # drift is y/2
    assert mult.drift(np.array([2.0]), 0.0)[0] == pytest.approx(1.0)


def test_jet_drift_components(jet):
    # hand evaluation at (0, 1), t=0 with the default parameters:
    # first component: c - A sin(0) cos(1) + eps_mj*l1*sin(0)*cos(2) = c
    # second component: A K cos(0) sin(1) + eps_mj*k1*cos(0)*sin(2)
    u = jet.drift(np.array([0.0, 1.0]), 0.0)
    assert u[0] == pytest.approx(0.5, abs=1e-14)
    expected = 4.0 * math.sin(1.0) + 0.3 * math.sin(2.0)
    assert u[1] == pytest.approx(expected, abs=1e-14)


def test_sine_coefficients_at_point(sine):
    x = np.array([0.5])
    u, grad, sig = (sine.drift(x, 0.0), sine.drift_gradient(x, 0.0),
                    sine.diffusion(x, 0.0))
    assert u[0] == pytest.approx(math.sin(0.5), abs=1e-15)
    assert grad[0, 0] == pytest.approx(math.cos(0.5), abs=1e-15)
    assert sig[0, 0] == 1.0


def test_brownian_coefficients_at_point(brownian2):
    x = np.array([0.7, -0.2])
    u, grad, sig = (brownian2.drift(x, 3.0), brownian2.drift_gradient(x, 3.0),
                    brownian2.diffusion(x, 3.0))
    assert np.all(u == 0.0)
    assert np.all(grad == 0.0)
    np.testing.assert_array_equal(sig, np.eye(2))


def test_jet_diffusion_second_column(jet):
    sig = jet.diffusion(np.array([0.0, 1.0]), 0.5)
    np.testing.assert_allclose(sig[:, 0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(sig[:, 1], [0.0, 4.0 * math.sin(1.0)],
                               atol=1e-14)


@pytest.mark.parametrize("name,params", [
    ("sine", {}), ("linear_multiplicative", {}), ("meandering_jet", {}),
    ("ornstein_uhlenbeck", {}), ("brownian", {"dim": 2}),
    ("linear_additive", {}),
])
def test_drift_gradient_matches_finite_differences(name, params):
    model = builtin_model(name, **params)
    n = model.dim_state
    lo = np.asarray(model.domain[0])
    hi = np.asarray(model.domain[1])
    rng = np.random.default_rng(42)
    points = lo + (hi - lo) * rng.random((10, n))
    h = 1e-6
    for t in (0.0, 0.37):
        for x in points:
            grad = model.drift_gradient(x, t)
            fd = np.empty((n, n))
            for k in range(n):
                dx = np.zeros(n)
                dx[k] = h
                fd[:, k] = (model.drift(x + dx, t)
                            - model.drift(x - dx, t)) / (2 * h)
            err = np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad)))
            assert err < 1e-5, f"{name} at {x}, t={t}: rel error {err}"


def test_mult_diffusion_gradient_is_minus_sine(mult):
    x = np.array([0.7])
    got = mult.diffusion_gradient(x, 0.0)[0, 0, 0]
    assert got == pytest.approx(-math.sin(0.7), abs=1e-15)
    h = 1e-6
    fd = (mult.diffusion(x + h, 0.0) - mult.diffusion(x - h, 0.0)) / (2 * h)
    assert got == pytest.approx(fd[0, 0], abs=1e-9)


@pytest.mark.parametrize("name,params", [
    ("sine", {}), ("linear_multiplicative", {}), ("ornstein_uhlenbeck", {}),
    ("brownian", {"dim": 3}), ("linear_additive", {}),
])
def test_analytic_flow_identity_at_t0(name, params):
    model = builtin_model(name, **params)
    x = np.asarray(TEST_POINTS[name][:model.dim_state])
    if x.shape[0] != model.dim_state:
        x = np.full(model.dim_state, 0.3)
    analytic_flow, analytic_gradient = flow_oracle(model)
    np.testing.assert_allclose(analytic_flow(x, 0.0), x, atol=1e-14)
    np.testing.assert_allclose(analytic_gradient(x, 0.0).reshape(
        model.dim_state, model.dim_state), np.eye(model.dim_state),
        atol=1e-14)


def test_jet_diffusion_tracks_parameter_derivatives(jet):
    # the diffusion columns model noise in the phase speed c and the
    # amplitude A; entrywise they match |du/dc| and |du/dA| (the displayed
    # diffusion fixes the sign convention of the (1,2) entry)
    h = 1e-6
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.random(2) * math.pi
        t = rng.random()
        up = builtin_model("meandering_jet", c=0.5 + h).drift(x, t)
        um = builtin_model("meandering_jet", c=0.5 - h).drift(x, t)
        du_dc = (up - um) / (2 * h)
        up = builtin_model("meandering_jet", A=1.0 + h).drift(x, t)
        um = builtin_model("meandering_jet", A=1.0 - h).drift(x, t)
        du_da = (up - um) / (2 * h)
        sig = jet.diffusion(x, t)
        np.testing.assert_allclose(sig[:, 0], du_dc, atol=1e-8)
        np.testing.assert_allclose(np.abs(sig[:, 1]), np.abs(du_da),
                                   atol=1e-8)


def test_jet_parameter_defaults(jet):
    assert jet.params == pytest.approx({"c": 0.5, "A": 1.0, "K": 4.0,
                                        "eps_mj": 0.3, "c1": math.pi,
                                        "k1": 1.0, "l1": 2.0})


def test_coefficients_broadcast_over_batches(jet, sine):
    xs = np.random.default_rng(0).random((7, 2)) * math.pi
    ts = np.linspace(0.0, 1.0, 7)
    assert jet.drift(xs, 0.3).shape == (7, 2)
    assert jet.drift(xs, ts).shape == (7, 2)
    assert jet.drift_gradient(xs, ts).shape == (7, 2, 2)
    assert jet.diffusion(xs, ts).shape == (7, 2, 2)
    x1 = np.linspace(-1, 1, 5)[:, None]
    assert sine.drift(x1, 0.0).shape == (5, 1)
    assert sine.drift_gradient(x1, 0.0).shape == (5, 1, 1)
    assert sine.diffusion(x1, 0.0).shape == (5, 1, 1)


def _stacked_jet(p):
    """The meandering jet's coefficients in their earlier np.stack form,
    kept as the bitwise reference of the in-place callables."""
    c, A, K, e, c1, k1, l1 = (p[k] for k in ("c", "A", "K", "eps_mj", "c1",
                                             "k1", "l1"))

    def drift(x, t):
        x = np.asarray(x, dtype=float)
        y1, y2 = x[..., 0], x[..., 1]
        ph = k1 * (y1 - c1 * t)
        u1 = c - A * np.sin(K * y1) * np.cos(y2) \
            + e * l1 * np.sin(ph) * np.cos(l1 * y2)
        u2 = A * K * np.cos(K * y1) * np.sin(y2) \
            + e * k1 * np.cos(ph) * np.sin(l1 * y2)
        return np.stack(np.broadcast_arrays(u1, u2), axis=-1)

    def drift_gradient(x, t):
        x = np.asarray(x, dtype=float)
        y1, y2 = x[..., 0], x[..., 1]
        ph = k1 * (y1 - c1 * t)
        sp, cp = np.sin(ph), np.cos(ph)
        s1, cq = np.sin(K * y1), np.cos(K * y1)
        s2, c2 = np.sin(y2), np.cos(y2)
        sl, cl = np.sin(l1 * y2), np.cos(l1 * y2)
        g11 = -A * K * cq * c2 + e * l1 * k1 * cp * cl
        g12 = A * s1 * s2 - e * l1 ** 2 * sp * sl
        g21 = -A * K ** 2 * s1 * s2 - e * k1 ** 2 * sp * sl
        g22 = A * K * cq * c2 + e * k1 * l1 * cp * cl
        g11, g12, g21, g22 = np.broadcast_arrays(g11, g12, g21, g22)
        row1 = np.stack([g11, g12], axis=-1)
        row2 = np.stack([g21, g22], axis=-1)
        return np.stack([row1, row2], axis=-2)

    def diffusion(x, t):
        x = np.asarray(x, dtype=float)
        y1, y2 = x[..., 0], x[..., 1]
        s12 = np.sin(K * y1) * np.cos(y2)
        s22 = K * np.cos(K * y1) * np.sin(y2)
        ones = np.ones_like(s12)
        zeros = np.zeros_like(s12)
        row1 = np.stack([ones, s12], axis=-1)
        row2 = np.stack([zeros, s22], axis=-1)
        return np.stack([row1, row2], axis=-2)

    return {"drift": drift, "drift_gradient": drift_gradient,
            "diffusion": diffusion}


@pytest.mark.parametrize("shape, t_shape", [((2,), ()), ((64, 2), ()),
                                            ((3, 4, 2), ()),
                                            ((64, 2), (64,)),
                                            ((2,), (5,)),
                                            ((4096, 2), ())])
def test_jet_coefficients_equal_stacked_reference_bitwise(jet, shape, t_shape):
    # a reordered product changes the last bit at only a few percent of
    # points, hence the large batch; the fused evaluation must agree too
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 4.0, shape)
    t = rng.uniform(0.0, 2.0, t_shape) if t_shape else 0.37
    fused = dict(zip(("drift", "drift_gradient", "diffusion"),
                     jet.coefficients(x, t)))
    for name, reference in _stacked_jet(jet.params).items():
        want = reference(x, t)
        for got in (getattr(jet, name)(x, t), fused[name]):
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name


def test_jet_rk45_fused_equals_callables_and_scipy(jet):
    # the covariance kernel gives the same bits through the fused
    # evaluation as through the three callables, and both are within
    # rounding of scipy's RK45 on the concatenated RHS of the reference
    # coefficients
    nodes, t, tol = np.array([[0.3, 1.1], [2.5, 0.4]]), 1.0, 1e-6
    fused = _propagate_rk45(jet, nodes, t, tol, True)
    plain = _propagate_rk45(dataclasses.replace(jet), nodes, t, tol, True)
    for got, want in zip(fused, plain):
        assert np.array_equal(got, want)
    reference = VectorFieldModel(name="stacked", dim_state=2, dim_noise=2,
                                 constants=jet.constants,
                                 **_stacked_jet(jet.params))
    for i, node in enumerate(nodes):
        want, _ = rk45_oracle(reference, node, t, tol, True)
        for got, ref in zip(fused, want):
            assert np.linalg.norm(got[i] - ref) <= 1e-12 * np.linalg.norm(ref)


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


@pytest.mark.parametrize("k", [1, 2, 7, 64])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_coefficients_of_a_batch_are_its_rows_bitwise(name, k):
    # the adaptive kernel evaluates the nodes still running as one (k, n)
    # batch, each at its own time, so no row may depend on the others; a
    # matrix-product drift rounded a one-row batch differently
    model = builtin_model(name)
    rng = np.random.default_rng(k)
    x = rng.uniform(-2.0, 2.0, (k, model.dim_state))
    t = rng.uniform(0.0, 2.0, k)
    whole = dict(zip(("drift", "drift_gradient", "diffusion"),
                     model.coefficients(x, t)))
    for name in whole:
        assert _bits(getattr(model, name)(x, t)) == _bits(whole[name])
    for i in range(k):
        row = (x[i:i + 1], t[i:i + 1])
        for name, part in zip(whole, model.coefficients(*row)):
            assert _bits(part) == _bits(whole[name][i:i + 1]), (name, i)
            assert _bits(getattr(model, name)(*row)) == _bits(part)


def test_replaced_coefficient_drops_the_fused_evaluation(jet):
    # a model rebuilt with another diffusion must not keep the jet's fused
    # evaluation, whose diffusion would then be stale
    def diffusion(x, t):
        return 2.0 * jet.diffusion(x, t)

    x, t = np.array([0.3, 1.1]), 0.4
    noisier = dataclasses.replace(jet, diffusion=diffusion)
    drift, grad, sig = noisier.coefficients(x, t)
    assert np.array_equal(sig, diffusion(x, t))
    assert np.array_equal(drift, jet.drift(x, t))
    assert np.array_equal(grad, jet.drift_gradient(x, t))


def test_only_a_catalog_build_carries_its_recipe():
    # the recipe is a copy of builtin_model's arguments; a model rebuilt by
    # dataclasses.replace, or built directly, has none
    a = [[-1.0]]
    model = builtin_model("linear_additive", a_matrix=a, b_vector=[0.0],
                          sigma_matrix=[[1.0]])
    a[0][0] = 7.0
    assert model._recipe == ("linear_additive", {
        "a_matrix": [[-1.0]], "b_vector": [0.0], "sigma_matrix": [[1.0]]})
    assert dataclasses.replace(model)._recipe is None
    user = VectorFieldModel(
        name=model.name, dim_state=1, dim_noise=1, drift=model.drift,
        drift_gradient=model.drift_gradient, diffusion=model.diffusion,
        constants=model.constants, params=model.params)
    assert user._recipe is None


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_user_model_needs_only_the_three_callables(name):
    model = builtin_model(name)
    user = VectorFieldModel(
        name="user", dim_state=model.dim_state, dim_noise=model.dim_noise,
        drift=model.drift, drift_gradient=model.drift_gradient,
        diffusion=model.diffusion, constants=model.constants)
    x = np.asarray(TEST_POINTS[name], dtype=float)
    xs = np.stack([x, x + 0.1, x - 0.2])
    for at in (x, xs):
        for got, want in zip(user.coefficients(at, 0.3),
                             model.coefficients(at, 0.3)):
            assert np.array_equal(got, want)
    for run in (lambda m: _propagate_rk45(m, x, 0.5, 1e-6, True),
                lambda m: _propagate_fixed_step(m, xs, 0.5, 1e-2, True)):
        for got, want in zip(run(user), run(model)):
            assert np.array_equal(got, want)

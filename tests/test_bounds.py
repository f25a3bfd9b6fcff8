import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from linsde import bounds
from linsde.bounds import (BoundConstants, bound_rhs, default_bdg_constant,
                           estimate_constants, gaussian_delta_bound,
                           lemma_constants, moment_constant,
                           theorem_constants)
from linsde.exceptions import NumericalDomainError
from linsde.models import builtin_model

UNIT_BDG = lambda r: 1.0


def plain_constants(k_grad_u=1.0, k_hess_u=1.0, k_grad_sigma=0.0,
                    k_sigma=1.0, n=1, bdg=UNIT_BDG):
    return BoundConstants(k_grad_u=k_grad_u, k_hess_u=k_hess_u,
                          k_grad_sigma=k_grad_sigma, k_sigma=k_sigma,
                          bdg_constant=bdg, n=n)


class TestMomentConstant:
    def test_known_values(self):
        assert moment_constant(2.0) == pytest.approx(1.0, abs=1e-12)
        assert moment_constant(1.0) == pytest.approx(math.sqrt(2 / math.pi),
                                                     abs=1e-12)
        assert moment_constant(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_gamma_evaluation(self):
        for r in (1.0, 2.0, 3.0, 4.0, 2.5):
            expected = 2 ** (r / 2) * gamma((r + 1) / 2) / math.sqrt(math.pi)
            assert moment_constant(r) == pytest.approx(expected, rel=1e-12)

    def test_against_quadrature_oracle(self):
        # E|Z|^r for standard normal Z, by direct numerical integration
        for r in (1.0, 2.0, 3.0):
            oracle, _ = quad(
                lambda z: abs(z) ** r * math.exp(-0.5 * z * z)
                / math.sqrt(2 * math.pi), -12, 12)
            assert moment_constant(r) == pytest.approx(oracle, rel=1e-9)

    def test_matches_scipy_gamma_up_to_overflow(self):
        # math.gamma against scipy's, on the orders where the value is
        # finite; where it overflows, both read +inf
        for r in np.linspace(1.0, 340.0, 5079).tolist():
            want = 2.0 ** (0.5 * r) * float(gamma(0.5 * (r + 1.0))) \
                / math.sqrt(math.pi)
            if math.isfinite(want):
                assert moment_constant(r) == pytest.approx(want, rel=2e-15)
            else:
                with pytest.warns(RuntimeWarning, match="vacuous"):
                    assert moment_constant(r) == math.inf

    @pytest.mark.parametrize("r", [400.0, 3000.0])
    def test_overflow_is_infinite(self, r):
        # math.gamma raises past 171.6 and 2.0 ** (r / 2) past r = 2048
        with pytest.warns(RuntimeWarning, match="vacuous"):
            assert moment_constant(r) == math.inf

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            moment_constant(-0.5)


class TestGaussianDeltaBound:
    def test_univariate_exact(self):
        # with n = 1 the trace bound is exact: delta_r = M_r^{1/r} rho
        rho = 0.3
        for r in (1.0, 2.0, 3.0):
            got = gaussian_delta_bound(np.array([[rho ** 2]]), r)
            assert got == pytest.approx(moment_constant(r) ** (1 / r) * rho,
                                        rel=1e-12)

    def test_univariate_quadrature_oracle(self):
        # L_r distance of N(0, rho^2) from 0 by quadrature
        rho, r = 0.25, 3.0
        oracle, _ = quad(
            lambda z: abs(z) ** r * math.exp(-0.5 * (z / rho) ** 2)
            / (rho * math.sqrt(2 * math.pi)), -8 * rho, 8 * rho)
        got = gaussian_delta_bound(np.array([[rho ** 2]]), r)
        assert got == pytest.approx(oracle ** (1 / r), rel=1e-8)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_non_positive_order_rejected(self, r):
        with pytest.raises(ValueError, match="^r must be finite and positive"):
            gaussian_delta_bound(np.array([[0.01]]), r)

    def test_multivariate_is_upper_bound(self):
        # Monte-Carlo L_r distance never exceeds the trace bound
        rng = np.random.default_rng(3)
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        chol = np.linalg.cholesky(cov)
        draws = rng.standard_normal((200000, 2)) @ chol.T
        for r in (1.0, 2.0):
            emp = np.mean(np.linalg.norm(draws, axis=1) ** r) ** (1 / r)
            assert emp <= gaussian_delta_bound(cov, r) * 1.001


class TestLemmaConstants:
    def test_unit_example(self):
        c = plain_constants()
        h1, h2 = lemma_constants(1.0, 1.0, c)
        assert h1 == pytest.approx(math.e, rel=1e-12)
        assert h2 == pytest.approx(math.e, rel=1e-12)

    def test_zero_time(self):
        h1, h2 = lemma_constants(2.0, 0.0, plain_constants())
        assert h1 == 0.0 and h2 == 0.0

    def test_no_diffusion_kills_h1(self):
        c = plain_constants(k_sigma=0.0)
        for t in (0.3, 1.0, 2.5):
            h1, h2 = lemma_constants(1.5, t, c)
            assert h1 == 0.0
            assert h2 > 0.0

    def test_nondecreasing_in_time(self):
        c = plain_constants()
        ts = np.linspace(0.0, 2.0, 12)
        for q in (1.0, 2.0, 3.0):
            vals = [lemma_constants(q, t, c) for t in ts]
            h1s = [v[0] for v in vals]
            h2s = [v[1] for v in vals]
            assert np.all(np.diff(h1s) >= 0)
            assert np.all(np.diff(h2s) >= 0)

    def test_overflow_returns_infinity(self):
        c = plain_constants(k_grad_u=10.0)
        with pytest.warns(RuntimeWarning, match="overflow"):
            h1, h2 = lemma_constants(50.0, 100.0, c)
        assert math.isinf(h1) and math.isinf(h2)

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            lemma_constants(0.5, 1.0, plain_constants())


class TestTheoremConstants:
    def test_d2_chained_example(self):
        # r=1, t=1, unit constants and BDG: H2(2,1) = 3 e^3, so D2 = 3 e^4
        d1, d2, d3 = theorem_constants(1.0, 1.0, plain_constants())
        assert d2 == pytest.approx(3.0 * math.exp(4.0), rel=1e-12)

    def test_zero_time_limits(self):
        d1, d2, d3 = theorem_constants(1.0, 0.0, plain_constants())
        assert (d1, d2, d3) == (0.0, 0.0, 0.0)
        # removable singularity: small t stays finite and tiny
        d1, d2, d3 = theorem_constants(1.0, 1e-12, plain_constants())
        assert 0.0 <= d3 < 1e-5
        assert np.isfinite([d1, d2, d3]).all()

    def test_d1_vanishes_without_diffusion(self):
        c = plain_constants(k_sigma=0.0)
        d1, _, _ = theorem_constants(2.0, 1.3, c)
        assert d1 == 0.0

    def test_all_finite_nonnegative(self):
        # parameters kept below the (documented) overflow regime
        c = plain_constants(k_grad_u=1.2, k_sigma=1.5, n=2,
                            bdg=default_bdg_constant)
        for r in (1.0, 2.0, 3.0):
            for t in (0.1, 0.5, 0.8):
                vals = theorem_constants(r, t, c)
                assert all(np.isfinite(v) and v >= 0 for v in vals)


class TestBoundRhs:
    def test_exact_linearisation_is_zero(self):
        c = plain_constants(k_hess_u=0.0, k_grad_sigma=0.0)
        b = bound_rhs(1.0, 1.0, 0.3, 0.2, 0.2, c)
        assert b.total == 0.0
        assert b.term_ongoing == b.term_initial == b.term_cross == 0.0

    def test_additive_noise_form(self):
        # drift curvature only: cross term dies, and the total matches the
        # displayed two-term form with the univariate Gaussian moments
        rho, eps, r, t = 0.02, 0.05, 1.0, 1.5
        c = plain_constants(k_grad_u=1.0, k_hess_u=1.0, k_grad_sigma=0.0)
        d1, d2, _ = theorem_constants(r, t, c)
        delta_2r = gaussian_delta_bound(np.array([[rho ** 2]]), 2 * r)
        b = bound_rhs(r, t, eps, gaussian_delta_bound(
            np.array([[rho ** 2]]), r), delta_2r, c)
        assert b.term_cross == 0.0
        expected = d1 * eps ** 2 + moment_constant(2 * r) * d2 * rho ** 2
        assert b.total == pytest.approx(expected, rel=1e-12)

    def test_multiplicative_form(self):
        # linear drift: initial term dies; total is the two-term cross form
        rho, eps, r, t = 0.1, 0.05, 1.0, 1.0
        c = plain_constants(k_grad_u=0.5, k_hess_u=0.0, k_grad_sigma=1.0)
        d1, _, d3 = theorem_constants(r, t, c)
        delta_r = gaussian_delta_bound(np.array([[rho ** 2]]), r)
        b = bound_rhs(r, t, eps, delta_r,
                      gaussian_delta_bound(np.array([[rho ** 2]]), 2 * r), c)
        assert b.term_initial == 0.0
        expected = d1 * eps ** 2 + moment_constant(r) * d3 * eps * rho
        assert b.total == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
    def test_scaling_identities(self, r):
        c = plain_constants(k_grad_u=0.8, k_hess_u=0.7, k_grad_sigma=0.6,
                            bdg=default_bdg_constant)
        d_r, d_2r = 0.05, 0.04
        b1 = bound_rhs(r, 1.2, 0.01, d_r, d_2r, c)
        b2 = bound_rhs(r, 1.2, 0.02, d_r, d_2r, c)
        assert b2.term_ongoing / b1.term_ongoing == pytest.approx(
            2.0 ** (2 * r), rel=1e-12)
        assert b2.term_cross / b1.term_cross == pytest.approx(
            2.0 ** r, rel=1e-12)
        assert b2.term_initial == pytest.approx(b1.term_initial, rel=1e-12)

    def test_monotonicity_in_inputs(self):
        c = plain_constants(k_grad_u=1.0, k_hess_u=0.5, k_grad_sigma=0.5,
                            bdg=default_bdg_constant)
        eps_grid = [0.0, 0.01, 0.05, 0.1]
        delta_grid = [0.0, 0.01, 0.1]
        t_grid = [0.1, 0.5, 1.0, 2.0]
        for r in (1.0, 2.0):
            totals = np.array([[[bound_rhs(r, t, e, d, d, c).total
                                 for e in eps_grid]
                                for d in delta_grid]
                               for t in t_grid])
            assert np.all(np.diff(totals, axis=0) >= 0)  # in t
            assert np.all(np.diff(totals, axis=1) >= 0)  # in delta
            assert np.all(np.diff(totals, axis=2) >= 0)  # in eps

    def test_breakdown_sums_and_serialises(self):
        c = plain_constants(bdg=default_bdg_constant, k_grad_sigma=0.3)
        b = bound_rhs(2.0, 0.7, 0.05, 0.01, 0.02, c)
        assert b.total == pytest.approx(
            b.term_ongoing + b.term_initial + b.term_cross, rel=1e-15)
        payload = b.to_json()
        assert payload["inputs"]["epsilon"] == 0.05
        assert payload["total"] == b.total


class TestDefaultBdg:
    def test_small_orders_use_flat_value(self):
        assert default_bdg_constant(1.0) == 4.0
        assert default_bdg_constant(2.0) == 4.0

    def test_large_orders_positive_increasing(self):
        vals = [default_bdg_constant(r) for r in (3.0, 4.0, 6.0, 8.0)]
        assert all(v > 0 for v in vals)
        assert np.all(np.diff(vals) > 0)

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            default_bdg_constant(0.5)


class TestEstimateConstants:
    def test_sine(self):
        model = builtin_model("sine")
        est = estimate_constants(model, samples_per_axis=33, seed=0)
        assert est.k_grad_u == pytest.approx(1.0, abs=1e-3)
        assert est.k_hess_u == pytest.approx(1.0, abs=1e-3)
        assert est.k_sigma == pytest.approx(1.0, abs=1e-12)
        assert est.k_grad_sigma < 1e-7

    def test_brownian(self):
        model = builtin_model("brownian", dim=2)
        est = estimate_constants(model, samples_per_axis=7, seed=0)
        assert est.k_grad_u == 0.0
        assert est.k_hess_u < 1e-9
        assert est.k_sigma == pytest.approx(1.0, abs=1e-12)
        assert est.k_grad_sigma < 1e-9

    def test_linear_multiplicative(self):
        model = builtin_model("linear_multiplicative")
        est = estimate_constants(model, samples_per_axis=33, seed=0)
        assert est.k_grad_u == pytest.approx(0.5, abs=1e-12)
        assert est.k_hess_u < 1e-6
        assert est.k_grad_sigma == pytest.approx(1.0, abs=1e-3)
        assert est.k_sigma == pytest.approx(1.0, abs=1e-3)

    def test_estimates_are_lower_bounds_of_catalog_constants(self):
        # grid suprema cannot exceed valid analytic suprema
        for name in ("sine", "linear_multiplicative", "meandering_jet"):
            model = builtin_model(name)
            est = estimate_constants(model, samples_per_axis=9,
                                     times=(0.0, 0.5), seed=1)
            assert est.k_grad_u <= model.constants.k_grad_u * (1 + 1e-9)
            assert est.k_hess_u <= model.constants.k_hess_u * (1 + 1e-6) + 1e-9
            assert est.k_sigma <= model.constants.k_sigma * (1 + 1e-9)

    def test_batched_differences_match_per_point_loop(self):
        # reference: central differences and probe norms point by point;
        # the estimator batches the same arithmetic, so results are equal
        model = builtin_model("meandering_jet")
        t, seed = 0.3, 2
        est = estimate_constants(model, samples_per_axis=5, times=(t,),
                                 n_jitter=3, n_probe=8, seed=seed)
        lo, hi = (np.asarray(b, dtype=float) for b in model.domain)
        mesh = np.meshgrid(*[np.linspace(lo[k], hi[k], 5) for k in range(2)],
                           indexing="ij")
        rng = np.random.default_rng(seed)
        points = np.vstack([np.stack([m.ravel() for m in mesh], axis=-1),
                            lo + (hi - lo) * rng.random((3, 2))])
        probes = np.vstack([np.eye(2), rng.standard_normal((8, 2))])
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        h = 1e-5 * max(1.0, float(np.max(np.abs(np.stack([lo, hi])))))

        def probe_norm(slabs):
            return max(np.linalg.norm(m, 2)
                       for m in np.einsum("ijk,pk->pij", slabs, probes))

        k_hess = k_gsig = 0.0
        for p in points:
            hess = np.empty((2, 2, 2))
            dsig = np.empty((2, 2, 2))
            for k in range(2):
                dp = np.zeros(2)
                dp[k] = h
                hess[:, :, k] = (model.drift_gradient(p + dp, t)
                                 - model.drift_gradient(p - dp, t)) / (2 * h)
                dsig[:, :, k] = (model.diffusion(p + dp, t)
                                 - model.diffusion(p - dp, t)) / (2 * h)
            k_hess = max(k_hess, probe_norm(hess))
            k_gsig = max(k_gsig, probe_norm(dsig))
        assert est.k_hess_u == k_hess
        assert est.k_grad_sigma == k_gsig

    def test_nonfinite_gradient_reports_its_point(self):
        # the drift is finite everywhere; only the gradient fails, at the
        # grid point x = 0
        model = builtin_model("sine")

        def gradient(x, t):
            out = np.array(model.drift_gradient(x, t), dtype=float)
            out[np.asarray(x)[..., 0] == 0.0] = np.nan
            return out

        bad = dataclasses.replace(model, name="nan_gradient",
                                  drift_gradient=gradient)
        with pytest.raises(NumericalDomainError) as err:
            estimate_constants(bad, samples_per_axis=5, n_jitter=0)
        np.testing.assert_array_equal(err.value.point, [[0.0]])
        assert "near [[0.]]" in str(err.value)

    def test_requires_domain(self):
        model = builtin_model("sine")
        bare = type(model)(name="bare", dim_state=1, dim_noise=1,
                           drift=model.drift,
                           drift_gradient=model.drift_gradient,
                           diffusion=model.diffusion,
                           constants=model.constants)
        with pytest.raises(ValueError, match="domain"):
            estimate_constants(bare)


def test_constants_validation():
    with pytest.raises(ValueError):
        BoundConstants(k_grad_u=-1.0, k_hess_u=0.0, k_grad_sigma=0.0,
                       k_sigma=0.0)
    with pytest.raises(ValueError):
        BoundConstants(k_grad_u=0.0, k_hess_u=0.0, k_grad_sigma=0.0,
                       k_sigma=0.0, n=0)


@pytest.mark.parametrize("name", ["k_grad_u", "k_hess_u", "k_grad_sigma",
                                  "k_sigma", "n"])
def test_constants_reject_nan(name):
    values = {"k_grad_u": 1.0, "k_hess_u": 1.0, "k_grad_sigma": 1.0,
              "k_sigma": 1.0, name: math.nan}
    with pytest.raises(ValueError, match=f"^{name} must"):
        BoundConstants(**values)


@pytest.mark.parametrize("r, t, epsilon, delta", [
    (math.nan, 1.0, 0.1, 0.0), (1.0, math.nan, 0.1, 0.0),
    (math.inf, 1.0, 0.1, 0.0), (1.0, math.inf, 0.1, 0.0),
    (1.0, 1.0, math.inf, 0.0), (1.0, 1.0, 0.1, math.nan)])
def test_nonfinite_bound_arguments_rejected_before_constants(
        monkeypatch, sine, r, t, epsilon, delta):
    # NaN passed r < 1 and t < 0, and bound_rhs returned a NaN total
    monkeypatch.setattr(bounds, "theorem_constants", None)
    with pytest.raises(ValueError):
        bound_rhs(r, t, epsilon, delta, delta, sine.constants)


@pytest.mark.parametrize("fn, args", [
    (moment_constant, (math.nan,)), (moment_constant, (math.inf,)),
    (gaussian_delta_bound, (np.eye(2), math.nan)),
    (gaussian_delta_bound, (np.eye(2), math.inf)),
    (gaussian_delta_bound, ([[math.nan]], 1.0)),
    (gaussian_delta_bound, ([[1.0, 0.0], [0.0, math.inf]], 1.0)),
    (default_bdg_constant, (math.nan,)), (default_bdg_constant, (math.inf,)),
    (lemma_constants, (math.nan, 1.0, plain_constants())),
    (lemma_constants, (2.0, math.nan, plain_constants())),
    (lemma_constants, (2.0, math.inf, plain_constants()))],
    ids=lambda v: getattr(v, "__name__", None))
def test_nonfinite_constant_arguments_rejected(fn, args):
    # each of these returned NaN instead of rejecting its argument
    with pytest.raises(ValueError):
        fn(*args)

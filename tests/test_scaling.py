import math
import tracemalloc

import numpy as np
import pytest

from linsde import sampling, scaling
from linsde.models import builtin_model
from linsde.sampling import SamplePairBatch, SimulationConfig, sample_coupled
from linsde.scaling import (BASES, SweepResult, bootstrap_coefficients,
                            check_basis, fit_scaling, moment_orders,
                            read_sweep, rho_curvature_interval, run_sweep,
                            strong_error, sweep_cells)
from linsde.scaling import _cell_seed, _resampled_estimates
from linsde.linearise import InitialCondition


def make_batch(y, l, epsilon=0.1, rho=0.0):
    y = np.atleast_2d(np.asarray(y, dtype=float))
    l = np.atleast_2d(np.asarray(l, dtype=float))
    return SamplePairBatch(y, l, epsilon, rho,
                           SimulationConfig(n_samples=max(1, y.shape[0])),
                           1.0)


def synthetic_sweep(xs, values, axis="epsilon", r=1.0, other=0.0,
                    distances=None):
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(values, dtype=float)
    eps = xs if axis == "epsilon" else np.full_like(xs, other)
    rho = xs if axis == "rho" else np.full_like(xs, other)
    return SweepResult(eps, rho, vals, np.zeros_like(vals),
                       np.zeros(xs.size, dtype=np.uint64), r, 100,
                       distances)


class TestStrongError:
    def test_identical_samples_give_zero(self):
        y = np.random.default_rng(0).random((50, 2))
        est, se = strong_error(make_batch(y, y), 1.0)
        assert est == 0.0 and se == 0.0

    def test_single_pair_squared_distance(self):
        d = 0.37
        est, se = strong_error(make_batch([[0.0, 0.0]], [[d, 0.0]]), 2.0)
        assert est == pytest.approx(d ** 2, rel=1e-15)
        assert se == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        y = rng.random((40, 2))
        l = y + 0.01 * rng.random((40, 2))
        perm = rng.permutation(40)
        a = strong_error(make_batch(y, l), 1.5)
        b = strong_error(make_batch(y[perm], l[perm]), 1.5)
        assert a == pytest.approx(b, rel=1e-14)

    def test_power_mean_ordering(self):
        rng = np.random.default_rng(2)
        y = rng.random((200, 2))
        l = y + 0.05 * rng.standard_normal((200, 2))
        batch = make_batch(y, l)
        roots = [strong_error(batch, r)[0] ** (1.0 / r)
                 for r in (1.0, 2.0, 3.0, 4.0)]
        assert np.all(np.diff(roots) >= -1e-15)

    def test_empty_batch_rejected(self):
        batch = make_batch(np.empty((0, 1)), np.empty((0, 1)))
        with pytest.raises(ValueError):
            strong_error(batch, 1.0)


class TestFitScaling:
    def test_exact_const_plus_eps2(self):
        eps = np.array([0.01, 0.02, 0.05, 0.1, 0.2])
        sweep = synthetic_sweep(eps, 3.0 + 2.0 * eps ** 2)
        fit = fit_scaling(sweep, "const_plus_eps2")
        assert fit.coefficients[0] == pytest.approx(3.0, rel=1e-10)
        assert fit.coefficients[1] == pytest.approx(2.0, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_loglog_slope(self):
        for r in (1.0, 2.0):
            eps = 10 ** np.linspace(-3, -1, 5)
            sweep = synthetic_sweep(eps, 0.7 * eps ** (2 * r), r=r)
            fit = fit_scaling(sweep, "loglog_line")
            assert fit.slope == pytest.approx(2 * r, rel=1e-10)
            assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_rho_bases(self):
        rho = np.array([0.0, 0.01, 0.02, 0.04, 0.08])
        lin = synthetic_sweep(rho, 0.5 + 4.0 * rho, axis="rho")
        fit = fit_scaling(lin, "const_plus_rho")
        assert fit.coefficients == pytest.approx((0.5, 4.0), rel=1e-10)
        quad = synthetic_sweep(rho, 0.5 + 4.0 * rho ** 2, axis="rho")
        fit2 = fit_scaling(quad, "const_plus_rho2")
        assert fit2.coefficients == pytest.approx((0.5, 4.0), rel=1e-10)

    def test_exact_no_intercept_basis(self):
        eps = np.array([0.01, 0.02, 0.05, 0.1])
        sweep = synthetic_sweep(eps, 4.0 * eps + 7.0 * eps ** 2)
        fit = fit_scaling(sweep, "eps_plus_eps2")
        assert fit.coefficients == pytest.approx((4.0, 7.0), rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_requires_constant_other_axis(self):
        sweep = SweepResult(np.array([0.01, 0.02, 0.01, 0.02]),
                            np.array([0.0, 0.0, 0.1, 0.1]),
                            np.ones(4), np.zeros(4),
                            np.zeros(4, dtype=np.uint64), 1.0, 10)
        with pytest.raises(ValueError, match="axis"):
            fit_scaling(sweep, "const_plus_eps2")

    def test_too_few_cells(self):
        sweep = synthetic_sweep([0.01, 0.02, 0.05], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="cells"):
            fit_scaling(sweep, "const_plus_eps2")

    def test_degenerate_design(self):
        sweep = synthetic_sweep([0.01] * 5, np.ones(5))
        with pytest.raises(ValueError, match="degenerate"):
            fit_scaling(sweep, "const_plus_eps2")

    def test_unknown_basis(self):
        sweep = synthetic_sweep([0.01, 0.02, 0.05, 0.1], np.ones(4))
        with pytest.raises(ValueError, match="basis"):
            fit_scaling(sweep, "cubic")

    def test_loglog_needs_positive(self):
        sweep = synthetic_sweep([0.01, 0.02, 0.05, 0.1],
                                [1.0, 2.0, 0.0, 3.0])
        with pytest.raises(ValueError, match="positive"):
            fit_scaling(sweep, "loglog_line")


class TestCheckBasis:
    @pytest.mark.parametrize("basis", sorted(BASES))
    def test_returns_the_design(self, basis):
        x = np.array([0.01, 0.02, 0.05, 0.1])
        build = BASES[basis][0]
        want = build(np.log10(x)) if basis == "loglog_line" else build(x)
        np.testing.assert_array_equal(check_basis(basis, x), want)

    @pytest.mark.parametrize("basis, values, message", [
        ("cubic", [0.01, 0.02, 0.05, 0.1], "unknown basis"),
        ("const_plus_eps2", [0.01, 0.02, 0.05], "cells"),
        ("const_plus_rho", [0.0, 0.0, 0.1, 0.1, 0.2][:3], "cells"),
        ("const_plus_eps2", [0.05] * 4, "degenerate"),
        ("eps_plus_eps2", [0.0] * 5, "degenerate"),
        ("loglog_line", [0.0, 0.03, 0.06, 0.1], "positive"),
        ("loglog_line", [-0.01, 0.03, 0.06, 0.1], "positive")])
    def test_rejections(self, basis, values, message):
        with pytest.raises(ValueError, match=message):
            check_basis(basis, values)

    def test_repeated_values_with_full_rank_accepted(self):
        # four cells and two distinct values still determine two coefficients
        design = check_basis("const_plus_eps2", [0.01, 0.01, 0.03, 0.03])
        assert design.shape == (4, 2)
        sweep = synthetic_sweep([0.01, 0.01, 0.03, 0.03],
                                [1.0, 1.1, 2.0, 2.1])
        assert len(fit_scaling(sweep, "const_plus_eps2").coefficients) == 2


class TestBootstrap:
    def test_noisy_recovery_within_interval(self):
        rng = np.random.default_rng(3)
        eps = np.array([0.01, 0.02, 0.05, 0.1, 0.2])
        beta0, beta1 = 2.0, 5.0
        truth = beta0 + beta1 * eps ** 2
        dists = [np.abs(rng.normal(m, 0.02 * m, size=4000)) for m in truth]
        est = np.array([d.mean() for d in dists])
        sweep = synthetic_sweep(eps, est, distances=dists)
        boots = bootstrap_coefficients(sweep, "const_plus_eps2",
                                       n_boot=300, seed=0)
        lo, hi = np.quantile(boots[:, 0], [0.005, 0.995])
        assert lo <= beta0 <= hi
        lo, hi = np.quantile(boots[:, 1], [0.005, 0.995])
        assert lo <= beta1 <= hi

    def test_resampled_estimates_equal_mean_of_resample(self):
        # ragged cells, as flagged samples leave them, and 100 replicates
        # in several draw groups, the last one partial
        rng = np.random.default_rng(5)
        dists = [np.abs(rng.normal(1.0, 0.3, size=n))
                 for n in (1, 7, 300, 297)]
        sweep = synthetic_sweep([0.01, 0.02, 0.05, 0.1], np.ones(4), r=1.5,
                                distances=dists)
        stream = np.random.Generator(np.random.Philox(seed=9))
        expected = np.array([[np.mean(d[stream.integers(0, d.size, d.size)]
                                      ** 1.5) for d in dists]
                             for _ in range(100)])
        np.testing.assert_array_equal(_resampled_estimates(sweep, 100, 9),
                                      expected)

    def test_resampling_memory_flat_in_replicates(self):
        rng = np.random.default_rng(8)
        dists = [np.abs(rng.normal(1.0, 0.3, size=300)) for _ in range(4)]
        sweep = synthetic_sweep([0.01, 0.02, 0.05, 0.1], np.ones(4),
                                distances=dists)
        extra = []
        for n_boot in (1000, 20_000):
            tracemalloc.start()
            try:
                _resampled_estimates(sweep, n_boot, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - n_boot * len(dists) * 8)
        assert extra[1] <= 1.1 * extra[0]

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_boot": 0}, "n_boot"), ({"n_boot": -5}, "n_boot"),
        ({"n_boot": 10.0}, "n_boot"), ({"n_boot": True}, "n_boot"),
        ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"),
        ({"level": 0.0}, "level"), ({"level": 1.0}, "level"),
        ({"level": -0.5}, "level"), ({"level": float("nan")}, "level")])
    def test_bootstrap_arguments_checked_before_resampling(
            self, monkeypatch, kwargs, message):
        def resampled(*args):
            raise AssertionError("resampled before the argument check")

        monkeypatch.setattr(scaling, "_resampled_estimates", resampled)
        rho = np.array([0.0, 0.02, 0.05, 0.1])
        sweep = synthetic_sweep(rho, np.ones(4), axis="rho",
                                distances=[np.ones(10)] * 4)
        with pytest.raises(ValueError, match=message):
            rho_curvature_interval(sweep, **kwargs)
        if "level" not in kwargs:
            with pytest.raises(ValueError, match=message):
                bootstrap_coefficients(sweep, "const_plus_rho", **kwargs)

    @pytest.mark.parametrize("basis", sorted(BASES))
    def test_batched_refits_match_per_replicate_loop(self, basis):
        # one lstsq over all replicates gives each replicate's own fit
        rng = np.random.default_rng(6)
        x = np.array([0.01, 0.02, 0.05, 0.1, 0.2])
        dists = [np.abs(rng.normal(1.0 + 5.0 * v, 0.1, size=200)) for v in x]
        build, axis, _ = BASES[basis]
        sweep = synthetic_sweep(x, [d.mean() for d in dists], axis=axis,
                                distances=dists)
        resp = _resampled_estimates(sweep, 200, 3)
        if basis == "loglog_line":
            design, resp = build(np.log10(x)), np.log10(resp)
        else:
            design = build(x)
        loop = np.array([np.linalg.lstsq(design, row, rcond=None)[0]
                         for row in resp])
        np.testing.assert_allclose(
            bootstrap_coefficients(sweep, basis, n_boot=200, seed=3), loop,
            rtol=1e-12, atol=0)
        if axis == "rho":
            design = np.column_stack([np.ones_like(x), x, x ** 2])
            boots = [np.linalg.lstsq(design, row, rcond=None)[0][2]
                     for row in resp]
            np.testing.assert_allclose(
                rho_curvature_interval(sweep, n_boot=200, seed=3)[1:],
                np.quantile(boots, [0.025, 0.975]), rtol=1e-12, atol=0)

    def test_curvature_interval_needs_three_distinct_rho(self):
        # four cells on two rho values leave the quadratic undetermined
        sweep = synthetic_sweep([0.0, 0.1, 0.1, 0.1], [1.0, 1.3, 1.31, 1.29],
                                axis="rho", distances=[np.ones(10)] * 4)
        with pytest.raises(ValueError, match="three distinct rho values"):
            rho_curvature_interval(sweep, n_boot=50)

    def test_requires_distances(self):
        sweep = synthetic_sweep([0.01, 0.02, 0.05, 0.1], np.ones(4))
        with pytest.raises(ValueError, match="keep_distances"):
            bootstrap_coefficients(sweep, "const_plus_eps2")

    def test_curvature_interval_flags_planted_quadratic(self):
        rng = np.random.default_rng(4)
        rho = np.array([0.0, 0.02, 0.05, 0.1])
        truth = 1.0 + 3.0 * rho + 40.0 * rho ** 2
        dists = [np.abs(rng.normal(m, 0.01 * m, size=3000)) for m in truth]
        est = np.array([d.mean() for d in dists])
        sweep = synthetic_sweep(rho, est, axis="rho", distances=dists)
        c2, lo, hi = rho_curvature_interval(sweep, n_boot=300, seed=1)
        assert lo > 0.0  # genuine curvature detected
        # and a planted straight line is not flagged
        truth = 1.0 + 3.0 * rho
        dists = [np.abs(rng.normal(m, 0.01 * m, size=3000)) for m in truth]
        est = np.array([d.mean() for d in dists])
        sweep = synthetic_sweep(rho, est, axis="rho", distances=dists)
        c2, lo, hi = rho_curvature_interval(sweep, n_boot=300, seed=1)
        assert lo <= 0.0 <= hi


class TestRunSweep:
    def test_single_cell_reduces_to_strong_error(self, sine):
        cfg = SimulationConfig(dt=1e-3, n_samples=200, seed=21)
        sweep = run_sweep(sine, [0.5], [0.0], [0.05], 1.0, 1.0, cfg)
        assert len(sweep) == 1
        cell_cfg = SimulationConfig(dt=1e-3, n_samples=200,
                                    seed=_cell_seed(21, 0, 0))
        batch = sample_coupled(sine, InitialCondition.fixed([0.5]), 0.05,
                               1.0, cell_cfg)
        est, se = strong_error(batch, 1.0)
        assert sweep.estimates[0] == est
        assert sweep.stderrs[0] == se

    def test_multiple_orders_share_cells(self, sine):
        cfg = SimulationConfig(dt=1e-2, n_samples=100, seed=22)
        sweeps = run_sweep(sine, [0.5], [0.0], [0.05, 0.1], 1.0,
                           [1.0, 2.0], cfg)
        assert len(sweeps) == 2
        np.testing.assert_array_equal(sweeps[0].seeds, sweeps[1].seeds)
        assert sweeps[0].r == 1.0 and sweeps[1].r == 2.0

    def test_monotone_in_epsilon(self, sine):
        cfg = SimulationConfig(dt=1e-3, n_samples=500, seed=23)
        sweep = run_sweep(sine, [0.5], [0.0], [1e-3, 1e-2, 1e-1], 1.0,
                          1.0, cfg)
        noise = 3 * np.hypot(sweep.stderrs[1:], sweep.stderrs[:-1])
        assert np.all(np.diff(sweep.estimates) > -noise)

    def test_multiplicative_monotone_in_rho(self, mult):
        cfg = SimulationConfig(dt=1e-3, n_samples=800, seed=24)
        sweep = run_sweep(mult, [2.0], [0.0, 0.05, 0.1], [1e-2], 1.0,
                          1.0, cfg)
        noise = 3 * np.hypot(sweep.stderrs[1:], sweep.stderrs[:-1])
        assert np.all(np.diff(sweep.estimates) > -noise)

    def test_restrict_and_roundtrip(self, tmp_path, sine):
        cfg = SimulationConfig(dt=1e-2, n_samples=50, seed=25)
        sweep = run_sweep(sine, [0.5], [0.0, 0.01], [0.05, 0.1], 0.5,
                          1.0, cfg)
        sub = sweep.restrict(rho=0.01)
        assert len(sub) == 2
        assert np.all(sub.rhos == 0.01)
        path = tmp_path / "sweep.csv"
        sweep.write_csv(path)
        back = read_sweep(path)
        np.testing.assert_array_equal(back.epsilons, sweep.epsilons)
        np.testing.assert_array_equal(back.estimates, sweep.estimates)
        np.testing.assert_array_equal(back.seeds, sweep.seeds)
        assert back.r == sweep.r and back.n_samples == sweep.n_samples

    def test_empty_grid_rejected(self, sine):
        cfg = SimulationConfig(n_samples=10)
        with pytest.raises(ValueError, match="non-empty"):
            run_sweep(sine, [0.5], [], [0.1], 1.0, 1.0, cfg)

    def test_sweep_cells_rho_major_with_cell_seeds(self):
        cfg = SimulationConfig(n_samples=7, seed=5)
        cells = sweep_cells([0.5], [0.0, 0.1], [0.01, 0.02, 0.03], cfg)
        assert [(c.epsilon, c.init.rho) for c in cells] == [
            (e, r) for r in (0.0, 0.1) for e in (0.01, 0.02, 0.03)]
        assert [c.seed for c in cells] == [
            _cell_seed(5, i, j) for j in range(2) for i in range(3)]
        assert all(c.n == 7 for c in cells)
        assert cells[0].init.kind == "fixed"
        assert cells[3].init.kind == "gaussian"
        assert cells[4].label == "sweep cell (epsilon=0.02, rho=0.1)"

    def test_negative_order_rejected_before_sampling(self, monkeypatch,
                                                     sine):
        monkeypatch.setattr(sampling, "solve_flow", None)
        with pytest.raises(ValueError, match="non-negative"):
            run_sweep(sine, [0.5], [0.0], [0.1], 1.0, [1.0, -1.0],
                      SimulationConfig(n_samples=10))
        assert moment_orders(2) == [2.0]
        assert moment_orders([1, 0.5]) == [1.0, 0.5]

    @pytest.mark.parametrize("order", [math.nan, math.inf])
    def test_nonfinite_order_rejected_before_sampling(self, monkeypatch,
                                                      sine, order):
        # moment_orders(nan) used to return [nan]
        monkeypatch.setattr(sampling, "solve_flow", None)
        with pytest.raises(ValueError, match="finite"):
            run_sweep(sine, [0.5], [0.0], [0.1], 1.0, [1.0, order],
                      SimulationConfig(n_samples=10))

    def test_cell_failure_annotated(self):
        model = builtin_model("linear_multiplicative")
        cfg = SimulationConfig(dt=1e-3, n_samples=20, seed=26)
        with pytest.raises(ValueError, match="epsilon=-1"):
            run_sweep(model, [2.0], [0.0], [-1.0], 1.0, 1.0, cfg)

    @pytest.mark.parametrize("name,scheme,mean,rhos", [
        ("sine", "euler_maruyama", [0.5], [0.0, 0.05]),
        ("linear_multiplicative", "milstein_1d", [2.0], [0.0, 0.05]),
        ("meandering_jet", "euler_maruyama", [0.0, 1.0], [0.0, 0.02, 0.05]),
    ])
    def test_cells_match_per_cell_sampling(self, monkeypatch, name, scheme,
                                           mean, rhos):
        # cells of 11 samples straddle chunks of 7; 33 steps straddle
        # noise blocks of 5
        model = builtin_model(name)
        eps_grid, t = [0.02, 0.1], 0.33
        cfg = SimulationConfig(dt=1e-2, n_samples=11, seed=27, scheme=scheme)
        alone = []
        for j, rho in enumerate(rhos):
            init = InitialCondition.fixed(mean) if rho == 0 \
                else InitialCondition.gaussian(mean, rho=rho)
            for i, eps in enumerate(eps_grid):
                cell_cfg = SimulationConfig(dt=1e-2, n_samples=11,
                                            seed=_cell_seed(27, i, j),
                                            scheme=scheme)
                batch = sample_coupled(model, init, eps, t, cell_cfg)
                alone.append(np.linalg.norm(batch.y_samples - batch.l_samples,
                                            axis=1))
        monkeypatch.setattr(sampling, "CHUNK_SAMPLES", 7)
        monkeypatch.setattr(sampling, "BLOCK_STEPS", 5)
        sweep = run_sweep(model, mean, rhos, eps_grid, t, 2.0, cfg,
                          keep_distances=True)
        assert len(sweep.distances) == len(alone)
        for got, want in zip(sweep.distances, alone):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            sweep.estimates, [np.mean(d ** 2.0) for d in alone])

    def test_peak_memory_bounded_in_cells(self, mult):
        cfg = SimulationConfig(dt=1e-2, n_samples=300, seed=28)
        peaks = []
        for eps_grid, rho_grid in (([1e-2, 1e-1], [0.0, 0.1]),
                                   (np.geomspace(1e-3, 1e-1, 7),
                                    [0.0, 1e-3, 1e-2, 1e-1])):
            tracemalloc.start()
            try:
                run_sweep(mult, [2.0], rho_grid, eps_grid, 1.0, 1.0, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

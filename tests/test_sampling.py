import math
import tracemalloc

import numpy as np
import pytest
from conftest import linear_additive_law, model_and_point
from hypothesis import given, settings
from hypothesis import strategies as st

from linsde import sampling
from linsde.artifacts import write_record
from linsde.exceptions import BatchError, CovarianceError
from linsde.flow import solve_flow
from linsde.linearise import InitialCondition, linearised_distribution
from linsde.models import MODEL_NAMES, VectorFieldModel, builtin_model
from linsde.sampling import (Cell, SimulationConfig, read_batch, sample_cells,
                             sample_coupled)


def cubic_drift_model():
    base = builtin_model("sine")
    return VectorFieldModel(
        name="cubic", dim_state=1, dim_noise=1,
        drift=lambda x, t: np.asarray(x, dtype=float) ** 3,
        drift_gradient=lambda x, t: 3.0 * np.asarray(x, dtype=float)[..., None] ** 2,
        diffusion=base.diffusion, constants=base.constants)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(scheme="heun")
        with pytest.raises(ValueError):
            SimulationConfig(n_samples=0)
        with pytest.raises(ValueError, match="seed"):
            SimulationConfig(seed=-1)

    @pytest.mark.parametrize("option, value", [
        ("dt", math.nan), ("dt", math.inf), ("dt", True),
        ("n_samples", 2.5), ("n_samples", True), ("seed", 1.5),
        ("seed", False)])
    def test_rejects_nonfinite_and_non_integer_values(self, option, value):
        # these used to fail later, or (dt = inf) to run one silent step
        with pytest.raises(ValueError, match=option):
            SimulationConfig(**{option: value})

    def test_step_rounding(self):
        cfg = SimulationConfig(dt=1e-3)
        assert cfg.steps_for(1.5) == 1500
        assert cfg.steps_for(1e-5) == 1  # rounded up to one step


def initial_draws(init, n_samples, seed):
    """The sampler's initial states of samples 0, ..., n_samples - 1."""
    factor = sampling._initial_factor(init)
    return sampling._draw(init, factor, seed, 0, n_samples)[0]


class TestDrawInitial:
    def test_fixed_rows_identical(self):
        init = InitialCondition.fixed([0.5, -1.0])
        draws = initial_draws(init, 7, seed=1)
        assert draws.shape == (7, 2)
        assert np.all(draws == np.array([0.5, -1.0]))

    def test_gaussian_sample_mean(self):
        n, rho = 100_000, 0.1
        init = InitialCondition.gaussian([0.5], rho=rho)
        draws = initial_draws(init, n, seed=2)
        assert abs(draws.mean() - 0.5) < 4 * rho / math.sqrt(n)

    def test_gaussian_full_covariance(self):
        cov = np.array([[0.04, 0.015], [0.015, 0.09]])
        init = InitialCondition.gaussian([1.0, -1.0], covariance=cov)
        draws = initial_draws(init, 60_000, seed=3)
        got = np.cov(draws, rowvar=False)
        assert np.linalg.norm(got - cov) / np.linalg.norm(cov) < 0.03

    def test_zero_covariance_equals_fixed(self):
        gauss = InitialCondition.gaussian([0.7], rho=0.0)
        fixed = InitialCondition.fixed([0.7])
        np.testing.assert_array_equal(initial_draws(gauss, 5, seed=4),
                                      initial_draws(fixed, 5, seed=4))

    def test_non_psd_rejected(self):
        init = InitialCondition.gaussian(
            [0.0, 0.0], covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(CovarianceError):
            initial_draws(init, 3, seed=0)

    def test_seed_and_index_stability(self):
        init = InitialCondition.gaussian([0.0], rho=1.0)
        a = initial_draws(init, 10, seed=11)
        b = initial_draws(init, 10, seed=11)
        np.testing.assert_array_equal(a, b)
        # per-index streams: a longer batch extends, never reshuffles
        c = initial_draws(init, 20, seed=11)
        np.testing.assert_array_equal(c[:10], a)


def stream_key(seed, index):
    """The Philox key of sample ``index``'s stream, by its definition: the
    index and the one word hashed from the seed."""
    word = np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]
    return np.array([index, word], dtype=np.uint64)


def keyed_stream(seed, index):
    return np.random.Generator(np.random.Philox(key=stream_key(seed, index)))


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
                                      2 ** 130 + 7])
    def test_keys_are_index_and_seed_word(self, seed):
        for start, size in ((0, 2048), (2 ** 32 - 2, 4)):
            want = [stream_key(seed, i) for i in range(start, start + size)]
            got = sampling._stream_keys(seed, start, size)
            assert got.dtype == np.uint64
            np.testing.assert_array_equal(got, want)

    def test_keyed_stream_equals_philox_keyed_stream(self):
        for seed in (0, 1, 2 ** 64 - 1, 2 ** 130 + 7):
            for start in (0, 2 ** 32 - 2):
                key = sampling._stream_keys(seed, start, 1)[0]
                keyed = np.random.Generator(
                    np.random.Philox(seed=sampling._Key(key)))
                np.testing.assert_array_equal(
                    keyed.standard_normal(1000),
                    keyed_stream(seed, start).standard_normal(1000))


def stepped_linearisation(model, init, eps, t, cfg):
    """Terminal linearised samples stepped one Euler-Maruyama step at a
    time along the reference, on the sampler's initial draws and
    increments."""
    steps = cfg.steps_for(t)
    h = t / steps
    tgrid = np.linspace(0.0, t, steps + 1)
    ref = solve_flow(model, init.reference_point, tgrid, tol=1e-8,
                     with_gradient=False)[0]
    u_ref = model.drift(ref[:-1], tgrid[:-1])
    jac_ref = model.drift_gradient(ref[:-1], tgrid[:-1])
    sig_ref = model.diffusion(ref[:-1], tgrid[:-1])
    l = initial_draws(init, cfg.n_samples, cfg.seed)
    skip = 0 if sampling._initial_factor(init) is None else init.dim
    dw = np.empty((cfg.n_samples, steps, model.dim_noise))
    for i in range(cfg.n_samples):
        rng = keyed_stream(cfg.seed, i)
        rng.standard_normal(skip)
        rng.standard_normal(out=dw[i])
    dw *= np.sqrt(h)
    for k in range(steps):
        drift_l = u_ref[k] + (l - ref[k]) @ jac_ref[k].T
        l += drift_l * h + eps * dw[:, k] @ sig_ref[k].T
    return l


def batched_product_pairs(model, init, eps, t, cfg):
    """Terminal (y, l) of the coupled sampler with each step's noise terms
    as batched products: ``einsum`` for the nonlinear noise term, ``dw @
    gain`` for the linearised sum, and a per-sample ``factor @ z`` for the
    initial offsets."""
    n, m = model.dim_state, model.dim_noise
    steps = cfg.steps_for(t)
    h = t / steps
    tgrid = np.linspace(0.0, t, steps + 1)
    ref = solve_flow(model, init.reference_point, tgrid, tol=1e-8,
                     with_gradient=False)[0]
    u_ref = model.drift(ref[:-1], tgrid[:-1])
    jac_ref = model.drift_gradient(ref[:-1], tgrid[:-1])
    sig_ref = model.diffusion(ref[:-1], tgrid[:-1])
    prop = np.empty((steps + 1, n, n))
    prop[steps] = np.eye(n)
    for k in range(steps - 1, -1, -1):
        prop[k] = prop[k + 1] + h * prop[k + 1] @ jac_ref[k]
    gain_t = np.swapaxes(prop[1:] @ sig_ref, 1, 2).copy()
    resid = ref[:-1] + h * u_ref - ref[1:]
    l_base = ref[-1] + np.einsum("kij,kj->i", prop[1:], resid)

    size = cfg.n_samples
    rngs = [np.random.Generator(np.random.Philox(seed=sampling._Key(key)))
            for key in sampling._stream_keys(cfg.seed, 0, size)]
    x_init = np.tile(init.mean, (size, 1))
    factor = sampling._initial_factor(init)
    if factor is not None:
        for i, rng in enumerate(rngs):
            x_init[i] += factor @ rng.standard_normal(init.dim)
    dw_all = np.empty((size, steps, m))
    for rng, rows in zip(rngs, dw_all):
        rng.standard_normal(out=rows)
    dw_all *= np.sqrt(h)

    y = x_init.copy()
    acc = np.zeros((size, n))
    for k in range(steps):
        dw = dw_all[:, k]
        sig_y = model.diffusion(y, tgrid[k])
        y_step = model.drift(y, tgrid[k]) * h \
            + eps * np.einsum("sij,sj->si", sig_y, dw)
        if cfg.scheme == "milstein_1d":
            s_der = model.diffusion_gradient(y, tgrid[k])[:, 0, 0, 0]
            y_step[:, 0] += 0.5 * eps ** 2 * sig_y[:, 0, 0] * s_der \
                * (dw[:, 0] ** 2 - h)
        acc += dw @ gain_t[k]
        y += y_step
    l = l_base + (x_init - ref[0]) @ prop[0].T + eps * acc
    return y, l


class TestCoupledSampling:
    @pytest.mark.parametrize("name, scheme", [
        *((name, "euler_maruyama") for name in MODEL_NAMES),
        *((name, "milstein_1d") for name in ("sine", "linear_multiplicative",
                                             "ornstein_uhlenbeck",
                                             "brownian"))])
    @pytest.mark.parametrize("gaussian", [False, True])
    def test_column_products_match_batched_products(self, name, scheme,
                                                    gaussian):
        # the sums over noise columns run in the same order as the batched
        # products', so y is bitwise equal for up to two noise columns, as
        # is l for one; the linearised sum over two columns rounds apart
        model, point = model_and_point(name)
        init = InitialCondition.gaussian(point, rho=0.05) if gaussian \
            else InitialCondition.fixed(point)
        cfg = SimulationConfig(dt=1e-2, n_samples=600, seed=29,
                               scheme=scheme)
        batch = sample_coupled(model, init, 0.1, 1.0, cfg)
        y, l = batched_product_pairs(model, init, 0.1, 1.0, cfg)
        assert batch.n_flagged == 0
        np.testing.assert_array_equal(batch.y_samples, y)
        if model.dim_noise == 1:
            np.testing.assert_array_equal(batch.l_samples, l)
        else:
            assert np.abs(batch.l_samples - l).max() \
                <= 1e-14 * np.abs(l).max()

    @pytest.mark.parametrize("name,scheme,init,eps,t", [
        ("sine", "euler_maruyama", InitialCondition.gaussian([0.5], rho=0.05),
         0.1, 1.5),
        ("linear_multiplicative", "milstein_1d",
         InitialCondition.gaussian([2.0], rho=0.05), 0.1, 1.0),
        ("meandering_jet", "euler_maruyama",
         InitialCondition.gaussian([0.3, 1.1], rho=0.05), 0.05, 3.0)])
    def test_linearised_samples_match_stepped_recursion(self, name, scheme,
                                                        init, eps, t):
        # the propagator form sums the same affine recursion in another
        # order, so it agrees with the stepped one to rounding error
        model = builtin_model(name)
        cfg = SimulationConfig(dt=1e-3, n_samples=64, seed=17, scheme=scheme)
        batch = sample_coupled(model, init, eps, t, cfg)
        want = stepped_linearisation(model, init, eps, t, cfg)
        assert batch.n_flagged == 0
        scale = np.abs(want).max()
        assert np.abs(batch.l_samples - want).max() <= 1e-12 * scale

    def test_seed_determinism(self, sine):
        cfg = SimulationConfig(dt=1e-3, n_samples=64, seed=123)
        init = InitialCondition.gaussian([0.5], rho=0.05)
        a = sample_coupled(sine, init, 0.05, 1.0, cfg)
        b = sample_coupled(sine, init, 0.05, 1.0, cfg)
        np.testing.assert_array_equal(a.y_samples, b.y_samples)
        np.testing.assert_array_equal(a.l_samples, b.l_samples)

    def test_noise_blocks_do_not_change_samples(self, jet, monkeypatch):
        cfg = SimulationConfig(dt=1e-2, n_samples=20, seed=8)
        init = InitialCondition.gaussian([0.0, 1.0], rho=0.05)
        whole = sample_coupled(jet, init, 0.05, 1.0, cfg)
        monkeypatch.setattr(sampling, "BLOCK_STEPS", 7)
        blocks = sample_coupled(jet, init, 0.05, 1.0, cfg)
        np.testing.assert_array_equal(blocks.y_samples, whole.y_samples)
        np.testing.assert_array_equal(blocks.l_samples, whole.l_samples)

    def test_peak_memory_bounded_in_horizon(self, ou):
        cfg = SimulationConfig(dt=1e-3, n_samples=2048, seed=9)
        init = InitialCondition.fixed([1.0])
        peaks = []
        for t in (1.0, 4.0):
            tracemalloc.start()
            try:
                sample_coupled(ou, init, 0.1, t, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_linear_additive_paths_coincide(self, linadd):
        # linear drift + additive noise: both discretisations apply the
        # same affine update, so paths agree to rounding error
        cfg = SimulationConfig(dt=1e-3, n_samples=100, seed=5)
        batch = sample_coupled(linadd, InitialCondition.fixed([0.3, -0.4]),
                               0.1, 1.0, cfg)
        dist = np.linalg.norm(batch.y_samples - batch.l_samples, axis=1)
        assert dist.max() <= 10 * cfg.dt

    def test_zero_noise_reduces_to_deterministic(self, sine):
        cfg = SimulationConfig(dt=1e-3, n_samples=4, seed=6)
        batch = sample_coupled(sine, InitialCondition.fixed([0.5]), 0.0,
                               1.5, cfg)
        target = solve_flow(sine, [0.5], 1.5)[0]
        assert np.abs(batch.y_samples - target).max() <= 10 * cfg.dt
        assert np.abs(batch.l_samples - target).max() <= 10 * cfg.dt
        assert np.abs(batch.y_samples - batch.l_samples).max() <= 10 * cfg.dt

    def test_linearised_samples_match_gaussian_law(self, sine):
        # empirical moments of the linearised samples converge to the
        # closed-form law: N = 1e4 gives 5/sqrt(N) = 5% headroom
        n = 10_000
        eps, t = 0.05, 1.5
        init = InitialCondition.gaussian([0.5], rho=0.02)
        cfg = SimulationConfig(dt=1e-3, n_samples=n, seed=7)
        batch = sample_coupled(sine, init, eps, t, cfg)
        law = linearised_distribution(sine, init, t, eps)
        cov = np.cov(batch.l_samples, rowvar=False).reshape(1, 1)
        rel = np.linalg.norm(cov - law.covariance) / np.linalg.norm(law.covariance)
        assert rel <= 5.0 / math.sqrt(n)
        mean_err = np.linalg.norm(batch.l_samples.mean(axis=0) - law.mean)
        assert mean_err <= 5.0 * math.sqrt(law.covariance.max()) / math.sqrt(n)

    def test_scheme_refinement_within_noise(self, sine):
        # halving dt moves E_1 by less than the Monte-Carlo noise
        init = InitialCondition.fixed([0.5])
        eps, t, n = 1e-2, 1.5, 3000
        est = {}
        for dt in (1e-3, 5e-4):
            cfg = SimulationConfig(dt=dt, n_samples=n, seed=8)
            batch = sample_coupled(sine, init, eps, t, cfg)
            d = np.linalg.norm(batch.y_samples - batch.l_samples, axis=1)
            est[dt] = (d.mean(), d.std(ddof=1) / math.sqrt(n))
        diff = abs(est[1e-3][0] - est[5e-4][0])
        noise = math.hypot(est[1e-3][1], est[5e-4][1])
        assert diff <= 3 * noise

    def test_milstein_equals_euler_for_additive_noise(self, sine):
        init = InitialCondition.fixed([0.5])
        em = sample_coupled(sine, init, 0.1, 1.0,
                            SimulationConfig(dt=1e-3, n_samples=32, seed=9))
        mil = sample_coupled(sine, init, 0.1, 1.0,
                             SimulationConfig(dt=1e-3, n_samples=32, seed=9,
                                              scheme="milstein_1d"))
        np.testing.assert_array_equal(em.y_samples, mil.y_samples)
        np.testing.assert_array_equal(em.l_samples, mil.l_samples)

    def test_milstein_multiplicative_close_to_euler(self, mult):
        init = InitialCondition.fixed([2.0])
        cfg_em = SimulationConfig(dt=1e-3, n_samples=500, seed=10)
        cfg_mil = SimulationConfig(dt=1e-3, n_samples=500, seed=10,
                                   scheme="milstein_1d")
        em = sample_coupled(mult, init, 0.05, 1.0, cfg_em)
        mil = sample_coupled(mult, init, 0.05, 1.0, cfg_mil)
        # same Wiener increments, so the correction is the only difference
        assert not np.array_equal(em.y_samples, mil.y_samples)
        np.testing.assert_array_equal(em.l_samples, mil.l_samples)
        assert np.abs(em.y_samples - mil.y_samples).max() < 1e-3

    def test_milstein_requires_1d(self, jet):
        cfg = SimulationConfig(dt=1e-3, n_samples=4, seed=0,
                               scheme="milstein_1d")
        with pytest.raises(ValueError, match="1-D"):
            sample_coupled(jet, InitialCondition.fixed([0.0, 1.0]), 0.1,
                           1.0, cfg)

    def test_flagged_samples_excluded_and_counted(self):
        # cubic drift blows up for |x| > 1/sqrt(2) by t = 1; with
        # rho = 0.25 about 0.5% of draws escape, below the 1% abort line
        model = cubic_drift_model()
        init = InitialCondition.gaussian([0.0], rho=0.25)
        cfg = SimulationConfig(dt=1e-3, n_samples=2000, seed=12)
        batch = sample_coupled(model, init, 0.0, 1.0, cfg)
        assert batch.n_flagged > 0
        assert len(batch) == cfg.n_samples - batch.n_flagged
        assert np.all(np.isfinite(batch.y_samples))

    def test_flag_rate_above_threshold_aborts(self):
        model = cubic_drift_model()
        init = InitialCondition.gaussian([0.0], rho=0.35)
        cfg = SimulationConfig(dt=1e-3, n_samples=2000, seed=13)
        with pytest.raises(BatchError):
            sample_coupled(model, init, 0.0, 1.0, cfg)

    def test_flags_counted_and_limited_per_cell(self):
        # the rho = 0.35 cell flags more than 1% of its samples; pooled with
        # three clean cells the share would stay below 1%
        model = cubic_drift_model()
        cfg = SimulationConfig(dt=1e-3, n_samples=1000, seed=13)
        mild = InitialCondition.gaussian([0.0], rho=0.25)
        wild = InitialCondition.gaussian([0.0], rho=0.35)
        clean = InitialCondition.fixed([0.0])
        cells = [Cell(mild, 0.0, 12, 2000), Cell(clean, 0.0, 5, 1000)]
        mixed = sample_cells(model, cells, 1.0, cfg)
        alone = sample_coupled(model, mild, 0.0, 1.0,
                               SimulationConfig(dt=1e-3, n_samples=2000,
                                                seed=12))
        assert mixed[0].n_flagged == alone.n_flagged > 0
        assert mixed[1].n_flagged == 0 and len(mixed[1]) == 1000
        np.testing.assert_array_equal(mixed[0].y_samples, alone.y_samples)
        cells = [Cell(clean, 0.0, s, 1000) for s in range(3)] \
            + [Cell(wild, 0.0, 13, 1000, "wild cell")]
        with pytest.raises(BatchError, match="^wild cell: .* of 1000 "):
            sample_cells(model, cells, 1.0, cfg)

    def test_cells_checked_before_any_solve(self, monkeypatch, sine):
        monkeypatch.setattr(sampling, "solve_flow", None)
        cfg = SimulationConfig(dt=1e-2)
        bad = [([Cell(InitialCondition.fixed([0.5, 1.0]), 0.1, 0, 4)],
                "dimension"),
               ([Cell(InitialCondition.fixed([0.5]), -0.1, 0, 4, "c")],
                "^c: epsilon"),
               ([Cell(InitialCondition.fixed([0.5]), math.nan, 0, 4, "c")],
                "^c: epsilon"),
               *(([Cell(InitialCondition.fixed([0.5]), 0.1, 0, n, "c")],
                  "^c: n must be a positive integer") for n in (0, -3, 2.0)),
               *(([Cell(InitialCondition.fixed([0.5]), 0.1, seed, 4, "c")],
                  "^c: seed must be a non-negative integer")
                 for seed in (-1, 1.5)),
               ([], "no cells")]
        for cells, message in bad:
            with pytest.raises(ValueError, match=message):
                sampling.check_cells(sine, cells, 1.0, cfg)
            with pytest.raises(ValueError, match=message):
                sample_cells(sine, cells, 1.0, cfg)
        cells = [Cell(InitialCondition.fixed([0.5]), 0.1, 0, 4)]
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                sampling.check_cells(sine, cells, t, cfg)

    def test_cells_share_reference_point(self, sine):
        cells = [Cell(InitialCondition.fixed([0.5]), 0.1, 0, 4),
                 Cell(InitialCondition.fixed([0.6]), 0.1, 1, 4, "second")]
        with pytest.raises(ValueError, match="^second: .*reference point"):
            sample_cells(sine, cells, 1.0, SimulationConfig(dt=1e-2))


def linear_additive_cells(rng, n, m, size):
    """A random linear-additive model (A scaled normal, stable or not) and
    two cells at different noise scales, with Gaussian starts of random
    covariance whose means are offset from the reference point."""
    model = builtin_model("linear_additive",
                          a_matrix=rng.standard_normal((n, n)) / math.sqrt(n),
                          b_vector=rng.standard_normal(n),
                          sigma_matrix=rng.standard_normal((n, m)))
    x0 = rng.standard_normal(n)
    cells = []
    for seed, eps in enumerate((0.05, 0.3)):
        root = rng.standard_normal((n, n))
        init = InitialCondition.gaussian(
            x0 + 0.1 * rng.standard_normal(n),
            covariance=0.01 * root @ root.T / n, reference_point=x0)
        cells.append(Cell(init, eps, seed, size))
    return model, cells


#: bound on max |y - l| relative to max |y|; over the examples below the
#: worst is 1.3e-15
PATH_BOUND = 1e-12


@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_random_linear_additive_paths_coincide(n, m, seed):
    # the linearisation of an affine drift with additive noise is exact, so
    # the two schemes take the same steps and differ by rounding only
    rng = np.random.default_rng(seed)
    model, cells = linear_additive_cells(rng, n, m, 64)
    t = rng.uniform(0.2, 2.0)
    for batch in sample_cells(model, cells, t, SimulationConfig(dt=1e-2)):
        y, l = batch.y_samples, batch.l_samples
        assert batch.n_flagged == 0
        assert np.max(np.abs(y - l)) <= PATH_BOUND * np.max(np.abs(y))


def test_random_linear_additive_sampled_law():
    # each cell's l follows the law of the Euler scheme, within O(dt) of the
    # exact law: every mean and covariance entry is within 5 standard errors
    # of it (at most 2.5 and 3.7 here). The covariance is nearly rank one for
    # eps = 0.3, so a relative norm bound of 5/sqrt(N) would be only 3.5
    # standard errors of its top variance.
    size, t = 4000, 1.0
    model, cells = linear_additive_cells(np.random.default_rng(5), 3, 2, size)
    a, b, sigma = (np.array(model.params[key]) for key in
                   ("a_matrix", "b_vector", "sigma_matrix"))
    batches = sample_cells(model, cells, t, SimulationConfig(dt=2e-3))
    for cell, batch in zip(cells, batches):
        mean, cov = linear_additive_law(a, b, sigma, cell.init.mean,
                                        cell.init.covariance, cell.epsilon, t)
        l, var = batch.l_samples, np.diag(cov)
        assert np.all(np.abs(l.mean(axis=0) - mean)
                      <= 5.0 * np.sqrt(var / size))
        assert np.all(np.abs(np.cov(l, rowvar=False) - cov)
                      <= 5.0 * np.sqrt((np.outer(var, var) + cov ** 2) / size))


class TestBatchSerialisation:
    def test_csv_roundtrip(self, tmp_path, jet):
        cfg = SimulationConfig(dt=1e-2, n_samples=25, seed=15)
        batch = sample_coupled(jet, InitialCondition.fixed([0.0, 1.0]),
                               0.05, 0.5, cfg)
        csv = tmp_path / "batch.csv"
        meta = tmp_path / "batch.json"
        batch.write_csv(csv)
        write_record(meta, batch.sidecar())
        back = read_batch(csv, meta)
        np.testing.assert_array_equal(back.y_samples, batch.y_samples)
        np.testing.assert_array_equal(back.l_samples, batch.l_samples)
        assert back.epsilon == batch.epsilon
        assert back.config == batch.config
        assert back.t == batch.t == 0.5
        assert back.model_name == "meandering_jet"

    def test_batch_requires_finite(self):
        from linsde.sampling import SamplePairBatch
        with pytest.raises(ValueError):
            SamplePairBatch(np.array([[np.nan]]), np.array([[0.0]]),
                            0.1, 0.0, SimulationConfig(), 1.0)

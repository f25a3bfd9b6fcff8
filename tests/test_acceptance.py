"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria that share expensive Monte-Carlo sweeps reuse module-scoped
fixtures; every tolerance is stated inline. Run with ``pytest -v
tests/test_acceptance.py`` (add ``-s`` to see the printed measurements).
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gamma

from linsde.bounds import (bound_rhs, estimate_constants,
                           gaussian_delta_bound, moment_constant)
from linsde.linearise import (InitialCondition, covariance_by_quadrature,
                              linearised_distribution)
from linsde.models import builtin_model
from linsde.sampling import SimulationConfig, sample_coupled
from linsde.scaling import fit_scaling, rho_curvature_interval, run_sweep
from linsde.sensitivity import GridSpec, s2_field, s2_point

SEED = 20240809


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def sine_sweep():
    """Criterion 4 sweep, reused by criterion 9 (timed)."""
    eps_grid = list(10 ** np.linspace(-2.5, -1.0, 6))
    cfg = SimulationConfig(dt=1e-3, n_samples=5000, seed=SEED)
    start = time.perf_counter()
    sweep = run_sweep(builtin_model("sine"), [0.5], [0.0, 0.01], eps_grid,
                      1.5, 1.0, cfg)
    return sweep, eps_grid, time.perf_counter() - start


@pytest.fixture(scope="module")
def mult_sweep():
    """Criterion 6 sweep on the default grids, reused by criterion 9 (timed)."""
    eps_grid = list(10 ** np.linspace(-3.0, -1.0, 7))
    rho_grid = [0.0, 1e-3, 1e-2, 1e-1]
    cfg = SimulationConfig(dt=1e-3, n_samples=5000, seed=SEED)
    start = time.perf_counter()
    sweep = run_sweep(builtin_model("linear_multiplicative"), [2.0],
                      rho_grid, eps_grid, 1.0, 1.0, cfg,
                      keep_distances=True)
    return sweep, eps_grid, rho_grid, time.perf_counter() - start


def test_c01_exact_linearisation_oracle():
    # linear drift plus additive noise: the coupled discretisations apply
    # identical updates, so the pathwise gap is pure rounding error
    start = time.perf_counter()
    model = builtin_model("linear_additive")
    cfg = SimulationConfig(dt=1e-3, n_samples=1000, seed=SEED)
    batch = sample_coupled(model, InitialCondition.fixed([0.3, -0.4]),
                           0.1, 1.0, cfg)
    dist = np.linalg.norm(batch.y_samples - batch.l_samples, axis=1)
    elapsed = time.perf_counter() - start
    ok = dist.max() <= 1e-2 and dist.mean() <= 1e-3 and elapsed < 30
    assert report(1, ok,
                  f"max|y-l|={dist.max():.3g} (<=1e-2), "
                  f"E1={dist.mean():.3g} (<=1e-3), {elapsed:.1f}s (<30s)")


def test_c02_covariance_cross_check():
    start = time.perf_counter()
    cases = [("sine", {}, [0.5]), ("linear_multiplicative", {}, [2.0]),
             ("meandering_jet", {}, [0.0, 1.0]),
             ("ornstein_uhlenbeck", {}, [1.0]), ("brownian", {}, [0.2]),
             ("linear_additive", {}, [0.3, -0.4])]
    worst = 0.0
    for name, params, x0 in cases:
        model = builtin_model(name, **params)
        for t in (0.25, 0.5, 1.0):
            ode = linearised_distribution(model, InitialCondition.fixed(x0),
                                          t, epsilon=1.0).covariance
            quad = covariance_by_quadrature(model, x0, t)
            rel = np.linalg.norm(ode - quad) / max(np.linalg.norm(ode), 1e-300)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30
    assert report(2, ok, f"worst relative Frobenius error {worst:.3g} "
                         f"(<=1e-6) over 6 models x 3 horizons, "
                         f"{elapsed:.1f}s (<30s)")


def test_c03_analytic_values():
    start = time.perf_counter()
    s2 = s2_point(builtin_model("ornstein_uhlenbeck", a=1.0), [1.0], 1.0)
    s2_err = abs(s2 - (1.0 - math.exp(-2.0)) / 2.0)
    moment_err = 0.0
    for r in (1.0, 2.0, 3.0, 4.0):
        independent = 2 ** (r / 2) * float(gamma((r + 1) / 2)) \
            / math.sqrt(math.pi)
        moment_err = max(moment_err, abs(moment_constant(r) - independent))
    closed = {1.0: math.sqrt(2 / math.pi), 2.0: 1.0,
              3.0: 2.0 * math.sqrt(2 / math.pi)}
    for r, val in closed.items():
        moment_err = max(moment_err, abs(moment_constant(r) - val))
    elapsed = time.perf_counter() - start
    ok = s2_err <= 1e-8 and moment_err <= 1e-12 and elapsed < 1.0
    assert report(3, ok, f"|s2 - analytic|={s2_err:.2g} (<=1e-8), "
                         f"max moment error {moment_err:.2g} (<=1e-12), "
                         f"{elapsed:.2f}s (<1s)")


def test_c04_sine_epsilon_scaling(sine_sweep):
    sweep, eps_grid, sweep_time = sine_sweep
    start = time.perf_counter()
    r2 = {rho: fit_scaling(sweep.restrict(rho=rho),
                           "const_plus_eps2").r_squared
          for rho in (0.0, 0.01)}
    zero = sweep.restrict(rho=0.0)
    order = np.argsort(zero.epsilons)
    ratio = zero.estimates[order][1] / zero.estimates[order][0]
    elapsed = sweep_time + time.perf_counter() - start
    ok = all(v >= 0.99 for v in r2.values()) and 3.3 <= ratio <= 4.7 \
        and elapsed < 180
    assert report(4, ok,
                  f"R2={r2[0.0]:.5f}/{r2[0.01]:.5f} (>=0.99), "
                  f"E1 ratio at two smallest eps {ratio:.2f} (in [3.3,4.7]), "
                  f"{elapsed:.1f}s (<180s)")


def test_c05_sine_rho_scaling():
    start = time.perf_counter()
    cfg = SimulationConfig(dt=1e-3, n_samples=5000, seed=SEED)
    sweep = run_sweep(builtin_model("sine"), [0.5],
                      [0.01, 0.02, 0.04, 0.08], [1e-2], 1.5, 1.0, cfg)
    fit = fit_scaling(sweep, "const_plus_rho2")
    elapsed = time.perf_counter() - start
    ok = fit.r_squared >= 0.99 and elapsed < 120
    assert report(5, ok, f"R2={fit.r_squared:.5f} (>=0.99) for "
                         f"quadratic growth in rho, {elapsed:.1f}s (<120s)")


def test_c06_multiplicative_scaling_fits(mult_sweep):
    sweep, eps_grid, rho_grid, sweep_time = mult_sweep
    start = time.perf_counter()
    eps_r2 = [fit_scaling(sweep.restrict(rho=rho), "eps_plus_eps2").r_squared
              for rho in rho_grid]
    rho_fit = fit_scaling(sweep.restrict(epsilon=1e-2), "const_plus_rho")
    elapsed = sweep_time + time.perf_counter() - start
    ok = all(v >= 0.99 for v in eps_r2) and rho_fit.r_squared >= 0.99 \
        and elapsed < 180
    assert report(6, ok,
                  f"eps-fit R2 min {min(eps_r2):.5f} (>=0.99 per rho), "
                  f"rho-fit R2 {rho_fit.r_squared:.5f} (>=0.99), "
                  f"{elapsed:.1f}s (<180s)")


def test_c06_multiplicative_no_significant_curvature(mult_sweep):
    # Literal sub-criterion: the 95% bootstrap interval for the quadratic
    # coefficient of E_1(rho) should contain 0. It does not: the terminal
    # reference point 2 e^{1/2} ~ 3.2974 lies near a zero of the diffusion
    # derivative (|sigma'(F)| ~ 0.155) while |sigma''(F)| ~ 0.988, so the
    # second-order remainder contributes a genuine convex-in-rho component
    # (~20% of the rho-increment at rho = 0.1) that is resolved at any
    # practical sample size; it is scheme- and step-independent.
    sweep, _, _, _ = mult_sweep
    sub = sweep.restrict(epsilon=1e-2)
    coef, lo, hi = rho_curvature_interval(sub, n_boot=1000, seed=SEED)
    contains_zero = lo <= 0.0 <= hi
    report("6-curvature", contains_zero,
           f"quadratic coefficient {coef:.3g}, 95% bootstrap CI "
           f"[{lo:.3g}, {hi:.3g}] {'contains' if contains_zero else 'excludes'} 0")
    assert contains_zero, (
        "E_1(rho) at fixed eps carries a genuine convex component for this "
        "model at these grids, so the literal no-curvature check cannot "
        "pass; the growth is nonetheless linear to leading order (the "
        "linear fit above exceeds R2 = 0.99)")


def test_c07_jet_moment_slopes():
    start = time.perf_counter()
    eps_grid = [10 ** -1, 10 ** -1.5, 10 ** -2, 10 ** -2.5]
    cfg = SimulationConfig(dt=1e-3, n_samples=2000, seed=SEED)
    sweeps = run_sweep(builtin_model("meandering_jet"), [0.0, 1.0], [0.0],
                       eps_grid, 1.0, [1.0, 2.0, 3.0, 4.0], cfg)
    slopes = {s.r: fit_scaling(s, "loglog_line").slope for s in sweeps}
    elapsed = time.perf_counter() - start
    ok = slopes[1.0] >= 2.0 - 0.3 and slopes[2.0] >= 4.0 - 0.3 \
        and elapsed < 300
    assert report(7, ok,
                  f"log-log slopes r=1: {slopes[1.0]:.2f} (>=1.7), "
                  f"r=2: {slopes[2.0]:.2f} (>=3.7); ungated r=3: "
                  f"{slopes[3.0]:.2f}, r=4: {slopes[4.0]:.2f}; "
                  f"{elapsed:.1f}s (<300s)")


def test_c08_linearised_law_sampling_consistency():
    start = time.perf_counter()
    model = builtin_model("meandering_jet")
    init = InitialCondition.fixed([0.0, 1.0])
    n, eps, t = 10_000, 1e-2, 1.0
    cfg = SimulationConfig(dt=1e-3, n_samples=n, seed=SEED)
    batch = sample_coupled(model, init, eps, t, cfg)
    law = linearised_distribution(model, init, t, eps)
    sample_cov = np.cov(batch.l_samples, rowvar=False)
    rel = np.linalg.norm(sample_cov - law.covariance) \
        / np.linalg.norm(law.covariance)
    elapsed = time.perf_counter() - start
    ok = rel <= 5.0 / math.sqrt(n) and elapsed < 120
    assert report(8, ok, f"covariance relative Frobenius error {rel:.4f} "
                         f"(<= {5.0 / math.sqrt(n):.3f}), "
                         f"{elapsed:.1f}s (<120s)")


def test_c09_bound_dominates_measured_error(sine_sweep, mult_sweep):
    sweeps = {
        "sine": (sine_sweep[0], builtin_model("sine"), 1.5),
        "linear_multiplicative": (mult_sweep[0],
                                  builtin_model("linear_multiplicative"), 1.0),
    }
    margins = {}
    for name, (sweep, model, t) in sweeps.items():
        constants = estimate_constants(model, seed=0)
        margin = np.inf
        for eps, rho, est in zip(sweep.epsilons, sweep.rhos,
                                 sweep.estimates):
            if rho > 0:
                cov0 = np.array([[rho ** 2]])
                d_r = gaussian_delta_bound(cov0, 1.0)
                d_2r = gaussian_delta_bound(cov0, 2.0)
            else:
                d_r = d_2r = 0.0
            total = bound_rhs(1.0, t, eps, d_r, d_2r, constants).total
            margin = min(margin, total / est)
        margins[name] = margin
    ok = all(m >= 1.0 for m in margins.values())
    assert report(9, ok,
                  "bound/measured E1 minimum ratio: "
                  + ", ".join(f"{k}={v:.3g}" for k, v in margins.items())
                  + " (one-sided, must be >= 1)")


def test_c10_s2_field_desk_scale():
    # the fixed-step positive-definite-preserving integrator is the
    # documented fast path for desk-scale fields; the adaptive per-node
    # default is cross-validated against it on a subgrid below
    model = builtin_model("meandering_jet")
    start = time.perf_counter()
    grid = GridSpec(((0.0, math.pi, 100), (0.0, math.pi, 100)))
    field = s2_field(model, grid, 1.0, workers=1, method="mazzoni")
    parallel = s2_field(model, grid, 1.0, workers=2, method="mazzoni")
    elapsed = time.perf_counter() - start
    identical = np.array_equal(field.values, parallel.values)
    sub = GridSpec(((0.0, math.pi, 12), (0.0, math.pi, 10)))
    sub_adaptive = s2_field(model, sub, 1.0, workers=2)
    adaptive_identical = np.array_equal(
        sub_adaptive.values, s2_field(model, sub, 1.0, workers=1).values)
    probe = [0, 2345, 5050, 7777, 9999]  # corners and interior nodes
    sub_vals = np.array([s2_point(model, grid.points()[k], 1.0, tol=1e-8)
                         for k in probe])
    probe_rel = np.max(np.abs(field.values[probe] - sub_vals) / sub_vals)
    finite = bool(np.all(np.isfinite(field.values)))
    positive = bool(np.all(field.values > 0))
    structured = field.values.max() / field.values.min() > 10
    ok = finite and positive and identical and adaptive_identical \
        and field.n_missing == 0 and structured and probe_rel < 1e-3 \
        and elapsed < 120
    assert report(10, ok,
                  f"100x100 field finite={finite}, positive={positive}, "
                  f"missing={field.n_missing}, worker-identical={identical} "
                  f"(adaptive subgrid: {adaptive_identical}), probe error "
                  f"vs adaptive {probe_rel:.2g}, dynamic range "
                  f"{field.values.max() / field.values.min():.1f}x, "
                  f"{elapsed:.1f}s (<120s)")

"""Strong-error estimation and scaling-law validation.

The strong error E_r is the Monte-Carlo average of the r-th power of the
pathwise Euclidean distance between coupled nonlinear and linearised
terminal samples. Sweeps evaluate E_r over a grid of noise scales
(epsilon) and initial-uncertainty scales (rho) with independently seeded
cells, and ordinary least squares in untransformed space (or on log-log
axes) verifies the predicted scaling forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _checks
from .artifacts import read_table, write_table
from .linearise import InitialCondition
from .sampling import Cell, SamplePairBatch, SimulationConfig, sample_cells

__all__ = ["strong_error", "moment_orders", "SweepResult", "sweep_cells",
           "run_sweep", "read_sweep",
           "ScalingFit", "check_basis", "fit_scaling",
           "bootstrap_coefficients",
           "rho_curvature_interval", "BASES"]


def strong_error(batch: SamplePairBatch, r: float) -> tuple[float, float]:
    """Monte-Carlo estimate of E||y - l||^r with its standard error.

    Returns (estimate, standard error); the standard error is the sample
    standard deviation of the per-path values divided by sqrt(N).
    """
    if len(batch) == 0:
        raise ValueError("cannot estimate the strong error of an empty batch")
    moment_orders(r)
    dist = np.linalg.norm(batch.y_samples - batch.l_samples, axis=1)
    return _estimate_from_distances(dist, r)


def moment_orders(r) -> list[float]:
    """One moment order or a sequence of them, as a list of floats; every
    order must be finite and non-negative."""
    return [float(_checks.at_least(o, "r"))
            for o in ([r] if np.ndim(r) == 0 else r)]


def _estimate_from_distances(dist: np.ndarray, r: float) -> tuple[float, float]:
    powered = dist ** r
    estimate = float(powered.mean())
    stderr = 0.0 if powered.size < 2 \
        else float(powered.std(ddof=1) / np.sqrt(powered.size))
    return estimate, stderr


@dataclass(frozen=True)
class SweepResult:
    """Strong-error estimates over a grid of (epsilon, rho) cells.

    ``epsilons``/``rhos``/``estimates``/``stderrs``/``seeds`` are parallel
    per-cell arrays. ``distances``, when retained, holds the per-cell raw
    pathwise distances and enables bootstrap refits.
    """

    epsilons: np.ndarray
    rhos: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    seeds: np.ndarray
    r: float
    n_samples: int
    distances: Optional[list] = field(default=None, repr=False)

    def __len__(self) -> int:
        return self.estimates.shape[0]

    def restrict(self, epsilon=None, rho=None) -> "SweepResult":
        """Sub-sweep with an axis pinned to a value (exact match)."""
        mask = np.ones(len(self), dtype=bool)
        if epsilon is not None:
            mask &= self.epsilons == epsilon
        if rho is not None:
            mask &= self.rhos == rho
        dist = None if self.distances is None \
            else [d for d, m in zip(self.distances, mask) if m]
        return SweepResult(self.epsilons[mask], self.rhos[mask],
                           self.estimates[mask], self.stderrs[mask],
                           self.seeds[mask], self.r, self.n_samples, dist)

    def write_csv(self, path) -> None:
        write_table(path, ["epsilon", "rho", "r", "estimate", "stderr", "n",
                           "seed"],
                    [self.epsilons, self.rhos, np.full(len(self), self.r),
                     self.estimates, self.stderrs,
                     np.full(len(self), self.n_samples), self.seeds])


def read_sweep(path) -> SweepResult:
    """Round-trip reader for the sweep CSV schema. ``r`` and ``n`` are read
    from the first row, so a sweep of no cells cannot be read back."""
    table = read_table(path)
    if not table["r"]:
        raise ValueError(f"{path}: the sweep has no cells, so its r and n "
                         "are not recorded")
    return SweepResult(*(np.array(table[k], dtype=float)
                         for k in ("epsilon", "rho", "estimate", "stderr")),
                       np.array(table["seed"], dtype=np.uint64),
                       float(table["r"][0]), int(table["n"][0]))


def _cell_seed(master: int, i_eps: int, j_rho: int) -> int:
    """Per-cell seed derived from the master seed; stable across runs."""
    seq = np.random.SeedSequence(entropy=master, spawn_key=(i_eps, j_rho))
    return int(seq.generate_state(1, np.uint64)[0])


def sweep_cells(mean, rho_values: Sequence[float],
                epsilon_values: Sequence[float],
                config: SimulationConfig) -> list[Cell]:
    """The cells of a sweep, rho-major: one per (epsilon, rho) pair.

    rho = 0 selects a fixed initial condition at ``mean``; rho > 0 a
    Gaussian with covariance rho^2 I about it. Each cell has its own seed
    derived from ``config.seed`` and the cell indices, so cells are
    independent and reproducible regardless of evaluation order.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    epsilon_values = [float(e) for e in epsilon_values]
    rho_values = [float(x) for x in rho_values]
    if not epsilon_values or not rho_values:
        raise ValueError("epsilon and rho grids must be non-empty")
    cells = []
    for j, rho in enumerate(rho_values):
        init = InitialCondition.fixed(mean) if rho == 0 \
            else InitialCondition.gaussian(mean, rho=rho)
        for i, eps in enumerate(epsilon_values):
            cells.append(Cell(init, eps, _cell_seed(config.seed, i, j),
                              config.n_samples,
                              f"sweep cell (epsilon={eps}, rho={rho})"))
    return cells


def run_sweep(model, mean, rho_values: Sequence[float],
              epsilon_values: Sequence[float], t: float, r,
              config: SimulationConfig, keep_distances: bool = False):
    """Coupled batch plus strong-error estimate for every cell of
    :func:`sweep_cells`.

    ``r`` may be a single moment order or a sequence of orders; a sequence
    returns one SweepResult per order, all sharing the same cell batches.
    """
    orders = moment_orders(r)
    scalar = np.ndim(r) == 0
    cells = sweep_cells(mean, rho_values, epsilon_values, config)
    batches = sample_cells(model, cells, t, config)
    dists = [np.linalg.norm(b.y_samples - b.l_samples, axis=1)
             for b in batches]
    results = []
    for o in orders:
        stats = np.array([_estimate_from_distances(d, o) for d in dists])
        results.append(SweepResult(
            np.asarray([c.epsilon for c in cells]),
            np.repeat(np.asarray(rho_values, dtype=float),
                      len(epsilon_values)),
            stats[:, 0], stats[:, 1],
            np.asarray([c.seed for c in cells], dtype=np.uint64), o,
            config.n_samples, dists if keep_distances else None))
    return results[0] if scalar else results


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of a scaling form to sweep estimates."""

    basis: str
    coefficients: tuple
    r_squared: float
    slope: Optional[float] = None

    def to_json(self) -> dict:
        return {"basis": self.basis,
                "coefficients": list(self.coefficients),
                "r_squared": self.r_squared,
                "slope": self.slope}


#: basis name -> (design builder, regressor axis, has intercept)
BASES = {
    "const_plus_eps2": (lambda x: np.column_stack([np.ones_like(x), x ** 2]),
                        "epsilon", True),
    "eps_plus_eps2": (lambda x: np.column_stack([x, x ** 2]),
                      "epsilon", False),
    "const_plus_rho": (lambda x: np.column_stack([np.ones_like(x), x]),
                       "rho", True),
    "const_plus_rho2": (lambda x: np.column_stack([np.ones_like(x), x ** 2]),
                        "rho", True),
    "loglog_line": (lambda x: np.column_stack([np.ones_like(x), x]),
                    "epsilon", True),
}


def check_basis(basis: str, values) -> np.ndarray:
    """The design matrix of ``basis`` at the regressor ``values``.

    Rejects an unknown basis, fewer values than the basis has coefficients
    plus two, a rank-deficient design, and a ``loglog_line`` value that is
    not positive (that basis regresses on log10 of the values).
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}; "
                         f"available: {', '.join(sorted(BASES))}")
    x = np.asarray(values, dtype=float)
    if basis == "loglog_line":
        if np.any(x <= 0):
            raise ValueError("log-log fit requires positive epsilons")
        x = np.log10(x)
    design = BASES[basis][0](x)
    if design.shape[0] < design.shape[1] + 2:
        raise ValueError(f"basis {basis!r} needs at least two more cells "
                         f"than its {design.shape[1]} coefficients, got "
                         f"{design.shape[0]}")
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise ValueError(f"degenerate design matrix for basis {basis!r} "
                         "(repeated axis values?)")
    return design


def _fit_design(sweep: SweepResult, basis: str) -> np.ndarray:
    """:func:`check_basis` along the axis of ``basis``, whose other axis
    must be constant over the sweep."""
    # an unknown basis has no axis; check_basis rejects it
    axis = BASES[basis][1] if basis in BASES else None
    other = sweep.epsilons if axis == "rho" else sweep.rhos
    if axis is not None and np.unique(other).size > 1:
        raise ValueError(f"basis {basis!r} fits along the {axis} axis; "
                         "restrict the sweep so the other axis is constant")
    return check_basis(basis, sweep.rhos if axis == "rho" else sweep.epsilons)


def _ols(design: np.ndarray, response: np.ndarray,
         intercept: bool) -> tuple[np.ndarray, float]:
    coef, _, _, _ = np.linalg.lstsq(design, response, rcond=None)
    resid = response - design @ coef
    ss_res = float(resid @ resid)
    if intercept:
        centred = response - response.mean()
        ss_tot = float(centred @ centred)
    else:
        # no-intercept fits use the uncentred total sum of squares
        ss_tot = float(response @ response)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return coef, r_squared


def fit_scaling(sweep: SweepResult, basis: str) -> ScalingFit:
    """Ordinary least squares of the sweep estimates against a scaling form.

    Polynomial bases are fitted in untransformed space. ``loglog_line``
    regresses log10(E_r) on log10(epsilon) and reports the slope.
    """
    design = _fit_design(sweep, basis)
    intercept = BASES[basis][2]
    if basis == "loglog_line":
        if np.any(sweep.estimates <= 0):
            raise ValueError("log-log fit requires positive estimates")
        coef, r2 = _ols(design, np.log10(sweep.estimates), intercept)
        return ScalingFit(basis, tuple(map(float, coef)), r2,
                          slope=float(coef[1]))
    coef, r2 = _ols(design, sweep.estimates, intercept)
    return ScalingFit(basis, tuple(map(float, coef)), r2)


def _resampled_estimates(sweep: SweepResult, n_boot: int,
                         seed: int) -> np.ndarray:
    """Bootstrap replicates (n_boot, cells) of the per-cell E_r, resampling
    each cell's distances, replicate by replicate, from one Philox stream.

    Replicates are drawn in groups of about 2**14 indices by one
    ``integers`` call whose per-draw bounds are the cell sizes, which takes
    the stream's numbers exactly as one call per replicate and cell would.
    """
    rng = np.random.Generator(np.random.Philox(seed=seed))
    sizes = np.array([dist.size for dist in sweep.distances])
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    total = int(bounds[-1])
    powered = np.concatenate(sweep.distances) ** sweep.r
    group = max(1, 2 ** 14 // max(1, total))
    reps = min(group, n_boot)
    high = np.tile(np.repeat(sizes, sizes), reps)
    # each draw's index into ``powered``: its cell's start plus the draw
    start = np.tile(np.repeat(bounds[:-1], sizes), reps)
    out = np.empty((n_boot, len(sweep)))
    for b in range(0, n_boot, group):
        g = min(group, n_boot - b)
        idx = rng.integers(0, high[:g * total])
        idx += start[:g * total]
        drawn = powered[idx].reshape(g, total)
        for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            out[b:b + g, c] = drawn[:, lo:hi].sum(axis=1) / sizes[c]
    return out


def _check_bootstrap(sweep: SweepResult, n_boot, seed,
                     level: float = 0.5) -> None:
    """Reject a bootstrap's replicate count, seed or confidence level, and
    a sweep run without ``keep_distances``."""
    _checks.integer(n_boot, "n_boot")
    _checks.integer(seed, "seed", 0)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    if sweep.distances is None:
        raise ValueError("sweep was run without keep_distances=True")


def bootstrap_coefficients(sweep: SweepResult, basis: str,
                           n_boot: int = 1000, seed: int = 0) -> np.ndarray:
    """Bootstrap distribution of fit coefficients, resampling within cells.

    Requires the sweep to have been run with ``keep_distances=True``.
    Returns an array of shape (n_boot, n_coefficients).
    """
    _check_bootstrap(sweep, n_boot, seed)
    design = _fit_design(sweep, basis)
    resp = _resampled_estimates(sweep, n_boot, seed)
    if basis == "loglog_line":
        resp = np.log10(resp)
    # one solve with every replicate as a right-hand-side column
    return np.linalg.lstsq(design, resp.T, rcond=None)[0].T


def rho_curvature_interval(sweep: SweepResult, n_boot: int = 1000,
                           seed: int = 0, level: float = 0.95):
    """Bootstrap confidence interval for curvature of E_r in rho.

    Fits E_r = b0 + b1 rho + b2 rho^2 along the rho axis and returns
    (point estimate of b2, lower, upper) at the given confidence level.
    An interval containing 0 means no significant curvature: the growth
    is statistically consistent with a straight line in rho.
    """
    _check_bootstrap(sweep, n_boot, seed, level)
    if np.unique(sweep.epsilons).size > 1:
        raise ValueError("restrict the sweep to a single epsilon first")
    x = sweep.rhos
    design = np.column_stack([np.ones_like(x), x, x ** 2])
    # one residual degree of freedom is enough here: the interval width,
    # not the point fit, carries the uncertainty
    if design.shape[0] < design.shape[1] + 1 \
            or np.linalg.matrix_rank(design) < design.shape[1]:
        raise ValueError("need at least four rho cells with three distinct "
                         f"rho values, got {x.tolist()}")
    coef, _, _, _ = np.linalg.lstsq(design, sweep.estimates, rcond=None)
    resp = _resampled_estimates(sweep, n_boot, seed)
    boots = np.linalg.lstsq(design, resp.T, rcond=None)[0][2]
    alpha = 0.5 * (1.0 - level)
    lo, hi = np.quantile(boots, [alpha, 1.0 - alpha])
    return float(coef[2]), float(lo), float(hi)

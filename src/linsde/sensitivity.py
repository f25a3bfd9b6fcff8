"""Stochastic sensitivity: scalar uncertainty per initial condition.

The sensitivity value at (x0, t) is the largest eigenvalue (equivalently the
spectral norm) of the unit-noise covariance of the linearised solution with
zero initial covariance. It is independent of the noise scale and can be
evaluated over grids of initial conditions to expose coherent flow regions;
robust sets collect the nodes whose value stays below a threshold.

Fields are embarrassingly parallel: a field's nodes are cut into blocks,
and each block goes through the covariance kernel that also serves
:func:`s2_point` ("rk45" steps the block's nodes together, each with its
own adaptive step, "mazzoni" advances the block with fixed steps). Both
kernels compute every row alone, so a node's value does not depend on
which block holds it, and a field is bit-identical for any partition and
any worker count. A node whose result is non-finite goes missing.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _checks
from .artifacts import read_record, read_table, write_table
from .exceptions import FieldError
from .flow import DEFAULT_TOL
from .linearise import (METHODS, InitialCondition, _propagate,
                        linearised_distribution)
from .models import builtin_model
from .sampling import Cell, SimulationConfig, sample_cells

__all__ = ["s2_point", "GridSpec", "S2Field", "check_field", "s2_field",
           "s2_empirical_limit", "RobustSet", "extract_robust_set",
           "robust_header", "read_field"]

#: most nodes in one kernel call, for both methods. Both kernels are
#: vectorised over a block, and their per-step cost is mostly per call, so
#: a field runs in as few blocks as this bound and the workers allow
BLOCK_NODES = 4096

MAX_MISSING_FRACTION = 0.001

#: default tolerance for field computation (looser than the point default,
#: the flow module's DEFAULT_TOL)
FIELD_TOL = 1e-6


def s2_point(model, x0, t: float, tol: float = DEFAULT_TOL,
             method: str = "rk45", dt: float = 2e-3) -> float:
    """Sensitivity value at one initial condition.

    Largest eigenvalue of the unit-noise covariance (epsilon = 1, zero
    initial covariance) propagated to time t; equals the spectral norm
    since the covariance is symmetric positive semi-definite.
    """
    law = linearised_distribution(model, InitialCondition.fixed(x0), t, 1.0,
                                  tol=tol, method=method, dt=dt)
    return float(np.linalg.eigvalsh(law.covariance)[-1])


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid: one (min, max, count) triple per axis."""

    axes: tuple

    def __post_init__(self):
        for lo, hi, count in self.axes:
            _checks.finite(lo, "axis min")
            _checks.at_least(hi, "axis max", lo)
            _checks.integer(count, "axis count")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(int(ax[2]) for ax in self.axes)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def axis_values(self, k: int) -> np.ndarray:
        lo, hi, count = self.axes[k]
        return np.linspace(lo, hi, int(count))

    def points(self) -> np.ndarray:
        """All grid nodes, row-major, shape (n_nodes, dim)."""
        mesh = np.meshgrid(*[self.axis_values(k) for k in range(self.dim)],
                           indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def to_json(self) -> list:
        return [[float(lo), float(hi), int(c)] for lo, hi, c in self.axes]


@dataclass(frozen=True)
class S2Field:
    """Gridded sensitivity values (row-major, aligned with GridSpec.points)."""

    grid: GridSpec
    values: np.ndarray
    t: float
    model_name: str
    params: dict = field(default_factory=dict)
    n_missing: int = 0

    def __post_init__(self):
        if np.shape(self.values) != (self.grid.n_nodes,):
            raise ValueError(f"values must have shape ({self.grid.n_nodes},), "
                             f"one per grid node, got {np.shape(self.values)}")

    def header(self) -> dict:
        return {"grid": self.grid.to_json(), "t": float(self.t),
                "model": self.model_name, "params": self.params,
                "n_missing": int(self.n_missing)}

    def write_csv(self, path) -> None:
        write_table(path, [f"x{i + 1}" for i in range(self.grid.dim)] + ["s2"],
                    [*self.grid.points().T, self.values])


def read_field(csv_path, json_path) -> S2Field:
    """Round-trip reader for a field or robust-set CSV plus its header."""
    meta = read_record(json_path)
    grid = GridSpec(tuple(map(tuple, meta["grid"])))
    return S2Field(grid, np.array(read_table(csv_path)["s2"], dtype=float),
                   meta["t"], meta["model"], meta["params"], meta["n_missing"])


def _field_chunk(model, nodes, t, method, tol, dt):
    """Sensitivity values of one block of nodes, NaN where a node failed.

    The whole block goes through :func:`linearise._propagate`, whose nodes
    are independent, so a node's value does not depend on the block.
    """
    _, cov = _propagate(model, nodes, t, method, tol, dt)
    out = np.full(len(nodes), np.nan)
    finite = np.all(np.isfinite(cov), axis=(-2, -1))
    if np.any(finite):
        out[finite] = np.linalg.eigvalsh(cov[finite])[..., -1]
    return out


def _pool_chunk(payload):
    """Process-pool entry: rebuild the catalog model, then run the chunk."""
    name, params, *args = payload
    return _field_chunk(builtin_model(name, **params), *args)


def check_field(model, grid: GridSpec, workers: int = 1,
                tol: float = FIELD_TOL, method: str = "rk45",
                dt: float = 2e-3) -> None:
    """Reject :func:`s2_field` arguments that cannot give a field; the
    defaults are :func:`s2_field`'s."""
    _checks.integer(workers, "workers")
    if method not in METHODS:
        raise ValueError(f"unknown field method {method!r}; available: "
                         f"{', '.join(METHODS)}")
    if grid.dim != model.dim_state:
        raise ValueError(f"grid dimension {grid.dim} does not match the "
                         f"model dimension {model.dim_state}")
    _checks.positive(tol, "tol")
    _checks.positive(dt, "dt")


def s2_field(model, grid: GridSpec, t: float, workers: int = 1,
             tol: float = FIELD_TOL, method: str = "rk45",
             dt: float = 2e-3) -> S2Field:
    """Sensitivity field over a rectangular grid of initial conditions.

    Every node takes the covariance kernel of :func:`s2_point` for
    ``method``: "rk45" adaptive to ``tol``, "mazzoni" fixed steps of ``dt``.
    ``workers`` is capped at the CPU count. Nodes are split evenly into
    blocks of at most BLOCK_NODES nodes, the same number for each worker
    unless that would leave a block empty, computed serially or on a
    process pool of at most one worker a block. The kernels compute each
    node alone, so values do not depend on the partition, and fields are
    identical for any worker count. A model that :func:`builtin_model` did
    not make runs serially, with a warning, and the field names it
    ``user:<name>`` without params, since ``dataclasses.replace`` keeps a
    catalog name over other coefficients. A node with a non-finite result
    is recorded as missing; more than 0.1 percent missing raises FieldError.
    """
    check_field(model, grid, workers, tol, method, dt)
    _checks.at_least(t, "t")
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and model._recipe is None:
        warnings.warn(f"model {model.name!r} was not built by builtin_model "
                      "and cannot be shipped to worker processes; running "
                      "serially", RuntimeWarning)
        workers = 1

    nodes = grid.points()
    per_worker = -(-len(nodes) // (workers * BLOCK_NODES))
    blocks = np.array_split(nodes, min(len(nodes), workers * per_worker))
    if workers == 1:
        results = [_field_chunk(model, blk, t, method, tol, dt)
                   for blk in blocks]
    else:
        payloads = [(*model._recipe, blk, t, method, tol, dt)
                    for blk in blocks]
        with ProcessPoolExecutor(max_workers=min(workers,
                                                 len(blocks))) as pool:
            results = list(pool.map(_pool_chunk, payloads))
    values = np.concatenate(results)

    n_missing = int(np.count_nonzero(~np.isfinite(values)))
    if n_missing > MAX_MISSING_FRACTION * max(1, len(values)):
        raise FieldError(f"{n_missing} of {len(values)} grid nodes failed "
                         f"for model {model.name!r} at t={t}")
    values = np.where(np.isfinite(values), values, np.nan)
    name, params = (f"user:{model.name}", {}) if model._recipe is None \
        else (model.name, dict(model.params))
    return S2Field(grid, values, float(t), name, params, n_missing)


def s2_empirical_limit(model, x0, t: float, epsilons: Sequence[float],
                       config: SimulationConfig) -> list[float]:
    """Small-noise Monte-Carlo estimates converging to the sensitivity value.

    For each noise scale, takes the nonlinear terminal states of the coupled
    sampler from the fixed initial condition, forms their sample covariance,
    and rescales its top eigenvalue by the squared noise scale. The
    sequence approaches :func:`s2_point` as the scale decreases, up to
    Monte-Carlo error. The scales are one cell each, with ``config``'s seed
    and sample count, of one :func:`sampling.sample_cells` run, so the
    reference flow is solved once; each cell's batch is the one
    :func:`sampling.sample_coupled` gives for its scale alone.
    """
    for i, eps in enumerate(epsilons):
        _checks.positive(eps, f"epsilons[{i}]")
    _checks.at_least(config.n_samples, "n_samples", 2)
    init = InitialCondition.fixed(x0)
    cells = [Cell(init, eps, config.seed, config.n_samples)
             for eps in epsilons]
    out = []
    for eps, batch in zip(epsilons, sample_cells(model, cells, t, config)
                          if cells else []):
        cov = np.cov(batch.y_samples, rowvar=False).reshape(
            model.dim_state, model.dim_state)
        out.append(float(np.linalg.eigvalsh(cov)[-1] / eps ** 2))
    return out


@dataclass(frozen=True)
class RobustSet:
    """Boolean mask of grid nodes whose sensitivity is below a threshold."""

    mask: np.ndarray
    threshold: float

    @property
    def fraction(self) -> float:
        return float(self.mask.mean()) if self.mask.size else 0.0


def extract_robust_set(field: S2Field, threshold: float) -> RobustSet:
    """Nodes with sensitivity at or below the threshold (missing nodes excluded)."""
    _checks.at_least(threshold, "threshold")
    with np.errstate(invalid="ignore"):
        mask = field.values <= threshold
    return RobustSet(mask, float(threshold))


def robust_header(field: S2Field, robust: RobustSet) -> dict:
    """Field header plus the robust-set threshold and fraction."""
    return {**field.header(), "threshold": robust.threshold,
            "robust_fraction": robust.fraction}


def write_robust_csv(field: S2Field, robust: RobustSet, path) -> None:
    """Grid coordinates with sensitivity values and the robust-set flag."""
    write_table(path, [f"x{i + 1}" for i in range(field.grid.dim)]
                + ["s2", "robust"],
                [*field.grid.points().T, field.values, robust.mask])

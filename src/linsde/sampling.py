"""Coupled Monte-Carlo simulation of a nonlinear SDE and its linearisation.

Both equations are advanced with the same fixed-step scheme, the same Wiener
increments, and the same initial draw, so the pathwise terminal difference
isolates the linearisation error. The linearised drift and diffusion are
evaluated along the reference deterministic trajectory, which is integrated
once to high accuracy and shared by all samples.

Each sample owns a counter-based random stream (Philox keyed by the master
seed and the sample index), so batches are reproducible bit-for-bit and
independent of execution order, chunking, or worker count. Samples that
leave the floating-point range mid-path are flagged and excluded; a flag
rate above 1 percent aborts the batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .artifacts import write_table
from .exceptions import BatchError
from .flow import solve_flow
from .linearise import InitialCondition

SCHEMES = ("euler_maruyama", "milstein_1d")

#: samples are generated in fixed-size blocks to bound memory; the block
#: size does not affect results (per-sample streams)
CHUNK_SAMPLES = 2048

#: each sample's increments are drawn in blocks of at most this many steps
#: from its persisting stream, so memory does not grow with the horizon;
#: the block length does not affect results
BLOCK_STEPS = 1024

MAX_FLAGGED_FRACTION = 0.01


@dataclass(frozen=True)
class SimulationConfig:
    """Fixed-step configuration for the coupled sampler."""

    dt: float = 1e-3
    scheme: str = "euler_maruyama"
    n_samples: int = 1000
    seed: int = 0
    t_final: Optional[float] = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"available: {', '.join(SCHEMES)}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be a positive integer")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def steps_for(self, t: float) -> int:
        """Integer step count for horizon t (dt is stretched to divide t)."""
        return max(1, round(t / self.dt))

    def to_json(self) -> dict:
        return {"dt": self.dt, "scheme": self.scheme,
                "n_samples": self.n_samples, "seed": int(self.seed),
                "t_final": self.t_final}


@dataclass(frozen=True)
class SamplePairBatch:
    """Terminal sample pairs (nonlinear, linearised) on shared noise."""

    y_samples: np.ndarray
    l_samples: np.ndarray
    epsilon: float
    rho: Optional[float]
    config: SimulationConfig
    n_flagged: int = 0
    model_name: str = ""

    def __post_init__(self):
        if self.y_samples.shape != self.l_samples.shape:
            raise ValueError("sample arrays must share a shape")
        if not (np.all(np.isfinite(self.y_samples))
                and np.all(np.isfinite(self.l_samples))):
            raise ValueError("sample arrays must be finite")

    def __len__(self) -> int:
        return self.y_samples.shape[0]

    def sidecar(self) -> dict:
        return {"model": self.model_name,
                "epsilon": float(self.epsilon),
                "rho": None if self.rho is None else float(self.rho),
                "n_flagged": int(self.n_flagged),
                "n_retained": int(len(self)),
                "config": self.config.to_json()}

    def write_csv(self, path) -> None:
        n = self.y_samples.shape[1]
        write_table(path, [f"y{i + 1}" for i in range(n)]
                    + [f"l{i + 1}" for i in range(n)],
                    [*self.y_samples.T, *self.l_samples.T])


def read_batch(csv_path, sidecar_path) -> SamplePairBatch:
    """Round-trip reader for the batch CSV plus its JSON sidecar."""
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    n = data.shape[1] // 2
    cfg = SimulationConfig(**meta["config"])
    return SamplePairBatch(data[:, :n], data[:, n:], meta["epsilon"],
                           meta["rho"], cfg, meta["n_flagged"], meta["model"])


def _stream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one sample index."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seed=seq))


def _initial_factor(init: InitialCondition) -> Optional[np.ndarray]:
    """Symmetric square root of the initial covariance (None when zero)."""
    init.validate()
    if init.kind == "fixed" or not np.any(init.covariance):
        return None
    w, v = np.linalg.eigh(init.covariance)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def _draw(init: InitialCondition, factor: Optional[np.ndarray], seed: int,
          start: int, size: int):
    """Initial states (size, n) and the per-sample streams that drew them.

    Sample i's stream yields its initial offset first (when the initial
    covariance root ``factor`` is given), then its increments.
    """
    x_init = np.tile(init.mean, (size, 1))
    rngs = [_stream(seed, start + i) for i in range(size)]
    if factor is not None:
        for i, rng in enumerate(rngs):
            x_init[i] += factor @ rng.standard_normal(init.dim)
    return x_init, rngs


def draw_initial(init: InitialCondition, n_samples: int, seed: int) -> np.ndarray:
    """Draw initial states, one counter-based stream per sample index."""
    factor = _initial_factor(init)
    if factor is None:
        return np.tile(init.mean, (n_samples, 1))
    return _draw(init, factor, seed, 0, n_samples)[0]


def sample_coupled(model, init: InitialCondition, epsilon: float, t: float,
                   config: SimulationConfig, tol: float = 1e-8) -> SamplePairBatch:
    """Simulate terminal pairs of the nonlinear SDE and its linearisation.

    For each sample the initial state is drawn once and shared, the Wiener
    increments are drawn once and shared, and both equations advance with
    the scheme from ``config``. The linearised coefficients are the drift
    tangent and the frozen diffusion along the reference trajectory from
    ``init.reference_point``. With the 1-D Milstein scheme the linearised
    equation has state-independent diffusion, so its correction term
    vanishes and the update coincides with Euler-Maruyama.
    """
    y, l, n_flagged = _terminal_samples(model, init, epsilon, t, config,
                                        coupled=True, tol=tol)
    return SamplePairBatch(y, l, float(epsilon), init.rho,
                           replace(config, t_final=float(t)),
                           n_flagged=n_flagged, model_name=model.name)


def sample_nonlinear(model, init: InitialCondition, epsilon: float, t: float,
                     config: SimulationConfig, tol: float = 1e-8) -> np.ndarray:
    """Terminal samples of the nonlinear SDE alone (same streams as coupled)."""
    y, _, _ = _terminal_samples(model, init, epsilon, t, config,
                                coupled=False, tol=tol)
    return y


def _terminal_samples(model, init, epsilon, t, config, coupled, tol):
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if t <= 0:
        raise ValueError("t must be positive")
    if config.t_final is not None and abs(config.t_final - t) > 1e-12:
        raise ValueError(f"config.t_final={config.t_final} conflicts with t={t}")
    init.validate()
    n, m = model.dim_state, model.dim_noise
    if init.dim != n:
        raise ValueError("initial condition dimension does not match model")
    milstein = config.scheme == "milstein_1d"
    if milstein and not (n == 1 and m == 1):
        raise ValueError("milstein_1d requires a 1-D model with 1-D noise")
    if milstein and model.diffusion_gradient is None:
        raise ValueError(f"model {model.name!r} lacks a diffusion gradient, "
                         "required by milstein_1d")

    steps = config.steps_for(t)
    h = t / steps
    sqrt_h = np.sqrt(h)
    tgrid = np.linspace(0.0, t, steps + 1)

    if coupled:
        path = solve_flow(model, init.reference_point, t, tol=tol,
                          with_gradient=False)
        ref = path.state(tgrid)                                   # (S+1, n)
        u_ref = model.drift(ref[:-1], tgrid[:-1])                 # (S, n)
        jac_ref = model.drift_gradient(ref[:-1], tgrid[:-1])      # (S, n, n)
        sig_ref = model.diffusion(ref[:-1], tgrid[:-1])           # (S, n, m)

    factor = _initial_factor(init)
    n_total = config.n_samples
    y_out = np.empty((n_total, n))
    l_out = np.empty((n_total, n)) if coupled else None

    for start in range(0, n_total, CHUNK_SAMPLES):
        stop = min(start + CHUNK_SAMPLES, n_total)
        x_init, rngs = _draw(init, factor, config.seed, start, stop - start)
        buf = np.empty((stop - start, min(steps, BLOCK_STEPS), m))

        y = x_init.copy()
        l = x_init.copy() if coupled else None
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(steps):
                if k % BLOCK_STEPS == 0:
                    incr = buf[:, :steps - k]
                    for rng, rows in zip(rngs, incr):
                        rng.standard_normal(out=rows)
                    incr *= sqrt_h
                tk = tgrid[k]
                dw = incr[:, k % BLOCK_STEPS, :]
                u_y = model.drift(y, tk)
                sig_y = model.diffusion(y, tk)
                y_step = u_y * h + epsilon * np.einsum("sij,sj->si", sig_y, dw)
                if milstein:
                    s_val = sig_y[:, 0, 0]
                    s_der = model.diffusion_gradient(y, tk)[:, 0, 0, 0]
                    y_step[:, 0] += 0.5 * epsilon ** 2 * s_val * s_der \
                        * (dw[:, 0] ** 2 - h)
                if coupled:
                    drift_l = u_ref[k] + (l - ref[k]) @ jac_ref[k].T
                    l += drift_l * h + epsilon * dw @ sig_ref[k].T
                y += y_step
        y_out[start:stop] = y
        if coupled:
            l_out[start:stop] = l

    keep = np.all(np.isfinite(y_out), axis=1)
    if coupled:
        keep &= np.all(np.isfinite(l_out), axis=1)
    n_flagged = int(n_total - keep.sum())
    if n_flagged > MAX_FLAGGED_FRACTION * n_total:
        raise BatchError(
            f"{n_flagged} of {n_total} samples went non-finite "
            f"(> {MAX_FLAGGED_FRACTION:.0%}) for model {model.name!r} at "
            f"epsilon={epsilon}")
    return (y_out[keep], l_out[keep] if coupled else None, n_flagged)

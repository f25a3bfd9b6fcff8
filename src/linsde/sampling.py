"""Coupled Monte-Carlo simulation of a nonlinear SDE and its linearisation.

Both equations are advanced with the same fixed-step scheme, the same Wiener
increments, and the same initial draw, so the pathwise terminal difference
isolates the linearisation error. The linearised drift and diffusion are
evaluated along the reference deterministic trajectory, which is integrated
once to high accuracy and shared by all samples. The linearised scheme is
affine in the initial state and the increments, so its terminal state comes
from the discrete propagator of the reference (the product of the step
matrices I + h grad u along it), computed once: per step a sample only
adds its increment times that step's gain. Each step forms both noise terms
as elementwise products over the noise columns, summed in column order into
scratch arrays a chunk allocates once, rather than as batched matrix
products; for one noise column the sums are exact products. A chunk's
initial offsets are one product of its standard normals, drawn first from
each sample's stream, with the root of the initial covariance.

Each sample owns a counter-based random stream, Philox keyed by its index
within its batch and one word hashed from the seed, so batches are
reproducible bit-for-bit and independent of execution order, chunking, or
worker count. Samples that leave the floating-point range mid-path are
flagged and excluded; a flag rate above 1 percent aborts the batch.

``sample_cells`` is the one stepping loop. It steps several cells (initial
law, noise scale, seed, sample count) that share the model, horizon, step,
scheme and reference point together on one sample axis, as the scaling
sweeps do; each cell's batch and flag count are those of the cell sampled
alone. ``sample_coupled`` is its one-cell case, and a caller that needs the
nonlinear samples alone reads a batch's ``y_samples``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import _checks
from .artifacts import read_record, read_table, write_table
from .exceptions import BatchError
from .flow import solve_flow
from .linearise import InitialCondition

SCHEMES = ("euler_maruyama", "milstein_1d")

#: samples, of one cell or of several, are stepped in chunks of at most
#: this many to bound memory; the chunk size does not affect results
#: (per-sample streams)
CHUNK_SAMPLES = 1024

#: each sample's increments are drawn in blocks of at most this many steps
#: from its persisting stream, so memory does not grow with the horizon;
#: the block length does not affect results
BLOCK_STEPS = 128

MAX_FLAGGED_FRACTION = 0.01


@dataclass(frozen=True)
class SimulationConfig:
    """Fixed-step configuration for the coupled sampler."""

    dt: float = 1e-3
    scheme: str = "euler_maruyama"
    n_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        _checks.positive(self.dt, "dt")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"available: {', '.join(SCHEMES)}")
        _checks.integer(self.n_samples, "n_samples")
        _checks.integer(self.seed, "seed", 0)

    def steps_for(self, t: float) -> int:
        """Integer step count for horizon t (dt is stretched to divide t)."""
        return max(1, round(t / self.dt))

    def to_json(self) -> dict:
        return {"dt": self.dt, "scheme": self.scheme,
                "n_samples": self.n_samples, "seed": int(self.seed)}


@dataclass(frozen=True)
class SamplePairBatch:
    """Terminal sample pairs (nonlinear, linearised) on shared noise."""

    y_samples: np.ndarray
    l_samples: np.ndarray
    epsilon: float
    rho: Optional[float]
    config: SimulationConfig
    t: float
    n_flagged: int = 0
    model_name: str = ""

    def __post_init__(self):
        _checks.finite_array(self.y_samples, "y_samples")
        _checks.finite_array(self.l_samples, "l_samples", self.y_samples.shape)

    def __len__(self) -> int:
        return self.y_samples.shape[0]

    def sidecar(self) -> dict:
        return {"model": self.model_name,
                "epsilon": float(self.epsilon),
                "rho": None if self.rho is None else float(self.rho),
                "n_flagged": int(self.n_flagged),
                "n_retained": int(len(self)),
                "t": float(self.t),
                "config": self.config.to_json()}

    def write_csv(self, path) -> None:
        n = self.y_samples.shape[1]
        write_table(path, [f"y{i + 1}" for i in range(n)]
                    + [f"l{i + 1}" for i in range(n)],
                    [*self.y_samples.T, *self.l_samples.T])


def read_batch(csv_path, sidecar_path) -> SamplePairBatch:
    """Round-trip reader for the batch CSV plus its JSON sidecar."""
    meta, table = read_record(sidecar_path), read_table(csv_path)
    n = len(table) // 2
    y, l = (np.array([table[f"{v}{i + 1}"] for i in range(n)], dtype=float).T
            for v in "yl")
    cfg = SimulationConfig(**meta["config"])
    return SamplePairBatch(y, l, meta["epsilon"], meta["rho"], cfg, meta["t"],
                           meta["n_flagged"], meta["model"])


class _Key(np.random.bit_generator.ISeedSequence):
    """Seed sequence that hands a bit generator one precomputed key;
    ``Philox(key=)`` would spend OS entropy on a seed sequence it ignores."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _stream_keys(seed: int, start: int, size: int) -> np.ndarray:
    """Philox keys (size, 2) of sample indices start, ..., start + size - 1.

    Row i is ``(start + i, w)`` as uint64, with the one seed word
    ``w = SeedSequence(seed).generate_state(1, np.uint64)[0]``: Philox is
    keyed by the stream id, so distinct indices give independent streams,
    and w hashes a seed of any size into the key's second word.
    """
    keys = np.empty((size, 2), dtype=np.uint64)
    keys[:, 0] = np.arange(start, start + size, dtype=np.uint64)
    keys[:, 1] = np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]
    return keys


def _initial_factor(init: InitialCondition) -> Optional[np.ndarray]:
    """Symmetric square root of the initial covariance (None when zero)."""
    if not np.any(init.covariance):
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
    rngs = [np.random.Generator(np.random.Philox(seed=_Key(key)))
            for key in _stream_keys(seed, start, size)]
    if factor is not None:
        z = np.empty((size, init.dim))
        for rng, row in zip(rngs, z):
            rng.standard_normal(out=row)
        x_init += z @ factor.T
    return x_init, rngs


class Cell(NamedTuple):
    """One batch of a multi-cell run: its initial law, noise scale, seed and
    sample count. A non-empty ``label`` prefixes the cell's own errors."""

    init: InitialCondition
    epsilon: float
    seed: int
    n: int
    label: str = ""


def sample_coupled(model, init: InitialCondition, epsilon: float, t: float,
                   config: SimulationConfig) -> SamplePairBatch:
    """Simulate terminal pairs of the nonlinear SDE and its linearisation.

    For each sample the initial state is drawn once and shared, the Wiener
    increments are drawn once and shared, and both equations advance with
    the scheme from ``config``. The linearised coefficients are the drift
    tangent and the frozen diffusion along the reference trajectory from
    ``init.reference_point``. With the 1-D Milstein scheme the linearised
    equation has state-independent diffusion, so its correction term
    vanishes and the update coincides with Euler-Maruyama.
    """
    cell = Cell(init, epsilon, config.seed, config.n_samples)
    return sample_cells(model, [cell], t, config)[0]


@contextmanager
def _labelled(label: str):
    """Prefix the message of an error raised in the block with ``label``."""
    try:
        yield
    except Exception as exc:
        if label:
            exc.args = (f"{label}: {exc}",) + exc.args[1:]
        raise


def check_cells(model, cells, t: float, config: SimulationConfig) -> None:
    """Reject cells that cannot be sampled together to horizon ``t`` with
    ``config``'s step and scheme; a cell's own errors carry its label."""
    if not cells:
        raise ValueError("no cells to sample")
    _checks.positive(t, "t")
    n, m = model.dim_state, model.dim_noise
    milstein = config.scheme == "milstein_1d"
    if milstein and not (n == 1 and m == 1):
        raise ValueError("milstein_1d requires a 1-D model with 1-D noise")
    if milstein and model.diffusion_gradient is None:
        raise ValueError(f"model {model.name!r} lacks a diffusion gradient, "
                         "required by milstein_1d")
    ref_point = cells[0].init.reference_point
    for cell in cells:
        with _labelled(cell.label):
            _checks.at_least(cell.epsilon, "epsilon")
            _checks.integer(cell.n, "n")
            _checks.integer(cell.seed, "seed", 0)
            if cell.init.dim != n:
                raise ValueError(f"initial condition dimension "
                                 f"{cell.init.dim} does not match the model "
                                 f"dimension {n}")
            if not np.array_equal(cell.init.reference_point, ref_point):
                raise ValueError("cells must share one reference point")


def sample_cells(model, cells, t: float,
                 config: SimulationConfig) -> list[SamplePairBatch]:
    """Coupled batches of several cells that share model, horizon, step,
    scheme and reference point, stepped together.

    The reference trajectory is solved once. All cells' samples lie on one
    axis and advance in chunks of at most ``CHUNK_SAMPLES``; each sample
    keeps the stream of its index within its cell, so every batch equals
    the one ``sample_coupled`` gives for that cell alone. ``config``
    supplies dt and the scheme; each cell its seed and sample count.
    """
    check_cells(model, cells, t, config)
    n, m = model.dim_state, model.dim_noise
    milstein = config.scheme == "milstein_1d"
    ref_point = cells[0].init.reference_point
    factors = [_initial_factor(cell.init) for cell in cells]

    steps = config.steps_for(t)
    h = t / steps
    sqrt_h = np.sqrt(h)
    tgrid = np.linspace(0.0, t, steps + 1)

    # the linearised scheme is affine in the deviation d = l - ref:
    # d_{k+1} = A_k d_k + r_k + eps sig_k dW_k with A_k = I + h J_k and
    # r_k = ref_k + h u_k - ref_{k+1}, so with P_k = A_{S-1} ... A_k
    # (P_S = I) its terminal state is
    # l_S = ref_S + P_0 d_0 + sum_k P_{k+1} r_k + eps sum_k P_{k+1} sig_k dW_k
    # the reference (S+1, n) and its coefficients (S, n), (S, n, n), (S, n, m)
    ref = solve_flow(model, ref_point, tgrid, with_gradient=False)[0]
    u_ref, jac_ref, sig_ref = model.coefficients(ref[:-1], tgrid[:-1])
    prop = np.empty((steps + 1, n, n))
    prop[steps] = np.eye(n)
    for k in range(steps - 1, -1, -1):
        prop[k] = prop[k + 1] + h * prop[k + 1] @ jac_ref[k]
    gain_t = np.swapaxes(prop[1:] @ sig_ref, 1, 2).copy()         # (S, m, n)
    resid = ref[:-1] + h * u_ref - ref[1:]                        # (S, n)
    l_base = ref[-1] + np.einsum("kij,kj->i", prop[1:], resid)

    # one sample axis over all cells, with each sample's noise scale
    sizes = [cell.n for cell in cells]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n_total = int(offsets[-1])
    eps = np.repeat([float(cell.epsilon) for cell in cells], sizes)[:, None]
    if milstein:
        half_eps2 = np.repeat([0.5 * cell.epsilon ** 2 for cell in cells],
                              sizes)
    y_out = np.empty((n_total, n))
    l_out = np.empty((n_total, n))

    def advance(start, stop):
        """Step samples start:stop of the joint axis into y_out and l_out.
        The chunk's streams and noise buffer live only in this call, so the
        next chunk's never meet them in memory."""
        parts, rngs = [], []
        for c, cell in enumerate(cells):
            lo, hi = max(start, offsets[c]), min(stop, offsets[c + 1])
            if lo < hi:
                x_c, rngs_c = _draw(cell.init, factors[c], cell.seed,
                                    int(lo - offsets[c]), int(hi - lo))
                parts.append(x_c)
                rngs += rngs_c
        x_init = np.concatenate(parts)
        eps_k = eps[start:stop]
        buf = np.empty((stop - start, min(steps, BLOCK_STEPS), m))

        y = x_init.copy()
        acc = np.zeros((stop - start, n))
        # scratch for one step: the step, its noise term and a column product
        y_step, noise, prod = (np.empty((stop - start, n)) for _ in range(3))
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
                # u h + eps sig dW, the product summed over noise columns
                np.multiply(sig_y[:, :, 0], dw[:, None, 0], out=noise)
                for j in range(1, m):
                    noise += np.multiply(sig_y[:, :, j], dw[:, None, j],
                                         out=prod)
                noise *= eps_k
                np.multiply(u_y, h, out=y_step)
                y_step += noise
                if milstein:
                    s_val = sig_y[:, 0, 0]
                    s_der = model.diffusion_gradient(y, tk)[:, 0, 0, 0]
                    y_step[:, 0] += half_eps2[start:stop] * s_val * s_der \
                        * (dw[:, 0] ** 2 - h)
                for j in range(m):
                    acc += np.multiply(dw[:, j:j + 1], gain_t[k, j], out=prod)
                y += y_step
            l_out[start:stop] = l_base + (x_init - ref[0]) @ prop[0].T \
                + eps_k * acc
        y_out[start:stop] = y

    for start in range(0, n_total, CHUNK_SAMPLES):
        advance(start, min(start + CHUNK_SAMPLES, n_total))

    batches = []
    for c, cell in enumerate(cells):
        y = y_out[offsets[c]:offsets[c + 1]]
        l = l_out[offsets[c]:offsets[c + 1]]
        keep = np.all(np.isfinite(y) & np.isfinite(l), axis=1)
        n_flagged = int(cell.n - keep.sum())
        if n_flagged > MAX_FLAGGED_FRACTION * cell.n:
            with _labelled(cell.label):
                raise BatchError(
                    f"{n_flagged} of {cell.n} samples went non-finite "
                    f"(> {MAX_FLAGGED_FRACTION:.0%}) for model "
                    f"{model.name!r} at epsilon={cell.epsilon}")
        if n_flagged:
            y, l = y[keep], l[keep]
        batches.append(SamplePairBatch(
            y, l, float(cell.epsilon), cell.init.rho,
            replace(config, seed=cell.seed, n_samples=cell.n), float(t),
            n_flagged=n_flagged, model_name=model.name))
    return batches


"""Command-line front end: JSON-configured experiment runs.

Usage: ``linsde CONFIG.json [--seed S] [--workers K] [--out DIR]``. The
configuration file selects the command and all run parameters; the flags
override the corresponding config fields. Data artifacts (CSV for arrays,
JSON for structured records) are byte-identical across reruns of the same
effective configuration; the wall-clock timestamp is isolated in a separate
``provenance.txt`` line. Every JSON artifact embeds the configuration hash
and master seed.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import _checks
from . import bounds as bnd
from .artifacts import write_record, write_table
from .exceptions import (ConfigError, CovarianceError, LinSDEError,
                         UnknownModelError)
from .linearise import GaussianState, InitialCondition, linearised_distribution
from .models import builtin_model
from .sampling import (Cell, SamplePairBatch, SimulationConfig, check_cells,
                       sample_coupled)
from .scaling import (BASES, check_basis, fit_scaling, moment_orders,
                      run_sweep, sweep_cells)
from .sensitivity import (GridSpec, check_field, extract_robust_set,
                          robust_header, s2_field, write_robust_csv)

COMMANDS = ("simulate", "histogram", "validate-scaling", "bound",
            "s2-field", "robust-set")
#: numpy's histogram bin estimators, accepted as ``histogram.bins``
BIN_ESTIMATORS = ("auto", "doane", "fd", "rice", "scott", "sqrt", "stone",
                  "sturges")
#: what the library raises when it rejects an argument
_REJECTIONS = (ValueError, ArithmeticError, CovarianceError)


def _get(cfg: dict, path: str, kind=None, required: bool = True, default=None):
    node = cfg
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(".".join(walked), "missing required field")
            return default
        node = node[part]
    return _checked(path, node, kind)


def _checked(path: str, value, kind):
    """``value`` if it is a ``kind``; bools are not numbers and floats must
    be finite."""
    if kind is not None and (isinstance(value, bool)
                             or not isinstance(value, kind)):
        names = kind.__name__ if isinstance(kind, type) \
            else "/".join(k.__name__ for k in kind)
        raise ConfigError(path, f"expected {names}, "
                          f"got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value}")
    return value


def _section(cfg: dict, name: str, kinds: dict) -> dict:
    """The keys of section ``name`` that the config gives, each checked by
    _get's rules; absent keys are left to the library's defaults."""
    node = _get(cfg, name, dict, required=False, default={})
    return {key: _checked(f"{name}.{key}", node[key], kind)
            for key, kind in kinds.items() if key in node}


@contextmanager
def _rejected(path: str, kinds=_REJECTIONS):
    """Report the library's rejection of a config value, raised in the
    block, as a config error at ``path``."""
    try:
        yield
    except kinds as exc:
        raise ConfigError(path, str(exc)) from exc


def _numbers(cfg: dict, path: str, required: bool = True, default=None):
    """The list of numbers at ``path``, each element checked by _get's rules."""
    items = _get(cfg, path, list, required, default)
    return None if items is None else _number_items(path, items)


def _number_items(path: str, items) -> list:
    """``items`` if it is a list of numbers, each checked by _get's rules."""
    return [_checked(f"{path}[{i}]", v, (int, float))
            for i, v in enumerate(_checked(path, items, list))]


def _build_model(cfg: dict):
    name = _get(cfg, "model.name", str)
    params = _get(cfg, "model.params", dict, required=False, default={})
    with _rejected("model.name", UnknownModelError), \
            _rejected("model.params", (TypeError, MemoryError, *_REJECTIONS)):
        return builtin_model(name, **params)


def _build_init(cfg: dict) -> InitialCondition:
    kind = _get(cfg, "init.kind", str)
    with _rejected("init"):
        if kind == "fixed":
            return InitialCondition.fixed(_numbers(cfg, "init.point"))
        if kind == "gaussian":
            mean = _numbers(cfg, "init.mean")
            rho = _get(cfg, "init.rho", (int, float), required=False)
            cov = _get(cfg, "init.covariance", list, required=False)
            if cov is not None:
                cov = [_number_items(f"init.covariance[{i}]", row)
                       for i, row in enumerate(cov)]
            ref = _numbers(cfg, "init.reference_point", required=False)
            return InitialCondition.gaussian(mean, covariance=cov, rho=rho,
                                             reference_point=ref)
    raise ConfigError("init.kind", f"expected 'fixed' or 'gaussian', got {kind!r}")


def _build_sim(cfg: dict) -> SimulationConfig:
    given = _section(cfg, "simulation", {"dt": (int, float), "scheme": str,
                                         "n_samples": int, "seed": int})
    with _rejected("simulation"):
        return SimulationConfig(**given)


def _positive_time(cfg: dict) -> float:
    with _rejected("t"):
        return float(_checks.positive(_get(cfg, "t", (int, float)), "t"))


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class _Run:
    """One validated run: effective config, output directory, provenance."""

    def __init__(self, cfg: dict, out_dir: Path):
        self.cfg = cfg
        self.out = out_dir
        self.hash = _config_hash(cfg)
        self.sim = _build_sim(cfg)
        self.seed = self.sim.seed

    def path(self, name: str) -> Path:
        return self.out / name

    def write_json(self, name: str, payload: dict) -> None:
        write_record(self.path(name),
                     {"config_sha256": self.hash, "seed": self.seed, **payload})

    def write_provenance(self, command: str) -> None:
        stamp = datetime.now(timezone.utc).isoformat()
        with open(self.path("provenance.txt"), "w") as fh:
            fh.write(f"timestamp={stamp} config_sha256={self.hash} "
                     f"seed={self.seed} command={command}\n")


def _run_simulate(run: _Run) -> tuple[SamplePairBatch, GaussianState]:
    cfg = run.cfg
    model = _build_model(cfg)
    init = _build_init(cfg)
    t = _positive_time(cfg)
    epsilon = float(_get(cfg, "epsilon", (int, float)))
    with _rejected(cfg["command"]):
        check_cells(model, [Cell(init, epsilon, run.sim.seed,
                                 run.sim.n_samples)], t, run.sim)
    batch = sample_coupled(model, init, epsilon, t, run.sim)
    law = linearised_distribution(model, init, t, epsilon)
    batch.write_csv(run.path("batch.csv"))
    run.write_json("batch.json", batch.sidecar())
    run.write_json("linearised.json", law.to_json())
    return batch, law


def _run_histogram(run: _Run) -> None:
    bins = _get(run.cfg, "histogram.bins", (int, str), required=False,
                default="fd")
    if isinstance(bins, int):
        with _rejected("histogram.bins"):
            _checks.integer(bins, "bins")
    if isinstance(bins, str) and bins not in BIN_ESTIMATORS:
        raise ConfigError("histogram.bins", f"unknown estimator {bins!r}; "
                          f"available: {', '.join(BIN_ESTIMATORS)}")
    batch, law = _run_simulate(run)
    blocks = []
    for j in range(batch.y_samples.shape[1]):
        y = batch.y_samples[:, j]
        sd = math.sqrt(max(law.covariance[j, j], 0.0))
        if sd == 0.0 or np.ptp(y) == 0.0:
            raise LinSDEError("degenerate marginal (zero variance); "
                              "histogram is undefined")
        edges = np.histogram_bin_edges(y, bins=bins)
        density, _ = np.histogram(y, bins=edges, density=True)
        centres = 0.5 * (edges[:-1] + edges[1:])
        pdf = np.exp(-0.5 * ((centres - law.mean[j]) / sd) ** 2) \
            / (sd * math.sqrt(2.0 * math.pi))
        blocks.append((np.full(density.size, j + 1), edges[:-1], edges[1:],
                       density, pdf))
    write_table(run.path("histogram.csv"),
                ["component", "bin_left", "bin_right", "density",
                 "gaussian_density"], map(np.concatenate, zip(*blocks)))
    run.write_json("histogram.json",
                   {"bins": bins, "n_components": batch.y_samples.shape[1],
                    "n_samples": len(batch)})


def _run_validate_scaling(run: _Run) -> None:
    cfg = run.cfg
    model = _build_model(cfg)
    x0 = _numbers(cfg, "x0")
    eps_grid = [float(v) for v in _numbers(cfg, "epsilon_grid")]
    rho_grid = [float(v) for v in _numbers(cfg, "rho_grid")]
    t = _positive_time(cfg)
    with _rejected("validate-scaling"):
        check_cells(model, sweep_cells(x0, rho_grid, eps_grid, run.sim), t,
                    run.sim)
    orders = _numbers(cfg, "r", required=False, default=[1])
    with _rejected("r"):
        moment_orders(orders)
    bases = _get(cfg, "basis", (str, list), required=False,
                 default="const_plus_eps2")
    bases = [bases] if isinstance(bases, str) else \
        [_checked(f"basis[{i}]", b, str) for i, b in enumerate(bases)]
    with _rejected("basis"):
        for basis in bases:
            on_rho = basis in BASES and BASES[basis][1] == "rho"
            check_basis(basis, rho_grid if on_rho else eps_grid)
    sweeps = run_sweep(model, x0, rho_grid, eps_grid, t, orders, run.sim)
    fits = []
    for sweep in sweeps:
        tag = f"{sweep.r:g}".replace(".", "p")
        sweep.write_csv(run.path(f"sweep_r{tag}.csv"))
        for basis in bases:
            axis = BASES[basis][1]
            fixed_values = rho_grid if axis == "epsilon" else eps_grid
            for v in fixed_values:
                sub = sweep.restrict(rho=v) if axis == "epsilon" \
                    else sweep.restrict(epsilon=v)
                fit = fit_scaling(sub, basis)
                entry = {"r": sweep.r,
                         "fixed_rho" if axis == "epsilon" else "fixed_epsilon": v}
                entry.update(fit.to_json())
                fits.append(entry)
    run.write_json("fits.json", {"fits": fits})


def _build_constants(cfg: dict, model) -> bnd.BoundConstants:
    spec = _get(cfg, "bound.constants", (dict, str), required=False,
                default="model")
    if spec == "model":
        return model.constants
    if spec == "estimate":
        return bnd.estimate_constants(model)
    if isinstance(spec, dict):
        given = {k: _get(cfg, f"bound.constants.{k}", (int, float))
                 for k in ("k_grad_u", "k_hess_u", "k_grad_sigma", "k_sigma")}
        with _rejected("bound.constants"):
            return bnd.BoundConstants(
                **given, n=_get(cfg, "bound.constants.n", int, required=False,
                                default=model.dim_state))
    raise ConfigError("bound.constants",
                      "expected 'model', 'estimate' or a mapping")


def _run_bound(run: _Run) -> None:
    cfg = run.cfg
    model = _build_model(cfg)
    r = float(_get(cfg, "bound.r", (int, float)))
    t = float(_get(cfg, "bound.t", (int, float)))
    epsilon = float(_get(cfg, "bound.epsilon", (int, float)))
    rho = _get(cfg, "bound.rho", (int, float), required=False)
    if rho is not None:
        if {"delta_r", "delta_2r"} & cfg["bound"].keys():
            raise ConfigError("bound", "give rho or delta_r/delta_2r, not both")
        with _rejected("bound.rho"):
            sigma0 = InitialCondition.gaussian(np.zeros(model.dim_state),
                                               rho=rho).covariance
        with _rejected("bound.r"):
            delta_r = bnd.gaussian_delta_bound(sigma0, r)
            delta_2r = bnd.gaussian_delta_bound(sigma0, 2 * r)
    else:
        delta_r = float(_get(cfg, "bound.delta_r", (int, float),
                             required=False, default=0.0))
        delta_2r = float(_get(cfg, "bound.delta_2r", (int, float),
                              required=False, default=0.0))
    with _rejected("bound", ValueError):
        bnd.check_bound(r, t, epsilon, delta_r, delta_2r)
    constants = _build_constants(cfg, model)
    breakdown = bnd.bound_rhs(r, t, epsilon, delta_r, delta_2r, constants)
    payload = breakdown.to_json()
    payload["constants"] = {
        "k_grad_u": constants.k_grad_u, "k_hess_u": constants.k_hess_u,
        "k_grad_sigma": constants.k_grad_sigma, "k_sigma": constants.k_sigma,
        "n": constants.n}
    run.write_json("bound.json", payload)


def _build_grid(cfg: dict) -> GridSpec:
    axes = []
    for k, ax in enumerate(_get(cfg, "grid", list)):
        path = f"grid[{k}]"
        ax = _number_items(path, ax)
        if len(ax) != 3:
            raise ConfigError(path, "expected [min, max, count]")
        axes.append((*ax[:2], _checked(f"{path}[2]", ax[2], int)))
    with _rejected("grid"):
        return GridSpec(tuple(axes))


def _run_s2_field(run: _Run, with_robust: bool) -> None:
    cfg = run.cfg
    model = _build_model(cfg)
    grid = _build_grid(cfg)
    t = _positive_time(cfg)
    options = _section(cfg, "field", {"method": str, "tol": (int, float),
                                      "dt": (int, float)})
    if "workers" in cfg:
        options["workers"] = _get(cfg, "workers", int)
    with _rejected(cfg["command"]):
        check_field(model, grid, **options)
    if with_robust:
        with _rejected("threshold"):
            threshold = _checks.at_least(
                _get(cfg, "threshold", (int, float)), "threshold")
    # the config names a catalog model, and it labels the field also when
    # the model that ran is a wrapped copy without the catalog recipe
    field = replace(s2_field(model, grid, t, **options),
                    model_name=model.name, params=dict(model.params))
    if with_robust:
        robust = extract_robust_set(field, float(threshold))
        write_robust_csv(field, robust, run.path("robust.csv"))
        run.write_json("robust.json", robust_header(field, robust))
    else:
        field.write_csv(run.path("field.csv"))
        run.write_json("field.json", field.header())


_DISPATCH = {
    "simulate": _run_simulate,
    "histogram": _run_histogram,
    "validate-scaling": _run_validate_scaling,
    "bound": _run_bound,
    "s2-field": lambda run: _run_s2_field(run, with_robust=False),
    "robust-set": lambda run: _run_s2_field(run, with_robust=True),
}


def _apply_overrides(cfg: dict, args) -> dict:
    if args.seed is not None:
        sim = cfg.setdefault("simulation", {})
        if isinstance(sim, dict):  # anything else is a config error later
            sim["seed"] = args.seed
    if args.workers is not None:
        cfg["workers"] = args.workers
    if args.out is not None:
        cfg["output_dir"] = args.out
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="linsde",
        description="Run a JSON-configured experiment: coupled simulation, "
                    "scaling validation, error bounds or sensitivity fields.")
    parser.add_argument("config", help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, help="override simulation.seed")
    parser.add_argument("--workers", type=int, help="override workers")
    parser.add_argument("--out", help="override output_dir")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("config", "top level must be a JSON object")
        cfg = _apply_overrides(cfg, args)
        command = _get(cfg, "command", str)
        if command not in COMMANDS:
            raise ConfigError("command", f"unknown command {command!r}; "
                              f"available: {', '.join(COMMANDS)}")
        out_dir = Path(_get(cfg, "output_dir", str, required=False,
                            default="."))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("output_dir", f"not writable: {exc}")
        run = _Run(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        _DISPATCH[command](run)
        run.write_provenance(command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (LinSDEError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}"
              if exc.filename is not None else f"error: {exc}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

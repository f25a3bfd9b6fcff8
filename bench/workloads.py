"""The four workloads: generated inputs, one timed pass, and its checks.

A workload builds its CLI configs from the benchmark seed, runs one timed
pass through the ``linsde`` CLI and public library functions, and then,
outside the timed region, checks the pass's outputs against computations
made apart from the program (``reference.py``) or against properties the
method must have. Every pass attempts the same operations and checks, so
the share of failed operations does not depend on how many passes fit in
a run. The field workloads add checks made once per run; none of them
fails on working code, so that share stays fixed there too.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import time
from pathlib import Path

import numpy as np

import reference

EPS_GRID = [1e-3, 2.2e-3, 4.6e-3, 1e-2, 2.2e-2, 4.6e-2, 1e-1]
RHO_GRID = [0.0, 1e-3, 1e-2, 1e-1]
JET_X0 = [0.0, 1.0]
#: grid spacings are powers of two over small integers, so every node
#: coordinate is exact and a subgrid's nodes equal the full grid's bit for
#: bit (the worker-identity check compares them by value)
FIXED_STEP_SPACING = 3.0 / 32.0
ADAPTIVE_SPACING = 0.25

#: workload -> size -> parameters; "quick" runs every operation and check
#: in seconds for the benchmark's own test
SIZES = {
    "scaling-sweep": {
        "full": {"n_samples": 300, "dt": 1e-3},
        "quick": {"n_samples": 200, "dt": 1e-2}},
    "simulate-jet-long": {
        "full": {"n_samples": 1024, "t": 3.0},
        "quick": {"n_samples": 256, "t": 1.0}},
    "field-fixed-step": {
        "full": {"shape": (30, 30), "sub": (4, 4), "t": 1.0},
        "quick": {"shape": (8, 8), "sub": (4, 4), "t": 0.5}},
    "field-adaptive": {
        "full": {"shape": (12, 10), "sub": (4, 4), "t": 1.0},
        "quick": {"shape": (6, 5), "sub": (4, 4), "t": 0.5}},
}


class Aborted(Exception):
    """An operation of the timed pass failed; the pass cannot go on."""


class Ops:
    """Attempted and failed operations of one run, by name.

    CLI commands count by exit code, library calls by whether they raise,
    and checks by outcome. A failure is "known" when it is the documented
    program fault the check names; any other failure makes the run
    incorrect.
    """

    def __init__(self):
        self.tally: dict[str, list[int]] = {}
        self.notes: dict[str, tuple[str, bool]] = {}
        self._seen: set[str] = set()

    def begin_pass(self) -> None:
        self._seen = set()

    def record(self, name, ok, detail="", known=False) -> None:
        self._seen.add(name)
        entry = self.tally.setdefault(name, [0, 0])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            first = self.notes.get(name, (detail, True))
            self.notes[name] = (first[0], first[1] and known)

    def missing(self, names, why) -> None:
        for name in names:
            if name not in self._seen:
                self.record(name, False, f"not reached: {why}")

    def call(self, name, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            raise Aborted(name) from exc
        self.record(name, True)
        return result

    def cli(self, lib, name, config_path, out_dir, *extra) -> float:
        """Run one CLI command; returns its wall time."""
        argv = [str(config_path), "--out", str(out_dir), *extra]
        t0 = time.perf_counter()
        try:
            code = lib.cli.main(argv)
        except Exception as exc:  # escaped the CLI's exit-code contract
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            raise Aborted(name) from exc
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.record(name, False, f"exit code {code}")
            raise Aborted(name)
        self.record(name, True)
        return elapsed

    def check(self, name, fn) -> None:
        try:
            outcome = fn()
        except Exception as exc:  # a check that cannot run has failed
            outcome = (False, f"{type(exc).__name__}: {exc}")
        ok, detail = outcome[0], outcome[1]
        known = len(outcome) > 2 and outcome[2]
        self.record(name, bool(ok), detail, known)

    @property
    def attempted(self) -> int:
        return sum(v[0] for v in self.tally.values())

    @property
    def failed(self) -> int:
        return sum(v[1] for v in self.tally.values())

    @property
    def correct(self) -> bool:
        return all(known for name, (_, known) in self.notes.items()
                   if self.tally[name][1])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _grid(lo, spacing, count) -> list:
    return [float(lo), float(lo + (count - 1) * spacing), int(count)]


class Workload:
    """Shared life cycle: configs and models in set-up, then passes."""

    name = ""
    #: operations of the timed pass, in order
    pass_ops: tuple = ()
    #: CLI command whose wall time and work give the throughput
    main_command = ""
    #: what the throughput counts, for the printed report
    work_label = ""

    def __init__(self, seed: int, size: str):
        self.seed = int(seed)
        self.size = SIZES[self.name][size]

    def configs(self) -> dict:
        raise NotImplementedError

    def model_specs(self) -> dict:
        """Model key -> (catalog name, params) for the library calls."""
        raise NotImplementedError

    def setup(self, lib, cfg_dir: Path) -> None:
        """Generate and write the configs, build the models."""
        self.rng = np.random.default_rng(self.seed)
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.cfg_paths = {}
        for key, cfg in self.configs().items():
            self.cfg_paths[key] = cfg_dir / f"{key}.json"
            _write_json(self.cfg_paths[key], cfg)
        self.models = {key: lib.builtin_model(name, **params)
                       for key, (name, params) in self.model_specs().items()}

    def run_pass(self, lib, ops: Ops, out: Path, models: dict) -> dict:
        raise NotImplementedError

    def verify(self, lib, ops: Ops, out: Path, res: dict) -> None:
        """Check a pass's outputs."""
        raise NotImplementedError

    def verify_run(self, lib, ops: Ops, out: Path, chk: Path) -> None:
        """Checks made once per run, after the timed passes, on the last
        pass's outputs; extra program runs write under chk. Every pass's
        outputs are byte-identical to the warm-up's, so once covers all."""


class ScalingSweep(Workload):
    name = "scaling-sweep"
    pass_ops = ("validate-scaling", "run_sweep(rho column)",
                "rho_curvature_interval", "bootstrap_coefficients",
                "read_sweep", "estimate_constants", "bound_rhs(every cell)")
    main_command = "validate-scaling"
    work_label = "sample_steps_per_s"

    def configs(self):
        return {"sweep": {
            "command": "validate-scaling",
            "model": {"name": "linear_multiplicative"},
            "x0": [2.0], "epsilon_grid": EPS_GRID, "rho_grid": RHO_GRID,
            "t": 1.0, "r": [1], "basis": ["eps_plus_eps2", "const_plus_rho"],
            "simulation": {"dt": self.size["dt"],
                           "n_samples": self.size["n_samples"],
                           "seed": self.seed}}}

    def model_specs(self):
        return {"mult": ("linear_multiplicative", {})}

    def work(self) -> int:
        steps = max(1, round(1.0 / self.size["dt"]))
        return len(EPS_GRID) * len(RHO_GRID) * self.size["n_samples"] * steps

    def run_pass(self, lib, ops, out, models):
        model = models["mult"]
        main_s = ops.cli(lib, "validate-scaling", self.cfg_paths["sweep"],
                         out / "sweep")
        sim = lib.SimulationConfig(dt=self.size["dt"],
                                   n_samples=self.size["n_samples"],
                                   seed=self.seed)
        column = ops.call("run_sweep(rho column)", lib.run_sweep, model,
                          [2.0], RHO_GRID, [1e-2], 1.0, 1.0, sim,
                          keep_distances=True)
        curvature = ops.call("rho_curvature_interval",
                             lib.rho_curvature_interval, column,
                             n_boot=1000, seed=self.seed)
        boot = ops.call("bootstrap_coefficients", lib.bootstrap_coefficients,
                        column, "const_plus_rho", n_boot=1000, seed=self.seed)
        sweep = ops.call("read_sweep", lib.read_sweep,
                         out / "sweep" / "sweep_r1.csv")
        constants = ops.call("estimate_constants", lib.estimate_constants,
                             model)

        def every_cell():
            totals = []
            for eps, rho in zip(sweep.epsilons, sweep.rhos):
                cov0 = np.array([[rho ** 2]])
                d_r = lib.gaussian_delta_bound(cov0, 1.0) if rho > 0 else 0.0
                d_2r = lib.gaussian_delta_bound(cov0, 2.0) if rho > 0 else 0.0
                totals.append(lib.bound_rhs(1.0, 1.0, eps, d_r, d_2r,
                                            constants).total)
            return np.array(totals)

        totals = ops.call("bound_rhs(every cell)", every_cell)
        return {"main_s": main_s, "curvature": curvature, "boot": boot,
                "sweep": sweep, "totals": totals}

    def verify(self, lib, ops, out, res):
        # outputs load inside the checks, so a pass that failed to write
        # them fails its checks instead of ending the run
        fits = functools.cache(lambda: json.loads(
            (out / "sweep" / "fits.json").read_text())["fits"])

        def eps_fits():
            r2 = [f["r_squared"] for f in fits()
                  if f["basis"] == "eps_plus_eps2"]
            return (len(r2) == len(RHO_GRID) and min(r2) >= 0.99,
                    f"eps_plus_eps2 R2 per rho {np.round(r2, 5).tolist()} "
                    "(>= 0.99)")

        def rho_fit():
            r2 = [f["r_squared"] for f in fits()
                  if f["basis"] == "const_plus_rho"
                  and f["fixed_epsilon"] == 1e-2]
            return (len(r2) == 1 and r2[0] >= 0.99,
                    f"const_plus_rho R2 at eps=1e-2 {r2} (>= 0.99)")

        def sweep_complete():
            s = res["sweep"]
            return (len(s) == len(EPS_GRID) * len(RHO_GRID)
                    and s.n_samples == self.size["n_samples"]
                    and bool(np.all(np.isfinite(s.estimates)))
                    and bool(np.all(s.estimates > 0)),
                    f"{len(s)} cells of n={s.n_samples}")

        def bound_dominates():
            ratio = res["totals"] / res["sweep"].estimates
            return (bool(np.all(res["totals"] >= res["sweep"].estimates)),
                    f"min bound/E1 {np.min(ratio):.3g} over "
                    f"{ratio.size} cells (>= 1)")

        def curvature():
            coef, lo, hi = res["curvature"]
            return (all(map(math.isfinite, (coef, lo, hi))) and lo <= hi,
                    f"b2={coef:.3g} in [{lo:.3g}, {hi:.3g}] (finite, ordered; "
                    "containing 0 is not gated)")

        def boot_finite():
            b = res["boot"]
            return (b.shape == (1000, 2) and bool(np.all(np.isfinite(b))),
                    f"bootstrap coefficients {b.shape}")

        ops.check("fit eps_plus_eps2 R2", eps_fits)
        ops.check("fit const_plus_rho R2", rho_fit)
        ops.check("sweep csv complete", sweep_complete)
        ops.check("bound >= E1 (every cell)", bound_dominates)
        ops.check("curvature interval ordered", curvature)
        ops.check("bootstrap finite", boot_finite)


class SimulateJetLong(Workload):
    name = "simulate-jet-long"
    pass_ops = ("simulate", "bound")
    main_command = "simulate"
    work_label = "sample_steps_per_s"
    eps = 1e-2
    dt = 1e-3

    def configs(self):
        t = self.size["t"]
        return {
            "simulate": {
                "command": "simulate",
                "model": {"name": "meandering_jet", "params": {}},
                "init": {"kind": "fixed", "point": JET_X0},
                "epsilon": self.eps, "t": t,
                "simulation": {"dt": self.dt,
                               "n_samples": self.size["n_samples"],
                               "seed": self.seed}},
            "bound": {
                "command": "bound", "model": {"name": "meandering_jet"},
                "bound": {"r": 1, "t": t, "epsilon": self.eps, "rho": 0.0,
                          "constants": "estimate"}}}

    def model_specs(self):
        return {"jet": ("meandering_jet", {})}

    def work(self) -> int:
        return self.size["n_samples"] * max(1, round(self.size["t"] / self.dt))

    def run_pass(self, lib, ops, out, models):
        main_s = ops.cli(lib, "simulate", self.cfg_paths["simulate"],
                         out / "simulate")
        ops.cli(lib, "bound", self.cfg_paths["bound"], out / "bound")
        return {"main_s": main_s}

    @functools.cached_property
    def references(self):
        """Reference law, computed once per run apart from the program."""
        return reference.gaussian_law(self.models["jet"], JET_X0,
                                      self.size["t"], self.eps)

    def verify(self, lib, ops, out, res):
        sim = out / "simulate"
        n = self.size["n_samples"]

        @functools.cache
        def law():
            record = json.loads((sim / "linearised.json").read_text())
            return (np.array(record["mean"]),
                    np.array(record["covariance"]).reshape(2, 2))

        data = functools.cache(lambda: np.loadtxt(
            sim / "batch.csv", delimiter=",", skiprows=1, ndmin=2))

        def law_matches():
            ref_mean, ref_cov = self.references
            e_mean = reference.rel_err(law()[0], ref_mean)
            e_cov = reference.rel_err(law()[1], ref_cov)
            return (e_mean <= 1e-6 and e_cov <= 1e-4,
                    f"mean rel err {e_mean:.2g} (<= 1e-6), covariance rel "
                    f"err {e_cov:.2g} (<= 1e-4) vs DOP853 reference")

        def sample_cov():
            rel = reference.rel_err(np.cov(data()[:, 2:], rowvar=False),
                                    law()[1])
            return (rel <= 5.0 / math.sqrt(n),
                    f"l-sample covariance rel err {rel:.4f} "
                    f"(<= {5.0 / math.sqrt(n):.4f})")

        def batch_complete():
            side = json.loads((sim / "batch.json").read_text())
            return (side["n_flagged"] == 0 and data().shape == (n, 4)
                    and bool(np.all(np.isfinite(data()))),
                    f"n_flagged={side['n_flagged']}, rows={data().shape[0]} "
                    f"of {n}")

        def bound_dominates():
            bound = json.loads((out / "bound" / "bound.json").read_text())
            e1 = float(np.mean(np.linalg.norm(data()[:, :2] - data()[:, 2:],
                                              axis=1)))
            total = bound["total"]
            if total >= e1:
                return True, f"bound {total:.3g} >= E1 {e1:.3g}"
            known = (math.isnan(total) and math.isnan(bound["term_initial"])
                     and bound["inputs"]["delta_2r"] == 0.0)
            if known:
                return (False, "bound.json total is NaN: bounds.bound_rhs "
                        "multiplies the theorem constant D2, overflowed to "
                        "+inf, by delta_2r^(2r) = 0 of the fixed initial "
                        "condition, so term_initial = inf * 0 = NaN "
                        f"(E1 = {e1:.3g})", True)
            return False, f"bound {total!r} < E1 {e1:.3g}"

        ops.check("law matches reference", law_matches)
        ops.check("sample covariance (c08)", sample_cov)
        ops.check("batch complete", batch_complete)
        ops.check("bound >= E1", bound_dominates)


class _Field(Workload):
    """Shared inputs and checks of the two field workloads.

    The worker-identity run uses the other field command, so that each
    workload has one ``robust.csv`` for the robust-fraction check.
    """

    sub_command = ""
    spacing = 1.0
    method: dict = {}
    probe_rtol = 0.0
    ou_rtol = 1e-5

    def _pick(self):
        nx, ny = self.size["shape"]
        sx, sy = self.size["sub"]
        return {"sub_origin": (int(self.rng.integers(0, nx - sx + 1)),
                               int(self.rng.integers(0, ny - sy + 1))),
                "probes": sorted(int(k) for k in self.rng.choice(
                    nx * ny, size=3, replace=False)),
                "threshold": round(float(self.rng.uniform(5.0, 30.0)), 3),
                "ou_a": float(self.rng.choice([0.5, 1.0, 1.5, 2.0]))}

    def _field_cfg(self, command, model, grid, workers=1):
        cfg = {"command": command, "model": model, "grid": grid,
               "t": self.size["t"], "workers": workers, "field": self.method}
        if command == "robust-set":
            cfg["threshold"] = self.pick["threshold"]
        return cfg

    def configs(self):
        self.pick = self._pick()
        nx, ny = self.size["shape"]
        sx, sy = self.size["sub"]
        i0, j0 = self.pick["sub_origin"]
        jet = {"name": "meandering_jet"}
        h = self.spacing
        grid = [_grid(0.0, h, nx), _grid(0.0, h, ny)]
        sub = [_grid(i0 * h, h, sx), _grid(j0 * h, h, sy)]
        return {
            "main": self._field_cfg(self.main_command, jet, grid),
            "sub": self._field_cfg(self.sub_command, jet, sub, workers=2),
            "ou": self._field_cfg(
                "s2-field", {"name": "ornstein_uhlenbeck",
                             "params": {"a": self.pick["ou_a"]}},
                [[-2.0, 2.0, 17]])}

    def model_specs(self):
        return {"jet": ("meandering_jet", {})}

    def work(self) -> int:
        nx, ny = self.size["shape"]
        return nx * ny

    def run_pass(self, lib, ops, out, models):
        main_s = ops.cli(lib, self.main_command, self.cfg_paths["main"],
                         out / "main")
        return {"main_s": main_s}

    @functools.cached_property
    def references(self):
        """Probe-node s2 values, computed once per run apart from the program."""
        _, ny = self.size["shape"]
        pts = [(k // ny * self.spacing, k % ny * self.spacing)
               for k in self.pick["probes"]]
        return [reference.s2_value(self.models["jet"], np.array(p),
                                   self.size["t"]) for p in pts]

    @staticmethod
    def _field(out_dir: Path):
        """CSV columns (as text) and JSON header of a field or robust set."""
        name = "robust" if (out_dir / "robust.csv").exists() else "field"
        header, rows = _read_csv(out_dir / f"{name}.csv")
        cols = {h: [row[k] for row in rows] for k, h in enumerate(header)}
        return cols, json.loads((out_dir / f"{name}.json").read_text())

    def _values(self, out: Path):
        return np.array([float(v) for v in self._field(out)[0]["s2"]])

    def verify(self, lib, ops, out, res):
        # outputs load inside the checks, so a pass that failed to write
        # them fails its checks instead of ending the run
        main = functools.cache(lambda: self._field(out / "main"))
        values = functools.cache(lambda: self._values(out / "main"))

        def finite_positive():
            v, missing = values(), main()[1]["n_missing"]
            return (v.size == self.work() and bool(np.all(np.isfinite(v)))
                    and bool(np.all(v > 0)) and missing == 0,
                    f"{v.size} values, min {np.min(v):.3g}, "
                    f"n_missing={missing}")

        def probes():
            errs = [abs(values()[k] - ref) / ref
                    for k, ref in zip(self.pick["probes"], self.references)]
            return (max(errs) < self.probe_rtol,
                    f"probe nodes {self.pick['probes']} max rel err "
                    f"{max(errs):.2g} (< {self.probe_rtol:g}) vs DOP853 "
                    "Lyapunov reference")

        ops.check("values finite positive", finite_positive)
        ops.check("probes match reference", probes)

    def verify_run(self, lib, ops, out, chk):
        for name, key in (("ou-field", "ou"), ("subgrid 2 workers", "sub")):
            try:
                ops.cli(lib, name, self.cfg_paths[key], chk / key)
            except Aborted:
                pass

        def robust_fraction():
            robust = out / "main" if self.main_command == "robust-set" \
                else chk / "sub"
            cols, meta = self._field(robust)
            mask = np.array([float(v) for v in cols["s2"]]) \
                <= meta["threshold"]
            flags = np.array([v == "1" for v in cols["robust"]])
            share = float(mask.mean())
            return (share == meta["robust_fraction"]
                    and bool(np.array_equal(mask, flags)),
                    f"robust_fraction {meta['robust_fraction']!r} vs "
                    f"recomputed {share!r} at threshold {meta['threshold']}")

        def ou_closed_form():
            vals = self._values(chk / "ou")
            exact = reference.ou_s2(self.pick["ou_a"], self.size["t"])
            err = float(np.max(np.abs(vals - exact)) / exact)
            return (vals.size == 17 and err <= self.ou_rtol,
                    f"OU a={self.pick['ou_a']}: max rel err {err:.2g} "
                    f"(<= {self.ou_rtol:g}) vs (1-e^(-2at))/(2a)")

        def workers_identical():
            _, ny = self.size["shape"]
            sx, sy = self.size["sub"]
            i0, j0 = self.pick["sub_origin"]
            sub = self._field(chk / "sub")[0]["s2"]
            serial = self._field(out / "main")[0]["s2"]
            serial = [serial[(i0 + i) * ny + j0 + j]
                      for i in range(sx) for j in range(sy)]
            return (sub == serial,
                    f"{len(sub)}-node subgrid at {self.pick['sub_origin']} "
                    "with 2 workers vs serial field, compared as %.17g text")

        ops.check("robust fraction", robust_fraction)
        ops.check("OU closed form", ou_closed_form)
        ops.check("workers bit-identical", workers_identical)


class FieldFixedStep(_Field):
    name = "field-fixed-step"
    pass_ops = ("robust-set",)
    main_command = "robust-set"
    sub_command = "s2-field"
    work_label = "field_nodes_per_s"
    spacing = FIXED_STEP_SPACING
    method = {"method": "mazzoni"}
    probe_rtol = 1e-3


class FieldAdaptive(_Field):
    name = "field-adaptive"
    pass_ops = ("s2-field",)
    main_command = "s2-field"
    sub_command = "robust-set"
    work_label = "field_nodes_per_s"
    spacing = ADAPTIVE_SPACING
    method = {"method": "rk45", "tol": 1e-6}
    probe_rtol = 1e-4


WORKLOADS = {w.name: w for w in (ScalingSweep, SimulateJetLong,
                                 FieldFixedStep, FieldAdaptive)}

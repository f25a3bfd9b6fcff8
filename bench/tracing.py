"""In-memory span tracing of linsde's layers, installed from outside.

Nothing in the package is edited: while a tracer is installed, the public
entry points of each module are replaced, in every ``linsde`` namespace
that holds them, by wrappers that record a span (layer, name, start, end,
parent) and a few counts taken from the call's arguments and result. On
exit the original objects are put back. Model coefficient callables are
the leaf layer: a span per call would be millions of records, so they are
aggregated into call counts, rows and time instead, and their time is
charged to the enclosing span so that self times stay exact.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

#: layer -> (module, public entry points); names missing in a module are
#: skipped so that a refactor leaves the layer's metrics at zero instead of
#: breaking the run
ENTRY_POINTS = {
    "flow": ("linsde.flow", ("solve_flow", "integrate_flow",
                             "integrate_flow_with_gradient")),
    "linearise": ("linsde.linearise", ("propagate_covariance",
                                       "linearised_distribution",
                                       "covariance_by_quadrature")),
    "sampling": ("linsde.sampling", ("sample_coupled", "sample_nonlinear",
                                     "draw_initial")),
    "scaling": ("linsde.scaling", ("run_sweep", "fit_scaling",
                                   "bootstrap_coefficients",
                                   "rho_curvature_interval", "strong_error")),
    "bounds": ("linsde.bounds", ("estimate_constants", "bound_rhs")),
    "sensitivity": ("linsde.sensitivity", ("s2_field", "s2_point",
                                           "extract_robust_set",
                                           "s2_empirical_limit")),
    "cli": ("linsde.cli", ("main",)),
}
#: artifact writers: (module, class or None, attribute)
WRITERS = (("linsde.cli", "_Run", "write_json"),
           ("linsde.cli", "_Run", "write_provenance"),
           ("linsde.sampling", "SamplePairBatch", "write_csv"),
           ("linsde.scaling", "SweepResult", "write_csv"),
           ("linsde.sensitivity", "S2Field", "write_csv"),
           ("linsde.sensitivity", None, "write_robust_csv"))
#: the ODE solver, as the modules that integrate call it
ODE_CALLERS = ("linsde.flow", "linsde.linearise")
COEFFICIENTS = ("drift", "drift_gradient", "diffusion")

#: metrics that repeat exactly in every traced pass (counts and sizes)
EXACT = (
    "models.drift_calls", "models.drift_gradient_calls",
    "models.diffusion_calls", "models.rows_evaluated",
    "flow.solve_flow_calls", "flow.rhs_evals", "flow.steps_accepted",
    "linearise.calls", "linearise.rhs_evals", "linearise.steps_accepted",
    "ode.calls", "ode.rhs_evals", "ode.steps_accepted",
    "sampling.calls", "sampling.sample_steps", "sampling.flagged",
    "sampling.noise_buffer_mb",
    "scaling.cells", "scaling.bootstrap_resamples",
    "bounds.points_evaluated", "bounds.bound_rhs_calls",
    "sensitivity.nodes", "sensitivity.missing",
    "cli.calls", "cli.artifact_bytes")
#: metric -> unit, in print order
UNITS = {
    "models.drift_calls": "count", "models.drift_gradient_calls": "count",
    "models.diffusion_calls": "count", "models.rows_evaluated": "count",
    "models.eval_s": "s",
    "flow.solve_flow_calls": "count", "flow.solve_flow_s": "s",
    "flow.rhs_evals": "count", "flow.steps_accepted": "count",
    "linearise.calls": "count", "linearise.s": "s",
    "linearise.rhs_evals": "count", "linearise.steps_accepted": "count",
    "ode.calls": "count", "ode.s": "s", "ode.rhs_evals": "count",
    "ode.steps_accepted": "count",
    "sampling.calls": "count", "sampling.s": "s",
    "sampling.sample_steps": "count", "sampling.ns_per_sample_step": "ns",
    "sampling.noise_s": "s", "sampling.step_s": "s",
    "sampling.flagged": "count", "sampling.peak_traced_mb": "MB",
    "sampling.noise_buffer_mb": "MB",
    "scaling.cells": "count", "scaling.sweep_s": "s", "scaling.fit_s": "s",
    "scaling.bootstrap_s": "s", "scaling.bootstrap_resamples": "count",
    "bounds.estimate_constants_s": "s", "bounds.points_evaluated": "count",
    "bounds.bound_rhs_calls": "count", "bounds.bound_rhs_s": "s",
    "sensitivity.nodes": "count", "sensitivity.field_s": "s",
    "sensitivity.ms_per_node": "ms", "sensitivity.us_per_node_step": "us",
    "sensitivity.missing": "count",
    "cli.calls": "count", "cli.self_s": "s", "cli.artifact_write_s": "s",
    "cli.artifact_bytes": "count",
    "trace.overhead_s": "s",
}
MB = 1024.0 * 1024.0


@dataclasses.dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    t0: float = 0.0
    t1: float = 0.0
    leaf_s: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _rows(x) -> int:
    return math.prod(np.shape(x)[:-1])


class Tracer:
    """Spans and leaf counts of one traced pass at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.leaf = {k: [0, 0.0, 0] for k in COEFFICIENTS}
        self.recording = True
        self._undo = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.leaf = {k: [0, 0.0, 0] for k in COEFFICIENTS}

    # -- wrappers --------------------------------------------------------

    def _span(self, layer, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            rec = Span(layer, name, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.t1 = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                attrs(rec, fn, args, kwargs, result)
            return result
        return traced

    def _leaf(self, kind, fn):
        @functools.wraps(fn)
        def traced(x, t):
            if not self.recording:
                return fn(x, t)
            t0 = time.perf_counter()
            out = fn(x, t)
            dt = time.perf_counter() - t0
            agg = self.leaf[kind]
            agg[0] += 1
            agg[1] += dt
            agg[2] += _rows(x)
            if self._stack:
                self.spans[self._stack[-1]].leaf_s += dt
            return out
        return traced

    def model(self, model):
        """Copy of a model whose coefficient callables are traced."""
        return dataclasses.replace(model, **{
            k: self._leaf(k, getattr(model, k)) for k in COEFFICIENTS})

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, orig, new) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "linsde"
                                   or mod_name.startswith("linsde.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        for layer, (mod_name, names) in ENTRY_POINTS.items():
            mod = sys.modules.get(mod_name)
            for name in names:
                orig = getattr(mod, name, None)
                if orig is not None:
                    self._replace_everywhere(
                        orig, self._span(layer, name, orig,
                                         _ATTRS.get(name)))
        for mod_name, cls_name, name in WRITERS:
            owner = sys.modules.get(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, name, None)
            if orig is None:
                continue
            wrapped = self._span("artifact", name, orig)
            if cls_name is None:
                self._replace_everywhere(orig, wrapped)
            else:
                setattr(owner, name, wrapped)
                self._undo.append((owner, name, orig))
        for mod_name in ODE_CALLERS:
            mod = sys.modules.get(mod_name)
            orig = getattr(mod, "solve_ivp", None)
            if orig is not None:
                setattr(mod, "solve_ivp",
                        self._span("ode", "solve_ivp", orig, _ode_attrs))
                self._undo.append((mod, "solve_ivp", orig))
        models = sys.modules.get("linsde.models")
        build = getattr(models, "builtin_model", None)
        if build is not None:
            self._replace_everywhere(
                build, functools.wraps(build)(
                    lambda *a, **k: self.model(build(*a, **k))))
        try:
            yield self
        finally:
            for owner, key, orig in reversed(self._undo):
                setattr(owner, key, orig)
            self._undo = []

    # -- per-pass metrics ------------------------------------------------

    def _outermost(self, layer, names=None):
        out = []
        for rec in self.spans:
            if rec.layer != layer or (names and rec.name not in names):
                continue
            p = rec.parent
            while p is not None and self.spans[p].layer != layer:
                p = self.spans[p].parent
            if p is None:
                out.append(rec)
        return out

    def _integrator_owner(self, rec) -> str | None:
        p = rec.parent
        while p is not None and self.spans[p].layer not in ("flow",
                                                             "linearise"):
            p = self.spans[p].parent
        return None if p is None else self.spans[p].layer

    def _under(self, rec, ancestor_index) -> bool:
        p = rec.parent
        while p is not None:
            if p == ancestor_index:
                return True
            p = self.spans[p].parent
        return False

    def pass_metrics(self, artifact_bytes: int) -> dict:
        """Per-layer metrics of the pass recorded since the last reset."""
        spans = self.spans
        m = {}
        m["models.drift_calls"] = self.leaf["drift"][0]
        m["models.drift_gradient_calls"] = self.leaf["drift_gradient"][0]
        m["models.diffusion_calls"] = self.leaf["diffusion"][0]
        m["models.rows_evaluated"] = sum(v[2] for v in self.leaf.values())
        m["models.eval_s"] = sum(v[1] for v in self.leaf.values())

        solves = [r for r in spans if r.layer == "flow"
                  and r.name == "solve_flow"]
        m["flow.solve_flow_calls"] = len(solves)
        m["flow.solve_flow_s"] = sum(r.dur for r in self._outermost(
            "flow", ("solve_flow",)))
        ode = [r for r in spans if r.layer == "ode"]
        for layer in ("flow", "linearise"):
            mine = [r for r in ode if self._integrator_owner(r) == layer]
            m[f"{layer}.rhs_evals"] = sum(r.attrs["nfev"] for r in mine)
            m[f"{layer}.steps_accepted"] = sum(r.attrs["steps"] for r in mine)
        lin = self._outermost("linearise")
        m["linearise.calls"] = len(lin)
        m["linearise.s"] = sum(r.dur for r in lin)
        m["ode.calls"] = len(ode)
        m["ode.s"] = sum(r.dur for r in ode)
        m["ode.rhs_evals"] = sum(r.attrs["nfev"] for r in ode)
        m["ode.steps_accepted"] = sum(r.attrs["steps"] for r in ode)

        samp = self._outermost("sampling")
        draws = [r for r in spans if r.layer == "sampling"
                 and "sample_steps" in r.attrs]
        m["sampling.calls"] = len(samp)
        m["sampling.s"] = sum(r.dur for r in samp)
        steps = sum(r.attrs["sample_steps"] for r in draws)
        m["sampling.sample_steps"] = steps
        m["sampling.ns_per_sample_step"] = \
            1e9 * m["sampling.s"] / steps if steps else 0.0
        m["sampling.flagged"] = sum(r.attrs["flagged"] for r in draws)
        m["sampling.noise_buffer_mb"] = max(
            (r.attrs["buffer_bytes"] / MB for r in draws), default=0.0)

        m["scaling.cells"] = sum(r.attrs["cells"] for r in spans
                                 if r.name == "run_sweep")
        m["scaling.sweep_s"] = sum(r.dur for r in self._outermost(
            "scaling", ("run_sweep",)))
        m["scaling.fit_s"] = sum(r.dur for r in self._outermost(
            "scaling", ("fit_scaling",)))
        boots = self._outermost("scaling", ("bootstrap_coefficients",
                                            "rho_curvature_interval"))
        m["scaling.bootstrap_s"] = sum(r.dur for r in boots)
        m["scaling.bootstrap_resamples"] = sum(r.attrs["n_boot"]
                                               for r in boots)

        est = [r for r in spans if r.name == "estimate_constants"]
        m["bounds.estimate_constants_s"] = sum(r.dur for r in est)
        m["bounds.points_evaluated"] = sum(r.attrs["points"] for r in est)
        rhs = [r for r in spans if r.name == "bound_rhs"]
        m["bounds.bound_rhs_calls"] = len(rhs)
        m["bounds.bound_rhs_s"] = sum(r.dur for r in rhs)

        fields = [(i, r) for i, r in enumerate(spans) if r.name == "s2_field"]
        nodes = sum(r.attrs["nodes"] for _, r in fields)
        node_steps = 0
        for i, r in fields:
            node_steps += r.attrs["fixed_node_steps"] or sum(
                o.attrs["steps"] for o in ode if self._under(o, i))
        field_s = sum(r.dur for _, r in fields)
        m["sensitivity.nodes"] = nodes
        m["sensitivity.field_s"] = field_s
        m["sensitivity.ms_per_node"] = 1e3 * field_s / nodes if nodes else 0.0
        m["sensitivity.us_per_node_step"] = \
            1e6 * field_s / node_steps if node_steps else 0.0
        m["sensitivity.missing"] = sum(r.attrs["missing"] for _, r in fields)

        cli_idx = [i for i, r in enumerate(spans) if r.layer == "cli"]
        m["cli.calls"] = len(cli_idx)
        self_s = 0.0
        for i in cli_idx:
            kids = sum(r.dur for r in spans if r.parent == i)
            self_s += spans[i].dur - kids - spans[i].leaf_s
        m["cli.self_s"] = self_s
        m["cli.artifact_write_s"] = sum(r.dur for r in self._outermost(
            "artifact"))
        m["cli.artifact_bytes"] = artifact_bytes
        return m

    # -- replays run after a traced pass, outside its timing ---------------

    def noise_seconds(self) -> float:
        """Time the per-sample stream recipe alone on the recorded draws.

        Each sample owns SeedSequence(entropy=seed, spawn_key=(i,)) ->
        Philox and draws its initial offset (Gaussian initial laws only)
        and then a (steps, m) block of standard normals.
        """
        total = 0.0
        for rec in self.spans:
            a = rec.attrs
            if "sample_steps" not in a:
                continue
            t0 = time.perf_counter()
            for i in range(a["n_samples"]):
                seq = np.random.SeedSequence(entropy=a["seed"],
                                             spawn_key=(i,))
                rng = np.random.Generator(np.random.Philox(seed=seq))
                if a["gaussian"]:
                    rng.standard_normal(a["dim"])
                rng.standard_normal((a["steps"], a["m"]))
            total += time.perf_counter() - t0
        return total

    def sampling_peak_mb(self) -> float:
        """tracemalloc peak of the recorded sampling call with the most noise.

        The call is replayed once with recording off, so tracemalloc's cost
        never reaches a timed span.
        """
        draws = [r for r in self.spans if "sample_steps" in r.attrs]
        if not draws:
            return 0.0
        rec = max(draws, key=lambda r: r.attrs["buffer_bytes"])
        fn, args, kwargs = rec.attrs["call"]
        self.recording = False
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            self.recording = True
        return peak / MB


def _sampling_attrs(rec, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    cfg, model, init = a["config"], a["model"], a["init"]
    steps = cfg.steps_for(a["t"])
    chunk = getattr(sys.modules["linsde.sampling"], "CHUNK_SAMPLES",
                    cfg.n_samples)
    gaussian = init.kind != "fixed" and bool(np.any(init.covariance))
    rec.attrs.update(
        sample_steps=cfg.n_samples * steps, n_samples=cfg.n_samples,
        steps=steps, m=model.dim_noise, dim=model.dim_state,
        seed=cfg.seed, gaussian=gaussian,
        buffer_bytes=min(cfg.n_samples, chunk) * steps * model.dim_noise * 8,
        flagged=int(getattr(result, "n_flagged", 0)),
        call=(fn, args, kwargs))


def _sweep_attrs(rec, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    rec.attrs["cells"] = len(a["rho_values"]) * len(a["epsilon_values"])


def _boot_attrs(rec, fn, args, kwargs, result):
    rec.attrs["n_boot"] = int(_bind(fn, args, kwargs)["n_boot"])


def _estimate_attrs(rec, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    n = a["model"].dim_state
    rec.attrs["points"] = (a["samples_per_axis"] ** n + a["n_jitter"]) \
        * len(a["times"])


def _field_attrs(rec, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    nodes = a["grid"].n_nodes
    fixed = a["method"] == "mazzoni"
    rec.attrs.update(
        nodes=nodes, missing=int(result.n_missing),
        fixed_node_steps=nodes * max(1, round(a["t"] / a["dt"]))
        if fixed else 0)


def _ode_attrs(rec, fn, args, kwargs, result):
    rec.attrs.update(nfev=int(result.nfev), steps=len(result.t) - 1)


_ATTRS = {
    "sample_coupled": _sampling_attrs, "sample_nonlinear": _sampling_attrs,
    "run_sweep": _sweep_attrs,
    "bootstrap_coefficients": _boot_attrs,
    "rho_curvature_interval": _boot_attrs,
    "estimate_constants": _estimate_attrs,
    "s2_field": _field_attrs,
}


def summarise(per_pass: list[dict], noise: list[float], peak_mb: float,
              overhead_s: float) -> dict:
    """Counts from the first pass, times as medians over traced passes."""
    out = {}
    for name in UNITS:
        if name in ("sampling.noise_s", "sampling.step_s",
                    "sampling.peak_traced_mb", "trace.overhead_s"):
            continue
        values = [p[name] for p in per_pass]
        out[name] = values[0] if name in EXACT \
            else statistics.median(values)
    out["sampling.noise_s"] = statistics.median(noise)
    out["sampling.step_s"] = out["sampling.s"] - out["sampling.noise_s"]
    out["sampling.peak_traced_mb"] = peak_mb
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in UNITS}

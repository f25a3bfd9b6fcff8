import dataclasses
import io
import json
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsde import bounds, cli, sampling
from linsde.artifacts import write_record
from linsde.cli import main
from linsde.models import builtin_model
from linsde.sensitivity import (GridSpec, extract_robust_set, robust_header,
                                s2_field)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def simulate_config(tmp_path, **overrides):
    cfg = {
        "command": "simulate",
        "model": {"name": "sine"},
        "init": {"kind": "gaussian", "mean": [0.5], "rho": 0.01},
        "epsilon": 0.01,
        "t": 0.5,
        "simulation": {"dt": 0.001, "n_samples": 200, "seed": 11},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


def artifact_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "provenance.txt"}


class TestSimulate:
    def test_artifacts_and_reproducibility(self, tmp_path):
        cfg = simulate_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert main([path]) == 0
        out = tmp_path / "out"
        assert {"batch.csv", "batch.json", "linearised.json",
                "provenance.txt"} <= {p.name for p in out.iterdir()}
        first = artifact_bytes(out)
        assert main([path]) == 0
        assert artifact_bytes(out) == first  # byte-identical rerun

    def test_json_artifacts_embed_hash_and_seed(self, tmp_path):
        path = write_config(tmp_path, simulate_config(tmp_path))
        assert main([path]) == 0
        law = json.loads((tmp_path / "out" / "linearised.json").read_text())
        assert law["seed"] == 11
        assert len(law["config_sha256"]) == 64
        sidecar = json.loads((tmp_path / "out" / "batch.json").read_text())
        assert sidecar["config_sha256"] == law["config_sha256"]
        assert sidecar["seed"] == 11
        # the horizon is recorded once, beside the simulation settings
        assert sidecar["t"] == law["t"] == 0.5
        assert "t_final" not in sidecar["config"]

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path, simulate_config(tmp_path))
        assert main([path]) == 0
        first = (tmp_path / "out" / "batch.csv").read_bytes()
        assert main([path, "--seed", "99"]) == 0
        assert (tmp_path / "out" / "batch.csv").read_bytes() != first
        law = json.loads((tmp_path / "out" / "linearised.json").read_text())
        assert law["seed"] == 99

    def test_out_override(self, tmp_path):
        path = write_config(tmp_path, simulate_config(tmp_path))
        target = tmp_path / "elsewhere"
        assert main([path, "--out", str(target)]) == 0
        assert (target / "batch.csv").exists()


class TestHistogram:
    def test_densities_normalised(self, tmp_path):
        cfg = simulate_config(tmp_path, command="histogram")
        cfg["simulation"]["n_samples"] = 400
        path = write_config(tmp_path, cfg)
        assert main([path]) == 0
        rows = (tmp_path / "out" / "histogram.csv").read_text().strip()
        lines = rows.splitlines()[1:]
        mass = sum(float(r.split(",")[3])
                   * (float(r.split(",")[2]) - float(r.split(",")[1]))
                   for r in lines)
        assert mass == pytest.approx(1.0, abs=1e-8)
        # the Gaussian column integrates to about one as well
        gmass = sum(float(r.split(",")[4])
                    * (float(r.split(",")[2]) - float(r.split(",")[1]))
                    for r in lines)
        assert gmass == pytest.approx(1.0, abs=0.15)

    def test_degenerate_distribution_exits_3(self, tmp_path):
        cfg = simulate_config(tmp_path, command="histogram", epsilon=0.0)
        cfg["init"] = {"kind": "fixed", "point": [0.5]}
        path = write_config(tmp_path, cfg)
        assert main([path]) == 3


class TestValidateScaling:
    def test_sweep_and_fits(self, tmp_path):
        cfg = {
            "command": "validate-scaling",
            "model": {"name": "sine"},
            "x0": [0.5],
            "epsilon_grid": [0.01, 0.03, 0.06, 0.1],
            "rho_grid": [0.0],
            "t": 0.5,
            "r": [1],
            "basis": ["const_plus_eps2", "loglog_line"],
            "simulation": {"dt": 0.002, "n_samples": 300, "seed": 3},
            "output_dir": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, cfg)
        assert main([path]) == 0
        sweep_csv = (tmp_path / "out" / "sweep_r1.csv").read_text()
        assert len(sweep_csv.strip().splitlines()) == 5  # header + 4 cells
        fits = json.loads((tmp_path / "out" / "fits.json").read_text())
        assert len(fits["fits"]) == 2
        for fit in fits["fits"]:
            assert fit["r"] == 1
            assert 0.0 <= fit["r_squared"] <= 1.0
        slopes = [f["slope"] for f in fits["fits"]
                  if f["basis"] == "loglog_line"]
        assert slopes and 1.0 < slopes[0] < 3.0

    @pytest.mark.parametrize("model, x0, scheme", [
        ("linear_multiplicative", [2.0], "milstein_1d"),
        ("meandering_jet", [0.0, 1.0], "euler_maruyama")])
    def test_files_independent_of_chunk_and_block_sizes(
            self, tmp_path, monkeypatch, model, x0, scheme):
        cfg = {
            "command": "validate-scaling",
            "model": {"name": model},
            "x0": x0,
            "epsilon_grid": [0.01, 0.03, 0.06, 0.1],
            "rho_grid": [0.0, 0.01, 0.05],
            "t": 0.33,
            "r": [1, 2],
            "basis": ["const_plus_eps2"],
            "simulation": {"dt": 0.01, "n_samples": 30, "seed": 4,
                           "scheme": scheme},
        }
        path = write_config(tmp_path, cfg)
        assert main([path, "--out", str(tmp_path / "out")]) == 0
        default = artifact_bytes(tmp_path / "out")
        assert set(default) == {"sweep_r1.csv", "sweep_r2.csv", "fits.json"}
        monkeypatch.setattr(sampling, "CHUNK_SAMPLES", 7)
        monkeypatch.setattr(sampling, "BLOCK_STEPS", 5)
        assert main([path, "--out", str(tmp_path / "out")]) == 0
        assert artifact_bytes(tmp_path / "out") == default

    def test_repeated_grid_values_with_full_rank_accepted(self, tmp_path):
        # the fit needs rows and rank, not distinct values: four cells at
        # two noise scales determine the two coefficients
        cfg = {
            "command": "validate-scaling",
            "model": {"name": "sine"},
            "x0": [0.5],
            "epsilon_grid": [0.01, 0.01, 0.1, 0.1],
            "rho_grid": [0.0],
            "t": 0.5,
            "basis": "const_plus_eps2",
            "simulation": {"dt": 0.01, "n_samples": 20, "seed": 3},
            "output_dir": str(tmp_path / "out"),
        }
        assert main([write_config(tmp_path, cfg)]) == 0
        fits = json.loads((tmp_path / "out" / "fits.json").read_text())
        assert len(fits["fits"]) == 1

    def test_too_small_grid_rejected(self, tmp_path):
        cfg = {
            "command": "validate-scaling",
            "model": {"name": "sine"},
            "x0": [0.5],
            "epsilon_grid": [0.01, 0.1],
            "rho_grid": [0.0],
            "t": 0.5,
            "basis": "const_plus_eps2",
            "output_dir": str(tmp_path / "out"),
        }
        assert main([write_config(tmp_path, cfg)]) == 2


class TestBound:
    def test_exact_linearisation_total_zero(self, tmp_path):
        cfg = {
            "command": "bound",
            "model": {"name": "linear_additive"},
            "bound": {"r": 1, "t": 1.0, "epsilon": 0.1, "rho": 0.1},
            "output_dir": str(tmp_path / "out"),
        }
        assert main([write_config(tmp_path, cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "bound.json").read_text())
        assert payload["total"] == 0.0

    def test_explicit_constants(self, tmp_path):
        cfg = {
            "command": "bound",
            "model": {"name": "sine"},
            "bound": {"r": 1, "t": 1.0, "epsilon": 0.05, "delta_r": 0.0,
                      "delta_2r": 0.0,
                      "constants": {"k_grad_u": 1.0, "k_hess_u": 1.0,
                                    "k_grad_sigma": 0.0, "k_sigma": 1.0}},
            "output_dir": str(tmp_path / "out"),
        }
        assert main([write_config(tmp_path, cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "bound.json").read_text())
        assert payload["term_cross"] == 0.0
        assert payload["term_initial"] == 0.0
        assert payload["total"] > 0.0


class TestFieldCommands:
    def field_config(self, tmp_path):
        return {
            "command": "s2-field",
            "model": {"name": "meandering_jet"},
            "grid": [[0.0, 3.0, 5], [0.0, 3.0, 4]],
            "t": 0.5,
            "field": {"method": "mazzoni", "dt": 0.005},
            "output_dir": str(tmp_path / "out"),
        }

    def test_field_csv(self, tmp_path):
        path = write_config(tmp_path, self.field_config(tmp_path))
        assert main([path]) == 0
        lines = (tmp_path / "out" / "field.csv").read_text().strip().splitlines()
        assert lines[0] == "x1,x2,s2"
        assert len(lines) == 21
        values = np.array([float(l.split(",")[-1]) for l in lines[1:]])
        assert np.all(values > 0) and np.all(np.isfinite(values))
        meta = json.loads((tmp_path / "out" / "field.json").read_text())
        assert meta["grid"] == [[0.0, 3.0, 5], [0.0, 3.0, 4]]

    @pytest.mark.parametrize("command", ["s2-field", "robust-set"])
    def test_field_is_labelled_by_the_config_model(self, tmp_path,
                                                   monkeypatch, command):
        # a copy of the catalog model made by dataclasses.replace has no
        # recipe; the CLI names the model its config names, so the
        # artifacts do not change
        cfg = {**self.field_config(tmp_path), "command": command,
               "threshold": 1.0}
        path = write_config(tmp_path, cfg)
        assert main([path]) == 0
        first = artifact_bytes(tmp_path / "out")
        build = cli.builtin_model
        monkeypatch.setattr(cli, "builtin_model",
                            lambda *a, **k: dataclasses.replace(build(*a, **k)))
        assert main([path]) == 0
        assert artifact_bytes(tmp_path / "out") == first

    def test_robust_set(self, tmp_path):
        cfg = self.field_config(tmp_path)
        cfg["command"] = "robust-set"
        cfg["threshold"] = 1e9
        path = write_config(tmp_path, cfg)
        assert main([path]) == 0
        meta = json.loads((tmp_path / "out" / "robust.json").read_text())
        assert meta["robust_fraction"] == 1.0
        # a library caller writes the same record, without the run keys
        field = s2_field(builtin_model("meandering_jet"),
                         GridSpec(((0.0, 3.0, 5), (0.0, 3.0, 4))), 0.5,
                         method="mazzoni", dt=0.005)
        robust = extract_robust_set(field, 1e9)
        write_record(tmp_path / "lib.json", robust_header(field, robust))
        lib = json.loads((tmp_path / "lib.json").read_text())
        assert lib == {k: v for k, v in meta.items()
                       if k not in ("config_sha256", "seed")}
        lines = (tmp_path / "out" / "robust.csv").read_text().strip().splitlines()
        assert lines[0] == "x1,x2,s2,robust"
        assert all(line.endswith(",1") for line in lines[1:])


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main([str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main([str(path)]) == 2

    def test_unknown_command(self, tmp_path):
        assert main([write_config(tmp_path, {"command": "fly"})]) == 2

    def test_unknown_model(self, tmp_path):
        cfg = simulate_config(tmp_path)
        cfg["model"]["name"] = "pendulum"
        assert main([write_config(tmp_path, cfg)]) == 2

    def test_missing_field_reports_path(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path)
        del cfg["init"]
        assert main([write_config(tmp_path, cfg)]) == 2
        assert "init" in capsys.readouterr().err

    def test_bad_model_params(self, tmp_path):
        cfg = simulate_config(tmp_path)
        cfg["model"] = {"name": "ornstein_uhlenbeck", "params": {"a": -1.0}}
        assert main([write_config(tmp_path, cfg)]) == 2

    def test_bad_grid_dimension(self, tmp_path):
        cfg = {
            "command": "s2-field",
            "model": {"name": "sine"},
            "grid": [[0.0, 1.0, 3], [0.0, 1.0, 3]],
            "t": 0.5,
            "output_dir": str(tmp_path / "out"),
        }
        assert main([write_config(tmp_path, cfg)]) == 2

    def test_negative_horizon(self, tmp_path):
        cfg = simulate_config(tmp_path, t=-1.0)
        assert main([write_config(tmp_path, cfg)]) == 2


def _probe_base(tmp_path, command):
    out = str(tmp_path / "out")
    if command in ("simulate", "histogram"):
        return simulate_config(tmp_path, command=command)
    if command == "validate-scaling":
        return {"command": command, "model": {"name": "sine"}, "x0": [0.5],
                "epsilon_grid": [0.01, 0.03, 0.06, 0.1], "rho_grid": [0.0],
                "basis": ["const_plus_eps2"], "r": [1], "t": 0.5,
                "output_dir": out}
    if command == "bound":
        return {"command": command, "model": {"name": "sine"},
                "bound": {"r": 1, "t": 1.0, "epsilon": 0.05},
                "output_dir": out}
    return {"command": command, "model": {"name": "meandering_jet"},
            "grid": [[0.0, 3.0, 3], [0.0, 3.0, 2]], "t": 0.5,
            "field": {"method": "mazzoni"}, "output_dir": out}


#: (command, dotted config path, bad value, extra command-line arguments)
BAD_INPUTS = [
    ("simulate", "simulation.n_samples", True, []),
    ("simulate", "simulation.dt", "x", []),
    ("s2-field", "field.tol", "x", []),
    ("simulate", None, None, ["--seed", "-1"]),
    ("simulate", "epsilon", float("nan"), []),
    ("simulate", "t", float("inf"), []),
    ("s2-field", "field.dt", 0, []),
    ("s2-field", "workers", 0, []),
    ("validate-scaling", "epsilon_grid", [0.01, "q", 0.06, 0.1], []),
    ("histogram", "histogram.bins", -3, []),
    ("s2-field", "workers", True, []),
    ("bound", "bound.r", True, []),
    ("bound", "bound.constants", {"k_grad_u": 1.0, "k_hess_u": 1.0,
                                  "k_grad_sigma": 0.0, "k_sigma": "x"}, []),
    ("s2-field", "grid", [[0, 1, True], [0, 1, 2.5]], []),
    ("s2-field", "grid", [[float("nan"), 3, 3], [0, 3, 2]], []),
    ("histogram", "histogram.bins", "q", []),
    ("simulate", "init", {"kind": "gaussian", "mean": [0.5],
                          "covariance": [[float("nan")]]}, []),
    # rejected by the sampler's own cell checks, run before any stepping
    ("simulate", "epsilon", -1, []),
    ("simulate", "init", {"kind": "fixed", "point": [0.5, 1]}, []),
    ("simulate", "init", {"kind": "fixed", "point": []}, []),
    ("simulate", "init", {"kind": "gaussian", "mean": [0.5],
                          "covariance": [[-1]]}, []),
    ("simulate", None, {"model": {"name": "meandering_jet"},
                        "init": {"kind": "fixed", "point": [0.0, 1.0]},
                        "simulation": {"scheme": "milstein_1d"}}, []),
    ("validate-scaling", "x0", [0.5, 1], []),
    ("validate-scaling", "epsilon_grid", [0.01, -0.03, 0.06, 0.1], []),
    ("validate-scaling", "rho_grid", [0.0, -0.1], []),
    # rejected by the other library checks, before the sweep or the bound
    ("bound", "bound", {"r": 0, "t": 1.0, "epsilon": 0.05, "rho": 0.1}, []),
    ("bound", "bound.rho", -1, []),
    ("validate-scaling", "r", [-1], []),
    ("validate-scaling", "epsilon_grid", [0.05] * 4, []),
    ("validate-scaling", None, {"epsilon_grid": [0, 0.03, 0.06, 0.1],
                                "basis": "loglog_line"}, []),
    # a 10**9-dimensional Brownian motion needs about 7 EiB for its
    # diffusion matrix: the allocation fails at once on any machine
    ("simulate", "model", {"name": "brownian", "params": {"dim": 10 ** 9}},
     []),
    ("simulate", "simulation", 5, ["--seed", "3"]),
    # rho ** 2 overflows: found by the property test below
    ("simulate", "init.rho", 1e200, []),
    ("validate-scaling", "rho_grid", [0.0, 1e200], []),
    # the bound's arguments are checked before its constants are estimated
    ("bound", None, {"model": {"name": "meandering_jet"},
                     "bound": {"r": 0.5, "t": 1.0, "epsilon": 0.05,
                               "constants": "estimate"}}, []),
    ("bound", None, {"model": {"name": "meandering_jet"},
                     "bound": {"r": 1, "t": -1, "epsilon": 0.05,
                               "constants": "estimate"}}, []),
    ("bound", "bound", {"r": 1, "t": 1.0, "epsilon": 0.05, "delta_r": -0.1,
                        "constants": "estimate"}, []),
    # a rank-deficient basis design, and basis entries that are not names
    ("validate-scaling", None, {"rho_grid": [0.1, 0.1, 0.1, 0.1],
                                "basis": "const_plus_rho2"}, []),
    ("validate-scaling", "basis", [["const_plus_eps2"]], []),
    ("validate-scaling", "basis", [{}], []),
    ("validate-scaling", "basis", ["const_plus_eps2", 1], []),
    # catalog parameters go through the argument rules: a bool is no number
    ("s2-field", "model.params", {"K": True}, []),
    ("simulate", "model", {"name": "ornstein_uhlenbeck",
                           "params": {"a": True}}, []),
    # coefficient shapes that used to escape as an IndexError
    ("simulate", "model", {"name": "linear_additive",
                           "params": {"a_matrix": 1.0}}, []),
    ("simulate", "model", {"name": "linear_additive",
                           "params": {"a_matrix": [[1.0]], "b_vector": [0.0],
                                      "sigma_matrix": [[]]}}, []),
    # the initial uncertainty is given once: as rho or as the deltas
    ("bound", "bound", {"r": 1, "t": 1.0, "epsilon": 0.05, "rho": 0.01,
                        "delta_r": 0.1}, []),
    ("bound", "bound", {"r": 1, "t": 1.0, "epsilon": 0.05, "rho": 0.01,
                        "delta_2r": 0.0}, []),
    # coefficient matrices go through the array rule: a bool or a numeric
    # string is no entry
    ("simulate", "model", {"name": "linear_additive",
                           "params": {"a_matrix": [[True]], "b_vector": [0.0],
                                      "sigma_matrix": [[1.0]]}}, []),
]


class _NumericalWork(Exception):
    """A numerical entry point of the command line was reached."""


def _stub_numerical_work(monkeypatch, error=_NumericalWork):
    """Make every numerical entry point of the command line raise ``error``."""
    def numerical_work(*args, **kwargs):
        raise error("numerical work started")

    for owner, name in ((cli, "sample_coupled"), (cli, "run_sweep"),
                        (cli, "s2_field"), (bounds, "bound_rhs"),
                        (bounds, "estimate_constants")):
        monkeypatch.setattr(owner, name, numerical_work)


@pytest.mark.parametrize("command,path,value,argv", BAD_INPUTS)
def test_bad_input_exits_2_before_numerical_work(tmp_path, monkeypatch,
                                                 capsys, command, path,
                                                 value, argv):
    _stub_numerical_work(monkeypatch)
    cfg = _probe_base(tmp_path, command)
    if path is None:
        cfg.update(value or {})
    else:
        *parents, leaf = path.split(".")
        node = cfg
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    assert main([write_config(tmp_path, cfg), *argv]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("r", [400, 3000])
def test_overflowing_moment_constant_is_a_delta_error(tmp_path, monkeypatch,
                                                      capsys, r):
    # the Gaussian moment constant is +inf at these orders and rho^r
    # underflows to 0, so delta_r reads NaN; at r = 3000 the constant used
    # to escape as a bare OverflowError
    _stub_numerical_work(monkeypatch)
    cfg = _probe_base(tmp_path, "bound")
    cfg["bound"] = {"r": r, "t": 1.0, "epsilon": 0.05, "rho": 0.01,
                    "constants": "estimate"}
    with pytest.warns(RuntimeWarning, match="vacuous"):
        assert main([write_config(tmp_path, cfg)]) == 2
    assert "delta_r must be finite and non-negative, got nan" \
        in capsys.readouterr().err


def test_failed_allocation_exits_3(tmp_path, capsys):
    # 10**15 samples need about 7 PiB: the allocation fails at once on any
    # machine
    cfg = simulate_config(tmp_path)
    cfg["simulation"]["n_samples"] = 10 ** 15
    assert main([write_config(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command, artifact", [("s2-field", "field.csv"),
                                               ("simulate", "batch.csv")])
def test_unwritable_artifact_exits_3(tmp_path, capsys, command, artifact):
    # a directory where the artifact belongs makes the write fail
    if command == "simulate":
        cfg = simulate_config(tmp_path)
    else:
        cfg = {"command": "s2-field",
               "model": {"name": "ornstein_uhlenbeck"},
               "grid": [[-1.0, 1.0, 5]], "t": 0.5}
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert main([write_config(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert str(out / artifact) in err


def _leaves(node, path=()):
    """Paths of the values of a config that are not sections."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


_DELETE = object()
#: integers that can end up as sizes are either small or far too large to
#: allocate, so no example ever allocates much
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.integers(10 ** 9, 10 ** 12), st.floats(),
    st.sampled_from([0.0, -1.0, 0.5, 1e-300, 1e200, -1e200, float("nan"),
                     float("inf")]),
    st.sampled_from(["fixed", "gaussian", "rk45", "mazzoni", "milstein_1d",
                     "sine", "brownian", "meandering_jet", "simulate",
                     "estimate", "loglog_line", "fd"]),
    st.text("abcxyz_", max_size=4))
_VALUES = st.one_of(
    _SCALARS, st.lists(_SCALARS, max_size=4),
    st.lists(st.lists(_SCALARS, max_size=4), max_size=3),
    st.dictionaries(st.sampled_from(["name", "kind", "point", "dt"]),
                    _SCALARS, max_size=2),
    st.just(_DELETE))


#: the configs the property test mutates: each command's probe config (the
#: s2-field one with jet parameters), and a bound with a Gaussian start and
#: an explicit constants mapping
_FUZZ_BASES = cli.COMMANDS + ("bound with rho and constants",)


def _fuzz_base(name):
    if name == "s2-field":
        # model parameters, so that mutations reach the catalog's rules
        cfg = _probe_base(Path("."), name)
        cfg["model"]["params"] = {"K": 4.0, "eps_mj": 0.3}
        return cfg
    if name in cli.COMMANDS:
        return _probe_base(Path("."), name)
    cfg = _probe_base(Path("."), "bound")
    cfg["bound"].update(rho=0.1, constants={
        "k_grad_u": 1.0, "k_hess_u": 1.0, "k_grad_sigma": 0.5, "k_sigma": 1.0,
        "n": 1})
    return cfg


@st.composite
def _mutated_configs(draw):
    """A fuzz base config with one or two leaves each replaced by an
    arbitrary value or deleted."""
    cfg = _fuzz_base(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        *parents, leaf = draw(st.sampled_from(sorted(_leaves(cfg))))
        node = cfg
        for part in parents:
            node = node[part]
        value = draw(_VALUES)
        if value is _DELETE:
            del node[leaf]
        else:
            node[leaf] = value
    return cfg


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(_mutated_configs())
def test_mutated_config_exits_2_or_reaches_numerical_work(cfg):
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.chdir(tmp)  # relative output directories land here
        _stub_numerical_work(monkeypatch)
        err = io.StringIO()
        try:
            with redirect_stderr(err):
                code = main([write_config(Path(tmp), cfg)])
        except _NumericalWork:
            return
        assert code == 2 and err.getvalue().startswith("config error:"), \
            (code, err.getvalue())

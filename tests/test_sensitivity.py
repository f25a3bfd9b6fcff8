import dataclasses
import inspect
import math

import numpy as np
import pytest

from linsde import linearise, sensitivity
from linsde.artifacts import write_record
from linsde.exceptions import IntegrationFailure
from linsde.linearise import InitialCondition, linearised_distribution
from linsde.models import VectorFieldModel, builtin_model
from linsde.sampling import SimulationConfig, sample_cells, sample_coupled
from linsde.sensitivity import (GridSpec, S2Field, check_field,
                                extract_robust_set, read_field,
                                s2_empirical_limit, s2_field, s2_point,
                                write_robust_csv)

from conftest import cubic_model

OU_S2_T1 = (1.0 - math.exp(-2.0)) / 2.0


class TestS2Point:
    def test_ou_analytic(self, ou):
        assert s2_point(ou, [1.0], 1.0) == pytest.approx(OU_S2_T1, abs=1e-8)

    def test_brownian_equals_time(self, brownian2):
        for t in (0.25, 0.7, 1.3):
            assert s2_point(brownian2, [0.1, -0.2], t) == pytest.approx(
                t, abs=1e-9)

    def test_zero_horizon(self, jet):
        assert s2_point(jet, [0.3, 1.1], 0.0) == 0.0
        assert s2_point(jet, [0.3, 1.1], 0.0, method="mazzoni") == 0.0

    @pytest.mark.parametrize("x0, message", [([1.0, 2.0, 3.0], "shape"),
                                             ([math.nan, 2.0], "finite"),
                                             ([math.inf, 2.0], "finite")])
    def test_bad_point_rejected_at_zero_horizon(self, jet, x0, message):
        # t = 0 needs no solve, but the point is checked all the same
        with pytest.raises(ValueError, match=message):
            s2_point(jet, x0, 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_horizon_rejected_before_solve(self, monkeypatch, ou,
                                                     t):
        monkeypatch.setattr(linearise, "_dormand_prince", None)
        with pytest.raises(ValueError, match="finite"):
            s2_point(ou, [0.5], t)

    def test_rayleigh_quotient_identity(self, jet):
        # the value dominates every unit-direction projected variance and
        # is attained in the top eigendirection (power-method probe)
        x0 = [0.3, 1.1]
        value = s2_point(jet, x0, 1.0)
        cov = linearised_distribution(jet, InitialCondition.fixed(x0), 1.0,
                                      epsilon=1.0).covariance
        rng = np.random.default_rng(11)
        probes = rng.standard_normal((64, 2))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        quotients = np.einsum("pi,ij,pj->p", probes, cov, probes)
        scale = max(value, 1.0)
        assert np.all(quotients <= value + 1e-9 * scale)
        vec = np.array([1.0, 0.7])
        for _ in range(200):  # independent power iteration
            vec = cov @ vec
            vec /= np.linalg.norm(vec)
        attained = float(vec @ cov @ vec)
        assert value == pytest.approx(attained, abs=1e-9 * scale)

    def test_mazzoni_method_close(self, jet):
        a = s2_point(jet, [0.3, 1.1], 1.0)
        b = s2_point(jet, [0.3, 1.1], 1.0, method="mazzoni", dt=1e-3)
        assert b == pytest.approx(a, rel=1e-4)


class TestGridSpec:
    def test_points_row_major(self):
        grid = GridSpec(((0.0, 1.0, 2), (0.0, 2.0, 3)))
        pts = grid.points()
        assert pts.shape == (6, 2)
        np.testing.assert_allclose(pts[0], [0.0, 0.0])
        np.testing.assert_allclose(pts[1], [0.0, 1.0])  # last axis fastest
        np.testing.assert_allclose(pts[-1], [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(((0.0, 1.0, 0),))
        with pytest.raises(ValueError):
            GridSpec(((1.0, 0.0, 4),))

    @pytest.mark.parametrize("axis, message", [
        ((math.nan, 1.0, 3), "finite"), ((0.0, math.nan, 3), "finite"),
        ((-math.inf, 1.0, 3), "finite"), ((0.0, math.inf, 3), "finite"),
        ((0.0, 1.0, 2.5), "integer"), ((0.0, 1.0, 3.0), "integer"),
        ((0.0, 1.0, True), "integer")])
    def test_rejects_nonfinite_bounds_and_non_integer_counts(
            self, monkeypatch, ou, axis, message):
        # a NaN bound used to reach the first node's solve, which failed
        # with the solver's own error about a non-finite initial state
        monkeypatch.setattr(linearise, "_dormand_prince", None)
        with pytest.raises(ValueError, match=f"axis .*{message}"):
            s2_field(ou, GridSpec((axis,)), 1.0)


class TestS2Field:
    def test_single_node_equals_point(self, jet):
        grid = GridSpec(((0.3, 0.3, 1), (1.1, 1.1, 1)))
        field = s2_field(jet, grid, 1.0, tol=1e-8)
        assert field.values[0] == s2_point(jet, [0.3, 1.1], 1.0, tol=1e-8)

    def test_constant_coefficient_field_uniform(self, linadd):
        grid = GridSpec(((-1.0, 1.0, 3), (-1.0, 1.0, 3)))
        field = s2_field(linadd, grid, 1.0)
        spread = field.values.max() - field.values.min()
        assert spread <= 1e-8 * field.values.mean()

    def test_worker_count_independence(self, jet):
        grid = GridSpec(((0.0, 3.0, 10), (0.0, 3.0, 8)))
        serial = s2_field(jet, grid, 0.5)
        twice = s2_field(jet, grid, 0.5, workers=2)
        np.testing.assert_array_equal(serial.values, twice.values)
        fast1 = s2_field(jet, grid, 0.5, method="mazzoni")
        fast2 = s2_field(jet, grid, 0.5, method="mazzoni", workers=2)
        np.testing.assert_array_equal(fast1.values, fast2.values)

    @pytest.mark.parametrize("rebuild", ["replace", "user"])
    def test_changed_catalog_model_runs_serially(self, ou, rebuild):
        # OU with its drift -y replaced by -3y keeps the catalog name and
        # params, but workers would rebuild the stock model:
        # (1 - e^{-2}) / 2 instead of (1 - e^{-6}) / 6
        coefficients = dict(
            drift=lambda x, t: -3.0 * np.asarray(x, dtype=float),
            drift_gradient=lambda x, t: np.full(np.shape(x) + (1,), -3.0))
        if rebuild == "replace":
            faster = dataclasses.replace(ou, **coefficients)
        else:
            faster = VectorFieldModel(
                name=ou.name, dim_state=1, dim_noise=1,
                diffusion=ou.diffusion, constants=ou.constants,
                params=ou.params, **coefficients)
        grid = GridSpec(((-1.0, 1.0, 3),))
        serial = s2_field(faster, grid, 1.0)
        with pytest.warns(RuntimeWarning, match="serially"):
            twice = s2_field(faster, grid, 1.0, workers=2)
        np.testing.assert_array_equal(twice.values, serial.values)
        np.testing.assert_allclose(serial.values, (1.0 - math.exp(-6.0)) / 6.0,
                                   rtol=1e-5)
        # and the header does not name the stock model, which gives
        # (1 - e^{-2}) / 2 under {"a": 1.0}
        for field in (serial, twice):
            assert (field.header()["model"], field.header()["params"]) == (
                "user:ornstein_uhlenbeck", {})

    def test_catalog_header_holds_the_full_parameter_set(self, tmp_path):
        # the recipe holds the parameters that were passed, none here; the
        # header holds them all, as it always has
        ou = builtin_model("ornstein_uhlenbeck")
        assert ou._recipe == ("ornstein_uhlenbeck", {})
        field = s2_field(ou, GridSpec(((-1.0, 1.0, 3),)), 1.0)
        write_record(tmp_path / "f.json", field.header())
        assert (tmp_path / "f.json").read_text() == (
            '{\n  "grid": [\n    [\n      -1.0,\n      1.0,\n      3\n    ]\n'
            '  ],\n  "model": "ornstein_uhlenbeck",\n  "n_missing": 0,\n'
            '  "params": {\n    "a": 1.0\n  },\n  "t": 1.0\n}\n')

    def test_fast_path_close_to_adaptive(self, jet):
        grid = GridSpec(((0.0, 3.0, 5), (0.0, 3.0, 4)))
        slow = s2_field(jet, grid, 1.0, tol=1e-8)
        fast = s2_field(jet, grid, 1.0, method="mazzoni", dt=1e-3)
        rel = np.max(np.abs(slow.values - fast.values) / slow.values)
        assert rel < 1e-3

    @pytest.mark.parametrize("x0", [[0.3, 1.1], [0.0, 1.0], [2.5, 0.4]])
    def test_one_node_mazzoni_field_equals_point(self, jet, x0):
        grid = GridSpec(tuple((c, c, 1) for c in x0))
        field = s2_field(jet, grid, 1.0, method="mazzoni")
        assert field.values[0] == s2_point(jet, x0, 1.0, method="mazzoni")

    @pytest.mark.parametrize("method", ["rk45", "mazzoni"])
    def test_values_independent_of_block(self, monkeypatch, jet, method):
        grid = GridSpec(((0.0, 3.0, 6), (0.0, 3.0, 5)))
        whole = s2_field(jet, grid, 0.5, method=method).values
        order = np.random.default_rng(0).permutation(grid.n_nodes)
        shuffled = sensitivity._field_chunk(jet, grid.points()[order], 0.5,
                                            method, 1e-6, 2e-3)
        np.testing.assert_array_equal(shuffled, whole[order])
        monkeypatch.setattr(sensitivity, "BLOCK_NODES", 7)
        np.testing.assert_array_equal(
            s2_field(jet, grid, 0.5, method=method).values, whole)

    @pytest.mark.parametrize("method", ["rk45", "mazzoni"])
    @pytest.mark.parametrize("count, rows", [
        (1, [1]), (sensitivity.BLOCK_NODES, [sensitivity.BLOCK_NODES]),
        (sensitivity.BLOCK_NODES + 1, [sensitivity.BLOCK_NODES // 2 + 1,
                                       sensitivity.BLOCK_NODES // 2])])
    def test_serial_field_runs_in_fewest_kernel_calls(self, monkeypatch, ou,
                                                      method, count, rows):
        calls = []

        def counting(model, x0, *args):
            calls.append(len(x0))
            return linearise._propagate(model, x0, *args)

        monkeypatch.setattr(sensitivity, "_propagate", counting)
        s2_field(ou, GridSpec(((-1.0, 1.0, count),)), 0.1, method=method)
        assert calls == rows

    @staticmethod
    def _inline_pool(monkeypatch):
        """Stand in for the process pool: record its size and each task's
        block, and run the tasks in this process."""
        seen = {"max_workers": [], "blocks": []}

        class Pool:
            def __init__(self, max_workers):
                seen["max_workers"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                payloads = list(payloads)
                seen["blocks"] += [len(p[2]) for p in payloads]
                return map(fn, payloads)

        monkeypatch.setattr(sensitivity, "ProcessPoolExecutor", Pool)
        return seen

    def test_blocks_split_evenly_over_workers(self, monkeypatch, jet):
        grid = GridSpec(((0.0, 3.0, 12), (0.0, 3.0, 10)))
        serial = s2_field(jet, grid, 0.5).values
        monkeypatch.setattr(sensitivity.os, "cpu_count", lambda: 4)
        seen = self._inline_pool(monkeypatch)
        twice = s2_field(jet, grid, 0.5, workers=2).values
        assert seen == {"max_workers": [2], "blocks": [60, 60]}
        np.testing.assert_array_equal(twice, serial)

    @pytest.mark.parametrize("cpus, pool", [(3, [3]), (1, []), (None, [])])
    def test_workers_are_capped_at_the_cpu_count(self, monkeypatch, jet, cpus,
                                                 pool):
        # a pool of the requested size would fork that many processes; the
        # field does not depend on the partition, so the cap keeps its bits
        grid = GridSpec(((0.0, 3.0, 12), (0.0, 3.0, 10)))
        serial = s2_field(jet, grid, 0.5).values
        monkeypatch.setattr(sensitivity.os, "cpu_count", lambda: cpus)
        seen = self._inline_pool(monkeypatch)
        capped = s2_field(jet, grid, 0.5, workers=10 ** 6).values
        assert seen["max_workers"] == pool
        np.testing.assert_array_equal(capped, serial)

    def test_fewer_nodes_than_workers_make_no_empty_block(self, monkeypatch,
                                                          jet):
        grid = GridSpec(((0.3, 0.3, 1), (1.1, 1.1, 1)))
        monkeypatch.setattr(sensitivity.os, "cpu_count", lambda: 4)
        seen = self._inline_pool(monkeypatch)
        field = s2_field(jet, grid, 0.5, workers=3)
        assert seen == {"max_workers": [1], "blocks": [1]}
        assert field.values[0] == s2_point(jet, [0.3, 1.1], 0.5, tol=1e-6)

    @pytest.mark.parametrize("method", ["rk45", "mazzoni"])
    def test_blow_up_node_is_nan_without_touching_the_block(self, sine,
                                                            method):
        # dy/dt = y^3 from y0 blows up at t = 1 / (2 y0^2): at 0.125 from
        # 2, after t = 0.25 from 1 and 0.5
        nodes = np.array([[1.0], [2.0], [0.5]])
        values = sensitivity._field_chunk(cubic_model(sine), nodes, 0.25,
                                          method, 1e-6, 1e-3)
        assert np.isnan(values[1])
        np.testing.assert_array_equal(
            values[[0, 2]],
            sensitivity._field_chunk(cubic_model(sine), nodes[[0, 2]], 0.25,
                                     method, 1e-6, 1e-3))
        assert np.all(np.isfinite(values[[0, 2]]))

    def test_values_positive_finite(self, jet):
        grid = GridSpec(((0.0, math.pi, 6), (0.0, math.pi, 6)))
        field = s2_field(jet, grid, 1.0, method="mazzoni")
        assert field.n_missing == 0
        assert np.all(np.isfinite(field.values))
        assert np.all(field.values > 0)

    def test_dimension_mismatch(self, sine):
        with pytest.raises(ValueError, match="dimension"):
            s2_field(sine, GridSpec(((0.0, 1.0, 2), (0.0, 1.0, 2))), 1.0)

    @pytest.mark.parametrize("option,value,message", [
        ("workers", 0, "workers"), ("method", "euler", "method"),
        ("tol", 0.0, "tol must"), ("dt", -1e-3, "dt must"),
        ("tol", math.nan, "tol must"), ("dt", math.inf, "dt must")])
    def test_arguments_checked_before_any_node(self, monkeypatch, jet,
                                               option, value, message):
        # with tol = 0 every node used to fail and the field raised
        # FieldError only after the whole grid was solved
        monkeypatch.setattr(sensitivity, "_field_chunk", None)
        grid = GridSpec(((0.0, 1.0, 2), (0.0, 1.0, 2)))
        with pytest.raises(ValueError, match=message):
            s2_field(jet, grid, 1.0, **{option: value})

    @pytest.mark.parametrize("method", ["rk45", "mazzoni"])
    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_bad_horizon_rejected_before_any_node(self, monkeypatch, ou,
                                                  method, t):
        # mazzoni used to return s2 = -2.78 at t = -1
        monkeypatch.setattr(sensitivity, "_field_chunk", None)
        grid = GridSpec(((0.0, 1.0, 2),))
        with pytest.raises(ValueError, match="t must be"):
            s2_field(ou, grid, t, method=method)

    def test_check_field_defaults_are_s2_fields(self):
        def defaults(fn):
            return {k: p.default for k, p in
                    inspect.signature(fn).parameters.items()
                    if p.default is not p.empty}

        assert defaults(check_field) == {
            k: v for k, v in defaults(s2_field).items()
            if k in defaults(check_field)}
        assert set(defaults(check_field)) == {"workers", "tol", "method",
                                              "dt"}

    def test_csv_roundtrip(self, tmp_path, jet):
        grid = GridSpec(((0.0, 2.0, 3), (0.5, 1.5, 2)))
        field = s2_field(jet, grid, 0.5, method="mazzoni")
        csv, meta = tmp_path / "f.csv", tmp_path / "f.json"
        field.write_csv(csv)
        write_record(meta, field.header())
        back = read_field(csv, meta)
        np.testing.assert_array_equal(back.values, field.values)
        assert back.grid == field.grid
        assert back.t == field.t and back.model_name == field.model_name

    @pytest.mark.parametrize("axes", [((0.0, 2.0, 3), (0.5, 1.5, 2)),
                                      ((0.3, 0.3, 1), (1.1, 1.1, 1))])
    def test_field_and_robust_csv_read_back(self, tmp_path, jet, axes):
        # the s2 column is read by its name, not as the last column, which
        # in robust.csv is the 0/1 mask
        field = s2_field(jet, GridSpec(axes), 0.5, method="mazzoni")
        robust = extract_robust_set(field, float(np.median(field.values)))
        meta = tmp_path / "f.json"
        write_record(meta, field.header())
        field.write_csv(tmp_path / "field.csv")
        write_robust_csv(field, robust, tmp_path / "robust.csv")
        for name in ("field.csv", "robust.csv"):
            back = read_field(tmp_path / name, meta)
            np.testing.assert_array_equal(back.values, field.values)

    def test_values_must_cover_the_grid(self):
        grid = GridSpec(((0.0, 1.0, 3), (-1.0, 1.0, 2)))
        with pytest.raises(ValueError, match=r"^values must have shape "
                                             r"\(6,\), one per grid node, "
                                             r"got \(4,\)$"):
            S2Field(grid, np.zeros(4), 1.0, "test")

    def test_a_truncated_field_does_not_load(self, tmp_path):
        grid = GridSpec(((0.0, 1.0, 3), (-1.0, 1.0, 2)))
        field = S2Field(grid, np.arange(6.0), 1.0, "test")
        csv, meta = tmp_path / "field.csv", tmp_path / "field.json"
        field.write_csv(csv)
        write_record(meta, field.header())
        csv.write_text("".join(csv.read_text().splitlines(True)[:-2]))
        with pytest.raises(ValueError, match="one per grid node"):
            read_field(csv, meta)


class TestEmpiricalLimit:
    def test_ou_small_noise(self, ou):
        cfg = SimulationConfig(dt=1e-3, n_samples=10_000, seed=31)
        est = s2_empirical_limit(ou, [1.0], 1.0, [1e-2], cfg)
        assert abs(est[0] - OU_S2_T1) / OU_S2_T1 <= 0.05

    def test_sine_desk_scale_equivalence(self, sine):
        cfg = SimulationConfig(dt=1e-3, n_samples=10_000, seed=32)
        value = s2_point(sine, [0.5], 1.0)
        est = s2_empirical_limit(sine, [0.5], 1.0, [1e-1, 1e-2], cfg)
        deviations = [abs(e - value) / value for e in est]
        assert deviations[-1] <= 0.1
        # shrinking noise shrinks the deviation, up to sampling noise
        assert deviations[1] <= deviations[0] + 2.0 / math.sqrt(cfg.n_samples)

    def test_linear_additive_exact_up_to_sampling(self, linadd):
        cfg = SimulationConfig(dt=1e-3, n_samples=10_000, seed=33)
        value = s2_point(linadd, [0.3, -0.4], 1.0)
        est = s2_empirical_limit(linadd, [0.3, -0.4], 1.0, [1e-1, 1e-2], cfg)
        for e in est:  # exact linearisation: every scale is unbiased
            assert abs(e - value) / value <= 5.0 / math.sqrt(cfg.n_samples)

    def test_positive_scales_required(self, ou):
        cfg = SimulationConfig(n_samples=10)
        with pytest.raises(ValueError):
            s2_empirical_limit(ou, [1.0], 1.0, [0.0], cfg)

    @pytest.mark.parametrize("epsilons", [[0.1, -1.0], [0.1, math.nan],
                                          [0.1, math.inf]])
    def test_every_scale_checked_before_sampling(self, monkeypatch, ou,
                                                 epsilons):
        # a bad second scale was found only after sampling the first
        monkeypatch.setattr(sensitivity, "sample_cells", None)
        with pytest.raises(ValueError, match="epsilons"):
            s2_empirical_limit(ou, [1.0], 1.0, epsilons,
                               SimulationConfig(n_samples=10))

    def test_scales_are_cells_of_one_run(self, monkeypatch, jet):
        # one sample_cells call for all scales gives each scale the batch
        # sample_coupled gives it alone, so the values are those of one
        # run per scale, bitwise
        cfg = SimulationConfig(dt=1e-2, n_samples=300, seed=7)
        epsilons = [0.2, 0.05, 0.01]
        want = []
        for eps in epsilons:
            y = sample_coupled(jet, InitialCondition.fixed([0.3, 1.1]), eps,
                               1.0, cfg).y_samples
            want.append(float(np.linalg.eigvalsh(np.cov(y, rowvar=False))[-1]
                              / eps ** 2))
        runs = []

        def counted(model, cells, *args):
            runs.append(len(cells))
            return sample_cells(model, cells, *args)
        monkeypatch.setattr(sensitivity, "sample_cells", counted)
        assert s2_empirical_limit(jet, [0.3, 1.1], 1.0, epsilons, cfg) == want
        assert runs == [len(epsilons)]
        assert s2_empirical_limit(jet, [0.3, 1.1], 1.0, [], cfg) == []
        assert runs == [len(epsilons)]

    def test_failed_reference_flow_is_an_integration_failure(self, sine):
        # the samples come from the coupled sampler, which solves the
        # reference flow first; dy/dt = y^3 from 2 blows up at t = 1/8
        with pytest.raises(IntegrationFailure, match="cubic"):
            s2_empirical_limit(cubic_model(sine), [2.0], 1.0, [0.1],
                               SimulationConfig(n_samples=10))


class TestRobustSet:
    def make_field(self, values):
        values = np.asarray(values, dtype=float)
        grid = GridSpec(((0.0, 1.0, values.size),))
        return S2Field(grid, values, 1.0, "test")

    def test_threshold_below_min_empty(self):
        rs = extract_robust_set(self.make_field([1.0, 2.0, 3.0]), 0.5)
        assert not rs.mask.any()
        assert rs.fraction == 0.0

    def test_threshold_above_max_full(self):
        rs = extract_robust_set(self.make_field([1.0, 2.0, 3.0]), 10.0)
        assert rs.mask.all()
        assert rs.fraction == 1.0

    def test_midway_threshold(self):
        rs = extract_robust_set(self.make_field([1.0, 2.0, 3.0, 4.0]), 2.5)
        np.testing.assert_array_equal(rs.mask, [True, True, False, False])
        assert rs.fraction == 0.5

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            extract_robust_set(self.make_field([1.0]), -1.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf])
    def test_nonfinite_threshold_rejected(self, monkeypatch, threshold):
        # NaN used to give an empty set without complaint
        monkeypatch.setattr(sensitivity, "RobustSet", None)
        with pytest.raises(ValueError, match="threshold"):
            extract_robust_set(self.make_field([1.0]), threshold)

    def test_csv_writer(self, tmp_path):
        field = self.make_field([1.0, 2.0, 3.0])
        rs = extract_robust_set(field, 2.0)
        csv = tmp_path / "r.csv"
        write_robust_csv(field, rs, csv)
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "x1,s2,robust"
        assert len(lines) == 4
        assert lines[1].endswith(",1")
        assert lines[3].endswith(",0")

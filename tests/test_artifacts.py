"""The one on-disk format: every table and record is written and read by
linsde.artifacts, and what is written reads back bitwise."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsde.artifacts import read_record, read_table, write_record, write_table
from linsde.cli import main
from linsde.linearise import GaussianState
from linsde.sampling import SamplePairBatch, SimulationConfig, read_batch
from linsde.scaling import SweepResult, read_sweep
from linsde.sensitivity import (GridSpec, S2Field, extract_robust_set,
                                read_field, robust_header, write_robust_csv)

nan, inf = math.nan, math.inf
#: every float a table must carry exactly: NaN, infinities, the smallest
#: subnormal, a signed zero and the largest double
SPECIAL = [0.1, nan, inf, -inf, 5e-324, -1.5, -0.0, 1.7976931348623157e308]
MAX_SEED = 2 ** 64 - 1


def assert_same(got, want):
    """Equal dtype, shape and bits (so NaN equals NaN and -0.0 is not 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def columns_by_rule(table):
    """A table's text columns converted by the writer's rule: ``%d`` for the
    integer and bool columns the CLI writes, ``%.17g`` for the rest."""
    kinds = {"n": int, "component": int, "robust": int, "seed": np.uint64}
    return [np.array(cells, dtype=kinds.get(name, float))
            for name, cells in table.items()]


def test_table_format_round_trips(tmp_path):
    floats = np.array(SPECIAL)
    seeds = np.array([0, 1, 2, 3, 4, 5, 6, MAX_SEED], dtype=np.uint64)
    flags = floats > 0
    path = tmp_path / "t.csv"
    write_table(path, ["value", "seed", "flag"], [floats, seeds, flags])
    lines = path.read_text().split("\n")
    assert lines[0] == "value,seed,flag"
    assert lines[-1] == ""
    assert lines[1:-1] == [f"{v:.17g},{s},{int(f)}" for v, s, f
                           in zip(floats.tolist(), seeds.tolist(), flags)]
    back = read_table(path)
    assert list(back) == ["value", "seed", "flag"]
    assert_same(np.array(back["value"], dtype=float), floats)
    assert_same(np.array(back["seed"], dtype=np.uint64), seeds)
    # a bool column is written as %d, so it is read as an integer first
    assert_same(np.array(back["flag"], dtype=int).astype(bool), flags)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False) | st.sampled_from(SPECIAL),
                          st.integers(0, MAX_SEED), st.booleans()),
                max_size=12))
def test_any_table_reads_back_bitwise(rows):
    floats = np.array([r[0] for r in rows], dtype=float)
    seeds = np.array([r[1] for r in rows], dtype=np.uint64)
    flags = np.array([r[2] for r in rows], dtype=bool)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_table(path, ["x", "seed", "flag"], [floats, seeds, flags])
        back = read_table(path)
    assert_same(np.array(back["x"], dtype=float), floats)
    assert_same(np.array(back["seed"], dtype=np.uint64), seeds)
    assert_same(np.array(back["flag"], dtype=int).astype(bool), flags)


def test_an_empty_table_has_empty_columns(tmp_path):
    write_table(tmp_path / "t.csv", ["a", "b"], [np.empty(0), np.empty(0)])
    assert read_table(tmp_path / "t.csv") == {"a": [], "b": []}


def test_a_ragged_row_is_rejected(tmp_path):
    (tmp_path / "t.csv").write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="does not have 2 cells"):
        read_table(tmp_path / "t.csv")


def test_record_format(tmp_path):
    path = tmp_path / "r.json"
    record = {"b": [1.5, None], "a": {"y": 1, "x": "s"}}
    write_record(path, record)
    text = path.read_text()
    assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert read_record(path) == record


def _run(tmp_path, command, **cfg):
    out = tmp_path / command
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps({"command": command, **cfg}))
    assert main([str(path), "--out", str(out)]) == 0
    return out


def test_every_cli_table_reads_back_bitwise(tmp_path):
    # small versions of the README configs; rewriting the columns that
    # read_table returns, each converted by the writer's rule, gives back
    # the same bytes
    sim = {"model": {"name": "sine"},
           "init": {"kind": "gaussian", "mean": [0.5], "rho": 0.01},
           "epsilon": 0.05, "t": 0.5,
           "simulation": {"dt": 0.01, "n_samples": 200, "seed": 7}}
    field = {"model": {"name": "meandering_jet"},
             "grid": [[0.0, 3.0, 4], [0.0, 3.0, 3]], "t": 0.5,
             "field": {"method": "mazzoni", "dt": 0.01}}
    tables = [
        _run(tmp_path, "simulate", **sim) / "batch.csv",
        _run(tmp_path, "histogram", **sim) / "histogram.csv",
        _run(tmp_path, "validate-scaling", model={"name": "sine"}, x0=[0.5],
             epsilon_grid=[0.02, 0.05, 0.1, 0.2], rho_grid=[0.0], t=0.5, r=[1],
             basis=["loglog_line"],
             simulation={"dt": 0.01, "n_samples": 100, "seed": 3})
        / "sweep_r1.csv",
        _run(tmp_path, "s2-field", **field) / "field.csv",
        _run(tmp_path, "robust-set", threshold=2.0, **field) / "robust.csv"]
    for path in tables:
        table = read_table(path)
        write_table(tmp_path / "again.csv", list(table), columns_by_rule(table))
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes(), \
            path.name


def test_batch_reader_returns_what_was_written(tmp_path):
    y = np.array([[5e-324, -0.0], [1.7976931348623157e308, 0.1],
                  [-1.5, 1 / 3]])
    for rho in (None, 0.25):
        batch = SamplePairBatch(y, y[::-1] * 0.5, 0.01, rho,
                                SimulationConfig(seed=MAX_SEED), 1.5, 2, "jet")
        batch.write_csv(tmp_path / "b.csv")
        write_record(tmp_path / "b.json", batch.sidecar())
        back = read_batch(tmp_path / "b.csv", tmp_path / "b.json")
        assert_same(back.y_samples, batch.y_samples)
        assert_same(back.l_samples, batch.l_samples)
        assert (back.epsilon, back.rho, back.config, back.t, back.n_flagged,
                back.model_name) == (batch.epsilon, batch.rho, batch.config,
                                     batch.t, batch.n_flagged,
                                     batch.model_name)


def test_sweep_reader_returns_what_was_written(tmp_path):
    k = len(SPECIAL)
    sweep = SweepResult(np.linspace(0.01, 0.1, k), np.full(k, 0.0),
                        np.array(SPECIAL), np.array(SPECIAL[::-1]),
                        np.array([MAX_SEED, *range(k - 1)], dtype=np.uint64),
                        2.0, 300)
    sweep.write_csv(tmp_path / "s.csv")
    back = read_sweep(tmp_path / "s.csv")
    for name in ("epsilons", "rhos", "estimates", "stderrs", "seeds"):
        assert_same(getattr(back, name), getattr(sweep, name))
    assert (type(back.r), back.r, type(back.n_samples), back.n_samples,
            back.distances) == (float, 2.0, int, 300, None)


def test_a_sweep_of_no_cells_is_refused_by_name(tmp_path):
    # its r and n live in the rows, so the header alone cannot give them;
    # the read used to end in an IndexError
    empty = np.empty(0)
    SweepResult(empty, empty, empty, empty, np.empty(0, dtype=np.uint64),
                1.0, 10).write_csv(tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_text() == \
        "epsilon,rho,r,estimate,stderr,n,seed\n"
    with pytest.raises(ValueError, match=r"s\.csv: the sweep has no cells"):
        read_sweep(tmp_path / "s.csv")


def test_field_readers_return_what_was_written(tmp_path):
    grid = GridSpec(((0.0, 1.0, 3), (-1.0, 1.0, 2)))
    values = np.array([0.5, nan, 5e-324, 2.0, 1e300, 0.25])
    field = S2Field(grid, values, 1.5, "meandering_jet", {"K": 4.0}, 1)
    field.write_csv(tmp_path / "f.csv")
    write_record(tmp_path / "f.json", field.header())
    robust = extract_robust_set(field, 1.0)
    write_robust_csv(field, robust, tmp_path / "r.csv")
    write_record(tmp_path / "r.json", robust_header(field, robust))
    for csv, meta in (("f.csv", "f.json"), ("r.csv", "r.json")):
        back = read_field(tmp_path / csv, tmp_path / meta)
        assert_same(back.values, field.values)
        assert (back.grid, back.t, back.model_name, back.params,
                back.n_missing) == (grid, 1.5, "meandering_jet", {"K": 4.0}, 1)
    mask = np.array(read_table(tmp_path / "r.csv")["robust"], dtype=int)
    assert_same(mask.astype(bool), robust.mask)


def test_law_reader_returns_what_was_written(tmp_path):
    law = GaussianState(np.array([0.1, -0.0]),
                        np.array([[2.0, 5e-324], [5e-324, 1 / 3]]), 1.5, 0.01)
    write_record(tmp_path / "l.json", {"seed": MAX_SEED, **law.to_json()})
    back = GaussianState.load(tmp_path / "l.json")
    assert_same(back.mean, law.mean)
    assert_same(back.covariance, law.covariance)
    assert (back.t, back.epsilon) == (law.t, law.epsilon)

import json
import math

import numpy as np

from linsde.artifacts import write_record, write_table


def test_table_format_round_trips(tmp_path):
    floats = np.array([0.1, math.nan, math.inf, -math.inf, 5e-324, -1.5])
    seeds = np.array([0, 1, 2, 3, 4, 2 ** 64 - 1], dtype=np.uint64)
    flags = floats > 0
    path = tmp_path / "t.csv"
    write_table(path, ["value", "seed", "flag"], [floats, seeds, flags])
    lines = path.read_text().split("\n")
    assert lines[0] == "value,seed,flag"
    assert lines[-1] == ""
    assert lines[1:-1] == [f"{v:.17g},{s},{int(f)}" for v, s, f
                           in zip(floats.tolist(), seeds.tolist(), flags)]
    back = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0)
    np.testing.assert_array_equal(back, floats)


def test_record_format(tmp_path):
    path = tmp_path / "r.json"
    record = {"b": [1.5, None], "a": {"y": 1, "x": "s"}}
    write_record(path, record)
    text = path.read_text()
    assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert json.loads(text) == record

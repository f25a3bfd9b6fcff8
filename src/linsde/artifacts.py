"""On-disk format of every data artifact, written and read here alone.

Tables are CSV with a header row; float columns are written as ``%.17g``,
which round-trips exactly, and integer or bool columns as ``%d``. Records
are JSON with sorted keys, a two-space indent and a trailing newline. Both
are byte-identical for equal inputs. A reader looks a table's columns up by
name and converts each by the rule it was written with: ``float`` for a
``%.17g`` column and ``int`` for a ``%d`` one, so that 64-bit seeds survive.
"""

from __future__ import annotations

import json

import numpy as np


def write_table(path, names, columns) -> None:
    """Write parallel 1-D ``columns`` under the header ``names``."""
    cells = []
    for col in map(np.asarray, columns):
        fmt = "{:d}" if col.dtype.kind in "biu" else "{:.17g}"
        cells.append(list(map(fmt.format, col.tolist())))
    with open(path, "w") as fh:
        fh.write("\n".join([",".join(names), *map(",".join, zip(*cells))])
                 + "\n")


def read_table(path) -> dict:
    """The columns of a table by header name, each a list of its cells'
    text."""
    with open(path) as fh:
        names, *rows = [line.split(",") for line in fh.read().splitlines()]
    if any(len(row) != len(names) for row in rows):
        raise ValueError(f"{path}: a row does not have {len(names)} cells")
    return {name: [row[k] for row in rows] for k, name in enumerate(names)}


def write_record(path, record: dict) -> None:
    """Write one JSON record."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_record(path) -> dict:
    """One JSON record."""
    with open(path) as fh:
        return json.load(fh)

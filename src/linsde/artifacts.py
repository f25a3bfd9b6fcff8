"""On-disk format of every data artifact.

Tables are CSV with a header row; float columns are written as ``%.17g``,
which round-trips exactly, and integer or bool columns as ``%d``. Records
are JSON with sorted keys, a two-space indent and a trailing newline. Both
are byte-identical for equal inputs.
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


def write_record(path, record: dict) -> None:
    """Write one JSON record."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

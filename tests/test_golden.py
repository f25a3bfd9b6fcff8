"""Digests of the command line's data artifacts against a committed manifest.

The README configurations run at reduced size through ``cli.main``, each
into a fixed relative output directory, and every data artifact (all but
``provenance.txt``) is hashed. The test fails on any byte that differs from
``tests/golden.json`` and names each changed artifact, together with any
numpy or scipy version that differs from the one the manifest was made
with. A change that moves values on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py

and names the changed artifacts in CHANGES.md.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from linsde.cli import main

MANIFEST = Path(__file__).resolve().parent / "golden.json"

JET_GRID = [[0.0, 2.75, 12], [0.0, 2.25, 10]]

#: run name -> configuration; each writes into the directory of its name
CONFIGS = {
    "simulate": {
        "command": "simulate", "model": {"name": "sine", "params": {}},
        "init": {"kind": "gaussian", "mean": [0.5], "rho": 0.01},
        "epsilon": 0.01, "t": 1.5,
        "simulation": {"dt": 0.001, "n_samples": 500, "seed": 1}},
    "histogram": {
        "command": "histogram", "model": {"name": "sine", "params": {}},
        "init": {"kind": "gaussian", "mean": [0.5], "rho": 0.01},
        "epsilon": 0.01, "t": 1.5,
        "simulation": {"dt": 0.001, "n_samples": 500, "seed": 1}},
    "validate-scaling": {
        "command": "validate-scaling",
        "model": {"name": "linear_multiplicative"}, "x0": [2.0],
        "epsilon_grid": [1e-3, 2.2e-3, 4.6e-3, 1e-2, 2.2e-2, 4.6e-2, 1e-1],
        "rho_grid": [0.0, 1e-3, 1e-2, 1e-1], "t": 1.0, "r": [1],
        "basis": ["eps_plus_eps2", "const_plus_rho"],
        "simulation": {"dt": 0.001, "n_samples": 300, "seed": 1}},
    "bound": {
        "command": "bound", "model": {"name": "sine"},
        "bound": {"r": 1, "t": 1.5, "epsilon": 0.01, "rho": 0.01,
                  "constants": "estimate"}},
    "robust-set": {
        "command": "robust-set", "model": {"name": "meandering_jet"},
        "grid": JET_GRID, "t": 1.0, "threshold": 0.5,
        "field": {"method": "rk45", "tol": 1e-6}},
    "s2-field": {
        "command": "s2-field", "model": {"name": "meandering_jet"},
        "grid": JET_GRID, "t": 1.0,
        "field": {"method": "mazzoni", "dt": 2e-3}},
}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def digests(root: Path) -> dict:
    """sha256 of every data artifact of every configuration, run under
    ``root``, keyed by ``<run>/<file>``."""
    out = {}
    for name, cfg in CONFIGS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps({**cfg, "output_dir": name}))
        assert main([str(path)]) == 0, name
        for artifact in sorted((root / name).iterdir()):
            if artifact.name != "provenance.txt":
                out[f"{name}/{artifact.name}"] = hashlib.sha256(
                    artifact.read_bytes()).hexdigest()
    return out


def test_artifacts_match_the_manifest(monkeypatch, tmp_path):
    # the configuration hash embeds output_dir, so the run directories are
    # relative to a fixed working directory
    monkeypatch.chdir(tmp_path)
    manifest = json.loads(MANIFEST.read_text())
    got = digests(Path("."))
    want = manifest["artifacts"]
    changed = sorted(k for k in want.keys() | got.keys()
                     if want.get(k) != got.get(k))
    drift = {k: (manifest[k], v) for k, v in versions().items()
             if manifest[k] != v}
    assert not changed, (f"changed artifacts: {', '.join(changed)}; "
                         f"library versions (manifest, now): {drift}")


if __name__ == "__main__":
    import tempfile

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        record = {**versions(), "artifacts": digests(Path("."))}
        os.chdir(here)
    MANIFEST.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(record['artifacts'])} digests to {MANIFEST}",
          file=sys.stderr)

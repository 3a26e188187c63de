"""Deterministic writers for the plot-ready run artifacts.

Every numeric cell goes through one formatter: 12 significant digits in the
shortest form, lowercase booleans, plain integers, ``.`` decimal separator.
Files are UTF-8 with ``\\n`` line endings on every platform, so identical
inputs give byte-identical outputs.  Angle columns are always radians and the
header comments say so.

Column orders are fixed contracts:

* trajectory:    ``n,sigma_z,bloch_x,bloch_y,bloch_z,fidelity``
* sweep:         ``param_name,param_value,sigma_z_ss,n_used,converged,label``
* dataset:       feature columns, then ``sigma_z_ss,label``
* separability:  JSON object ``{separable, w, b, margin, iterations}``, where
                  ``iterations`` counts the simplex pivots of the exact test
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path
from typing import Sequence

import numpy as np

from .classifier import Label, LabeledPoint, SeparabilityReport
from .collision import Trajectory

ANGLE_UNIT = "radians"

TRAJECTORY_COLUMNS = ("n", "sigma_z", "bloch_x", "bloch_y", "bloch_z", "fidelity")
SWEEP_COLUMNS = ("param_name", "param_value", "sigma_z_ss", "n_used", "converged", "label")


def _json_cell(value):
    """One cell as a JSON value: the single float policy of every artifact
    (12 significant digits, ``-0.0`` folded to ``0.0``)."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, str):
        return value
    if isinstance(value, Label):
        return value.value
    if isinstance(value, numbers.Integral):
        return int(value)
    f = float(value)
    if f == 0.0:
        f = 0.0
    return float(format(f, ".12g"))


def format_cell(value) -> str:
    """One output cell as text, rendered from ``_json_cell``'s value."""
    cell = _json_cell(value)
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return format(cell, ".12g")
    return str(cell)


def _write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_table(path, columns: Sequence[str], rows, seed: int, fmt: str = "csv") -> None:
    """Write one tabular artifact as CSV (with seed and unit header comments) or
    as an equivalent JSON object."""
    if fmt == "csv":
        lines = [f"# seed={int(seed)}", f"# angle_unit={ANGLE_UNIT}", ",".join(columns)]
        lines.extend(",".join(format_cell(v) for v in row) for row in rows)
        _write_text(path, "\n".join(lines) + "\n")
    elif fmt == "json":
        payload = {
            "seed": int(seed),
            "angle_unit": ANGLE_UNIT,
            "columns": list(columns),
            "rows": [[_json_cell(v) for v in row] for row in rows],
        }
        _write_text(path, json.dumps(payload, indent=2) + "\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}, expected 'csv' or 'json'")


def write_trajectory(path, traj: Trajectory, seed: int, fmt: str = "csv") -> None:
    """Per-collision record; the trajectory must carry its fidelity column."""
    fid = traj.fidelity
    if fid is None:
        raise ValueError("trajectory artifact requires a fidelity column")
    rows = (
        (int(traj.n[i]), traj.sigma_z[i], traj.bloch[i, 0], traj.bloch[i, 1],
         traj.bloch[i, 2], fid[i])
        for i in range(len(traj))
    )
    write_table(path, TRAJECTORY_COLUMNS, rows, seed, fmt)


def write_sweep(path, param_name: str, points: Sequence[LabeledPoint], seed: int,
                fmt: str = "csv") -> None:
    """One row per sweep point, in input order."""
    rows = []
    for p in points:
        if p.param_value is None:
            raise ValueError("sweep artifact requires param_value on every point")
        rows.append((param_name, p.param_value, p.sigma_z_ss, p.n_used, p.converged, p.label))
    write_table(path, SWEEP_COLUMNS, rows, seed, fmt)


def write_dataset(path, points: Sequence[LabeledPoint], feature_names: Sequence[str],
                  seed: int, fmt: str = "csv") -> None:
    """Classification dataset: feature columns then sigma_z_ss and label."""
    columns = tuple(feature_names) + ("sigma_z_ss", "label")
    rows = []
    for p in points:
        if len(p.features) != len(feature_names):
            raise ValueError(
                f"point has {len(p.features)} features, expected {len(feature_names)}")
        rows.append(tuple(p.features) + (p.sigma_z_ss, p.label))
    write_table(path, columns, rows, seed, fmt)


def _round_floats(obj):
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return _json_cell(obj) if obj is not None else None


def write_json(path, payload: dict) -> None:
    """Generic JSON report with the same 12-digit float policy as the tables."""
    _write_text(path, json.dumps(_round_floats(payload), indent=2) + "\n")


def write_separability(path, report: SeparabilityReport) -> None:
    """Fixed five-key JSON verdict (always JSON regardless of run format)."""
    write_json(path, {
        "separable": report.separable,
        "w": None if report.w is None else list(report.w),
        "b": report.b,
        "margin": report.margin,
        "iterations": report.iterations,
    })

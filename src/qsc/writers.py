"""Deterministic writers for the plot-ready run artifacts.

One float policy serves CSV and JSON: ``"%.12g" % (x + 0.0)``, that is 12
significant digits in the shortest form with -0.0 folded to 0.0 and a ``.``
decimal separator; a JSON float is that text read back.  Booleans are
lowercase and integers plain.  Tables (trajectory, sweep, dataset) are
streamed to the file in chunks of ``CHUNK_ROWS`` rows, each chunk printed by
one ``%`` over a row template built once per table; a float column equal
to an earlier one reuses that column's texts.  Files are UTF-8 with ``\\n``
line endings on every platform, so identical inputs give byte-identical
outputs.  Angle columns are always radians and the header comments say so.

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

# Rows per write: each chunk's text is built, written and dropped before the
# next one, so memory does not grow with the table's length.  4096-row chunks
# raised the peak RSS of writing fig2a and a 20 001-row JSON trajectory by
# about 1.4 MB over 1024-row chunks, at the same speed.
CHUNK_ROWS = 1024

_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _open(path):
    """A UTF-8 text file with plain ``\\n`` line endings, its directory made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def _floats(values) -> np.ndarray:
    """A column's values as the float policy prints them: adding 0.0 folds
    -0.0 to 0.0."""
    return np.asarray(values, dtype=float) + 0.0


def _float_texts(values) -> list[str]:
    """The float policy, on a whole column at once: 12 significant digits in
    the shortest form, one ``%`` over the column split at its newlines."""
    values = _floats(values).tolist()
    return ("\n".join(["%.12g"] * len(values)) % tuple(values)).split("\n") if values else []


def format_cell(value) -> str:
    """One cell as CSV text: the scalar form of the column formatters."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, Label):
        return value.value
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return "%.12g" % (float(value) + 0.0)


def _column_texts(column: np.ndarray, fmt: str) -> list[str]:
    """The cells of one column as CSV or JSON text; its dtype picks the
    formatter.  A JSON float is ``repr`` of the CSV text read back, which is
    what ``json.dumps`` prints for it.  A positional text with a decimal
    point already is that ``repr`` (same shortest digits, same notation), so
    only the other texts are read back."""
    kind = column.dtype.kind
    if kind == "f":
        texts = _float_texts(column)
        if fmt == "json":
            texts = [t if "." in t and "e" not in t else _JSON_NONFINITE.get(t) or repr(float(t))
                     for t in texts]
        return texts
    if kind == "b":
        return ["true" if v else "false" for v in column.tolist()]
    if kind in "iu":
        return list(map(str, column.tolist()))
    texts = column.tolist()
    return texts if fmt == "csv" else list(map(json.dumps, texts))


def write_table(path, columns: Sequence[str], data: Sequence, seed: int,
                fmt: str = "csv") -> None:
    """Write one tabular artifact as CSV (with seed and unit header comments) or
    as the equivalent JSON object that ``json.dumps(payload, indent=2)`` gives.

    ``data`` holds one 1-D array per column name, all of one length, of float,
    integer, bool or string dtype.  Every check runs before the file is
    opened, so a rejected table leaves no file.  The rows are written
    ``CHUNK_ROWS`` at a time, each chunk with one ``%`` over the table's row
    template and the chunk's cells interleaved into one flat argument list.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}, expected 'csv' or 'json'")
    data = [np.asarray(col) for col in data]
    if len(data) != len(columns):
        raise ValueError(f"{len(data)} data columns for {len(columns)} column names")
    n_rows = len(data[0]) if data else 0
    for name, col in zip(columns, data):
        if col.shape != (n_rows,) or col.dtype.kind not in "fbiuU":
            raise ValueError(f"column {name!r} must be {n_rows} numbers, bools or strings, "
                             f"got shape {col.shape} of {col.dtype}")
    # One row template per table: an unshared CSV float column is "%.12g" over
    # its floats, an integer column "%d", every other column "%s" over its
    # texts.  A float column equal to an earlier one copies that column's
    # texts, so they are formatted once.  Only specs and separators go into
    # the template; every cell is an argument.
    twins = [next((j for j in range(i) if data[j].dtype.kind == "f"
                   and np.array_equal(data[j], col)), i) if col.dtype.kind == "f" else i
             for i, col in enumerate(data)]
    specs = ["%d" if col.dtype.kind in "iu"
             else "%.12g" if col.dtype.kind == "f" and fmt == "csv" and twins.count(i) == 1
             else "%s" for i, col in enumerate(data)]
    ncols = len(data)
    if fmt == "csv":
        head = f"# seed={int(seed)}\n# angle_unit={ANGLE_UNIT}\n" + ",".join(columns)
        row, sep, tail = ",".join(specs), "\n", "\n"
    else:
        head = json.dumps({"seed": int(seed), "angle_unit": ANGLE_UNIT,
                           "columns": list(columns), "rows": []}, indent=2)
        row, sep, tail = "    [\n      " + ",\n      ".join(specs) + "\n    ]", ",\n", "\n"
        if n_rows:  # the rows replace the empty list's "[]\n}"
            head, tail = head[:-len("[]\n}")] + "[", "\n  ]\n}\n"
    with _open(path) as fh:
        fh.write(head)
        lead = "\n"
        for start in range(0, n_rows, CHUNK_ROWS):
            n = min(CHUNK_ROWS, n_rows - start)
            flat = [None] * (n * ncols)
            for i, (col, spec) in enumerate(zip(data, specs)):
                part = col[start:start + n]
                flat[i::ncols] = (flat[twins[i]::ncols] if twins[i] != i
                                  else _floats(part).tolist() if spec == "%.12g"
                                  else part.tolist() if spec == "%d"
                                  else _column_texts(part, fmt))
            fh.write(lead + sep.join([row] * n) % tuple(flat))
            lead = sep
        fh.write(tail)


def write_trajectory(path, traj: Trajectory, seed: int, fmt: str = "csv") -> None:
    """Per-collision record; the trajectory must carry its fidelity column."""
    fid = traj.fidelity
    if fid is None:
        raise ValueError("trajectory artifact requires a fidelity column")
    bloch = np.asarray(traj.bloch)
    write_table(path, TRAJECTORY_COLUMNS,
                [np.asarray(traj.n, dtype=np.int64), traj.sigma_z,
                 bloch[:, 0], bloch[:, 1], bloch[:, 2], fid], seed, fmt)


def write_sweep(path, param_name: str, points: Sequence[LabeledPoint], seed: int,
                fmt: str = "csv") -> None:
    """One row per sweep point, in input order."""
    if any(p.param_value is None for p in points):
        raise ValueError("sweep artifact requires param_value on every point")
    write_table(path, SWEEP_COLUMNS, [
        [param_name] * len(points),
        [p.param_value for p in points],
        [p.sigma_z_ss for p in points],
        [p.n_used for p in points],
        [p.converged for p in points],
        [p.label.value for p in points],
    ], seed, fmt)


def write_dataset(path, points: Sequence[LabeledPoint], feature_names: Sequence[str],
                  seed: int, fmt: str = "csv") -> None:
    """Classification dataset: feature columns then sigma_z_ss and label."""
    for p in points:
        if len(p.features) != len(feature_names):
            raise ValueError(
                f"point has {len(p.features)} features, expected {len(feature_names)}")
    features = np.array([p.features for p in points]).reshape(len(points), len(feature_names))
    write_table(path, tuple(feature_names) + ("sigma_z_ss", "label"), [
        *features.T,
        [p.sigma_z_ss for p in points],
        [p.label.value for p in points],
    ], seed, fmt)


def _round_floats(obj):
    """A JSON payload with each float (numpy floats too) replaced by its CSV
    text read back; every other value passes through."""
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return float(format_cell(obj)) if isinstance(obj, float) else obj


def write_json(path, payload: dict) -> None:
    """Generic JSON report with the same 12-digit float policy as the tables."""
    with _open(path) as fh:
        fh.write(json.dumps(_round_floats(payload), indent=2) + "\n")


def write_separability(path, report: SeparabilityReport) -> None:
    """Fixed five-key JSON verdict (always JSON regardless of run format)."""
    write_json(path, {
        "separable": report.separable,
        "w": None if report.w is None else list(report.w),
        "b": report.b,
        "margin": report.margin,
        "iterations": report.iterations,
    })

"""Deterministic writers for the plot-ready run artifacts.

One float policy serves CSV and JSON: ``"%.12g" % (x + 0.0)``, that is 12
significant digits in the shortest form with -0.0 folded to 0.0 and a ``.``
decimal separator; a JSON float is that text read back.  Booleans are
lowercase and integers plain.  Files are UTF-8 with ``\\n`` line endings on
every platform, so identical inputs give byte-identical outputs.  Angle
columns are always radians and the header comments say so.

Tables (trajectory, sweep, dataset) are streamed to the file in chunks of
``CHUNK_ROWS`` rows with no Python call per cell.  ``_cell_bytes`` turns a
chunk of one column into an ``(n, width)`` uint8 block of fixed-width cell
texts padded with NUL bytes, so no string cell may hold NUL; a chunk's
float columns go through ``_float_cells`` in one call.  A chunk's
blocks and separators are laid out row by row in one byte matrix, and
deleting its NUL bytes leaves the text, which is written in binary.  A
float column equal to an earlier one reuses that column's block.

Float cells are built from their digits in numpy under an exactness rule;
the cells the rule cannot vouch for are printed by ``"%.12g"`` itself.  For
a finite x != 0 let a = |x| and E = floor(log10 a), found from the binary
exponent of x and one comparison with a power of ten.

* m = a * 10**(11 - E) is one product with the correctly rounded power: two
  roundings of at most half an ulp each, so m lies within a relative 2.3e-16
  of the exact value, under 2.3e-4 while m < 1e12 + 1.  Let r = rint(m).
* A cell takes the vector path only when m >= 1e11, r <= 1e12 and
  |m - r| < 0.499.  The exact value then lies within 0.4993 of the integer
  r, so r is the correctly rounded 12-digit mantissa.  r = 1e12 carries: the
  mantissa becomes 1e11 and E becomes E + 1.  An E that is one off either
  fails these tests or lands on the same mantissa and exponent.
* Every other cell is printed by ``"%.12g" % x`` (0 by its constant text):
  0, NaN and +-inf, subnormals, exponents whose power of ten overflows,
  near-ties, and the misses at decade edges.
* Layout: positional for -4 <= E <= 11, else ``d.ddd...e+-XX``, with a third
  exponent digit when |E| >= 100.  Trailing fraction zeros are dropped, and
  the point when no fraction is left.  A JSON cell is ``repr`` of the CSV
  text read back: the same digits, positional up to E = 15, and ``.0`` after
  a positional integer.

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

# Rows per write: each chunk's bytes are built, written and dropped before
# the next one, so memory does not grow with the table's length.  On a 2-CPU
# 2.1 GHz Xeon host, 4096-row chunks beat 1024-row ones (trajectory workload
# wall_s median 0.154 against 0.174 s) and 2048-row ones (0.147 against
# 0.157 s) in five alternating benchmark pairs each.  One process writing
# fig2a and a 20 001-row JSON trajectory peaked at 41.2, 42.3 and 43.3 MB RSS
# with 2048, 4096 and 8192 rows per chunk.
CHUNK_ROWS = 4096

_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Cell text is built in little-endian words: byte i of a word is its bits
# 8i..8i+7, so a word's bytes in memory order are its text.
_WORD = np.dtype("<u8")


def _words(texts, at: int = 0) -> np.ndarray:
    """ASCII texts as words that hold them from byte ``at`` on."""
    return np.array([t.encode("ascii") for t in texts], dtype="S8").view(_WORD) << np.uint64(8 * at)


# _LOW_BYTES[n]: the word whose first n bytes are 0xff.  The first n bytes
# of a 16-byte string are its low word & _LOW_BYTES[n] and its high word &
# _LOW_BYTES[n - 8], with n - 8 clipped at 0.
_LOW_BYTES = np.array([(1 << 8 * min(n, 8)) - 1 for n in range(17)], dtype=_WORD)


def _group_tables():
    """Four-digit groups.  ``digits[v]`` is the word of "%04d" % v.  A float
    mantissa is three groups, and 10000 stands for the carried 1e12, whose
    digits are those of 1e11.  ``significant[k, v]`` counts the mantissa's
    digits up to the last nonzero one of group v at place k (0 when v is 0).
    An integer is up to five groups, and ``int_groups`` holds three tables of
    10000 in a row: a leading group (its leading zeros are NULs), a group
    after a nonzero one (all four digits), and a lone last group (0 is "0").
    """
    group = np.arange(10_001, dtype=np.int32)
    group[-1] = 1000
    digits = sum((group // 10 ** (3 - i) % 10 + 48).astype(_WORD) << np.uint64(8 * i)
                 for i in range(4))
    trailing = sum((group % 10 ** i == 0).astype(np.int32) for i in range(1, 4))
    significant = np.where(group > 0, 4 - trailing + 4 * np.arange(3)[:, None], 0).astype(np.uint8)
    length = sum((group[:-1] >= 10 ** i).astype(np.int32) for i in range(4))
    leading = digits[:-1] & ~_LOW_BYTES[4 - length]
    int_groups = np.concatenate([leading, digits[:-1], leading]).astype("<u4")
    int_groups[20_000] = ord("0")
    return digits, significant, int_groups


_DIGITS, _SIGNIFICANT, _INT_GROUPS = _group_tables()

# Keeping c mantissa digits keeps the point after digit p too when a kept
# digit follows it: the kept bytes of the 16-byte string, at 13 * p + c.
_KEPT = np.where(np.arange(13) > np.arange(12)[:, None] + 1, np.arange(13) + 1, np.arange(13)).ravel()
_KEEP_LO, _KEEP_HI = _LOW_BYTES[np.minimum(_KEPT, 8)], _LOW_BYTES[np.maximum(_KEPT - 8, 0)]

_BOOLS = _words(["false", "true"])

# A float class is a decimal exponent E, from the lowest guess (-308, which
# subnormals share) to the highest carry (310); its index is E + _E_OFFSET.
_E_OFFSET = 308
_E = np.arange(-_E_OFFSET, 311)


# 10**e for e from -308 to 319 at index e + 308, correctly rounded: Python
# reads decimal text exactly.  The powers past 308 overflow to inf.
_POWERS = np.array([float(f"1e{e}") for e in range(-_E_OFFSET, 320)])

# A double's exponent field b puts a in [2**(b-1023), 2**(b-1022)), which
# meets at most one decade edge, so E is the guess or one more.
_E_GUESS = np.floor((np.arange(2048) - 1023) * np.log10(2.0)).astype(np.intp) + _E_OFFSET
_E_NEXT = _POWERS[_E_GUESS + 1]  # a >= this raises the guess by one
_SCALE = _POWERS[11 - _E + _E_OFFSET]  # m = a * _SCALE[class]
_EXPONENTS = _words([f"e{x:+03d}" for x in _E], 3)  # the tails of class E


class _FloatLayout:
    """Where each float class puts its text in the 24-byte cell, in one format.

    Bytes 0-5 hold the sign and the head (``0.`` and the zeros of a
    positional E < 0), right-aligned so that the sign touches the text.
    Bytes 6-18 hold the 12 mantissa digits with the point after digit
    ``point`` (11: after the last, where it is never kept).  The tail
    (``e+XX``, or a JSON integer's zeros and ``.0``) ends at byte 23.
    Trailing zero digits are cut, but never below ``keep`` digits.
    """

    def __init__(self, fmt: str):
        e = _E
        positional = (e >= -4) & (e <= (11 if fmt == "csv" else 15))
        point = np.where(positional, np.where((e >= 0) & (e <= 10), e, 11), 0)
        self.keep = np.where(positional & (e >= 0), np.minimum(e + 1 + (fmt == "json"), 12),
                             1).astype(np.uint8)
        self.head = np.zeros(len(e), _WORD)
        self.sign = np.full(len(e), ord("-") << 40, _WORD)
        for zeros in range(4):
            head = "0." + "0" * zeros
            self.head[_E_OFFSET - 1 - zeros] = _words([head], 6 - len(head))[0]
            self.sign[_E_OFFSET - 1 - zeros] = _words(["-"], 5 - len(head))[0]
        self.tail = np.where(positional, 0, _EXPONENTS).astype(_WORD)
        if fmt == "json":
            for x in range(11, 16):
                self.tail[x + _E_OFFSET] = _words(["0" * (x - 11) + ".0"], 2)[0]
        # Digits 0..point stay; the rest move one byte up, behind the point.
        self.split_lo = _LOW_BYTES[point + 1]
        self.split_hi = _LOW_BYTES[np.maximum(point - 7, 0)]
        dot = np.uint64(ord("."))
        self.point_lo = np.where(point < 7, dot << (8 * np.minimum(point + 1, 7)).astype(_WORD), 0)
        self.point_hi = np.where(point >= 7, dot << (8 * np.maximum(point - 7, 0)).astype(_WORD), 0)
        self.point13 = 13 * point  # the row of _KEEP_LO and _KEEP_HI


_LAYOUTS = {fmt: _FloatLayout(fmt) for fmt in ("csv", "json")}


def _json_float(text: str) -> str:
    """A CSV float text as JSON prints it read back: ``repr`` of the value.
    A positional text with a decimal point already is that ``repr`` (same
    shortest digits, same notation)."""
    if "." in text and "e" not in text:
        return text
    return _JSON_NONFINITE.get(text) or repr(float(text))


def _printed(values: np.ndarray, fmt: str) -> np.ndarray:
    """Float cells printed by ``%.12g`` one at a time, as (n, 3) words."""
    texts = ["%.12g" % (v + 0.0) for v in values.tolist()]
    if fmt == "json":
        texts = list(map(_json_float, texts))
    return np.array([t.encode("ascii") for t in texts], dtype="S24").view(_WORD).reshape(-1, 3)


_ZERO_CELL = {fmt: _printed(np.zeros(1), fmt) for fmt in ("csv", "json")}


def _mantissas(x: np.ndarray):
    """Each value's class and 12-digit mantissa r under the exactness rule,
    and the indices of the cells the rule leaves to ``%.12g`` (None if none;
    their r is a placeholder)."""
    a = np.abs(x)
    field = a.view(np.int64) >> 52
    cls = _E_GUESS.take(field)
    cls += a >= _E_NEXT.take(field)
    with np.errstate(invalid="ignore", over="ignore"):
        m = _SCALE.take(cls)
        m *= a
        r = np.rint(m)
        ok = np.abs(m - r) < 0.499
        ok &= m >= 1e11
        ok &= r <= 1e12
    bad = None if ok.all() else np.flatnonzero(~ok)
    if bad is not None:
        r[bad] = 1e11
    return cls, r.astype(np.int64), bad


def _digit_text(cls: np.ndarray, r: np.ndarray, layout: _FloatLayout):
    """The mantissa digits with the point, trailing zeros cut, as a 16-byte
    string (lo, hi).  Carries r = 1e12 into ``cls`` in place."""
    g0 = r // 100_000_000
    r -= g0 * 100_000_000
    g1 = r // 10_000
    g2 = r - g1 * 10_000
    cls += g0 > 9999
    kept = np.maximum(_SIGNIFICANT[0].take(g0), _SIGNIFICANT[1].take(g1))
    np.maximum(kept, _SIGNIFICANT[2].take(g2), out=kept)
    np.maximum(kept, layout.keep.take(cls), out=kept)
    k = layout.point13.take(cls)
    k += kept
    # The digits up to the point stay; the others (lo, hi after the ^=)
    # move one byte up, behind the point.
    lo = _DIGITS.take(g1)
    lo <<= 32
    lo |= _DIGITS.take(g0)
    hi = _DIGITS.take(g2)
    stay_lo = layout.split_lo.take(cls)
    stay_lo &= lo
    stay_hi = layout.split_hi.take(cls)
    stay_hi &= hi
    lo ^= stay_lo
    hi ^= stay_hi
    hi <<= 8
    hi |= stay_hi
    hi |= lo >> 56
    hi |= layout.point_hi.take(cls)
    hi &= _KEEP_HI.take(k)
    lo <<= 8
    lo |= stay_lo
    lo |= layout.point_lo.take(cls)
    lo &= _KEEP_LO.take(k)
    return lo, hi


def _float_cells(columns, fmt: str) -> list:
    """The blocks of equal-length float columns, under the exactness rule of
    the module docstring.  The columns go through the steps together, which
    work in place where they can: the chunk's arrays stay in cache."""
    n = len(columns[0])
    x = np.concatenate([np.asarray(col, dtype=float) for col in columns])
    cls, r, bad = _mantissas(x)
    layout = _LAYOUTS[fmt]
    lo, hi = _digit_text(cls, r, layout)
    # The cell's three words: sign and head, then the string from byte 6,
    # then the tail.
    words = [x.view(np.uint64) >> 63, lo >> 16, hi >> 16]
    words[0] *= layout.sign.take(cls)
    words[0] |= layout.head.take(cls)
    words[0] |= lo << 48
    words[1] |= hi << 48
    words[2] |= layout.tail.take(cls)
    cells = np.empty((len(x), 3), _WORD)
    used = np.empty((len(columns), 3), _WORD)  # the bytes some cell of a column uses
    for j, word in enumerate(words):
        cells[:, j] = word
        used[:, j] = np.bitwise_or.reduce(word.reshape(len(columns), n), axis=1)
    if bad is not None:
        zero = x[bad] == 0
        cells[bad[zero]] = _ZERO_CELL[fmt]
        cells[bad[~zero]] = _printed(x[bad[~zero]], fmt)
        np.bitwise_or.at(used, bad // n, cells[bad])
    blocks = []
    for j in range(len(columns)):
        block = cells[j * n:(j + 1) * n].view(np.uint8)
        kept = np.flatnonzero(used[j].view(np.uint8))
        blocks.append(block[:, kept[0]:kept[-1] + 1] if kept.size else block)
    return blocks


def _int_cells(column: np.ndarray) -> np.ndarray:
    """Integer cells: four-digit groups, as many as the largest magnitude needs."""
    negative = column < 0
    signed = negative.any()
    size = column.astype(np.uint64)
    if signed:
        size[negative] = ~size[negative] + np.uint64(1)  # two's complement, so -2**63 fits
    groups = max(1, (len(str(int(size.max(initial=0)))) + 3) // 4)
    cells = np.zeros((len(column), groups + signed), "<u4")
    if signed:
        cells[:, 0] = negative * ord("-")
    for k in range(groups):
        place = 10 ** (4 * (groups - 1 - k))
        index = (size // np.uint64(place) % np.uint64(10_000)).astype(np.intp)
        after_nonzero = size >= np.uint64(place * 10_000) if k else False
        index += np.where(after_nonzero, 10_000, 20_000 if k == groups - 1 else 0)
        cells[:, k - groups] = _INT_GROUPS.take(index)
    return cells.view(np.uint8)


def _text_cells(column: np.ndarray, fmt: str) -> np.ndarray:
    """String cells as UTF-8 (JSON: the ``json.dumps`` text)."""
    texts = column.tolist()
    if fmt == "json":
        texts = map(json.dumps, texts)
    cells = np.array(list(map(str.encode, texts)), dtype="S")
    return cells.view(np.uint8).reshape(len(cells), cells.dtype.itemsize)


def _cell_bytes(column: np.ndarray, fmt: str) -> np.ndarray:
    """The cells of one column (or a chunk of it) as CSV or JSON text in an
    ``(n, width)`` uint8 block, each row one cell padded with NUL bytes; the
    column's dtype picks the formatter."""
    kind = column.dtype.kind
    if kind == "f":
        return _float_cells([column], fmt)[0]
    if kind in "iu":
        return _int_cells(column)
    if kind == "b":
        return _BOOLS[column.view(np.uint8)].view(np.uint8).reshape(-1, 8)[:, :5]
    return _text_cells(column, fmt)


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


def _open(path):
    """A binary file, its directory made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "wb")


def _rows(blocks, lead: bytes, sep: bytes, end: bytes) -> bytearray:
    """One chunk's rows, each ``lead``, the cell blocks joined by ``sep``,
    then ``end``, laid out in a byte matrix that a bytearray holds."""
    pieces = [np.frombuffer(lead, np.uint8)]
    for block in blocks:
        pieces += [block, np.frombuffer(sep, np.uint8)]
    pieces[-1] = np.frombuffer(end, np.uint8)
    width = sum(piece.shape[-1] for piece in pieces)
    text = bytearray(len(blocks[0]) * width)
    rows = np.frombuffer(text, np.uint8).reshape(-1, width)
    at = 0
    for piece in pieces:
        rows[:, at:at + piece.shape[-1]] = piece
        at += piece.shape[-1]
    return text


def _blocks(arrays, twins, part: slice, fmt: str) -> list:
    """The cell blocks of rows ``part``.  The float columns are formatted in
    one call, and a twin column reuses its twin's block."""
    floats = [i for i, (col, twin) in enumerate(zip(arrays, twins))
              if twin == i and col.dtype.kind == "f"]
    blocks = dict(zip(floats, _float_cells([arrays[i][part] for i in floats], fmt))) if floats else {}
    for i, (col, twin) in enumerate(zip(arrays, twins)):
        if i not in blocks:
            blocks[i] = blocks[twin] if twin < i else _cell_bytes(col[part], fmt)
    return [blocks[i] for i in range(len(arrays))]


def write_table(path, columns: Sequence[str], data: Sequence, seed: int,
                fmt: str = "csv") -> None:
    """Write one tabular artifact as CSV (with seed and unit header comments) or
    as the equivalent JSON object that ``json.dumps(payload, indent=2)`` gives.

    ``data`` holds one 1-D array per column name, all of one length, of float,
    integer, bool or string dtype; no string may hold NUL, the pad byte.
    Every check runs before the file is opened, so a rejected table leaves no
    file.  The rows are written ``CHUNK_ROWS`` at a time, each chunk as one
    byte matrix of fixed-width cells and separators with its NULs deleted.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}, expected 'csv' or 'json'")
    if len(data) != len(columns):
        raise ValueError(f"{len(data)} data columns for {len(columns)} column names")
    arrays = [np.asarray(col) for col in data]
    n_rows = len(arrays[0]) if arrays else 0
    for name, raw, col in zip(columns, data, arrays):
        if col.shape != (n_rows,) or col.dtype.kind not in "fbiuU":
            raise ValueError(f"column {name!r} must be {n_rows} numbers, bools or strings, "
                             f"got shape {col.shape} of {col.dtype}")
        if col.dtype.kind == "U":
            # NUL pads the cells.  A U array has already dropped trailing
            # NULs, so the check reads the input where it can.
            texts = raw if isinstance(raw, (list, tuple)) else col.tolist()
            if "\0" in "".join(map(str, texts)):
                raise ValueError(f"column {name!r} holds a NUL character")
    # A float column equal to an earlier one reuses that column's cells.
    twins = [next((j for j in range(i) if arrays[j].dtype.kind == "f"
                   and np.array_equal(arrays[j], col)), i) if col.dtype.kind == "f" else i
             for i, col in enumerate(arrays)]
    if fmt == "csv":
        head = f"# seed={int(seed)}\n# angle_unit={ANGLE_UNIT}\n" + ",".join(columns) + "\n"
        lead, sep, end, tail = b"", b",", b"\n", b""
    else:
        head = json.dumps({"seed": int(seed), "angle_unit": ANGLE_UNIT,
                           "columns": list(columns), "rows": []}, indent=2)
        # Every row ends in a comma; the table's last one becomes a NUL.
        lead, sep, end, tail = b"\n    [\n      ", b",\n      ", b"\n    ],", b"\n"
        if n_rows:  # the rows replace the empty list's "[]\n}"
            head, tail = head[:-len("[]\n}")] + "[", b"\n  ]\n}\n"
    with _open(path) as fh:
        fh.write(head.encode("utf-8"))
        for start in range(0, n_rows, CHUNK_ROWS):
            text = _rows(_blocks(arrays, twins, slice(start, start + CHUNK_ROWS), fmt),
                         lead, sep, end)
            if fmt == "json" and start + CHUNK_ROWS >= n_rows:
                text[-1] = 0
            fh.write(text.translate(None, b"\0"))
            del text  # before the next chunk's cells are built
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
        fh.write((json.dumps(_round_floats(payload), indent=2) + "\n").encode("utf-8"))


def write_separability(path, report: SeparabilityReport) -> None:
    """Fixed five-key JSON verdict (always JSON regardless of run format)."""
    write_json(path, {
        "separable": report.separable,
        "w": None if report.w is None else list(report.w),
        "b": report.b,
        "margin": report.margin,
        "iterations": report.iterations,
    })

"""Artifact formatting: fixed column orders, 12 significant digits, seed headers.

The streamed, column-formatted writers are pinned against the per-cell
reference kept below (``reference_write_table``): the same bytes in both
formats, at row counts on either side of a chunk boundary.
"""

import json
import math
import numbers
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc.classifier import Label, LabeledPoint, SeparabilityReport
from qsc.collision import EngineConfig, ReservoirSpec, Trajectory, evolve
from qsc.states import pure_qubit
from qsc.writers import (
    ANGLE_UNIT,
    CHUNK_ROWS,
    SWEEP_COLUMNS,
    TRAJECTORY_COLUMNS,
    _E_GUESS,
    _E_OFFSET,
    _cell_bytes,
    _round_floats,
    format_cell,
    write_dataset,
    write_json,
    write_separability,
    write_sweep,
    write_table,
    write_trajectory,
)


def small_trajectory():
    cfg = EngineConfig(max_collisions=20, tol=1e-30, window=1)
    traj, _ = evolve(None, [ReservoirSpec(math.pi, 0.1)], cfg, target=pure_qubit(math.pi))
    return traj


def test_format_cell_floats():
    assert format_cell(1.0) == "1"
    assert format_cell(0.2798319695450041) == "0.279831969545"
    assert format_cell(-1e-17) == "-1e-17"  # tiny values survive, only -0.0 folds
    assert format_cell(-0.0) == "0"
    assert format_cell(float(np.float64(0.5))) == "0.5"


def test_format_cell_other_types():
    assert format_cell(True) == "true"
    assert format_cell(np.bool_(False)) == "false"
    assert format_cell(7) == "7"
    assert format_cell(np.int64(7)) == "7"
    assert format_cell(Label.CLASS2) == "class2"
    assert format_cell("delta_j") == "delta_j"


def test_trajectory_csv_layout(tmp_path):
    path = tmp_path / "trajectory.csv"
    write_trajectory(path, small_trajectory(), seed=42)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# seed=42"
    assert lines[1] == "# angle_unit=radians"
    assert lines[2] == "n,sigma_z,bloch_x,bloch_y,bloch_z,fidelity"
    assert len(lines) == 3 + 21  # initial state plus 20 collisions
    first = lines[3].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(0.0, abs=1e-12)  # starts at |+x>
    assert float(first[5]) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_trajectory_requires_fidelity_column(tmp_path):
    cfg = EngineConfig(max_collisions=5, tol=1e-30, window=1)
    traj, _ = evolve(None, [ReservoirSpec(math.pi, 0.1)], cfg)  # no target
    with pytest.raises(ValueError):
        write_trajectory(tmp_path / "t.csv", traj, seed=1)
    assert not (tmp_path / "t.csv").exists()


def test_trajectory_json_layout(tmp_path):
    path = tmp_path / "trajectory.json"
    write_trajectory(path, small_trajectory(), seed=9, fmt="json")
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["seed"] == 9
    assert payload["angle_unit"] == "radians"
    assert payload["columns"] == ["n", "sigma_z", "bloch_x", "bloch_y", "bloch_z", "fidelity"]
    assert len(payload["rows"]) == 21
    assert payload["rows"][0][0] == 0


def test_write_table_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "x.xml", ("a",), [[1.0]], seed=0, fmt="xml")
    assert not (tmp_path / "x.xml").exists()


@pytest.mark.parametrize("data", [
    [[1.0, 2.0], [1.0]],          # ragged
    [[1.0]],                       # fewer columns than names
    [[1.0], [[1.0]]],              # not 1-D
    [[1.0], [Label.CLASS1]],       # no formatter for the dtype
])
def test_write_table_rejects_malformed_columns_before_opening(tmp_path, data):
    with pytest.raises(ValueError):
        write_table(tmp_path / "x.csv", ("a", "b"), data, seed=0)
    assert not (tmp_path / "x.csv").exists()


def test_sweep_csv_layout(tmp_path):
    pts = [
        LabeledPoint((0.05, 0.05), 0.25, Label.CLASS1, 120, True, param_value=0.0),
        LabeledPoint((0.1, 0.0), 1.0, Label.CLASS1, 15, True, param_value=0.05),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep(path, "delta_j", pts, seed=3)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2] == "param_name,param_value,sigma_z_ss,n_used,converged,label"
    assert lines[3] == "delta_j,0,0.25,120,true,class1"
    assert lines[4] == "delta_j,0.05,1,15,true,class1"


def test_sweep_requires_param_values(tmp_path):
    pts = [LabeledPoint((0.1, 0.1), 0.0, Label.CLASS1, 10, True)]
    with pytest.raises(ValueError):
        write_sweep(tmp_path / "sweep.csv", "delta_j", pts, seed=0)
    assert not (tmp_path / "sweep.csv").exists()


def test_dataset_csv_layout(tmp_path):
    pts = [
        LabeledPoint((0.1, 2.9), -0.483, Label.CLASS2, 300, True),
        LabeledPoint((1.2, 0.4), 0.721, Label.CLASS1, 250, True),
    ]
    path = tmp_path / "dataset.csv"
    write_dataset(path, pts, ("theta_1", "theta_2"), seed=11)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2] == "theta_1,theta_2,sigma_z_ss,label"
    assert lines[3] == "0.1,2.9,-0.483,class2"
    with pytest.raises(ValueError):
        write_dataset(tmp_path / "bad.csv", pts, ("theta_1", "theta_2", "theta_3"), seed=11)
    assert not (tmp_path / "bad.csv").exists()


def test_dataset_three_feature_columns(tmp_path):
    pts = [LabeledPoint((0.1, 0.2, 0.3), 1.0, Label.CLASS1, 5, True)]
    write_dataset(tmp_path / "d.csv", pts, ("theta_1", "theta_2", "theta_3"), seed=0)
    lines = (tmp_path / "d.csv").read_text(encoding="utf-8").splitlines()
    assert lines[2] == "theta_1,theta_2,theta_3,sigma_z_ss,label"


def test_separability_json_exact_keys(tmp_path):
    report = SeparabilityReport(True, np.array([0.6, -0.8]), 0.125, 0.0625, 12)
    path = tmp_path / "separability.json"
    write_separability(path, report)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(payload) == ["b", "iterations", "margin", "separable", "w"]
    assert payload["separable"] is True
    assert payload["w"] == [0.6, -0.8]
    assert payload["iterations"] == 12


def test_separability_json_not_separable(tmp_path):
    path = tmp_path / "separability.json"
    write_separability(path, SeparabilityReport(False, None, None, 0.0, 100000))
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["separable"] is False
    assert payload["w"] is None
    assert payload["b"] is None


def test_write_json_rounds_floats(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"value": 0.1234567890123456789, "nested": {"pi": math.pi}})
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["value"] == 0.123456789012
    assert payload["nested"]["pi"] == 3.14159265359


def test_writes_are_byte_deterministic(tmp_path):
    traj = small_trajectory()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory(a, traj, seed=42)
    write_trajectory(b, traj, seed=42)
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()  # plain newlines on every platform


# The parent design's per-cell writer, kept as the reference: every cell went
# through ``_json_cell`` (and ``format_cell`` for CSV), the CSV lines were
# joined in memory, and the JSON payload went through ``json.dumps``.

def reference_json_cell(value):
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


def reference_format_cell(value):
    cell = reference_json_cell(value)
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return format(cell, ".12g")
    return str(cell)


def reference_write_table(path, columns, rows, seed, fmt):
    if fmt == "csv":
        lines = [f"# seed={int(seed)}", f"# angle_unit={ANGLE_UNIT}", ",".join(columns)]
        lines.extend(",".join(reference_format_cell(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "seed": int(seed),
            "angle_unit": ANGLE_UNIT,
            "columns": list(columns),
            "rows": [[reference_json_cell(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    path.write_text(text, encoding="utf-8", newline="")


def cell_texts(column, fmt):
    """The cells of ``_cell_bytes`` as strings, their NUL padding deleted."""
    return [row.tobytes().translate(None, b"\0").decode("utf-8")
            for row in _cell_bytes(np.asarray(column), fmt)]


# The float policy: normal draws over the whole exponent range, signed zeros
# and the smallest subnormals, the decade where %.12g and repr pick different
# notations, integral floats, and the non-finite values.

FLOATS = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-4.0, 4.0), st.integers(-320, 300)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(1e12, 1e16, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x])),
    st.integers(-2**53, 2**53).map(float),
    st.floats(),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=20))
def test_float_policy_matches_the_reference(xs):
    column = np.array(xs, dtype=float)
    assert cell_texts(column, "csv") == [reference_format_cell(x) for x in xs]
    assert cell_texts(column, "json") == [json.dumps(reference_json_cell(x)) for x in xs]
    for x in xs:
        assert format_cell(x) == reference_format_cell(x)
        assert json.dumps(_round_floats(x)) == json.dumps(reference_json_cell(x))


def test_float_policy_on_a_wide_random_column():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=20_000) * 10.0 ** rng.integers(-320, 301, size=20_000)
    assert cell_texts(xs, "csv") == [reference_format_cell(x) for x in xs]
    assert cell_texts(xs, "json") == [json.dumps(reference_json_cell(x)) for x in xs]


def test_non_finite_cells_keep_their_spellings():
    column = np.array([math.nan, math.inf, -math.inf])
    assert cell_texts(column, "csv") == ["nan", "inf", "-inf"]
    assert cell_texts(column, "json") == ["NaN", "Infinity", "-Infinity"]


# The edges of the exactness rule: near-ties of the 12th digit, the decade
# edges where floor(log10) and the carry meet, the notation switches, three-
# digit exponents and the cells the rule leaves to "%.12g".

def _ulps(x, n):
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


MANTISSAS = st.one_of(st.integers(10**11, 10**12 - 1),
                      st.sampled_from([10**11, 10**11 + 1, 10**12 - 2, 10**12 - 1]))
NEAR_TIES = st.builds(lambda m, k, n: _ulps(float(f"{m}5e{k - 1}"), n),
                      MANTISSAS, st.integers(-320, 296), st.integers(-3, 3))
DECADE_EDGES = st.builds(lambda k, n: _ulps(float(f"1e{k}"), n),
                         st.integers(-300, 15), st.integers(-3, 3))
NOTATION_SWITCHES = st.builds(lambda m, k, n: _ulps(m * 10.0 ** k, n),
                              st.floats(1.0, 10.0), st.sampled_from([-6, -5, -4, 10, 11, 12, 13]),
                              st.integers(-3, 3))
WIDE_EXPONENTS = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0),
                           st.one_of(st.integers(-323, -100), st.integers(100, 307)))
SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                  2.225073858507201e-308, 1.7976931348623157e308,
                                  math.nan, -math.nan, math.inf, -math.inf])
EDGE_FLOATS = st.one_of(NEAR_TIES, DECADE_EDGES, NOTATION_SWITCHES, WIDE_EXPONENTS,
                        SPECIAL_FLOATS, st.integers(-2**53, 2**53).map(float))


@settings(max_examples=600, deadline=None)
@given(st.lists(EDGE_FLOATS.flatmap(lambda x: st.sampled_from([x, -x])), min_size=1, max_size=20))
def test_float_cells_at_the_edges_of_the_exactness_rule(xs):
    column = np.array(xs, dtype=float)
    assert cell_texts(column, "csv") == [reference_format_cell(x) for x in xs]
    assert cell_texts(column, "json") == [json.dumps(reference_json_cell(x)) for x in xs]


def test_float_cells_carry_across_every_decade():
    # x rounds up to 10**k at 12 digits: the mantissa carries, and at 1e-4
    # and 1e12 the notation switches with it
    xs = [_ulps(float(f"999999999999{five}e{k - 12}"), n)
          for k in range(-300, 300) for five in ("5", "49999") for n in (-1, 0, 1)]
    assert cell_texts(xs, "csv") == [reference_format_cell(x) for x in xs]
    assert cell_texts(xs, "json") == [json.dumps(reference_json_cell(x)) for x in xs]


def test_exponent_guess_is_e_or_one_below_on_every_binade():
    # the rule's E is the guess or the guess + 1, so one comparison settles it
    for field in range(1, 2047):
        guess = int(_E_GUESS[field]) - _E_OFFSET
        low, high = Fraction(2) ** (field - 1023), Fraction(2) ** (field - 1022)
        assert Fraction(10) ** guess <= low and high <= Fraction(10) ** (guess + 2)


INT64 = st.one_of(st.integers(-2**63, 2**63 - 1),
                  st.sampled_from([0, 1, -1, 9999, 10_000, -10_000, 2**63 - 1, -2**63]))


@settings(max_examples=300, deadline=None)
@given(st.lists(INT64, min_size=1, max_size=20))
def test_int_cells_match_the_reference(ns):
    for dtype in (np.int64, np.int32):
        if dtype is np.int32 and not all(-2**31 <= n < 2**31 for n in ns):
            continue
        column = np.array(ns, dtype=dtype)
        assert cell_texts(column, "csv") == [reference_format_cell(n) for n in ns]
        assert cell_texts(column, "json") == [json.dumps(reference_json_cell(n)) for n in ns]


def test_unsigned_cells_reach_the_largest_uint64():
    ns = [0, 7, 10**19, 2**64 - 1]
    assert cell_texts(np.array(ns, dtype=np.uint64), "csv") == list(map(str, ns))


def test_bool_and_string_cells():
    assert cell_texts(np.array([True, False]), "csv") == ["true", "false"]
    assert cell_texts(np.array([True, False]), "json") == ["true", "false"]
    texts = ["", "a,b", 'q"é', "tab\t"]
    assert cell_texts(np.array(texts), "csv") == texts
    assert cell_texts(np.array(texts), "json") == list(map(json.dumps, texts))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ["a\0b", "ab\0", "\0"])
def test_string_cells_holding_nul_are_rejected_before_opening(tmp_path, fmt, name):
    # NUL pads the fixed-width cells, so it would vanish from the text
    with pytest.raises(ValueError, match="NUL"):
        write_table(tmp_path / f"x.{fmt}", ("name", "x"), [[name, "b"], [1.0, 2.0]],
                    seed=0, fmt=fmt)
    assert not (tmp_path / f"x.{fmt}").exists()


# Byte equality with the reference, at row counts around one chunk and at
# 1023-1025 rows, a part of one chunk.

ROW_COUNTS = (0, 1, 1023, 1024, 1025, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1)
SPECIALS = (-0.0, 1e-17, -1.0, 1e13, 5e-324, 2.0000000000001)


def _floats(rng, n):
    x = rng.normal(size=n) * 10.0 ** rng.integers(-6, 3, size=n)
    x[:len(SPECIALS)] = SPECIALS[:n]
    return x


def _trajectory_case(rng, n):
    bloch = np.stack([_floats(rng, n) for _ in range(3)], axis=1)
    traj = Trajectory(np.arange(n), _floats(rng, n), bloch, rng.random(n))
    rows = [(int(traj.n[i]), traj.sigma_z[i], bloch[i, 0], bloch[i, 1], bloch[i, 2],
             traj.fidelity[i]) for i in range(n)]
    return (lambda path, fmt: write_trajectory(path, traj, 7, fmt)), TRAJECTORY_COLUMNS, rows


def _evolved_trajectory_case(rng, n):
    """As ``evolve`` builds it: ``sigma_z`` is the ``bloch_z`` column itself."""
    bloch = np.stack([_floats(rng, n) for _ in range(3)], axis=1)
    traj = Trajectory(np.arange(n), bloch[:, 2], bloch, rng.random(n))
    rows = [(int(traj.n[i]), bloch[i, 2], bloch[i, 0], bloch[i, 1], bloch[i, 2],
             traj.fidelity[i]) for i in range(n)]
    return (lambda path, fmt: write_trajectory(path, traj, 7, fmt)), TRAJECTORY_COLUMNS, rows


def _points(rng, n, dims):
    features, sigma = _floats(rng, n * dims).reshape(n, dims), _floats(rng, n)
    return [LabeledPoint(tuple(features[i]), sigma[i], Label.CLASS1 if sigma[i] >= 0 else Label.CLASS2,
                         int(rng.integers(1, 100_000)), bool(rng.random() < 0.9),
                         param_value=float(features[i, 0]))
            for i in range(n)]


def _sweep_case(rng, n):
    points = _points(rng, n, 1)
    rows = [("delta_j", p.param_value, p.sigma_z_ss, p.n_used, p.converged, p.label) for p in points]
    return (lambda path, fmt: write_sweep(path, "delta_j", points, 7, fmt)), SWEEP_COLUMNS, rows


def _dataset_case(rng, n):
    points = _points(rng, n, 3)
    names = ("theta_1", "theta_2", "theta_3")
    rows = [tuple(p.features) + (p.sigma_z_ss, p.label) for p in points]
    return ((lambda path, fmt: write_dataset(path, points, names, 7, fmt)),
            names + ("sigma_z_ss", "label"), rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", ROW_COUNTS)
@pytest.mark.parametrize("case", [_trajectory_case, _evolved_trajectory_case, _sweep_case,
                                  _dataset_case])
def test_writers_match_the_reference_bytes(tmp_path, case, n_rows, fmt):
    write, columns, rows = case(np.random.default_rng(n_rows), n_rows)
    write(tmp_path / f"new.{fmt}", fmt)
    reference_write_table(tmp_path / f"ref.{fmt}", columns, rows, 7, fmt)
    assert (tmp_path / f"new.{fmt}").read_bytes() == (tmp_path / f"ref.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_empty_table_matches_the_reference_bytes(tmp_path, fmt):
    write_table(tmp_path / f"new.{fmt}", ("a", "b"), [[], []], seed=3, fmt=fmt)
    reference_write_table(tmp_path / f"ref.{fmt}", ("a", "b"), [], 3, fmt)
    new = (tmp_path / f"new.{fmt}").read_bytes()
    assert new == (tmp_path / f"ref.{fmt}").read_bytes()
    if fmt == "json":
        assert b'"rows": []\n}\n' in new


def _near_twins(n):
    """Pairs of float columns that are, or almost are, one column twice."""
    x = _floats(np.random.default_rng(n), n)
    off = x.copy()
    off[CHUNK_ROWS] = 2.0 * off[CHUNK_ROWS] + 1.0  # one cell past the first chunk, in print
    zeros = np.zeros(n)
    return {
        "equal": (x, x.copy()),
        "one_cell_apart": (x, off),
        "signed_zeros": (-zeros, zeros),  # equal, and both print 0
        "all_nan": (np.full(n, math.nan), np.full(n, math.nan)),  # never equal
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("pair", ["equal", "one_cell_apart", "signed_zeros", "all_nan"])
def test_near_twin_columns_match_the_reference_bytes(tmp_path, pair, fmt):
    n = CHUNK_ROWS + 3
    a, b = _near_twins(n)[pair]
    ints = np.arange(n)
    write_table(tmp_path / f"new.{fmt}", ("a", "n", "b", "c"), [a, ints, b, a], seed=3, fmt=fmt)
    reference_write_table(tmp_path / f"ref.{fmt}", ("a", "n", "b", "c"),
                          list(zip(a, ints.tolist(), b, a)), 3, fmt)
    assert (tmp_path / f"new.{fmt}").read_bytes() == (tmp_path / f"ref.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cell_text_never_reaches_the_row_template(tmp_path, fmt):
    name = "a%sb%%{}é"
    points = _points(np.random.default_rng(1), 5, 1)
    write_sweep(tmp_path / f"new.{fmt}", name, points, 7, fmt)
    rows = [(name, p.param_value, p.sigma_z_ss, p.n_used, p.converged, p.label) for p in points]
    reference_write_table(tmp_path / f"ref.{fmt}", SWEEP_COLUMNS, rows, 7, fmt)
    assert (tmp_path / f"new.{fmt}").read_bytes() == (tmp_path / f"ref.{fmt}").read_bytes()
    with pytest.raises(ValueError):
        write_table(tmp_path / f"bad.{fmt}", (name, "%d"), [[name], [1.0, 2.0]], seed=0, fmt=fmt)
    assert not (tmp_path / f"bad.{fmt}").exists()

"""Artifact formatting: fixed column orders, 12 significant digits, seed headers."""

import json
import math

import numpy as np
import pytest

from qsc.classifier import Label, LabeledPoint, SeparabilityReport
from qsc.collision import EngineConfig, ReservoirSpec, evolve
from qsc.states import pure_qubit
from qsc.writers import (
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
        write_dataset(path, pts, ("theta_1", "theta_2", "theta_3"), seed=11)


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

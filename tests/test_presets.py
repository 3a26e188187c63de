"""Preset catalog behavior: artifact layout, determinism, convention plumbing."""

import json
import math

import pytest

import qsc.collision
import qsc.writers
from qsc.collision import ORACLE, EngineConfig, ReservoirSpec, SingularSystem
from qsc.physical import TransmonParams, system_reservoir_couplings
from qsc.presets import (
    NOMINAL_J,
    NOMINAL_TAU,
    PRESETS,
    RunOptions,
    UnknownPreset,
    _trajectories,
    derived_transmon_params,
    list_presets,
    run_preset,
    transmon_report,
)

EXPECTED_PRESETS = {
    "fig1e", "fig2a", "fig2b", "fig3a", "fig3b", "fig3c",
    "fig4a", "fig4b", "fig5a", "fig5bc", "fig5de", "fig5f",
    "fig7a", "fig7b", "fig7c", "fig7d", "transmon",
}


def fast_opts(tmp_path, **kwargs):
    kwargs.setdefault("max_collisions", 60)
    kwargs.setdefault("tol", 0.5)
    return RunOptions(out_dir=tmp_path, **kwargs)


def test_catalog_contents():
    assert set(PRESETS) == EXPECTED_PRESETS
    listing = list_presets()
    assert len(listing) == len(EXPECTED_PRESETS)
    for name, description in listing:
        assert name in EXPECTED_PRESETS
        assert description


def test_unknown_preset_raises():
    with pytest.raises(UnknownPreset):
        run_preset("fig9z", RunOptions(out_dir="out"))


def test_run_options_validation(tmp_path):
    with pytest.raises(ValueError):
        RunOptions(out_dir=tmp_path, fmt="xml")
    with pytest.raises(ValueError):
        RunOptions(out_dir=tmp_path, convention="sidereal")


def test_every_preset_runs_with_reduced_budget(tmp_path):
    # Round-trip guard: each id must execute end to end and leave files.
    for name in sorted(EXPECTED_PRESETS):
        out = tmp_path / name
        outcome = run_preset(name, fast_opts(out))
        assert outcome.files, name
        for path in outcome.files:
            assert path.exists(), (name, path)


def test_noise_presets_carry_their_epsilon():
    for name, epsilon in (("fig7a", 0.01), ("fig7b", 0.1), ("fig7c", 0.4), ("fig7d", 0.6)):
        assert f"epsilon={epsilon:g}" in PRESETS[name].description


def test_fig1e_runs_to_budget_without_converging(tmp_path):
    outcome = run_preset("fig1e", RunOptions(out_dir=tmp_path))
    assert not outcome.all_converged  # 5000 collisions stop short of 1e-9
    (path,) = outcome.files
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2].startswith("n,sigma_z")
    assert len(lines) == 3 + 5001
    final = lines[-1].split(",")
    assert float(final[1]) == pytest.approx(-1.0, abs=1e-4)
    assert float(final[5]) > 0.9999


def test_fig2a_writes_one_file_per_drain_coupling(tmp_path):
    outcome = run_preset("fig2a", fast_opts(tmp_path))
    names = sorted(p.name for p in outcome.files)
    assert names == [
        "trajectory_j2_0.025.csv",
        "trajectory_j2_0.05.csv",
        "trajectory_j2_0.075.csv",
        "trajectory_j2_0.1.csv",
    ]


def test_fig2a_compiles_each_run_once(tmp_path, monkeypatch):
    # each run's oracle target comes from the map its run compiled
    compiles = []
    compile_run = qsc.collision._Engine.__init__

    def counted(engine, *args, **kwargs):
        compiles.append(engine)
        compile_run(engine, *args, **kwargs)

    monkeypatch.setattr(qsc.collision._Engine, "__init__", counted)
    run_preset("fig2a", fast_opts(tmp_path))
    assert len(compiles) == 4


def test_a_run_without_a_fixed_point_stops_the_batch_before_any_file(tmp_path):
    cfg = EngineConfig(tau=NOMINAL_TAU)
    runs = [("settles", [ReservoirSpec(0.0, NOMINAL_J), ReservoirSpec(math.pi, 0.05)], ORACLE),
            ("zero_coupling", [ReservoirSpec(0.0, 0.0)], ORACLE)]
    with pytest.raises(SingularSystem):
        _trajectories(RunOptions(out_dir=tmp_path), cfg, runs)
    assert not any(tmp_path.iterdir())


def test_fig5a_compares_two_and_three_channels(tmp_path):
    outcome = run_preset("fig5a", RunOptions(out_dir=tmp_path))
    assert outcome.all_converged
    names = sorted(p.name for p in outcome.files)
    assert names == ["trajectory_2ch.csv", "trajectory_3ch.csv"]


def test_theta_response_sweep_uses_collapsed_angle(tmp_path):
    outcome = run_preset("fig3b", fast_opts(tmp_path))
    (path,) = outcome.files
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2] == "param_name,param_value,sigma_z_ss,n_used,converged,label"
    assert len(lines) == 3 + 114  # six curves of 19 points
    first = lines[3].split(",")
    assert first[0] == "phi_scaled"


def test_dataset_presets_write_classifier_artifacts(tmp_path):
    outcome = run_preset("fig4b", fast_opts(tmp_path))
    names = sorted(p.name for p in outcome.files)
    assert names == ["dataset.csv", "separability.json"]
    dataset = (tmp_path / "dataset.csv").read_text(encoding="utf-8").splitlines()
    assert dataset[2] == "theta_1,theta_2,sigma_z_ss,label"
    assert len(dataset) == 3 + 42
    payload = json.loads((tmp_path / "separability.json").read_text(encoding="utf-8"))
    assert sorted(payload) == ["b", "iterations", "margin", "separable", "w"]


def test_fig5f_small_margin_seed_is_separable(tmp_path):
    # At this seed the dataset is separable only by a margin of about 4e-5,
    # which an iterative test with an epoch cap reports as not separable.
    run_preset("fig5f", RunOptions(out_dir=tmp_path, seed=201396711))
    payload = json.loads((tmp_path / "separability.json").read_text(encoding="utf-8"))
    assert payload["separable"] is True
    assert payload["margin"] > 0.0


# fig3a's collision counts from delta_j = -0.05 to 0, mirrored up to 0.05.
# The counts at delta_j = 0 and |delta_j| = 0.05 are the ones the transverse
# rate |sum q_i cos(j_i tau)| of the z-axis closed form predicts.
FIG3A_N_USED = [30929, 34175, 37717, 41513, 45480, 49482, 53320, 56743, 59470, 61236, 61848]


def test_fig3a_collision_counts(tmp_path):
    # Every run crosses many loop passes before its window closes.
    outcome = run_preset("fig3a", RunOptions(out_dir=tmp_path))
    assert outcome.all_converged
    (path,) = outcome.files
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[3:]]
    assert [int(row[3]) for row in rows] == FIG3A_N_USED + FIG3A_N_USED[-2::-1]
    assert {row[4] for row in rows} == {"true"}


# fig5f's collision counts per dataset point at the default seed; its
# dataset file has no n_used column, so they are read from the points.
FIG5F_N_USED = [
    18000, 19918, 17769, 18950, 16833, 20025, 18608, 20048, 15465, 19789, 16519, 24754, 22133, 16529,
    19144, 17695, 15481, 18825, 17676, 15639, 15840, 17054, 15529, 27505, 17567, 17300, 20848, 26246,
    24704, 22215, 18611, 21009, 30336, 22041, 27569, 17344, 16794, 27268, 20121, 20032, 23278, 18279,
]


def test_fig5f_collision_counts(tmp_path, monkeypatch):
    counts = []
    write_dataset = qsc.writers.write_dataset

    def spy(path, points, *args, **kwargs):
        counts.extend(p.n_used for p in points)
        return write_dataset(path, points, *args, **kwargs)

    monkeypatch.setattr(qsc.writers, "write_dataset", spy)
    assert run_preset("fig5f", RunOptions(out_dir=tmp_path)).all_converged
    assert counts == FIG5F_N_USED


def test_same_seed_reproduces_bytes(tmp_path):
    a = run_preset("fig3b", fast_opts(tmp_path / "a"))
    b = run_preset("fig3b", fast_opts(tmp_path / "b"))
    assert a.files[0].read_bytes() == b.files[0].read_bytes()


def test_seed_changes_sampled_dataset(tmp_path):
    run_preset("fig4b", fast_opts(tmp_path / "a"))
    run_preset("fig4b", fast_opts(tmp_path / "b", seed=1))
    a = (tmp_path / "a" / "dataset.csv").read_text(encoding="utf-8").splitlines()
    b = (tmp_path / "b" / "dataset.csv").read_text(encoding="utf-8").splitlines()
    assert a[0] == "# seed=201396702" and b[0] == "# seed=1"
    assert a[3:] != b[3:]  # different angle tuples


def test_json_format_presets(tmp_path):
    outcome = run_preset("fig1e", fast_opts(tmp_path, fmt="json"))
    (path,) = outcome.files
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["columns"][0] == "n"
    assert payload["angle_unit"] == "radians"


def test_transmon_preset_writes_report(tmp_path):
    outcome = run_preset("transmon", RunOptions(out_dir=tmp_path))
    (path,) = outcome.files
    assert path.name == "transmon.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["frequency_convention"] == "angular"
    assert payload["omega_r_ghz"] == 8.625
    assert payload["j12_mhz"] == pytest.approx(-48.9, abs=1e-9)
    assert payload["j13_mhz"] == pytest.approx(-48.9, abs=1e-9)
    assert payload["dispersive"]["ok"] is False
    assert payload["timing"]["response_us"] == 10.0
    assert payload["timing"]["t1_ok"] is True


def test_transmon_report_matches_derived_params():
    report = transmon_report()
    params = derived_transmon_params()
    assert report["qubits"][0]["omega_ghz"] == params.qubits[0][0]
    assert len(report["qubits"]) == 3


def test_transmon_report_keys_every_reservoir_coupling():
    params = TransmonParams(8.6, ((6.2, 90.0), (4.0, 80.0), (7.7, 60.0), (5.1, 70.0)))
    report = transmon_report(params)
    couplings = [key for key in report if key.startswith("j1")]
    assert couplings == ["j12_mhz", "j13_mhz", "j14_mhz"]
    assert [report[key] for key in couplings] == system_reservoir_couplings(params)


def test_physical_scale_preset_convention_flag(tmp_path):
    # Same seed, the two frequency conventions give different datasets: the
    # ordinary reading leaves per-collision mixing so weak that preparation
    # noise averages out, the angular one does not.
    angular = run_preset("fig7d", RunOptions(out_dir=tmp_path / "ang"))
    ordinary = run_preset("fig7d", RunOptions(out_dir=tmp_path / "ord", convention="ordinary"))
    a = next(p for p in angular.files if p.name.startswith("dataset"))
    o = next(p for p in ordinary.files if p.name.startswith("dataset"))
    assert a.read_bytes() != o.read_bytes()

"""Command-line behavior: exit codes, config validation, seed plumbing.

The runner reserves exit 2 for runs that hit their collision budget, so even
argparse usage errors are remapped to 1.  Tests call main() directly with an
argv list rather than spawning subprocesses.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsc.writers
from qsc.classifier import sweep_thetas
from qsc.cli import _parse_engine, _parse_reservoir, main
from qsc.collision import MIXING_MODES, EngineConfig, NoiseSpec, ReservoirSpec, steady_state_oracle
from qsc.presets import PRESETS
from qsc.states import bloch_to_density, fidelity, magnetization, pure_qubit
from qsc.writers import format_cell


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# h=0 turns off the free precession so the coherence settles quickly and the
# tiny budgets below actually converge
BASE_CONFIG = {
    "reservoirs": [{"theta": 3.14159265358979, "coupling": 0.1}],
    "engine": {"h": 0.0, "max_collisions": 400, "tol": 1e-2},
}


def test_list_shows_all_presets(capsys):
    assert run_cli("list") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 17
    assert any(line.startswith("fig1e") for line in lines)
    assert any(line.startswith("transmon") for line in lines)


def test_run_preset_writes_and_reports_files(tmp_path, capsys):
    code = run_cli("run", "--preset", "fig3a", "--out", tmp_path,
                   "--max-collisions", 60, "--tol", 0.5)
    out = capsys.readouterr().out
    assert code == 0
    assert str(tmp_path / "sweep.csv") in out
    assert (tmp_path / "sweep.csv").exists()


def test_run_unknown_preset_fails(tmp_path, capsys):
    assert run_cli("run", "--preset", "fig9z", "--out", tmp_path) == 1
    assert "error" in capsys.readouterr().err


def test_budget_exhaustion_exits_two_but_writes(tmp_path, capsys):
    code = run_cli("run", "--preset", "fig1e", "--out", tmp_path, "--max-collisions", 50)
    captured = capsys.readouterr()
    assert code == 2
    assert "collision budget" in captured.err
    assert (tmp_path / "trajectory.csv").exists()


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run")  # neither --preset nor --config
    assert exc.value.code == 1


def test_custom_trajectory_run(tmp_path, capsys):
    config = write_config(tmp_path, BASE_CONFIG)
    code = run_cli("run", "--config", config, "--out", tmp_path / "out")
    assert code == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"# seed={0xC0111DE}"
    assert lines[2] == "n,sigma_z,bloch_x,bloch_y,bloch_z,fidelity"
    # one drain reservoir pulls the state toward the ground state
    assert float(lines[-1].split(",")[1]) < 0.0


@pytest.mark.parametrize("mode", ["convex", "sequential"])
def test_noisy_config_fidelity_is_to_the_mean_map_fixed_point(tmp_path, mode):
    noise = {"epsilon": 0.3, "eta": 0.1}
    config = write_config(tmp_path, {
        "reservoirs": [{"theta": 0.3, "coupling": 0.1, "noise": noise},
                       {"theta": 2.0, "coupling": 0.1, "noise": noise}],
        "engine": {"max_collisions": 300, "tol": 1e-2, "mixing_mode": mode},
    })
    code = run_cli("run", "--config", config, "--out", tmp_path / "out")
    assert code in (0, 2)
    lines = (tmp_path / "out" / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    spec = NoiseSpec(0.3, 0.1)
    reservoirs = [ReservoirSpec(0.3, 0.1, noise=spec), ReservoirSpec(2.0, 0.1, noise=spec)]
    target = steady_state_oracle(reservoirs, EngineConfig(mixing_mode=mode)).rho_ss
    rows = [[float(cell) for cell in line.split(",")] for line in lines[3:]]
    assert len(rows) > 1
    for row in rows:
        expected = fidelity(bloch_to_density(np.array(row[2:5])), target)
        assert row[5] == pytest.approx(expected, abs=1e-10)
    assert rows[-1][5] != 1.0  # not the run's own final state


@pytest.mark.parametrize("engine, reservoir", [
    ({"tau": 0.0}, {}),
    ({}, {"coupling": 0.0}),
], ids=["tau_0", "coupling_0"])
def test_config_without_a_unique_fixed_point_exits_one(tmp_path, capsys, engine, reservoir):
    config = write_config(tmp_path, {
        "reservoirs": [{**BASE_CONFIG["reservoirs"][0], **reservoir}],
        "engine": {**BASE_CONFIG["engine"], **engine},
    })
    assert run_cli("run", "--config", config, "--out", tmp_path / "out") == 1
    assert "fixed point" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


H_OVERFLOW = {
    "reservoirs": [{"theta": 0.0, "coupling": 0.1}, {"theta": 3.0, "coupling": 0.1}],
    "engine": {"h": 1e308, "tau": 10.0},
}


@pytest.mark.parametrize("payload", [
    H_OVERFLOW,
    {**H_OVERFLOW, "sweep": {"path": "reservoirs.1.coupling", "values": [0.05, 0.1]}},
    {"reservoirs": [{"theta": 0.0, "coupling": 1e308}], "engine": {"tau": 10.0}},
], ids=["single", "sweep", "coupling"])
def test_overflowing_map_exits_one_before_writing(tmp_path, capsys, payload):
    # h * tau or j * tau overflows the map's phases; a NaN must not reach the
    # artifacts as sigma_z = nan
    config = write_config(tmp_path, payload)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli("run", "--config", config, "--out", tmp_path / "out") == 1
    assert "unitarity defect" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_sweep_seeds_each_value_unless_seed_is_given(tmp_path, monkeypatch):
    monkeypatch.delenv("QSC_SEED", raising=False)
    config = write_config(tmp_path, {
        "reservoirs": [{"theta": 0.0, "coupling": 0.1}, {"theta": 1.5, "coupling": 0.1},
                       {"theta": 3.14159265358979, "coupling": 0.1}],
        "engine": {"max_collisions": 200, "tol": 1e-12, "mixing_mode": "stochastic"},
        "sweep": {"path": "engine.seed", "values": [1, 2, 3]},
    })

    def sigma_z(out_dir):
        lines = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
        return [line.split(",")[2] for line in lines[3:]]

    assert run_cli("run", "--config", config, "--out", tmp_path / "own") == 2
    assert len(set(sigma_z(tmp_path / "own"))) == 3
    assert run_cli("run", "--config", config, "--out", tmp_path / "cli", "--seed", 5) == 2
    assert len(set(sigma_z(tmp_path / "cli"))) == 1


def test_sweep_over_reservoir_coupling(tmp_path):
    config = write_config(tmp_path, {
        **BASE_CONFIG,
        "sweep": {"path": "reservoirs.0.coupling", "values": [0.05, 0.1]},
    })
    code = run_cli("run", "--config", config, "--out", tmp_path / "out")
    assert code == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[2] == "param_name,param_value,sigma_z_ss,n_used,converged,label"
    assert lines[3].startswith("reservoirs.0.coupling,0.05,")
    assert lines[4].startswith("reservoirs.0.coupling,0.1,")
    assert len(lines) == 5


def test_tau_zero_sweep_point_stays_at_plus_x(tmp_path):
    # A tau = 0 collision is exactly the identity, so the +x start state
    # (sigma_z 0 up to the one-ulp rounding of cos(pi/4) against sin(pi/4))
    # does not move and reads class 1.
    config = write_config(tmp_path, {
        "reservoirs": [{"theta": 3.0, "coupling": 0.1}],
        "engine": {"max_collisions": 40_000},
        "sweep": {"path": "engine.tau", "values": [0, 0.5]},
    })
    assert run_cli("run", "--config", config, "--out", tmp_path / "out") == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    row = lines[3].split(",")
    start = magnetization(pure_qubit(math.pi / 2.0))
    assert abs(start) < 1e-15
    assert row[:3] == ["engine.tau", "0", format_cell(start)]
    assert row[5] == "class1"
    assert lines[4].split(",")[5] == "class2"


def test_sweep_path_must_resolve(tmp_path, capsys):
    config = write_config(tmp_path, {
        **BASE_CONFIG,
        "sweep": {"path": "reservoirs.5.coupling", "values": [0.1]},
    })
    assert run_cli("run", "--config", config, "--out", tmp_path / "out") == 1
    assert "sweep path" in capsys.readouterr().err


@pytest.mark.parametrize("index", ["-1", " 0", "+1", "0_1", "\u0661"])
def test_sweep_path_list_index_is_ascii_digits(tmp_path, capsys, index):
    # each of these is an index int() reads as a reservoir that exists
    config = write_config(tmp_path, {
        **BASE_CONFIG,
        "reservoirs": [{"theta": 0.0, "coupling": 0.1}, {"theta": 3.0, "coupling": 0.1}],
        "sweep": {"path": f"reservoirs.{index}.coupling", "values": [0.1]},
    })
    assert run_cli("run", "--config", config, "--out", tmp_path / "out") == 1
    assert "sweep path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_cannot_invent_engine_keys(tmp_path, capsys):
    config = write_config(tmp_path, {
        **BASE_CONFIG,
        "sweep": {"path": "engine.velocity", "values": [1.0]},
    })
    assert run_cli("run", "--config", config, "--out", tmp_path / "out") == 1
    assert "unknown key" in capsys.readouterr().err


def test_unknown_config_keys_rejected(tmp_path, capsys):
    config = write_config(tmp_path, {**BASE_CONFIG, "extra": 1})
    assert run_cli("run", "--config", config, "--out", tmp_path / "out") == 1
    assert "unknown key" in capsys.readouterr().err


def test_preset_config_must_not_define_engine(tmp_path, capsys):
    config = write_config(tmp_path, {"name": "fig1e", "engine": {"h": 1.0}})
    assert run_cli("run", "--config", config, "--out", tmp_path / "out") == 1
    assert "must not define" in capsys.readouterr().err


def test_custom_config_requires_engine(tmp_path):
    config = write_config(tmp_path, {"reservoirs": BASE_CONFIG["reservoirs"]})
    assert run_cli("run", "--config", config, "--out", tmp_path / "out") == 1


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 1
    assert "JSON" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path):
    assert run_cli("run", "--config", tmp_path / "nope.json", "--out", tmp_path) == 1


def test_degree_input_converts_angles(tmp_path):
    config = write_config(tmp_path, {
        "angle_unit": "degrees",
        "reservoirs": [{"theta": 90.0, "coupling": 0.1}],
        "engine": {"h": 0.0, "max_collisions": 6000, "tol": 1e-5},
        "sweep": {"path": "reservoirs.0.theta", "values": [90.0, 180.0]},
    })
    code = run_cli("run", "--config", config, "--out", tmp_path / "out")
    assert code == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    # swept angles are written in radians, like every output angle
    first, second = lines[3].split(","), lines[4].split(",")
    assert first[1] == format_cell(math.radians(90.0)) and second[1] == format_cell(math.radians(180.0))
    assert abs(float(first[2])) < 1e-3 and first[5] == "class1"  # equator: sigma_z 0
    assert float(second[2]) < -0.99 and second[5] == "class2"  # pole: sigma_z -1
    # without the unit declaration the same angles are rejected as radians
    bad = write_config(tmp_path, {
        "reservoirs": [{"theta": 90.0, "coupling": 0.1}],
        "engine": {},
    }, name="bad.json")
    assert run_cli("run", "--config", bad, "--out", tmp_path / "out2") == 1


def artifacts(out_dir):
    return {path.relative_to(out_dir): path.read_bytes() for path in sorted(out_dir.rglob("*"))}


DEGREE_CONFIG = {
    "reservoirs": [{"theta": 60.0, "coupling": 0.1, "phi": 30.0}, {"theta": 150.0, "coupling": 0.05}],
    "engine": {"max_collisions": 600, "tol": 1e-4},
}


def radians(config: dict) -> dict:
    return {**config, "reservoirs": [
        {**block, **{key: math.radians(block[key]) for key in ("theta", "phi") if key in block}}
        for block in config["reservoirs"]
    ]}


@pytest.mark.parametrize("path", ["reservoirs.0.theta", "reservoirs.1.phi"])
def test_degree_sweep_writes_the_radian_sweep(tmp_path, path):
    sweep = {"path": path, "values": [30.0, 60.0]}
    degrees = write_config(tmp_path, {**DEGREE_CONFIG, "angle_unit": "degrees", "sweep": sweep}, "deg.json")
    as_radians = {**radians(DEGREE_CONFIG),
                  "sweep": {"path": path, "values": [math.radians(30.0), math.radians(60.0)]}}
    assert run_cli("run", "--config", degrees, "--out", tmp_path / "deg") in (0, 2)
    assert run_cli("run", "--config", write_config(tmp_path, as_radians), "--out", tmp_path / "rad") in (0, 2)
    assert artifacts(tmp_path / "deg") == artifacts(tmp_path / "rad")


@pytest.mark.parametrize("sweep", [None, {"path": "reservoirs.0.theta", "values": [30.0, 60.0]}],
                         ids=["trajectory", "sweep"])
def test_angle_unit_flag_reads_like_the_config_key(tmp_path, sweep):
    config = DEGREE_CONFIG if sweep is None else {**DEGREE_CONFIG, "sweep": sweep}
    flag = write_config(tmp_path, config, "flag.json")
    key = write_config(tmp_path, {**config, "angle_unit": "degrees"}, "key.json")
    assert run_cli("run", "--config", flag, "--angle-unit", "deg", "--out", tmp_path / "flag") in (0, 2)
    assert run_cli("run", "--config", key, "--out", tmp_path / "key") in (0, 2)
    assert artifacts(tmp_path / "flag") == artifacts(tmp_path / "key")
    assert artifacts(tmp_path / "flag")


def test_config_sweep_labels_like_the_preset_sweep(tmp_path, monkeypatch):
    # A config sweep over the second angle and the preset-side angle sweep
    # label their steady states through the same path, so the points agree
    # bitwise, and so do the rows written from them.
    theta1, coupling, values = 0.4, 0.1, [0.3, 1.2, 2.0, 2.9]
    engine = {"tau": 0.5, "max_collisions": 3000, "tol": 1e-6}
    config = write_config(tmp_path, {
        "reservoirs": [{"theta": theta1, "coupling": coupling}, {"theta": 1.0, "coupling": coupling}],
        "engine": engine,
        "sweep": {"path": "reservoirs.1.theta", "values": values},
    })
    written = []
    write_sweep = qsc.writers.write_sweep

    def spy(path, param_name, points, *args, **kwargs):
        written.extend(points)
        return write_sweep(path, param_name, points, *args, **kwargs)

    monkeypatch.setattr(qsc.writers, "write_sweep", spy)
    assert run_cli("run", "--config", config, "--out", tmp_path / "out") in (0, 2)
    expected = sweep_thetas([(theta1, v) for v in values], coupling, EngineConfig(**engine))

    def fields(p):
        return p.sigma_z_ss, p.n_used, p.converged, p.label

    assert [fields(p) for p in written] == [fields(p) for p in expected]
    assert {p.label.value for p in expected} == {"class1", "class2"}
    lines = (tmp_path / "out" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[2:] for line in lines[3:]] == [
        [format_cell(p.sigma_z_ss), format_cell(p.n_used), format_cell(p.converged), p.label.value]
        for p in expected
    ]


# Config round trip: generated specs written out as a config block and parsed
# back.  Every generated angle stays inside its range after the trip through
# degrees, because rounding is monotone and the range ends survive it.
NOISES = st.builds(NoiseSpec, epsilon=st.floats(0.25, 0.75), eta=st.floats(0.0, 0.25))
RESERVOIRS = st.builds(
    ReservoirSpec,
    theta=st.floats(0.0, math.pi),
    coupling=st.floats(0.0, 10.0),
    weight=st.none() | st.floats(0.0, 1.0),
    phi=st.just(0.0) | st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    noise=st.none() | NOISES,
)
ENGINES = st.builds(
    EngineConfig,
    h=st.floats(-1e4, 1e4),
    tau=st.floats(0.0, 10.0),
    max_collisions=st.integers(100, 10**6),
    tol=st.floats(1e-15, 1.0),
    window=st.integers(1, 100),
    mixing_mode=st.sampled_from(MIXING_MODES),
    seed=st.integers(0, 2**63 - 1),
)


def reservoir_block(spec: ReservoirSpec, factor: float) -> dict:
    block = {"theta": spec.theta / factor, "coupling": spec.coupling}
    if spec.weight is not None:
        block["weight"] = spec.weight
    if spec.phi != 0.0:
        block["phi"] = spec.phi / factor
    if spec.noise is not None:
        block["noise"] = {"epsilon": spec.noise.epsilon, "eta": spec.noise.eta}
    return block


@settings(max_examples=200, deadline=None)
@given(st.lists(RESERVOIRS, min_size=1, max_size=3), ENGINES)
def test_config_parser_round_trips_specs(reservoirs, cfg):
    engine = json.loads(json.dumps(dataclasses.asdict(cfg)))
    assert EngineConfig(**_parse_engine(engine, None)) == cfg
    for factor in (1.0, math.pi / 180.0):
        blocks = json.loads(json.dumps([reservoir_block(spec, factor) for spec in reservoirs]))
        parsed = [_parse_reservoir(block, factor, f"reservoirs.{i}") for i, block in enumerate(blocks)]
        if factor == 1.0:
            assert parsed == reservoirs
            continue
        for got, spec in zip(parsed, reservoirs):
            assert got.theta == pytest.approx(spec.theta, abs=1e-12)
            assert got.phi == pytest.approx(spec.phi, abs=1e-12)
            assert (got.coupling, got.weight, got.noise) == (spec.coupling, spec.weight, spec.noise)


def test_seed_precedence(tmp_path, monkeypatch):
    def header_seed(out_dir):
        first = (out_dir / "trajectory.csv").read_text(encoding="utf-8").splitlines()[0]
        return first.removeprefix("# seed=")

    config = write_config(tmp_path, {**BASE_CONFIG, "engine": {**BASE_CONFIG["engine"], "seed": 77}})
    run_cli("run", "--config", config, "--out", tmp_path / "a")
    assert header_seed(tmp_path / "a") == "77"

    monkeypatch.setenv("QSC_SEED", "123")
    run_cli("run", "--config", config, "--out", tmp_path / "b")
    assert header_seed(tmp_path / "b") == "123"

    run_cli("run", "--config", config, "--out", tmp_path / "c", "--seed", 9)
    assert header_seed(tmp_path / "c") == "9"


def test_invalid_env_seed_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QSC_SEED", "not-a-number")
    assert run_cli("run", "--preset", "fig1e", "--out", tmp_path) == 1
    assert "QSC_SEED" in capsys.readouterr().err


def test_invalid_env_seed_is_ignored_by_a_run_that_reads_no_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("QSC_SEED", raising=False)
    assert run_cli("run", "--preset", "transmon", "--out", tmp_path / "plain") == 0
    monkeypatch.setenv("QSC_SEED", "abc")
    assert run_cli("run", "--preset", "transmon", "--out", tmp_path / "env") == 0
    assert (tmp_path / "env" / "transmon.json").read_bytes() == (tmp_path / "plain" / "transmon.json").read_bytes()
    capsys.readouterr()
    assert run_cli("run", "--preset", "fig3a", "--out", tmp_path / "fig3a") == 1
    assert "QSC_SEED" in capsys.readouterr().err
    assert not (tmp_path / "fig3a").exists()


@pytest.mark.parametrize("source", [
    ("--seed", -1, "fig3a"),
    ("--seed", -1, "fig4b"),
    ("QSC_SEED", "-1", "fig3a"),
])
def test_negative_seed_exits_one_before_any_run(tmp_path, monkeypatch, capsys, source):
    where, seed, preset = source
    argv = ["run", "--preset", preset, "--out", tmp_path / "out"]
    if where == "QSC_SEED":
        monkeypatch.setenv("QSC_SEED", seed)
    else:
        argv += [where, seed]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert where in err and "-1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [
    {**BASE_CONFIG, "engine": {**BASE_CONFIG["engine"], "seed": -4}},
    {**BASE_CONFIG, "sweep": {"path": "engine.seed", "values": [3, -4]}},
])
def test_negative_engine_seed_exits_one_before_any_run(tmp_path, capsys, config):
    path = write_config(tmp_path, config)
    assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 1
    assert "engine.seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unwritable_output_exits_three(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file in the way", encoding="utf-8")
    code = run_cli("run", "--preset", "fig1e", "--out", blocker,
                   "--max-collisions", 60, "--tol", 0.5)
    assert code == 3


# The built-in set's report, printed and written (angular convention); the
# dispersive regime reads FAIL, honest about the marginal ratios.
TRANSMON_STDOUT = """\
omega_r = 8.625 GHz
qubit 0 (system): omega = 6.2 GHz, g = 393.676 MHz, |delta|/g = 6.16 (FAIL)
qubit 1 (reservoir 1): omega = 4.052 GHz, g = 393.676 MHz, |delta|/g = 11.62 (ok)
qubit 2 (reservoir 2): omega = 7.518 GHz, g = 188.816 MHz, |delta|/g = 5.863 (FAIL)
J(system, reservoir 1) = -48.9 MHz
J(system, reservoir 2) = -48.9 MHz
reservoir pair (1, 2): J = -41.7011 MHz, gap/|J| = 83.12 (ok)
dispersive regime: FAIL
response time: 10 us over 2000 collisions of 5 ns (T1 = 20 us: ok)
"""
TRANSMON_JSON = """\
{
  "frequency_convention": "angular",
  "omega_r_ghz": 8.625,
  "qubits": [
    {
      "omega_ghz": 6.2,
      "g_mhz": 393.67599197
    },
    {
      "omega_ghz": 4.052,
      "g_mhz": 393.67599197
    },
    {
      "omega_ghz": 7.518,
      "g_mhz": 188.815913134
    }
  ],
  "j12_mhz": -48.9,
  "j13_mhz": -48.9,
  "dispersive": {
    "qubit_ratios": [
      {
        "qubit": 0,
        "ratio": 6.15988795219,
        "ok": false
      },
      {
        "qubit": 1,
        "ratio": 11.6161515898,
        "ok": true
      },
      {
        "qubit": 2,
        "ratio": 5.86285330313,
        "ok": false
      }
    ],
    "pair_checks": [
      {
        "pair": [
          1,
          2
        ],
        "j_mhz": -41.7010549141,
        "ratio": 83.1154033666,
        "ok": true
      }
    ],
    "ok": false
  },
  "timing": {
    "tau_int_ns": 5.0,
    "tau_r_us": 20.0,
    "tau_pr_ns": 0.5,
    "t1_us": 20.0,
    "n_collisions": 2000,
    "response_us": 10.0,
    "t1_ok": true
  }
}
"""


def test_transmon_default_report(capsys):
    assert run_cli("transmon") == 0
    assert capsys.readouterr().out == TRANSMON_STDOUT


def test_transmon_preset_records_the_convention(tmp_path):
    # the report quotes ordinary frequencies and times, whichever convention
    # runs, so only its label differs
    for convention in ("angular", "ordinary"):
        assert run_cli("run", "--preset", "transmon", "--convention", convention,
                       "--out", tmp_path / convention) == 0
        expected = TRANSMON_JSON.replace('"angular"', f'"{convention}"')
        assert (tmp_path / convention / "transmon.json").read_text(encoding="utf-8") == expected


def test_transmon_custom_qubits(capsys):
    assert run_cli("transmon", "--omega-r", 10.0, "--qubit", "12.425:100") == 0
    assert capsys.readouterr().out == (
        "omega_r = 10 GHz\n"
        "qubit 0 (system): omega = 12.425 GHz, g = 100 MHz, |delta|/g = 24.25 (ok)\n"
        "dispersive regime: ok\n"
        "response time: 10 us over 2000 collisions of 5 ns (T1 = 20 us: ok)\n"
    )


def test_transmon_custom_reservoirs_and_timing(capsys):
    assert run_cli("transmon", "--omega-r", 8.6, "--qubit", "6.2:90", "--qubit", "4.0:80",
                   "--qubit", "7.7:60", "--tau-int", 3, "--n-collisions", 7000) == 0
    assert capsys.readouterr().out == (
        "omega_r = 8.6 GHz\n"
        "qubit 0 (system): omega = 6.2 GHz, g = 90 MHz, |delta|/g = 26.67 (ok)\n"
        "qubit 1 (reservoir 1): omega = 4 GHz, g = 80 MHz, |delta|/g = 57.5 (ok)\n"
        "qubit 2 (reservoir 2): omega = 7.7 GHz, g = 60 MHz, |delta|/g = 15 (ok)\n"
        "J(system, reservoir 1) = -2.28261 MHz\n"
        "J(system, reservoir 2) = -4.125 MHz\n"
        "reservoir pair (1, 2): J = -3.18841 MHz, gap/|J| = 1160 (ok)\n"
        "dispersive regime: ok\n"
        "response time: 21 us over 7000 collisions of 3 ns (T1 = 20 us: FAIL)\n"
    )


def test_transmon_requires_complete_override(capsys):
    assert run_cli("transmon", "--omega-r", 10.0) == 1
    assert "both" in capsys.readouterr().err


def test_transmon_rejects_malformed_qubit(capsys):
    assert run_cli("transmon", "--omega-r", 10.0, "--qubit", "6.2") == 1
    assert "--qubit expects" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--tau-int", "nan"), ("--tau-r", "nan"), ("--tau-pr", "inf"), ("--t1", "inf"), ("--t1", "nan"),
])
def test_transmon_rejects_non_finite_timing(capsys, flag, value):
    assert run_cli("transmon", flag, value) == 1
    captured = capsys.readouterr()
    assert "timing" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("source, flags", [
    (("--preset", "transmon"), ("--tol", "nan")),
    (("--preset", "transmon"), ("--tol", 1e-6)),
    (("--preset", "transmon"), ("--max-collisions", 0)),
    (("--preset", "transmon"), ("--max-collisions", 5000)),
    (("--preset", "transmon"), ("--max-collisions", 2**63)),
    ({"name": "transmon"}, ("--tol", 1e-6)),
    (("--preset", "transmon"), ("--seed", 5)),
    ({"name": "transmon", "output": {"format": "csv"}}, ()),
], ids=["tol_nan", "tol", "budget_zero", "budget", "budget_beyond_int64", "config", "seed", "config_format"])
def test_transmon_preset_rejects_collision_overrides(tmp_path, capsys, source, flags):
    # the report runs no collision, so these flags could only be ignored
    if isinstance(source, dict):
        source = ("--config", write_config(tmp_path, source))
    assert run_cli("run", *source, *flags, "--out", tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "transmon" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_one(tmp_path, capsys, tol):
    assert run_cli("run", "--preset", "fig1e", "--out", tmp_path, "--tol", tol) == 1
    assert "tol" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_budget_limit_is_the_largest_int64():
    # the loops count collisions in int64
    assert EngineConfig(max_collisions=2**63 - 1, window=2**63 - 1).max_collisions == 2**63 - 1
    with pytest.raises(ValueError, match="max_collisions"):
        EngineConfig(max_collisions=2**63)


@pytest.mark.parametrize("source", [
    ("--preset", "fig3a", "--max-collisions", 2**63),
    ("--preset", "fig7d", "--max-collisions", 2**63),
    {**BASE_CONFIG, "engine": {**BASE_CONFIG["engine"], "max_collisions": 1e300}},
    {**BASE_CONFIG, "sweep": {"path": "engine.max_collisions", "values": [400, 2**63]}},
], ids=["flag", "flag_noisy", "config", "sweep"])
def test_budget_beyond_int64_exits_one_before_writing(tmp_path, capsys, source):
    if isinstance(source, dict):
        source = ("--config", write_config(tmp_path, source))
    assert run_cli("run", *source, "--out", tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "max_collisions <= 2**63 - 1" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reservoir, engine", [
    ({"theta": True}, {}),
    ({"coupling": "0.1"}, {}),
    ({"phi": "0"}, {}),
    ({"weight": False}, {}),
    ({"noise": {"epsilon": "0.1"}}, {}),
    ({}, {"window": True}),
    ({}, {"tol": "1e-2"}),
    ({}, {"max_collisions": 2.7}),
    ({}, {"window": 2.5}),
    ({}, {"seed": 7.5}),
])
def test_config_numbers_are_strict(tmp_path, capsys, reservoir, engine):
    config = write_config(tmp_path, {
        "reservoirs": [{**BASE_CONFIG["reservoirs"][0], **reservoir}],
        "engine": {**BASE_CONFIG["engine"], **engine},
    })
    assert run_cli("run", "--config", config, "--out", tmp_path / "out") == 1
    assert "must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("patch", [
    {"output": {"path": 5}},
    {"output": {"format": "xml"}},
    {"sweep": {"path": 5, "values": [0.1]}},
    {"sweep": {"path": "reservoirs.0.noise", "values": [{"epsilon": 0.1}]}},
    {"sweep": {"path": "engine.mixing_mode", "values": ["convex"]}},
    {"sweep": {"path": "reservoirs.0.coupling", "values": [0.1, True]}},
    {"output": {"format": "csv"}, "sweep": {"path": "output.format", "values": [1, 2]}},
    {"angle_unit": "radians", "sweep": {"path": "angle_unit", "values": [1, 2]}},
    {"name": ["fig1e"]},
], ids=["output_path", "output_format", "sweep_path", "sweep_dict_value",
        "sweep_string_value", "sweep_bool_value", "sweep_output_path", "sweep_top_level_path", "name"])
def test_malformed_config_input_is_rejected_before_any_run(tmp_path, capsys, monkeypatch, patch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("qsc.presets.evolve_runs", no_run)
    monkeypatch.setattr("qsc.classifier.evolve_batch", no_run)
    config = write_config(tmp_path, {**BASE_CONFIG, **patch})
    assert run_cli("run", "--config", config, "--out", tmp_path / "out") == 1
    assert "must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_accepts_integral_floats_for_counts(tmp_path):
    config = write_config(tmp_path, {
        **BASE_CONFIG,
        "engine": {**BASE_CONFIG["engine"], "max_collisions": 400.0, "seed": 77.0},
    })
    assert run_cli("run", "--config", config, "--out", tmp_path / "out") == 0
    first = (tmp_path / "out" / "trajectory.csv").read_text(encoding="utf-8").splitlines()[0]
    assert first == "# seed=77"


@pytest.mark.parametrize("source, flags", [
    (("--preset", "fig3a"), ("--convention", "ordinary")),
    (("--preset", "fig2a"), ("--convention", "angular")),
    (("--preset", "fig5f"), ("--convention", "ordinary")),
    ({"name": "fig1e"}, ("--convention", "ordinary")),
    (BASE_CONFIG, ("--convention", "ordinary")),
    ({**BASE_CONFIG, "sweep": {"path": "reservoirs.0.coupling", "values": [0.1, 0.2]}},
     ("--convention", "angular")),
    (("--preset", "transmon"), ("--format", "csv")),
    (("--preset", "transmon"), ("--format", "json")),
    ({"name": "transmon"}, ("--format", "csv")),
    (("--preset", "fig3a"), ("--angle-unit", "deg")),
    ({"name": "fig3a", "angle_unit": "degrees"}, ()),
], ids=["fig3a", "fig2a", "fig5f", "preset_config", "reservoir_config", "config_sweep",
        "transmon_csv", "transmon_json", "transmon_config", "angle_unit_flag", "angle_unit_key"])
def test_flags_the_run_would_ignore_exit_one_before_writing(tmp_path, capsys, source, flags):
    # an input given by config key is named by that key
    named = flags[0] if flags else next(key for key in source if key != "name")
    if isinstance(source, dict):
        source = ("--config", write_config(tmp_path, source))
    assert run_cli("run", *source, *flags, "--out", tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", [("--preset", "transmon"), {"name": "transmon"}],
                         ids=["preset", "config"])
def test_transmon_reads_the_convention_flag(tmp_path, source):
    if isinstance(source, dict):
        source = ("--config", write_config(tmp_path, source))
    assert run_cli("run", *source, "--convention", "ordinary", "--out", tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "transmon.json").read_text(encoding="utf-8"))
    assert report["frequency_convention"] == "ordinary"


# Each input a run can be given besides its output path, by flag or by config
# key, at a value that differs from what the run does without it.
INPUTS = {
    "seed": [("--seed", 5)],
    "format": [("--format", "json"), {"output": {"format": "json"}}],
    "max_collisions": [("--max-collisions", 30)],
    "tol": [("--tol", 1.0)],
    "convention": [("--convention", "ordinary")],
    "angle_unit": [("--angle-unit", "deg"), {"angle_unit": "degrees"}],
    "reservoirs": [{"reservoirs": []}],
    "engine": [{"engine": {}}],
    "sweep": [{"sweep": {}}],
}


@pytest.mark.parametrize("name", PRESETS)
def test_each_preset_reads_exactly_its_declared_inputs(tmp_path, name):
    # a budget that binds every run keeps this fast, and --tol 1.0 stops them early
    reads = PRESETS[name].reads
    budget = ("--max-collisions", 20, "--tol", 1e-3) if "max_collisions" in reads else ()

    def run(way, out):
        if isinstance(way, dict):
            source = ("--config", write_config(tmp_path, {"name": name, **way}, f"{out}.json"))
        else:
            source = ("--preset", name, *way)
        return run_cli("run", *source[:2], *budget, *source[2:], "--out", tmp_path / out)

    assert run((), "base") in (0, 2)
    base = artifacts(tmp_path / "base")
    for key, ways in INPUTS.items():
        for index, way in enumerate(ways):
            out = f"{key}_{index}"
            if key in reads:
                assert run(way, out) in (0, 2), out
                assert artifacts(tmp_path / out) != base, out
            else:
                assert run(way, out) == 1, out
                assert not (tmp_path / out).exists(), out

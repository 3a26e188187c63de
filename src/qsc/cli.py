"""Experiment runner: built-in presets, custom JSON configs, parameter sweeps.

This module parses and validates the command line and the config; every run
is made and written by qsc.presets, so a custom config runs like a preset.

Exit codes: 0 success, 1 invalid configuration or usage, 2 at least one run
stopped at its collision budget without reaching the convergence tolerance
(output files are still written), 3 output could not be written.  Invalid
input is rejected before any run, and nothing is written.

Custom config schema (JSON object; unknown keys are errors everywhere):

    name        optional, "custom" (default) or a preset id
    angle_unit  optional, "radians" (default) or "degrees"; input only,
                output angle columns are always radians
    reservoirs  list of {theta, coupling, weight?, phi?, noise?} where
                noise is {epsilon, eta?}
    engine      {h?, tau?, max_collisions?, tol?, window?, mixing_mode?, seed?}
    sweep       optional {path, values}; path under engine. or reservoirs.,
                like "engine.h" or "reservoirs.0.coupling", values are numbers
                in the config's units; swept angles are written in radians
    output      optional {path?, format?}

Besides --out and output.path, presets fig1e-fig5f read seed, format,
max_collisions and tol; fig7a-d read those and convention; transmon reads
only convention; a custom config reads the first four and angle_unit,
reservoirs, engine and sweep.  Any other input given, by flag or config key,
exits 1 before any value is checked; --jobs is exempt, and so is QSC_SEED,
which only a run that reads seed resolves and checks.

Without a sweep a custom config writes one trajectory from +x whose
fidelity column is measured against the fixed point of the collision map;
for noisy or stochastic runs that is the map in expectation.  A map with no
unique fixed point (tau = 0, all couplings 0) is rejected with exit 1.

Numeric fields must be JSON numbers, not strings or booleans, and
max_collisions, window and seed must be integral, and a seed from any
source must be nonnegative.  max_collisions, from the config, a sweep value
or --max-collisions, must be at most 2**63 - 1, the largest int64.

Seed precedence: --seed, then the QSC_SEED environment variable, then the
config's engine.seed, then the built-in default.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from pathlib import Path

from .collision import NoiseSpec, ReservoirSpec
from .physical import TimingBudget, TransmonParams
from .presets import (CUSTOM_READS, TRANSMON_TIMING, PresetOutcome, RunOptions, UnknownPreset, find_preset,
                      list_presets, run_custom, run_custom_sweep, run_preset, transmon_report)

_TOP_KEYS = {"name", "angle_unit", "reservoirs", "engine", "sweep", "output"}
_RESERVOIR_KEYS = {"theta", "coupling", "weight", "phi", "noise"}
_NOISE_KEYS = {"epsilon", "eta"}
_ENGINE_KEYS = {"h", "tau", "max_collisions", "tol", "window", "mixing_mode", "seed"}
_SWEEP_KEYS = {"path", "values"}
_OUTPUT_KEYS = {"path", "format"}


class InvalidConfig(ValueError):
    """Configuration or usage problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool reserves
    # for non-convergence; route usage problems to the config-error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _check_keys(block: dict, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise InvalidConfig(f"{where} must be an object")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise InvalidConfig(f"unknown key(s) {unknown} in {where}")


def _angle_factor(unit: str | None) -> float:
    if unit in (None, "rad", "radians"):
        return 1.0
    if unit in ("deg", "degrees"):
        return math.pi / 180.0
    raise InvalidConfig(f"angle_unit must be radians or degrees, got {unit!r}")


def _nonnegative_seed(seed: int, where: str) -> int:
    if seed < 0:
        raise InvalidConfig(f"{where} must be a nonnegative integer, got {seed}")
    return seed


def _resolve_seed(cli_seed: int | None) -> int | None:
    if cli_seed is not None:
        return _nonnegative_seed(cli_seed, "--seed")
    env = os.environ.get("QSC_SEED")
    if env is not None:
        try:
            seed = int(env, 0)
        except ValueError:
            raise InvalidConfig(f"QSC_SEED must be an integer, got {env!r}") from None
        return _nonnegative_seed(seed, "QSC_SEED")
    return None


def _number(value, where: str, integral: bool = False):
    """A JSON number as float, or as int for integral fields.  Bools, strings
    and fractional counts are rejected instead of coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfig(f"{where} must be a number, got {value!r}")
    if not integral:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise InvalidConfig(f"{where} must be an integer, got {value!r}")
    return int(value)


def _parse_reservoir(block: dict, factor: float, where: str) -> ReservoirSpec:
    _check_keys(block, _RESERVOIR_KEYS, where)
    for key in ("theta", "coupling"):
        if key not in block:
            raise InvalidConfig(f"{where} is missing {key!r}")
    noise = None
    if block.get("noise") is not None:
        _check_keys(block["noise"], _NOISE_KEYS, f"{where}.noise")
        if "epsilon" not in block["noise"]:
            raise InvalidConfig(f"{where}.noise is missing 'epsilon'")
        noise = NoiseSpec(
            epsilon=_number(block["noise"]["epsilon"], f"{where}.noise.epsilon"),
            eta=_number(block["noise"].get("eta", 0.0), f"{where}.noise.eta"),
        )
    weight = block.get("weight")
    return ReservoirSpec(
        theta=_number(block["theta"], f"{where}.theta") * factor,
        coupling=_number(block["coupling"], f"{where}.coupling"),
        weight=None if weight is None else _number(weight, f"{where}.weight"),
        phi=_number(block.get("phi", 0.0), f"{where}.phi") * factor,
        noise=noise,
    )


def _parse_engine(block: dict) -> dict:
    """EngineConfig fields of an engine block."""
    _check_keys(block, _ENGINE_KEYS, "engine")
    kwargs = {}
    for key in ("h", "tau", "tol"):
        if key in block:
            kwargs[key] = _number(block[key], f"engine.{key}")
    for key in ("max_collisions", "window", "seed"):
        if key in block:
            kwargs[key] = _number(block[key], f"engine.{key}", integral=True)
    if "seed" in kwargs:
        _nonnegative_seed(kwargs["seed"], "engine.seed")
    if "mixing_mode" in block:
        kwargs["mixing_mode"] = block["mixing_mode"]
    return kwargs


def _list_index(part: str) -> int:
    # int() would also take "-1", " 0", "+1" and "0_1"
    if not (part.isascii() and part.isdigit()):
        raise ValueError(part)
    return int(part)


def _apply_sweep_value(raw: dict, path: str, value) -> None:
    parts = path.split(".")
    node = raw
    try:
        for part in parts[:-1]:
            node = node[_list_index(part)] if isinstance(node, list) else node[part]
        if isinstance(node, list):
            node[_list_index(parts[-1])] = value
        elif isinstance(node, dict):
            node[parts[-1]] = value
        else:
            raise TypeError
    except (KeyError, IndexError, TypeError, ValueError):
        raise InvalidConfig(f"sweep path {path!r} does not resolve in the config") from None


def _read_config(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidConfig(f"cannot read config: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config is not valid JSON: {exc}") from None
    _check_keys(raw, _TOP_KEYS, "config")
    _check_keys(raw.get("output", {}), _OUTPUT_KEYS, "output")
    return raw


def _options(args, raw: dict, seed: int | None) -> RunOptions:
    """The invocation's run options; flags beat the config's output block."""
    output = raw.get("output", {})
    path = output.get("path", "out")
    if not isinstance(path, str):
        raise InvalidConfig(f"output.path must be a string, got {path!r}")
    return RunOptions(out_dir=Path(path) if args.out is None else args.out,
                      seed=seed,
                      fmt=args.format or output.get("format", "csv"),
                      max_collisions=args.max_collisions, tol=args.tol,
                      convention=args.convention or "angular")


def _run_custom(raw: dict, angle_unit: str | None, opts: RunOptions) -> PresetOutcome:
    for key in ("reservoirs", "engine"):
        if key not in raw:
            raise InvalidConfig(f"custom configs must define {key!r}")
    if not isinstance(raw["reservoirs"], list) or not raw["reservoirs"]:
        raise InvalidConfig("reservoirs must be a non-empty list")
    factor = _angle_factor(angle_unit or raw.get("angle_unit"))

    def parse(config: dict):
        reservoirs = [
            _parse_reservoir(block, factor, f"reservoirs.{i}")
            for i, block in enumerate(config["reservoirs"])
        ]
        return reservoirs, _parse_engine(config["engine"])

    sweep = raw.get("sweep")
    if sweep is None:
        return run_custom(opts, *parse(raw))

    _check_keys(sweep, _SWEEP_KEYS, "sweep")
    if "path" not in sweep or "values" not in sweep:
        raise InvalidConfig("sweep needs both 'path' and 'values'")
    path, values = sweep["path"], sweep["values"]
    if not isinstance(path, str):
        raise InvalidConfig(f"sweep.path must be a string, got {path!r}")
    if not path.startswith(("reservoirs.", "engine.")):
        raise InvalidConfig(f"sweep.path must be under reservoirs. or engine., got {path!r}")
    if not isinstance(values, list) or not values:
        raise InvalidConfig("sweep.values must be a non-empty list")
    scale = factor if path.endswith((".theta", ".phi")) else 1.0
    params = [_number(value, f"sweep.values.{i}") * scale for i, value in enumerate(values)]
    setups = []
    for value in values:
        varied = copy.deepcopy(raw)
        _apply_sweep_value(varied, path, value)
        setups.append(parse(varied))
    return run_custom_sweep(opts, path, params, setups)


def _reject_unread(args, raw: dict, name: str, reads: frozenset) -> None:
    """Exit 1 on the first input given, by flag or config key, that the run would ignore."""
    flags = ("seed", "format", "max_collisions", "tol", "angle_unit", "convention")
    given = [("--" + key.replace("_", "-"), key) for key in flags if getattr(args, key) is not None]
    given += [(key, key) for key in raw if key not in ("name", "output")]
    given += [("output.format", "format")] if "format" in raw.get("output", {}) else []
    for where, key in given:
        if key not in reads:
            raise InvalidConfig(f"run {name!r} does not read {where}, so the invocation must not define it")


def cmd_run(args) -> int:
    # --preset X is the config {"name": X}, but never a custom config
    raw = {"name": args.preset} if args.config is None else _read_config(args.config)
    name = raw.get("name", "custom")
    if not isinstance(name, str):
        raise InvalidConfig(f"name must be a string, got {name!r}")
    custom = name == "custom" and args.preset is None
    reads = CUSTOM_READS if custom else find_preset(name).reads
    _reject_unread(args, raw, name, reads)
    seed = _resolve_seed(args.seed) if "seed" in reads else None
    opts = _options(args, raw, seed)
    outcome = _run_custom(raw, args.angle_unit, opts) if custom else run_preset(name, opts)
    for path in outcome.files:
        print(path)
    if not outcome.all_converged:
        print("warning: at least one run hit its collision budget before the "
              "convergence tolerance", file=sys.stderr)
        return 2
    return 0


def cmd_list(args) -> int:
    for name, description in list_presets():
        print(f"{name:<9} {description}")
    return 0


def _parse_qubit(text: str) -> tuple[float, float]:
    try:
        omega, g = text.split(":")
        return float(omega), float(g)
    except ValueError:
        raise InvalidConfig(f"--qubit expects OMEGA_GHZ:G_MHZ, got {text!r}") from None


_VERDICT = {True: "ok", False: "FAIL"}


def cmd_transmon(args) -> int:
    budget = TimingBudget(tau_int=args.tau_int, tau_r=args.tau_r, tau_pr=args.tau_pr,
                          t1=args.t1, n_collisions=args.n_collisions)
    params = None
    if args.omega_r is not None and args.qubit:
        params = TransmonParams(args.omega_r, tuple(_parse_qubit(q) for q in args.qubit))
    elif args.omega_r is not None or args.qubit:
        raise InvalidConfig("transmon needs both --omega-r and at least one --qubit "
                            "(or neither, for the built-in parameter set)")

    report = transmon_report(params, budget)
    disp, timing = report["dispersive"], report["timing"]
    print(f"omega_r = {report['omega_r_ghz']:g} GHz")
    for index, (qubit, check) in enumerate(zip(report["qubits"], disp["qubit_ratios"])):
        role = "system" if index == 0 else f"reservoir {index}"
        print(f"qubit {index} ({role}): omega = {qubit['omega_ghz']:g} GHz, g = {qubit['g_mhz']:.6g} MHz, "
              f"|delta|/g = {check['ratio']:.4g} ({_VERDICT[check['ok']]})")
    for index in range(1, len(report["qubits"])):
        print(f"J(system, reservoir {index}) = {report[f'j1{index + 1}_mhz']:.6g} MHz")
    for check in disp["pair_checks"]:
        print(f"reservoir pair {tuple(check['pair'])}: J = {check['j_mhz']:.6g} MHz, "
              f"gap/|J| = {check['ratio']:.4g} ({_VERDICT[check['ok']]})")
    print(f"dispersive regime: {_VERDICT[disp['ok']]}")
    print(f"response time: {timing['response_us']:g} us over {timing['n_collisions']} collisions of "
          f"{timing['tau_int_ns']:g} ns (T1 = {timing['t1_us']:g} us: {_VERDICT[timing['t1_ok']]})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a preset or a custom config")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="preset id (see: qsc list)")
    source.add_argument("--config", type=Path, help="JSON experiment config")
    run.add_argument("--out", type=Path, default=None, help="output directory (default: out)")
    run.add_argument("--seed", type=int, default=None, help="RNG seed override")
    run.add_argument("--jobs", type=int, default=None,
                     help="accepted for compatibility and ignored: sweeps run "
                          "batched in one process")
    run.add_argument("--format", choices=("csv", "json"), default=None)
    run.add_argument("--max-collisions", type=int, default=None, dest="max_collisions")
    run.add_argument("--tol", type=float, default=None, help="convergence tolerance override")
    run.add_argument("--angle-unit", choices=("rad", "deg"), default=None,
                     help="unit of angles in the config file (output is always radians)")
    run.add_argument("--convention", choices=("ordinary", "angular"), default=None,
                     help="frequency convention of fig7a-d and transmon: angular (default) gives "
                          "quoted frequencies the standard 2*pi phase, ordinary reads them literally")
    run.set_defaults(func=cmd_run)

    lst = sub.add_parser("list", help="list the built-in presets")
    lst.set_defaults(func=cmd_list)

    transmon = sub.add_parser("transmon", help="hardware parameter report")
    transmon.add_argument("--omega-r", type=float, default=None, dest="omega_r",
                          help="resonator frequency in GHz")
    transmon.add_argument("--qubit", action="append", default=[],
                          metavar="OMEGA_GHZ:G_MHZ",
                          help="qubit frequency and coupling; first is the system qubit")
    transmon.add_argument("--tau-int", type=float, default=TRANSMON_TIMING.tau_int, dest="tau_int",
                          help="interaction time in ns")
    transmon.add_argument("--tau-r", type=float, default=TRANSMON_TIMING.tau_r, dest="tau_r",
                          help="reservoir relaxation time in us")
    transmon.add_argument("--tau-pr", type=float, default=TRANSMON_TIMING.tau_pr, dest="tau_pr",
                          help="reset/preparation time in ns")
    transmon.add_argument("--t1", type=float, default=TRANSMON_TIMING.t1,
                          help="system-qubit T1 in us")
    transmon.add_argument("--n-collisions", type=int, default=TRANSMON_TIMING.n_collisions, dest="n_collisions")
    transmon.set_defaults(func=cmd_transmon)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, UnknownPreset, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

"""Experiment runner: built-in presets, custom JSON configs, parameter sweeps.

Exit codes: 0 success, 1 invalid configuration or usage, 2 at least one run
stopped at its collision budget without reaching the convergence tolerance
(output files are still written), 3 output could not be written.

Custom config schema (JSON object; unknown keys are errors everywhere):

    name        optional, "custom" (default) or a preset id
    angle_unit  optional, "radians" (default) or "degrees"; input only,
                output angle columns are always radians
    reservoirs  list of {theta, coupling, weight?, phi?, noise?} where
                noise is {epsilon, eta?}
    engine      {h?, tau?, max_collisions?, tol?, window?, mixing_mode?, seed?}
    sweep       optional {path, values}; path like "engine.h" or
                "reservoirs.0.coupling", values are applied as given
    output      optional {path?, format?}

Numeric fields must be JSON numbers, not strings or booleans, and
max_collisions, window and seed must be integral.

Seed precedence: --seed, then the QSC_SEED environment variable, then the
config's engine.seed, then the built-in default.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import writers
from .classifier import LabeledPoint, classify
from .collision import (
    DEFAULT_SEED,
    EngineConfig,
    NoiseNotSupported,
    NoiseSpec,
    ReservoirSpec,
    SingularSystem,
    evolve,
    evolve_batch,
    steady_state_oracle,
)
from .physical import TimingBudget, TransmonParams, response_time, system_reservoir_couplings, validate_dispersive
from .presets import (
    PresetOutcome,
    RunOptions,
    UnknownPreset,
    derived_transmon_params,
    list_presets,
    run_preset,
)

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


def _resolve_seed(cli_seed: int | None) -> int | None:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get("QSC_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise InvalidConfig(f"QSC_SEED must be an integer, got {env!r}") from None
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


def _parse_engine(block: dict, args, seed: int | None) -> EngineConfig:
    _check_keys(block, _ENGINE_KEYS, "engine")
    kwargs = {}
    for key in ("h", "tau", "tol"):
        if key in block:
            kwargs[key] = _number(block[key], f"engine.{key}")
    for key in ("max_collisions", "window", "seed"):
        if key in block:
            kwargs[key] = _number(block[key], f"engine.{key}", integral=True)
    if "mixing_mode" in block:
        kwargs["mixing_mode"] = block["mixing_mode"]
    if seed is not None:
        kwargs["seed"] = seed
    if args.max_collisions is not None:
        kwargs["max_collisions"] = args.max_collisions
    if args.tol is not None:
        kwargs["tol"] = args.tol
    return EngineConfig(**kwargs)


def _apply_sweep_value(raw: dict, path: str, value) -> None:
    parts = path.split(".")
    node = raw
    try:
        for part in parts[:-1]:
            node = node[int(part)] if isinstance(node, list) else node[part]
        if isinstance(node, list):
            node[int(parts[-1])] = value
        elif isinstance(node, dict):
            node[parts[-1]] = value
        else:
            raise TypeError
    except (KeyError, IndexError, TypeError, ValueError):
        raise InvalidConfig(f"sweep path {path!r} does not resolve in the config") from None


def _resolve_target(reservoirs, cfg: EngineConfig) -> np.ndarray | None:
    # Stochastic mixing averages to the convex map, so the convex fixed point
    # is the right fidelity reference; noise has no oracle at all.
    oracle_cfg = cfg
    if cfg.mixing_mode == "stochastic":
        oracle_cfg = dataclasses.replace(cfg, mixing_mode="convex")
    try:
        return steady_state_oracle(reservoirs, oracle_cfg).rho_ss
    except (NoiseNotSupported, SingularSystem):
        return None


def _fidelity_to_final(traj) -> np.ndarray:
    from .states import bloch_to_density, fidelity

    target = bloch_to_density(traj.bloch[-1])
    return np.array([fidelity(bloch_to_density(b), target) for b in traj.bloch])


def _run_config(raw: dict, args, seed: int | None) -> PresetOutcome:
    _check_keys(raw, _TOP_KEYS, "config")
    output = raw.get("output", {})
    _check_keys(output, _OUTPUT_KEYS, "output")
    out_dir = args.out if args.out is not None else Path(output.get("path", "out"))
    fmt = args.format or output.get("format", "csv")

    name = raw.get("name", "custom")
    if name != "custom":
        for key in ("reservoirs", "engine", "sweep"):
            if key in raw:
                raise InvalidConfig(f"preset config {name!r} must not define {key!r}")
        opts = RunOptions(out_dir=out_dir, seed=DEFAULT_SEED if seed is None else seed,
                          fmt=fmt, max_collisions=args.max_collisions,
                          tol=args.tol, convention=args.convention)
        return run_preset(name, opts)

    for key in ("reservoirs", "engine"):
        if key not in raw:
            raise InvalidConfig(f"custom configs must define {key!r}")
    if not isinstance(raw["reservoirs"], list) or not raw["reservoirs"]:
        raise InvalidConfig("reservoirs must be a non-empty list")
    factor = _angle_factor(args.angle_unit or raw.get("angle_unit"))

    def build(config: dict):
        reservoirs = [
            _parse_reservoir(block, factor, f"reservoirs.{i}")
            for i, block in enumerate(config["reservoirs"])
        ]
        return reservoirs, _parse_engine(config["engine"], args, seed)

    sweep = raw.get("sweep")
    if sweep is None:
        reservoirs, cfg = build(raw)
        target = _resolve_target(reservoirs, cfg)
        traj, result = evolve(None, reservoirs, cfg, target=target)
        fid = traj.fidelity if traj.fidelity is not None else _fidelity_to_final(traj)
        path = Path(out_dir) / f"trajectory.{fmt}"
        writers.write_trajectory(path, traj, cfg.seed, fmt, fidelity=fid)
        return PresetOutcome([path], result.converged)

    _check_keys(sweep, _SWEEP_KEYS, "sweep")
    if "path" not in sweep or "values" not in sweep:
        raise InvalidConfig("sweep needs both 'path' and 'values'")
    values = sweep["values"]
    if not isinstance(values, list) or not values:
        raise InvalidConfig("sweep.values must be a non-empty list")
    runs = []
    for value in values:
        varied = copy.deepcopy(raw)
        _apply_sweep_value(varied, sweep["path"], value)
        reservoirs, cfg = build(varied)
        runs.append((reservoirs, cfg, None))
    points = [LabeledPoint((float(value),), result.sigma_z_ss, classify(result),
                           result.n_used, result.converged, None, float(value))
              for value, result in zip(values, evolve_batch(runs))]
    path = Path(out_dir) / f"sweep.{fmt}"
    writers.write_sweep(path, sweep["path"], points, runs[0][1].seed, fmt)
    return PresetOutcome([path], all(p.converged for p in points))


def cmd_run(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.preset is not None:
        opts = RunOptions(out_dir=args.out if args.out is not None else Path("out"),
                          seed=DEFAULT_SEED if seed is None else seed,
                          fmt=args.format or "csv",
                          max_collisions=args.max_collisions, tol=args.tol,
                          convention=args.convention)
        outcome = run_preset(args.preset, opts)
    else:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise InvalidConfig("config top level must be a JSON object")
        outcome = _run_config(raw, args, seed)
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


def cmd_transmon(args) -> int:
    if args.omega_r is None and not args.qubit:
        params = derived_transmon_params()
    elif args.omega_r is None or not args.qubit:
        raise InvalidConfig("transmon needs both --omega-r and at least one --qubit "
                            "(or neither, for the built-in parameter set)")
    else:
        params = TransmonParams(args.omega_r, tuple(_parse_qubit(q) for q in args.qubit))

    print(f"omega_r = {params.omega_r:g} GHz")
    report = validate_dispersive(params)
    for (omega, g), (index, ratio, ok) in zip(params.qubits, report.qubit_ratios):
        role = "system" if index == 0 else f"reservoir {index}"
        print(f"qubit {index} ({role}): omega = {omega:g} GHz, g = {g:.6g} MHz, "
              f"|delta|/g = {ratio:.4g} ({'ok' if ok else 'FAIL'})")
    for index, j in enumerate(system_reservoir_couplings(params), start=1):
        print(f"J(system, reservoir {index}) = {j:.6g} MHz")
    for pair, j, ratio, ok in report.pair_checks:
        print(f"reservoir pair {pair}: J = {j:.6g} MHz, gap/|J| = {ratio:.4g} "
              f"({'ok' if ok else 'FAIL'})")
    print(f"dispersive regime: {'ok' if report.ok else 'FAIL'}")

    budget = TimingBudget(tau_int=args.tau_int, tau_r=args.tau_r, tau_pr=args.tau_pr,
                          t1=args.t1, n_collisions=args.n_collisions)
    total, ok = response_time(budget)
    print(f"response time: {total:g} us over {budget.n_collisions} collisions of "
          f"{budget.tau_int:g} ns (T1 = {budget.t1:g} us: {'ok' if ok else 'FAIL'})")
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
    run.add_argument("--convention", choices=("ordinary", "angular"), default="angular",
                     help="frequency convention for physical-scale presets: angular "
                          "(default) gives quoted frequencies the standard 2*pi phase, "
                          "ordinary reads them literally")
    run.set_defaults(func=cmd_run)

    lst = sub.add_parser("list", help="list the built-in presets")
    lst.set_defaults(func=cmd_list)

    transmon = sub.add_parser("transmon", help="hardware parameter report")
    transmon.add_argument("--omega-r", type=float, default=None, dest="omega_r",
                          help="resonator frequency in GHz")
    transmon.add_argument("--qubit", action="append", default=[],
                          metavar="OMEGA_GHZ:G_MHZ",
                          help="qubit frequency and coupling; first is the system qubit")
    transmon.add_argument("--tau-int", type=float, default=5.0, dest="tau_int",
                          help="interaction time in ns")
    transmon.add_argument("--tau-r", type=float, default=20.0, dest="tau_r",
                          help="reservoir relaxation time in us")
    transmon.add_argument("--tau-pr", type=float, default=0.5, dest="tau_pr",
                          help="reset/preparation time in ns")
    transmon.add_argument("--t1", type=float, default=20.0,
                          help="system-qubit T1 in us")
    transmon.add_argument("--n-collisions", type=int, default=2000, dest="n_collisions")
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

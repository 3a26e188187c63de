"""Built-in experiment presets: canned reservoir setups with artifact layouts.

Shared conventions across the catalog:

* dimensionless runs use the nominal coupling J = 0.1 with collision time
  tau = 0.05 / J = 0.5 and field h = 1,
* physical-scale runs (the fig7 family and the transmon report) quote
  ordinary frequencies: couplings in MHz, qubit frequencies in GHz, times
  in us.  A quoted frequency f enters the collision propagator with the
  standard 2*pi*f*tau phase (``convention="angular"``, the default);
  ``convention="ordinary"`` drops the 2*pi for the literal f*tau reading,
* every random draw descends from ``RunOptions.seed``, so a preset rerun
  with the same options is byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import writers
from .classifier import (
    LabeledPoint,
    check_linear_separability,
    generate_theta_dataset,
    label_runs,
    sweep_couplings,
    sweep_thetas,
)
from .collision import DEFAULT_SEED, ORACLE, EngineConfig, NoiseSpec, ReservoirSpec, evolve_runs

# Trajectories call evolve_runs, but perfbench/tracer.py still patches the
# single-run ``evolve`` bound here, and its self-tests require the name.
from .collision import evolve  # noqa: F401
from .physical import (
    TimingBudget,
    TransmonParams,
    response_time,
    system_reservoir_couplings,
    validate_dispersive,
)
from .states import mixed_target, pure_qubit

NOMINAL_J = 0.1
NOMINAL_TAU = 0.05 / NOMINAL_J

# Physical-scale numbers for the noisy classification runs: exchange coupling
# in MHz, qubit frequency in MHz, collision time in us (5 ns).
PHYS_J_MHZ = 48.9
PHYS_H_MHZ = 6200.0
PHYS_TAU_US = 0.005
PHYS_MAX_COLLISIONS = 2000

# The transmon report's timing budget.  The entries besides tau_int are
# representative bracketing values (relaxation well above the interaction
# time, preparation well below), not quoted numbers.
TRANSMON_TIMING = TimingBudget(tau_int=5.0, tau_r=20.0, tau_pr=0.5, t1=20.0, n_collisions=2000)

CONVENTIONS = ("ordinary", "angular")

_DEG = math.pi / 180.0


class UnknownPreset(KeyError):
    """Raised when a preset id is not in the catalog."""


@dataclass(frozen=True)
class RunOptions:
    """The knobs of one run.  A run reads only those its kind declares
    (``Preset.reads``, ``CUSTOM_READS``) and ignores the rest; None leaves
    the preset's or the config's own value alone."""

    out_dir: Path
    seed: int = DEFAULT_SEED
    fmt: str = "csv"
    max_collisions: int | None = None
    tol: float | None = None
    convention: str = "angular"

    def __post_init__(self) -> None:
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}, got {self.convention!r}")


@dataclass
class PresetOutcome:
    """Artifact paths plus whether every run in the preset converged."""

    files: list[Path]
    all_converged: bool


def _cfg(opts: RunOptions, **overrides) -> EngineConfig:
    """The engine of one run: the options' max_collisions and tol beat the
    run's own values, and the options' seed fills in a missing one."""
    overrides.setdefault("seed", opts.seed)
    if opts.max_collisions is not None:
        overrides["max_collisions"] = opts.max_collisions
    if opts.tol is not None:
        overrides["tol"] = opts.tol
    return EngineConfig(**overrides)


def _artifact(opts: RunOptions, base: str) -> Path:
    return Path(opts.out_dir) / f"{base}.{opts.fmt}"


def _trajectories(opts: RunOptions, cfg: EngineConfig, runs) -> PresetOutcome:
    """One recorded trajectory from +x per (file base, reservoirs, target)
    run, all in one ``evolve_runs`` call; a target is a density matrix or
    ``ORACLE``, the oracle fixed point of the run's map (for a random map,
    the map in expectation).  Each run's Trajectory is built just before
    its file is written."""
    recorded = evolve_runs([(reservoirs, cfg, target, None) for _, reservoirs, target in runs])
    files, all_ok = [], True
    for (base, _, _), (traj, result) in zip(runs, recorded):
        path = _artifact(opts, base)
        writers.write_trajectory(path, traj, cfg.seed, opts.fmt)
        files.append(path)
        all_ok &= result.converged
    return PresetOutcome(files, all_ok)


def _sweep_run(opts: RunOptions, cfg: EngineConfig, param_name: str,
               points: list[LabeledPoint]) -> PresetOutcome:
    path = _artifact(opts, "sweep")
    writers.write_sweep(path, param_name, points, cfg.seed, opts.fmt)
    return PresetOutcome([path], all(p.converged for p in points))


def _dataset_run(opts, points: list[LabeledPoint], feature_names) -> PresetOutcome:
    dataset = _artifact(opts, "dataset")
    writers.write_dataset(dataset, points, feature_names, opts.seed, opts.fmt)
    verdict = Path(opts.out_dir) / "separability.json"
    writers.write_separability(verdict, check_linear_separability(points))
    return PresetOutcome([dataset, verdict], all(p.converged for p in points))


def _theta_dataset_run(opts: RunOptions, cfg: EngineConfig, dims: int, coupling: float,
                       noise: NoiseSpec | None = None) -> PresetOutcome:
    """42 random angle tuples of ``dims`` reservoirs at one equal coupling,
    classified, with their separability verdict."""
    thetas = generate_theta_dataset(42, dims=dims, seed=opts.seed)
    points = sweep_thetas(thetas, coupling, cfg, noise=noise)
    return _dataset_run(opts, points, tuple(f"theta_{i + 1}" for i in range(dims)))


def _run_fig1e(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=5000)
    reservoirs = [ReservoirSpec(theta=math.pi, coupling=NOMINAL_J)]
    return _trajectories(opts, cfg, [("trajectory", reservoirs, pure_qubit(math.pi))])


def _run_fig2a(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=40_000)
    return _trajectories(opts, cfg, [
        (f"trajectory_j2_{j2:g}",
         [ReservoirSpec(theta=0.0, coupling=NOMINAL_J), ReservoirSpec(theta=math.pi, coupling=j2)],
         ORACLE)
        for j2 in (0.025, 0.05, 0.075, 0.1)
    ])


def _run_fig2b(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=40_000)
    return _trajectories(opts, cfg, [
        (f"trajectory_theta1_{round(math.degrees(theta1))}",
         [ReservoirSpec(theta=theta1, coupling=NOMINAL_J), ReservoirSpec(theta=math.pi, coupling=NOMINAL_J)],
         ORACLE)
        for theta1 in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
    ])


def _run_fig3a(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=100_000)
    return _sweep_run(opts, cfg, "delta_j", sweep_couplings(np.linspace(-0.05, 0.05, 21), NOMINAL_J, cfg))


def _ten_degree_grid() -> list[float]:
    return [min(i * 10 * _DEG, math.pi) for i in range(19)]


def _theta_response_run(opts, tuples) -> PresetOutcome:
    # Generic angle pairs mix the decay sectors; the slowest affine-map
    # eigenvalue over the whole theta square needs about 35k collisions at
    # the default tolerance.  The response curves are plotted against the
    # collapsed coordinate, each pair's param_value.
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=40_000)
    return _sweep_run(opts, cfg, "phi_scaled", sweep_thetas(tuples, NOMINAL_J, cfg))


def _run_fig3b(opts: RunOptions) -> PresetOutcome:
    grid = _ten_degree_grid()
    tuples = [(t1, t2) for t1 in (30 * _DEG, 60 * _DEG, 90 * _DEG) for t2 in grid]
    tuples += [(t1, t2) for t2 in (120 * _DEG, 150 * _DEG, math.pi) for t1 in grid]
    return _theta_response_run(opts, tuples)


def _run_fig3c(opts: RunOptions) -> PresetOutcome:
    grid = _ten_degree_grid()
    return _theta_response_run(opts, [(t1, t2) for t1 in grid for t2 in grid])


def _run_fig4a(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=100_000)
    points = sweep_couplings(np.linspace(-0.05, 0.05, 24), NOMINAL_J, cfg)
    return _dataset_run(opts, points, ("j_1", "j_2"))


def _run_fig4b(opts: RunOptions) -> PresetOutcome:
    return _theta_dataset_run(opts, _cfg(opts, tau=NOMINAL_TAU, max_collisions=40_000), 2, NOMINAL_J)


def _run_fig5a(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=30_000)
    return _trajectories(opts, cfg, [
        ("trajectory_2ch", [
            ReservoirSpec(theta=0.0, coupling=0.1),
            ReservoirSpec(theta=math.pi, coupling=0.075),
        ], ORACLE),
        ("trajectory_3ch", [
            ReservoirSpec(theta=0.0, coupling=NOMINAL_J),
            ReservoirSpec(theta=0.0, coupling=NOMINAL_J),
            ReservoirSpec(theta=math.pi, coupling=NOMINAL_J),
        ], ORACLE),
    ])


def _mixture_trajectory(opts, thetas) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=20_000)
    reservoirs = [ReservoirSpec(theta=t, coupling=NOMINAL_J) for t in thetas]
    target = mixed_target([(t, 1.0 / len(thetas)) for t in thetas])
    return _trajectories(opts, cfg, [("trajectory", reservoirs, target)])


def _run_fig5bc(opts: RunOptions) -> PresetOutcome:
    return _mixture_trajectory(opts, (0.0, 0.0, math.pi))


def _run_fig5de(opts: RunOptions) -> PresetOutcome:
    return _mixture_trajectory(opts, (0.0, math.pi, math.pi))


def _run_fig5f(opts: RunOptions) -> PresetOutcome:
    return _theta_dataset_run(opts, _cfg(opts, tau=NOMINAL_TAU, max_collisions=40_000), 3, NOMINAL_J)


def _run_fig7(opts: RunOptions, epsilon: float) -> PresetOutcome:
    factor = 1.0 if opts.convention == "ordinary" else 2.0 * math.pi
    cfg = _cfg(opts, h=factor * PHYS_H_MHZ, tau=PHYS_TAU_US,
               max_collisions=PHYS_MAX_COLLISIONS)
    noise = NoiseSpec(epsilon=epsilon, eta=epsilon / 4.0)
    return _theta_dataset_run(opts, cfg, 2, factor * PHYS_J_MHZ, noise)


def derived_transmon_params() -> TransmonParams:
    """Reconstruct couplings from the quoted frequencies and target J, PHYS_J_MHZ.

    Only the frequencies and the effective couplings are given, so g is fixed
    by inverting the dispersive formula: one common g for the system pair and
    the first reservoir, then the second reservoir's g from the same target.
    """
    omega_r, w1, w2, w3 = 8.625, 6.2, 4.052, 7.518
    d1, d2, d3 = w1 - omega_r, w2 - omega_r, w3 - omega_r
    g_sys = math.sqrt(PHYS_J_MHZ / abs(0.5 * (1.0 / d1 + 1.0 / d2) / 1000.0))
    g3 = PHYS_J_MHZ / abs(0.5 * g_sys * (1.0 / d1 + 1.0 / d3) / 1000.0)
    return TransmonParams(omega_r, ((w1, g_sys), (w2, g_sys), (w3, g3)))


def transmon_report(params: TransmonParams | None = None, budget: TimingBudget = TRANSMON_TIMING,
                    convention: str = "angular") -> dict:
    """Everything the hardware mapping yields: couplings, regime checks, timing.

    ``params=None`` reports the built-in set.  ``j1{i}_mhz`` couples the
    system to qubit i, counting from 1.  ``convention`` only labels the
    report: its numbers are quoted ordinary frequencies and times, which the
    frequency convention does not change.
    """
    params = params or derived_transmon_params()
    disp = validate_dispersive(params)
    total_us, t1_ok = response_time(budget)
    return {
        "frequency_convention": convention,
        "omega_r_ghz": params.omega_r,
        "qubits": [{"omega_ghz": w, "g_mhz": g} for w, g in params.qubits],
        **{f"j1{i}_mhz": j for i, j in enumerate(system_reservoir_couplings(params), start=2)},
        "dispersive": {
            "qubit_ratios": [
                {"qubit": i, "ratio": r, "ok": ok} for i, r, ok in disp.qubit_ratios
            ],
            "pair_checks": [
                {"pair": list(pair), "j_mhz": j, "ratio": r, "ok": ok}
                for pair, j, r, ok in disp.pair_checks
            ],
            "ok": disp.ok,
        },
        "timing": {
            "tau_int_ns": budget.tau_int,
            "tau_r_us": budget.tau_r,
            "tau_pr_ns": budget.tau_pr,
            "t1_us": budget.t1,
            "n_collisions": budget.n_collisions,
            "response_us": total_us,
            "t1_ok": t1_ok,
        },
    }


def _run_transmon(opts: RunOptions) -> PresetOutcome:
    path = Path(opts.out_dir) / "transmon.json"
    writers.write_json(path, transmon_report(convention=opts.convention))
    return PresetOutcome([path], True)


COLLISION_READS = frozenset({"seed", "format", "max_collisions", "tol"})
CUSTOM_READS = COLLISION_READS | {"angle_unit", "reservoirs", "engine", "sweep"}


@dataclass(frozen=True)
class Preset:
    run: Callable[[RunOptions], PresetOutcome]
    description: str
    reads: frozenset = COLLISION_READS  # the inputs the run reads besides the output path


def _fig7_preset(epsilon: float, note: str = "") -> Preset:
    text = (f"physical-scale noisy classification, preparation error "
            f"epsilon={epsilon:g} (eta=epsilon/4){note}")
    return Preset(partial(_run_fig7, epsilon=epsilon), text, COLLISION_READS | {"convention"})


PRESETS: dict[str, Preset] = {
    "fig1e": Preset(_run_fig1e,
                    "one spin-down reservoir: magnetization and fidelity trace of |+>; "
                    "its bloch_x/y/z columns give the Bloch path"),
    "fig2a": Preset(_run_fig2a,
                    "up/down reservoirs, fixed j1=0.1: traces for four j2 couplings"),
    "fig2b": Preset(_run_fig2b,
                    "equal couplings against a spin-down reservoir: traces for four theta_1"),
    "fig3a": Preset(_run_fig3a,
                    "21-point steady-response sweep of the coupling imbalance delta_j"),
    "fig3b": Preset(_run_fig3b,
                    "six theta-response curves, 114 points, vs pi - theta_1 - theta_2"),
    "fig3c": Preset(_run_fig3c,
                    "19 x 19 theta grid, 361 points, vs pi - theta_1 - theta_2"),
    "fig4a": Preset(_run_fig4a,
                    "24 coupling pairs on j_1 + j_2 = 0.1, classified, with verdict"),
    "fig4b": Preset(_run_fig4b,
                    "42 random theta pairs at equal couplings, classified, with verdict"),
    "fig5a": Preset(_run_fig5a,
                    "two- vs three-reservoir convergence race, one trajectory each"),
    "fig5bc": Preset(_run_fig5bc,
                     "up/up/down reservoirs: trajectory with fidelity to the 2/3-1/3 mixture"),
    "fig5de": Preset(_run_fig5de,
                     "up/down/down reservoirs: trajectory with fidelity to the 1/3-2/3 mixture"),
    "fig5f": Preset(_run_fig5f,
                    "42 random theta triples at equal couplings, classified, with verdict"),
    "fig7a": _fig7_preset(0.01),
    "fig7b": _fig7_preset(0.1),
    "fig7c": _fig7_preset(0.4, "; verdict recorded, not asserted"),
    "fig7d": _fig7_preset(0.6),
    "transmon": Preset(_run_transmon,
                       "hardware parameter report: derived couplings, regime checks, timing",
                       frozenset({"convention"})),
}


def list_presets() -> list[tuple[str, str]]:
    return [(name, preset.description) for name, preset in PRESETS.items()]


def find_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise UnknownPreset(f"unknown preset {name!r}; see the list subcommand") from None


def run_preset(name: str, opts: RunOptions) -> PresetOutcome:
    return find_preset(name).run(opts)


def run_custom(opts: RunOptions, reservoirs: list[ReservoirSpec], engine: dict) -> PresetOutcome:
    """One custom run from +x, recorded with its fidelity to the oracle
    fixed point; ``engine`` holds the run's EngineConfig fields."""
    return _trajectories(opts, _cfg(opts, **engine), [("trajectory", reservoirs, ORACLE)])


def run_custom_sweep(opts: RunOptions, param_name: str, values: list[float],
                     setups: list[tuple[list[ReservoirSpec], dict]]) -> PresetOutcome:
    """One batched steady state per sweep value, from its (reservoirs,
    engine fields) setup; the header carries the first run's seed."""
    runs = [(reservoirs, _cfg(opts, **engine), None) for reservoirs, engine in setups]
    points = label_runs([(value,) for value in values], runs, values)
    return _sweep_run(opts, runs[0][1], param_name, points)

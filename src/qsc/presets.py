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

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import writers
from .classifier import (
    LabeledPoint,
    check_linear_separability,
    generate_theta_dataset,
    sweep_couplings,
    sweep_thetas,
)
from .collision import (
    DEFAULT_SEED,
    EngineConfig,
    NoiseSpec,
    ReservoirSpec,
    evolve,
    steady_state_oracle,
)
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

CONVENTIONS = ("ordinary", "angular")

_DEG = math.pi / 180.0


class UnknownPreset(KeyError):
    """Raised when a preset id is not in the catalog."""


@dataclass(frozen=True)
class RunOptions:
    """Knobs every preset accepts; None leaves the preset's own value alone."""

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
    overrides.setdefault("seed", opts.seed)
    if opts.max_collisions is not None:
        overrides["max_collisions"] = opts.max_collisions
    if opts.tol is not None:
        overrides["tol"] = opts.tol
    return EngineConfig(**overrides)


def _artifact(opts: RunOptions, base: str) -> Path:
    return Path(opts.out_dir) / f"{base}.{opts.fmt}"


def _trajectory_run(opts, reservoirs, cfg, target, base) -> tuple[Path, bool]:
    traj, result = evolve(None, reservoirs, cfg, target=target)
    path = _artifact(opts, base)
    writers.write_trajectory(path, traj, opts.seed, opts.fmt)
    return path, result.converged


def _oracle_target(reservoirs, cfg) -> np.ndarray:
    return steady_state_oracle(reservoirs, cfg).rho_ss


def _dataset_run(opts, points: list[LabeledPoint], feature_names) -> PresetOutcome:
    dataset = _artifact(opts, "dataset")
    writers.write_dataset(dataset, points, feature_names, opts.seed, opts.fmt)
    verdict = Path(opts.out_dir) / "separability.json"
    writers.write_separability(verdict, check_linear_separability(points))
    return PresetOutcome([dataset, verdict], all(p.converged for p in points))


def _run_fig1e(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=5000)
    reservoirs = [ReservoirSpec(theta=math.pi, coupling=NOMINAL_J)]
    path, ok = _trajectory_run(opts, reservoirs, cfg, pure_qubit(math.pi), "trajectory")
    return PresetOutcome([path], ok)


def _run_fig2a(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=40_000)
    files, all_ok = [], True
    for j2 in (0.025, 0.05, 0.075, 0.1):
        reservoirs = [
            ReservoirSpec(theta=0.0, coupling=NOMINAL_J),
            ReservoirSpec(theta=math.pi, coupling=j2),
        ]
        target = _oracle_target(reservoirs, cfg)
        path, ok = _trajectory_run(opts, reservoirs, cfg, target, f"trajectory_j2_{j2:g}")
        files.append(path)
        all_ok &= ok
    return PresetOutcome(files, all_ok)


def _run_fig2b(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=40_000)
    files, all_ok = [], True
    for theta1 in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        reservoirs = [
            ReservoirSpec(theta=theta1, coupling=NOMINAL_J),
            ReservoirSpec(theta=math.pi, coupling=NOMINAL_J),
        ]
        target = _oracle_target(reservoirs, cfg)
        base = f"trajectory_theta1_{round(math.degrees(theta1))}"
        path, ok = _trajectory_run(opts, reservoirs, cfg, target, base)
        files.append(path)
        all_ok &= ok
    return PresetOutcome(files, all_ok)


def _run_fig3a(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=100_000)
    points = sweep_couplings(np.linspace(-0.05, 0.05, 21), NOMINAL_J, cfg)
    path = _artifact(opts, "sweep")
    writers.write_sweep(path, "delta_j", points, opts.seed, opts.fmt)
    return PresetOutcome([path], all(p.converged for p in points))


def _ten_degree_grid() -> list[float]:
    return [min(i * 10 * _DEG, math.pi) for i in range(19)]


def _theta_response_run(opts, tuples, base_name) -> PresetOutcome:
    # Generic angle pairs mix the decay sectors; the slowest affine-map
    # eigenvalue over the whole theta square needs about 35k collisions at
    # the default tolerance.
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=40_000)
    points = sweep_thetas(tuples, NOMINAL_J, cfg)
    # The response curves are plotted against the collapsed coordinate, so it
    # becomes the sweep parameter column.
    rows = [dataclasses.replace(p, param_value=p.phi_scaled) for p in points]
    path = _artifact(opts, base_name)
    writers.write_sweep(path, "phi_scaled", rows, opts.seed, opts.fmt)
    return PresetOutcome([path], all(p.converged for p in points))


def _run_fig3b(opts: RunOptions) -> PresetOutcome:
    grid = _ten_degree_grid()
    tuples = [(t1, t2) for t1 in (30 * _DEG, 60 * _DEG, 90 * _DEG) for t2 in grid]
    tuples += [(t1, t2) for t2 in (120 * _DEG, 150 * _DEG, math.pi) for t1 in grid]
    return _theta_response_run(opts, tuples, "sweep")


def _run_fig3c(opts: RunOptions) -> PresetOutcome:
    grid = _ten_degree_grid()
    tuples = [(t1, t2) for t1 in grid for t2 in grid]
    return _theta_response_run(opts, tuples, "sweep")


def _run_fig4a(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=100_000)
    points = sweep_couplings(np.linspace(-0.05, 0.05, 24), NOMINAL_J, cfg)
    return _dataset_run(opts, points, ("j_1", "j_2"))


def _run_fig4b(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=40_000)
    thetas = generate_theta_dataset(42, dims=2, seed=opts.seed)
    points = sweep_thetas(thetas, NOMINAL_J, cfg)
    return _dataset_run(opts, points, ("theta_1", "theta_2"))


def _run_fig5a(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=30_000)
    runs = (
        ("trajectory_2ch", [
            ReservoirSpec(theta=0.0, coupling=0.1),
            ReservoirSpec(theta=math.pi, coupling=0.075),
        ]),
        ("trajectory_3ch", [
            ReservoirSpec(theta=0.0, coupling=NOMINAL_J),
            ReservoirSpec(theta=0.0, coupling=NOMINAL_J),
            ReservoirSpec(theta=math.pi, coupling=NOMINAL_J),
        ]),
    )
    files, all_ok = [], True
    for base, reservoirs in runs:
        target = _oracle_target(reservoirs, cfg)
        path, ok = _trajectory_run(opts, reservoirs, cfg, target, base)
        files.append(path)
        all_ok &= ok
    return PresetOutcome(files, all_ok)


def _mixture_trajectory(opts, thetas) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=20_000)
    reservoirs = [ReservoirSpec(theta=t, coupling=NOMINAL_J) for t in thetas]
    target = mixed_target([(t, 1.0 / len(thetas)) for t in thetas])
    path, ok = _trajectory_run(opts, reservoirs, cfg, target, "trajectory")
    return PresetOutcome([path], ok)


def _run_fig5bc(opts: RunOptions) -> PresetOutcome:
    return _mixture_trajectory(opts, (0.0, 0.0, math.pi))


def _run_fig5de(opts: RunOptions) -> PresetOutcome:
    return _mixture_trajectory(opts, (0.0, math.pi, math.pi))


def _run_fig5f(opts: RunOptions) -> PresetOutcome:
    cfg = _cfg(opts, tau=NOMINAL_TAU, max_collisions=40_000)
    thetas = generate_theta_dataset(42, dims=3, seed=opts.seed)
    points = sweep_thetas(thetas, NOMINAL_J, cfg)
    return _dataset_run(opts, points, ("theta_1", "theta_2", "theta_3"))


def _run_fig7(opts: RunOptions, epsilon: float) -> PresetOutcome:
    factor = 1.0 if opts.convention == "ordinary" else 2.0 * math.pi
    cfg = _cfg(opts, h=factor * PHYS_H_MHZ, tau=PHYS_TAU_US,
               max_collisions=PHYS_MAX_COLLISIONS)
    noise = NoiseSpec(epsilon=epsilon, eta=epsilon / 4.0)
    thetas = generate_theta_dataset(42, dims=2, seed=opts.seed)
    points = sweep_thetas(thetas, factor * PHYS_J_MHZ, cfg, noise=noise)
    return _dataset_run(opts, points, ("theta_1", "theta_2"))


def derived_transmon_params(j_target_mhz: float = PHYS_J_MHZ) -> TransmonParams:
    """Reconstruct couplings from the quoted frequencies and target J.

    Only the frequencies and the effective couplings are given, so g is fixed
    by inverting the dispersive formula: one common g for the system pair and
    the first reservoir, then the second reservoir's g from the same target.
    """
    omega_r, w1, w2, w3 = 8.625, 6.2, 4.052, 7.518
    d1, d2, d3 = w1 - omega_r, w2 - omega_r, w3 - omega_r
    g_sys = math.sqrt(j_target_mhz / abs(0.5 * (1.0 / d1 + 1.0 / d2) / 1000.0))
    g3 = j_target_mhz / abs(0.5 * g_sys * (1.0 / d1 + 1.0 / d3) / 1000.0)
    return TransmonParams(omega_r, ((w1, g_sys), (w2, g_sys), (w3, g3)))


def transmon_report() -> dict:
    """Everything the hardware mapping yields: couplings, regime checks, timing.

    The timing entries besides tau_int are representative bracketing values
    (relaxation well above the interaction time, preparation well below), not
    quoted numbers.
    """
    params = derived_transmon_params()
    j12, j13 = system_reservoir_couplings(params)
    disp = validate_dispersive(params)
    budget = TimingBudget(tau_int=5.0, tau_r=20.0, tau_pr=0.5, t1=20.0, n_collisions=2000)
    total_us, t1_ok = response_time(budget)
    return {
        "frequency_convention": "angular",
        "omega_r_ghz": params.omega_r,
        "qubits": [{"omega_ghz": w, "g_mhz": g} for w, g in params.qubits],
        "j12_mhz": j12,
        "j13_mhz": j13,
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
    writers.write_json(path, transmon_report())
    return PresetOutcome([path], True)


@dataclass(frozen=True)
class Preset:
    run: Callable[[RunOptions], PresetOutcome]
    description: str


def _fig7_preset(epsilon: float, note: str = "") -> Preset:
    def runner(opts: RunOptions) -> PresetOutcome:
        return _run_fig7(opts, epsilon)

    text = (f"physical-scale noisy classification, preparation error "
            f"epsilon={epsilon:g} (eta=epsilon/4){note}")
    return Preset(runner, text)


PRESETS: dict[str, Preset] = {
    "fig1e": Preset(_run_fig1e,
                    "one spin-down reservoir: magnetization and fidelity trace of |+>"),
    "fig1f": Preset(_run_fig1e,
                    "same run as fig1e; read the bloch_x/y/z columns for the Bloch path"),
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
                       "hardware parameter report: derived couplings, regime checks, timing"),
}


def list_presets() -> list[tuple[str, str]]:
    return [(name, preset.description) for name, preset in PRESETS.items()]


def run_preset(name: str, opts: RunOptions) -> PresetOutcome:
    try:
        preset = PRESETS[name]
    except KeyError:
        raise UnknownPreset(f"unknown preset {name!r}; see the list subcommand") from None
    return preset.run(opts)

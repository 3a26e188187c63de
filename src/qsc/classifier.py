"""Steady-state binary classifier on top of the collision engine.

A configuration of reservoir angles (or couplings) is fed to the engine, the
steady magnetization is read out and the sign decides the class; ties go to
class 1.  One labeling function, ``label_runs``, serves every sweep (the
preset sweeps here and the config sweeps of ``qsc.presets``): it evaluates
the whole point set in one batched evolution (the points of one kind advance
together in this process) and labels each steady state with ``classify``.
An exact linear program (Phase I of the simplex method) decides whether the
labeled set is linearly separable in feature space.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .collision import DEFAULT_SEED, EngineConfig, NoiseSpec, ReservoirSpec, SteadyStateResult, evolve_runs

# Sweeps call evolve_runs, but perfbench/tracer.py still patches the single-run
# ``evolve`` bound here, and its self-tests require the name.
from .collision import evolve  # noqa: F401


class CouplingOutOfRange(ValueError):
    """Raised when a coupling sweep would need a negative coupling."""


class EmptyInput(ValueError):
    """Raised when a routine that needs data receives none."""


class Label(enum.Enum):
    CLASS1 = "class1"
    CLASS2 = "class2"


@dataclass(frozen=True)
class LabeledPoint:
    """One classified configuration: its features and steady-state readout."""

    features: tuple[float, ...]
    sigma_z_ss: float
    label: Label
    n_used: int
    converged: bool
    phi_scaled: float | None = None
    param_value: float | None = None


@dataclass
class SeparabilityReport:
    """Exact separability verdict; (w, b) is a unit-normal hyperplane iff
    separable, and ``iterations`` counts the simplex pivots."""

    separable: bool
    w: np.ndarray | None
    b: float | None
    margin: float
    iterations: int


def classify(result: SteadyStateResult) -> Label:
    """Class 1 iff the steady magnetization is nonnegative."""
    return Label.CLASS1 if result.sigma_z_ss >= 0.0 else Label.CLASS2


def label_runs(features, runs, param_values, phi_scaled=None) -> list[LabeledPoint]:
    """One labeled point per (reservoirs, cfg) run, in input order.

    Every run's steady state comes from one unrecorded ``evolve_runs`` call
    and its label from ``classify``; ``features``, ``param_values`` and the
    optional ``phi_scaled`` give each point's remaining fields, one entry
    per run.
    """
    phis = [None] * len(runs) if phi_scaled is None else phi_scaled
    results = evolve_runs([(reservoirs, cfg, None) for reservoirs, cfg in runs], record=False)
    return [LabeledPoint(f, r.sigma_z_ss, classify(r), r.n_used, r.converged, phi, value)
            for f, (_, r), value, phi in zip(features, results, param_values, phis)]


def sweep_couplings(delta_j_values, base_j: float, cfg: EngineConfig) -> list[LabeledPoint]:
    """Sweep the coupling imbalance: j1 = base/2 + delta, j2 = base/2 - delta.

    The collision time stays whatever ``cfg.tau`` says (it is tied to the
    nominal base coupling, not re-derived per point).
    """
    deltas = [float(d) for d in delta_j_values]
    if not deltas:
        raise EmptyInput("no sweep values")
    half = 0.5 * base_j
    for d in deltas:
        if abs(d) > half + 1e-15:
            raise CouplingOutOfRange(f"|delta_j| = {abs(d)} exceeds base_j/2 = {half}")
    pairs = [(min(half + d, base_j), max(half - d, 0.0)) for d in deltas]
    runs = [([ReservoirSpec(theta=0.0, coupling=j1), ReservoirSpec(theta=math.pi, coupling=j2)], cfg)
            for j1, j2 in pairs]
    return label_runs(pairs, runs, deltas)


def sweep_thetas(
    theta_tuples,
    coupling: float,
    cfg: EngineConfig,
    noise: NoiseSpec | None = None,
) -> list[LabeledPoint]:
    """Steady states for reservoir-angle tuples at one equal coupling.

    Pairs also carry the scaled angle pi - (theta_1 + theta_2), as both
    ``phi_scaled`` and ``param_value``, since the response is plotted against
    that single collapsed coordinate.  A point that draws, under noise or
    stochastic mixing, owns a private stream, its config's seed replaced by
    the child SeedSequence(entropy, spawn_key=spawn_key + (i,)) of the seed
    as a SeedSequence; for an int seed that is SeedSequence(cfg.seed,
    spawn_key=(i,)).
    """
    tuples = [tuple(float(t) for t in entry) for entry in theta_tuples]
    if not tuples:
        raise EmptyInput("no theta tuples")
    base = cfg.seed if isinstance(cfg.seed, np.random.SeedSequence) else np.random.SeedSequence(cfg.seed)
    runs = []
    for index, thetas in enumerate(tuples):
        reservoirs = [ReservoirSpec(theta=t, coupling=coupling, noise=noise) for t in thetas]
        point = cfg if noise is None and cfg.mixing_mode != "stochastic" else replace(
            cfg, seed=np.random.SeedSequence(base.entropy, spawn_key=base.spawn_key + (index,)))
        runs.append((reservoirs, point))
    phis = [math.pi - (thetas[0] + thetas[1]) if len(thetas) == 2 else None for thetas in tuples]
    return label_runs(tuples, runs, phis, phis)


def generate_theta_dataset(n: int, dims: int = 2, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Random reservoir-angle tuples in [0, pi], shape (n, dims): draws of
    normal(pi/2, 1) clipped into the range."""
    if n <= 0:
        raise EmptyInput(f"dataset size must be positive, got {n}")
    if dims not in (2, 3):
        raise ValueError(f"dims must be 2 or 3, got {dims}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return np.clip(rng.normal(math.pi / 2.0, 1.0, size=(n, dims)), 0.0, math.pi)


# Pivot and optimality tolerance of the simplex, on unit-ball features.
_TOL = 1e-9


def _single_class_plane(x: np.ndarray, y: np.ndarray) -> SeparabilityReport:
    # One class only: any plane pushed past the data separates it.
    w = np.zeros(x.shape[1])
    w[0] = 1.0
    side = float(y[0])
    b = side * (1.0 - float(np.min(side * x[:, 0])))
    margin = float(np.min(y * (x @ w + b)))
    return SeparabilityReport(True, w, b, margin, 0)


def _gordan_phase_one(a: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Phase I of the simplex method, with Bland's rule, on Gordan's
    alternative {a^T lam = 0, sum(lam) = 1, lam >= 0}.

    Returns the optimal sum of the artificial variables (0 iff the system is
    feasible), the optimal simplex multipliers pi and the number of pivots.
    The tableau has one row per constraint plus the objective row, and its
    artificial columns hold the basis inverse, so pi = 1 - their reduced costs.
    """
    n, k = a.shape
    m = k + 1
    t = np.zeros((m + 1, n + m + 1))
    t[:k, :n] = a.T
    t[k, :n] = 1.0
    t[:m, n:n + m] = np.eye(m)
    t[k, -1] = 1.0
    t[m, :n] = -t[:m, :n].sum(axis=0)
    t[m, -1] = -1.0
    basis = list(range(n, n + m))
    pivots = 0
    while (entering := np.flatnonzero(t[m, :-1] < -_TOL)).size:
        j = entering[0]
        # Bland: the first improving column enters; among rows tied in the
        # ratio test, the one with the lowest basic index leaves.
        i = min(np.flatnonzero(t[:m, j] > _TOL), key=lambda r: (t[r, -1] / t[r, j], basis[r]))
        row = t[i] / t[i, j]
        t -= np.outer(t[:, j], row)
        t[i] = row
        basis[i] = j
        pivots += 1
    return -float(t[m, -1]), 1.0 - t[m, n:n + m], pivots


def check_linear_separability(points: list[LabeledPoint]) -> SeparabilityReport:
    """Exact test for strict linear separability of the labeled features.

    Runs on centered features rescaled to the unit ball, which makes the
    verdict invariant under translating or positively rescaling the inputs.
    With rows a_i = y_i (x_i, 1), Gordan's theorem says that either some z
    has a z > 0 (a separating plane) or some lam >= 0 with sum 1 has
    a^T lam = 0 (the two classes' convex hulls meet), never both.  Phase I of
    the simplex method decides which; ``iterations`` counts its pivots.  When
    the system is infeasible its multipliers pi give z = -pi[:-1] with
    a z >= pi[-1] > 0.  The returned hyperplane is mapped back to raw feature
    coordinates with a unit normal, and ``margin`` is the worst-case signed
    distance in those coordinates.
    """
    if not points:
        raise EmptyInput("no labeled points")
    x = np.array([p.features for p in points], dtype=float)
    y = np.array([1.0 if p.label is Label.CLASS1 else -1.0 for p in points])
    if np.all(y == y[0]):
        return _single_class_plane(x, y)

    center = x.mean(axis=0)
    centered = x - center
    scale = float(np.max(np.linalg.norm(centered, axis=1))) or 1.0
    a = y[:, None] * np.hstack([centered / scale, np.ones((len(points), 1))])
    infeasibility, pi, pivots = _gordan_phase_one(a)
    if infeasibility <= _TOL:
        return SeparabilityReport(False, None, None, 0.0, pivots)

    z = -pi[:-1]
    w_raw = z[:-1] / scale
    b_raw = float(z[-1]) - float(w_raw @ center)
    norm = float(np.linalg.norm(w_raw))
    w_unit = w_raw / norm
    b_unit = b_raw / norm
    margin = float(np.min(y * (x @ w_unit + b_unit)))
    return SeparabilityReport(True, w_unit, b_unit, margin, pivots)

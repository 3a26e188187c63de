"""Steady-state binary classifier on top of the collision engine.

A configuration of reservoir angles (or couplings) is fed to the engine, the
steady magnetization is read out and the sign decides the class; ties go to
class 1.  Sweep helpers evaluate whole point sets in one batched evolution
(every point advances in lockstep in this process), and a perceptron checks
whether the labeled set is linearly separable in feature space.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .collision import DEFAULT_SEED, EngineConfig, NoiseSpec, ReservoirSpec, SteadyStateResult, evolve_batch

# Sweeps call evolve_batch, but perfbench/tracer.py still patches the single-run
# ``evolve`` bound here, and its self-tests require the name.
from .collision import evolve  # noqa: F401


class CouplingOutOfRange(ValueError):
    """Raised when a coupling sweep would need a negative coupling."""


class UnknownSampler(ValueError):
    """Raised for an unrecognized dataset sampler name."""


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
    """Perceptron verdict; (w, b) is a unit-normal hyperplane iff separable."""

    separable: bool
    w: np.ndarray | None
    b: float | None
    margin: float
    iterations: int


def classify(result: SteadyStateResult) -> Label:
    """Class 1 iff the steady magnetization is nonnegative."""
    return Label.CLASS1 if result.sigma_z_ss >= 0.0 else Label.CLASS2


def _as_point(
    features: tuple[float, ...],
    result: SteadyStateResult,
    phi_scaled: float | None = None,
    param_value: float | None = None,
) -> LabeledPoint:
    return LabeledPoint(
        features,
        result.sigma_z_ss,
        classify(result),
        result.n_used,
        result.converged,
        phi_scaled,
        param_value,
    )


def _coupling_points(pairs, cfg: EngineConfig, param_values) -> list[LabeledPoint]:
    runs = [([ReservoirSpec(theta=0.0, coupling=j1), ReservoirSpec(theta=math.pi, coupling=j2)], cfg, None)
            for j1, j2 in pairs]
    return [_as_point(pair, result, param_value=value)
            for pair, result, value in zip(pairs, evolve_batch(runs), param_values)]


def sweep_coupling_pairs(pairs: list[tuple[float, float]], cfg: EngineConfig) -> list[LabeledPoint]:
    """Steady states for explicit (j1, j2) pairs on the up/down reservoir pair."""
    if not pairs:
        raise EmptyInput("no coupling pairs")
    for j1, j2 in pairs:
        if j1 < 0.0 or j2 < 0.0:
            raise CouplingOutOfRange(f"couplings must be nonnegative, got ({j1}, {j2})")
    return _coupling_points([(j1, j2) for j1, j2 in pairs], cfg, [None] * len(pairs))


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
    return _coupling_points(pairs, cfg, deltas)


def sweep_thetas(
    theta_tuples,
    coupling: float,
    cfg: EngineConfig,
    noise: NoiseSpec | None = None,
) -> list[LabeledPoint]:
    """Steady states for reservoir-angle tuples at one equal coupling.

    Pairs also carry the scaled angle pi - (theta_1 + theta_2) used when the
    response is plotted against a single collapsed coordinate.  Under noise
    every point owns a private stream derived from (seed, point index).
    """
    tuples = [tuple(float(t) for t in entry) for entry in theta_tuples]
    if not tuples:
        raise EmptyInput("no theta tuples")
    runs = []
    for index, thetas in enumerate(tuples):
        reservoirs = [ReservoirSpec(theta=t, coupling=coupling, noise=noise) for t in thetas]
        rng = None
        if noise is not None:
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(index,)))
        runs.append((reservoirs, cfg, rng))
    return [
        _as_point(thetas, result, phi_scaled=math.pi - (thetas[0] + thetas[1]) if len(thetas) == 2 else None)
        for thetas, result in zip(tuples, evolve_batch(runs))
    ]


SAMPLERS = ("clipped-gaussian", "uniform")


def generate_theta_dataset(
    n: int, dims: int = 2, sampler: str = "clipped-gaussian", seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Random reservoir-angle tuples in [0, pi], shape (n, dims).

    ``clipped-gaussian`` draws normal(pi/2, 1) and clips into the range;
    ``uniform`` draws uniformly.
    """
    if n <= 0:
        raise EmptyInput(f"dataset size must be positive, got {n}")
    if dims not in (2, 3):
        raise ValueError(f"dims must be 2 or 3, got {dims}")
    if sampler not in SAMPLERS:
        raise UnknownSampler(f"sampler must be one of {SAMPLERS}, got {sampler!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if sampler == "uniform":
        return rng.uniform(0.0, math.pi, size=(n, dims))
    return np.clip(rng.normal(math.pi / 2.0, 1.0, size=(n, dims)), 0.0, math.pi)


def _single_class_plane(x: np.ndarray, y: np.ndarray) -> SeparabilityReport:
    # One class only: any plane pushed past the data separates it.
    w = np.zeros(x.shape[1])
    w[0] = 1.0
    side = float(y[0])
    b = side * (1.0 - float(np.min(side * x[:, 0])))
    margin = float(np.min(y * (x @ w + b)))
    return SeparabilityReport(True, w, b, margin, 0)


def check_linear_separability(points: list[LabeledPoint], max_iterations: int = 100_000) -> SeparabilityReport:
    """Perceptron test for linear separability of the labeled features.

    Runs on centered features rescaled to the unit ball, which makes the
    verdict invariant under translating or positively rescaling the inputs.
    ``iterations`` counts full passes over the data; hitting the cap reports
    not separable with the cap recorded.  The returned hyperplane is mapped
    back to raw feature coordinates with a unit normal, and ``margin`` is the
    worst-case signed distance in those coordinates.
    """
    if not points:
        raise EmptyInput("no labeled points")
    x = np.array([p.features for p in points], dtype=float)
    y = np.array([1.0 if p.label is Label.CLASS1 else -1.0 for p in points])
    if np.all(y == y[0]):
        return _single_class_plane(x, y)

    center = x.mean(axis=0)
    centered = x - center
    scale = float(np.max(np.linalg.norm(centered, axis=1)))
    if scale == 0.0:
        # Both classes sit on one identical point: nothing separates them.
        return SeparabilityReport(False, None, None, 0.0, 0)
    xn = np.hstack([centered / scale, np.ones((len(points), 1))])

    w = np.zeros(xn.shape[1])
    epochs = 0
    while epochs < max_iterations:
        epochs += 1
        mistakes = 0
        for i in range(xn.shape[0]):
            if y[i] * float(xn[i] @ w) <= 0.0:
                w += y[i] * xn[i]
                mistakes += 1
        if mistakes == 0:
            break
    else:
        return SeparabilityReport(False, None, None, 0.0, max_iterations)

    w_raw = w[:-1] / scale
    b_raw = float(w[-1]) - float(w[:-1] @ center) / scale
    norm = float(np.linalg.norm(w_raw))
    if norm == 0.0:
        return _single_class_plane(x, y)
    w_unit = w_raw / norm
    b_unit = b_raw / norm
    margin = float(np.min(y * (x @ w_unit + b_unit)))
    return SeparabilityReport(True, w_unit, b_unit, max(margin, 0.0), epochs)

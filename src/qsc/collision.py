"""Repeated-interaction engine: a system qubit colliding with fresh ancillas.

Each collision couples the system (first tensor factor) to one reservoir
ancilla through an excitation-exchange pair Hamiltonian, evolves the pair
unitarily for a time ``tau`` and traces the ancilla out.  Several reservoirs
are combined per collision according to ``EngineConfig.mixing_mode``:

* ``convex``     - rho' = sum_i q_i E_i[rho]  (default)
* ``sequential`` - rho' = E_N[... E_1[rho]]   (list order)
* ``stochastic`` - one E_i drawn per collision with probability q_i

Each reservoir's map is compiled once into its Pauli transfer matrix, the
real 4x4 matrix acting on (1, x, y, z).  ``step``, the evolution loop and the
fixed-point oracle all run on that one form; ``single_collision`` (unitary
plus partial trace) is kept as the independent reference the compiled form
is tested against.  One evolution loop serves both ``evolve`` (one run,
optionally recorded) and ``evolve_batch`` (many independent runs advanced in
lockstep, a chunk of collisions at a time).

Randomness (stochastic mixing, preparation noise) comes from numpy's PCG64
generator seeded from ``EngineConfig.seed``, so runs are reproducible across
platforms.  Draw order per collision: stochastic channel choice first, then
one uniform noise draw per noisy reservoir in list order (convex/sequential
modes draw noise for every noisy reservoir, stochastic only for the chosen
one).  The loop draws a chunk of collisions' worth at once, in that order,
and a run that stops mid-chunk leaves its generator where its last
collision left it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DimensionMismatch,
    dagger,
    expm_skew_hermitian,
    kron,
    partial_trace,
)
from .states import AngleOutOfRange, bloch_to_density, bloch_vector, pure_qubit, validate_density_matrix

DEFAULT_SEED = 0xC0111DE

MIXING_MODES = ("convex", "sequential", "stochastic")

_TRACE_ROW = np.array([1.0, 0.0, 0.0, 0.0])

# Collisions per chunk of the evolution loop.  For K runs a chunk holds
# (_CHUNK + 1) * K * 4 doubles of states, about 0.17 MB at K = 42, and when
# any run is random _CHUNK * K * 16 doubles of drawn maps, about 0.7 MB.
# Chunks of 256 ran no faster and raised the peak memory of a noisy sweep.
_CHUNK = 128


class NonUnitaryPropagator(ValueError):
    """Raised when a collision propagator fails the unitarity check."""


class WeightsNotNormalized(ValueError):
    """Raised when mixture weights are negative, partial or do not sum to one."""


class NoiseNotSupported(ValueError):
    """Raised when a deterministic-only routine receives a random map."""


class SingularSystem(ValueError):
    """Raised when the steady-state linear system has no unique solution."""


@dataclass(frozen=True)
class NoiseSpec:
    """Preparation noise: each collision the ancilla is depolarized by
    epsilon_eff = epsilon + u*eta with u drawn uniformly from [-1, 1]."""

    epsilon: float
    eta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and math.isfinite(self.eta)):
            raise ValueError("noise parameters must be finite")
        if self.eta < 0.0 or self.epsilon - self.eta < 0.0 or self.epsilon + self.eta > 1.0:
            raise ValueError(
                f"need 0 <= epsilon - eta and epsilon + eta <= 1, got epsilon={self.epsilon}, eta={self.eta}"
            )


@dataclass(frozen=True)
class ReservoirSpec:
    """One reservoir species: ancilla state angles, coupling and mixture weight.

    ``weight=None`` means "uniform": either all reservoirs in a set carry
    explicit weights summing to one, or none do.
    """

    theta: float
    coupling: float
    weight: float | None = None
    phi: float = 0.0
    noise: NoiseSpec | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise AngleOutOfRange(f"reservoir theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise AngleOutOfRange(f"reservoir phi must lie in [0, 2*pi), got {self.phi}")
        if not math.isfinite(self.coupling) or self.coupling < 0.0:
            raise ValueError(f"coupling must be finite and >= 0, got {self.coupling}")
        if self.weight is not None and not 0.0 <= self.weight <= 1.0:
            raise WeightsNotNormalized(f"weight must lie in [0, 1], got {self.weight}")


@dataclass(frozen=True)
class EngineConfig:
    """Engine parameters.

    ``tau=0`` is accepted (the collision degenerates to the identity map);
    it exists so the singular steady-state branch can be exercised.
    """

    h: float = 1.0
    tau: float = 0.5
    max_collisions: int = 5000
    tol: float = 1e-9
    window: int = 10
    mixing_mode: str = "convex"
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not math.isfinite(self.h) or not math.isfinite(self.tau) or self.tau < 0.0:
            raise ValueError(f"h must be finite and tau >= 0, got h={self.h}, tau={self.tau}")
        if not math.isfinite(self.tol) or self.tol <= 0.0 or self.window < 1 or self.max_collisions < self.window:
            raise ValueError(
                f"need finite tol > 0, window >= 1, max_collisions >= window; got tol={self.tol}, "
                f"window={self.window}, max_collisions={self.max_collisions}"
            )
        if self.mixing_mode not in MIXING_MODES:
            raise ValueError(f"mixing_mode must be one of {MIXING_MODES}, got {self.mixing_mode!r}")


@dataclass
class Trajectory:
    """Per-collision record; row 0 is the initial state, so len = n_used + 1.

    ``fidelity`` is None when no target state was supplied."""

    n: np.ndarray
    sigma_z: np.ndarray
    bloch: np.ndarray
    fidelity: np.ndarray | None

    def __len__(self) -> int:
        return int(self.n.shape[0])


@dataclass
class SteadyStateResult:
    rho_ss: np.ndarray
    sigma_z_ss: float
    p_e: float
    p_g: float
    n_used: int
    converged: bool


def pair_hamiltonian(h: float, j: float) -> np.ndarray:
    """Two-qubit generator: free splitting h/2 on each spin plus an
    excitation-exchange term of strength j (couples |eg> and |ge> only)."""
    free = 0.5 * h * (kron(SIGMA_Z, IDENTITY_2) + kron(IDENTITY_2, SIGMA_Z))
    exchange = j * (kron(SIGMA_MINUS, SIGMA_PLUS) + kron(SIGMA_PLUS, SIGMA_MINUS))
    return free + exchange


def collision_unitary(h: float, j: float, tau: float) -> np.ndarray:
    """Pair propagator exp(-i * pair_hamiltonian(h, j) * tau)."""
    return expm_skew_hermitian(pair_hamiltonian(h, j), tau)


def single_collision(rho_s: np.ndarray, rho_r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One validated collision; CPTP by construction.  The independent
    reference against which the compiled transfer matrices are tested."""
    rho_s = validate_density_matrix(rho_s)
    rho_r = validate_density_matrix(rho_r)
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise DimensionMismatch(f"propagator must be 4x4, got {u.shape}")
    defect = float(np.linalg.norm(dagger(u) @ u - np.eye(4)))
    if defect > 1e-12:
        raise NonUnitaryPropagator(f"unitarity defect {defect:.3e} exceeds 1e-12")
    return partial_trace(u @ kron(rho_s, rho_r) @ dagger(u), keep=0)


def pauli_transfer_matrix(rho_r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Real 4x4 form R[i, j] = Tr[sigma_i E(sigma_j)] / 2 of the collision map
    E(rho) = Tr_anc[u (rho x rho_r) u^dag], acting on (1, x, y, z).

    Row 0 is exactly (1, 0, 0, 0) since E preserves the trace, so the map
    sends (1, b) to (1, M b + c) with M = R[1:, 1:] and c = R[1:, 0].
    """
    r = np.empty((4, 4))
    r[0] = _TRACE_ROW
    for j, pauli in enumerate((IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)):
        r[1:, j] = 0.5 * bloch_vector(partial_trace(u @ kron(pauli, rho_r) @ dagger(u), keep=0))
    return r


def resolve_weights(reservoirs: list[ReservoirSpec]) -> np.ndarray:
    """Mixture weights as an array; uniform when none are given."""
    if not reservoirs:
        raise WeightsNotNormalized("reservoir list is empty")
    given = [r.weight for r in reservoirs]
    if all(w is None for w in given):
        return np.full(len(reservoirs), 1.0 / len(reservoirs))
    if any(w is None for w in given):
        raise WeightsNotNormalized("either all reservoirs carry weights or none do")
    weights = np.array([float(w) for w in given])
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise WeightsNotNormalized(f"weights sum to {weights.sum()!r}, expected 1")
    return weights


def _canonical_order(reservoirs: list[ReservoirSpec], weights: np.ndarray) -> list[int]:
    # Summing the convex mixture in a canonical order makes the trajectory
    # bitwise invariant under permutations of the reservoir list.
    key = lambda i: (reservoirs[i].theta, reservoirs[i].coupling, float(weights[i]), reservoirs[i].phi)
    return sorted(range(len(reservoirs)), key=key)


def _compiled(cache: dict, key: tuple, build):
    """``build()``, computed once per key and cache."""
    if key not in cache:
        cache[key] = build()
    return cache[key]


class _Engine:
    """Compiled form of one run's collision map shared by step, the evolution
    loop and the oracle: one Pauli transfer matrix per reservoir.

    Runs that share ``cache`` compile each distinct reservoir once: it holds
    collision unitaries keyed by (h, j, tau) and transfer matrices keyed by
    the ancilla angles (None for the maximally mixed ancilla) followed by
    their unitary's key.
    """

    def __init__(self, reservoirs: list[ReservoirSpec], cfg: EngineConfig, cache: dict | None = None):
        cache = {} if cache is None else cache
        self.reservoirs = reservoirs
        self.cfg = cfg
        self.weights = resolve_weights(reservoirs)
        self.order = _canonical_order(reservoirs, self.weights)
        self.base_ops = []
        self.noise_ops = []
        for r in reservoirs:
            key = (cfg.h, r.coupling, cfg.tau)
            u = _compiled(cache, key, lambda: collision_unitary(*key))
            base = _compiled(cache, (r.theta, r.phi, *key),
                             lambda: pauli_transfer_matrix(pure_qubit(r.theta, r.phi), u))
            self.base_ops.append(base)
            # Preparation noise is affine in the depolarization strength, so
            # each noisy map is R_base + eps * (R_maximally_mixed - R_base).
            noise_op = None
            if r.noise is not None:
                mixed = _compiled(cache, (None, None, *key),
                                  lambda: pauli_transfer_matrix(0.5 * IDENTITY_2, u))
                noise_op = mixed - base
            self.noise_ops.append(noise_op)
        self.noisy = [i for i, op in enumerate(self.noise_ops) if op is not None]
        self.random = cfg.mixing_mode == "stochastic" or bool(self.noisy)
        self.cum_weights = np.cumsum(self.weights)
        self.static_op = None if self.random else self._compose(self.base_ops)

    def _compose(self, ops: list[np.ndarray]) -> np.ndarray:
        # ops are (4, 4) maps or (n, 4, 4) stacks of them
        if self.cfg.mixing_mode == "sequential":
            acc = ops[0]
            for op in ops[1:]:
                acc = op @ acc
            return acc
        acc = sum(self.weights[i] * ops[i] for i in self.order)
        # the weights sum to one only within 1e-12; the trace row stays exact
        acc[..., 0, :] = _TRACE_ROW
        return acc

    def _choose(self, draws):
        i = np.searchsorted(self.cum_weights, draws, side="right")
        return np.minimum(i, len(self.reservoirs) - 1)

    def _drawn(self, i: int, rng: np.random.Generator) -> np.ndarray:
        noise = self.reservoirs[i].noise
        if noise is None:
            return self.base_ops[i]
        eps = noise.epsilon + rng.uniform(-1.0, 1.0) * noise.eta
        return self.base_ops[i] + eps * self.noise_ops[i]

    def maps(self, n: int, rng: np.random.Generator | None) -> np.ndarray:
        """Transfer matrices of the next n collisions, shape (n, 4, 4), drawn
        from ``rng`` in the order n single collisions draw them."""
        if self.static_op is not None:
            return np.broadcast_to(self.static_op, (n, 4, 4))
        if self.cfg.mixing_mode == "stochastic":
            if not self.noisy:
                return np.stack(self.base_ops)[self._choose(rng.random(n))]
            # a noise draw follows each choice of a noisy reservoir, so the
            # stream is read one collision at a time
            return np.stack([self._drawn(self._choose(rng.random()), rng) for _ in range(n)])
        draws = rng.uniform(-1.0, 1.0, size=(n, len(self.noisy)))
        ops = list(self.base_ops)
        for column, i in enumerate(self.noisy):
            noise = self.reservoirs[i].noise
            eps = noise.epsilon + draws[:, column] * noise.eta
            ops[i] = self.base_ops[i] + eps[:, None, None] * self.noise_ops[i]
        return self._compose(ops)


def _initial(rho: np.ndarray) -> np.ndarray:
    rho = validate_density_matrix(rho)
    if rho.shape != (2, 2):
        raise DimensionMismatch(f"system state must be 2x2, got {rho.shape}")
    return np.concatenate(([1.0], bloch_vector(rho)))


def _stream(engine: _Engine, rng: np.random.Generator | None) -> np.random.Generator | None:
    if engine.random and rng is None:
        return np.random.default_rng(engine.cfg.seed)
    return rng


def _result(b: np.ndarray, n_used: int, converged: bool) -> SteadyStateResult:
    # sigma_z is read from the populations like p_e and p_g, so a residue
    # below their resolution (~1e-16) reads as zero, i.e. class 1
    rho = bloch_to_density(b)
    p_e = float(rho[0, 0].real)
    p_g = float(rho[1, 1].real)
    return SteadyStateResult(rho, p_e - p_g, p_e, p_g, n_used, converged)


def _chunk_maps(engines, rngs, static: np.ndarray, active: np.ndarray, left: np.ndarray, length: int):
    """Maps of the active runs for the next ``length`` collisions, shape
    (length, K, 4, 4), and the state of each random run's stream before its
    draws, keyed by column.  ``static`` holds each run's fixed map."""
    ops = np.broadcast_to(static[active], (length, active.size, 4, 4))
    random = [column for column, i in enumerate(active) if engines[i].random]
    if not random:
        return ops, {}
    ops = ops.copy()
    saved = {}
    for column in random:
        i = active[column]
        n = min(length, int(left[column]))
        saved[column] = rngs[i].bit_generator.state
        ops[:n, column] = engines[i].maps(n, rngs[i])
        # past this run's budget: computed, never read, and nothing drawn
        ops[n:, column] = np.eye(4)
    return ops, saved


def _run(state0: np.ndarray, engines: list[_Engine], rngs: list, trail: list | None = None):
    """The evolution loop: advance every run from ``state0`` until it meets
    its own tolerance window or uses its own budget.

    Runs advance in lockstep, a chunk of collisions at a time; a run retires
    at the chunk where it stops and its state is read at the collision it
    stopped on.  Returns each run's final Bloch vector, collision count and
    whether it converged.  With ``trail`` (one run only) the Bloch vectors
    after each collision are appended to it chunk by chunk.
    """
    tol = np.array([e.cfg.tol for e in engines])
    window = np.array([e.cfg.window for e in engines])
    budget = np.array([e.cfg.max_collisions for e in engines])
    final = np.tile(state0, (len(engines), 1))
    n_used = np.zeros(len(engines), dtype=np.int64)
    streak = np.zeros(len(engines), dtype=np.int64)  # consecutive steps under tol
    converged = np.zeros(len(engines), dtype=bool)
    static = np.stack([np.eye(4) if e.random else e.static_op for e in engines])
    active = np.arange(len(engines))
    while active.size:
        left = budget[active] - n_used[active]
        length = int(min(_CHUNK, left.max()))
        maps, saved = _chunk_maps(engines, rngs, static, active, left, length)
        buf = np.empty((length + 1, active.size, 4, 1))
        buf[0, :, :, 0] = final[active]
        rows = list(buf)
        for op, before, after in zip(maps, rows, rows[1:]):
            np.matmul(op, before, out=after)

        states = buf[..., 0]
        step = states[1:] - states[:-1]
        step *= step
        # Both states have unit trace, so half the Bloch step is exactly
        # their trace distance.
        dist = step[..., 1] + step[..., 2]
        dist += step[..., 3]
        below = 0.5 * np.sqrt(dist) < tol[active]
        # A run's streak at collision t counts back to its last step at or
        # above tol; one carried over from earlier chunks sits before t = 0.
        t = np.arange(length)[:, None]
        last_miss = np.maximum.accumulate(np.where(below, -1 - streak[active], t), axis=0)
        run = t - last_miss
        hit = (run >= window[active]) & (t < left)
        met = hit.any(axis=0)
        taken = np.where(met, hit.argmax(axis=0) + 1, np.minimum(left, length))
        for column, drawn_from in saved.items():
            if met[column]:
                # redraw only the collisions used, so the stream ends where
                # n_used single collisions leave it
                i = active[column]
                rngs[i].bit_generator.state = drawn_from
                engines[i].maps(int(taken[column]), rngs[i])

        final[active] = states[taken, np.arange(active.size)]
        n_used[active] += taken
        converged[active] = met
        streak[active] = run[-1]
        if trail is not None:
            trail.append(states[1 : taken[0] + 1, 0, 1:].copy())
        active = active[~met & (left > length)]
    return final[:, 1:], n_used, converged


def _bloch_fidelity(b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Qubit fidelity of each Bloch row of ``b`` against the Bloch vector ``t``:
    F = sqrt((1 + b.t + sqrt((1 - |b|^2)(1 - |t|^2))) / 2), clamped so float
    jitter on pure states cannot leak a NaN."""
    purity_b = np.maximum(1.0 - np.einsum("ij,ij->i", b, b), 0.0)
    mixed = np.sqrt(purity_b * max(1.0 - float(t @ t), 0.0))
    return np.sqrt(np.clip(0.5 * (1.0 + b @ t + mixed), 0.0, 1.0))


def step(
    rho_s: np.ndarray,
    reservoirs: list[ReservoirSpec],
    cfg: EngineConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Apply one full collision round to ``rho_s`` and return the new state."""
    state = _initial(rho_s)
    engine = _Engine(reservoirs, cfg)
    return bloch_to_density(engine.maps(1, _stream(engine, rng))[0].dot(state)[1:])


def evolve(
    rho0: np.ndarray | None,
    reservoirs: list[ReservoirSpec],
    cfg: EngineConfig,
    target: np.ndarray | None = None,
    record: bool = True,
    rng: np.random.Generator | None = None,
) -> tuple[Trajectory, SteadyStateResult]:
    """Iterate collisions until the state settles or the budget runs out.

    Convergence means trace_distance(rho_{n+1}, rho_n) < cfg.tol for
    cfg.window consecutive collisions; running out of collisions is reported
    through ``converged=False``, never raised.  ``rho0=None`` starts from
    the +x eigenstate.  With ``record=False`` the returned trajectory is
    empty (sweeps use this; it changes nothing about the result).
    """
    if rho0 is None:
        rho0 = pure_qubit(math.pi / 2.0)
    state0 = _initial(rho0)
    engine = _Engine(reservoirs, cfg)
    if target is not None:
        target = validate_density_matrix(target)
    trail = [state0[None, 1:]] if record else None
    b, n_used, converged = _run(state0, [engine], [_stream(engine, rng)], trail)
    result = _result(b[0], int(n_used[0]), bool(converged[0]))
    if not record:
        return Trajectory(np.arange(0), np.empty(0), np.empty((0, 3)), None), result
    bloch = np.concatenate(trail)
    fid = None if target is None else _bloch_fidelity(bloch, bloch_vector(target))
    return Trajectory(np.arange(len(bloch)), bloch[:, 2].copy(), bloch, fid), result


def evolve_batch(
    runs: list[tuple[list[ReservoirSpec], EngineConfig, np.random.Generator | None]],
) -> list[SteadyStateResult]:
    """Steady states of independent runs, one per (reservoirs, cfg, rng).

    Every run starts from the +x eigenstate and keeps its own tolerance,
    window, budget and random stream (None: seeded from its ``cfg.seed``).
    The runs advance together through the loop ``evolve`` uses, so each
    result is bitwise the one ``evolve(None, reservoirs, cfg, record=False,
    rng=rng)`` returns.  Each distinct reservoir is compiled once per call,
    and deterministic runs that share a compiled map and a stopping rule,
    which evolve identically, are run once.
    """
    state0 = _initial(pure_qubit(math.pi / 2.0))
    cache: dict = {}
    engines = [_Engine(reservoirs, cfg, cache) for reservoirs, cfg, _ in runs]
    slot: dict = {}
    distinct = []
    owner = []
    for i, e in enumerate(engines):
        key = i if e.random else (e.static_op.tobytes(), e.cfg.tol, e.cfg.window, e.cfg.max_collisions)
        if key not in slot:
            slot[key] = len(distinct)
            distinct.append(i)
        owner.append(slot[key])
    rngs = [_stream(engines[i], runs[i][2]) for i in distinct]
    b, n_used, converged = _run(state0, [engines[i] for i in distinct], rngs)
    return [_result(b[k], int(n_used[k]), bool(converged[k])) for k in owner]


def affine_representation(
    reservoirs: list[ReservoirSpec], cfg: EngineConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Bloch-space form b' = M b + c of one deterministic collision round.

    Read off the compiled transfer matrix R as M = R[1:, 1:], c = R[1:, 0];
    refuses random maps (preparation noise, stochastic mixing) since they
    have no single affine form.
    """
    if any(r.noise is not None for r in reservoirs):
        raise NoiseNotSupported("affine form undefined under preparation noise")
    if cfg.mixing_mode == "stochastic":
        raise NoiseNotSupported("affine form undefined for stochastic mixing")
    r = _Engine(reservoirs, cfg).static_op
    return r[1:, 1:].copy(), r[1:, 0].copy()


def steady_state_oracle(reservoirs: list[ReservoirSpec], cfg: EngineConfig) -> SteadyStateResult:
    """Steady state from the affine fixed point (I - M) b = c.

    Independent of the iterated route: no collisions are performed, the
    linear system is solved directly.  Degenerate maps (tau = 0, zero
    couplings) leave (I - M) singular and raise SingularSystem.
    """
    m, c = affine_representation(reservoirs, cfg)
    a = np.eye(3) - m
    # The Bloch map has norm <= 1, so I - M lives on an O(1) scale and an
    # absolute singular-value floor is the honest degeneracy test (a relative
    # condition number is blind to I - M collapsing to epsilon * identity).
    if float(np.linalg.svd(a, compute_uv=False)[-1]) < 1e-12:
        raise SingularSystem("I - M is singular; the collision map has no unique fixed point")
    result = _result(np.linalg.solve(a, c), 0, True)
    validate_density_matrix(result.rho_ss)
    return result

"""Repeated-interaction engine: a system qubit colliding with fresh ancillas.

Each collision couples the system (first tensor factor) to one reservoir
ancilla through an excitation-exchange pair Hamiltonian, evolves the pair
unitarily for a time ``tau`` and traces the ancilla out.  Several reservoirs
are combined per collision according to ``EngineConfig.mixing_mode``:

* ``convex``     - rho' = sum_i q_i E_i[rho]  (default)
* ``sequential`` - rho' = E_N[... E_1[rho]]   (list order)
* ``stochastic`` - one E_i drawn per collision with probability q_i

Each reservoir's map is its Pauli transfer matrix, the real 4x4 matrix
acting on (1, x, y, z).  The free part h/2 (Z x 1 + 1 x Z) commutes with the
exchange term, so the matrix has a closed form in cos(j tau), sin(j tau),
h tau and the ancilla's Bloch vector a, affine in a (``transfer_matrix``).
``step``, the evolution loops and the fixed-point oracle all run on that
one form; ``single_collision`` (unitary plus partial trace) is kept as the
independent reference the closed form is tested against.  ``evolve_runs``
(independent runs from one start state, each recorded in a trail of its
own; ``evolve`` is its one-run case) and ``evolve_batch`` (steady states of
many independent runs) share one entry point, which advances each kind of
run in its own loop, a chunk of collisions at a time, so a preset's
recorded runs share one call.  A deterministic run applies the same map R
every collision, so its loop forms a chunk's states R^1 b ... R^L b from
the chunk's start state b with one product against powers of R cached for
the call.  That loop chains four such products per pass, each started from
the last state of the chunk before, and tests and retires runs once per
pass.  Steps never grow under a map that keeps the Bloch ball, so a run
whose last step of a pass is well above tol skips the window test for that
pass, with the result the test would give.  A random run multiplies its
drawn maps one collision at a time.  Its loop serves one group of runs that
share a mixing mode and a reservoir count, and forms their drawn maps
together, a chunk at a time; a convex group forms per chunk only the
entries that noise moves, and a stochastic one only the map each collision
draws.
The chunk length comes from the group's size: a group of fewer runs takes
longer chunks, in buffers no larger than a group of 42 runs takes.
Both loops form every collision's state and close runs with one window
rule, which compares the trace distance of each collision's step with tol.

Randomness (stochastic mixing, preparation noise) comes from numpy's PCG64
generator seeded from ``EngineConfig.seed``, so runs are reproducible across
platforms.  Every random run has one draw layout: each collision reads one
row of uniforms on [0, 1), the stochastic channel choice first (stochastic
mode only), then one noise draw per noisy reservoir in list order, in every
mixing mode, so a stochastic collision also draws noise for the reservoirs
it does not choose.  The loop reads a chunk of collisions' rows at once,
each run from its own generator, so one generator serves one random run.  A
run that stops mid-chunk is rewound to where its generator stood when the
call began and redraws one row per collision it took, so it leaves the
generator where its last collision left it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .linalg import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    DimensionMismatch,
    NonHermitianInput,
    dagger,
    expm_skew_hermitian,
    kron,
    partial_trace,
)
from .states import AngleOutOfRange, bloch_to_density, bloch_vector, pure_qubit, validate_density_matrix

DEFAULT_SEED = 0xC0111DE

MIXING_MODES = ("convex", "sequential", "stochastic")

# The ``evolve_runs`` target of a run whose fidelity is measured against the
# oracle fixed point of its own map.
ORACLE = "oracle"

_TRACE_ROW = np.array([1.0, 0.0, 0.0, 0.0])

# Collisions per chunk of the evolution loops, and per pass of the
# deterministic loop.  The K deterministic runs of a call share a stack of
# the Bloch rows of their maps' powers, K * _CHUNK * 12 doubles, about 0.5 MB
# at K = 42, built once per call.  A pass's products with it take K * _PASS
# * 3 doubles (about 0.5 MB), allocated once per call; each run a pass
# window-tests, usually a few, takes about 8 * _PASS doubles of states and
# steps.  A group of K random runs takes chunks of L = max(_CHUNK, _SLOTS //
# K) collisions, so L * K is at most 42 runs' worth at _CHUNK.  It multiplies
# into its own buffer of (L + 1) * K * 4 doubles of states, and about 5 * L *
# K of steps.  Its maps are built in buffers allocated once per call and
# reused every chunk: L * K * 16 doubles of maps, two sums of L * K doubles
# per moving entry (convex; four on a fig7 run), two more map buffers
# (sequential) or one and L * K picked slots (stochastic), and L * K doubles
# of draws, uniforms, strengths and gather indices per slot, about 1.4 MB
# for a noisy convex sweep at K = 42 with two reservoirs.  A longer chunk
# would form states from higher powers of R, which round differently, so a
# pass chains chunks instead; a longer random chunk would raise a noisy
# sweep's memory.
_CHUNK = 128
_PASS = 4 * _CHUNK
_SLOTS = 42 * _CHUNK

# Slacks of the bound that lets a deterministic pass skip its window test
# (``_run_fixed`` derives them): the distance of a computed step from the
# exact one, and the relative growth and rounding of a step over a pass.
_STEP_SLACK = 3e-11
_GROWTH_SLACK = 1e-8


class NonUnitaryPropagator(ValueError):
    """Raised when a collision propagator fails the unitarity check."""


class WeightsNotNormalized(ValueError):
    """Raised when mixture weights are negative, partial or do not sum to one."""


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
        # the loops count collisions in int64
        if not math.isfinite(self.tol) or self.tol <= 0.0 or not 1 <= self.window <= self.max_collisions <= 2**63 - 1:
            raise ValueError(
                f"need finite tol > 0, window >= 1, window <= max_collisions <= 2**63 - 1; got tol={self.tol}, "
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
    reference against which the closed-form transfer matrices are tested."""
    rho_s = validate_density_matrix(rho_s)
    rho_r = validate_density_matrix(rho_r)
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise DimensionMismatch(f"propagator must be 4x4, got {u.shape}")
    defect = float(np.linalg.norm(dagger(u) @ u - np.eye(4)))
    if not defect <= 1e-12:  # a NaN defect fails too
        raise NonUnitaryPropagator(f"unitarity defect {defect:.3e} exceeds 1e-12")
    return partial_trace(u @ kron(rho_s, rho_r) @ dagger(u), keep=0)


def transfer_matrix(h: float, j: float, tau: float, a) -> np.ndarray:
    """Real 4x4 form R[i, k] = Tr[sigma_i E(sigma_k)] / 2 of the collision map
    E(rho) = Tr_anc[u (rho x rho_r) u^dag], u = ``collision_unitary(h, j,
    tau)``, acting on (1, x, y, z), for the ancilla rho_r with Bloch vector
    ``a``.  With c = cos(j tau), s = sin(j tau) and w = h tau:

        z' = c^2 z + s^2 a_z + s c (a_x y - a_y x)
        (x', y') = R_z(w) [c (x, y) + s z (a_y, -a_x)]

    Row 0 is exactly (1, 0, 0, 0) since E preserves the trace, so the map
    sends (1, b) to (1, M b + R[1:, 0]) with M = R[1:, 1:].  Phases that
    overflow raise ``NonHermitianInput``, as ``collision_unitary`` does.
    """
    if not (math.isfinite(h * tau) and math.isfinite(j * tau)):
        raise NonHermitianInput("propagator phases h*t overflow: unitarity defect nan exceeds 1e-12")
    c, s = math.cos(j * tau), math.sin(j * tau)
    cos_w, sin_w = math.cos(h * tau), math.sin(h * tau)
    a_x, a_y, a_z = a
    return np.array([
        _TRACE_ROW,
        [0.0, cos_w * c, -sin_w * c, s * (cos_w * a_y + sin_w * a_x)],
        [0.0, sin_w * c, cos_w * c, s * (sin_w * a_y - cos_w * a_x)],
        [s * s * a_z, -s * c * a_y, s * c * a_x, c * c],
    ])


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


class _Engine:
    """Compiled form of one run's collision map shared by step, the evolution
    loop and the oracle: one closed-form Pauli transfer matrix per reservoir,
    and ``mean_op``, the composed map in expectation.
    """

    def __init__(self, reservoirs: list[ReservoirSpec], cfg: EngineConfig):
        self.reservoirs = reservoirs
        self.cfg = cfg
        self.base_ops = []
        self.noise_ops = []
        for r in reservoirs:
            sin_theta = math.sin(r.theta)
            a = (sin_theta * math.cos(r.phi), sin_theta * math.sin(r.phi), math.cos(r.theta))
            base = transfer_matrix(cfg.h, r.coupling, cfg.tau, a)
            self.base_ops.append(base)
            # Depolarizing the ancilla by eps scales a by 1 - eps, and the map
            # is affine in a, so each noisy map is R_base + eps * (R(a=0) - R_base).
            self.noise_ops.append(
                None if r.noise is None else transfer_matrix(cfg.h, r.coupling, cfg.tau, (0.0, 0.0, 0.0)) - base
            )
        self.weights = resolve_weights(reservoirs)
        self.order = _canonical_order(reservoirs, self.weights)
        self.noisy = [i for i, op in enumerate(self.noise_ops) if op is not None]
        self.random = cfg.mixing_mode == "stochastic" or bool(self.noisy)
        self.cum_weights = np.cumsum(self.weights)
        # Draws do not depend on the state, so E[rho] follows the mean map
        # exactly: noise at epsilon, stochastic choices as the convex sum.
        self.mean_op = self._compose([
            base if noise_op is None else base + r.noise.epsilon * noise_op
            for r, base, noise_op in zip(reservoirs, self.base_ops, self.noise_ops)
        ])

    def _compose(self, ops: list[np.ndarray]) -> np.ndarray:
        if self.cfg.mixing_mode == "sequential":
            acc = ops[0]
            for op in ops[1:]:
                acc = op @ acc
            return acc
        acc = sum(self.weights[i] * ops[i] for i in self.order)
        # the weights sum to one only within 1e-12; the trace row stays exact
        acc[..., 0, :] = _TRACE_ROW
        return acc


class _MapGroup:
    """The random runs of one call that share a mixing mode and a reservoir
    count K, and the buffers their drawn maps are built in.

    Each run's reservoirs are stacked once, in the order the mode composes
    them: canonical for convex, list order otherwise, into the per-slot
    stacks ``chunk`` reads, and a retired run's column is dropped from
    those.  A reservoir without
    noise gets epsilon = eta = 0 and a zero noise map, so one formula serves
    every slot.  Each chunk every run reads its rows of uniforms from its own
    stream into its own block of ``drawn``, and one ``take`` lays them out
    (slot, length, runs) in ``u``: a run's row of draws lands in the slots it
    feeds, with the channel choice in slot K, and a slot no draw feeds reads
    0, whose eta is 0, so it reads epsilon = 0.  The maps are then a fixed
    number of in-place operations per slot, on buffers allocated once per
    call, and land in one reused buffer of maps, one column per run; the
    columns keep their order as runs retire.  A stochastic collision forms
    the map of the slot it draws alone, gathered from the stacks.

    A convex mixture differs from one collision to the next only in its
    ``moving`` entries, where some noise map is nonzero.  Every other entry
    is a sum from +0.0 of terms w * (base + epsilon * (+-0.0)): a nonzero
    base passes unchanged, and a zero one gives a zero whose sign a sum from
    +0.0 drops, so the entry has the same bits every collision.  Those
    fixed entries are written once per layout of the maps, and only the
    moving ones are formed per chunk.
    """

    def __init__(self, engines: list[_Engine], rngs: list, length: int):
        self.mode = engines[0].cfg.mixing_mode
        k = len(engines[0].reservoirs)
        stochastic = self.mode == "stochastic"
        zero = np.zeros((4, 4))
        base, noise, eps0, eta, weights, dests = [], [], [], [], [], []
        for e in engines:
            order = e.order if self.mode == "convex" else list(range(k))
            specs = [e.reservoirs[r].noise or NoiseSpec(0.0, 0.0) for r in order]
            base.append([e.base_ops[r] for r in order])
            noise.append([zero if e.noise_ops[r] is None else e.noise_ops[r] for r in order])
            eps0.append([s.epsilon for s in specs])
            eta.append([s.eta for s in specs])
            weights.append(e.cum_weights if stochastic else e.weights[order])
            dests.append([k] * stochastic + [order.index(r) for r in e.noisy])
        base, noise = np.array(base), np.array(noise)
        eps0, eta, weights = np.array(eps0), np.array(eta), np.array(weights)
        self.rngs = rngs
        # where each stream stood when the call began, for rewinding a run
        # that stops mid-chunk
        self.initial = [rng.bit_generator.state for rng in rngs]
        g = len(engines)
        # Run r draws its rows into blocks[r], a (length, cols) view of
        # ``drawn``; the last element of ``drawn`` stays 0 and feeds every
        # slot no draw feeds.
        cols = np.array([len(d) for d in dests])
        ends = np.cumsum(cols)
        self.drawn = np.zeros(length * int(ends[-1]) + 1)
        self.blocks = [self.drawn[length * (e - c) : length * e].reshape(length, c)
                       for c, e in zip(cols.tolist(), ends.tolist())]
        # every draw column of every run: its run, its place in the run's
        # row, and where its rows lie in ``drawn``
        run = np.repeat(np.arange(g), cols)
        column = np.arange(run.size) - (ends - cols)[run]
        first = length * (ends - cols)[run] + column
        self.gather = np.full((k + stochastic, length, g), self.drawn.size - 1, dtype=np.intp)
        self.gather[np.concatenate(dests), :, run] = first[:, None] + np.arange(length) * cols[run][:, None]
        self.u = np.empty((k + stochastic) * length * g)
        self.eps = np.empty(k * length * g)
        if self.mode == "convex":
            self.moving = np.flatnonzero((noise.reshape(g, k, 16) != 0.0).any(axis=(0, 1)))
            self.cells = [divmod(int(entry), 4) for entry in self.moving]
            self.sum = np.empty(len(self.moving) * length * g)
            self.term = np.empty(len(self.moving) * length * g)
            # the same sum as every chunk's, at epsilon = epsilon_0
            fixed = np.zeros((g, 4, 4))
            for s in range(k):
                term = eps0[:, s, None, None] * noise[:, s]
                term += base[:, s]
                term *= weights[:, s, None, None]
                fixed += term
            fixed[:, 0, :] = _TRACE_ROW
            self.fixed = fixed
        else:
            self.base, self.noise, self.weights = base, noise, weights
            self.slot = np.empty(length * g * 16)
            if self.mode == "sequential":
                self.spare = np.empty(length * g * 16)
            else:
                self.mask = np.empty(length * g, dtype=bool)
                self.pick = np.empty(length * g, dtype=np.intp)
        # per-slot stacks with the runs last, as chunk's (slot, length, runs)
        # arrays read them
        self.eps0_rows = eps0.T[:, None, :].copy()
        self.eta_rows = eta.T[:, None, :].copy()
        if self.mode == "convex":
            # (slot, moving entry, 1, runs)
            take = lambda stack: stack.reshape(g, k, 16)[:, :, self.moving].transpose(1, 2, 0)[:, :, None].copy()
            self.base_rows, self.noise_rows = take(base), take(noise)
            self.weight_rows = weights.T.copy()
        self.maps = np.empty(length * g * 16)
        self.layout = None

    def chunk(self, left: np.ndarray, length: int) -> np.ndarray:
        """Draw each run's next min(length, left) rows from its own stream and
        return the maps of the next ``length`` collisions, shape (length,
        runs, 4, 4); ``left`` is each run's remaining budget.  Past a run's
        budget nothing is drawn, and its maps there are built from earlier
        uniforms and never read."""
        k, _, g = self.eps0_rows.shape
        out = self.maps[: length * g * 16].reshape(length, g, 4, 4)
        for rng, block, n in zip(self.rngs, self.blocks, np.minimum(left, length).tolist()):
            rng.random(out=block[:n])
        gather = self.gather[:, :length]
        u = self.u[: gather.size].reshape(gather.shape)
        np.take(self.drawn, gather, out=u, mode="clip")
        # epsilon + (-1 + 2u) * eta of every slot
        eps = self.eps[: k * length * g].reshape(k, length, g)
        np.multiply(u[:k], 2.0, out=eps)
        eps -= 1.0
        eps *= self.eta_rows
        eps += self.eps0_rows

        if self.mode == "convex":
            # sum(w * op) in canonical order, from 0 as Python's sum starts,
            # over the moving entries
            shape = (len(self.moving), length, g)
            acc = self.sum[: math.prod(shape)].reshape(shape)
            spare = self.term[: acc.size].reshape(shape)
            for s in range(k):
                term = spare if s else acc
                np.multiply(eps[s], self.noise_rows[s], out=term)
                term += self.base_rows[s]
                term *= self.weight_rows[s]
                if s < k - 1:
                    acc += term if s else 0.0
            # the same shape keeps every run's column where the last chunk had
            # it, so the fixed entries written there are still in place
            if out.shape != self.layout:
                out[...] = self.fixed
                self.layout = out.shape
            # the last slot's term joins the sum as it is written into out
            for c, (i, j) in enumerate(self.cells):
                np.add(acc[c], spare[c] if k > 1 else 0.0, out=out[:, :, i, j])
            return out

        slot = self.slot[: out.size].reshape(out.shape)
        if self.mode == "stochastic":
            # the slot each collision draws, searchsorted(cum_weights, choice,
            # side="right") capped at K - 1: the count of slots s >= 1 whose
            # cum_weights[s - 1] the choice reaches
            mask = self.mask[: length * g].reshape(length, g)
            pick = self.pick[: length * g].reshape(length, g)
            pick.fill(0)
            for s in range(1, k):
                np.less_equal(self.weights[:, s - 1], u[k], out=mask)
                pick += mask
            # epsilon * noise + base of that slot alone, formed as a
            # sequential slot is, so the map keeps its bits
            chosen = np.take_along_axis(eps, pick[None], axis=0)[0]
            pick += np.arange(g) * k
            np.take(self.noise.reshape(g * k, 4, 4), pick, axis=0, out=out)
            out *= chosen[..., None, None]
            out += np.take(self.base.reshape(g * k, 4, 4), pick, axis=0, out=slot)
            return out

        def op(s: int, into: np.ndarray) -> np.ndarray:
            # base + epsilon * noise of slot s
            np.multiply(eps[s, :, :, None, None], self.noise[:, s], out=into)
            into += self.base[:, s]
            return into

        # op_{K-1} @ ... @ op_0, alternating between two buffers so the last
        # product lands in out
        spare = self.spare[: out.size].reshape(out.shape)
        chain = [out if (k - 1 - s) % 2 == 0 else spare for s in range(k)]
        op(0, chain[0])
        for s in range(1, k):
            np.matmul(op(s, slot), chain[s - 1], out=chain[s])
        return out

    def retire(self, met: np.ndarray, n_used: np.ndarray, keep: np.ndarray) -> None:
        """Rewind a run that ``met`` its window to the start of the call and
        redraw one row per collision it took since then, ``n_used``, so its
        stream ends where that many single collisions leave it, then drop
        the runs whose entry of ``keep`` is False."""
        # drawn is free scratch now: the next chunk draws every row it reads
        scratch = self.drawn[:-1]
        for r in np.flatnonzero(met):
            rng = self.rngs[r]
            rng.bit_generator.state = self.initial[r]
            left = int(n_used[r]) * self.blocks[r].shape[1]
            while left:
                n = min(left, scratch.size)
                rng.random(out=scratch[:n])
                left -= n
        if keep.all():
            return
        self.eps0_rows, self.eta_rows = self.eps0_rows[..., keep], self.eta_rows[..., keep]
        if self.mode == "convex":
            self.base_rows, self.noise_rows = self.base_rows[..., keep], self.noise_rows[..., keep]
            self.weight_rows, self.fixed = self.weight_rows[:, keep], self.fixed[keep]
        else:
            self.base, self.noise, self.weights = self.base[keep], self.noise[keep], self.weights[keep]
        self.gather = self.gather[:, :, keep]
        self.rngs = [r for r, kept in zip(self.rngs, keep) if kept]
        self.initial = [s for s, kept in zip(self.initial, keep) if kept]
        self.blocks = [b for b, kept in zip(self.blocks, keep) if kept]


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


def _powers(maps: np.ndarray, length: int) -> np.ndarray:
    """Bloch rows of R^1 ... R^length of each map R in the (K, 4, 4) stack
    ``maps``, in order, (K, 3 * length, 4): row 3 (n - 1) + c is row c + 1
    of R^n, and the trace row is left out.  One product of a run's block
    with a state (1, b) gives the states R^1 b ... R^length b of a chunk in
    order, each one x, y, z triple, so the last three rows are its last
    state."""
    powers = np.empty((len(maps), length, 3, 4))
    # R^n = R @ R^(n-1) on whole 4x4 maps; only the Bloch rows are kept
    power = maps.copy()
    powers[:, 0] = maps[:, 1:]
    for n in range(1, length):
        np.matmul(maps, power, out=power)
        powers[:, n] = power[:, 1:]
    return powers.reshape(len(maps), 3 * length, 4)


def _window(dist: np.ndarray, tol: np.ndarray, window: np.ndarray, streak: np.ndarray, left: np.ndarray,
            active: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window rule over one pass of the runs ``active``: row r of
    ``dist`` holds the squared Bloch steps of run active[r] at each collision
    of the pass, and ``left`` its budget left.  ``tol``, ``window`` and
    ``streak``, the steps under tol it carries from earlier passes, are
    indexed by run.  Returns whether each row closes its window within its
    budget, the collisions it takes in the pass, and its streak at the end
    of the pass."""
    # Both states have unit trace, so half the Bloch step, 0.5 * sqrt(d), is
    # exactly their trace distance; a NaN step is never under tol.
    length = dist.shape[1]
    below = 0.5 * np.sqrt(dist) < tol[active, None]
    # a run with no step under tol ends the pass unmet, its streak at 0
    met = np.zeros(len(dist), dtype=bool)
    taken = np.minimum(left, length)
    ends = np.zeros(len(dist), dtype=np.int64)
    under = np.flatnonzero(below.any(axis=1))
    if under.size:
        # A run's streak at collision t counts back to its last step at or
        # above tol; one carried over from earlier passes sits before t = 0.
        t, ids = np.arange(length), active[under]
        last_miss = np.maximum.accumulate(np.where(below[under], -1 - streak[ids, None], t), axis=1)
        run = t - last_miss
        hit = (run >= window[ids, None]) & (t < left[under, None])
        met[under] = hit.any(axis=1)
        taken[under] = np.where(met[under], hit.argmax(axis=1) + 1, taken[under])
        ends[under] = run[:, -1]
    return met, taken, ends


def _start(state0: np.ndarray, engines: list[_Engine]):
    """Each run's tol, window and budget, then its state, collision count,
    streak of steps under tol and verdict before it starts."""
    g = len(engines)
    tol = np.array([e.cfg.tol for e in engines])
    window = np.array([e.cfg.window for e in engines])
    budget = np.array([e.cfg.max_collisions for e in engines])
    return (tol, window, budget, np.tile(state0, (g, 1)), np.zeros(g, dtype=np.int64),
            np.zeros(g, dtype=np.int64), np.zeros(g, dtype=bool))


def _run_fixed(state0: np.ndarray, engines: list[_Engine], trails: list | None = None):
    """The deterministic loop: advance every run from ``state0`` until it
    meets its own tolerance window or uses its own budget.  A run's states
    in a chunk that starts from b are R^1 b ... R^length b, in order, one
    product with the ``_powers`` of its map R, built once per call up to
    ``_CHUNK`` or the largest budget.  A pass chains four such products,
    ``_PASS`` collisions, each chunk started from the last state of the one
    before, the last three rows of its product, so a pass's states follow
    one another and state t is one index.  The window test and the
    bookkeeping run once per four chunks; a run retires at the pass where
    it stops, its state read at the collision it stopped on.  Returns each
    run's final Bloch vector, collision count and whether it converged.
    ``trails``, if given, holds one list per run, and each pass appends to
    the list of every run it advanced the Bloch vectors after the
    collisions that run took.

    Most passes cannot close a window: every step of the pass is far above
    tol.  A run whose last step of the pass proves that skips the squared
    steps and the window test for the pass, and gets what ``_window``
    returns for a row with no step under tol: not met, min(left, L)
    collisions taken and streak 0, L being the pass's length.  Every state
    is still formed by the same products, so every result keeps its bits.

    The bound.  A run's map b -> M b + c keeps the unit Bloch ball, so |M|
    <= 1 in the 2-norm (for a unit b, M b is half the difference of the
    images of b and -b), and the exact iterates from the pass's start have
    steps D_(n+1) = M D_n that never grow: the last step of the pass is
    its least.  The stored map keeps the ball only up to rounding and the
    1e-12 by which convex weights may miss one, so a step may grow by a
    factor 1 + 1e-12 a collision, under 1 + 6e-10 over a pass.  If every
    computed step lies within s of the exact one, every computed step of
    the pass is at least

        l = |last computed step| (1 - q) - 2 s,

    and when l > 0 its computed square d = (x^2 + y^2) + z^2 is at least
    the computed l^2, fl(l^2): q = ``_GROWTH_SLACK`` = 1e-8 covers that
    growth, the three roundings of the square (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.5) and those of l and l^2.  A
    correctly rounded square root is monotone, so d >= fl(l^2) gives
    0.5 sqrt(d) >= 0.5 sqrt(fl(l^2)), and a run with l > 0 and
    0.5 sqrt(fl(l^2)) >= tol has no step under tol in the pass.

    The slack s = ``_STEP_SLACK``.  Let u = 2^-53 and g = 4u / (1 - 4u),
    the bound on the relative error of a sum of four products.  |c| <= 1
    and the states' |b| <= 1 as well, and an error in a state passes
    through M^n without growing.  Against the exact iterates from the
    pass's start, a computed step errs by at most the sum of:

    * the powers: R^n = R R^(n-1) up to n = 128, 127 products, with row 0
      exactly (1, 0, 0, 0).  Product k adds F_k, |F_k| <= g |R| |R^(k-1)|
      entrywise.  On (1, b), |R^(k-1)| (1, |b|) has a Bloch part w with
      |w| <= |c| + |M|_F |b| <= 1 + sqrt(3), and |R| (1, w) one of norm
      at most 1 + sqrt(3) (1 + sqrt(3)) = 4 + sqrt(3).  Each product moves
      a state by at most g (4 + sqrt(3)) < 2.6e-15, and all by 3.3e-13;
    * the gemv: g (1 + sqrt(3)) < 1.3e-15 per state;
    * the chained chunk starts: a chunk starts from the computed last state
      of the one before and carries its error on, so over four chunks a
      state lies within 4 (3.3e-13 + 1.3e-15) < 1.4e-12 of the exact one;
    * the subtraction: a step is the difference of two such states,
      rounded once, u |step| <= 2.3e-16, so it errs by under 2.7e-12.

    s = 3e-11 is more than ten times that bound.  A last step within 2s of
    zero never clears, so neither tau = 0 (M = I, no step) nor a NaN step
    ever does, nor a pass close to the run's fixed point."""
    tol, window, budget, final, n_used, streak, converged = _start(state0, engines)
    longest = int(min(_CHUNK, budget.max()))
    powers = _powers(np.array([e.mean_op for e in engines]), longest)
    # the pass's products with the powers, one chunk of states at a time
    blocks = np.empty(len(engines) * 3 * _PASS)
    active = np.arange(len(engines))  # the runs whose powers are the rows of ``powers``, in order
    while active.size:
        left = budget[active] - n_used[active]
        length = int(min(_PASS, left.max()))
        k = active.size
        block = blocks[: k * 3 * _PASS].reshape(k, 3 * _PASS, 1)
        # each chunk's start state (1, b), the last state of the chunk before
        start = final[active, :, None]
        for first in range(0, 3 * length, 3 * longest):
            chunk = block[:, first : first + 3 * longest]
            np.matmul(powers, start, out=chunk)
            start[:, 1:] = chunk[:, -3:]
        # state t of the pass, after its collision t + 1, is states[:, t]
        states = block.reshape(k, _PASS, 3)
        # the least step of the pass each run's last step proves
        last_step = states[:, length - 1] - (states[:, length - 2] if length > 1 else final[active, 1:])
        least = np.sqrt(np.einsum("ij,ij->i", last_step, last_step)) * (1.0 - _GROWTH_SLACK) - 2.0 * _STEP_SLACK
        cleared = (least > 0.0) & (0.5 * np.sqrt(least * least) >= tol[active])
        met = np.zeros(k, dtype=bool)
        taken = np.minimum(left, length)
        ends = np.zeros(k, dtype=np.int64)
        rows = np.flatnonzero(~cleared)
        if rows.size:
            # each open run's squared Bloch step at each collision, from the
            # pass's start on, summed as (x + y) + z
            step = np.diff(np.concatenate((final[active[rows], None, 1:], states[rows, :length]), axis=1), axis=1)
            step *= step
            dist = (step[..., 0] + step[..., 1]) + step[..., 2]
            met[rows], taken[rows], ends[rows] = _window(dist, tol, window, streak, left[rows], active[rows])
        streak[active] = ends
        final[active, 1:] = states[np.arange(k), taken - 1]
        n_used[active] += taken
        converged[active] = met
        if trails is not None:
            for row, run in enumerate(active.tolist()):
                trails[run].append(states[row, : taken[row]].copy())
        keep = ~met & (left > length)
        kept = np.flatnonzero(keep)
        if kept.size < k:
            # move the kept rows down in place, so no second stack is made
            for row, source in enumerate(kept):
                powers[row] = powers[source]
            powers = powers[: kept.size]
        active = active[keep]
    return final[:, 1:], n_used, converged


def _run_drawn(state0: np.ndarray, engines: list[_Engine], rngs: list, trails: list | None = None):
    """The random loop: advance one group of g runs that share a mixing
    mode and a reservoir count, as ``_run_fixed`` does, a chunk of
    max(``_CHUNK``, ``_SLOTS`` // g) collisions at a time, a length fixed
    when the call starts.  A run's maps, draws, window and rewind do not
    depend on where a chunk ends, so a small group takes fewer, longer
    chunks with the same bits.  One ``_MapGroup`` builds the group's maps
    for the chunk together, each run drawing from its own stream, and each
    run multiplies its maps one collision at a time into its own column of
    a state buffer.  A run that stops mid-chunk is rewound to its last
    collision.  ``trails`` are per run, as in ``_run_fixed``, and take a
    chunk at a time."""
    tol, window, budget, final, n_used, streak, converged = _start(state0, engines)
    chunk = max(_CHUNK, _SLOTS // len(engines))
    longest = int(min(chunk, budget.max()))
    group = _MapGroup(engines, rngs, longest)
    active = np.arange(len(engines))  # the runs in the columns of the group's maps, in order
    while active.size:
        left = budget[active] - n_used[active]
        length = int(min(chunk, left.max()))
        buf = np.empty((length + 1, active.size, 4, 1))
        buf[0, :, :, 0] = final[active]
        maps = group.chunk(left, length)
        if active.size == 1:
            # ndarray.dot on 2-D views calls the same dgemv as np.matmul on
            # the stacks, with less overhead per call
            flat = buf[:, 0, :, 0]
            for op, before, after in zip(maps[:, 0], flat, flat[1:]):
                op.dot(before, out=after)
        else:
            rows = list(buf)
            for op, before, after in zip(maps, rows, rows[1:]):
                np.matmul(op, before, out=after)
        states = buf[..., 0]
        step = states[1:, :, 1:] - states[:-1, :, 1:]
        step *= step
        # one row per run: its squared Bloch step at each collision of the
        # chunk, summed as (x + y) + z
        dist = ((step[..., 0] + step[..., 1]) + step[..., 2]).T
        met, taken, streak[active] = _window(dist, tol, window, streak, left, active)
        final[active] = states[taken, np.arange(active.size)]
        n_used[active] += taken
        converged[active] = met
        if trails is not None:
            for column, run in enumerate(active.tolist()):
                trails[run].append(states[1 : taken[column] + 1, column, 1:].copy())
        keep = ~met & (left > length)
        group.retire(met, n_used[active], keep)
        active = active[keep]
    return final[:, 1:], n_used, converged


def _run(state0: np.ndarray, engines: list[_Engine], rngs: list, trails: list | None = None):
    """Advance every run from ``state0`` until it meets its own tolerance
    window or uses its own budget: the deterministic runs in one
    ``_run_fixed``, the random runs in one ``_run_drawn`` per group that
    shares a mixing mode and a reservoir count.  Returns what the loops
    return, each run's in input order; ``trails``, if given, holds one list
    per run, and each loop is handed the lists of its own runs."""
    groups: dict = {}
    for i, e in enumerate(engines):
        groups.setdefault((e.cfg.mixing_mode, len(e.reservoirs)) if e.random else None, []).append(i)
    final = np.empty((len(engines), 3))
    n_used = np.empty(len(engines), dtype=np.int64)
    converged = np.empty(len(engines), dtype=bool)
    for key, runs in groups.items():
        members = [engines[i] for i in runs]
        kept = None if trails is None else [trails[i] for i in runs]
        final[runs], n_used[runs], converged[runs] = (
            _run_fixed(state0, members, kept) if key is None
            else _run_drawn(state0, members, [rngs[i] for i in runs], kept))
    return final, n_used, converged


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
    op = engine.mean_op
    if engine.random:
        op = _MapGroup([engine], [_stream(engine, rng)], 1).chunk(np.ones(1, dtype=np.int64), 1)[0, 0]
    return bloch_to_density(op.dot(state)[1:])


def _streams(engines: list[_Engine], given: list) -> list:
    """Each run's random stream: the generator given for it, or one seeded
    from its ``cfg.seed``.  A generator given to two random runs raises
    ValueError."""
    shared = [id(rng) for e, rng in zip(engines, given) if e.random and rng is not None]
    if len(set(shared)) < len(shared):
        raise ValueError("each random run needs its own np.random.Generator; one was given to several")
    return [_stream(e, rng) for e, rng in zip(engines, given)]


def _target(engine: _Engine, target) -> np.ndarray | None:
    """The Bloch vector a run's fidelity is measured against, or None."""
    if target is None:
        return None
    if isinstance(target, str) and target == ORACLE:
        target = _fixed_point(engine.mean_op).rho_ss
    return bloch_vector(validate_density_matrix(target))


def _trajectory(trail: list, target: np.ndarray | None) -> Trajectory:
    bloch = np.concatenate(trail)
    fid = None if target is None else _bloch_fidelity(bloch, target)
    return Trajectory(np.arange(len(bloch)), bloch[:, 2].copy(), bloch, fid)


def evolve_runs(
    runs: list[tuple[list[ReservoirSpec], EngineConfig, np.ndarray | str | None, np.random.Generator | None]],
    rho0: np.ndarray | None = None,
    record: bool = True,
) -> Iterator[tuple[Trajectory, SteadyStateResult]]:
    """Trajectories and steady states of independent runs from one start
    state, one per (reservoirs, cfg, target, rng): the recorded sibling of
    ``evolve_batch``, and ``evolve`` is its one-run case.

    ``rho0=None`` starts every run from the +x eigenstate.  A run's
    fidelity column is measured against ``target``: a density matrix, or
    ``ORACLE`` for the oracle fixed point of the run's own compiled map
    (for a random map, the map in expectation), found as
    ``steady_state_oracle`` finds it; None gives no fidelity column.  Each
    run keeps its own tolerance, window, budget and random stream (None:
    seeded from its ``cfg.seed``), and a ``np.random.Generator`` given to
    two random runs raises ValueError, as in ``evolve_batch``.

    Every run's map is compiled and every target found before any
    collision, so a map with no fixed point raises SingularSystem before
    any run starts.  The runs then go through the loops together, each
    recorded in a trail of its own, and each result is bitwise what the
    run gives alone.  The returned iterator builds each run's Trajectory
    from its trail only when it reaches that run, so a caller that writes
    each before taking the next holds the trails and one Trajectory at
    once.  With ``record=False`` every trajectory is empty; that changes
    nothing about the results.
    """
    if rho0 is None:
        rho0 = pure_qubit(math.pi / 2.0)
    state0 = _initial(rho0)
    engines = [_Engine(reservoirs, cfg) for reservoirs, cfg, _, _ in runs]
    rngs = _streams(engines, [rng for *_, rng in runs])
    targets = [_target(e, target) for e, (_, _, target, _) in zip(engines, runs)]
    trails = [[state0[None, 1:]] for _ in runs] if record else None
    b, n_used, converged = _run(state0, engines, rngs, trails)
    results = [_result(b[k], int(n_used[k]), bool(converged[k])) for k in range(len(runs))]
    if trails is None:
        return ((Trajectory(np.arange(0), np.empty(0), np.empty((0, 3)), None), r) for r in results)
    return ((_trajectory(trail, target), r) for trail, target, r in zip(trails, targets, results))


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
    empty; it changes nothing about the result.  This is the one-run case
    of ``evolve_runs``; sweeps go through ``evolve_batch``.
    """
    return next(evolve_runs([(reservoirs, cfg, target, rng)], rho0, record))


def evolve_batch(
    runs: list[tuple[list[ReservoirSpec], EngineConfig, np.random.Generator | None]],
) -> list[SteadyStateResult]:
    """Steady states of independent runs, one per (reservoirs, cfg, rng).

    Every run starts from the +x eigenstate and keeps its own tolerance,
    window, budget and random stream (None: seeded from its ``cfg.seed``);
    a ``np.random.Generator`` given to two random runs raises ValueError.
    The runs go through the loops ``evolve`` uses, one per kind of run, so
    each result is bitwise the one ``evolve(None, reservoirs, cfg,
    record=False, rng=rng)`` returns.  Every run's maps are compiled before any run
    starts, and deterministic runs that share a compiled map and a stopping
    rule, which evolve identically, are run once.
    """
    state0 = _initial(pure_qubit(math.pi / 2.0))
    engines = [_Engine(reservoirs, cfg) for reservoirs, cfg, _ in runs]
    rngs = _streams(engines, [rng for _, _, rng in runs])
    slot: dict = {}
    distinct = []
    owner = []
    for i, e in enumerate(engines):
        key = i if e.random else (e.mean_op.tobytes(), e.cfg.tol, e.cfg.window, e.cfg.max_collisions)
        if key not in slot:
            slot[key] = len(distinct)
            distinct.append(i)
        owner.append(slot[key])
    b, n_used, converged = _run(state0, [engines[i] for i in distinct], [rngs[i] for i in distinct])
    return [_result(b[k], int(n_used[k]), bool(converged[k])) for k in owner]


def affine_representation(
    reservoirs: list[ReservoirSpec], cfg: EngineConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Bloch-space form b' = M b + c of one collision round, in expectation.

    Read off the compiled mean transfer matrix R as M = R[1:, 1:],
    c = R[1:, 0].  For a random map (preparation noise, stochastic mixing)
    this is the map the mean state follows: noise at its mean strength
    epsilon, stochastic mixing as the convex sum.
    """
    r = _Engine(reservoirs, cfg).mean_op
    return r[1:, 1:].copy(), r[1:, 0].copy()


def steady_state_oracle(reservoirs: list[ReservoirSpec], cfg: EngineConfig) -> SteadyStateResult:
    """Steady state from the affine fixed point (I - M) b = c.

    Independent of the iterated route: no collisions are performed, the
    linear system is solved directly.  For a random map it is the fixed
    point of the mean map, which the run-averaged state approaches.
    Degenerate maps (tau = 0, zero couplings) leave (I - M) singular and
    raise SingularSystem.

    Under convex and stochastic mixing the sign of the steady sigma_z is the
    sign of sum_i q_i sin^2(J_i tau) cos(theta_i), whatever h and the tilts
    phi_i, a linear threshold in the ancillas' Bloch z.  A sketch: the z
    row of ``transfer_matrix`` is c^2 z + s^2 a_z + s c (a_x y - a_y x).
    At the mean map's fixed point the transverse part is linear in z, so
    z* D = sum_i q_i s_i^2 a_iz, where D depends on the ancillas'
    transverse components and on no a_iz.  D = sum_i q_i s_i^2 > 0 when
    every transverse component is 0.  Where some |a_perp,i| < 1, a choice
    of the a_iz makes the right side nonzero, and the map keeps the Bloch
    ball, so it has a fixed point and D != 0 there.  D is continuous, so
    D > 0 everywhere.  A property test pins the rule; sequential mixing
    does not follow it.
    """
    return _fixed_point(_Engine(reservoirs, cfg).mean_op)


def _fixed_point(op: np.ndarray) -> SteadyStateResult:
    """The fixed point b = M b + c of the map whose transfer matrix is
    ``op``, as ``steady_state_oracle`` documents it."""
    m, c = op[1:, 1:], op[1:, 0]
    a = np.eye(3) - m
    # The Bloch map has norm <= 1, so I - M lives on an O(1) scale and an
    # absolute singular-value floor is the honest degeneracy test (a relative
    # condition number is blind to I - M collapsing to epsilon * identity).
    floor = float(np.linalg.svd(a, compute_uv=False)[-1])
    if floor < 1e-12:
        raise SingularSystem("I - M is singular; the collision map has no unique fixed point")
    b = np.linalg.solve(a, c)
    # The exact fixed point lies in the Bloch ball, but M's entries are
    # rounded near 1 when every sin^2(J tau) is small, so the solve is off by
    # up to ~eps / floor and a pure fixed point can land just outside.  An
    # overshoot within that bound goes back onto the sphere; a larger one is
    # left for validation to reject.
    norm = float(np.linalg.norm(b))
    if 1.0 < norm <= 1.0 + 16.0 * np.finfo(float).eps / floor:
        b = b / norm
    result = _result(b, 0, True)
    validate_density_matrix(result.rho_ss)
    return result

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
The evolution loop and the fixed-point oracle both run on that one form;
``single_collision`` (unitary plus partial trace) is kept as the
independent reference the closed form is tested against.  ``evolve_runs``
is the one entry point for evolution: independent runs from one start
state, each recorded in a trail of its own or, for sweeps, not recorded
(``evolve`` is its one-run case).  Deterministic runs that share a compiled
map and a stopping rule evolve identically, so each such set advances
once.  One pass loop, ``_drive``, advances every run of a call, a pass of
collisions at a time, so a preset's runs share one call.  It holds each
run's stopping rule, state, count and verdict, tests each pass with one
window rule, which compares the trace distance of each collision's step
with tol, records trails and retires runs.  It takes each pass's states
from one of two kernels, one per group of runs.  A deterministic run
applies the same map R every collision, so the deterministic kernel
(``_MapPowers``) forms a chunk's states R^1 b ... R^L b from the chunk's
start state b with one product against powers of R cached for the call.
Each pass it first takes every run from chunk end to chunk end, one small
product per chunk with the rows of R^(L - 1) and R^L alone.  Steps never
grow under a map that keeps the Bloch ball, so a chunk whose last step is
well above tol cannot close a window: a run advances through such chunks
with the result the window test would give, and only a run whose next
chunk is not proven clear gets a pass of full states, four chunks, for the
test.  A recorded call forms every run's states, a pass of four chunks at a
time; an unrecorded one, every sweep's, forms no state but the chunk ends,
the window-tested passes and each run's last state.  The random kernel
(``_MapGroup``) serves one group of runs that share a mixing mode and a
reservoir count, forms their drawn maps together, a chunk at a time, and
multiplies each run's maps one collision at a time; a convex group forms
per chunk only the entries that noise moves, and takes the others from the
mean map, and a stochastic one forms only the map each collision draws.  Its
chunk length comes from the group's size alone: a group of fewer runs takes
longer chunks, in buffers no larger than a group of 42 runs takes.  Only
``_drive`` reads a run's budget; each pass it hands the kernels the
collisions each run has left.

Randomness (stochastic mixing, preparation noise) comes from numpy's PCG64
generator, and ``EngineConfig.seed`` alone sets a random run's stream: each
call builds the run's generator afresh with ``np.random.default_rng(seed)``,
so runs are reproducible across platforms and calls, and no two runs share
a generator.  Every random run has one draw layout: each collision reads one
row of uniforms on [0, 1), the stochastic channel choice first (stochastic
mode only), then one noise draw per noisy reservoir in list order, in every
mixing mode, so a stochastic collision also draws noise for the reservoirs
it does not choose.  The kernel reads a chunk of collisions' rows at once,
each run from its own generator and every run the whole chunk; the rows a
run draws past the collision it stops on, or past its budget, are never
read, and the next call builds the generator afresh.
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

# Collisions per chunk of the kernels, per pass of the deterministic kernel's
# states, and per pass of its chunk ends in an unrecorded call.  The K
# deterministic runs of a call share a stack of the Bloch rows of their
# maps' powers, K * _CHUNK * 12 doubles, about 0.5 MB at K = 42, built once
# per call.  A pass's products with it take K * _PASS * 3 doubles (about 0.5
# MB), allocated once per call; each run a pass window-tests, usually a
# few, takes about 8 * _PASS doubles of states and steps.  Its chunk ends
# take a stack of K * 28 doubles and 7 doubles per run and chunk end of a
# pass, allocated once per call, about 80 KB at K = 42 unrecorded.  A group
# of K random runs takes chunks of L = max(_CHUNK, _SLOTS // K) collisions,
# so L * K is at most 42 runs' worth at _CHUNK.  It multiplies into its own
# buffer of (L + 1) * K * 4 doubles of states, and about 5 * L * K of steps.
# Its maps are built in buffers allocated once per call and reused every
# chunk: L * K * 16 doubles of maps, two sums of L * K doubles per moving
# entry (convex; four on a fig7 run), two more map buffers (sequential) or
# one and L * K picked slots (stochastic), and L * K doubles of draws,
# uniforms, strengths and gather indices per slot, about 1.4 MB for a noisy
# convex sweep at K = 42 with two reservoirs.  A longer chunk would form
# states from higher powers of R, which round differently, so a pass chains
# chunks instead; a longer random chunk would raise a noisy sweep's memory.
_CHUNK = 128
_PASS = 4 * _CHUNK
_SPAN = 32 * _CHUNK
_SLOTS = 42 * _CHUNK

# Slacks of the bound that lets a deterministic chunk skip its window test
# (``_MapPowers`` derives them): the distance of a computed step from the
# exact one, and the relative growth and rounding of a step over a chunk.
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
    ``seed``, a nonnegative int or a ``np.random.SeedSequence``, is the one
    source of a random run's stream.
    """

    h: float = 1.0
    tau: float = 0.5
    max_collisions: int = 5000
    tol: float = 1e-9
    window: int = 10
    mixing_mode: str = "convex"
    seed: int | np.random.SeedSequence = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not math.isfinite(self.h) or not math.isfinite(self.tau) or self.tau < 0.0:
            raise ValueError(f"h must be finite and tau >= 0, got h={self.h}, tau={self.tau}")
        # the pass loop counts collisions in int64
        if not math.isfinite(self.tol) or self.tol <= 0.0 or not 1 <= self.window <= self.max_collisions <= 2**63 - 1:
            raise ValueError(
                f"need finite tol > 0, window >= 1, window <= max_collisions <= 2**63 - 1; got tol={self.tol}, "
                f"window={self.window}, max_collisions={self.max_collisions}"
            )
        if self.mixing_mode not in MIXING_MODES:
            raise ValueError(f"mixing_mode must be one of {MIXING_MODES}, got {self.mixing_mode!r}")
        # a bool is an int, and a Generator would carry state from call to call
        if not (isinstance(self.seed, np.random.SeedSequence)
                or (isinstance(self.seed, int) and not isinstance(self.seed, bool) and self.seed >= 0)):
            raise ValueError(f"seed must be a nonnegative int or a np.random.SeedSequence, got {self.seed!r}")


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
    """Compiled form of one run's collision map shared by the evolution
    kernels and the oracle: one closed-form Pauli transfer matrix per
    reservoir, and ``mean_op``, the composed map in expectation.
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
    """The random kernel: the random runs of one call that share a mixing
    mode and a reservoir count K, and the buffers their drawn maps are built
    in.  A group of g runs takes chunks of max(``_CHUNK``, ``_SLOTS`` // g)
    collisions, sized from g alone; where a chunk ends changes no bit.

    Each run's reservoirs are stacked once, in the order the mode composes
    them: canonical for convex, list order otherwise, into the per-slot
    stacks ``chunk`` reads, and a retired run's column is dropped from
    those.  A reservoir without
    noise gets epsilon = eta = 0 and a zero noise map, so one formula serves
    every slot.  Each run's stream is a generator built from its
    ``cfg.seed``.  Each chunk every run reads its rows of uniforms from its
    own stream into its own block of ``drawn``, and one ``take`` lays them out
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
    +0.0 drops, so the entry has the same bits every collision, and those
    of the run's mean map, ``_Engine.mean_op``, whose terms, summed in the
    same order, differ from these at most in the sign of a zero.  These
    fixed entries are written once per layout of the maps, and only the
    moving ones are formed per chunk.
    """

    def __init__(self, engines: list[_Engine]):
        g = len(engines)
        # every buffer holds the group's longest chunk
        self.length = length = max(_CHUNK, _SLOTS // g)
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
            weights.append(np.cumsum(e.weights) if stochastic else e.weights[order])
            dests.append([k] * stochastic + [order.index(r) for r in e.noisy])
        base, noise = np.array(base), np.array(noise)
        eps0, eta, weights = np.array(eps0), np.array(eta), np.array(weights)
        self.rngs = [np.random.default_rng(e.cfg.seed) for e in engines]
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
            self.fixed = np.array([e.mean_op for e in engines])
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

    def chunk(self, length: int) -> np.ndarray:
        """Draw each run's next ``length`` rows from its own stream and
        return the maps of the next ``length`` collisions, shape (length,
        runs, 4, 4).  A run's rows past its budget, like those past the
        collision it stops on, are never read."""
        k, _, g = self.eps0_rows.shape
        out = self.maps[: length * g * 16].reshape(length, g, 4, 4)
        for rng, block in zip(self.rngs, self.blocks):
            rng.random(out=block[:length])
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

    def advance(self, start: np.ndarray, left: np.ndarray, tol: np.ndarray):
        """Multiply each run's maps of the next ``length`` collisions, at
        most a chunk and the most any run has ``left``, into its column of a
        state buffer from ``start``, each run's (1, b).  Returns what
        ``_MapPowers.advance`` returns, with every run a row to window-test."""
        k = len(start)
        length = int(min(self.length, left.max()))
        buf = np.empty((length + 1, k, 4, 1))
        buf[0, :, :, 0] = start
        maps = self.chunk(length)
        if k == 1:
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
        # the steps are formed in the time-major buffer, where they are
        # contiguous per collision, and summed as (x + y) + z
        step = states[1:, :, 1:] - states[:-1, :, 1:]
        step *= step
        dist = ((step[..., 0] + step[..., 1]) + step[..., 2]).T
        return states[1:, :, 1:].transpose(1, 0, 2), np.arange(k), dist, np.minimum(left, length), np.empty((k, 3))

    def retire(self, keep: np.ndarray) -> None:
        """Drop the runs whose entry of ``keep`` is False."""
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
        self.blocks = [b for b, kept in zip(self.blocks, keep) if kept]


def _initial(rho: np.ndarray) -> np.ndarray:
    rho = validate_density_matrix(rho)
    if rho.shape != (2, 2):
        raise DimensionMismatch(f"system state must be 2x2, got {rho.shape}")
    return np.concatenate(([1.0], bloch_vector(rho)))


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


class _MapPowers:
    """The deterministic runs of one call and the powers of their maps.  A
    run's states in a chunk that starts from b are R^1 b ... R^_CHUNK b, in
    order, one product with the ``_powers`` of its map R, built once per
    call up to ``_CHUNK`` whatever the runs' budgets.  Chunks start every
    ``_CHUNK`` collisions from a run's start, so a state has the same bits
    whichever pass forms it.

    A pass first takes every run from chunk end to chunk end: one product
    of ``ends``, the (K, 7, 4) stack of the Bloch rows of R^(_CHUNK - 1),
    the trace row and the Bloch rows of R^_CHUNK, with a chunk's start
    gives its last two states, the last as (1, b), the next chunk's start.
    Their Bloch rows are the last six rows of the chunk's full product,
    with its bits: a matrix-vector product forms each row as the same four
    products of the same operands, summed in the same order, whatever rows
    stand beside it, and the trace row gives exactly 1.  So every state
    formed from a chunk end is the one a chain of full products gives; a
    test pins that an unrecorded run equals the recorded one bitwise.

    Most chunks cannot close a window: every step in them is far above
    tol.  The step bound below proves that from a chunk's last step, so a
    run advances through the chunks it clears from the pass's start, and
    gets what ``_window`` returns for steps none of which is under tol: not
    met and streak 0.  Those chunks need no state but their ends, and where
    the run's budget ends inside one, the rows of that power give its last
    state.  A run whose first chunk the bound leaves open takes the window
    test over ``_PASS`` collisions, whose states one product of its whole
    stack with each chunk's start forms.  A recorded call forms every run's
    states and passes ``_PASS`` collisions at a time; an unrecorded one,
    which reads nothing but each run's last state, forms the window-tested
    runs' states alone and passes ``_SPAN`` collisions of chunk ends at a
    time.

    The bound.  A run's map b -> M b + c keeps the unit Bloch ball, so |M|
    <= 1 in the 2-norm (for a unit b, M b is half the difference of the
    images of b and -b), and the exact iterates from a chunk's start have
    steps D_(n+1) = M D_n that never grow: the chunk's last step is its
    least.  The stored map keeps the ball only up to rounding and the
    1e-12 by which convex weights may miss one, so a step may grow by a
    factor 1 + 1e-12 a collision, under 1 + 2e-10 over a chunk.  If every
    computed step lies within s of the exact one, every computed step of
    the chunk is at least

        l = |last computed step| (1 - q) - 2 s,

    and when l > 0 its computed square d = (x^2 + y^2) + z^2 is at least
    the computed l^2, fl(l^2): q = ``_GROWTH_SLACK`` = 1e-8 covers that
    growth, the three roundings of the square (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.5) and those of l and l^2.  A
    correctly rounded square root is monotone, so d >= fl(l^2) gives
    0.5 sqrt(d) >= 0.5 sqrt(fl(l^2)), and a run with l > 0 and
    0.5 sqrt(fl(l^2)) >= tol has no step under tol in the chunk.

    The slack s = ``_STEP_SLACK``.  Let u = 2^-53 and g = 4u / (1 - 4u),
    the bound on the relative error of a sum of four products.  |c| <= 1
    and the states' |b| <= 1 as well, and an error in a state passes
    through M^n without growing.  Against the exact iterates from the
    chunk's computed start, a computed step errs by at most the sum of:

    * the powers: R^n = R R^(n-1) up to n = 128, 127 products, with row 0
      exactly (1, 0, 0, 0).  Product k adds F_k, |F_k| <= g |R| |R^(k-1)|
      entrywise.  On (1, b), |R^(k-1)| (1, |b|) has a Bloch part w with
      |w| <= |c| + |M|_F |b| <= 1 + sqrt(3), and |R| (1, w) one of norm
      at most 1 + sqrt(3) (1 + sqrt(3)) = 4 + sqrt(3).  Each product moves
      a state by at most g (4 + sqrt(3)) < 2.6e-15, and all by 3.3e-13;
    * the gemv: g (1 + sqrt(3)) < 1.3e-15 per state, so a state lies
      within 3.4e-13 of the exact one;
    * the subtraction: a step is the difference of two such states,
      rounded once, u |step| <= 2.3e-16, so it errs by under 7e-13.

    s = 3e-11 is more than forty times that bound.  A last step within 2s
    of zero never clears, so neither tau = 0 (M = I, no step) nor a NaN
    step ever does, nor a chunk close to the run's fixed point."""

    def __init__(self, engines: list[_Engine], record: bool):
        k = len(engines)
        self.record = record
        self.span = _PASS if record else _SPAN
        self.powers = _powers(np.array([e.mean_op for e in engines]), _CHUNK)
        # the Bloch rows of R^(_CHUNK - 1), the trace row and the Bloch rows
        # of R^_CHUNK: a product with a chunk's start gives its last two
        # states, the last as (1, b), the next chunk's start
        self.ends = np.concatenate((self.powers[:, -6:-3], np.tile(_TRACE_ROW, (k, 1, 1)), self.powers[:, -3:]),
                                   axis=1)
        # the pass's chunk ends, after its start, and the full products of
        # the runs it forms
        self.tails = np.empty((self.span // _CHUNK + 1, k, 7, 1))
        self.blocks = np.empty(k * 3 * _PASS)

    def advance(self, start: np.ndarray, left: np.ndarray, tol: np.ndarray):
        """One pass from ``start``, each run's (1, b), with ``left``
        collisions left to each run.  Returns the states the pass forms as
        (runs, L, 3), L at most ``_PASS``, the rows the step bound leaves to
        the window test and their squared Bloch steps, None if it leaves
        none, the collisions each run takes unless its window closes, and
        each run's state after them; the last is for the rows not tested."""
        k = len(start)
        length = int(min(self.span, left.max()))
        chunks = -(-length // _CHUNK)
        # chunk c starts from starts[c], each run's (1, b), and its last two
        # states are ends[c]
        tails = self.tails[: chunks + 1, :k]
        starts, ends = tails[..., 3:, :], tails[1:, ..., 0]
        starts[0, ..., 0] = start
        for chunk in range(chunks):
            np.matmul(self.ends, starts[chunk], out=tails[chunk + 1])
        # the least step of each chunk its last step proves, and the chunks
        # each run clears from the pass's start
        step = ends[..., 4:] - ends[..., :3]
        least = np.sqrt(np.einsum("...i,...i->...", step, step)) * (1.0 - _GROWTH_SLACK) - 2.0 * _STEP_SLACK
        cleared = (least > 0.0) & (0.5 * np.sqrt(least * least) >= tol)
        clear = np.where(cleared.all(axis=0), chunks, cleared.argmin(axis=0))
        rows = np.flatnonzero(clear == 0)
        taken = np.minimum(left, np.where(clear, clear * _CHUNK, _PASS))
        last = ends[(taken - 1) // _CHUNK, np.arange(k), 4:]
        for row in np.flatnonzero((clear > 0) & (taken % _CHUNK != 0)).tolist():
            # a budget that ends inside a cleared chunk
            chunk, n = divmod(int(taken[row]), _CHUNK)
            last[row] = (self.powers[row, 3 * n - 3 : 3 * n] @ starts[chunk, row])[:, 0]
        # full states over the pass's first _PASS collisions, for the runs
        # left to the window test, or for every run of a recorded call
        length = min(length, _PASS)
        block = self.blocks[: k * 3 * _PASS].reshape(k, _PASS // _CHUNK, 3 * _CHUNK, 1)
        formed = -(-length // _CHUNK)
        for row in range(k) if self.record else rows.tolist():
            np.matmul(self.powers[row], starts[:formed, row], out=block[row, :formed])
        # state t of the pass, after its collision t + 1, is states[:, t]
        states = block.reshape(k, _PASS, 3)[:, :length]
        if not rows.size:
            return states, rows, None, taken, last
        # each open run's squared Bloch step at each collision, from the
        # pass's start on, summed as (x + y) + z
        step = np.diff(np.concatenate((start[rows, None, 1:], states[rows]), axis=1), axis=1)
        step *= step
        return states, rows, (step[..., 0] + step[..., 1]) + step[..., 2], taken, last

    def retire(self, keep: np.ndarray) -> None:
        """Drop the runs whose entry of ``keep`` is False."""
        kept = np.flatnonzero(keep)
        if kept.size < len(keep):
            # move the kept rows down in place, so no second stack is made
            for row, source in enumerate(kept):
                self.powers[row] = self.powers[source]
                self.ends[row] = self.ends[source]
            self.powers, self.ends = self.powers[: kept.size], self.ends[: kept.size]


def _drive(state0: np.ndarray, engines: list[_Engine], groups: dict, trails: list | None = None):
    """The one pass loop: advance every run from ``state0`` until it meets
    its own tolerance window or uses its own budget.  ``groups`` maps None
    to the deterministic runs, indices into ``engines``, and (mixing mode,
    K) to the random runs that share them; each group gets one kernel.
    Each pass hands each kernel the collisions every run has left, tests
    the rows the kernel hands back with ``_window`` and gives every other
    row what the kernel proved of it: not met, the collisions it takes and
    streak 0.  A run retires at the pass where it stops, its state read at
    the collision it stopped on.  Returns each run's final Bloch vector,
    collision count and whether it converged.  ``trails``, if given, holds
    one list per run, and each pass appends to a run's list the Bloch
    vectors after the collisions it took."""
    n = len(engines)
    tol = np.array([e.cfg.tol for e in engines])
    window = np.array([e.cfg.window for e in engines])
    budget = np.array([e.cfg.max_collisions for e in engines])
    final = np.tile(state0, (n, 1))
    n_used = np.zeros(n, dtype=np.int64)
    streak = np.zeros(n, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)
    for key, runs in groups.items():
        members = [engines[i] for i in runs]
        kernel = _MapPowers(members, trails is not None) if key is None else _MapGroup(members)
        active = np.array(runs)  # the runs in the kernel's rows, in order
        while active.size:
            left = budget[active] - n_used[active]
            states, rows, dist, taken, last = kernel.advance(final[active], left, tol[active])
            k = active.size
            met = np.zeros(k, dtype=bool)
            ends = np.zeros(k, dtype=np.int64)
            if rows.size:
                met[rows], taken[rows], ends[rows] = _window(dist, tol, window, streak, left[rows], active[rows])
                last[rows] = states[rows, taken[rows] - 1]
            streak[active] = ends
            final[active, 1:] = last
            n_used[active] += taken
            converged[active] = met
            if trails is not None:
                for row, run in enumerate(active.tolist()):
                    trails[run].append(states[row, : taken[row]].copy())
            keep = ~met & (left > taken)
            kernel.retire(keep)
            active = active[keep]
    return final[:, 1:], n_used, converged


def _bloch_fidelity(b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Qubit fidelity of each Bloch row of ``b`` against the Bloch vector ``t``:
    F = sqrt((1 + b.t + sqrt((1 - |b|^2)(1 - |t|^2))) / 2), clamped so float
    jitter on pure states cannot leak a NaN."""
    purity_b = np.maximum(1.0 - np.einsum("ij,ij->i", b, b), 0.0)
    mixed = np.sqrt(purity_b * max(1.0 - float(t @ t), 0.0))
    return np.sqrt(np.clip(0.5 * (1.0 + b @ t + mixed), 0.0, 1.0))


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
    runs: list[tuple[list[ReservoirSpec], EngineConfig, np.ndarray | str | None]],
    rho0: np.ndarray | None = None,
    record: bool = True,
) -> Iterator[tuple[Trajectory, SteadyStateResult]]:
    """Trajectories and steady states of independent runs from one start
    state, one per (reservoirs, cfg, target): the one entry point for
    evolution, whether recorded or, for sweeps, not; ``evolve`` is its
    one-run case.

    ``rho0=None`` starts every run from the +x eigenstate.  A run's
    fidelity column is measured against ``target``: a density matrix, or
    ``ORACLE`` for the oracle fixed point of the run's own compiled map
    (for a random map, the map in expectation), found as
    ``steady_state_oracle`` finds it; None gives no fidelity column.  Each
    run keeps its own tolerance, window, budget and random stream, the one
    its ``cfg.seed`` sets.

    Every run's map is compiled and every target found before any
    collision, so a map with no fixed point raises SingularSystem before
    any run starts.  Deterministic runs that share a compiled map, tol,
    window and budget evolve identically, so each such set advances once,
    as its first run, and every copy gets that run's result and trail; a
    copy's fidelity column is still measured against its own target.  The
    distinct runs then go through the pass loop together, each recorded in
    a trail of its own, and each result is bitwise what the run gives
    alone.  The returned iterator builds each run's Trajectory from its
    trail only when it reaches that run, so a caller that writes each
    before taking the next holds the trails and one Trajectory at once.  With
    ``record=False`` every trajectory is empty; that changes nothing about
    the results.
    """
    if rho0 is None:
        rho0 = pure_qubit(math.pi / 2.0)
    state0 = _initial(rho0)
    engines = [_Engine(reservoirs, cfg) for reservoirs, cfg, _ in runs]
    targets = [_target(e, target) for e, (_, _, target) in zip(engines, runs)]
    # the runs that advance, each run's slot among them, and the slots of
    # each kernel's runs; a random run is always its own
    slot: dict = {}
    distinct, owner, groups = [], [], {}
    for i, e in enumerate(engines):
        key = i if e.random else (e.mean_op.tobytes(), e.cfg.tol, e.cfg.window, e.cfg.max_collisions)
        if key not in slot:
            slot[key] = len(distinct)
            groups.setdefault((e.cfg.mixing_mode, len(e.reservoirs)) if e.random else None, []).append(len(distinct))
            distinct.append(i)
        owner.append(slot[key])
    trails = [[state0[None, 1:]] for _ in distinct] if record else None
    b, n_used, converged = _drive(state0, [engines[i] for i in distinct], groups, trails)
    results = [_result(b[k], int(n_used[k]), bool(converged[k])) for k in owner]
    if trails is None:
        return ((Trajectory(np.arange(0), np.empty(0), np.empty((0, 3)), None), r) for r in results)
    return ((_trajectory(trails[k], target), r) for k, target, r in zip(owner, targets, results))


def evolve(
    rho0: np.ndarray | None,
    reservoirs: list[ReservoirSpec],
    cfg: EngineConfig,
    target: np.ndarray | None = None,
    record: bool = True,
) -> tuple[Trajectory, SteadyStateResult]:
    """Iterate collisions until the state settles or the budget runs out.

    Convergence means trace_distance(rho_{n+1}, rho_n) < cfg.tol for
    cfg.window consecutive collisions; running out of collisions is reported
    through ``converged=False``, never raised.  ``rho0=None`` starts from
    the +x eigenstate.  With ``record=False`` the returned trajectory is
    empty; it changes nothing about the result.  This is the one-run case
    of ``evolve_runs``, which sweeps and recorded presets call.
    """
    return next(evolve_runs([(reservoirs, cfg, target)], rho0, record))


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

"""Collision engine tests.

The load-bearing checks are the channel properties (trace preservation,
Hermiticity, positivity over random inputs), the geometric relaxation law for
a single polar reservoir, and the agreement between the iterated evolution
and the independent affine fixed-point solver.  The last one is the whole
point of keeping two routes to the steady state, so it is exercised here on
a handful of configurations and again, more broadly, in the acceptance tests.
Both routes read the same compiled transfer matrices, so the property tests
check those matrices against ``single_collision`` (unitary plus partial
trace) on random inputs.  The evolution loop advances runs a chunk of
collisions at a time, so its stopping rule is pinned at chunk boundaries,
and a batch of runs must give bitwise what each run gives alone.
"""

import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc.collision import (
    _CHUNK,
    DEFAULT_SEED,
    MIXING_MODES,
    EngineConfig,
    NoiseNotSupported,
    NoiseSpec,
    NonUnitaryPropagator,
    ReservoirSpec,
    SingularSystem,
    WeightsNotNormalized,
    affine_representation,
    collision_unitary,
    evolve,
    evolve_batch,
    pair_hamiltonian,
    pauli_transfer_matrix,
    resolve_weights,
    single_collision,
    steady_state_oracle,
    step,
)
from qsc.linalg import dagger, kron, trace_distance
from qsc.states import AngleOutOfRange, bloch_to_density, bloch_vector, fidelity, pure_qubit

J_NOMINAL = 0.1
TAU_NOMINAL = 0.5  # 0.05 / J_NOMINAL
SIN2 = math.sin(J_NOMINAL * TAU_NOMINAL) ** 2  # per-collision exchange weight


def up_down_pair(j1=J_NOMINAL, j2=J_NOMINAL):
    return [ReservoirSpec(0.0, j1), ReservoirSpec(math.pi, j2)]


def random_density(rng):
    b = rng.uniform(-1.0, 1.0, size=3)
    norm = np.linalg.norm(b)
    if norm > 1.0:
        b /= norm * (1.0 + rng.uniform(0.0, 0.5))
    return bloch_to_density(b)


class TestPairDynamics:
    def setup_method(self):
        self.h = 1.0
        self.j = J_NOMINAL
        self.tau = TAU_NOMINAL

    def test_hamiltonian_structure(self):
        ham = pair_hamiltonian(self.h, self.j)
        assert np.allclose(ham, dagger(ham))
        # free part on the diagonal, exchange in the one-excitation block
        assert np.allclose(np.diag(ham), [self.h, 0.0, 0.0, -self.h])
        assert ham[1, 2] == pytest.approx(self.j)
        assert ham[2, 1] == pytest.approx(self.j)
        assert ham[0, 3] == 0.0 and ham[3, 0] == 0.0

    def test_unitary_block_structure(self):
        u = collision_unitary(self.h, self.j, self.tau)
        assert np.linalg.norm(dagger(u) @ u - np.eye(4)) < 1e-12
        angle = self.j * self.tau
        # corners pick up free phases, the middle block is an exchange rotation
        assert u[0, 0] == pytest.approx(np.exp(-1j * self.h * self.tau), abs=1e-14)
        assert u[3, 3] == pytest.approx(np.exp(1j * self.h * self.tau), abs=1e-14)
        assert u[1, 1] == pytest.approx(math.cos(angle), abs=1e-14)
        assert u[1, 2] == pytest.approx(-1j * math.sin(angle), abs=1e-14)

    def test_swap_at_quarter_period(self):
        # j*tau = pi/2 exchanges the pair's excitation completely
        u = collision_unitary(0.0, 1.0, math.pi / 2.0)
        rho = single_collision(pure_qubit(0.0), pure_qubit(math.pi), u)
        assert np.allclose(rho, pure_qubit(math.pi), atol=1e-14)

    def test_single_collision_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryPropagator):
            single_collision(pure_qubit(0.0), pure_qubit(0.0), np.eye(4) * 1.01)


def test_channel_preserves_density_matrices():
    # 200 random (state, reservoir, propagator) triples: the reduced map must
    # keep the trace at one, stay Hermitian and keep eigenvalues nonnegative.
    rng = np.random.default_rng(909)
    for _ in range(200):
        rho_s = random_density(rng)
        rho_r = random_density(rng)
        u = collision_unitary(
            float(rng.uniform(-5.0, 5.0)),
            float(rng.uniform(0.0, 0.5)),
            float(rng.uniform(0.0, 10.0)),
        )
        assert np.linalg.norm(dagger(u) @ u - np.eye(4)) < 1e-12
        out = single_collision(rho_s, rho_r, u)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert abs(np.trace(out).imag) < 1e-12
        assert np.linalg.norm(out - dagger(out)) < 1e-12
        assert float(np.linalg.eigvalsh(out)[0]) >= -1e-10


def test_geometric_relaxation_from_excited_state():
    # A single spin-down reservoir drains the excited population by a factor
    # cos^2(j*tau) per collision, exactly.
    cfg = EngineConfig(max_collisions=120, tol=1e-30, window=1)
    traj, _ = evolve(pure_qubit(0.0), [ReservoirSpec(math.pi, J_NOMINAL)], cfg)
    p_e = (1.0 + traj.sigma_z) / 2.0
    law = math.cos(J_NOMINAL * TAU_NOMINAL) ** (2.0 * np.arange(len(p_e)))
    assert np.max(np.abs(p_e[:101] - law[:101])) < 1e-12
    assert p_e[10] == pytest.approx(0.9752997458249376, abs=1e-13)


def test_convex_step_invariant_under_reservoir_order():
    rng = np.random.default_rng(4)
    reservoirs = [
        ReservoirSpec(0.3, 0.08, weight=0.2),
        ReservoirSpec(1.9, 0.11, weight=0.5),
        ReservoirSpec(2.7, 0.05, weight=0.3),
    ]
    cfg = EngineConfig(h=0.7, tau=0.6)
    rho = random_density(rng)
    reference = step(rho, reservoirs, cfg)
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        shuffled = [reservoirs[i] for i in perm]
        assert np.array_equal(step(rho, shuffled, cfg), reference)


def test_sequential_mixing_matches_closed_form_bias():
    # Applying the up channel then the down channel leaves a small negative
    # offset -s/(2-s) with s = sin^2(j*tau); convex mixing sits at zero.
    convex = steady_state_oracle(up_down_pair(), EngineConfig())
    seq = steady_state_oracle(up_down_pair(), EngineConfig(mixing_mode="sequential"))
    assert convex.sigma_z_ss == pytest.approx(0.0, abs=1e-14)
    assert seq.sigma_z_ss == pytest.approx(-SIN2 / (2.0 - SIN2), abs=1e-12)
    assert abs(seq.sigma_z_ss - convex.sigma_z_ss) < 5e-3


def test_sequential_depends_on_order():
    reservoirs = up_down_pair()
    fwd = steady_state_oracle(reservoirs, EngineConfig(mixing_mode="sequential"))
    rev = steady_state_oracle(reservoirs[::-1], EngineConfig(mixing_mode="sequential"))
    assert fwd.sigma_z_ss == pytest.approx(-rev.sigma_z_ss, abs=1e-14)
    assert fwd.sigma_z_ss != rev.sigma_z_ss


def test_stochastic_mixing_reproducible_and_unbiased():
    cfg = EngineConfig(max_collisions=20000, mixing_mode="stochastic", seed=DEFAULT_SEED)
    traj_a, res_a = evolve(None, up_down_pair(), cfg)
    traj_b, res_b = evolve(None, up_down_pair(), cfg)
    assert np.array_equal(traj_a.sigma_z, traj_b.sigma_z)
    # single samples keep rattling around the convex fixed point, so the
    # convergence window never fills; the tail average is what settles
    assert not res_a.converged
    tail = traj_a.sigma_z[len(traj_a.sigma_z) // 2 :]
    assert abs(float(tail.mean())) < 0.03
    other = evolve(None, up_down_pair(), dataclasses.replace(cfg, seed=1))[0]
    assert not np.array_equal(other.sigma_z, traj_a.sigma_z)


def test_all_mixing_modes_accepted():
    for mode in MIXING_MODES:
        cfg = EngineConfig(max_collisions=50, tol=1e-2, mixing_mode=mode)
        _, result = evolve(None, up_down_pair(), cfg)
        assert result.n_used <= 50


def test_polar_reservoirs_make_sigma_z_field_independent():
    # With both ancillas on the z axis the populations decouple from the
    # free phases, so the sigma_z track cannot depend on h.
    cfg_a = EngineConfig(h=1.0, max_collisions=300, tol=1e-30, window=1)
    cfg_b = EngineConfig(h=7.0, max_collisions=300, tol=1e-30, window=1)
    ta, _ = evolve(None, up_down_pair(), cfg_a)
    tb, _ = evolve(None, up_down_pair(), cfg_b)
    assert np.max(np.abs(ta.sigma_z - tb.sigma_z)) < 1e-12


def test_spin_flip_covariance():
    # Conjugating by sigma_x on both factors maps theta -> pi - theta and
    # h -> -h; under that combined flip the magnetization track negates
    # exactly.  Polar reservoirs do not feel h, so they negate at fixed h too.
    thetas = (0.7, 2.1)
    cfg = EngineConfig(h=1.3, max_collisions=300, tol=1e-30, window=1)
    cfg_neg = EngineConfig(h=-1.3, max_collisions=300, tol=1e-30, window=1)
    base, _ = evolve(None, [ReservoirSpec(t, J_NOMINAL) for t in thetas], cfg)
    flip, _ = evolve(None, [ReservoirSpec(math.pi - t, J_NOMINAL) for t in thetas], cfg_neg)
    assert np.max(np.abs(flip.sigma_z + base.sigma_z)) < 1e-12

    polar, _ = evolve(None, up_down_pair(), cfg)
    polar_flip, _ = evolve(None, up_down_pair()[::-1], cfg)
    assert np.max(np.abs(polar_flip.sigma_z + polar.sigma_z)) < 1e-12


def test_oracle_matches_iterated_evolution():
    rng = np.random.default_rng(55)
    for _ in range(5):
        k = int(rng.integers(1, 4))
        reservoirs = [
            ReservoirSpec(float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.05, 0.2)))
            for _ in range(k)
        ]
        # tie tau to the weakest coupling so the slowest mode stays tame
        tau = 0.05 / min(r.coupling for r in reservoirs)
        cfg = EngineConfig(
            h=float(rng.uniform(0.0, 2.0)), tau=tau, max_collisions=100000, tol=1e-12
        )
        oracle = steady_state_oracle(reservoirs, cfg)
        _, iterated = evolve(None, reservoirs, cfg, record=False)
        assert iterated.converged
        assert trace_distance(iterated.rho_ss, oracle.rho_ss) < 1e-8


def test_oracle_two_reservoir_balance():
    # Up at j1, down at j2: populations balance at (s1-s2)/(s1+s2) with
    # s_i = sin^2(j_i*tau).
    result = steady_state_oracle(up_down_pair(0.1, 0.075), EngineConfig())
    s1 = math.sin(0.1 * TAU_NOMINAL) ** 2
    s2 = math.sin(0.075 * TAU_NOMINAL) ** 2
    assert result.sigma_z_ss == pytest.approx((s1 - s2) / (s1 + s2), abs=1e-12)
    assert result.p_e + result.p_g == pytest.approx(1.0, abs=1e-14)


def test_oracle_three_reservoir_third():
    reservoirs = [ReservoirSpec(0.0, 0.1), ReservoirSpec(0.0, 0.1), ReservoirSpec(math.pi, 0.1)]
    result = steady_state_oracle(reservoirs, EngineConfig())
    assert result.sigma_z_ss == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_oracle_rejects_degenerate_map():
    with pytest.raises(SingularSystem):
        steady_state_oracle(up_down_pair(), EngineConfig(tau=0.0))
    with pytest.raises(SingularSystem):
        steady_state_oracle([ReservoirSpec(0.7, 0.0)], EngineConfig())


def test_affine_form_refuses_random_maps():
    noisy = [ReservoirSpec(0.0, 0.1, noise=NoiseSpec(0.1, 0.05))]
    with pytest.raises(NoiseNotSupported):
        affine_representation(noisy, EngineConfig())
    with pytest.raises(NoiseNotSupported):
        steady_state_oracle(up_down_pair(), EngineConfig(mixing_mode="stochastic"))


def test_evolve_reports_budget_exhaustion_without_raising():
    cfg = EngineConfig(max_collisions=40, tol=1e-15)
    traj, result = evolve(None, up_down_pair(), cfg)
    assert not result.converged
    assert result.n_used == 40
    assert len(traj) == 41  # includes the initial state


def test_evolve_convergence_metadata():
    cfg = EngineConfig(max_collisions=100000, tol=1e-9)
    traj, result = evolve(None, [ReservoirSpec(math.pi, 0.1)], cfg, target=pure_qubit(math.pi))
    assert result.converged
    assert result.n_used < cfg.max_collisions
    assert len(traj) == result.n_used + 1
    # fidelity against the attractor never decreases on this relaxation
    assert np.all(np.diff(traj.fidelity) > -1e-12)
    assert traj.fidelity[-1] > 0.99999


def test_evolve_record_false_returns_empty_trajectory():
    traj, result = evolve(None, up_down_pair(), EngineConfig(max_collisions=50, tol=1e-2), record=False)
    assert len(traj) == 0
    assert result.n_used > 0


def test_noisy_step_depolarizes_the_ancilla():
    # One noisy collision equals the reference collision with a depolarized
    # ancilla; the first uniform(-1, 1) draw of seed 7 is 0.25019093320933394.
    rho = pure_qubit(0.0)
    spec = ReservoirSpec(math.pi / 2.0, 0.1, noise=NoiseSpec(0.2, 0.1))
    cfg = EngineConfig(h=0.9, tau=0.8)
    eps_eff = 0.2 + 0.1 * 0.25019093320933394
    ancilla = (1.0 - eps_eff) * pure_qubit(math.pi / 2.0) + 0.5 * eps_eff * np.eye(2)
    direct = single_collision(rho, ancilla, collision_unitary(cfg.h, spec.coupling, cfg.tau))
    assert np.allclose(step(rho, [spec], cfg, rng=np.random.default_rng(7)), direct, atol=1e-14)


def test_noise_spec_validation():
    NoiseSpec(0.2, 0.2)  # boundary is allowed
    with pytest.raises(ValueError):
        NoiseSpec(0.1, 0.2)  # epsilon - eta < 0
    with pytest.raises(ValueError):
        NoiseSpec(0.9, 0.2)  # epsilon + eta > 1
    with pytest.raises(ValueError):
        NoiseSpec(-0.1, 0.0)


def test_reservoir_spec_validation():
    with pytest.raises(AngleOutOfRange):
        ReservoirSpec(3.2, 0.1)
    with pytest.raises(AngleOutOfRange):
        ReservoirSpec(0.5, 0.1, phi=-0.1)
    with pytest.raises(ValueError):
        ReservoirSpec(0.5, -0.1)
    with pytest.raises(WeightsNotNormalized):
        ReservoirSpec(0.5, 0.1, weight=1.5)


def test_resolve_weights():
    uniform = resolve_weights(up_down_pair())
    assert np.allclose(uniform, [0.5, 0.5])
    explicit = resolve_weights(
        [ReservoirSpec(0.0, 0.1, weight=0.25), ReservoirSpec(math.pi, 0.1, weight=0.75)]
    )
    assert np.allclose(explicit, [0.25, 0.75])
    with pytest.raises(WeightsNotNormalized):
        resolve_weights([ReservoirSpec(0.0, 0.1, weight=0.25), ReservoirSpec(math.pi, 0.1)])
    with pytest.raises(WeightsNotNormalized):
        resolve_weights(
            [ReservoirSpec(0.0, 0.1, weight=0.3), ReservoirSpec(math.pi, 0.1, weight=0.3)]
        )


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(tau=-0.5)
    with pytest.raises(ValueError):
        EngineConfig(tol=0.0)
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError):
            EngineConfig(tol=tol)
    with pytest.raises(ValueError):
        EngineConfig(window=0)
    with pytest.raises(ValueError):
        EngineConfig(max_collisions=5, window=10)
    with pytest.raises(ValueError):
        EngineConfig(mixing_mode="roulette")


def test_step_reduces_to_single_collision_for_one_reservoir():
    rng = np.random.default_rng(12)
    rho = random_density(rng)
    spec = ReservoirSpec(0.4, 0.12, phi=1.0)
    cfg = EngineConfig(h=0.9, tau=0.8)
    direct = single_collision(
        rho, pure_qubit(spec.theta, spec.phi), collision_unitary(cfg.h, spec.coupling, cfg.tau)
    )
    assert np.allclose(step(rho, [spec], cfg), direct, atol=1e-14)


# Property tests: the compiled transfer matrices against the independent
# unitary-plus-partial-trace reference on random inputs.

def _ball(radius):
    def scale(v):
        v = np.array(v)
        norm = float(np.linalg.norm(v))
        return v if norm <= radius else v * (radius / norm)
    return st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(scale)


STATES = _ball(1.0).map(bloch_to_density)
THETA = st.floats(0.0, math.pi)
PHI = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
RESERVOIR = st.builds(ReservoirSpec, THETA, st.floats(0.0, 0.5), phi=PHI)
ENGINE = st.builds(EngineConfig, h=st.floats(-5.0, 5.0), tau=st.floats(0.0, 10.0))
PROPERTY = settings(max_examples=150, deadline=None)


def _reference(rho, spec, cfg, eps=0.0):
    ancilla = (1.0 - eps) * pure_qubit(spec.theta, spec.phi) + 0.5 * eps * np.eye(2)
    return single_collision(rho, ancilla, collision_unitary(cfg.h, spec.coupling, cfg.tau))


@PROPERTY
@given(STATES, STATES, st.floats(-5.0, 5.0), st.floats(0.0, 0.5), st.floats(0.0, 10.0))
def test_transfer_matrix_matches_single_collision(rho, ancilla, h, j, tau):
    u = collision_unitary(h, j, tau)
    r = pauli_transfer_matrix(ancilla, u)
    assert np.array_equal(r[0], [1.0, 0.0, 0.0, 0.0])
    b = r @ np.concatenate(([1.0], bloch_vector(rho)))
    assert np.max(np.abs(bloch_to_density(b[1:]) - single_collision(rho, ancilla, u))) < 1e-12


@PROPERTY
@given(STATES, RESERVOIR, ENGINE, st.floats(0.0, 1.0))
def test_noisy_map_matches_depolarized_reference(rho, spec, cfg, eps):
    # eta = 0 pins the drawn strength to epsilon exactly
    noisy = dataclasses.replace(spec, noise=NoiseSpec(eps, 0.0))
    out = step(rho, [noisy], cfg, rng=np.random.default_rng(0))
    assert np.max(np.abs(out - _reference(rho, spec, cfg, eps))) < 1e-12


@st.composite
def weighted_reservoirs(draw):
    reservoirs = draw(st.lists(RESERVOIR, min_size=1, max_size=3))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(reservoirs), max_size=len(reservoirs)))
    return [dataclasses.replace(r, weight=w / sum(raw)) for r, w in zip(reservoirs, raw)]


@PROPERTY
@given(STATES, weighted_reservoirs(), ENGINE)
def test_compositions_match_per_reservoir_reference(rho, reservoirs, cfg):
    convex = sum(w * _reference(rho, r, cfg) for w, r in zip(resolve_weights(reservoirs), reservoirs))
    assert np.max(np.abs(step(rho, reservoirs, cfg) - convex)) < 1e-12
    chained = rho
    for r in reservoirs:
        chained = _reference(chained, r, cfg)
    seq = step(rho, reservoirs, dataclasses.replace(cfg, mixing_mode="sequential"))
    assert np.max(np.abs(seq - chained)) < 1e-12


@PROPERTY
@given(_ball(0.95), _ball(0.95), RESERVOIR, ENGINE, st.floats(0.2, 1.0))
def test_recorded_fidelity_matches_uhlmann_form(b0, t, spec, cfg, eps):
    # Depolarized ancillas keep every recorded state well inside the Bloch
    # ball, where both fidelity forms are conditioned to rounding level.
    noisy = dataclasses.replace(spec, noise=NoiseSpec(eps, 0.0))
    cfg = dataclasses.replace(cfg, max_collisions=5, tol=1e-30, window=1)
    target = bloch_to_density(t)
    traj, _ = evolve(bloch_to_density(b0), [noisy], cfg, target=target)
    expected = [fidelity(bloch_to_density(b), target) for b in traj.bloch]
    assert np.max(np.abs(traj.fidelity - expected)) < 1e-12


# The evolution loop: stopping at and across chunk boundaries, buffers sized
# to the run, random streams left where single collisions leave them, and
# batches equal to their runs taken one at a time.

def _reference_distances(reservoirs, cfg, n):
    """Trace distances of the first n steps from the +x state, iterating the
    affine form b' = M b + c one collision at a time."""
    m, c = affine_representation(reservoirs, cfg)
    b = bloch_vector(pure_qubit(math.pi / 2.0))
    out = []
    for _ in range(n):
        new = m @ b + c
        out.append(0.5 * float(np.linalg.norm(new - b)))
        b = new
    return np.array(out), b


def test_window_straddling_a_chunk_boundary():
    spec = [ReservoirSpec(math.pi, 0.4)]
    base = EngineConfig(tau=1.0, tol=1e-3, max_collisions=10 * _CHUNK)
    dist, _ = _reference_distances(spec, base, _CHUNK + 10)
    first = int(np.argmax(dist < base.tol)) + 1  # collision that starts the streak
    assert 1 < first < _CHUNK - 10 and np.all(dist[first - 1 :] < base.tol)
    cfg = dataclasses.replace(base, window=_CHUNK - first + 10)
    traj, result = evolve(None, spec, cfg)
    assert result.converged and result.n_used == _CHUNK + 9
    assert len(traj) == result.n_used + 1
    [batched] = evolve_batch([(spec, cfg, None)])
    assert batched.n_used == result.n_used and batched.converged


def test_budget_not_a_multiple_of_the_chunk_length():
    spec = [ReservoirSpec(math.pi, 0.2)]
    budget = 2 * _CHUNK + 37
    # the first step is far above tol, so a window of the whole budget never closes
    cfg = EngineConfig(tau=1.0, tol=1e-9, max_collisions=budget, window=budget)
    traj, result = evolve(None, spec, cfg)
    assert not result.converged and result.n_used == budget and len(traj) == budget + 1
    _, b = _reference_distances(spec, cfg, budget)
    assert np.max(np.abs(traj.bloch[-1] - b)) < 1e-12
    short = dataclasses.replace(cfg, max_collisions=37, window=37)
    assert [r.n_used for r in evolve_batch([(spec, cfg, None), (spec, short, None)])] == [budget, 37]


def test_budget_equal_to_window():
    spec = up_down_pair(0.1, 0.05)
    cfg = EngineConfig(max_collisions=12, window=12, tol=1e-9)
    # from the fixed point every step is below tol, so the last allowed
    # collision closes the window; from +x the first steps are not
    _, settled = evolve(steady_state_oracle(spec, cfg).rho_ss, spec, cfg, record=False)
    assert settled.converged and settled.n_used == 12
    _, moving = evolve(None, spec, cfg, record=False)
    assert not moving.converged and moving.n_used == 12


def test_recorded_trajectory_is_sized_to_the_run():
    cfg = EngineConfig(max_collisions=10**8)
    tracemalloc.start()
    try:
        traj, result = evolve(None, [ReservoirSpec(math.pi, 0.1)], cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.converged and len(traj) == result.n_used + 1
    assert peak < 10 * 2**20


@pytest.mark.parametrize(
    "reservoirs, mode, draws",
    [
        # eta = 0 draws a uniform each collision but keeps the map fixed
        ([ReservoirSpec(math.pi, 0.5, noise=NoiseSpec(0.3, 0.0))], "convex",
         lambda g, n: g.uniform(-1.0, 1.0, size=n)),
        # two equal reservoirs: a channel choice each collision, one map
        ([ReservoirSpec(math.pi, 0.5)] * 2, "stochastic", lambda g, n: g.random(n)),
    ],
)
def test_converged_random_run_leaves_stream_after_its_last_collision(reservoirs, mode, draws):
    rng = np.random.default_rng(3)
    _, result = evolve(None, reservoirs, EngineConfig(max_collisions=10_000, mixing_mode=mode),
                       record=False, rng=rng)
    assert result.converged and result.n_used % _CHUNK != 0
    expected = np.random.default_rng(3)
    draws(expected, result.n_used)
    assert rng.random() == expected.random()


@pytest.mark.parametrize("mode", MIXING_MODES)
def test_evolution_draws_in_single_collision_order(mode):
    reservoirs = [
        ReservoirSpec(0.4, 0.3, noise=NoiseSpec(0.2, 0.1)),
        ReservoirSpec(2.0, 0.2),
        ReservoirSpec(3.0, 0.4, noise=NoiseSpec(0.5, 0.3)),
    ]
    cfg = EngineConfig(tau=0.7, max_collisions=_CHUNK + 5, tol=1e-30, window=1, mixing_mode=mode)
    traj, _ = evolve(None, reservoirs, cfg, rng=np.random.default_rng(11))
    rng = np.random.default_rng(11)
    rho = pure_qubit(math.pi / 2.0)
    for b in traj.bloch[1:]:
        rho = step(rho, reservoirs, cfg, rng=rng)
        assert np.max(np.abs(bloch_vector(rho) - b)) < 1e-12


NOISE = st.none() | st.floats(0.0, 0.5).flatmap(lambda eps: st.builds(NoiseSpec, st.just(eps), st.floats(0.0, eps)))


@st.composite
def batch_runs(draw):
    """(reservoirs, cfg, stream seed or None) of one run, with mixed modes,
    noise, tolerances, windows and budgets up to a few chunks."""
    reservoirs = draw(st.lists(st.builds(ReservoirSpec, THETA, st.floats(0.05, 0.5), phi=PHI, noise=NOISE),
                               min_size=1, max_size=3))
    window = draw(st.integers(1, 40))
    cfg = EngineConfig(
        h=draw(st.floats(-2.0, 2.0)),
        tau=draw(st.floats(0.2, 3.0)),
        max_collisions=draw(st.integers(window, 3 * _CHUNK)),
        tol=draw(st.sampled_from([1e-2, 1e-4, 1e-7])),
        window=window,
        mixing_mode=draw(st.sampled_from(MIXING_MODES)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return reservoirs, cfg, draw(st.none() | st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(st.lists(batch_runs(), min_size=1, max_size=5), st.randoms(use_true_random=False))
def test_batch_equals_each_run_alone(specs, shuffler: random.Random):
    # a repeat of the first run, and the first run with a looser tol, share
    # its compiled map
    reservoirs, cfg, stream = specs[0]
    specs = [*specs, specs[0], (reservoirs, dataclasses.replace(cfg, tol=10.0 * cfg.tol), stream)]

    def fresh(i):
        reservoirs, cfg, stream = specs[i]
        return reservoirs, cfg, None if stream is None else np.random.default_rng(stream)

    alone = []
    for i in range(len(specs)):
        reservoirs, cfg, rng = fresh(i)
        alone.append(evolve(None, reservoirs, cfg, record=False, rng=rng)[1])
    order = list(range(len(specs)))
    for indices in (order, shuffler.sample(order, len(order))):
        for i, got in zip(indices, evolve_batch([fresh(i) for i in indices])):
            assert np.array_equal(got.rho_ss, alone[i].rho_ss)
            assert (got.n_used, got.converged) == (alone[i].n_used, alone[i].converged)

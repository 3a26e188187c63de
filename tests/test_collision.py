"""Collision engine tests.

The load-bearing checks are the channel properties (trace preservation,
Hermiticity, positivity over random inputs), the geometric relaxation law for
a single polar reservoir, and the agreement between the iterated evolution
and the independent affine fixed-point solver.  The last one is the whole
point of keeping two routes to the steady state, so it is exercised here on
a handful of configurations and again, more broadly, in the acceptance tests.
Both routes read the same closed-form transfer matrices, so the property
tests check those matrices against ``single_collision`` (unitary plus partial
trace) on random inputs and check that they are affine in the ancilla's Bloch
vector, the z-axis fixed point against its closed form, and the sign of a
convex run's fixed point against its linear rule in the ancillas' Bloch z.
The evolution loops advance runs a chunk of collisions at a time, the
deterministic loop four chunks per pass and a random group chunks as long
as its size allows, so their stopping rule is pinned at chunk and pass
boundaries, and a batch of runs, mixed or not, recorded or not, must give
bitwise what each run gives alone, trajectory and all, a lone random run
across its longer chunks too.  A deterministic run's chunk is one
product of its start state with powers of its map, its states in order, so
it must agree with the per-collision product of drawn maps and with
``step``, and bitwise with a plain loop of one such product per chunk whose
powers are stacked per Bloch component, an independent layout.
The window rule is recounted one step at a time from a recorded trajectory,
independently of how a chunk is laid out, and on drawn passes of the one
window helper both loops call, at tols from the least positive double to
ones whose (2 tol)^2 overflows.  The deterministic loop skips the window
test on a pass whose steps a bound proves all above tol, so the loop must
give the same bits with the bound disabled, and on every pass the bound
clears every computed step's trace distance must reach tol.
"""

import dataclasses
import itertools
import math
import random
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qsc.collision
from qsc.collision import (
    _CHUNK,
    _PASS,
    _SLOTS,
    DEFAULT_SEED,
    MIXING_MODES,
    ORACLE,
    EngineConfig,
    NoiseSpec,
    NonUnitaryPropagator,
    ReservoirSpec,
    SingularSystem,
    WeightsNotNormalized,
    _Engine,
    _MapGroup,
    _window,
    affine_representation,
    collision_unitary,
    evolve,
    evolve_batch,
    evolve_runs,
    pair_hamiltonian,
    resolve_weights,
    single_collision,
    steady_state_oracle,
    step,
    transfer_matrix,
)
from qsc.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, NonHermitianInput, dagger, kron, trace_distance
from qsc.presets import PHYS_H_MHZ, PHYS_J_MHZ, PHYS_TAU_US
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

    def test_overflowing_phases_raise_before_any_warning(self):
        # h * tau overflows the phases; the library error comes first, and the
        # closed form checks both phases before any trig call
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitianInput, match="overflow"):
                collision_unitary(1e308, 0.1, 10.0)
            for h, j in ((1e308, 0.1), (0.0, 1e308)):
                with pytest.raises(NonHermitianInput, match="unitarity defect nan"):
                    transfer_matrix(h, j, 10.0, (0.0, 0.0, 1.0))

    def test_single_collision_rejects_non_unitary(self):
        for u in (np.eye(4) * 1.01, np.full((4, 4), np.nan)):
            with pytest.raises(NonUnitaryPropagator):
                single_collision(pure_qubit(0.0), pure_qubit(0.0), u)


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


def test_stochastic_oracle_is_the_convex_oracle():
    # Stochastic choices average to the convex sum, bitwise.
    reservoirs = [ReservoirSpec(0.3, 0.1, weight=0.25), ReservoirSpec(2.5, 0.07, weight=0.75, phi=1.0)]
    convex = steady_state_oracle(reservoirs, EngineConfig())
    stochastic = steady_state_oracle(reservoirs, EngineConfig(mixing_mode="stochastic"))
    assert np.array_equal(stochastic.rho_ss, convex.rho_ss)
    for a, b in zip(affine_representation(reservoirs, EngineConfig(mixing_mode="stochastic")),
                    affine_representation(reservoirs, EngineConfig())):
        assert np.array_equal(a, b)


def test_noisy_affine_form_depolarizes_at_the_mean_strength():
    # In expectation a noisy ancilla is depolarized by epsilon itself.
    spec = ReservoirSpec(1.1, 0.1, phi=0.4, noise=NoiseSpec(0.3, 0.1))
    cfg = EngineConfig(h=0.9, tau=0.8)
    r = transfer_matrix(cfg.h, spec.coupling, cfg.tau, 0.7 * bloch_vector(pure_qubit(1.1, 0.4)))
    m, c = affine_representation([spec], cfg)
    assert np.allclose(m, r[1:, 1:], atol=1e-14)
    assert np.allclose(c, r[1:, 0], atol=1e-14)


@pytest.mark.parametrize("mode", ["convex", "sequential"])
def test_random_runs_average_to_the_mean_map(mode):
    # Every draw is independent of the state, so the mean state follows the
    # mean map exactly: 400 seeded runs at a fixed budget (a tol no noisy
    # step meets) average to the mean map iterated as often, within 5
    # standard errors.  The noiseless map lands far outside that band.
    noise = NoiseSpec(0.3, 0.1)
    reservoirs = [ReservoirSpec(0.3, 0.1, noise=noise), ReservoirSpec(2.0, 0.1, noise=noise)]
    cfgs = [EngineConfig(max_collisions=3000, tol=1e-300, mixing_mode=mode, seed=s) for s in range(400)]
    results = evolve_batch([(reservoirs, cfg, None) for cfg in cfgs])
    assert all(r.n_used == 3000 and not r.converged for r in results)
    z = np.array([r.sigma_z_ss for r in results])
    se = z.std(ddof=1) / math.sqrt(z.size)

    def iterate(specs):
        m, c = affine_representation(specs, cfgs[0])
        b = np.array([1.0, 0.0, 0.0])
        for _ in range(3000):
            b = m @ b + c
        return b[2]

    assert abs(z.mean() - iterate(reservoirs)) < 5 * se
    noiseless = [dataclasses.replace(r, noise=None) for r in reservoirs]
    assert abs(z.mean() - iterate(noiseless)) > 100 * se


def test_drawn_convex_maps_keep_the_trace_exact():
    # The weights may sum to one only within 1e-12.  A drawn convex map whose
    # trace row kept that defect would shrink the state by (1 - 5e-13)^n,
    # about 1e-9 off the fixed point after 20 000 collisions.
    noise = NoiseSpec(0.3, 0.0)
    reservoirs = [ReservoirSpec(0.3, 0.5, 0.5, noise=noise), ReservoirSpec(2.0, 0.5, 0.5 - 5e-13, noise=noise)]
    cfg = EngineConfig(max_collisions=20_000, tol=1e-300)
    _, result = evolve(None, reservoirs, cfg, record=False)
    assert result.n_used == 20_000
    assert np.max(np.abs(result.rho_ss - steady_state_oracle(reservoirs, cfg).rho_ss)) < 1e-13


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
# fig7's scale, in its ordinary and angular conventions
@example(pure_qubit(math.pi / 2.0), pure_qubit(0.4, 1.0), PHYS_H_MHZ, PHYS_J_MHZ, PHYS_TAU_US)
@example(pure_qubit(0.3, 2.0), pure_qubit(2.9), 2.0 * math.pi * PHYS_H_MHZ, 2.0 * math.pi * PHYS_J_MHZ, PHYS_TAU_US)
@example(bloch_to_density([0.2, -0.5, 0.1]), 0.5 * np.eye(2), 2.0 * math.pi * PHYS_H_MHZ, PHYS_J_MHZ, PHYS_TAU_US)
def test_transfer_matrix_matches_single_collision(rho, ancilla, h, j, tau):
    u = collision_unitary(h, j, tau)
    r = transfer_matrix(h, j, tau, bloch_vector(ancilla))
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


# For ancillas on the z axis the transverse and longitudinal parts decouple,
# so the fixed point's z has the closed form sum q s^2 cos(theta) / sum q s^2
# with s = sin(j tau), independent of h and of the engine.

@PROPERTY
@given(st.lists(st.tuples(st.sampled_from([0.0, math.pi]), st.floats(0.0, 0.5), st.floats(0.05, 1.0)),
                min_size=1, max_size=4),
       st.floats(-5.0, 5.0), st.floats(0.0, 10.0))
def test_z_axis_fixed_point_matches_its_closed_form(items, h, tau):
    weights = np.array([raw for *_, raw in items]) / sum(raw for *_, raw in items)
    sin2 = np.array([math.sin(j * tau) ** 2 for _, j, _ in items])
    assume(float(weights @ sin2) > 1e-3)
    reservoirs = [ReservoirSpec(theta, j, weight=float(w)) for (theta, j, _), w in zip(items, weights)]
    expected = float(weights @ (sin2 * np.cos([theta for theta, *_ in items])) / (weights @ sin2))
    got = steady_state_oracle(reservoirs, EngineConfig(h=h, tau=tau)).sigma_z_ss
    assert abs(got - expected) < 1e-10


@st.composite
def weighted(draw, elements):
    """1-4 draws of ``elements`` and normalized weights for them."""
    items = draw(st.lists(elements, min_size=1, max_size=4))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(items), max_size=len(items)))
    return items, [w / sum(raw) for w in raw]


@PROPERTY
@given(weighted(_ball(1.0)), st.floats(-5.0, 5.0), st.floats(0.0, 2.0), st.floats(0.0, 10.0))
def test_transfer_matrix_is_affine_in_the_ancilla(ancillas, h, j, tau):
    # _Engine's noise maps, R_base + eps (R(a = 0) - R_base), rest on this
    vectors, weights = ancillas
    mixed = sum(w * transfer_matrix(h, j, tau, a) for w, a in zip(weights, vectors))
    direct = transfer_matrix(h, j, tau, sum(w * a for w, a in zip(weights, vectors)))
    assert np.max(np.abs(mixed - direct)) <= 1e-15


@PROPERTY
@given(weighted(st.tuples(THETA, PHI, st.floats(0.0, 2.0))), st.floats(-5.0, 5.0), st.floats(0.05, 3.0),
       st.sampled_from(["convex", "stochastic"]))
# one weak coupling to a pure ancilla: the solve lands ~1e-10 outside the ball
@example(([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0625), (0.0, 0.0, 0.0)],
          [0.6138864902286127, 0.0936032750960939, 0.2925102346752934]), 0.0, 0.0625, "convex")
def test_convex_label_is_the_sign_of_the_weighted_ancilla_z(reservoirs, h, tau, mode):
    # The rule steady_state_oracle's docstring sketches: sign(sigma_z) =
    # sign(sum q_i sin^2(J_i tau) cos theta_i), whatever h and the tilts phi_i
    items, weights = reservoirs
    specs = [ReservoirSpec(theta, j, weight=w, phi=phi) for (theta, phi, j), w in zip(items, weights)]
    try:
        z = steady_state_oracle(specs, EngineConfig(h=h, tau=tau, mixing_mode=mode)).sigma_z_ss
    except SingularSystem:
        assume(False)
    rule = sum(w * math.sin(j * tau) ** 2 * math.cos(theta) for (theta, _, j), w in zip(items, weights))
    assume(min(abs(z), abs(rule)) >= 1e-9)
    assert (z > 0) == (rule > 0)


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


def _chunked_reference(reservoirs, cfg):
    """One deterministic run as a plain loop, a chunk of _CHUNK collisions at
    a time: the Bloch rows of R^1 ... R^_CHUNK, each power formed as R @
    R^(n-1) and stacked per component, a layout independent of the
    engine's state-major stack, one product of that stack with each
    chunk's start (1, b), where b is the last state of the chunk before, and
    the window rule counted one step at a time.  Returns the states from +x
    on, the collision count and whether the window closed."""
    r = _Engine(reservoirs, cfg).mean_op
    rows, power = [], r
    for _ in range(_CHUNK):
        rows.append(power[1:])
        power = r @ power
    stack = np.stack(rows, axis=1).reshape(3 * _CHUNK, 4)
    states, streak = [bloch_vector(pure_qubit(math.pi / 2.0))], 0
    while True:
        for state in (stack @ np.concatenate(([1.0], states[-1]))).reshape(3, _CHUNK).T:
            dx, dy, dz = (state - states[-1]).tolist()
            states.append(state)
            streak = streak + 1 if 0.5 * math.sqrt((dx * dx + dy * dy) + dz * dz) < cfg.tol else 0
            if streak >= cfg.window or len(states) - 1 == cfg.max_collisions:
                return np.array(states), len(states) - 1, streak >= cfg.window


PASSES = [ReservoirSpec(0.0, 0.3), ReservoirSpec(2.2, 0.2)]


def _assert_evolve_equals_the_chunked_reference(cfg, expected):
    states, n_used, converged = _chunked_reference(PASSES, cfg)
    assert (n_used, converged) == expected
    traj, result = evolve(None, PASSES, cfg)
    assert np.array_equal(traj.bloch, states)
    assert (result.n_used, result.converged) == (n_used, converged)
    assert np.array_equal(result.rho_ss, bloch_to_density(states[-1]))


@pytest.mark.parametrize("tol, first, closes", [
    # a streak from collision 40 on that closes in each chunk of the first
    # two passes, at a chunk boundary inside a pass and at the end of a pass
    *[(0.1, 40, n) for n in (100, 200, 300, 450, 600, 700, 850, 1000, 3 * _CHUNK, _PASS)],
    # streaks that start late in the first pass and in the second
    (1e-7, 482, _PASS + 8), (1e-8, 555, 2 * _PASS - 1),
])
def test_passes_equal_one_product_per_chunk_bitwise(tol, first, closes):
    # ``first`` is the collision whose step is the first under tol
    cfg = EngineConfig(h=0.7, tau=1.0, tol=tol, window=closes - first + 1, max_collisions=12 * _CHUNK)
    _assert_evolve_equals_the_chunked_reference(cfg, (closes, True))


@pytest.mark.parametrize("budget", [_PASS + 37, 3 * _CHUNK - 1])
def test_budget_ending_mid_pass_equals_one_product_per_chunk_bitwise(budget):
    # a window of the whole budget never closes: the first steps are large
    cfg = EngineConfig(h=0.7, tau=1.0, tol=1e-9, window=budget, max_collisions=budget)
    _assert_evolve_equals_the_chunked_reference(cfg, (budget, False))


def test_budget_equal_to_window():
    spec = up_down_pair(0.1, 0.05)
    cfg = EngineConfig(max_collisions=12, window=12, tol=1e-9)
    # from the fixed point every step is below tol, so the last allowed
    # collision closes the window; from +x the first steps are not
    _, settled = evolve(steady_state_oracle(spec, cfg).rho_ss, spec, cfg, record=False)
    assert settled.converged and settled.n_used == 12
    _, moving = evolve(None, spec, cfg, record=False)
    assert not moving.converged and moving.n_used == 12


def settling(theta):
    return [ReservoirSpec(0.0, 0.3), ReservoirSpec(theta, 0.2)]


def test_powers_agree_with_the_per_collision_routes():
    # A deterministic run forms each chunk's states from powers of its map.
    # NoiseSpec(0, 0) draws bitwise the same map every collision, so the same
    # run then goes through the per-collision product; step applies the map
    # one collision at a time.
    spec = settling(math.pi)
    cfg = EngineConfig(max_collisions=10 * _CHUNK, tol=1e-4)
    traj, result = evolve(None, spec, cfg)
    assert result.converged and result.n_used > 3 * _CHUNK
    noisy = [dataclasses.replace(r, noise=NoiseSpec(0.0, 0.0)) for r in spec]
    drawn_traj, drawn = evolve(None, noisy, cfg)
    assert (drawn.n_used, drawn.converged) == (result.n_used, result.converged)
    assert np.max(np.abs(drawn_traj.bloch - traj.bloch)) < 1e-12
    rho = pure_qubit(math.pi / 2.0)
    for b in traj.bloch[1 : 3 * _CHUNK + 6]:
        rho = step(rho, spec, cfg)
        assert np.max(np.abs(bloch_vector(rho) - b)) < 1e-12


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
        # one row per collision: the choice, then a draw per noisy reservoir
        ([ReservoirSpec(math.pi, 0.5, noise=NoiseSpec(0.3, 0.0))] * 2, "stochastic",
         lambda g, n: g.random((n, 3))),
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


# A random group of one run takes chunks of _SLOTS collisions, each collision
# one np.dot on 2-D views; beside a second run of its mode and reservoir
# count the same run takes chunks of _SLOTS // 2, each collision one
# np.matmul over the stack.  Each run draws one uniform per collision.
ONE_RUN_GROUPS = [
    ([ReservoirSpec(0.4, 0.3, noise=NoiseSpec(0.2, 0.1)), ReservoirSpec(2.0, 0.2)], "convex"),
    ([ReservoirSpec(0.4, 0.3, noise=NoiseSpec(0.2, 0.1)), ReservoirSpec(2.0, 0.2)], "sequential"),
    ([ReservoirSpec(0.4, 0.3), ReservoirSpec(2.0, 0.2, phi=1.0)], "stochastic"),
]


@pytest.mark.parametrize("reservoirs, mode", ONE_RUN_GROUPS)
@pytest.mark.parametrize("tol, window, expected", [
    # the whole budget, across two one-run chunk boundaries
    (1e-9, 10, (12_000, False)),
    # every step is under a tol of 1, so the window closes just past the
    # first one-run chunk boundary, mid-chunk, and the run is rewound
    (1.0, _SLOTS + 9, (_SLOTS + 9, True)),
])
def test_one_run_group_equals_the_run_beside_another_bitwise(reservoirs, mode, tol, window, expected):
    cfg = EngineConfig(tau=0.7, tol=tol, window=window, max_collisions=12_000, mixing_mode=mode)
    assert cfg.max_collisions > 2 * _SLOTS
    rng = np.random.default_rng(7)
    traj, alone = evolve(None, reservoirs, cfg, rng=rng)
    assert (alone.n_used, alone.converged) == expected
    assert len(traj) == alone.n_used + 1
    assert np.array_equal(bloch_to_density(traj.bloch[-1]), alone.rho_ss)
    batched_rng = np.random.default_rng(7)
    companion = (reservoirs[::-1], dataclasses.replace(cfg, h=0.3), np.random.default_rng(8))
    got, _ = evolve_batch([(reservoirs, cfg, batched_rng), companion])
    assert np.array_equal(got.rho_ss, alone.rho_ss)
    assert (got.n_used, got.converged) == (alone.n_used, alone.converged)
    # both streams stand where n_used single collisions leave them
    single = np.random.default_rng(7)
    single.random(alone.n_used)
    assert rng.random() == batched_rng.random() == single.random()


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


def maybe_weighted(draw, reservoirs):
    """The reservoirs as given (uniform weights), or with explicit weights
    normalised to sum to one, which reorders the canonical convex sum."""
    if not draw(st.booleans()):
        return reservoirs
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(reservoirs), max_size=len(reservoirs)))
    return [dataclasses.replace(r, weight=w / sum(raw)) for r, w in zip(reservoirs, raw)]


@st.composite
def batch_runs(draw):
    """(reservoirs, cfg, stream seed or None) of one run: 1-3 reservoirs,
    optionally weighted, any mixing mode, noise, tolerances, windows and
    budgets up to nine chunks, which cross loop passes.  A batch of them
    mixes reservoir counts and modes, so its random runs fall into several
    groups of shared maps."""
    reservoirs = draw(st.lists(st.builds(ReservoirSpec, THETA, st.floats(0.05, 0.5), phi=PHI, noise=NOISE),
                               min_size=1, max_size=3))
    reservoirs = maybe_weighted(draw, reservoirs)
    window = draw(st.integers(1, 40))
    cfg = EngineConfig(
        h=draw(st.floats(-2.0, 2.0)),
        tau=draw(st.floats(0.2, 3.0)),
        max_collisions=draw(st.integers(window, 9 * _CHUNK)),
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

    # each explicit stream must end where the run alone leaves it, which pins
    # the batched draws and the rewind of a run that stops mid-chunk
    alone, ends = [], []
    for i in range(len(specs)):
        reservoirs, cfg, rng = fresh(i)
        alone.append(evolve(None, reservoirs, cfg, record=False, rng=rng)[1])
        ends.append(None if rng is None else rng.random())
    order = list(range(len(specs)))
    for indices in (order, shuffler.sample(order, len(order))):
        runs = [fresh(i) for i in indices]
        for i, (_, _, rng), got in zip(indices, runs, evolve_batch(runs)):
            assert np.array_equal(got.rho_ss, alone[i].rho_ss)
            assert (got.n_used, got.converged) == (alone[i].n_used, alone[i].converged)
            assert (None if rng is None else rng.random()) == ends[i]


# A streak that starts some 25 collisions before the first chunk boundary and
# closes after it, on a deterministic run and on a random run whose drawn map
# never moves.
STRADDLING = [ReservoirSpec(math.pi, 0.4)]
STRADDLING_CFG = EngineConfig(tau=1.0, tol=1e-4, max_collisions=3 * _CHUNK, window=30)


def extreme_tol_run(tol, random):
    """A deterministic run, or a stochastic one with a noisy reservoir, of a
    budget past one pass, at ``tol``."""
    noise = NoiseSpec(0.2, 0.1) if random else None
    reservoirs = [ReservoirSpec(2.0, 0.3, phi=1.0), ReservoirSpec(0.5, 0.2, noise=noise)]
    cfg = EngineConfig(tau=1.0, tol=tol, window=7, max_collisions=_PASS + 40,
                       mixing_mode="stochastic" if random else "convex")
    return reservoirs, cfg, 5 if random else None


@PROPERTY
@given(batch_runs())
@example((STRADDLING, STRADDLING_CFG, None))
@example(([dataclasses.replace(STRADDLING[0], noise=NoiseSpec(0.0, 0.0))], STRADDLING_CFG, 3))
# the least positive tol, under which only a zero step is, and tols whose
# (2 tol)^2 overflows, under which every step is
@example(extreme_tol_run(5e-324, False))
@example(extreme_tol_run(5e-324, True))
@example(extreme_tol_run(6.8e153, False))
@example(extreme_tol_run(6.8e153, True))
@example(extreme_tol_run(1.7e308, False))
@example(extreme_tol_run(1.7e308, True))
def test_window_rule_matches_a_recount_of_the_recorded_steps(run):
    reservoirs, cfg, stream = run
    rng = None if stream is None else np.random.default_rng(stream)
    traj, result = evolve(None, reservoirs, cfg, rng=rng)
    # the first collision that closes ``window`` consecutive steps under
    # tol, or the budget when none does
    expected, streak = (cfg.max_collisions, False), 0
    bloch = traj.bloch.tolist()
    for n in range(1, len(bloch)):
        (x0, y0, z0), (x1, y1, z1) = bloch[n - 1], bloch[n]
        dx, dy, dz = x1 - x0, y1 - y0, z1 - z0
        streak = streak + 1 if 0.5 * math.sqrt((dx * dx + dy * dy) + dz * dz) < cfg.tol else 0
        if streak >= cfg.window:
            expected = (n, True)
            break
    assert (result.n_used, result.converged) == expected
    if cfg.tol > 1.0:
        # no step between two states is longer than the Bloch ball is wide
        assert expected == (cfg.window, True)


@st.composite
def window_passes(draw):
    """One pass of the window rule over 1-4 rows, held at scattered runs of
    longer per-run arrays: per-run tols, squared steps at 0, at (2 tol)^2
    and its two neighbouring doubles, at 4 (2 tol)^2 and NaN, carried
    streaks from 0 to window - 1, and budgets left shorter and longer than
    the pass."""
    rows, length = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    active = np.array(draw(st.permutations(range(rows + 3)))[:rows])
    tol = draw(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                        min_size=rows + 3, max_size=rows + 3))
    window = np.array(draw(st.lists(st.integers(1, 12), min_size=rows + 3, max_size=rows + 3)))
    streak = np.array([draw(st.integers(0, w - 1)) for w in window])

    def steps(tol):
        edge = (2.0 * tol) * (2.0 * tol)
        return st.sampled_from([0.0, edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), 4.0 * edge,
                                math.nan])

    dist = np.array([[draw(steps(tol[run])) for _ in range(length)] for run in active.tolist()])
    left = np.array(draw(st.lists(st.integers(1, 2 * length), min_size=rows, max_size=rows)))
    return dist, np.array(tol), window, streak, left, active


@PROPERTY
@given(window_passes())
# a carried streak that closes at t = 0
@example((np.zeros((1, 5)), np.ones(1), np.array([4]), np.array([3]), np.array([9]), np.array([0])))
# a budget that ends one collision before the window would close
@example((np.zeros((1, 8)), np.ones(1), np.array([5]), np.array([0]), np.array([4]), np.array([0])))
def test_window_matches_a_per_collision_recount(case):
    dist, tol, window, streak, left, active = case
    met, taken, ends = _window(dist, tol, window, streak.copy(), left, active)
    for r, run in enumerate(active):
        # the first collision within the budget that closes the window, and
        # the streak after the pass's last step
        expected_met, expected_taken, count = False, min(int(left[r]), dist.shape[1]), int(streak[run])
        for t, d in enumerate(dist[r].tolist()):
            count = count + 1 if 0.5 * math.sqrt(d) < tol[run] else 0
            if not expected_met and t < left[r] and count >= window[run]:
                expected_met, expected_taken = True, t + 1
        assert (bool(met[r]), int(taken[r]), int(ends[r])) == (expected_met, expected_taken, count)


@st.composite
def fixed_runs(draw):
    """(reservoirs, cfg) of one deterministic run: 1-3 tilted reservoirs,
    optionally weighted, convex or sequential, tols on both sides of 1e-11,
    windows up to longer than a pass and budgets up to five passes, most
    ending mid-pass."""
    reservoirs = draw(st.lists(st.builds(ReservoirSpec, THETA, st.floats(0.02, 0.5), phi=PHI),
                               min_size=1, max_size=3))
    window = draw(st.integers(1, _PASS + 40))
    cfg = EngineConfig(
        h=draw(st.floats(-2.0, 2.0)),
        tau=draw(st.floats(0.2, 3.0)),
        max_collisions=draw(st.integers(window, 5 * _PASS)),
        tol=draw(st.sampled_from([1e-13, 1e-12, 1e-11, 1e-10, 1e-8, 1e-5, 1e-2])),
        window=window,
        mixing_mode=draw(st.sampled_from(["convex", "sequential"])),
    )
    return maybe_weighted(draw, reservoirs), cfg


def _outcomes(runs):
    """Every bit of what the runs give: the batched results, and each run
    alone, recorded."""
    batched = [(r.rho_ss.tobytes(), r.n_used, r.converged) for r in evolve_batch([(*run, None) for run in runs])]
    recorded = []
    for reservoirs, cfg in runs:
        traj, r = evolve(None, reservoirs, cfg)
        recorded.append((traj.bloch.tobytes(), r.rho_ss.tobytes(), r.n_used, r.converged))
    return batched, recorded


# Three runs in one pass loop.  The first two share a map and clear their
# first pass; in the second pass the first starts a streak at collision 555
# and carries it out into its third pass, and the second closes its window.
# The third clears every pass, its budget ending mid-pass, while the others
# are tested.
CLEARED_AND_OPEN = [
    (PASSES, EngineConfig(h=0.7, tau=1.0, tol=1e-8, window=600, max_collisions=12 * _CHUNK)),
    (PASSES, EngineConfig(h=0.7, tau=1.0, tol=1e-12, window=30, max_collisions=12 * _CHUNK)),
    ([ReservoirSpec(0.0, 0.05, phi=1.0), ReservoirSpec(2.0, 0.05)],
     EngineConfig(h=0.7, tau=1.0, tol=1e-9, window=10, max_collisions=4 * _PASS + 100)),
]


@settings(max_examples=100, deadline=None)
@given(st.lists(fixed_runs(), min_size=1, max_size=4))
@example(CLEARED_AND_OPEN)
def test_step_bound_changes_no_bit(runs):
    # An infinite slack clears no pass, so every pass takes the window test.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsc.collision, "_STEP_SLACK", math.inf)
        tested = _outcomes(runs)
    assert _outcomes(runs) == tested


def _open_passes(monkeypatch, engine, b0):
    """Run one engine through the deterministic loop from Bloch vector
    ``b0``, recorded, and return its states and the first collisions of
    the passes the bound left to the window test."""
    window, opened = qsc.collision._window, []

    def spy(dist, tol, window_, streak, left, active):
        opened.append(engine.cfg.max_collisions - int(left[0]))
        return window(dist, tol, window_, streak, left, active)

    monkeypatch.setattr(qsc.collision, "_window", spy)
    trail = [b0[None]]
    qsc.collision._run_fixed(np.concatenate(([1.0], b0)), [engine], [trail])
    return np.concatenate(trail), opened


def _map(sigma_min, rng):
    """The 4x4 form of an affine Bloch map b -> M b + c that keeps the unit
    ball: M = Q1 diag(top, middle, ``sigma_min``) Q2 and |c| <= 1 - top,
    so |M b + c| <= 1 for |b| <= 1."""
    q1, q2 = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
    top = 1.0 if sigma_min == 1.0 else rng.uniform(sigma_min, 1.0)
    middle = rng.uniform(sigma_min, top)
    direction = rng.normal(size=3)
    r = np.eye(4)
    r[1:, 1:] = q1 @ np.diag([top, middle, sigma_min]) @ q2
    r[1:, 0] = direction / np.linalg.norm(direction) * rng.uniform(0.0, 1.0 - top)
    return r


@PROPERTY
@given(st.sampled_from([1.0, 1.0 - 1e-6, 1.0 - 1e-4, 0.999, 0.99, 0.9, 0.5, 0.0]),
       st.sampled_from([1e-13, 1e-11, 1e-9, 1e-6, 1e-3]), st.integers(0, 2**32 - 1))
def test_step_bound_is_sound(sigma_min, tol, seed):
    # on every pass the bound clears, every computed step's trace distance
    # is at or above tol, so the window test could not have found one under
    # tol
    rng = np.random.default_rng(seed)
    cfg = EngineConfig(tol=tol, window=6 * _PASS, max_collisions=6 * _PASS + 37)
    engine = types.SimpleNamespace(mean_op=_map(sigma_min, rng), cfg=cfg)
    b0 = rng.normal(size=3)
    b0 *= rng.uniform(0.0, 1.0) / np.linalg.norm(b0)
    with pytest.MonkeyPatch.context() as patch:
        states, opened = _open_passes(patch, engine, b0)
    cleared = [p for p in range(0, cfg.max_collisions, _PASS) if p not in opened]
    for p in cleared:
        for (x0, y0, z0), (x1, y1, z1) in itertools.pairwise(states[p : p + _PASS + 1].tolist()):
            dx, dy, dz = x1 - x0, y1 - y0, z1 - z0
            assert 0.5 * math.sqrt((dx * dx + dy * dy) + dz * dz) >= tol
    if sigma_min == 1.0 and np.linalg.norm(states[1] - states[0]) > 2.0 * tol + 1e-9:
        # a rotation keeps every step the length of the first
        assert len(cleared) == 7


def test_step_bound_clears_no_pass_without_steps(monkeypatch):
    # tau = 0 leaves the state where it is: every step is 0, under any tol,
    # and every pass takes the window test
    cfg = EngineConfig(tau=0.0, tol=1e-13, window=3 * _PASS, max_collisions=3 * _PASS)
    states, opened = _open_passes(monkeypatch, _Engine(PASSES, cfg), bloch_vector(pure_qubit(math.pi / 2.0)))
    assert opened == [0, _PASS, 2 * _PASS] and not np.diff(states, axis=0).any()


def test_empty_batch_has_no_results():
    assert evolve_batch([]) == []


def test_batch_rejects_one_generator_for_two_random_runs():
    shared = np.random.default_rng(5)
    cfg = EngineConfig(max_collisions=300)
    with pytest.raises(ValueError, match="its own"):
        evolve_batch([(NOISY, cfg, shared), (NOISY[::-1], cfg, shared)])


def test_deterministic_run_may_share_a_generator_with_a_random_run():
    # a deterministic run draws nothing, so the random run's stream is its own
    cfg = EngineConfig(max_collisions=300)
    runs = [(up_down_pair(), cfg), (NOISY, cfg)]
    shared = np.random.default_rng(5)
    batched = evolve_batch([(reservoirs, cfg, shared) for reservoirs, cfg in runs])
    for (reservoirs, cfg), got in zip(runs, batched):
        alone = evolve(None, reservoirs, cfg, record=False, rng=np.random.default_rng(5))[1]
        assert np.array_equal(got.rho_ss, alone.rho_ss)
        assert (got.n_used, got.converged) == (alone.n_used, alone.converged)


NOISY = [ReservoirSpec(0.4, 0.3, noise=NoiseSpec(0.2, 0.1)), ReservoirSpec(2.0, 0.2)]
# two weighted reservoirs whose canonical order is their list order, and two
# whose canonical order is reversed, each with one noisy reservoir
FIRST_NOISY = [ReservoirSpec(0.4, 0.3, 0.7, noise=NoiseSpec(0.2, 0.1)), ReservoirSpec(2.0, 0.2, 0.3)]
SECOND_NOISY = [ReservoirSpec(2.5, 0.25, 0.3), ReservoirSpec(1.0, 0.35, 0.7, noise=NoiseSpec(0.3, 0.05))]


@pytest.mark.parametrize("runs, chunks", [
    # every budget below one chunk, so the stack holds 60 powers: one run
    # converges, one uses its budget, one is noisy
    ([(settling(math.pi), EngineConfig(max_collisions=60, tol=0.5), None),
      (settling(3.0), EngineConfig(max_collisions=60, tol=1e-9), None),
      (NOISY, EngineConfig(max_collisions=60, tol=0.5), 5)], [0, 0, 0]),
    # deterministic runs, each with its own map, retire in different chunks,
    # one mid-chunk at its budget, while a noisy run carries on to its budget
    ([(settling(math.pi), EngineConfig(max_collisions=12 * _CHUNK, tol=1e-2), None),
      (NOISY, EngineConfig(max_collisions=12 * _CHUNK, tol=1e-9), 5),
      (settling(3.0), EngineConfig(max_collisions=12 * _CHUNK, tol=0.5), None),
      (settling(2.6), EngineConfig(max_collisions=200, tol=1e-9), None),
      (settling(2.2), EngineConfig(max_collisions=12 * _CHUNK, tol=1e-5), None),
      (settling(1.8), EngineConfig(max_collisions=12 * _CHUNK, tol=1e-3), None)], [3, 11, 0, 1, 10, 5]),
    # random runs that share a mixing mode and a reservoir count but not
    # their noisy reservoirs; some stop mid-chunk while the others go on
    ([(FIRST_NOISY, EngineConfig(max_collisions=400, tol=1e-2), 5),
      (SECOND_NOISY, EngineConfig(max_collisions=400, tol=1e-2), 5),
      (SECOND_NOISY, EngineConfig(max_collisions=400, tol=1e-9), 6),
      (FIRST_NOISY, EngineConfig(max_collisions=400, tol=1e-2, mixing_mode="sequential"), 5),
      (SECOND_NOISY, EngineConfig(max_collisions=400, tol=3e-3, mixing_mode="sequential"), 5)], [2, 2, 3, 2, 2]),
    # deterministic runs whose budgets end mid-chunk, one in the first chunk
    # and two in a shorter last chunk, whose states are read from a block
    # while the stack still holds a full chunk of powers; the longer run
    # converges before that chunk
    ([(settling(2.2), EngineConfig(max_collisions=12 * _CHUNK, tol=0.05), None),
      (settling(3.0), EngineConfig(max_collisions=2 * _CHUNK + 37, tol=1e-9), None),
      (settling(2.6), EngineConfig(max_collisions=_CHUNK - 1, tol=1e-9), None),
      (settling(1.8), EngineConfig(max_collisions=2 * _CHUNK + 20, tol=1e-9), None)], [1, 2, 0, 2]),
    # a noisy run retires at its budget in the third chunk; the deterministic
    # runs then advance a pass of four chunks at a time, where they converge
    # in several chunks of two passes and one stops at its budget mid-pass
    ([(NOISY, EngineConfig(max_collisions=300, tol=1e-9), 5),
      (settling(math.pi), EngineConfig(max_collisions=12 * _CHUNK, tol=1e-2), None),
      (settling(2.2), EngineConfig(max_collisions=12 * _CHUNK, tol=1e-5), None),
      (settling(1.8), EngineConfig(max_collisions=_PASS + 37, tol=1e-9), None),
      (settling(2.6), EngineConfig(max_collisions=12 * _CHUNK, tol=1e-3), None),
      (settling(3.0), EngineConfig(max_collisions=12 * _CHUNK, tol=1e-4), None)], [2, 3, 10, 4, 5, 7]),
], ids=["budget_below_a_chunk", "staggered_retirement", "different_noisy_sets", "shorter_last_chunk",
        "passes_after_noisy_runs"])
def test_power_stack_edge_cases_equal_each_run_alone(runs, chunks):
    def fresh(run):
        reservoirs, cfg, stream = run
        return reservoirs, cfg, None if stream is None else np.random.default_rng(stream)

    batch = [fresh(run) for run in runs]
    batched = evolve_batch(batch)
    assert [(r.n_used - 1) // _CHUNK for r in batched] == chunks
    for run, (_, _, batch_rng), got in zip(runs, batch, batched):
        reservoirs, cfg, rng = fresh(run)
        alone = evolve(None, reservoirs, cfg, record=False, rng=rng)[1]
        assert np.array_equal(got.rho_ss, alone.rho_ss)
        assert (got.n_used, got.converged) == (alone.n_used, alone.converged)
        if rng is not None:
            assert batch_rng.random() == rng.random()


def _bits(column):
    return None if column is None else column.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(fixed_runs(), min_size=2, max_size=4), STATES, batch_runs(), st.integers(0, 2**32 - 1))
@example([CLEARED_AND_OPEN[0], CLEARED_AND_OPEN[2], CLEARED_AND_OPEN[1]], pure_qubit(0.3),
         (NOISY, EngineConfig(max_collisions=300), None), 5)
def test_recorded_batch_equals_each_run_alone_bitwise(fixed, given, drawn, seed):
    # deterministic runs that retire at different passes, the first measured
    # against its oracle fixed point and the second against a given target,
    # and two random runs of one group among them, each recorded in its own
    # trail
    reservoirs, cfg, _ = drawn
    cfg = dataclasses.replace(cfg, mixing_mode="stochastic")
    runs = [(*fixed[0], ORACLE), (*fixed[1], given), *[(*run, None) for run in fixed[2:]]]
    runs[1:1] = [(reservoirs, cfg, None), (reservoirs[::-1], dataclasses.replace(cfg, tau=0.5), None)]

    def stream(i):
        return np.random.default_rng([seed, i]) if i in (1, 2) else None

    streams = [stream(i) for i in range(len(runs))]
    recorded = evolve_runs([(*run, rng) for run, rng in zip(runs, streams)])
    for i, ((reservoirs, cfg, target), rng, (traj, got)) in enumerate(zip(runs, streams, recorded)):
        alone_rng = stream(i)
        if isinstance(target, str):
            target = steady_state_oracle(reservoirs, cfg).rho_ss
        expected, alone = evolve(None, reservoirs, cfg, target=target, rng=alone_rng)
        assert (traj.fidelity is None) == (target is None)
        for name in ("n", "sigma_z", "bloch", "fidelity"):
            assert _bits(getattr(traj, name)) == _bits(getattr(expected, name)), name
        assert got.rho_ss.tobytes() == alone.rho_ss.tobytes()
        assert (got.n_used, got.converged) == (alone.n_used, alone.converged)
        assert (None if rng is None else rng.random()) == (None if alone_rng is None else alone_rng.random())


# The composed mean map of random compositions is a channel: its Choi matrix,
# rebuilt from the affine form (M, c), is positive, and it keeps the Bloch
# sphere inside the ball.

PAULIS = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)


def _choi(m, c):
    """Choi matrix sum_ij |i><j| (x) Phi(|i><j|) of the qubit map whose Pauli
    transfer matrix is [[1, 0], [c, M]], extended linearly to every matrix."""
    transfer = np.eye(4)
    transfer[1:, 0], transfer[1:, 1:] = c, m
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            coeffs = transfer @ np.array([np.trace(p @ unit) for p in PAULIS])
            choi += np.kron(unit, 0.5 * sum(a * p for a, p in zip(coeffs, PAULIS)))
    return choi


@st.composite
def random_compositions(draw):
    """1-3 reservoirs, some noisy, optionally weighted, under one mixing mode."""
    reservoirs = draw(st.lists(st.builds(ReservoirSpec, THETA, st.floats(0.0, 0.5), phi=PHI, noise=NOISE),
                               min_size=1, max_size=3))
    reservoirs = maybe_weighted(draw, reservoirs)
    cfg = dataclasses.replace(draw(ENGINE), mixing_mode=draw(st.sampled_from(MIXING_MODES)))
    return reservoirs, cfg


@PROPERTY
@given(random_compositions(), st.integers(0, 2**32 - 1))
def test_random_compositions_are_cptp(composition, seed):
    m, c = affine_representation(*composition)
    assert np.linalg.eigvalsh(_choi(m, c)).min() >= -1e-12
    sphere = np.random.default_rng(seed).normal(size=(20, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    assert np.linalg.norm(sphere @ m.T + c, axis=1).max() <= 1.0 + 1e-12


@PROPERTY
@given(random_compositions(), st.integers(0, 2**32 - 1))
def test_drawn_map_without_spread_is_the_mean_map_bitwise(composition, seed):
    # With eta = 0 a noisy reservoir still draws, but every strength is
    # epsilon, so a drawn convex or sequential map is the mean map, summed in
    # the same canonical order from the same start.
    reservoirs, cfg = composition
    assume(cfg.mixing_mode != "stochastic" and any(r.noise for r in reservoirs))
    reservoirs = [r if r.noise is None else dataclasses.replace(r, noise=NoiseSpec(r.noise.epsilon, 0.0))
                  for r in reservoirs]
    m, c = affine_representation(reservoirs, cfg)
    mean = np.eye(4)
    mean[1:, 0], mean[1:, 1:] = c, m
    rho = random_density(np.random.default_rng(seed))
    state = np.concatenate(([1.0], bloch_vector(rho)))
    got = step(rho, reservoirs, cfg, rng=np.random.default_rng(seed))
    assert np.array_equal(got, bloch_to_density(mean.dot(state)[1:]))


@PROPERTY
@given(st.lists(random_compositions(), min_size=1, max_size=4), st.integers(0, 2**32 - 8))
def test_drawn_convex_maps_are_each_collisions_mixture_bitwise(compositions, seed):
    # A convex group forms per chunk only the entries a noise map moves and
    # writes the others once per layout, so every chunk's maps must still be
    # each collision's mixture of base + epsilon * noise: after a run retires
    # and the columns move, and in a shorter last chunk.
    engines = [_Engine(reservoirs, dataclasses.replace(cfg, mixing_mode="convex"))
               for reservoirs, cfg in compositions]
    engines = [e for e in engines if e.random]
    assume(engines)
    streams = [np.random.default_rng(seed + i) for i in range(len(engines))]
    # one group per reservoir count, as the random loop runs them
    for count in sorted({len(e.reservoirs) for e in engines}):
        columns = [run for run, e in enumerate(engines) if len(e.reservoirs) == count]
        group = _MapGroup([engines[run] for run in columns],
                          [np.random.default_rng(seed + run) for run in columns], 8)
        left = np.full(len(columns), 20)
        for chunk, length in enumerate((8, 8, 4)):
            maps = group.chunk(left, length)
            for t in range(length):
                for column, run in enumerate(columns):
                    e = engines[run]
                    ops = list(e.base_ops)
                    for i, u in zip(e.noisy, streams[run].random(len(e.noisy))):
                        noise = e.reservoirs[i].noise
                        ops[i] = e.base_ops[i] + ((u * 2.0 - 1.0) * noise.eta + noise.epsilon) * e.noise_ops[i]
                    assert maps[t, column].tobytes() == e._compose(ops).tobytes()
            left -= length
            # the first column retires after the first chunk
            keep = np.ones(len(columns), dtype=bool)
            keep[0] = chunk > 0 or len(columns) == 1
            group.retire(np.zeros(len(columns), dtype=bool), 20 - left, keep)
            columns, left = [c for c, kept in zip(columns, keep) if kept], left[keep]


# Three-reservoir stochastic runs, two of them weighted: one with two noisy
# reservoirs, one with a noisy middle slot, one with none
STOCHASTIC_GROUP = [
    [ReservoirSpec(0.4, 0.3, noise=NoiseSpec(0.2, 0.1)), ReservoirSpec(2.0, 0.2, phi=1.0),
     ReservoirSpec(3.0, 0.4, noise=NoiseSpec(0.5, 0.3))],
    [ReservoirSpec(1.0, 0.25, 0.5), ReservoirSpec(2.5, 0.35, 0.2, noise=NoiseSpec(0.3, 0.05)),
     ReservoirSpec(0.2, 0.15, 0.3)],
    [ReservoirSpec(0.7, 0.3, 0.6), ReservoirSpec(1.5, 0.2, 0.1, phi=4.0), ReservoirSpec(2.9, 0.45, 0.3)],
]


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
def test_drawn_stochastic_maps_are_each_collisions_drawn_map_bitwise(seed):
    # A stochastic group gathers only the map of the slot each collision
    # draws, so every chunk's maps must be that slot's epsilon * noise +
    # base, formed one collision at a time: after a run retires and the
    # columns move, and in a shorter last chunk.
    cfg = EngineConfig(tau=0.7, mixing_mode="stochastic")
    engines = [_Engine(reservoirs, cfg) for reservoirs in STOCHASTIC_GROUP]
    streams = [np.random.default_rng(seed + i) for i in range(len(engines))]
    group = _MapGroup(engines, [np.random.default_rng(seed + i) for i in range(len(engines))], 16)
    columns, left = list(range(len(engines))), np.full(len(engines), 40)
    for chunk, length in enumerate((16, 16, 8)):
        maps = group.chunk(left, length)
        for t in range(length):
            for column, run in enumerate(columns):
                e = engines[run]
                row = streams[run].random(1 + len(e.noisy))
                slot = min(int(np.searchsorted(e.cum_weights, row[0], side="right")), len(e.reservoirs) - 1)
                u = dict(zip(e.noisy, row[1:].tolist())).get(slot, 0.0)
                noise = e.reservoirs[slot].noise or NoiseSpec(0.0, 0.0)
                eps = (u * 2.0 - 1.0) * noise.eta + noise.epsilon
                op = np.zeros((4, 4)) if e.noise_ops[slot] is None else e.noise_ops[slot]
                assert maps[t, column].tobytes() == (eps * op + e.base_ops[slot]).tobytes()
        left -= length
        # the first column retires after the first chunk
        keep = np.full(len(columns), True)
        keep[0] = chunk > 0
        group.retire(np.zeros(len(columns), dtype=bool), 40 - left, keep)
        columns, left = [c for c, kept in zip(columns, keep) if kept], left[keep]


def test_choi_matrix_detects_a_non_positive_map():
    # the universal NOT (b -> -b) is positive on the ball but not completely
    # positive, so the Choi test must reject what the ball test accepts
    assert np.linalg.eigvalsh(_choi(-np.eye(3), np.zeros(3))).min() < -0.5
    assert np.allclose(np.linalg.eigvalsh(_choi(np.eye(3), np.zeros(3))), [0, 0, 0, 2])

"""Steady-state labeling, sweep helpers and the exact separability check."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsc.classifier import (
    CouplingOutOfRange,
    EmptyInput,
    Label,
    LabeledPoint,
    check_linear_separability,
    classify,
    generate_theta_dataset,
    sweep_couplings,
    sweep_thetas,
)
from qsc.collision import DEFAULT_SEED, EngineConfig, NoiseSpec, ReservoirSpec, evolve, steady_state_oracle
from qsc.presets import NOMINAL_J, NOMINAL_TAU

FAST_CFG = EngineConfig(max_collisions=200, tol=1e-4)


def point(features, label):
    return LabeledPoint(tuple(features), 0.0, label, 0, True)


def test_classify_sign_convention():
    up = steady_state_oracle([ReservoirSpec(0.0, 0.1)], EngineConfig())
    down = steady_state_oracle([ReservoirSpec(math.pi, 0.1)], EngineConfig())
    assert classify(up) is Label.CLASS1
    assert classify(down) is Label.CLASS2
    # the boundary itself belongs to class 1
    balanced = steady_state_oracle(
        [ReservoirSpec(0.0, 0.1), ReservoirSpec(math.pi, 0.1)], EngineConfig()
    )
    assert abs(balanced.sigma_z_ss) < 1e-14
    assert classify(balanced) is Label.CLASS1


def test_sweep_couplings_features_and_labels():
    points = sweep_couplings([-0.05, 0.0, 0.05], 0.1, EngineConfig(max_collisions=100000))
    assert [p.label for p in points] == [Label.CLASS2, Label.CLASS1, Label.CLASS1]
    assert points[0].features == (0.0, 0.1)
    assert points[2].features == (0.1, 0.0)
    assert points[1].param_value == 0.0
    assert points[0].sigma_z_ss == pytest.approx(-1.0, abs=1e-4)
    assert points[2].sigma_z_ss == pytest.approx(1.0, abs=1e-4)


def test_fig3a_sweep_matches_the_z_axis_closed_form():
    # up/down ancillas: z_ss = (s1^2 - s2^2) / (s1^2 + s2^2), s_i = sin(j_i tau)
    cfg = EngineConfig(tau=NOMINAL_TAU, max_collisions=100_000)
    points = sweep_couplings(np.linspace(-0.05, 0.05, 21), NOMINAL_J, cfg)
    for p in points:
        s1, s2 = (math.sin(j * cfg.tau) ** 2 for j in p.features)
        assert abs(p.sigma_z_ss - (s1 - s2) / (s1 + s2)) < 1e-11


def test_sweep_couplings_rejects_out_of_range_delta():
    with pytest.raises(CouplingOutOfRange):
        sweep_couplings([0.06], 0.1, FAST_CFG)
    with pytest.raises(EmptyInput):
        sweep_couplings([], 0.1, FAST_CFG)


def test_sweep_thetas_exchange_symmetry():
    # swapping the two reservoir angles cannot change the steady state
    rng = np.random.default_rng(61)
    for _ in range(4):
        t1, t2 = rng.uniform(0.0, math.pi, size=2)
        a, b = sweep_thetas([(t1, t2), (t2, t1)], 0.1, EngineConfig(max_collisions=2000, tol=1e-6))
        assert abs(a.sigma_z_ss - b.sigma_z_ss) < 1e-10
        assert a.phi_scaled == pytest.approx(b.phi_scaled, abs=1e-14)


def test_sweep_thetas_scaled_angle_bookkeeping():
    pts = sweep_thetas([(0.0, math.pi)], 0.1, FAST_CFG)
    assert pts[0].phi_scaled == 0.0
    triple = sweep_thetas([(0.0, 0.0, math.pi)], 0.1, FAST_CFG)
    assert triple[0].phi_scaled is None  # only pairs collapse onto one angle
    assert triple[0].features == (0.0, 0.0, math.pi)


def test_sweep_thetas_noise_is_seed_deterministic():
    noise = NoiseSpec(0.2, 0.05)
    tuples = [(0.4, 2.0), (1.0, 1.0)]
    cfg = EngineConfig(max_collisions=300, tol=1e-12, seed=5)
    a = sweep_thetas(tuples, 0.1, cfg, noise=noise)
    b = sweep_thetas(tuples, 0.1, cfg, noise=noise)
    assert [p.sigma_z_ss for p in a] == [p.sigma_z_ss for p in b]
    c = sweep_thetas(tuples, 0.1, EngineConfig(max_collisions=300, tol=1e-12, seed=6), noise=noise)
    assert any(x.sigma_z_ss != y.sigma_z_ss for x, y in zip(a, c))


def test_sweep_thetas_noise_gives_each_point_its_own_stream():
    # two equal angle tuples differ only in their streams: point i runs on
    # SeedSequence(cfg.seed, spawn_key=(i,)), bitwise as a lone run does
    noise = NoiseSpec(0.2, 0.05)
    cfg = EngineConfig(max_collisions=300, tol=1e-12, seed=5)
    points = sweep_thetas([(0.4, 2.0)] * 2, 0.1, cfg, noise=noise)
    assert points[0].sigma_z_ss != points[1].sigma_z_ss
    reservoirs = [ReservoirSpec(theta, 0.1, noise=noise) for theta in (0.4, 2.0)]
    for i, p in enumerate(points):
        own = dataclasses.replace(cfg, seed=np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
        _, alone = evolve(None, reservoirs, own, record=False)
        assert (p.sigma_z_ss.hex(), p.n_used, p.converged) == (alone.sigma_z_ss.hex(), alone.n_used, alone.converged)


def test_sweep_thetas_stochastic_mixing_gives_each_point_its_own_stream():
    # without noise a stochastic point still draws its channel choices, so
    # point i runs on SeedSequence(cfg.seed, spawn_key=(i,)) as a noisy one
    # does, and three equal angle tuples read three different states
    cfg = EngineConfig(max_collisions=300, mixing_mode="stochastic")
    points = sweep_thetas([(0.4, 2.0)] * 3, 0.1, cfg)
    assert len({p.sigma_z_ss for p in points}) == 3
    reservoirs = [ReservoirSpec(theta, 0.1) for theta in (0.4, 2.0)]
    for i, p in enumerate(points):
        own = dataclasses.replace(cfg, seed=np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
        _, alone = evolve(None, reservoirs, own, record=False)
        assert (p.sigma_z_ss.hex(), p.n_used, p.converged) == (alone.sigma_z_ss.hex(), alone.n_used, alone.converged)


def test_sweep_thetas_noise_spawns_from_a_seed_sequence_as_from_its_int():
    # a SeedSequence seed spawns point i's stream from its own entropy and
    # spawn key, so SeedSequence(5) gives the streams seed 5 gives
    noise = NoiseSpec(0.2, 0.05)
    cfg = EngineConfig(max_collisions=300, tol=1e-12, seed=5)
    tuples = [(0.4, 2.0), (0.4, 2.0), (1.0, 2.5)]
    from_int = sweep_thetas(tuples, 0.1, cfg, noise=noise)
    from_sequence = sweep_thetas(tuples, 0.1, dataclasses.replace(cfg, seed=np.random.SeedSequence(5)), noise=noise)
    assert [(p.sigma_z_ss.hex(), p.n_used, p.converged) for p in from_sequence] == [
        (p.sigma_z_ss.hex(), p.n_used, p.converged) for p in from_int]


def test_generate_theta_dataset_shapes_and_range():
    data = generate_theta_dataset(42, dims=2)
    assert data.shape == (42, 2)
    assert np.all(data >= 0.0) and np.all(data <= math.pi)
    triples = generate_theta_dataset(10, dims=3, seed=3)
    assert triples.shape == (10, 3)


def test_generate_theta_dataset_deterministic_in_seed():
    a = generate_theta_dataset(42, seed=DEFAULT_SEED)
    b = generate_theta_dataset(42, seed=DEFAULT_SEED)
    assert np.array_equal(a, b)
    c = generate_theta_dataset(42, seed=DEFAULT_SEED + 1)
    assert not np.array_equal(a, c)


def test_generate_theta_dataset_validation():
    with pytest.raises(EmptyInput):
        generate_theta_dataset(0)
    with pytest.raises(ValueError):
        generate_theta_dataset(5, dims=4)


def test_separability_two_blobs():
    rng = np.random.default_rng(77)
    pts = []
    for _ in range(30):
        pts.append(point(rng.normal([2.0, 2.0], 0.3), Label.CLASS1))
        pts.append(point(rng.normal([-2.0, -2.0], 0.3), Label.CLASS2))
    report = check_linear_separability(pts)
    assert report.separable
    assert report.margin > 0.0
    assert np.linalg.norm(report.w) == pytest.approx(1.0, abs=1e-12)
    # every point sits on its own side with at least the reported margin
    for p in pts:
        side = 1.0 if p.label is Label.CLASS1 else -1.0
        signed = side * (np.dot(report.w, p.features) + report.b)
        assert signed >= report.margin - 1e-12


def test_separability_xor_is_not_separable():
    pts = [
        point((0.0, 0.0), Label.CLASS1),
        point((1.0, 1.0), Label.CLASS1),
        point((0.0, 1.0), Label.CLASS2),
        point((1.0, 0.0), Label.CLASS2),
    ]
    report = check_linear_separability(pts)
    assert not report.separable
    assert report.w is None and report.b is None
    assert report.margin == 0.0


def test_separability_invariant_under_shift_and_scale():
    rng = np.random.default_rng(13)
    base = []
    for _ in range(20):
        base.append(point(rng.normal([1.0, 0.0], 0.2), Label.CLASS1))
        base.append(point(rng.normal([-1.0, 0.0], 0.2), Label.CLASS2))
    plain = check_linear_separability(base)
    moved = [
        point(1000.0 * np.asarray(p.features) + 500.0, p.label) for p in base
    ]
    transformed = check_linear_separability(moved)
    assert plain.separable and transformed.separable
    for p in moved:
        side = 1.0 if p.label is Label.CLASS1 else -1.0
        assert side * (np.dot(transformed.w, p.features) + transformed.b) > 0.0


def test_separability_single_class_always_splits():
    pts = [point((float(i), float(-i)), Label.CLASS2) for i in range(5)]
    report = check_linear_separability(pts)
    assert report.separable
    assert report.iterations == 0
    assert report.margin >= 1.0 - 1e-12


def test_separability_coincident_points_of_both_classes():
    pts = [point((1.0, 1.0), Label.CLASS1), point((1.0, 1.0), Label.CLASS2)]
    report = check_linear_separability(pts)
    assert not report.separable


def test_separability_empty_input():
    with pytest.raises(EmptyInput):
        check_linear_separability([])


# Properties of the exact test on random 1-3-D sets.  Coordinates sit on a
# grid, so exact degeneracies (coincident and collinear points) are common
# while rounding stays far below any true margin.

PROPERTY = settings(max_examples=150, deadline=None)
COORD = st.integers(-1000, 1000).map(lambda k: k / 100.0)


def _vectors(dims, min_size=0, max_size=20):
    return st.lists(st.tuples(*[COORD] * dims), min_size=min_size, max_size=max_size)


@st.composite
def gapped_sets(draw):
    """Points labeled by a random hyperplane, then pushed at least ``gap``
    off it along its unit normal."""
    dims = draw(st.integers(1, 3))
    normal = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * dims)))
    assume(np.linalg.norm(normal) > 0.1)
    normal /= np.linalg.norm(normal)
    offset = draw(st.floats(-5.0, 5.0))
    gap = draw(st.floats(0.01, 1.0))
    x = np.array(draw(_vectors(dims, min_size=2, max_size=30)))
    signed = x @ normal + offset
    side = np.where(signed >= 0.0, 1.0, -1.0)
    x = x + (side * np.maximum(gap - np.abs(signed), 0.0))[:, None] * normal
    assume(np.any(side > 0) and np.any(side < 0))
    return x, side


@PROPERTY
@given(gapped_sets())
def test_gapped_sets_are_separated_by_the_returned_plane(data):
    x, side = data
    report = check_linear_separability(
        [point(row, Label.CLASS1 if s > 0 else Label.CLASS2) for row, s in zip(x, side)])
    assert report.separable
    assert np.linalg.norm(report.w) == pytest.approx(1.0, abs=1e-12)
    assert report.margin > 0.0
    assert np.all(side * (x @ report.w + report.b) >= report.margin)


@st.composite
def hull_sets(draw):
    """A class-2 point at a convex combination of class-1 points, among
    other class-2 points anywhere.  Integer coordinates, with the class-1
    points scaled by the weight total, keep the combination exact."""
    dims = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-1000, 1000)] * dims)
    class1 = np.array(draw(st.lists(coords, min_size=1, max_size=8)), dtype=float)
    weights = np.array(draw(st.lists(st.integers(1, 10), min_size=len(class1), max_size=len(class1))),
                       dtype=float)
    total = weights.sum()
    class2 = [weights @ class1] + [total * np.array(row) for row in draw(st.lists(coords, max_size=8))]
    return ([point(total * row, Label.CLASS1) for row in class1]
            + [point(row, Label.CLASS2) for row in class2])


@PROPERTY
@given(hull_sets())
def test_a_point_inside_the_other_class_hull_is_not_separable(pts):
    report = check_linear_separability(pts)
    assert not report.separable
    assert report.w is None and report.b is None


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda dims: st.tuples(
    _vectors(dims, min_size=1, max_size=20),
    st.lists(st.booleans(), min_size=20, max_size=20),
    st.tuples(*[st.floats(-10.0, 10.0)] * dims),
    st.floats(1e-2, 1e2),
)))
def test_verdict_is_invariant_under_shift_and_positive_rescale(data):
    rows, labels, shift, factor = data
    labeled = [(np.array(row), Label.CLASS1 if flag else Label.CLASS2) for row, flag in zip(rows, labels)]
    plain = check_linear_separability([point(row, label) for row, label in labeled])
    moved = check_linear_separability([point(factor * row + np.array(shift), label) for row, label in labeled])
    assert plain.separable == moved.separable

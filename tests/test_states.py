"""Qubit state constructors and observables.

Basis convention throughout: index 0 is the excited state, sigma_z
expectation is rho_00 - rho_11, Bloch components are x = 2 Re rho_01,
y = -2 Im rho_01.
"""

import math

import numpy as np
import pytest

from qsc.states import (
    AngleOutOfRange,
    InvalidDensityMatrix,
    ProbabilityNotNormalized,
    bloch_to_density,
    bloch_vector,
    fidelity,
    magnetization,
    mixed_target,
    pure_qubit,
    validate_density_matrix,
)


def test_pure_qubit_poles():
    up = pure_qubit(0.0)
    down = pure_qubit(math.pi)
    assert np.allclose(up, np.diag([1.0, 0.0]))
    assert np.allclose(down, np.diag([0.0, 1.0]))
    assert magnetization(up) == pytest.approx(1.0, abs=1e-15)
    assert magnetization(down) == pytest.approx(-1.0, abs=1e-15)


def test_pure_qubit_equator():
    plus = pure_qubit(math.pi / 2.0)
    assert np.allclose(plus, 0.5 * np.ones((2, 2)))
    assert bloch_vector(plus) == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    # phi rotates the coherence into y
    state = pure_qubit(math.pi / 2.0, math.pi / 2.0)
    assert bloch_vector(state) == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)


def test_pure_qubit_is_projector():
    rng = np.random.default_rng(31)
    for _ in range(25):
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        rho = pure_qubit(theta, phi)
        assert np.allclose(rho @ rho, rho, atol=1e-14)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert magnetization(rho) == pytest.approx(math.cos(theta), abs=1e-14)


def test_pure_qubit_angle_validation():
    with pytest.raises(AngleOutOfRange):
        pure_qubit(-0.1)
    with pytest.raises(AngleOutOfRange):
        pure_qubit(math.pi + 0.1)
    with pytest.raises(AngleOutOfRange):
        pure_qubit(1.0, 7.0)


def test_bloch_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(50):
        b = rng.uniform(-1.0, 1.0, size=3)
        norm = np.linalg.norm(b)
        if norm > 1.0:
            b /= norm * 1.01
        rho = bloch_to_density(b)
        validate_density_matrix(rho)
        assert np.allclose(bloch_vector(rho), b, atol=1e-14)


def test_bloch_to_density_rejects_outside_ball():
    for b in ([0.9, 0.9, 0.9], [math.nan, 0.0, 0.0], [0.0, math.inf, 0.0]):
        with pytest.raises(InvalidDensityMatrix):
            bloch_to_density(b)


def test_validate_density_matrix_rejects_bad_inputs():
    with pytest.raises(InvalidDensityMatrix):
        validate_density_matrix(np.diag([0.7, 0.7]).astype(complex))  # trace 1.4
    with pytest.raises(InvalidDensityMatrix):
        validate_density_matrix(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))
    with pytest.raises(InvalidDensityMatrix):
        validate_density_matrix(np.diag([1.2, -0.2]).astype(complex))  # negative eigenvalue


def test_fidelity_basics():
    rho = pure_qubit(0.3)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-14)
    assert fidelity(pure_qubit(0.0), pure_qubit(math.pi)) == pytest.approx(0.0, abs=1e-12)
    # maximally mixed against any pure state: sqrt(1/2)
    half = np.eye(2, dtype=complex) / 2.0
    assert fidelity(half, rho) == pytest.approx(0.7071067811865475, abs=1e-13)


def test_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(8)
    for _ in range(40):
        a = bloch_to_density(rng.uniform(-0.5, 0.5, size=3))
        b = bloch_to_density(rng.uniform(-0.5, 0.5, size=3))
        f = fidelity(a, b)
        assert f == pytest.approx(fidelity(b, a), abs=1e-13)
        assert 0.0 <= f <= 1.0 + 1e-13


def test_fidelity_dimension_check():
    from qsc.linalg import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        fidelity(np.eye(4, dtype=complex) / 4.0, np.eye(4, dtype=complex) / 4.0)


def test_mixed_target_two_up_one_down():
    rho = mixed_target([(0.0, 1.0 / 3.0), (0.0, 1.0 / 3.0), (math.pi, 1.0 / 3.0)])
    assert np.allclose(rho, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-15)
    assert magnetization(rho) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_mixed_target_single_component_is_pure():
    rho = mixed_target([(0.8, 1.0)])
    assert np.allclose(rho, pure_qubit(0.8), atol=1e-15)


def test_mixed_target_weight_validation():
    with pytest.raises(ProbabilityNotNormalized):
        mixed_target([(0.0, 0.5), (math.pi, 0.6)])
    with pytest.raises(ProbabilityNotNormalized):
        mixed_target([(0.0, -0.2), (math.pi, 1.2)])
    with pytest.raises(ProbabilityNotNormalized):
        mixed_target([])

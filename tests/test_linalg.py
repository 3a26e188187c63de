"""Matrix helper tests: exponentials, partial traces, trace distance."""

import math

import numpy as np
import pytest

from qsc.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    NonHermitianInput,
    DimensionMismatch,
    dagger,
    expm_skew_hermitian,
    is_hermitian,
    kron,
    partial_trace,
    trace_distance,
)

def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + dagger(a))


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ dagger(a)
    return rho / np.trace(rho)


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)
    assert np.allclose(SIGMA_X @ SIGMA_X, IDENTITY_2)
    assert np.allclose(SIGMA_Z @ SIGMA_Z, IDENTITY_2)
    for p in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert is_hermitian(p)
        assert abs(np.trace(p)) < 1e-15


def test_expm_sigma_z_phases():
    # e^{-i sigma_z t} is diagonal with conjugate phases.
    t = 0.73
    u = expm_skew_hermitian(SIGMA_Z, t)
    assert np.allclose(u, np.diag([np.exp(-1j * t), np.exp(1j * t)]))


def test_expm_unitary_for_random_hermitians():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        h = random_hermitian(dim, rng)
        t = float(rng.uniform(0.0, 10.0))
        u = expm_skew_hermitian(h, t)
        defect = np.linalg.norm(dagger(u) @ u - np.eye(dim))
        assert defect < 1e-12


def test_expm_zero_time_is_identity():
    h = random_hermitian(4, np.random.default_rng(3))
    assert np.array_equal(expm_skew_hermitian(h, 0.0), np.eye(4))


def test_expm_rejects_non_hermitian():
    raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NonHermitianInput):
        expm_skew_hermitian(raising, 1.0)
    with pytest.raises(DimensionMismatch):
        expm_skew_hermitian(np.zeros((2, 2, 2, 2)), 1.0)


def test_expm_rejects_an_overflowing_propagator():
    # the phases w * t overflow, so the propagator and its defect are NaN
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonHermitianInput, match="defect nan"):
        expm_skew_hermitian(1e308 * SIGMA_Z, 10.0)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_density(rng)
        b = random_density(rng)
        rho = kron(a, b)
        assert np.allclose(partial_trace(rho, keep=0), a, atol=1e-14)
        assert np.allclose(partial_trace(rho, keep=1), b, atol=1e-14)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    for keep in (0, 1):
        assert np.allclose(partial_trace(rho, keep=keep), IDENTITY_2 / 2.0, atol=1e-15)


def test_partial_trace_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(3, dtype=complex))


def test_trace_distance_orthogonal_pure_states():
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(up, down) == pytest.approx(1.0, abs=1e-15)
    assert trace_distance(up, up) == 0.0


def test_trace_distance_properties():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b, c = (random_density(rng) for _ in range(3))
        dab = trace_distance(a, b)
        assert dab == pytest.approx(trace_distance(b, a), abs=1e-14)
        assert 0.0 <= dab <= 1.0 + 1e-14
        # triangle inequality
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12


def test_trace_distance_matches_eigenvalue_formula():
    rng = np.random.default_rng(23)
    a, b = random_density(rng), random_density(rng)
    eig = np.linalg.eigvalsh(a - b)
    assert trace_distance(a, b) == pytest.approx(0.5 * np.sum(np.abs(eig)), abs=1e-14)

"""Qubit state constructors, observables and the qubit fidelity.

Basis convention: index 0 is spin-up |e> = (1, 0), index 1 is spin-down
|g> = (0, 1), so the magnetization <sigma_z> equals rho[0,0] - rho[1,1]
and the Bloch z component of |e> is +1.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, DimensionMismatch, is_hermitian

TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10


class AngleOutOfRange(ValueError):
    """Raised for polar angles outside [0, pi] or azimuths outside [0, 2*pi)."""


class ProbabilityNotNormalized(ValueError):
    """Raised when mixture probabilities are negative or do not sum to one."""


class InvalidDensityMatrix(ValueError):
    """Raised when a matrix fails the density-matrix checks."""


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidDensityMatrix(f"expected a square matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise InvalidDensityMatrix("entries must be finite")
    if not is_hermitian(rho):
        raise InvalidDensityMatrix("not Hermitian within 1e-12")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise InvalidDensityMatrix(f"trace {np.trace(rho)} is not 1 within 1e-12")
    smallest = float(np.linalg.eigvalsh(rho)[0])
    if smallest < EIG_FLOOR:
        raise InvalidDensityMatrix(f"negative eigenvalue {smallest:.3e} below -1e-10")
    return rho


def pure_qubit(theta: float, phi: float = 0.0) -> np.ndarray:
    """Projector onto cos(theta/2)|e> + exp(i*phi)*sin(theta/2)|g>."""
    if not 0.0 <= theta <= math.pi:
        raise AngleOutOfRange(f"theta must lie in [0, pi], got {theta}")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise AngleOutOfRange(f"phi must lie in [0, 2*pi), got {phi}")
    amp = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)])
    return np.outer(amp, amp.conj())


def magnetization(rho: np.ndarray) -> float:
    """Expectation value of sigma_z; the imaginary residue is discarded."""
    rho = np.asarray(rho)
    return float((rho[0, 0] - rho[1, 1]).real)


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch components (x, y, z) of a 2x2 density matrix."""
    rho = np.asarray(rho)
    return np.array(
        [
            float(np.trace(SIGMA_X @ rho).real),
            float(np.trace(SIGMA_Y @ rho).real),
            float(np.trace(SIGMA_Z @ rho).real),
        ]
    )


def bloch_to_density(b) -> np.ndarray:
    """Density matrix (I + b . sigma) / 2 from a Bloch vector."""
    x, y, z = (float(c) for c in b)
    norm2 = x * x + y * y + z * z
    if not norm2 <= 1.0 + 1e-10:  # a NaN norm fails too
        raise InvalidDensityMatrix(f"Bloch vector norm^2 {norm2} is not at most 1")
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity for qubits via the closed 2x2 form.

    F = sqrt(tr(rho*sigma) + 2*sqrt(det(rho)*det(sigma))); determinants are
    clamped at zero so float jitter on pure states cannot leak a NaN.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != (2, 2) or sigma.shape != (2, 2):
        raise DimensionMismatch("fidelity is implemented for 2x2 states only")
    overlap = float(np.trace(rho @ sigma).real)
    det_r = max(float(np.linalg.det(rho).real), 0.0)
    det_s = max(float(np.linalg.det(sigma).real), 0.0)
    val = overlap + 2.0 * math.sqrt(det_r * det_s)
    return math.sqrt(min(max(val, 0.0), 1.0))


def mixed_target(components: list[tuple[float, float]]) -> np.ndarray:
    """Convex mixture sum_i p_i * pure_qubit(theta_i) from (theta, p) pairs."""
    if not components:
        raise ProbabilityNotNormalized("empty mixture")
    probs = [p for _, p in components]
    if any(p < 0.0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
        raise ProbabilityNotNormalized(f"probabilities {probs} do not sum to 1")
    out = np.zeros((2, 2), dtype=complex)
    for theta, p in components:
        out += p * pure_qubit(theta)
    return out

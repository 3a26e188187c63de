"""Dense complex linear algebra kernels for two-qubit collision dynamics.

Everything operates on plain ``numpy`` arrays with ``complex128`` entries.
The system qubit is always the FIRST tensor factor, the ancilla the second,
so a joint state reshapes to ``(2, 2, 2, 2)`` as (sys, anc, sys', anc').
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-12

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


class NonHermitianInput(ValueError):
    """Raised when a matrix that must be Hermitian is not."""


class DimensionMismatch(ValueError):
    """Raised when an operand has the wrong shape for the requested operation."""


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, system factor first."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """True if ``a`` equals its adjoint within ``tol`` in Frobenius norm."""
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and np.linalg.norm(a - a.conj().T) <= tol


def expm_skew_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Propagator exp(-i*h*t) for Hermitian ``h`` via eigendecomposition.

    The eigenbasis route keeps the result unitary to machine precision,
    which a truncated series would not; the result is checked against
    ``UNITARITY_TOL`` before it is returned, and phases w * t that overflow
    are rejected before they reach ``np.exp``.  At ``t = 0`` it is exactly
    the identity, which the eigenbasis round trip would miss by ~1e-16.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {h.shape}")
    if not is_hermitian(h):
        raise NonHermitianInput("generator is not Hermitian within 1e-12")
    if t == 0.0:
        return np.eye(h.shape[0], dtype=complex)
    w, v = np.linalg.eigh(h)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(w * t).all():  # a NaN phase fails too
            raise NonHermitianInput("propagator phases h*t overflow: unitarity defect nan exceeds 1e-12")
    u = (v * np.exp(-1j * w * t)) @ dagger(v)
    defect = np.linalg.norm(dagger(u) @ u - np.eye(h.shape[0]))
    if not defect <= UNITARITY_TOL:  # a NaN defect fails too
        raise NonHermitianInput(f"propagator unitarity defect {defect:.3e} exceeds 1e-12")
    return u


def partial_trace(rho: np.ndarray, keep: int = 0) -> np.ndarray:
    """Trace one qubit out of a 4x4 two-qubit operator.

    ``keep=0`` keeps the system (first factor), ``keep=1`` the ancilla.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatch(f"partial_trace expects a 4x4 matrix, got {rho.shape}")
    if keep not in (0, 1):
        raise DimensionMismatch(f"keep must be 0 (system) or 1 (ancilla), got {keep}")
    r = rho.reshape(2, 2, 2, 2)
    if keep == 0:
        return np.trace(r, axis1=1, axis2=3)
    return np.trace(r, axis1=0, axis2=2)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of (a - b) for Hermitian operands."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    diff = a - b
    if not is_hermitian(diff, tol=1e-10):
        raise NonHermitianInput("trace_distance operands must be Hermitian")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))

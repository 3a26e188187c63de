"""Dispersive circuit-QED parameter calculator for the collision hardware.

Unit conventions, fixed throughout this module:

* every frequency is an ORDINARY frequency (the quantity usually quoted as
  omega/2pi); no factor of 2pi is ever inserted here,
* resonator and qubit frequencies are in GHz, qubit-resonator couplings in
  MHz, so effective qubit-qubit couplings come out in MHz through an
  explicit factor of 1000.

Whether the dimensionless phase J*tau handed to the collision engine should
multiply in an extra 2pi is a caller decision (see the presets' convention
flag); this module only computes magnitudes.  It performs no dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# The least |detuning| / g of a dispersive qubit, and the least frequency gap
# over effective coupling of a decoupled reservoir pair.
DISPERSIVE_RATIO_MIN = 10.0


class ZeroDetuning(ValueError):
    """Raised when a qubit sits exactly on the resonator frequency."""


@dataclass(frozen=True)
class TransmonParams:
    """Resonator frequency (GHz) plus (omega_ghz, g_mhz) per qubit.

    Qubit 0 is the system qubit, the rest are reservoir qubits."""

    omega_r: float
    qubits: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.omega_r) or self.omega_r <= 0.0:
            raise ValueError(f"resonator frequency must be positive, got {self.omega_r}")
        object.__setattr__(self, "qubits", tuple((float(w), float(g)) for w, g in self.qubits))
        for omega, g in self.qubits:
            if not (math.isfinite(omega) and math.isfinite(g)) or omega <= 0.0 or g <= 0.0:
                raise ValueError(f"qubit needs positive omega and g, got ({omega}, {g})")
            if omega == self.omega_r:
                raise ZeroDetuning(f"qubit at {omega} GHz sits on the resonator frequency")

    def detuning(self, index: int) -> float:
        """omega_i - omega_r in GHz."""
        return self.qubits[index][0] - self.omega_r


@dataclass(frozen=True)
class TimingBudget:
    """Collision timing budget.

    ``tau_int`` is the per-collision interaction time in ns, ``tau_r`` the
    reservoir relaxation time in us, ``tau_pr`` the reset/preparation time in
    ns, ``t1`` the system-qubit energy relaxation time in us.  Only
    ``tau_int`` enters the response time; the budget is valid when the
    relaxation and preparation scales bracket it (tau_r >> tau_int >> tau_pr),
    which callers are expected to check by eye, not programmatically."""

    tau_int: float
    tau_r: float
    tau_pr: float
    t1: float
    n_collisions: int

    def __post_init__(self) -> None:
        entries = (self.tau_int, self.tau_r, self.tau_pr, self.t1)
        if not all(math.isfinite(v) and v > 0.0 for v in entries):
            raise ValueError(f"all timing entries must be positive and finite, got {entries}")
        if self.n_collisions < 1:
            raise ValueError(f"n_collisions must be >= 1, got {self.n_collisions}")


def effective_coupling(g1_mhz: float, g2_mhz: float, delta1_ghz: float, delta2_ghz: float) -> float:
    """Resonator-mediated qubit-qubit coupling (g1*g2/2)(1/d1 + 1/d2) in MHz.

    The inputs mix MHz couplings with GHz detunings, hence the explicit
    division by 1000.
    """
    if delta1_ghz == 0.0 or delta2_ghz == 0.0:
        raise ZeroDetuning("dispersive coupling diverges at zero detuning")
    return 0.5 * g1_mhz * g2_mhz * (1.0 / delta1_ghz + 1.0 / delta2_ghz) / 1000.0


def system_reservoir_couplings(params: TransmonParams) -> list[float]:
    """Effective coupling of qubit 0 to each reservoir qubit, in MHz."""
    w0, g0 = params.qubits[0]
    out = []
    for i in range(1, len(params.qubits)):
        wi, gi = params.qubits[i]
        out.append(effective_coupling(g0, gi, params.detuning(0), params.detuning(i)))
    return out


@dataclass
class DispersiveReport:
    """Per-qubit |detuning|/g ratios and reservoir-reservoir decoupling checks.

    ``pair_checks`` rows are ((i, j), coupling_mhz, ratio, ok) where ratio is
    |omega_i - omega_j| over the pair's effective coupling."""

    qubit_ratios: list[tuple[int, float, bool]]
    pair_checks: list[tuple[tuple[int, int], float, float, bool]]
    ok: bool


def validate_dispersive(params: TransmonParams) -> DispersiveReport:
    """Report whether every qubit is dispersive and reservoirs stay decoupled:
    each ratio must reach ``DISPERSIVE_RATIO_MIN``.

    Report-style: marginal or failing ratios set ``ok=False`` rather than
    raising, including the degenerate zero-detuning case.
    """
    qubit_ratios = []
    for i, (_, g) in enumerate(params.qubits):
        ratio = abs(params.detuning(i)) * 1000.0 / g
        qubit_ratios.append((i, ratio, ratio >= DISPERSIVE_RATIO_MIN))
    pair_checks = []
    for i in range(1, len(params.qubits)):
        for j in range(i + 1, len(params.qubits)):
            (wi, gi), (wj, gj) = params.qubits[i], params.qubits[j]
            j_mhz = effective_coupling(gi, gj, params.detuning(i), params.detuning(j))
            gap_mhz = abs(wi - wj) * 1000.0
            ratio = gap_mhz / abs(j_mhz) if j_mhz != 0.0 else math.inf
            pair_checks.append(((i, j), j_mhz, ratio, ratio >= DISPERSIVE_RATIO_MIN))
    ok = all(ok_ for _, _, ok_ in qubit_ratios) and all(ok_ for _, _, _, ok_ in pair_checks)
    return DispersiveReport(qubit_ratios, pair_checks, ok)


def response_time(budget: TimingBudget) -> tuple[float, bool]:
    """Total run time n_collisions * tau_int in microseconds, and whether it
    beats T1.  Division by 1000 keeps round ns budgets exact in floats."""
    total_us = budget.n_collisions * budget.tau_int / 1000.0
    return total_us, total_us < budget.t1

"""Dispersive hardware mapping: effective couplings, validity ratios, timing.

Couplings are quoted in MHz and frequencies/detunings in GHz, so every
formula carries an explicit factor of 1000.  Keeping that factor honest is
most of what these tests pin down.
"""

import math

import pytest

from qsc.physical import (
    DispersiveReport,
    TimingBudget,
    TransmonParams,
    ZeroDetuning,
    effective_coupling,
    response_time,
    system_reservoir_couplings,
    validate_dispersive,
)
from qsc.presets import derived_transmon_params


def test_effective_coupling_equal_detunings():
    # g^2/Delta with both qubits at the same detuning: 100 MHz at 2 GHz
    # gives 5 MHz, not 5000.
    assert effective_coupling(100.0, 100.0, 2.0, 2.0) == pytest.approx(5.0, abs=1e-12)


def test_effective_coupling_symmetry_and_bilinearity():
    rng_values = [
        (120.0, 80.0, -2.0, 3.5),
        (50.0, 50.0, 1.2, -4.0),
        (300.0, 10.0, -0.7, -0.9),
    ]
    for g1, g2, d1, d2 in rng_values:
        j = effective_coupling(g1, g2, d1, d2)
        assert j == pytest.approx(effective_coupling(g2, g1, d2, d1), abs=1e-12)
        assert effective_coupling(2.0 * g1, g2, d1, d2) == pytest.approx(2.0 * j, abs=1e-9)
        assert effective_coupling(g1, 3.0 * g2, d1, d2) == pytest.approx(3.0 * j, abs=1e-9)


def test_effective_coupling_sign_follows_detunings():
    assert effective_coupling(100.0, 100.0, -2.0, -2.0) < 0.0
    # opposite detunings of equal size cancel
    assert effective_coupling(100.0, 100.0, 2.0, -2.0) == pytest.approx(0.0, abs=1e-12)


def test_effective_coupling_rejects_zero_detuning():
    with pytest.raises(ZeroDetuning):
        effective_coupling(100.0, 100.0, 0.0, 2.0)


def test_transmon_params_validation():
    with pytest.raises(ZeroDetuning):
        TransmonParams(8.625, ((8.625, 100.0),))
    with pytest.raises(ValueError):
        TransmonParams(-1.0, ())
    with pytest.raises(ValueError):
        TransmonParams(8.625, ((6.2, -5.0),))
    params = TransmonParams(8.625, ((6.2, 100.0), (4.052, 100.0)))
    assert params.detuning(0) == pytest.approx(-2.425)
    assert params.detuning(1) == pytest.approx(-4.573)


def test_derived_params_hit_target_coupling():
    params = derived_transmon_params()
    couplings = system_reservoir_couplings(params)
    assert len(couplings) == 2
    # both system-reservoir couplings land on the design value, sign included
    assert couplings[0] == pytest.approx(-48.9, abs=1e-9)
    assert couplings[1] == pytest.approx(-48.9, abs=1e-9)


def test_validate_dispersive_single_qubit_ratio():
    params = TransmonParams(10.0, ((12.425, 100.0),))
    report = validate_dispersive(params)
    assert isinstance(report, DispersiveReport)
    (index, ratio, ok), = report.qubit_ratios
    assert index == 0
    assert ratio == pytest.approx(24.25, abs=1e-12)
    assert ok and report.ok
    assert report.pair_checks == []


def test_validate_dispersive_flags_strong_coupling():
    params = TransmonParams(10.0, ((9.5, 100.0),))  # ratio 5, below the bar
    report = validate_dispersive(params)
    assert not report.ok
    assert report.qubit_ratios[0][2] is False


def test_validate_dispersive_empty_params():
    report = validate_dispersive(TransmonParams(8.625, ()))
    assert report.qubit_ratios == []
    assert report.pair_checks == []
    assert report.ok


def test_validate_dispersive_reservoir_pair_check():
    params = derived_transmon_params()
    report = validate_dispersive(params)
    # the derived design is honest about its marginal ratios: the system and
    # third qubit sit below 10 |Delta|/g, so the report as a whole fails
    flags = [ok for _, _, ok in report.qubit_ratios]
    assert flags == [False, True, False]
    assert not report.ok
    ((pair, j_mhz, gap_ratio, pair_ok),) = report.pair_checks
    assert pair == (1, 2)
    assert gap_ratio > 10.0
    assert pair_ok


def test_timing_budget_validation():
    with pytest.raises(ValueError):
        TimingBudget(0.0, 20.0, 0.5, 20.0, 2000)
    with pytest.raises(ValueError):
        TimingBudget(5.0, 20.0, 0.5, 20.0, 0)
    for bad in (math.nan, math.inf):
        for index in range(4):
            entries = [5.0, 20.0, 0.5, 20.0]
            entries[index] = bad
            with pytest.raises(ValueError):
                TimingBudget(*entries, 2000)


def test_response_time_exact_values():
    # 2000 collisions at 5 ns each is exactly 10 microseconds
    total, ok = response_time(TimingBudget(5.0, 20.0, 0.5, 20.0, 2000))
    assert total == 10.0
    assert ok
    total, ok = response_time(TimingBudget(5.0, 20.0, 0.5, 20.0, 1500))
    assert total == 7.5
    assert ok


def test_response_time_flags_t1_overrun():
    total, ok = response_time(TimingBudget(5.0, 20.0, 0.5, 8.0, 2000))
    assert total == 10.0
    assert not ok


def test_response_time_scales_linearly():
    base, _ = response_time(TimingBudget(4.0, 20.0, 0.5, 100.0, 100))
    doubled, _ = response_time(TimingBudget(4.0, 20.0, 0.5, 100.0, 200))
    assert doubled == pytest.approx(2.0 * base, abs=0.0)
    assert base == pytest.approx(0.4, abs=1e-15)

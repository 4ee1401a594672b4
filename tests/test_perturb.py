import tracemalloc

import numpy as np
import pytest

import vacmirror.perturb as perturb
from vacmirror import (CapacityError, CutoffSpec, DegenerateModeSetError,
                       PhysicalParams, UsageError, dressed_amplitudes,
                       energy_shift, photon_spectrum)

from conftest import (blocked_energy_shift, brute_energy_shift,
                      energy_shift_from_amplitudes, params_for_lambda)

# frozen by an independent 30-digit evaluation of the closed double sum
DE_M10_N2 = -0.20130304425925797


def test_energy_shift_pinned_two_modes():
    p = PhysicalParams(mass=10.0, omega0=1.0, length=1.0)
    val = energy_shift(p, CutoffSpec.sharp_n_modes(p, 2))
    assert abs(val - DE_M10_N2) < 1e-14 * abs(DE_M10_N2)


def test_energy_shift_matches_brute_force(params_weak):
    for n in (1, 2, 3):
        got = energy_shift(params_weak, CutoffSpec.sharp_n_modes(params_weak, n))
        ref = brute_energy_shift(params_weak, n)
        assert abs(got - ref) <= 1e-14 * abs(ref)
    got = energy_shift(params_weak, CutoffSpec.exponential(9.0), n_max=3)
    ref = brute_energy_shift(params_weak, 3, omega_m=9.0)
    assert abs(got - ref) <= 1e-14 * abs(ref)


def test_energy_shift_matches_blocked_double_sum():
    # the O(N) index-sum form against the direct ordered double sum
    p = params_for_lambda(0.05, omega0=np.pi)
    n = 2000
    wm = 50 * p.omega1
    got = energy_shift(p, CutoffSpec.exponential(wm), n_max=n)
    ref = blocked_energy_shift(p, n, lambda tot: np.exp(-tot / wm))
    assert abs(got - ref) <= 1e-12 * abs(ref)

    wm = (n + 0.5) * p.omega1
    got = energy_shift(p, CutoffSpec.sharp(wm, rule="total"))
    ref = blocked_energy_shift(p, n, lambda tot: np.where(tot <= wm, 1.0, 0.0))
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_energy_shift_negative():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = PhysicalParams(mass=float(rng.uniform(0.5, 100)),
                           omega0=float(rng.uniform(0.2, 5)),
                           length=float(rng.uniform(0.5, 3)))
        assert energy_shift(p, CutoffSpec.exponential(30 * p.omega0)) < 0


def test_energy_shift_mass_scaling(params_weak):
    cut = CutoffSpec.exponential(40.0)
    a = energy_shift(params_weak, cut)
    b = energy_shift(params_weak.with_mass(params_weak.mass * 2), cut)
    assert abs(2 * b - a) <= 1e-14 * abs(a)
    # decoupling: the shift vanishes in the infinite-mass limit
    c = energy_shift(params_weak.with_mass(params_weak.mass * 1e12), cut)
    assert abs(c) <= 1e-11 * abs(a)


def test_energy_shift_empty_mode_set(params_weak):
    with pytest.raises(DegenerateModeSetError):
        energy_shift(params_weak, CutoffSpec.sharp(0.5 * params_weak.omega1))


def test_sharp_cutoff_caps_explicit_n_max(params_weak):
    # modes above a sharp per-mode cutoff drop out even when n_max asks for them
    cut = CutoffSpec.sharp(3.5 * params_weak.omega1)
    assert energy_shift(params_weak, cut, n_max=6) == energy_shift(params_weak, cut)
    capped = dressed_amplitudes(params_weak, cut, n_max=6)
    auto = dressed_amplitudes(params_weak, cut)
    assert np.array_equal(capped.pairs, auto.pairs)
    assert np.array_equal(capped.coeffs, auto.coeffs)
    assert np.array_equal(capped.weights, auto.weights)


def test_energy_shift_monotone_in_modes(params_weak):
    vals = [abs(energy_shift(params_weak, CutoffSpec.sharp_n_modes(params_weak, n)))
            for n in range(1, 8)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_amplitudes_pinned_c11(params_unit):
    amps = dressed_amplitudes(params_unit, CutoffSpec.sharp_n_modes(params_unit, 2))
    # (1/sqrt(8)) pi/(1+2pi), frozen from an independent evaluation
    assert abs(amps.coefficient(1, 1) - 0.15250480218382884) < 1e-15


def test_amplitudes_symmetry_and_multiplicity(params_weak):
    amps = dressed_amplitudes(params_weak, CutoffSpec.sharp_n_modes(params_weak, 3))
    assert amps.coefficient(1, 2) == amps.coefficient(2, 1)
    mult = {tuple(pr): m for pr, m in zip(amps.pairs, amps.multiplicities)}
    assert mult[(1, 1)] == 1.0 and mult[(1, 2)] == 2.0


def test_amplitudes_decrease_with_omega0():
    lo = PhysicalParams(mass=20.0, omega0=1.0, length=1.0)
    hi = PhysicalParams(mass=20.0, omega0=2.5, length=1.0)
    a_lo = dressed_amplitudes(lo, CutoffSpec.sharp_n_modes(lo, 4))
    a_hi = dressed_amplitudes(hi, CutoffSpec.sharp_n_modes(hi, 4))
    assert np.all(np.abs(a_hi.coeffs) < np.abs(a_lo.coeffs))


def test_energy_amplitude_identity(params_weak):
    # delta_E = -sum 2 mult c_raw c hbar (omega0+w_k+w_j), any cutoff
    for cut in (CutoffSpec.sharp_n_modes(params_weak, 6),
                CutoffSpec.exponential(25.0)):
        de = energy_shift(params_weak, cut)
        amps = dressed_amplitudes(params_weak, cut)
        de2 = energy_shift_from_amplitudes(amps)
        assert abs(de - de2) <= 1e-12 * abs(de)


def test_lambda_sq_positive_finite(params_weak):
    amps = dressed_amplitudes(params_weak, CutoffSpec.exponential(40.0))
    assert np.isfinite(amps.lambda_sq) and amps.lambda_sq > 0


def test_spectrum_partition(params_weak):
    amps = dressed_amplitudes(params_weak, CutoffSpec.exponential(30.0))
    spec = photon_spectrum(params_weak, CutoffSpec.exponential(30.0),
                           bin_width=params_weak.omega0 / 20)
    assert abs(spec.total_weight - amps.lambda_sq) <= 1e-12 * amps.lambda_sq


def test_spectrum_coarsening(params_weak):
    cut = CutoffSpec.exponential(30.0)
    w = params_weak.omega0 / 10
    fine = photon_spectrum(params_weak, cut, bin_width=w)
    coarse = photon_spectrum(params_weak, cut, bin_width=2 * w)
    assert np.count_nonzero(coarse.weights) <= np.count_nonzero(fine.weights)


def test_spectrum_matches_enumeration(params_weak):
    # three-mode set: group |amplitude|^2 by total pair frequency by hand
    amps = dressed_amplitudes(params_weak, CutoffSpec.sharp_n_modes(params_weak, 3))
    width = 0.9 * params_weak.omega1
    spec = photon_spectrum(params_weak, CutoffSpec.sharp_n_modes(params_weak, 3),
                           bin_width=width)
    s = amps.pair_frequencies
    w2 = amps.normalized_state_amplitudes**2
    smin = s.min()
    expected = np.zeros_like(spec.weights)
    for si, wi in zip(s, w2):
        idx = min(int((si - smin) / width), expected.size - 1)
        expected[idx] += wi
    assert np.allclose(spec.weights, expected, rtol=1e-13, atol=0)


def test_spectrum_bin_width_validation(params_weak):
    amps = dressed_amplitudes(params_weak, CutoffSpec.sharp_n_modes(params_weak, 3))
    span = amps.pair_frequencies.max() - amps.pair_frequencies.min()
    with pytest.raises(UsageError):
        photon_spectrum(params_weak, amps.cutoff, bin_width=1.5 * span)
    with pytest.raises(UsageError):
        photon_spectrum(params_weak, amps.cutoff, bin_width=0.0)


def test_spectrum_rejects_nan_bin_width(params_weak):
    with pytest.raises(UsageError, match="bin_width"):
        photon_spectrum(params_weak, CutoffSpec.exponential(20.0), bin_width=np.nan)


def test_spectrum_peak_reported():
    p = params_for_lambda(0.05, omega0=np.pi)
    spec = photon_spectrum(p, CutoffSpec.exponential(20 * p.omega0))
    assert np.isfinite(spec.peak_frequency)
    assert spec.bin_edges[0] <= spec.peak_frequency <= spec.bin_edges[-1]


def test_pair_table_capacity_checked_before_allocation():
    # exp:1000 omega0 is N = 36842 modes, 6.8e8 pairs: tens of GiB of
    # pair arrays; the estimate refuses them before any table exists
    p = params_for_lambda(0.05, omega0=np.pi)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="36842 modes"):
            dressed_amplitudes(p, CutoffSpec.exponential(1000 * np.pi))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # a sharp cutoff caps an explicit n_max before the estimate
    amps = dressed_amplitudes(p, CutoffSpec.sharp(5.5 * np.pi), n_max=100_000)
    assert len(amps.pairs) == 15


def test_pair_table_capacity_counts_the_kept_modes(monkeypatch):
    # sharp 5.5 omega1 keeps modes 1..5: 15 pairs fit a 15-pair limit
    monkeypatch.setattr(perturb, "PAIR_TABLE_LIMIT", 15 * perturb.PAIR_BYTES)
    p = PhysicalParams(mass=1.0, omega0=1.0, length=1.0)
    amps = dressed_amplitudes(p, CutoffSpec.sharp(5.5 * np.pi), n_max=100)
    assert len(amps.pairs) == 15
    with pytest.raises(CapacityError, match="6 modes"):
        dressed_amplitudes(p, CutoffSpec.sharp(6.5 * np.pi), n_max=100)

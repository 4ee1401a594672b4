import warnings

import numpy as np
import pytest

from vacmirror import (CutoffSpec, UsageError, delta_phi_squared,
                       phi_phi_cross_correlation,
                       squared_field_correlation_discrete)

from conftest import (brute_correlation, direct_correlation,
                      longdouble_correlation, params_for_lambda,
                      single_cavity_reduction_check)


def test_correlation_vs_enumeration(params_weak):
    x1 = np.array([0.3, 0.7])
    x2 = np.array([1.2, 1.6])
    grid = squared_field_correlation_discrete(
        params_weak, CutoffSpec.exponential(40.0), x1, x2, n_max=2)
    ref = np.array([[brute_correlation(params_weak, 2, a, b, omega_m=40.0)
                     for b in x2] for a in x1])
    assert np.max(np.abs(grid.values - ref) / np.abs(ref)) < 1e-14

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        sharp = squared_field_correlation_discrete(
            params_weak, CutoffSpec.sharp_n_modes(params_weak, 2), x1, x2)
    ref_s = np.array([[brute_correlation(params_weak, 2, a, b)
                       for b in x2] for a in x1])
    assert np.max(np.abs(sharp.values - ref_s) / np.abs(ref_s)) < 1e-14


def test_correlation_negative_everywhere(params_weak):
    x1 = np.linspace(0.1, 0.9, 7)
    x2 = np.linspace(1.1, 1.9, 7)
    grid = squared_field_correlation_discrete(
        params_weak, CutoffSpec.exponential(40.0), x1, x2, negativity="raise")
    assert np.all(grid.values < 0)


def test_correlation_distance_swap_symmetry(params_weak):
    # equal-length cavities: C is symmetric under xt1 <-> xt2
    L = params_weak.length
    a, b = 0.23, 0.61
    cut = CutoffSpec.exponential(35.0)
    c_ab = squared_field_correlation_discrete(
        params_weak, cut, [L - a], [L + b]).values[0, 0]
    c_ba = squared_field_correlation_discrete(
        params_weak, cut, [L - b], [L + a]).values[0, 0]
    assert abs(c_ab - c_ba) <= 1e-12 * abs(c_ab)


def test_correlation_mass_scaling(params_weak):
    cut = CutoffSpec.exponential(30.0)
    g1 = squared_field_correlation_discrete(params_weak, cut, [0.4], [1.5])
    g2 = squared_field_correlation_discrete(
        params_weak.with_mass(2 * params_weak.mass), cut, [0.4], [1.5])
    assert abs(2 * g2.values[0, 0] - g1.values[0, 0]) <= 1e-14 * abs(g1.values[0, 0])


def test_correlation_domain_validation(params_weak):
    cut = CutoffSpec.exponential(30.0)
    with pytest.raises(UsageError):
        squared_field_correlation_discrete(params_weak, cut, [1.2], [1.5])
    with pytest.raises(UsageError):
        squared_field_correlation_discrete(params_weak, cut, [0.5], [0.7])
    with pytest.raises(UsageError):
        squared_field_correlation_discrete(params_weak, cut, [0.5], [1.5],
                                           negativity="maybe")


def test_correlation_grid_coordinates(params_weak):
    grid = squared_field_correlation_discrete(
        params_weak, CutoffSpec.exponential(30.0), [0.25, 0.5], [1.5])
    assert np.allclose(grid.xt1_grid, [0.75, 0.5])
    assert np.allclose(grid.xt2_grid, [0.5])
    assert grid.method == "discrete_sum"


def test_phi_phi_cross_correlation_structural_zero(params_weak):
    cut = CutoffSpec.exponential(30.0)
    assert phi_phi_cross_correlation(params_weak, cut, 0.3, 1.7) == 0.0
    # a structural zero does not move with parameters
    other = params_for_lambda(0.01, omega0=2.0)
    assert phi_phi_cross_correlation(other, cut, 0.9 * other.length,
                                     1.1 * other.length) == 0.0
    with pytest.raises(UsageError):
        phi_phi_cross_correlation(params_weak, cut, 1.5, 1.7)


def test_single_cavity_reduction(params_weak):
    # the diagonal <phi^2> extracted from the two-cavity tables must match
    # the independently coded single-cavity profile
    grid = np.array([0.2, 0.5, 0.8])
    cut = CutoffSpec.sharp_n_modes(params_weak, 3)
    red = single_cavity_reduction_check(params_weak, cut, grid)
    direct = delta_phi_squared(params_weak, cut, grid)
    rel = np.max(np.abs(red.values - direct.values) / np.abs(direct.values))
    assert rel < 1e-10

    cut_e = CutoffSpec.exponential(25.0)
    red_e = single_cavity_reduction_check(params_weak, cut_e, grid)
    direct_e = delta_phi_squared(params_weak, cut_e, grid)
    rel_e = np.max(np.abs(red_e.values - direct_e.values) / np.abs(direct_e.values))
    assert rel_e < 1e-10


def test_reduction_infinite_mass(params_weak):
    grid = np.array([0.5])
    cut = CutoffSpec.sharp_n_modes(params_weak, 3)
    heavy = single_cavity_reduction_check(params_weak.with_mass(1e14), cut, grid)
    base = single_cavity_reduction_check(params_weak, cut, grid)
    assert abs(heavy.values[0]) < 1e-12 * abs(base.values[0])


def test_sharp_exp_cutoff_consistency():
    # at fixed geometry the two regularizations approach each other as the
    # cutoff grows; gaps frozen from the convergence study
    p = params_for_lambda(0.05, omega0=np.pi)
    x1, x2 = [0.75], [1.25]
    gaps = []
    for wm in (20 * np.pi, 40 * np.pi, 80 * np.pi):
        cs = squared_field_correlation_discrete(
            p, CutoffSpec.sharp(wm), x1, x2).values[0, 0]
        ce = squared_field_correlation_discrete(
            p, CutoffSpec.exponential(wm), x1, x2).values[0, 0]
        gaps.append(abs(cs - ce) / abs(ce))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.05


def test_correlation_against_extended_precision():
    # N = 590 on the CLI's default 10 x 10 grid, where the sum's condition
    # number sum |terms| / |value| is about 6e6: the exponential-sum path
    # must be within 2e-12 of the longdouble evaluation of the direct
    # formula, and no further from it than the direct float64 path
    p = params_for_lambda(0.05, omega0=np.pi)
    cut = CutoffSpec.exponential(16 * np.pi)
    x1 = np.linspace(0.05, 0.95, 10)
    x2 = 1.0 + x1
    fast = squared_field_correlation_discrete(p, cut, x1, x2)
    assert fast.n_modes == 590
    ref = longdouble_correlation(p, cut, x1, x2)
    err_fast = float(np.max(np.abs((fast.values - ref) / ref)))
    err_direct = float(np.max(np.abs((direct_correlation(p, cut, x1, x2) - ref) / ref)))
    assert err_fast <= 2e-12
    assert err_fast <= err_direct

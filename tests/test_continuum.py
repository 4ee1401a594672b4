import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from vacmirror import continuum
from vacmirror import (ConvergenceError, CutoffSpec, PhysicalParams,
                       UsageError, asymptotic_correlation,
                       continuum_correlation, far_field_correlation,
                       scaling_probe, squared_field_correlation_discrete)

from conftest import direct_full_level

# frozen from an independent 30-digit evaluation of 1/(2^9 pi^4)
ASYM_UNIT = -2.0050746591180342e-05


def test_asymptotic_pinned_coefficient(params_unit):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        val = asymptotic_correlation(params_unit, 1.0, 1.0)
    assert abs(val - ASYM_UNIT) <= 1e-14 * abs(ASYM_UNIT)


def test_asymptotic_distance_scaling(params_unit):
    a = asymptotic_correlation(params_unit, 10.0, 7.0)
    b = asymptotic_correlation(params_unit, 20.0, 7.0)
    assert abs(4 * b - a) <= 1e-14 * abs(a)


def test_asymptotic_validation(params_unit):
    with pytest.raises(UsageError):
        asymptotic_correlation(params_unit, -1.0, 1.0)
    with pytest.warns(UserWarning, match="regime"):
        asymptotic_correlation(params_unit, 0.5, 10.0)


def test_asymptotic_exact_slopes(params_unit):
    for axis, slope in (("mass", -1.0), ("omega0", -3.0), ("distance", -4.0)):
        probes = scaling_probe(params_unit, "asymptotic", axis,
                               [1.0, 2.0, 4.0] if axis != "distance"
                               else [10.0, 20.0, 40.0])
        for p in probes:
            assert abs(p.log_slope - slope) < 1e-10


def test_scaling_probe_validation(params_unit):
    with pytest.raises(UsageError):
        scaling_probe(params_unit, "asymptotic", "mass", [1.0, 2.0])
    with pytest.raises(UsageError):
        scaling_probe(params_unit, "asymptotic", "mass", [1.0, 2.0, 2.0])
    with pytest.raises(UsageError):
        scaling_probe(params_unit, "asymptotic", "volume", [1.0, 2.0, 4.0])
    with pytest.raises(UsageError):
        scaling_probe(params_unit, "heat", "mass", [1.0, 2.0, 4.0])


def test_continuum_mass_scaling(params_unit):
    a = continuum_correlation(params_unit, 20.0, 0.3, 0.4).value
    heavy = PhysicalParams(2.0, 1.0, 1.0)
    b = continuum_correlation(heavy, 20.0, 0.3, 0.4).value
    assert abs(2 * b - a) <= 1e-12 * abs(a)


def test_continuum_symmetry_and_negativity(params_unit):
    p1 = continuum_correlation(params_unit, 15.0, 0.2, 0.7)
    p2 = continuum_correlation(params_unit, 15.0, 0.7, 0.2)
    assert p1.value < 0 and p2.value < 0
    assert abs(p1.value - p2.value) <= 2e-6 * abs(p1.value)


def test_continuum_validation(params_unit):
    with pytest.raises(UsageError):
        continuum_correlation(params_unit, 10.0, -0.1, 0.5)
    with pytest.raises(UsageError):
        continuum_correlation(params_unit, -5.0, 0.1, 0.5)
    with pytest.raises(UsageError):
        continuum_correlation(params_unit, 10.0, 0.1, 0.5, method="magic")
    with pytest.raises(UsageError):
        continuum_correlation(params_unit, 10.0, 0.1, 0.5, rel_tol=-1.0)


def test_full_quadrature_budget_failure(params_unit):
    with pytest.raises(ConvergenceError) as exc:
        continuum_correlation(params_unit, 10.0, 0.1, 0.12,
                              method="full_quadrature", budget=1e4)
    assert exc.value.achieved_rel_tol is not None


@pytest.mark.parametrize("scale", [1.0, 1.5])
@pytest.mark.parametrize("xt1, xt2, wm", [(0.08, 0.10, 10.0), (0.12, 0.09, 12.0),
                                          (0.5, 0.5, 1.0)])
def test_full_level_matches_unfolded_sum(xt1, xt2, wm, scale):
    # the folded, blocked level evaluates the same rule as the direct sum
    # over every ordered pair; xt1 != xt2 checks that the fold treats the
    # two cavities separately.  Non-unit c and omega0 keep the 1/c of the
    # kernel in play
    p = PhysicalParams(mass=1.0, omega0=0.8, length=1.0, c=1.25)
    k_max = 20.0 * wm / p.c
    k_struct = min(p.omega0, wm) / p.c
    args = (p, wm, xt1, xt2, k_max, k_struct, scale, 1e12, 0)
    total, cost = continuum._full_level(*args)
    ref, ref_cost = direct_full_level(*args)
    assert cost == ref_cost
    assert abs(total - ref) <= 1e-13 * abs(ref)


def test_full_quadrature_memory_bound(params_unit):
    # the kernel is contracted in fixed-size blocks: the benchmark point
    # (8.6e8 nominal summands) stays within a few MiB of Python allocations
    tracemalloc.start()
    try:
        continuum_correlation(params_unit, 15.0, 0.15, 0.15, rel_tol=1e-7,
                              method="full_quadrature", budget=4e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_paths_agree(params_unit):
    # the two evaluation paths share nothing beyond the integrand
    for (xt1, xt2, wm) in [(0.08, 0.1, 10.0), (0.15, 0.15, 15.0)]:
        pa = continuum_correlation(params_unit, wm, xt1, xt2,
                                   rel_tol=1e-8, method="partial_analytic")
        fq = continuum_correlation(params_unit, wm, xt1, xt2,
                                   rel_tol=1e-7, method="full_quadrature",
                                   budget=4e9)
        rel = abs(pa.value - fq.value) / abs(pa.value)
        assert rel < 1e-6, (xt1, xt2, wm, rel)


def test_partial_path_vs_pair_convolution_reduction(params_unit):
    # independent check built on a different identity: convolving the two
    # sine factors of one cavity gives the pair spectral density
    # P(K, x) = (sin(K x)/x - K cos(K x))/2, reducing the fourfold
    # integral to low-dimensional quadratures in K
    wm, xt1, xt2 = 12.0, 0.11, 0.09
    w0 = 1.0

    def pd(K, x):
        return 0.5 * (np.sin(K * x) / x - K * np.cos(K * x))

    def t1_factor(x):
        f = lambda K: pd(K, x) * np.exp(-K / wm) / (w0 + K)
        v, _ = quad(f, 0, 60 * wm, limit=2000, epsabs=0, epsrel=1e-10)
        return v

    t1 = t1_factor(xt1) * t1_factor(xt2)

    def cross(xa, xb):
        def inner(k2, k1):
            return (pd(k1, xa) * pd(k2, xb) * np.exp(-(k1 + k2) / wm)
                    / ((w0 + k1) * (k1 + k2)))
        v, _ = dblquad(inner, 0, 60 * wm, 0, 60 * wm,
                       epsabs=1e-13, epsrel=1e-8)
        return v

    total = t1 + cross(xt1, xt2) + cross(xt2, xt1)
    ref = -total / math.pi**4
    got = continuum_correlation(params_unit, wm, xt1, xt2, rel_tol=1e-9).value
    assert abs(got - ref) / abs(ref) < 1e-5


def test_discrete_sum_converges_to_continuum(params_unit):
    # growing the cavity at fixed distances from the wall walks the
    # discrete correlation onto the continuum value (mode density L/pi)
    xt1, xt2, wm = 0.08, 0.1, 10.0
    cont = continuum_correlation(params_unit, wm, xt1, xt2, rel_tol=1e-9).value
    gaps = []
    for L in (8.0, 16.0, 32.0):
        p = PhysicalParams(1.0, 1.0, L)
        val = squared_field_correlation_discrete(
            p, CutoffSpec.exponential(wm), [L - xt1], [L + xt2],
            negativity="ignore").values[0, 0]
        gaps.append(abs(val / cont - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.005


def test_continuum_large_distance_tail_regression(params_unit):
    # frozen behaviour: at large equal distances the full correlation
    # decays with log-slope near -3 (the cross structures' soft total-pair
    # denominator), not the -4 of the factorized far-field law
    probes = scaling_probe(params_unit, "continuum", "distance",
                           [10.0, 20.0, 40.0], omega_m=1e3, rel_tol=1e-8)
    slopes = [p.log_slope for p in probes]
    assert all(-3.2 < s < -2.9 for s in slopes), slopes


def test_continuum_vs_asymptotic_ratio_regression(params_unit):
    # frozen from the convergence study at omega_m = 1e3 omega0: the ratio
    # to the closed-form far-field law grows roughly linearly in xt
    expected = {5.0: 2394.6459, 10.0: 4958.8077, 20.0: 10017.3809}
    for xt, ref in expected.items():
        cont = continuum_correlation(params_unit, 1e3, xt, xt, rel_tol=1e-8).value
        asym = asymptotic_correlation(params_unit, xt, xt)
        assert abs(cont / asym - ref) < 1e-3 * ref


def test_neval_and_tolerance_reported(params_unit):
    pt = continuum_correlation(params_unit, 10.0, 0.1, 0.1, rel_tol=1e-7)
    assert pt.neval > 0
    assert 0 <= pt.rel_tol <= 1e-7
    full = continuum_correlation(params_unit, 10.0, 0.1, 0.1,
                                 rel_tol=1e-6, method="full_quadrature")
    assert full.method == "full_quadrature"
    assert full.rel_tol <= 1e-6


def test_far_field_vs_quadrature_of_j():
    # C_far = -2 hbar^3 c^3 J / (pi^4 m omega0^2) with J integrated directly
    p = PhysicalParams(mass=2.0, omega0=1.5, length=1.0, hbar=0.7, c=1.3)
    for xt1, xt2 in ((5.0, 5.0), (10.0, 20.0), (7.0, 40.0), (0.3, 0.9)):
        J, _ = quad(lambda v: xt1**2 * xt2**2
                    / ((xt1**2 + v**2)**2 * (xt2**2 + v**2)**2),
                    0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)
        ref = -2.0 * p.hbar**3 * p.c**3 * J / (math.pi**4 * p.mass * p.omega0**2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            val = far_field_correlation(p, xt1, xt2)
        assert abs(val - ref) <= 1e-12 * abs(ref), (xt1, xt2)


def test_far_field_vs_continuum(params_unit):
    # the far-field law of the implemented integral: relative corrections
    # shrink like (c/(omega0 xt))^2
    for (xt1, xt2), tol in (((10.0, 10.0), 0.015), ((40.0, 40.0), 0.001),
                            ((10.0, 20.0), 0.01)):
        cont = continuum_correlation(params_unit, 1e3, xt1, xt2, rel_tol=1e-8).value
        law = far_field_correlation(params_unit, xt1, xt2)
        assert abs(cont / law - 1.0) < tol, (xt1, xt2, cont / law)


def test_far_field_exact_slopes(params_unit):
    for axis, slope in (("mass", -1.0), ("omega0", -2.0), ("distance", -3.0)):
        probes = scaling_probe(params_unit, "far_field", axis,
                               [1.0, 2.0, 4.0] if axis != "distance"
                               else [10.0, 20.0, 40.0])
        for p in probes:
            assert abs(p.log_slope - slope) < 1e-10


def test_far_field_validation(params_unit):
    with pytest.raises(UsageError):
        far_field_correlation(params_unit, 1.0, -2.0)
    with pytest.warns(UserWarning, match="regime"):
        far_field_correlation(params_unit, 0.5, 10.0)

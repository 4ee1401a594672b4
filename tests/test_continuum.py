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

from conftest import (cavity_limit_values, direct_full_level,
                      nested_quad_continuum)

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


def test_partial_analytic_budget_stops_work(params_unit, monkeypatch):
    # the budget is checked against the exponential sums' node pairs
    # before any term (_s2) is evaluated
    calls = []
    s2 = continuum._s2
    monkeypatch.setattr(continuum, "_s2", lambda x, a: calls.append(1) or s2(x, a))
    with pytest.raises(ConvergenceError, match="budget") as exc:
        continuum_correlation(params_unit, 10.0, 0.1, 0.12, rel_tol=1e-8,
                              budget=10)
    assert len(calls) <= 11
    assert exc.value.best_estimate is None


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


def test_full_quadrature_budget_checked_before_pair_arrays(params_unit):
    # a far point has 34380 axis nodes, a nominal cost of 1.4e18 against
    # the default budget 1e8: it fails on the budget before either
    # cavity's folded pair arrays (4.4 GiB) exist; one axis rule is 0.79 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match="budget"):
            continuum_correlation(params_unit, 10.0, 100.0, 100.0,
                                  method="full_quadrature")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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


@pytest.mark.parametrize("wm, xt1, xt2, L0", [(10.0, 0.5, 0.7, 160.0),
                                              (30.0, 0.1, 0.2, 80.0)])
def test_cavity_limit_matches_continuum(params_unit, wm, xt1, xt2, L0):
    # the finite-cavity sums share no integral representation with the
    # continuum path: their error falls as L^-2 (a factor 4 per doubling,
    # which a wrong prefactor or sign would break), then as L^-4, so two
    # Richardson steps on L0, 2 L0 and 4 L0 land on the continuum value
    vals = cavity_limit_values(wm, xt1, xt2, (L0, 2.0 * L0, 4.0 * L0))
    cont = continuum_correlation(params_unit, wm, xt1, xt2, rel_tol=1e-12).value
    err = vals - cont
    assert np.all(np.abs(err[:-1] / err[1:] - 4.0) <= 0.05), err
    once = (4.0 * vals[1:] - vals[:-1]) / 3.0
    twice = (16.0 * once[1] - once[0]) / 15.0
    assert abs(twice - cont) <= 1e-12 * abs(cont)


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


@pytest.mark.parametrize("method", ["partial_analytic", "full_quadrature"])
@pytest.mark.parametrize("xt1", [math.nan, math.inf])
def test_continuum_rejects_non_finite_distance(params_unit, method, xt1):
    with pytest.raises(UsageError, match="distances"):
        continuum_correlation(params_unit, 10.0, xt1, 1.0, method=method)


@pytest.mark.parametrize("law", [asymptotic_correlation, far_field_correlation])
def test_closed_forms_reject_nan_distance(params_unit, law):
    with pytest.raises(UsageError, match="distances"):
        law(params_unit, math.nan, 1.0)


def test_scaling_probe_rejects_nan_distance(params_unit):
    with pytest.raises(UsageError, match="xt must be positive"):
        scaling_probe(params_unit, "far_field", "mass", [1.0, 2.0, 4.0], xt=math.nan)
    with pytest.raises(UsageError, match="probe points"):
        scaling_probe(params_unit, "far_field", "distance", [10.0, 20.0, math.inf])


def test_continuum_rejects_nan_rel_tol(params_unit):
    with pytest.raises(UsageError, match="rel_tol"):
        continuum_correlation(params_unit, 10.0, 1.0, 1.0, rel_tol=math.nan)


@pytest.mark.parametrize("method", ["partial_analytic", "full_quadrature"])
def test_continuum_rejects_nan_budget(params_unit, method):
    # n > nan is never true: a NaN budget would never stop the work
    with pytest.raises(UsageError, match="budget"):
        continuum_correlation(params_unit, 10.0, 1.0, 1.0, method=method,
                              budget=math.nan)


def test_partial_analytic_tolerance_below_quad_floor(params_unit):
    # the reported tolerance is a constant floor of 256 eps; the
    # achieved-tolerance check accepts a request above it and fails an
    # unreachable one with its best estimate
    ref = continuum_correlation(params_unit, 10.0, 1.0, 1.0, rel_tol=1e-10).value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad's roundoff warnings
        fine = continuum_correlation(params_unit, 10.0, 1.0, 1.0, rel_tol=1e-13)
        with pytest.raises(ConvergenceError, match="requested 1.00e-16") as exc:
            continuum_correlation(params_unit, 10.0, 1.0, 1.0, rel_tol=1e-16)
    assert fine.rel_tol <= 1e-13
    assert abs(fine.value - ref) <= 1e-10 * abs(ref)
    assert abs(exc.value.best_estimate - ref) <= 1e-10 * abs(ref)
    assert 1e-16 < exc.value.achieved_rel_tol < 1e-12


# (omega0, c, omega_m, xt1, xt2): seven points from the near field to
# 40 c/omega0, one of them at non-unit omega0 and c, two with distances
# three and five decades apart, where 1/y must be followed from
# 1e-8 c/max(xt) up over every scale of both cavities, and both distances
# at a tenth of c/omega_m
NESTED_QUAD_POINTS = [
    (1.0, 1.0, 10.0, 0.1, 0.12), (1.0, 1.0, 15.0, 0.15, 0.15),
    (1.0, 1.0, 1.0, 0.5, 0.5), (1.0, 1.0, 1e3, 5.0, 5.0),
    (1.0, 1.0, 1e3, 10.0, 20.0), (1.0, 1.0, 1e3, 40.0, 40.0),
    (2.5, 0.7, 30.0, 0.3, 0.05),
    (1.0, 1.0, 1e3, 0.01, 5.0), (1.0, 1.0, 1e3, 0.3, 30.0),
    (1.0, 1.0, 10.0, 0.01, 0.01),
]


@pytest.mark.parametrize("omega0, c, wm, xt1, xt2", NESTED_QUAD_POINTS)
def test_partial_analytic_matches_nested_quad(omega0, c, wm, xt1, xt2):
    p = PhysicalParams(mass=1.5, omega0=omega0, length=1.0, c=c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad's roundoff warnings
        ref = nested_quad_continuum(p, wm, xt1, xt2, rel_tol=1e-10)
    got = continuum_correlation(p, wm, xt1, xt2, rel_tol=1e-12)
    assert abs(got.value - ref) <= 1e-12 * abs(ref)
    assert abs(got.value - ref) <= got.rel_tol * abs(ref)


@pytest.mark.parametrize("axis, points", [("mass", [1.0, 2.0, 4.0]),
                                          ("omega0", [0.5, 1.0, 2.0]),
                                          ("distance", [0.2, 3.0, 40.0])])
def test_scaling_probe_matches_single_points(axis, points):
    # the probe's values are those of continuum_correlation at each point
    p = PhysicalParams(mass=1.5, omega0=1.2, length=1.0, hbar=0.9, c=1.1)
    probes = scaling_probe(p, "continuum", axis, points, xt=0.7, omega_m=50.0,
                           rel_tol=1e-10)
    for probe in probes:
        q, x = p, 0.7
        if axis == "mass":
            q = p.with_mass(probe.parameter)
        elif axis == "omega0":
            q = PhysicalParams(p.mass, probe.parameter, p.length, p.hbar, p.c)
        else:
            x = probe.parameter
        single = continuum_correlation(q, 50.0, x, x, rel_tol=1e-10).value
        assert abs(probe.value - single) <= 1e-15 * abs(single)


def test_scaling_probe_calls_continuum_once_per_point(monkeypatch):
    # every probe point goes through continuum_correlation, so whatever
    # counts its evaluations (a traced neval) sees the probe's nodes too
    p = PhysicalParams(mass=1.0, omega0=1.0, length=1.0)
    calls = []
    single = continuum.continuum_correlation
    monkeypatch.setattr(continuum, "continuum_correlation",
                        lambda *a, **k: calls.append(a) or single(*a, **k))
    probes = scaling_probe(p, "continuum", "distance", [0.5, 1.0, 2.0, 4.0],
                           omega_m=20.0)
    assert [a[2:4] for a in calls] == [(x, x) for x in (0.5, 1.0, 2.0, 4.0)]
    assert [probe.value for probe in probes] == [
        single(p, 20.0, x, x).value for x in (0.5, 1.0, 2.0, 4.0)]


def test_long_scaling_probe_memory_bound():
    # a long probe holds the arrays of one point at a time
    p = PhysicalParams(mass=1.0, omega0=1.0, length=1.0)
    points = np.geomspace(0.05, 40.0, 120)
    tracemalloc.start()
    try:
        scaling_probe(p, "continuum", "distance", points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20

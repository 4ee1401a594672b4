import tracemalloc

import numpy as np
import pytest

from vacmirror import (CutoffSpec, default_grid, delta_energy_density,
                       em_field_fluctuations, photon_spectrum,
                       squared_field_correlation_discrete)
from vacmirror.kernels import exp_sum, geometric_sums

from conftest import params_for_lambda

W0 = W1 = np.pi          # omega0 = pi on the unit cavity, omega1 = pi c / L


@pytest.mark.parametrize("lo, hi", [
    (W0 + 2 * W1, W0 + 2 * 3 * W1),          # 1/(omega0 + W), N = 3
    (W0 + 2 * W1, W0 + 2 * 738 * W1),        # N = 738
    (W0 + 2 * W1, W0 + 2 * 36842 * W1),      # N = 36842
    (4 * W1, 4 * 36842 * W1),                # 1/(W_t + W_u), N = 36842
    (0.0118, 1207.0)])                       # 1/(K1 + K2), continuum, 1.5^6
def test_exp_sum_fits_inverse(lo, hi):
    e, w = exp_sum(lo, hi)
    assert len(e) <= 250
    x = np.geomspace(lo, hi, 20_001)
    fit = np.exp(-np.outer(x, e)) @ w
    assert np.max(np.abs(fit * x - 1.0)) <= 1e-15


def test_exp_sum_gauss_tail_at_max_modes():
    # 1/(omega0 + W) at N = 184208: the Gauss rule that stands for the
    # lower tail keeps the fit, with positive weights and few nodes
    N = 184208
    lo, hi = W0 + 2 * W1, W0 + 2 * N * W1
    e, w = exp_sum(lo, hi)
    assert len(e) <= 80
    assert np.all(w > 0)
    x = np.geomspace(lo, hi, 20_001)
    fit = np.exp(-np.outer(x, e)) @ w
    assert np.max(np.abs(fit * x - 1.0)) <= 1e-15


@pytest.mark.parametrize("n", [1, 3, 65, 7370])
def test_geometric_sums_match_direct_sums(n):
    # sum_k k^p Z^k against the terms summed in np.longdouble, with and
    # without a shift and as imaginary parts: rates and phases from those
    # summed term by term (n |a| < 2) to large ones, and rates where n^p Z^n
    # is just above and just below the unit roundoff.  They are dyadic, so
    # n x and n theta are exact and the closed form's own error shows
    band = np.round(np.array([38.0, 45.0]) / n * 4096) / 4096
    d = np.concatenate([2.0 ** np.arange(-30, 2, 4), band])
    theta = np.concatenate([[0.0], 2.0 ** np.arange(-30, 2, 4), [3.0]])
    shift = 2.0 ** np.array([-26.0, -12.0, -2.0])
    k = np.arange(1, n + 1, dtype=np.longdouble)
    phase = np.outer(k, theta.astype(np.longdouble))
    cos, sin = np.cos(phase), np.sin(phase)
    worst = 0.0
    for p in (0, 1):
        sums = geometric_sums(d, theta, n, p)
        shifted = geometric_sums(d, theta, n, p, shift)
        imag = geometric_sums(d, theta, n, p, shift, imag=True)
        for i, x in enumerate(d):
            for j, f in enumerate(np.concatenate([[0.0], shift])):
                terms = k**p * np.exp(-(np.longdouble(x) + np.longdouble(f)) * k)
                ref = (terms @ cos).astype(float) + 1j * (terms @ sin).astype(float)
                if j == 0:
                    errors = [sums[:, i] - ref]
                else:
                    errors = [shifted[:, j - 1, i] - ref,
                              imag[:, j - 1, i] - ref.imag]
                for err in errors:
                    worst = max(worst, np.max(np.abs(err) / np.abs(ref)))
    assert worst <= 16 * np.finfo(float).eps


def test_engines_at_large_mode_count_stay_small():
    # exp:1000 omega0 is N = 36842 modes: the N x N tables of the direct
    # sums alone would take 10 GiB and the pair arrays of the spectrum 5 GiB
    p = params_for_lambda(0.05, omega0=np.pi)
    cut = CutoffSpec.exponential(1000 * np.pi)
    grid = default_grid(p)
    x1 = np.linspace(0.05, 0.95, 10)
    calls = [(lambda: delta_energy_density(p, cut, grid), "values"),
             (lambda: em_field_fluctuations(p, cut, grid, "E"), "values"),
             (lambda: delta_energy_density(p, cut, grid, state="second_order"),
              "values"),
             (lambda: em_field_fluctuations(p, cut, grid, "E",
                                            state="second_order"), "values"),
             (lambda: squared_field_correlation_discrete(p, cut, x1, 1.0 + x1),
              "values"),
             (lambda: photon_spectrum(p, cut), "weights")]
    for call, field in calls:
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.all(np.isfinite(getattr(out, field)))


def test_closed_form_engines_build_no_mode_tables():
    # exp:5000 omega0 is N = 184208 modes: the profiles and the correlation
    # need only the count, and their O(N) mode and index-sum tables alone
    # would take 18 MiB
    p = params_for_lambda(0.05, omega0=np.pi)
    cut = CutoffSpec.exponential(5000 * np.pi)
    for call in (lambda: delta_energy_density(p, cut, default_grid(p)),
                 lambda: squared_field_correlation_discrete(p, cut, [0.5], [1.5])):
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.n_modes == 184208
        assert peak < 4 * 2**20

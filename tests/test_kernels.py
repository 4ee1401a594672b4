import tracemalloc

import numpy as np
import pytest

from vacmirror import (CutoffSpec, default_grid, delta_energy_density,
                       em_field_fluctuations, photon_spectrum,
                       squared_field_correlation_discrete)
from vacmirror.kernels import blocks, exp_sum, phases

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


def test_phases_as_accurate_as_cos_sin():
    # the rotated table against cos and sin of the exact phase n pi x / L,
    # taken in np.longdouble: no less accurate than np.cos and np.sin of
    # the rounded products k_n x, in rms and in max, at N = 184208 modes
    # (phases up to 5.8e5) on blocks of an engine's size
    N, L = 184208, 1.0
    k = np.arange(1, N + 1) * (np.pi / L)
    x = np.array([0.01, 0.3, 0.5, 0.77, 0.99])
    mode_blocks = blocks(N, 170)
    table = phases(k, x, mode_blocks[0].stop)
    z = np.vstack([table(b) for b in mode_blocks])
    pi = np.longdouble("3.14159265358979323846264338327950288")
    exact = np.outer(np.arange(1, N + 1, dtype=np.longdouble) * pi / L,
                     x.astype(np.longdouble))
    for part, trig in ((z.real, np.cos), (z.imag, np.sin)):
        ref = trig(exact)
        rotated = (part - ref).astype(float)
        direct = (trig(np.outer(k, x)) - ref).astype(float)
        assert np.sqrt(np.mean(rotated**2)) <= 1.1 * np.sqrt(np.mean(direct**2))
        assert np.max(np.abs(rotated)) <= 1.1 * np.max(np.abs(direct))


def test_phases_one_block_is_cos_sin():
    k = np.arange(1, 6) * np.pi
    x = np.array([0.1, 0.5, 0.9])
    z = phases(k, x, 5)(slice(0, 5))
    kx = np.outer(k, x)
    assert np.array_equal(z.real, np.cos(kx))
    assert np.array_equal(z.imag, np.sin(kx))


def test_engines_at_large_mode_count_stay_small():
    # exp:1000 omega0 is N = 36842 modes: the N x N tables of the direct
    # sums alone would take 10 GiB and the pair arrays of the spectrum 5 GiB
    p = params_for_lambda(0.05, omega0=np.pi)
    cut = CutoffSpec.exponential(1000 * np.pi)
    grid = default_grid(p)
    x1 = np.linspace(0.05, 0.95, 10)
    calls = [(lambda: delta_energy_density(p, cut, grid), "values"),
             (lambda: em_field_fluctuations(p, cut, grid, "E"), "values"),
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

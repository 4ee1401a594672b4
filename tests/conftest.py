"""Shared fixtures and brute-force reference implementations.

The reference functions below are deliberately naive (plain loops over
every summand, straight from the defining formulas) so they stay
independent of the vectorized production code they check.
"""

import math

import numpy as np
import pytest

from vacmirror import PhysicalParams


@pytest.fixture
def params_unit():
    """hbar = c = m = omega0 = L = 1."""
    return PhysicalParams(mass=1.0, omega0=1.0, length=1.0)


@pytest.fixture
def params_weak():
    """lambda = 0.05 with omega0 = L = 1."""
    return PhysicalParams(mass=50.0, omega0=1.0, length=1.0)


def mode_freqs(params, n):
    return params.c * np.pi * np.arange(1, n + 1) / params.length


def exp_weight(freqs, omega_m):
    return np.exp(-sum(freqs) / omega_m)


def brute_energy_shift(params, n, omega_m=None):
    """Ordered double sum of the energy-shift formula."""
    w = mode_freqs(params, n)
    tot = 0.0
    for wk in w:
        for wj in w:
            wgt = 1.0 if omega_m is None else exp_weight([wk, wj], omega_m)
            tot += wgt * wk * wj / (params.omega0 + wk + wj)
    pre = params.hbar**2 / (4 * params.length**2 * params.mass * params.omega0)
    return -pre * tot


def blocked_energy_shift(params, n, pair_weight, block=256):
    """Ordered double sum of the energy-shift formula, row block by row block.

    pair_weight maps total pair frequencies w_k + w_j to cutoff weights.
    """
    w = mode_freqs(params, n)
    parts = []
    for lo in range(0, n, block):
        wk = w[lo:lo + block, None]
        tot = wk + w[None, :]
        parts.append(float(np.sum(pair_weight(tot) * wk * w[None, :]
                                  / (params.omega0 + tot))))
    pre = params.hbar**2 / (4 * params.length**2 * params.mass * params.omega0)
    return -pre * math.fsum(parts)


def brute_delta_energy_density(params, n, x, omega_m=None):
    """Triple loop over all (j, k, l) summands of the energy-density change."""
    w = mode_freqs(params, n)
    c = params.c
    tot = 0.0
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                wj, wk, wl = w[j - 1], w[k - 1], w[l - 1]
                wgt = 1.0 if omega_m is None else exp_weight([wj, wk, wl], omega_m)
                tot += ((-1) ** (k + l) * wj * wk * wl * wgt
                        / ((params.omega0 + wj + wk) * (params.omega0 + wj + wl))
                        * np.cos((wk - wl) * x / c))
    pre = params.hbar**2 / (2 * params.length**3 * params.mass * params.omega0)
    return pre * tot


def brute_em_fluct(params, n, x, component, omega_m=None):
    w = mode_freqs(params, n)
    kk = w / params.c
    trig = np.sin if component == "E" else np.cos
    tot = 0.0
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                wj, wl, wm = w[j - 1], w[l - 1], w[m - 1]
                wgt = 1.0 if omega_m is None else exp_weight([wj, wl, wm], omega_m)
                tot += ((-1) ** (l + m) * wj * wl * wm * wgt
                        / ((params.omega0 + wj + wl) * (params.omega0 + wj + wm))
                        * trig(kk[l - 1] * x) * trig(kk[m - 1] * x))
    pre = params.hbar**2 / (params.mass * params.omega0 * params.length**3)
    return pre * tot


def brute_delta_phi_squared(params, n, x, omega_m=None):
    w = mode_freqs(params, n)
    kk = w / params.c
    tot = 0.0
    for j in range(1, n + 1):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                wj, wp, wq = w[j - 1], w[p - 1], w[q - 1]
                wgt = 1.0 if omega_m is None else exp_weight([wj, wp, wq], omega_m)
                tot += ((-1) ** (p + q) * wj * wgt
                        / ((params.omega0 + wj + wp) * (params.omega0 + wj + wq))
                        * np.sin(kk[p - 1] * x) * np.sin(kk[q - 1] * x))
    pre = (params.hbar**2 * params.c**2
           / (params.length**3 * params.mass * params.omega0))
    return pre * tot


def brute_correlation(params, n, x1, x2, omega_m=None):
    """All (p, q, r, s) summands of the cross-cavity correlation."""
    w = mode_freqs(params, n)
    kk = w / params.c
    w0 = params.omega0
    tot = 0.0
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            for r in range(1, n + 1):
                for s in range(1, n + 1):
                    wp, wq, wr, ws = w[p - 1], w[q - 1], w[r - 1], w[s - 1]
                    wgt = (1.0 if omega_m is None
                           else exp_weight([wp, wq, wr, ws], omega_m))
                    sins = (np.sin(kk[p - 1] * x1) * np.sin(kk[q - 1] * x1)
                            * np.sin(kk[r - 1] * x2) * np.sin(kk[s - 1] * x2))
                    term = (sins / ((w0 + wp + wq) * (w0 + wr + ws))
                            + sins / ((w0 + wp + wq) * (wp + wq + wr + ws))
                            + sins / ((w0 + wr + ws) * (wp + wq + wr + ws)))
                    tot += (-1) ** (p + q + r + s) * wgt * term
    pre = (params.hbar**3 * params.c**4
           / (params.length**4 * params.mass * params.omega0))
    return -pre * tot


def params_for_lambda(lam, omega0=1.0, length=1.0, hbar=1.0, c=1.0):
    """Mirror mass giving the requested dimensionless coupling."""
    mass = hbar / (8.0 * lam**2 * omega0 * length**2)
    return PhysicalParams(mass=mass, omega0=omega0, length=length, hbar=hbar, c=c)

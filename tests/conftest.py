"""Shared fixtures and brute-force reference implementations.

The reference functions below are deliberately naive (plain loops over
every summand, straight from the defining formulas) so they stay
independent of the vectorized production code they check.
"""

import math

import numpy as np
import pytest

from vacmirror import PhysicalParams
from vacmirror.continuum import _axis_rule


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


def brute_second_order_term(params, n, x, kind, omega_m=None):
    """Triple loop over all (j, k, l) summands of 2 Re <0|:O:|g2>.

    The term the complete second-order profiles add to the first-order
    state expectation: the summand of the matching brute_* function with
    1/((w0+w_j+w_k)(w0+w_j+w_l)) replaced by
    sigma (1/(w0+w_j+w_k) + 1/(w0+w_j+w_l)) / (w_k + w_l), where sigma is
    +1 for phi and gradient factors and -1 for phi_dot factors.  For the
    energy density the two factor types combine into
    cos k_k x cos k_l x - sin k_k x sin k_l x = cos((k_k + k_l) x).
    kind is 'energy_density', 'E', 'B' or 'phi2'.
    """
    w = mode_freqs(params, n)
    kk = w / params.c
    w0 = params.omega0
    tot = 0.0
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                wj, wk, wl = w[j - 1], w[k - 1], w[l - 1]
                wgt = 1.0 if omega_m is None else exp_weight([wj, wk, wl], omega_m)
                den = (1 / (w0 + wj + wk) + 1 / (w0 + wj + wl)) / (wk + wl)
                if kind == "energy_density":
                    num = wj * wk * wl * np.cos((kk[k - 1] + kk[l - 1]) * x)
                elif kind == "E":
                    num = -wj * wk * wl * np.sin(kk[k - 1] * x) * np.sin(kk[l - 1] * x)
                elif kind == "B":
                    num = wj * wk * wl * np.cos(kk[k - 1] * x) * np.cos(kk[l - 1] * x)
                else:
                    num = wj * np.sin(kk[k - 1] * x) * np.sin(kk[l - 1] * x)
                tot += (-1) ** (k + l) * wgt * num * den
    pre = params.hbar**2 / (params.mass * params.omega0 * params.length**3)
    if kind == "energy_density":
        pre = pre / 2
    elif kind == "phi2":
        pre = pre * params.c**2
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


def direct_full_level(params, omega_m, xt1, xt2, k_max, k_struct, scale,
                      budget, spent):
    """One full-quadrature level over every ordered pair (p, q) of each cavity.

    The unfolded evaluation of the tensor Gauss-Legendre rule: full n^2
    pair arrays and 4096-row blocks of the kernel 1/(c (K1 + K2)).
    """
    def pair_arrays(xt):
        k, w = _axis_rule(xt, k_max, k_struct, scale)
        amp = w * np.sin(k * xt) * np.exp(-params.c * k / omega_m)
        return np.outer(amp, amp).ravel(), (k[:, None] + k[None, :]).ravel()

    w0, c = params.omega0, params.c
    P1, K1 = pair_arrays(xt1)
    P2, K2 = pair_arrays(xt2)
    cost = K1.size * K2.size
    if spent + cost > budget:
        return None, cost
    D1 = 1.0 / (w0 + c * K1)
    D2 = 1.0 / (w0 + c * K2)
    t1 = float(np.dot(P1, D1) * np.dot(P2, D2))
    cross = 0.0
    block = 4096
    P2D2 = P2 * D2
    for lo in range(0, K1.size, block):
        hi = min(lo + block, K1.size)
        Kb = 1.0 / (c * (K1[lo:hi, None] + K2[None, :]))
        cross += float((P1[lo:hi] * D1[lo:hi]) @ (Kb @ P2))
        cross += float(P1[lo:hi] @ (Kb @ P2D2))
    return t1 + cross, cost


def params_for_lambda(lam, omega0=1.0, length=1.0, hbar=1.0, c=1.0):
    """Mirror mass giving the requested dimensionless coupling."""
    mass = hbar / (8.0 * lam**2 * omega0 * length**2)
    return PhysicalParams(mass=mass, omega0=omega0, length=length, hbar=hbar, c=c)

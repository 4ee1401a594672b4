"""Shared fixtures and brute-force reference implementations.

The reference functions below are deliberately naive (plain loops over
every summand, straight from the defining formulas) so they stay
independent of the vectorized production code they check.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad

from vacmirror import (CavityTag, CutoffSpec, ModeSet, ObservableProfile,
                       PhysicalParams, UsageError, coupling_matrix_element, model,
                       squared_field_correlation_discrete)
from vacmirror.continuum import _axis_rule
from vacmirror.kernels import exp_sum
from vacmirror.single_cavity import STATES
from vacmirror.two_cavity import _check_grid


@pytest.fixture(autouse=True)
def cold_mass_free_sum(monkeypatch):
    """Every test starts with no remembered mode sum (see
    model.mass_free_sum), so no test depends on the one run before it."""
    monkeypatch.setattr(model, "_last_sum", None)


@pytest.fixture
def params_unit():
    """hbar = c = m = omega0 = L = 1."""
    return PhysicalParams(mass=1.0, omega0=1.0, length=1.0)


@pytest.fixture
def params_weak():
    """lambda = 0.05 with omega0 = L = 1."""
    return PhysicalParams(mass=50.0, omega0=1.0, length=1.0)


# pi to 36 digits, for the extended-precision references
PI_LD = np.longdouble("3.14159265358979323846264338327950288")


def prefactor(params, hbar_power, c_power, length_power):
    """hbar^a c^b / (L^d m omega0) in np.longdouble, the prefactor of a
    brute_* reference."""
    hbar, c, m, w0, L = (np.longdouble(v) for v in (
        params.hbar, params.c, params.mass, params.omega0, params.length))
    return hbar**hbar_power * c**c_power / (L**length_power * m * w0)


def mode_freqs(params, n):
    """The frequencies k pi c / L, k = 1 .. n, in np.longdouble, so every
    brute_* loop below sums in extended precision: a float64 loop rounds
    about 1e-14 of a profile at N = 3, as much as the bounds it checks."""
    ld = np.longdouble
    return np.arange(1, n + 1, dtype=ld) * (PI_LD * ld(params.c)
                                            / ld(params.length))


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
    return -prefactor(params, 2, 0, 2) / 4 * tot


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
    return prefactor(params, 2, 0, 3) / 2 * tot


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
    return prefactor(params, 2, 0, 3) * tot


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
    return prefactor(params, 2, 2, 3) * tot


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
    if kind == "energy_density":
        return prefactor(params, 2, 0, 3) / 2 * tot
    return prefactor(params, 2, 2 if kind == "phi2" else 0, 3) * tot


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
    return -prefactor(params, 3, 4, 4) * tot


def _cutoff_factor(spec, total, largest):
    """Cutoff weight of summands whose participating mode frequencies add
    up to `total` and peak at `largest` (elementwise)."""
    if spec.kind == "exp":
        return np.exp(-np.asarray(total) / spec.omega_m)
    passing = largest if spec.sharp_rule == "per_mode" else total
    return np.where(np.asarray(passing) <= spec.omega_m, 1.0, 0.0)


def mode_tables(params, cutoff, n_max=None):
    """(modes, damp, W, h): the mode set, each mode's cutoff weight (None
    for the sharp 'total' rule, which does not factorize), and at position
    s - 2, s = 2 .. 2N, the pair frequency W = s omega1 and the
    denominator h = 1/(omega0 + W)."""
    modes = ModeSet.build(params, cutoff, n_max)
    w = modes.frequencies
    W = params.omega1 * np.arange(2, 2 * len(modes) + 1, dtype=float)
    h = 1.0 / (params.omega0 + W)
    damp = (_cutoff_factor(cutoff, w, w)
            if cutoff.kind == "exp" or cutoff.sharp_rule == "per_mode" else None)
    return modes, damp, W, h


def _sine_tables(modes, damp, xt):
    """v[p, i] = g_p sin(k_p xt_i), the damped mode functions at each point."""
    return damp[:, None] * np.sin(np.outer(modes.wavenumbers, xt))


DIRECT_KERNEL_BLOCK = 512


def direct_pair_sums(v):
    """R[i, t] = sum_{p+q=t+2} v_p v_q via one convolution per grid point."""
    npts = v.shape[1]
    n = v.shape[0]
    R = np.empty((npts, 2 * n - 1))
    for i in range(npts):
        R[i] = np.convolve(v[:, i], v[:, i])
    return R


def direct_cross_term(R1, D1, R2, W):
    """sum_{t,u} R1[:,t] R2[:,u] (D1_t + D1_u) / (W_t + W_u), blockwise."""
    S1 = R1 * D1[None, :]
    S2 = R2 * D1[None, :]
    out = np.zeros((R1.shape[0], R2.shape[0]))
    T = W.size
    for lo in range(0, T, DIRECT_KERNEL_BLOCK):
        hi = min(lo + DIRECT_KERNEL_BLOCK, T)
        K = 1.0 / (W[lo:hi, None] + W[None, :])        # (block, T)
        out += S1[:, lo:hi] @ (K @ R2.T)
        out += R1[:, lo:hi] @ (K @ S2.T)
    return out


def _correlation_tables(params, cutoff, x1, x2, n_max):
    L = params.length
    modes, damp, W, h = mode_tables(params, cutoff, n_max)
    v1 = _sine_tables(modes, damp, L - np.asarray(x1, dtype=float))
    v2 = _sine_tables(modes, damp, np.asarray(x2, dtype=float) - L)
    pre = (params.hbar**3 * params.c**4
           / (L**4 * params.mass * params.omega0))
    return v1, v2, W, h, pre


def direct_correlation(params, cutoff, x1, x2, n_max=None):
    """The correlation values by per-point convolutions and the blocked
    Cauchy kernel 1/(W_t + W_u), all in float64."""
    v1, v2, W, h, pre = _correlation_tables(params, cutoff, x1, x2, n_max)
    R1 = direct_pair_sums(v1)
    R2 = direct_pair_sums(v2)
    return -pre * (np.outer(R1 @ h, R2 @ h) + direct_cross_term(R1, h, R2, W))


def longdouble_correlation(params, cutoff, x1, x2, n_max=None, block=256):
    """The direct formula of `direct_correlation` summed in np.longdouble.

    The float64 mode tables (damped sines, W, h) are its exact inputs;
    every pair sum, kernel entry 1/(W_t + W_u) and contraction is carried
    out in extended precision, the kernel in row blocks.
    """
    v1, v2, W, h, pre = _correlation_tables(params, cutoff, x1, x2, n_max)
    ld = np.longdouble
    R1 = np.array([np.convolve(c, c) for c in v1.T.astype(ld)])
    R2 = np.array([np.convolve(c, c) for c in v2.T.astype(ld)])
    W, h = W.astype(ld), h.astype(ld)
    total = np.outer(R1 @ h, R2 @ h)
    for lo in range(0, W.size, block):
        K = 1 / (W[lo:lo + block, None] + W[None, :])
        H = h[lo:lo + block, None] + h[None, :]
        total += R1[:, lo:lo + block] @ (K * H) @ R2.T
    return -ld(pre) * total


def longdouble_profile(params, cutoff, xc, kind, state, n_max=None):
    """The profile `kind` ('energy_density', 'E', 'B' or 'phi2') in the
    form `state` on the cavity-coordinate grid xc, summed in np.longdouble.

    The kernels 1/(omega0 + w_j + w_k) and 1/(w_k + w_l) are the engines'
    exponential sums (`kernels.exp_sum`), whose float64 nodes and weights
    are taken as exact.  Everything else is extended precision: the
    frequencies k pi c / L and the trig factors of the exact phases
    k pi x / L, with pi to 36 digits, the cutoff weights and every mode
    sum, contracted per mode as in the defining formulas (see
    `direct_profile_sum`).  The energy density is its cos and sin parts,
    the second-order term of the sin part with the opposite sign.
    """
    ld = np.longdouble
    pi = PI_LD
    modes = ModeSet.build(params, cutoff, n_max)
    n = len(modes)
    k = np.arange(1, n + 1, dtype=ld)
    w = k * (pi * ld(params.c) / ld(params.length))
    g = (np.exp(-w / ld(cutoff.omega_m)) if cutoff.kind == "exp"
         else np.ones(n, ld))
    phase = np.outer(k * pi / ld(params.length), np.asarray(xc, ld))
    w1 = params.omega1
    e, a = exp_sum(params.omega0 + 2.0 * w1, params.omega0 + 2.0 * n * w1)
    e, a = e.astype(ld), a.astype(ld) * np.exp(-e.astype(ld) * ld(params.omega0))
    ep, ap = (v.astype(ld) for v in exp_sum(2.0 * w1, 2.0 * n * w1))
    E, Ep = np.exp(-np.outer(w, e)), np.exp(-np.outer(w, ep))
    o = w * g
    R = E @ (a * (o @ E))           # R_k = sum_j o_j / (omega0 + w_j + w_k)
    numer = np.ones(n, ld) if kind == "phi2" else w
    coef = np.where(modes.indices % 2 == 0, ld(1), ld(-1)) * numer * g
    parts = {"energy_density": (("cos", 1), ("sin", -1)), "E": (("sin", -1),),
             "B": (("cos", 1),), "phi2": (("sin", 1),)}[kind]
    vals = np.zeros(len(xc), ld)
    for trig, sigma in parts:
        T = coef[:, None] * {"cos": np.cos, "sin": np.sin}[trig](phase)
        vals += o @ (E @ (a[:, None] * (E.T @ T)))**2
        if state == "second_order":
            U = Ep @ (ap[:, None] * (Ep.T @ T))
            vals += 2 * sigma * (R @ (T * U))
    pre = ld(params.hbar)**2 / (ld(params.mass) * ld(params.omega0)
                               * ld(params.length)**3)
    if kind == "energy_density":
        pre = pre / 2
    elif kind == "phi2":
        pre = pre * ld(params.c)**2
    return pre * vals


def direct_profile_sum(params, cutoff, n_max, xc, trigs, freq_numerator,
                       sigma, state):
    """Mode count and the profile's mode sum on the grid xc, by Hankel views.

    The direct O(N^2) form of `single_cavity._contract`: the N x N
    denominator table as a view of h, multiplied out in float64.

    trigs holds one trig per field factor.  With T_k(x) = c_k trig(k_k x),
    c_k = s_k n_k g_k and the numerator n_k = w_k if freq_numerator else 1,
    the first-order form is sum_j o_j F_j(x)^2 with o_j = w_j g_j and the
    per-j inner sums F_j = sum_k h[j+k] T_k.

    The second-order form adds 2 sigma sum_k R_k T_k U_k with
    R_k = sum_j h[j+k] o_j and U_k = sum_l T_l / W[k+l] (sigma as in the
    module docstring).  sigma is None for the energy density: its gradient
    (sigma = +1, cos) and kinetic (sigma = -1, sin) factors combine into
    cos k_k x cos k_l x - sin k_k x sin k_l x = cos((k_k + k_l) x), so its
    extra term depends on the index sum s = k + l only and is the O(N)
    sum 2 sum_s Q_s cos(W[s] x / c) / W[s], Q_s = sum_{k+l=s} R_k c_k c_l.
    """
    if state not in STATES:
        raise UsageError(f"state must be one of {STATES}, got {state!r}")
    modes, damp, W, h = mode_tables(params, cutoff, n_max)
    if damp is None:
        raise UsageError(
            "sharp cutoff with the 'total' rule does not factorize; "
            "the profiles support sharp_rule='per_mode' only")
    n = len(modes)
    w = modes.frequencies
    signs = np.where(modes.indices % 2 == 0, 1.0, -1.0)
    coef = signs * w * damp if freq_numerator else signs * damp
    outer = w * damp
    denom = sliding_window_view(h, n)   # D[j, k] = h[j + k], a Hankel view
    vals = outer @ sum(
        ((denom * coef[None, :]) @ trig(np.outer(modes.wavenumbers, xc)))**2
        for trig in trigs)
    if state == "first_order":
        return n, vals
    R = denom @ outer
    if sigma is None:
        Q = np.convolve(R * coef, coef)          # position s - 2, like W
        return n, vals + 2.0 * (Q / W) @ np.cos(np.outer(W / params.c, xc))
    T = coef[:, None] * trigs[0](np.outer(modes.wavenumbers, xc))
    pair = sliding_window_view(1.0 / W, n)      # 1/(w_k + w_l), also Hankel
    return n, vals + 2.0 * sigma * (R @ (T * (pair @ T)))


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


def nested_quad_continuum(params, omega_m, xt1, xt2, rel_tol=1e-10):
    """The partial-analytic correlation by nested adaptive quadrature.

    The defining integrals of the module docstring of `continuum`, each
    by scipy's quad: A(xt) = int_0^inf dt e^(-w0 t) S(xt, b + c t)^2 at
    offset b, T1 = A(xt1) A(xt2), and T2 (T3) as a quad in u over the
    inner A(xt1) (A(xt2)) at offset c u.  Each outer quadrature asks for
    rel_tol / 8, each inner one for a quarter of that, clamped at quad's
    floor of 50 eps.
    """
    w0, c = params.omega0, params.c
    floor = 50.0 * np.finfo(float).eps

    def s2(x, a):
        return (x / (x * x + a * a)) ** 2

    def a_integral(xt, offset, eps):
        base = offset + c / omega_m
        return quad(lambda t: math.exp(-w0 * t) * s2(xt, base + c * t),
                    0.0, np.inf, epsabs=0.0, epsrel=max(eps, floor), limit=400)[0]

    def b_integral(xt_a, xt_b, eps):
        def outer(u):
            inner = a_integral(xt_a, c * u, eps / 4.0)
            return s2(xt_b, c / omega_m + c * u) * inner
        return quad(outer, 0.0, np.inf, epsabs=0.0, epsrel=max(eps, floor),
                    limit=400)[0]

    eps = rel_tol / 8.0
    total = (a_integral(xt1, 0.0, eps) * a_integral(xt2, 0.0, eps)
             + b_integral(xt1, xt2, eps) + b_integral(xt2, xt1, eps))
    pre = params.hbar**3 * c**4 / (math.pi**4 * params.mass * w0)
    return -pre * total


def cavity_limit_values(omega_m, xt1, xt2, lengths):
    """The discrete correlation at distances xt1, xt2 from the movable wall
    (x1 = L - xt1, x2 = L + xt2) for each cavity length L, with
    hbar = c = m = omega0 = 1 and the exponential cutoff omega_m.

    As L grows at fixed distances the mode sums become the wavenumber
    integrals of the continuum (mode density L/pi per axis), so these
    values tend to `continuum_correlation` at the same point.
    """
    cutoff = CutoffSpec.exponential(omega_m)
    return np.array([
        squared_field_correlation_discrete(
            PhysicalParams(1.0, 1.0, L), cutoff, [L - xt1], [L + xt2]).values[0, 0]
        for L in lengths])


def cutoff_weight(spec, freqs) -> float:
    """Regularization weight in [0, 1] for one summand.

    freqs lists the frequencies of every field mode participating in the
    summand (a mode occurring once per summation index).
    """
    f = np.asarray(freqs, dtype=float)
    if f.size == 0:
        raise UsageError("cutoff_weight needs at least one frequency")
    if np.any(f < 0):
        raise UsageError("frequencies must be non-negative")
    return float(_cutoff_factor(spec, f.sum(), f.max()))


def energy_shift_from_amplitudes(amps) -> float:
    """Reconstruct the energy shift from the stored amplitudes.

    Exact identity for any cutoff:
    delta_E = -sum 2*mult*c_raw*c*hbar*(omega0 + w_k + w_j).
    """
    hbar = amps.params.hbar
    den = amps.params.omega0 + amps.pair_frequencies
    return float(-np.sum(2.0 * amps.multiplicities * amps.coeffs_raw
                         * amps.coeffs * hbar * den))


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17e")
    return str(v)


def reference_csv_line(row) -> str:
    """One CLI CSV data line built value by value (floats as .17e, the rest
    as str): the reference for the writer's per-row templates."""
    return ",".join(_fmt(v) for v in row)


def params_for_lambda(lam, omega0=1.0, length=1.0, hbar=1.0, c=1.0):
    """Mirror mass giving the requested dimensionless coupling."""
    mass = hbar / (8.0 * lam**2 * omega0 * length**2)
    return PhysicalParams(mass=mass, omega0=omega0, length=length, hbar=hbar, c=c)


def single_cavity_reduction_check(params, cutoff, grid, n_max=None):
    """<phi^2(x1)> correction rebuilt from the two-cavity machinery.

    Uses the same damped sine tables and first-order denominators as the
    correlation engine, restricted to cavity 1.  Must agree with
    single_cavity.delta_phi_squared on the same mode set, which ties the
    two-cavity tables to the independently coded single-cavity profiles.
    """
    L = params.length
    x = _check_grid("grid", grid, 0.0, L)
    modes, damp, _, h = mode_tables(params, cutoff, n_max)
    xt = L - x
    v = _sine_tables(modes, damp, xt)                  # (N, X)
    Pj = sliding_window_view(h, len(modes)) @ v         # (N, X)
    vals = (modes.frequencies * damp) @ (Pj**2)
    pre = (params.hbar**2 * params.c**2
           / (L**3 * params.mass * params.omega0))
    return ObservableProfile("delta_phi_squared", x, pre * vals, params,
                             cutoff, "fixed", len(modes))


def two_cavity_coupling(params, cavity, k, j):
    """Coupling of the mirror to the left (C_kj) or right (-C_kj) cavity."""
    if cavity is CavityTag.LEFT:
        return coupling_matrix_element(params, k, j)
    if cavity is CavityTag.RIGHT:
        return -coupling_matrix_element(params, k, j)
    raise UsageError("two_cavity_coupling needs cavity LEFT or RIGHT, not SINGLE")


def kron_lowering(dims, site):
    """The lowering operator of tensor factor `site`, embedded by Kronecker
    products with identities in the full space of factor sizes dims."""
    mats = [sp.identity(d, format="csr") for d in dims]
    mats[site] = sp.diags(np.sqrt(np.arange(1, dims[site])), 1, format="csr")
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return out


def pairwise_interaction(params, truncation, cavities, coupling_scale=1.0):
    """Oracle interaction V assembled mode pair by mode pair.

    For every pair (k, j) of each cavity it adds
    -C_kj (b + b^dag)(a_k a_j + a_k^dag a_j^dag + a_j^dag a_k + a_k^dag a_j),
    with every ladder embedded in the full tensor space (mirror first).
    """
    m = truncation.modes_per_cavity
    n_fields = m if cavities == "one" else 2 * m
    dims = (truncation.max_mirror_quanta + 1,) + (truncation.max_photons_per_mode + 1,) * n_fields
    full_dim = int(np.prod(dims))

    b = kron_lowering(dims, 0)
    x_mirror = b + b.T
    ladders = [kron_lowering(dims, 1 + i) for i in range(n_fields)]

    v = sp.csr_matrix((full_dim, full_dim))
    blocks = [(0, CavityTag.LEFT)] if cavities == "one" else \
             [(0, CavityTag.LEFT), (m, CavityTag.RIGHT)]
    for offset, tag in blocks:
        for k in range(1, m + 1):
            for j in range(1, m + 1):
                ckj = two_cavity_coupling(params, tag, k, j)
                ak = ladders[offset + k - 1]
                aj = ladders[offset + j - 1]
                pair = ak @ aj + ak.T @ aj.T + aj.T @ ak + ak.T @ aj
                v = v - (coupling_scale * ckj) * (x_mirror @ pair)
    return v.tocsr()


def kron_field_operator(model, cavity, x, kind):
    """Oracle field operator summed mode by mode from Kronecker-embedded ladders.

    Mode k of the cavity contributes sqrt(hbar c^2 / L) f_k(x) (a_k + a_k^dag),
    with f_k = sin(k pi x / L) / sqrt(w_k) for 'phi' and its x-derivative
    for 'grad'; 'dot' takes sin(k pi x / L) sqrt(w_k) (a_k - a_k^dag), the
    Hermitian part of the time derivative.  The right cavity's modes come
    after the left's and carry an overall minus sign.
    """
    p = model.params
    m = model.truncation.modes_per_cavity
    first = 1 + (m if cavity is CavityTag.RIGHT else 0)
    sign = -1.0 if cavity is CavityTag.RIGHT else 1.0
    out = sp.csr_matrix((model.dim, model.dim))
    for k in range(1, m + 1):
        wk = k * math.pi * p.c / p.length
        arg = k * math.pi * x / p.length
        f = {"phi": math.sin(arg) / math.sqrt(wk),
             "grad": k * math.pi / p.length * math.cos(arg) / math.sqrt(wk),
             "dot": math.sin(arg) * math.sqrt(wk)}[kind]
        a = kron_lowering(model.dims, first + k - 1)
        op = a - a.T if kind == "dot" else a + a.T
        out = out + sign * math.sqrt(p.hbar * p.c**2 / p.length) * f * op
    return out


def dense_ground_state(model):
    """Lowest eigenpair from one dense eigh of the full truncated H.

    The full-basis reference for the per-sector solver: returns
    (energy, vector) with the same sign rule as `oracle.ground_state`
    (largest-magnitude component positive).
    """
    from scipy.linalg import eigh

    evals, evecs = eigh(model.h.toarray(), subset_by_index=[0, 0])
    vec = evecs[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return float(evals[0]), vec

"""Cross-cavity observables for two cavities sharing a movable wall.

The squared fields on the two sides of the wall are anticorrelated: the
connected correlator

    C(x1, x2) = <phi^2(x1) phi^2(x2)> - <phi^2(x1)><phi^2(x2)>

is, at leading (second) order in the mirror-field coupling, the quadruple
mode sum

    C = -(hbar^3 c^4 / (L^4 m omega0)) * sum_{pqrs} (-1)**(p+q+r+s)
        f_pqrs(omega_m) * sin(k_p x1) sin(k_q x1) sin(k_r x2) sin(k_s x2)
        * [ 1/((w0+W_pq)(w0+W_rs))
          + 1/((w0+W_pq)(W_pq+W_rs)) + 1/((w0+W_rs)(W_pq+W_rs)) ],

with W_pq = w_p + w_q and the exponential regulator
f_pqrs = exp(-(w_p+w_q+w_r+w_s)/omega_m) (a sharp per-mode truncation is
also supported for cross checks).  In terms of distances from the movable
wall, xt1 = L - x1 and xt2 = x2 - L, the alternating signs cancel exactly
against the mode functions, every remaining structure is a positive
quadratic form, and the negativity of C is manifest.

The sum is evaluated exactly in O(N^2) per grid pair: the equally spaced
spectrum makes each denominator depend on the pair sums t = p + q and
u = r + s only, so the per-point convolutions

    R_t(xt) = sum_{p+q=t} v_p(xt) v_q(xt),   v_p(xt) = g_p sin(k_p xt)

(g_p the per-mode cutoff damping) reduce the first structure to an outer
product and the cross structures to a bilinear form with the Cauchy-type
kernel 1/(W_t + W_u), contracted in blocks so the kernel is never
materialized in full.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import UsageError
from .model import CutoffSpec, PhysicalParams, mode_tables
from .single_cavity import ObservableProfile

__all__ = [
    "CorrelationGrid",
    "squared_field_correlation_discrete",
    "phi_phi_cross_correlation",
    "single_cavity_reduction_check",
]

_KERNEL_BLOCK = 512


@dataclass(frozen=True)
class CorrelationGrid:
    """Sampled squared-field correlation over an (x1, x2) grid."""

    x1_grid: np.ndarray        # cavity 1 positions, in (0, L)
    x2_grid: np.ndarray        # cavity 2 positions, in (L, 2L)
    values: np.ndarray         # shape (len(x1_grid), len(x2_grid))
    method: str
    params: PhysicalParams
    cutoff: CutoffSpec
    n_modes: int = 0

    @property
    def xt1_grid(self) -> np.ndarray:
        """Cavity-1 positions as distances from the movable wall."""
        return self.params.length - self.x1_grid

    @property
    def xt2_grid(self) -> np.ndarray:
        """Cavity-2 positions as distances from the movable wall."""
        return self.x2_grid - self.params.length


def _check_grid(name, x, lo, hi):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 0:
        raise UsageError(f"{name} must contain at least one position")
    if np.any(x <= lo) or np.any(x >= hi):
        raise UsageError(f"{name} must lie strictly inside ({lo:g}, {hi:g})")
    return x


def _sine_tables(modes, damp, xt):
    """v[p, i] = g_p sin(k_p xt_i), the damped mode functions at each point."""
    if damp is None:
        raise UsageError(
            "sharp cutoff with the 'total' rule does not factorize; "
            "the correlation engine supports sharp_rule='per_mode' only")
    return damp[:, None] * np.sin(np.outer(modes.wavenumbers, xt))


def _pair_sums(v):
    """R[i, t] = sum_{p+q=t+2} v_p v_q via one convolution per grid point."""
    npts = v.shape[1]
    n = v.shape[0]
    R = np.empty((npts, 2 * n - 1))
    for i in range(npts):
        R[i] = np.convolve(v[:, i], v[:, i])
    return R


def _cross_term(R1, D1, R2, W):
    """sum_{t,u} R1[:,t] R2[:,u] (D1_t + D1_u) / (W_t + W_u), blockwise."""
    S1 = R1 * D1[None, :]
    S2 = R2 * D1[None, :]
    out = np.zeros((R1.shape[0], R2.shape[0]))
    T = W.size
    for lo in range(0, T, _KERNEL_BLOCK):
        hi = min(lo + _KERNEL_BLOCK, T)
        K = 1.0 / (W[lo:hi, None] + W[None, :])        # (block, T)
        out += S1[:, lo:hi] @ (K @ R2.T)
        out += R1[:, lo:hi] @ (K @ S2.T)
    return out


def squared_field_correlation_discrete(params: PhysicalParams, cutoff: CutoffSpec,
                                       x1_grid, x2_grid,
                                       n_max: int | None = None,
                                       negativity: str = "warn") -> CorrelationGrid:
    """Connected squared-field correlation between the two cavities.

    Parameters
    ----------
    x1_grid : array_like
        Positions in cavity 1, strictly inside (0, L).
    x2_grid : array_like
        Positions in cavity 2, strictly inside (L, 2L).
    n_max : int, optional
        Explicit mode count per cavity; a sharp per-mode cutoff caps it
        (modes above omega_m are dropped).
    negativity : {'warn', 'raise', 'ignore'}
        Every value is expected to be negative; this selects what happens
        if one is not.
    """
    if negativity not in ("warn", "raise", "ignore"):
        raise UsageError(f"negativity must be 'warn', 'raise' or 'ignore', got {negativity!r}")
    L = params.length
    x1 = _check_grid("x1_grid", x1_grid, 0.0, L)
    x2 = _check_grid("x2_grid", x2_grid, L, 2.0 * L)
    modes, damp, _, W, h = mode_tables(params, cutoff, n_max)
    n = len(modes)
    xt1 = L - x1
    xt2 = x2 - L

    R1 = _pair_sums(_sine_tables(modes, damp, xt1))    # (X1, 2n-1)
    R2 = _pair_sums(_sine_tables(modes, damp, xt2))    # (X2, 2n-1)

    q1 = R1 @ h
    q2 = R2 @ h
    total = np.outer(q1, q2) + _cross_term(R1, h, R2, W)
    pre = (params.hbar**3 * params.c**4
           / (L**4 * params.mass * params.omega0))
    values = -pre * total

    if not np.all(np.isfinite(values)):
        raise UsageError("correlation values are not finite; check parameters")
    if negativity != "ignore" and np.any(values >= 0.0):
        msg = ("squared-field correlation is expected to be negative "
               "everywhere but is not; worst value "
               f"{values.max():.3e}")
        if negativity == "raise":
            raise UsageError(msg)
        warnings.warn(msg, stacklevel=2)
    return CorrelationGrid(x1, x2, values, "discrete_sum", params, cutoff, n)


def phi_phi_cross_correlation(params: PhysicalParams, cutoff: CutoffSpec,
                              x1: float, x2: float) -> float:
    """Connected <phi(x1) phi(x2)> between the cavities: identically zero.

    The dressed ground state only contains components with an even photon
    number in each cavity (photons are created and absorbed in pairs),
    while phi(x1) phi(x2) changes the photon number of each cavity by one.
    So every bra/ket combination is parity-forbidden and the correlator is
    an exact structural zero at every order of the pair-creating
    interaction; <phi(x1)><phi(x2)> vanishes the same way (a single phi
    flips one parity), so the connected and plain correlators coincide.
    """
    L = params.length
    _check_grid("x1", [x1], 0.0, L)
    _check_grid("x2", [x2], L, 2.0 * L)
    return 0.0


def single_cavity_reduction_check(params: PhysicalParams, cutoff: CutoffSpec,
                                  grid, n_max: int | None = None) -> ObservableProfile:
    """<phi^2(x1)> correction rebuilt from the two-cavity machinery.

    Uses the same damped sine tables and first-order denominators as the
    correlation engine, restricted to cavity 1.  Must agree with
    single_cavity.delta_phi_squared on the same mode set, which ties the
    two-cavity tables to the independently coded single-cavity profiles.
    """
    L = params.length
    x = _check_grid("grid", grid, 0.0, L)
    modes, damp, _, _, h = mode_tables(params, cutoff, n_max)
    xt = L - x
    v = _sine_tables(modes, damp, xt)                  # (N, X)
    Pj = sliding_window_view(h, len(modes)) @ v         # (N, X)
    vals = (modes.frequencies * damp) @ (Pj**2)
    pre = (params.hbar**2 * params.c**2
           / (L**3 * params.mass * params.omega0))
    return ObservableProfile("delta_phi_squared", x, pre * vals, params,
                             cutoff, "fixed", len(modes))

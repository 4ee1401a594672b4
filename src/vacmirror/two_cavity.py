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

Both denominators go through exponential sums (see `kernels`),
1/(w0 + W_pq) = sum_s ah_s e^{-eh_s W_pq} and
1/(W_pq + W_rs) = sum_r a_r e^{-e_r W_pq} e^{-e_r W_rs}, with 25 to 70
terms each.  Every structure then factorizes into the damped sine sums

    V(u, xt) = sum_p g_p sin(k_p xt) e^{-u w_p}

(g_p the per-mode cutoff damping), the imaginary part of a finite
geometric series that `kernels.geometric_sums` evaluates in closed form:
the first structure is q1 q2^T with q = sum_s ah_s V(eh_s)^2, and the
cross structures are (H1 a) B2^T + (B1 a) H2^T with B_r = V(e_r)^2 and
H_r = sum_s ah_s V(e_r + eh_s)^2.  That is O(r^2) work per point whatever
the mode count, with no table larger than the grid times r or a block of
BLOCK_BYTES.  Every term is a square times positive weights, so nothing
cancels in the node contraction: at N = 590 the sum is within 9e-13 of an
extended-precision evaluation of the direct formula, closer than the
direct float64 sum (whose condition number sum |terms| / |value| reaches
1e9 at N = 7370).

The mass enters C only through the prefactor, so the sum of the three
structures is mass-free: a call that differs from the last mode-sum call
only in the mass reuses it (`model.mass_free_sum`, shared with the
profiles), keyed on what it reads: omega0, L, hbar, c, the mode count,
the damping rate and the exact bytes of both distance grids.  The grid
checks, the mode count (`model.checked_mode_count`), the prefactor and
the negativity check run on every call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .kernels import blocks, exp_sum, geometric_sums
from .model import (CutoffSpec, PhysicalParams, checked_mode_count,
                    damping_rate, mass_free_sum)

__all__ = [
    "CorrelationGrid",
    "squared_field_correlation_discrete",
    "phi_phi_cross_correlation",
]

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
    kernel_nodes: int = 0      # terms of the exponential sum for 1/(W_t + W_u)
    # sum |terms| / max |value| of the node contraction: every term is a
    # square times positive weights, so it is 1 and nothing cancels
    cond: float = 1.0

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


def _correlation_sum(params, n, rate, xt1, xt2):
    """Kernel node count and the mass-free sum of the three structures at
    every (xt1, xt2) pair of distances from the movable wall.

    With V(u, xt) = sum_p g_p sin(k_p xt) e^{-u w_p} over n modes, damped
    by g_p = e^{-w_p rate}, the imaginary part of a geometric sum
    (`kernels.geometric_sums`), and the exponential sums (eh, ah) of
    1/(omega0 + W) and (e, a) of 1/(W_t + W_u) on the totals
    4 omega1 .. 4 N omega1 it takes, each cavity's point gives
    q = sum_s ah_s V(eh_s)^2, B_r = V(e_r)^2 and
    H_r = sum_s ah_s V(e_r + eh_s)^2, and the sum is
    q1 q2^T + (H1 a) B2^T + (B1 a) H2^T.
    """
    w1 = params.omega1
    eh, ah = exp_sum(params.omega0 + 2.0 * w1, params.omega0 + 2.0 * n * w1)
    ah = ah * np.exp(-eh * params.omega0)
    e, a = exp_sum(4.0 * w1, 4.0 * n * w1)
    damp = w1 * rate
    theta = np.concatenate([xt1, xt2]) * (np.pi / params.length)

    def v2(u, theta, shift=None):       # V^2, one column per node
        return geometric_sums(w1 * u + damp, theta, n, 0, shift, imag=True)**2

    V2 = v2(np.concatenate([eh, e]), theta)
    q, B = V2[:, :eh.size] @ ah, V2[:, eh.size:]
    H = np.empty_like(B)
    for b in blocks(theta.size, 2 * e.size * eh.size):
        H[b] = v2(eh, theta[b], w1 * e) @ ah
    m = xt1.size
    total = (np.outer(q[:m], q[m:])
             + (H[:m] * a) @ B[m:].T
             + (B[:m] * a) @ H[m:].T)
    return len(e), total


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
    n = checked_mode_count(params, cutoff, n_max)
    r, total = mass_free_sum(_correlation_sum, params, n, damping_rate(cutoff),
                             L - x1, x2 - L)
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
    return CorrelationGrid(x1, x2, values, "discrete_sum", params, cutoff,
                           n, r)


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

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

The equally spaced spectrum makes each denominator depend on the pair
sums t = p + q and u = r + s only, so the pair sums

    R_t(xt) = sum_{p+q=t} v_p(xt) v_q(xt),   v_p(xt) = g_p sin(k_p xt)

(g_p the per-mode cutoff damping) reduce the first structure to an outer
product and the cross structures to a bilinear form with the Cauchy-type
kernel 1/(W_t + W_u).  R comes from zero-padded FFTs, O(N log N) per
point.  The kernel goes through its exponential sum (see `kernels`),
1/(W_t + W_u) = sum_r a_r e^{-e_r W_t} e^{-e_r W_u} with r ~ 200 terms:
one `kernels.project` of R_t and R_t / (w0 + W_t) onto the nodes gives both
cross structures, so they cost O(N r) per point and the kernel is never
formed: no table is larger than the O(N) pair sums per point or one block.
The kernel itself is not FFT-contracted: that loses about 1e-10 to
roundoff, while the exponential sum stays within about 1e-12 of an
extended-precision evaluation of the direct formula, closer than the
direct float64 sum (whose condition number sum |terms| / |value| reaches
1e9 at N = 7370).

The mass enters C only through the prefactor, so the sum of the three
structures is mass-free: a call that differs from the last mode-sum call
only in the mass reuses it (`model.mass_free_sum`, shared with the
profiles), keyed on omega0, L, hbar, c, the cutoff, n_max and the exact
bytes of both grids.  The grid checks, the mode tables, the prefactor and
the negativity check run on every call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .kernels import blocks, exp_sum, project
from .model import CutoffSpec, PhysicalParams, mass_free_sum, mode_tables

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
    """R[i, t] = sum_{p+q=t+2} v_p v_q, by zero-padded FFTs of point blocks."""
    n, npts = v.shape
    size = 1 << (2 * n - 2).bit_length()     # a power of two >= 2n - 1
    R = np.empty((npts, 2 * n - 1))
    for b in blocks(npts, size):
        f = np.fft.rfft(v[:, b], size, axis=0)
        R[b] = np.fft.irfft(f * f, size, axis=0)[:2 * n - 1].T
    return R


def _correlation_sum(modes, damp, W, h, xt1, xt2):
    """Kernel node count and the mass-free sum of the three structures at
    every (xt1, xt2) pair of distances from the movable wall."""
    # pair sums of both cavities, rows x1 then x2: (X1 + X2, 2n - 1)
    R = _pair_sums(np.hstack([_sine_tables(modes, damp, xt1),
                              _sine_tables(modes, damp, xt2)]))
    q = R @ h
    # 1/(W_t + W_u) on the totals 4 omega1 .. 4 N omega1 it takes; one
    # projection of the rows R, then R h, gives both cross structures
    # ((R1 h) F a)(R2 F)^T + ((R1 F) a)((R2 h) F)^T, F[t, r] = e^{-e_r W_t}
    e, a = exp_sum(2.0 * W[0], 2.0 * W[-1])
    npts = R.shape[0]
    R = np.vstack([R, R])
    R[npts:] *= h
    B = project(R, W, e)
    B, H = B[:npts], B[npts:]
    total = (np.outer(q[:xt1.size], q[xt1.size:])
             + (H[:xt1.size] * a) @ B[xt1.size:].T
             + (B[:xt1.size] * a) @ H[xt1.size:].T)
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
    modes, damp, _, W, h = mode_tables(params, cutoff, n_max)
    r, total = mass_free_sum(
        params, ("correlation", cutoff, n_max, x1, x2),
        lambda: _correlation_sum(modes, damp, W, h, L - x1, x2 - L))
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
                           len(modes), r)


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

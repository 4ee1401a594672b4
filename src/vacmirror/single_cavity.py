"""Local vacuum observables in the single cavity with a movable wall.

All profiles are second order in the mirror-field coupling and share the
triple-sum skeleton

    sum_{j,k,l} (-1)**(k+l) N_jkl f_jkl(omega_m) T_k(x) T_l(x)
                / ((omega0 + w_j + w_k)(omega0 + w_j + w_l)),

with T = cos for the gradient-type factors and T = sin for the
kinetic-type factors.  The k and l sums factorize for each j, so a
profile costs O(N^2) per grid point instead of O(N^3):

- change of the field energy density (numerator w_j w_k w_l, prefactor
  hbar^2/(2 L^3 m omega0), cos[(w_k - w_l) x / c] expanded as
  cos*cos + sin*sin);
- electric-type fluctuation correction <E^2> (sin*sin) and magnetic-type
  <B^2> (cos*cos), prefactor hbar^2/(m omega0 L^3);
- squared-field correction <phi^2> (numerator w_j only, prefactor
  hbar^2 c^2/(L^3 m omega0)).

The energy density change equals (<E^2> + <B^2>)/2 identically; the two
sides are computed by separate code paths, which the tests exploit.

Positions are cavity coordinates measured from the fixed wall at x = 0
(the movable wall sits at x = L); origin='movable' lets callers pass
distances from the movable wall instead.  The profile magnitude grows
toward the movable wall, where the virtual photon pairs emitted and
reabsorbed by it are confined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import UsageError
from .model import CutoffSpec, PhysicalParams, mode_tables

__all__ = [
    "ObservableProfile",
    "default_grid",
    "delta_energy_density",
    "em_field_fluctuations",
    "delta_phi_squared",
]


@dataclass(frozen=True)
class ObservableProfile:
    """A scalar observable sampled on a spatial grid inside the cavity."""

    kind: str
    grid: np.ndarray           # positions as passed by the caller
    values: np.ndarray
    params: PhysicalParams
    cutoff: CutoffSpec
    origin: str = "fixed"      # coordinate origin of `grid`
    n_modes: int = 0

    @property
    def grid_cavity(self) -> np.ndarray:
        """Grid in cavity coordinates (distance from the fixed wall)."""
        if self.origin == "movable":
            return self.params.length - self.grid
        return self.grid

    @property
    def grid_from_movable_wall(self) -> np.ndarray:
        """Grid as distances from the movable wall."""
        if self.origin == "movable":
            return self.grid
        return self.params.length - self.grid


def default_grid(params: PhysicalParams, n: int = 200) -> np.ndarray:
    """Uniform grid of n points on (0.01 L, 0.99 L), endpoints excluded."""
    L = params.length
    return np.linspace(0.01 * L, 0.99 * L, n)


def _cavity_grid(params, grid, origin):
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise UsageError("grid must be a non-empty 1-D array of positions")
    if np.any(np.diff(x) <= 0):
        raise UsageError("grid must be strictly increasing")
    if origin not in ("fixed", "movable"):
        raise UsageError(f"origin must be 'fixed' or 'movable', got {origin!r}")
    xc = params.length - x if origin == "movable" else x
    if np.any(xc <= 0.0) or np.any(xc >= params.length):
        raise UsageError(
            "grid points must lie strictly inside the cavity (0, L); "
            "the field vanishes on the walls and observables are not "
            "defined on them")
    return x, xc


def _inner_sums(params, cutoff, n_max, xc, trigs, freq_numerator):
    """Mode count, outer weights w_j g_j and, per trig, the per-j inner sums
    F_j(x) = sum_k s_k n_k g_k trig(k_k x)/(w0+w_j+w_k), with the numerator
    n_k = w_k if freq_numerator else 1."""
    modes, damp, _, _, h = mode_tables(params, cutoff, n_max)
    if damp is None:
        raise UsageError(
            "sharp cutoff with the 'total' rule does not factorize; "
            "the profiles support sharp_rule='per_mode' only")
    w = modes.frequencies
    signs = np.where(modes.indices % 2 == 0, 1.0, -1.0)
    coef = signs * w * damp if freq_numerator else signs * damp
    denom = sliding_window_view(h, len(modes))   # D[j, k] = h[j + k], a Hankel view
    sums = [(denom * coef[None, :]) @ trig(np.outer(modes.wavenumbers, xc))
            for trig in trigs]
    return len(modes), w * damp, sums


def delta_energy_density(params: PhysicalParams, cutoff: CutoffSpec, grid,
                         n_max: int | None = None,
                         origin: str = "fixed") -> ObservableProfile:
    """Change of the renormalized field energy density across the cavity.

    Parameters
    ----------
    params, cutoff
        Physical parameters and mode-sum regularization.
    grid : array_like
        Sample positions, strictly inside the cavity.
    n_max : int, optional
        Explicit mode count (overrides the cutoff-derived size); a sharp
        per-mode cutoff caps it (modes above omega_m are dropped).
    origin : {'fixed', 'movable'}
        Coordinate origin of `grid`.
    """
    x, xc = _cavity_grid(params, grid, origin)
    n, outer, (Ej, Oj) = _inner_sums(params, cutoff, n_max, xc, (np.cos, np.sin), True)
    vals = outer @ (Ej**2 + Oj**2)
    pre = params.hbar**2 / (2.0 * params.length**3 * params.mass * params.omega0)
    return ObservableProfile("delta_energy_density", x, pre * vals, params,
                             cutoff, origin, n)


def em_field_fluctuations(params: PhysicalParams, cutoff: CutoffSpec, grid,
                          component: str = "E", n_max: int | None = None,
                          origin: str = "fixed") -> ObservableProfile:
    """Correction to the electric- or magnetic-type field fluctuations.

    component 'E' uses sin(k_l x) sin(k_n x) factors and vanishes on the
    walls; 'B' uses cos * cos and stays finite there.  n_max as in
    delta_energy_density.
    """
    if component not in ("E", "B"):
        raise UsageError(f"component must be 'E' or 'B', got {component!r}")
    x, xc = _cavity_grid(params, grid, origin)
    trig = np.sin if component == "E" else np.cos
    n, outer, (Fj,) = _inner_sums(params, cutoff, n_max, xc, (trig,), True)
    vals = outer @ (Fj**2)
    pre = params.hbar**2 / (params.mass * params.omega0 * params.length**3)
    kind = "e_squared" if component == "E" else "b_squared"
    return ObservableProfile(kind, x, pre * vals, params, cutoff, origin, n)


def delta_phi_squared(params: PhysicalParams, cutoff: CutoffSpec, grid,
                      n_max: int | None = None,
                      origin: str = "fixed") -> ObservableProfile:
    """Correction to the squared-field expectation <phi^2> in the cavity.

    n_max as in delta_energy_density.
    """
    x, xc = _cavity_grid(params, grid, origin)
    n, outer, (Pj,) = _inner_sums(params, cutoff, n_max, xc, (np.sin,), False)
    vals = outer @ (Pj**2)
    pre = (params.hbar**2 * params.c**2
           / (params.length**3 * params.mass * params.omega0))
    return ObservableProfile("delta_phi_squared", x, pre * vals, params,
                             cutoff, origin, n)

"""Local vacuum observables in the single cavity with a movable wall.

Every profile is the change, to second order in the mirror-field
coupling, of a normal-ordered quadratic field observable <:O:> in the
dressed ground state |0> + |g1> + |g2> + ...  Two forms are available
through the `state` keyword of each profile:

- state='first_order' (the default): the expectation <g1|:O:|g1> on the
  first-order dressed state, whose components |1_m; 1_j 1_k> carry one
  mirror quantum and one photon pair.  It has the triple-sum skeleton

    sum_{j,k,l} (-1)**(k+l) N_jkl f_jkl(omega_m) T_k(x) T_l(x)
                / ((omega0 + w_j + w_k)(omega0 + w_j + w_l)).

- state='second_order' (the complete second-order value): adds the term
  2 Re <0|:O:|g2> of the same order.  It comes from the components
  |0_m; 1_k 1_l> of the second-order state (no mirror quanta, one photon
  pair), whose amplitude is proportional to
  sum_j C_jk C_jl / ((omega0 + w_j + w_l)(w_k + w_l)).  In the summand
  above it replaces 1/((omega0 + w_j + w_k)(omega0 + w_j + w_l)) by

    1/((omega0+w_j+w_k)(omega0+w_j+w_l))
      + sigma (1/(omega0+w_j+w_k) + 1/(omega0+w_j+w_l)) / (w_k + w_l),

  with sigma = +1 for factors of phi and of its gradient and sigma = -1
  for factors of phi_dot: sigma is the sign of the pair-annihilation part
  a_k a_l of the normal-ordered square relative to its number part.

The CLI uses the default form.  Which form is the physical prediction is
settled by the exact-diagonalization oracle: only the complete form
approaches the exact ground state's value as lambda -> 0.

T = cos for the gradient-type factors and T = sin for the kinetic-type
and phi factors.  The k and l sums factorize for each j, and the extra
sum of the complete form factorizes into Hankel products over index sums
(1/(omega0 + w_j + w_k) depends on j + k, 1/(w_k + w_l) on k + l).  Both
kernels go through their exponential sums (see `kernels`),

    1/(omega0 + w_j + w_k) = sum_r a_r e^{-e_r omega0} e^{-e_r w_j} e^{-e_r w_k},

with r = 25 to 70 terms, so a profile costs O(N r) per grid point instead of
O(N^3), contracted in blocks of modes with no table larger than O(N) or
one block.  The energy density's complete form also convolves over index
sums, which is O(N^2) work in O(N) memory.  The profiles are:

- change of the field energy density (numerator w_j w_k w_l, prefactor
  hbar^2/(2 L^3 m omega0), cos[(w_k - w_l) x / c] expanded as
  cos*cos + sin*sin);
- electric-type fluctuation correction <E^2> (sin*sin, phi_dot factors)
  and magnetic-type <B^2> (cos*cos, gradient factors), prefactor
  hbar^2/(m omega0 L^3);
- squared-field correction <phi^2> (numerator w_j only, prefactor
  hbar^2 c^2/(L^3 m omega0)).

The energy density change equals (<E^2> + <B^2>)/2 identically, in both
forms; the two sides are computed by separate code paths, which the tests
exploit.

The mirror mass enters a profile only through its 1/m prefactor, so the
mode sum behind it is mass-free, and a call that differs from the last
mode-sum call only in the mass reuses that sum (`model.mass_free_sum`,
shared with the correlation).  The key is everything else the sum depends
on: omega0, L, hbar, c, the cutoff (kind, omega_m, rule), n_max, the
exact bytes of the cavity-coordinate grid, the trig factors, the
frequency numerator, sigma and the state.  The grid checks, the mode
tables (with their errors and the low-cutoff warning) and the prefactor
run on every call; a mass sweep contracts the kernels once, and every
point is bit-identical to a call on its own.

Positions are cavity coordinates measured from the fixed wall at x = 0
(the movable wall sits at x = L); origin='movable' lets callers pass
distances from the movable wall instead.  The profile magnitude grows
toward the movable wall, where the virtual photon pairs emitted and
reabsorbed by it are confined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .kernels import blocks, exp_sum, phases
from .model import CutoffSpec, PhysicalParams, mass_free_sum, mode_tables

__all__ = [
    "ObservableProfile",
    "default_grid",
    "delta_energy_density",
    "em_field_fluctuations",
    "delta_phi_squared",
]

# the two forms of every profile; see the module docstring
STATES = ("first_order", "second_order")


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
    state: str = "first_order"  # which form of the profile, see STATES
    kernel_nodes: int = 0      # terms of the exponential sum for 1/(omega0 + W)

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
    if not np.all(np.diff(x) > 0):
        raise UsageError("grid must be strictly increasing")
    if origin not in ("fixed", "movable"):
        raise UsageError(f"origin must be 'fixed' or 'movable', got {origin!r}")
    xc = params.length - x if origin == "movable" else x
    if not np.all((xc > 0.0) & (xc < params.length)):
        raise UsageError(
            "grid points must lie strictly inside the cavity (0, L); "
            "the field vanishes on the walls and observables are not "
            "defined on them")
    return x, xc


def _profile_sum(params, cutoff, n_max, xc, trigs, freq_numerator, sigma,
                 state):
    """Mode count, kernel node count and the profile's mode sum on the grid
    xc; the sum is reused across masses (see `model.mass_free_sum`)."""
    if state not in STATES:
        raise UsageError(f"state must be one of {STATES}, got {state!r}")
    modes, damp, _, W, _ = mode_tables(params, cutoff, n_max)
    if damp is None:
        raise UsageError(
            "sharp cutoff with the 'total' rule does not factorize; "
            "the profiles support sharp_rule='per_mode' only")
    r, vals = mass_free_sum(
        params, ("profile", cutoff, n_max, xc, trigs, freq_numerator, sigma,
                 state),
        lambda: _contract(params, modes, damp, W, xc, trigs, freq_numerator,
                          sigma, state))
    return len(modes), r, vals


def _contract(params, modes, damp, W, xc, trigs, freq_numerator, sigma, state):
    """Kernel node count and the profile's mode sum on the grid xc.

    trigs holds one trig, 'cos' or 'sin', per field factor.  With
    T_k(x) = c_k trig(k_k x), c_k = s_k n_k g_k and the numerator
    n_k = w_k if freq_numerator else 1, the first-order form is
    sum_j o_j F_j(x)^2 with o_j = w_j g_j and the per-j inner sums
    F_j = sum_k T_k / (omega0 + w_j + w_k).

    The second-order form adds 2 sigma sum_k R_k T_k U_k with
    R_k = sum_j o_j / (omega0 + w_j + w_k) and U_k = sum_l T_l / (w_k + w_l)
    (sigma as in the module docstring).  sigma is None for the energy
    density: its gradient (sigma = +1, cos) and kinetic (sigma = -1, sin)
    factors combine into cos k_k x cos k_l x - sin k_k x sin k_l x =
    cos((k_k + k_l) x), so its extra term depends on the index sum s = k + l
    only: 2 sum_s Q_s cos(W[s] x / c) / W[s], Q_s = sum_{k+l=s} R_k c_k c_l.
    Q is a direct convolution, O(N^2) work in O(N) memory: splitting the
    cosine into the two trig products loses a digit to their cancellation.

    Both kernels go through their exponential sums (see `kernels`): a first
    pass over mode blocks projects T and o onto the nodes, a second expands
    the projections back block by block and reduces them on the spot, so
    no table is larger than O(N) or one block.  The trig factors of every
    block after the first are the first block's, rotated (`kernels.phases`).
    """
    n = len(modes)
    w = modes.frequencies
    signs = np.where(modes.indices % 2 == 0, 1.0, -1.0)
    coef = signs * w * damp if freq_numerator else signs * damp
    outer = w * damp
    pair = state == "second_order" and sigma is not None

    # 1/(omega0 + w_j + w_k) and 1/(w_k + w_l) on the index sums they take
    w1 = params.omega1
    e, a = exp_sum(params.omega0 + 2.0 * w1, params.omega0 + 2.0 * n * w1)
    a = a * np.exp(-e * params.omega0)
    ep, ap = exp_sum(2.0 * w1, 2.0 * n * w1)
    # the factors' tables and the complex table of `phases`, per mode
    width = len(e) + len(ep) + (3 * len(trigs) + 2) * xc.size
    mode_blocks = blocks(n, width)
    phase = phases(modes.wavenumbers, xc, mode_blocks[0].stop)

    def trig_table(b):      # T_k(x) of every factor, side by side
        z = phase(b)
        parts = {"cos": z.real, "sin": z.imag}
        return coef[b, None] * np.hstack([parts[trig] for trig in trigs])

    G = Gp = P = 0.0
    for b in mode_blocks:
        E = np.exp(-np.outer(w[b], e))
        T = trig_table(b)
        G = G + E.T @ T
        P = P + outer[b] @ E
        if pair:
            Gp = Gp + np.exp(-np.outer(ep, w[b])) @ T
    G = a[:, None] * G
    vals = 0.0
    R = np.empty(n)
    for b in mode_blocks:
        E = np.exp(-np.outer(w[b], e))
        vals = vals + outer[b] @ (E @ G)**2
        R[b] = E @ (a * P)
        if pair:
            U = np.exp(-np.outer(w[b], ep)) @ (ap[:, None] * Gp)
            vals = vals + 2.0 * sigma * (R[b] @ (trig_table(b) * U))
    vals = np.reshape(vals, (len(trigs), -1)).sum(axis=0)
    if state == "second_order" and sigma is None:
        Q = np.convolve(R * coef, coef) / W     # position s - 2, like W
        for b in blocks(W.size, xc.size):
            vals = vals + 2.0 * Q[b] @ np.cos(np.outer(W[b] / params.c, xc))
    return len(e), vals


def delta_energy_density(params: PhysicalParams, cutoff: CutoffSpec, grid,
                         n_max: int | None = None, origin: str = "fixed",
                         state: str = "first_order") -> ObservableProfile:
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
    state : {'first_order', 'second_order'}
        'first_order' (default) is the expectation on the first-order
        dressed state; 'second_order' adds the same-order term
        2 Re <0|:O:|g2> and gives the complete second-order value (see the
        module docstring).
    """
    x, xc = _cavity_grid(params, grid, origin)
    n, r, vals = _profile_sum(params, cutoff, n_max, xc,
                              ("cos", "sin"), True, None, state)
    pre = params.hbar**2 / (2.0 * params.length**3 * params.mass * params.omega0)
    return ObservableProfile("delta_energy_density", x, pre * vals, params,
                             cutoff, origin, n, state, r)


def em_field_fluctuations(params: PhysicalParams, cutoff: CutoffSpec, grid,
                          component: str = "E", n_max: int | None = None,
                          origin: str = "fixed",
                          state: str = "first_order") -> ObservableProfile:
    """Correction to the electric- or magnetic-type field fluctuations.

    component 'E' (phi_dot factors) uses sin(k_l x) sin(k_n x) factors and
    vanishes on the walls; 'B' (gradient factors) uses cos * cos and stays
    finite there.  n_max and state as in delta_energy_density.
    """
    if component not in ("E", "B"):
        raise UsageError(f"component must be 'E' or 'B', got {component!r}")
    x, xc = _cavity_grid(params, grid, origin)
    trig, sigma = ("sin", -1.0) if component == "E" else ("cos", 1.0)
    n, r, vals = _profile_sum(params, cutoff, n_max, xc, (trig,), True, sigma,
                              state)
    pre = params.hbar**2 / (params.mass * params.omega0 * params.length**3)
    kind = "e_squared" if component == "E" else "b_squared"
    return ObservableProfile(kind, x, pre * vals, params, cutoff, origin, n,
                             state, r)


def delta_phi_squared(params: PhysicalParams, cutoff: CutoffSpec, grid,
                      n_max: int | None = None, origin: str = "fixed",
                      state: str = "first_order") -> ObservableProfile:
    """Correction to the squared-field expectation <phi^2> in the cavity.

    n_max and state as in delta_energy_density.
    """
    x, xc = _cavity_grid(params, grid, origin)
    n, r, vals = _profile_sum(params, cutoff, n_max, xc, ("sin",), False, 1.0,
                              state)
    pre = (params.hbar**2 * params.c**2
           / (params.length**3 * params.mass * params.omega0))
    return ObservableProfile("delta_phi_squared", x, pre * vals, params,
                             cutoff, origin, n, state, r)

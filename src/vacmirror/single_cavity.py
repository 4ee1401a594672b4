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
and phi factors.  Both kernels go through their exponential sums (see
`kernels`),

    1/(omega0 + w_j + w_k) = sum_r a_r e^{-e_r omega0} e^{-e_r w_j} e^{-e_r w_k},

with r = 25 to 70 terms.  The mode sums then factorize over the nodes,
and each is a finite geometric series in e^{-u omega1} e^{i pi (L - x)/L}
that `kernels.geometric_sums` evaluates in closed form: a first-order
profile costs O(r^2) per grid point and a complete one O(r^2) per grid
point and node pair, whatever the mode count N (one mode included), with
no table larger than the grid times r or a block of BLOCK_BYTES (see
`_contract`).  The profiles are:

- change of the field energy density (numerator w_j w_k w_l, prefactor
  hbar^2/(2 L^3 m omega0), cos[(w_k - w_l) x / c] expanded as
  cos*cos + sin*sin);
- electric-type fluctuation correction <E^2> (sin*sin, phi_dot factors)
  and magnetic-type <B^2> (cos*cos, gradient factors), prefactor
  hbar^2/(m omega0 L^3);
- squared-field correction <phi^2> (numerator w_j only, prefactor
  hbar^2 c^2/(L^3 m omega0)).

The energy density change equals (<E^2> + <B^2>)/2 identically, in both
forms; the energy density contracts complex geometric sums, E and B their
imaginary and real parts, which the tests exploit.

The mirror mass enters a profile only through its 1/m prefactor, so the
mode sum behind it is mass-free, and a call that differs from the last
mode-sum call only in the mass reuses that sum (`model.mass_free_sum`,
shared with the correlation).  The key is everything else the sum depends
on: omega0, L, hbar, c, the cutoff (kind, omega_m, rule), n_max, the
exact bytes of the cavity-coordinate grid, the trig factors, the
frequency numerator, sigma and the state.  The grid checks, the mode
count (with its errors and the low-cutoff warning) and the prefactor
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
from .kernels import blocks, exp_sum, geometric_sums
from .model import (CutoffSpec, PhysicalParams, checked_mode_count,
                    damping_rate, mass_free_sum)

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
    cond: float = 0.0          # sum |terms| / max |value| of the node contraction

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


def _profile_sum(params, cutoff, n_max, n, xc, part, freq_numerator, sigma,
                 state):
    """Kernel node count, the profile's mode sum over n modes on the grid xc
    and its condition estimate; the sum is reused across masses (see
    `model.mass_free_sum`)."""
    if state not in STATES:
        raise UsageError(f"state must be one of {STATES}, got {state!r}")
    rate = damping_rate(cutoff)
    return mass_free_sum(
        params, ("profile", cutoff, n_max, xc, part, freq_numerator, sigma,
                 state),
        lambda: _contract(params, n, rate, xc, part, freq_numerator, sigma,
                          state))


def _contract(params, n, rate, xc, part, freq_numerator, sigma, state):
    """Kernel node count, the profile's mode sum on the grid xc and its
    condition estimate sum |terms| / max |value|.

    part is 'cos' or 'sin', the trig of both field factors, or 'exp' for
    the energy density, whose factor pairs add up to
    Re(e^{i k_k x} e^{+-i k_l x}).  With T_k(x) = c_k part(k_k x),
    c_k = s_k n_k g_k and the numerator n_k = w_k if freq_numerator else 1,
    the first-order form is sum_j o_j |F_j(x)|^2 with o_j = w_j g_j and the
    per-j inner sums F_j = sum_k T_k / (omega0 + w_j + w_k).  The
    second-order form adds 2 sigma Re sum_k R_k T_k U_k with
    R_k = sum_j o_j / (omega0 + w_j + w_k) and U_k = sum_l T_l / (w_k + w_l);
    sigma is +1 for the energy density.

    Both kernels go through their exponential sums (see `kernels`),
    1/(omega0 + w_j + w_k) = sum_r a_r e^{-e_r w_j} e^{-e_r w_k} and
    1/(w_k + w_l) = sum_r ap_r e^{-ep_r w_k} e^{-ep_r w_l}, so with
    G(u) = sum_k T_k e^{-u w_k} the first-order form is
    sum_{r,r'} a_r a_r' conj(G(e_r)) G(e_r') H_rr',
    H_rr' = sum_j o_j e^{-(e_r + e_r') w_j}, and the second-order term is
    2 sigma Re sum_{r,r'} a_r P_r ap_r' G(e_r + ep_r') G(ep_r'),
    P_r = sum_j o_j e^{-e_r w_j}.  Every G, H and P is a geometric sum
    (`kernels.geometric_sums`) in Z = e^{-u omega1} e^{i pi (L - x) / L}
    times the cutoff's e^{-omega1 / omega_m}, since
    (-1)^k e^{i k pi x / L} = e^{-i k pi (L - x) / L}: G is its real part,
    minus its imaginary part or its conjugate, signs and conjugations that
    cancel in the products.  So the work is O(r^2) per grid point whatever
    the mode count, and no per-mode array is built.
    """
    w1 = params.omega1
    e, a = exp_sum(params.omega0 + 2.0 * w1, params.omega0 + 2.0 * n * w1)
    a = a * np.exp(-e * params.omega0)
    second = state == "second_order"
    ep, ap = exp_sum(2.0 * w1, 2.0 * n * w1) if second else (None, None)
    p, scale = (1, w1) if freq_numerator else (0, 1.0)
    theta = (params.length - xc) * (np.pi / params.length)
    zero = np.zeros(1)

    def G(u, theta, shift=None):    # the part of the sums the profile takes
        s = geometric_sums(w1 * (u + rate), theta, n, p, shift,
                           imag=part == "sin")
        return s.real if part == "cos" else s

    g = G(e, theta) * (scale * a)                               # (X, r)
    H = w1 * geometric_sums(w1 * (e + rate), zero, n, 1, w1 * e)[0].real
    vals = np.real(np.conj(g) * (g @ H)).sum(axis=1)
    g = np.abs(g)
    terms = (g * (g @ H)).sum(axis=1)
    if second:
        aP = scale * a * w1 * geometric_sums(w1 * (e + rate), zero, n, 1)[0].real
        gp = G(ep, theta) * (scale * ap)
        for b in blocks(xc.size, 2 * e.size * ep.size):
            t = (G(e, theta[b], w1 * ep) @ aP) * gp[b]
            vals[b] += 2.0 * sigma * np.real(t).sum(axis=1)
            terms[b] += 2.0 * np.abs(t).sum(axis=1)
    return len(e), vals, _condition(vals, terms)


def _condition(vals, terms):
    """sum |terms| / max |value|, the largest over the grid: roundoff
    relative to the profile's peak is about eps times this."""
    return float(np.max(terms) / np.max(np.abs(vals)))


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
    n = checked_mode_count(params, cutoff, n_max)
    r, vals, cond = _profile_sum(params, cutoff, n_max, n, xc, "exp", True,
                                 1.0, state)
    pre = params.hbar**2 / (2.0 * params.length**3 * params.mass * params.omega0)
    return ObservableProfile("delta_energy_density", x, pre * vals, params,
                             cutoff, origin, n, state, r, cond)


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
    n = checked_mode_count(params, cutoff, n_max)
    r, vals, cond = _profile_sum(params, cutoff, n_max, n, xc, trig, True,
                                 sigma, state)
    pre = params.hbar**2 / (params.mass * params.omega0 * params.length**3)
    kind = "e_squared" if component == "E" else "b_squared"
    return ObservableProfile(kind, x, pre * vals, params, cutoff, origin, n,
                             state, r, cond)


def delta_phi_squared(params: PhysicalParams, cutoff: CutoffSpec, grid,
                      n_max: int | None = None, origin: str = "fixed",
                      state: str = "first_order") -> ObservableProfile:
    """Correction to the squared-field expectation <phi^2> in the cavity.

    n_max and state as in delta_energy_density.
    """
    x, xc = _cavity_grid(params, grid, origin)
    n = checked_mode_count(params, cutoff, n_max)
    r, vals, cond = _profile_sum(params, cutoff, n_max, n, xc, "sin", False,
                                 1.0, state)
    pre = (params.hbar**2 * params.c**2
           / (params.length**3 * params.mass * params.omega0))
    return ObservableProfile("delta_phi_squared", x, pre * vals, params,
                             cutoff, origin, n, state, r, cond)

"""Squared-field cross correlation for a single movable wall (L -> infinity).

With the cavity length taken to infinity at fixed distances xt1, xt2 from
the wall, each mode sum becomes a wavenumber integral (Dirichlet mode
density L/pi per axis) and the correlation becomes

    C(xt1, xt2) = -(hbar^3 c^4 / (pi^4 m omega0)) * (T1 + T2 + T3),

a fourfold integral over k in (0, inf)^4 of

    sin(k_p xt1) sin(k_q xt1) sin(k_r xt2) sin(k_s xt2)
    * exp(-c (k_p+k_q+k_r+k_s)/omega_m)
    * [ 1/((w0+cK1)(w0+cK2)) + 1/((w0+cK1) c(K1+K2))
        + 1/((w0+cK2) c(K1+K2)) ],        K1 = k_p+k_q,  K2 = k_r+k_s.

Two independent evaluation paths are provided and cross-validated:

- 'partial_analytic': every denominator is written as a Laplace
  integral, 1/(w0 + y) = int_0^inf dt e^(-w0 t) e^(-t y) and
  1/y = int_0^inf du e^(-u y), which factorizes the four sine transforms
  into the elementary integral
  int_0^inf sin(k x) e^(-a k) dk = x/(x^2+a^2) =: S(x, a).  What remains
  is non-oscillatory:

      T1 = A(xt1) A(xt2),
      A(x)    = int_0^inf dt e^(-w0 t) S(x, c(t + 1/omega_m))^2,
      T2      = int int dt du e^(-w0 t)
                S(xt1, c(1/omega_m + t + u))^2 S(xt2, c(1/omega_m + u))^2,
      T3      = T2 with xt1 <-> xt2.

  The path takes its rules in t and u from the exponential sums of
  `kernels.exp_sum`: (e, w) for 1/x on [w0, w0 + 60 omega_m], so that
  1/(w0 + y) = sum_r a_r e^(-e_r y) with a_r = w_r e^(-e_r w0) for
  0 <= y <= 60 omega_m, and (f, b) for 1/y on
  [1e-8 c/max(xt1, xt2), 60 omega_m].  Then

      A(x) = sum_r a_r S(x, c(1/omega_m + e_r))^2,
      T2   = sum_{r,s} a_r b_s S(xt1, c(1/omega_m + e_r + f_s))^2
                               S(xt2, c(1/omega_m + f_s))^2,

  about 4000 to 17000 node pairs r s, every term positive.  Its error is
  that of the two fits.  Where y = c K exceeds 60 omega_m the cutoff
  leaves e^-60 of the integrand, and where y is below
  1e-8 c/max(xt1, xt2), where the fit of 1/y stops following it, the
  four sine factors are below 1e-32 of their scale: widening either
  range moves no value by more than 4e-16.  Inside the ranges each fit
  is within 1e-15 relative.  The sine transforms could amplify that by
  their cancellation int |integrand| / |int integrand|, which grows with
  omega_m xt / c; but the fit error varies on the scale of ln y, far
  slower than the sines, and cancels with them.  Measured, the sum is
  within 2.3e-14 of nested adaptive quadrature (tests/conftest.py) at
  ten points, and within 3.1e-14 (139 eps) of a 64-point Gauss-Legendre
  rule in u on doubling panels, with A in closed form through
  e^w E1(w), at about 550 points from omega_m = 2 to 1e5 omega0 and
  xt = 1e-4 to 3e4 c/omega0, largest in the far field.  So the path
  reports a constant ERROR_FLOOR = 256 eps (5.7e-14) as its tolerance.
  It works at any omega_m * xt / c.  It is also the L -> infinity limit
  of the discrete correlation's V(u, xt) (see `two_cavity`), since
  (pi/L) sum_p e^(-u w_p) sin(k_p xt) -> S(xt, c u).
- 'full_quadrature': direct tensor-product Gauss-Legendre quadrature of
  the k integrals on axes truncated where the exponential damping makes
  the tail negligible, with half-wavelength panels and global panel
  doubling until two refinement levels agree.  Within a cavity the
  summand is symmetric in its two wavenumbers, so each cavity's pairs
  are folded to p <= q (doubled weight off the diagonal).  The kernel
  1/(K1 + K2) goes through the exponential sum of `kernels` (r = 25 to
  70 terms on the range K1 + K2 takes, within 1e-15 relative): each
  cavity's folded pairs are projected onto the nodes by
  `kernels.project`, so a level with n nodes per axis costs O(n^2 r)
  and memory stays bounded.  The evaluation budget caps this path and
  counts the nominal tensor summands n1^2 n2^2, which grow with
  (omega_m xt / c)^4 and overstate the work by about n^2 / r.

Every structure in the integrand is a positive quadratic form, so
C < 0 for all distances and cutoffs.  The mass enters the prefactor only:
C scales exactly as 1/m.

Far field.  For xt1, xt2 >> c/omega0 (and omega_m >> omega0) the three
structures expand in c/(omega0 xt):

- T1 = A(xt1) A(xt2) -> 1/(w0^2 xt1^2 xt2^2), since A(x) -> 1/(w0 x^2).
- In T2 and T3, expanding S(xt_a, c(t + u))^2 in t under e^(-w0 t)
  (int e^(-w0 t) dt = 1/w0, int t e^(-w0 t) dt = 1/w0^2) gives
  T2 + T3 = 2 J/(w0 c) + (1/w0^2) int_0^inf du d/du[S1^2 S2^2] + ...,
  with S_a = S(xt_a, c u).  The second term is a total derivative and
  equals -S1(0)^2 S2(0)^2 / w0^2 = -1/(w0^2 xt1^2 xt2^2).

So the xt^-4 structure cancels exactly between T1 and T2 + T3, and what
remains is T1 + T2 + T3 -> 2 J/(w0 c), with

    J = int_0^inf dv xt1^2 xt2^2 / ((xt1^2 + v^2)^2 (xt2^2 + v^2)^2)
      = pi (xt1^2 + 3 xt1 xt2 + xt2^2) / (4 xt1 xt2 (xt1 + xt2)^3).

That is `far_field_correlation`:

    C_far = -hbar^3 c^3 (xt1^2 + 3 xt1 xt2 + xt2^2)
            / (2 pi^3 m omega0^2 xt1 xt2 (xt1 + xt2)^3),

-5 hbar^3 c^3 / (16 pi^3 m omega0^2 xt^3) at equal distances: log-slope
-3 in the distance, -2 in omega0.  At omega_m = 1e3 omega0 the integral
deviates from it by 4.7 %, 1.35 %, 0.36 % and 0.092 % at
xt = 5, 10, 20 and 40 c/omega0.

`asymptotic_correlation` is the closed form

    C_asym = -(hbar^3 c^4 / (2^9 pi^4)) / (m omega0^3 xt1^2 xt2^2),

stated as the far-field law of the source paper.  It has the xt1^-2 xt2^-2
structure of T1's leading term, but T1's leading term alone gives
-hbar^3 c^4 / (pi^4 m omega0^3 xt1^2 xt2^2), which is 2^9 times larger.
The paper text is not part of this package, so neither the origin of the
2^-9 nor whether that law was meant as the whole far field is settled
here.  Since the xt^-4 structure cancels, C_asym is not the far field of
the implemented integral: the ratio continuum / C_asym is 2395 at
xt = 5 c/omega0 and grows like xt.  scaling_probe measures both laws.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, UsageError
from .kernels import exp_sum, project
from .model import PhysicalParams

__all__ = [
    "ContinuumPoint",
    "ProbePoint",
    "asymptotic_correlation",
    "continuum_correlation",
    "far_field_correlation",
    "scaling_probe",
]

ASYMPTOTIC_REGIME_DISTANCE = 5.0   # in units of c/omega0
DEFAULT_BUDGET = 1e8
# full_quadrature: the Gauss-Legendre order on each panel of an axis
GL_AXIS = 6
# partial_analytic: the exponential sums run up to y = RANGE_TOP omega_m
# and 1/y down to y = RANGE_BOTTOM c / max(xt1, xt2); the reported
# relative tolerance (see the module docstring)
RANGE_TOP, RANGE_BOTTOM = 60.0, 1e-8
ERROR_FLOOR = 256 * np.finfo(float).eps


@dataclass(frozen=True)
class ContinuumPoint:
    """One evaluated continuum correlation value with its provenance."""

    xt1: float
    xt2: float
    value: float
    rel_tol: float           # achieved relative tolerance estimate
    method: str
    neval: int = 0           # node pairs r s of the exponential sums
                             # (partial_analytic) or nominal tensor
                             # summands n1^2 n2^2 (full_quadrature)


@dataclass(frozen=True)
class ProbePoint:
    """One point of a scaling study: parameter, value, local log-log slope."""

    parameter: float
    value: float
    log_slope: float


def _check_distances(xt1, xt2):
    if not (0 < xt1 < math.inf and 0 < xt2 < math.inf):
        raise UsageError(
            f"distances must be positive and finite, got xt1={xt1}, xt2={xt2}")


def _check_far_field_regime(params, xt1, xt2, name):
    _check_distances(xt1, xt2)
    scale = params.c / params.omega0
    if min(xt1, xt2) < ASYMPTOTIC_REGIME_DISTANCE * scale:
        warnings.warn(
            f"{name} used at xt = {min(xt1, xt2):g}, below its "
            f"intended regime xt >= {ASYMPTOTIC_REGIME_DISTANCE:g} c/omega0 "
            f"= {ASYMPTOTIC_REGIME_DISTANCE * scale:g}",
            stacklevel=3,
        )


def asymptotic_correlation(params: PhysicalParams, xt1: float, xt2: float) -> float:
    """Closed-form law -hbar^3 c^4/(2^9 pi^4 m w0^3 xt1^2 xt2^2) of the paper.

    Not the far field of continuum_correlation (see the module docstring
    and far_field_correlation).  Intended for xt >> c/omega0 and
    omega_m >> omega0; evaluable anywhere (a regime warning is emitted
    for small distances).
    """
    _check_far_field_regime(params, xt1, xt2, "asymptotic form")
    pre = params.hbar**3 * params.c**4 / (2.0**9 * math.pi**4)
    return -pre / (params.mass * params.omega0**3 * xt1**2 * xt2**2)


def far_field_correlation(params: PhysicalParams, xt1: float, xt2: float) -> float:
    """Far-field law of the continuum integral for xt >> c/omega0.

    -hbar^3 c^3 (xt1^2 + 3 xt1 xt2 + xt2^2)
        / (2 pi^3 m omega0^2 xt1 xt2 (xt1 + xt2)^3),

    derived in the module docstring; independent of omega_m for
    omega_m >> omega0.  Evaluable anywhere (a regime warning is emitted
    below 5 c/omega0).
    """
    _check_far_field_regime(params, xt1, xt2, "far-field law")
    num = params.hbar**3 * params.c**3 * (xt1**2 + 3.0 * xt1 * xt2 + xt2**2)
    den = (2.0 * math.pi**3 * params.mass * params.omega0**2
           * xt1 * xt2 * (xt1 + xt2)**3)
    return -num / den


# ---------------------------------------------------------------------------
# partial-analytic path
# ---------------------------------------------------------------------------

def _s2(x, a):
    """S(x, a)^2 with S the half-line sine transform of exp(-a k)."""
    return (x / (x * x + a * a)) ** 2


def _partial_analytic(params, omega_m, xt1, xt2, rel_tol, budget):
    """(value, ERROR_FLOOR, node pairs) at one point: T1 + T2 + T3 as the
    exponential sums of the module docstring.  The node pairs are checked
    against the budget before any term is evaluated."""
    w0, c = params.omega0, params.c
    top = RANGE_TOP * omega_m
    e, a = exp_sum(w0, w0 + top)
    f, b = exp_sum(RANGE_BOTTOM * c / max(xt1, xt2), top)
    size = e.size * f.size
    if size > budget:
        raise ConvergenceError(
            f"the partial-analytic sum has {size} node pairs, above its "
            f"evaluation budget of {budget:.1e}", achieved_rel_tol=math.inf)
    a = a * np.exp(-e * w0)
    off = c * (1.0 / omega_m + e)
    total = np.dot(a, _s2(xt1, off)) * np.dot(a, _s2(xt2, off))
    inner = off[:, None] + c * f
    for xa, xb in ((xt1, xt2), (xt2, xt1)):
        total += a @ (_s2(xa, inner) @ (b * _s2(xb, c * (1.0 / omega_m + f))))
    pre = params.hbar**3 * c**4 / (math.pi**4 * params.mass * w0)
    value = float(-pre * total)
    if ERROR_FLOOR > rel_tol:
        raise ConvergenceError(
            f"the partial-analytic sum {value:.17e} is accurate to "
            f"{ERROR_FLOOR:.2e} relative (requested {rel_tol:.2e})",
            best_estimate=value, achieved_rel_tol=ERROR_FLOOR)
    return value, ERROR_FLOOR, size


# ---------------------------------------------------------------------------
# full-quadrature path
# ---------------------------------------------------------------------------

@functools.cache
def _gauss(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once, read-only."""
    xg, wg = leggauss(order)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def _panel_rule(edges, xg, wg):
    """The Gauss-Legendre rule (xg, wg) on each panel between edges."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    wts = (half[:, None] * wg[None, :]).ravel()
    return nodes, wts


def _axis_edges(xt, k_max, k_struct, scale):
    """Graded panel edges on (0, k_max) for a sin(k xt) * smooth axis.

    Panels start at width ~ k_struct (the narrowest non-oscillatory
    feature, the omega0-scale denominator variation near k = 0), grow
    geometrically and are capped at half an oscillation wavelength.
    `scale` > 1 shrinks every width for refinement.
    """
    cap = min(math.pi / xt, k_max / 4.0) / scale
    w = min(k_struct, cap * scale) / scale
    edges = [0.0]
    while edges[-1] < k_max:
        edges.append(min(edges[-1] + w, k_max))
        w = min(w * 1.7, cap)
    return np.asarray(edges)


def _axis_rule(xt, k_max, k_struct, scale):
    """Panel Gauss-Legendre nodes/weights on the graded edges."""
    return _panel_rule(_axis_edges(xt, k_max, k_struct, scale), *_gauss(GL_AXIS))


def _pair_arrays(params, omega_m, xt, k, w):
    """One cavity's pairs p <= q of its axis rule (k, w): weights and K sums.

    The summand depends on (p, q) only through K = k_p + k_q and
    amp_p amp_q, so the pairs (p, q) and (q, p) are folded into one whose
    weight is doubled when p != q.
    """
    amp = w * np.sin(k * xt) * np.exp(-params.c * k / omega_m)
    p, q = np.triu_indices(k.size)
    P = amp[p] * amp[q]
    P[p != q] *= 2.0
    return P, k[p] + k[q]


def _full_level(params, omega_m, xt1, xt2, k_max, k_struct, scale, budget, spent):
    w0, c = params.omega0, params.c
    rule1 = _axis_rule(xt1, k_max, k_struct, scale)
    rule2 = _axis_rule(xt2, k_max, k_struct, scale)
    # the budget counts the n1^2 n2^2 ordered pairs of the two axis rules;
    # it is checked before any pair array exists
    cost = (rule1[0].size * rule2[0].size) ** 2
    if spent + cost > budget:
        return None, cost
    P1, K1 = _pair_arrays(params, omega_m, xt1, *rule1)
    P2, K2 = _pair_arrays(params, omega_m, xt2, *rule2)
    D1 = 1.0 / (w0 + c * K1)
    D2 = 1.0 / (w0 + c * K2)
    t1 = float(np.dot(P1, D1) * np.dot(P2, D2))
    # both cross structures share 1/(K1 + K2) = sum_r a_r e^{-e_r K1}
    # e^{-e_r K2}; the common factor 1/c is applied once at the end
    e, a = exp_sum(K1.min() + K2.min(), K1.max() + K2.max())
    F1 = project(np.vstack((P1 * D1, P1)), K1, e)
    F2 = project(np.vstack((P2, P2 * D2)), K2, e)
    return t1 + float(np.sum(F1 * F2 @ a)) / c, cost


def _full_quadrature(params, omega_m, xt1, xt2, rel_tol, budget):
    c = params.c
    lam = max(18.0, math.log(1.0 / max(rel_tol, 1e-14)) + 4.0)
    k_max = lam * omega_m / c
    k_struct = min(params.omega0, omega_m) / c
    pre = params.hbar**3 * params.c**4 / (math.pi**4 * params.mass * params.omega0)

    neval = 0
    prev = None
    achieved = math.inf
    scale = 1.0
    while True:
        total, cost = _full_level(params, omega_m, xt1, xt2, k_max, k_struct,
                                  scale, budget, neval)
        if total is None:
            raise ConvergenceError(
                f"full-quadrature refinement would exceed the evaluation "
                f"budget {budget:.1e} (achieved tolerance {achieved:.2e}, "
                f"requested {rel_tol:.2e})",
                best_estimate=prev, achieved_rel_tol=achieved)
        neval += cost
        value = -pre * total
        if prev is not None:
            achieved = abs(value - prev) / abs(value) if value != 0 else math.inf
            if achieved <= rel_tol:
                return value, achieved, neval
        prev = value
        scale *= 1.5


def _check_request(omega_m, rel_tol, budget):
    if not 0 < omega_m < math.inf:
        raise UsageError(f"omega_m must be positive and finite, got {omega_m}")
    if not rel_tol > 0:
        raise UsageError(f"rel_tol must be positive, got {rel_tol}")
    if not budget > 0:
        raise UsageError(f"budget must be positive, got {budget}")


def continuum_correlation(params: PhysicalParams, omega_m: float,
                          xt1: float, xt2: float, rel_tol: float = 1e-6,
                          method: str = "partial_analytic",
                          budget: float = DEFAULT_BUDGET) -> ContinuumPoint:
    """Continuum-limit squared-field correlation at distances xt1, xt2.

    Parameters
    ----------
    omega_m : float
        Exponential cutoff frequency (> 0).
    xt1, xt2 : float
        Distances of the two points from the movable wall (> 0).
    rel_tol : float
        Requested relative tolerance.  partial_analytic reports its
        constant error floor of 256 eps (5.7e-14) and raises
        ConvergenceError, with its value, for a request below it.
    method : {'partial_analytic', 'full_quadrature'}
        Evaluation path; the two agree within their reported tolerances.
    budget : float
        Cap on the node pairs of the two exponential sums
        (partial_analytic, which reports them as neval) or on the nominal
        tensor summands (full_quadrature).  Passing it raises
        ConvergenceError: partial_analytic checks its node pairs before
        it evaluates anything and has no estimate; full_quadrature
        carries the best estimate.
    """
    _check_distances(xt1, xt2)
    _check_request(omega_m, rel_tol, budget)
    paths = {"partial_analytic": _partial_analytic,
             "full_quadrature": _full_quadrature}
    if method not in paths:
        raise UsageError(
            f"method must be 'partial_analytic' or 'full_quadrature', got {method!r}")
    value, achieved, neval = paths[method](params, omega_m, xt1, xt2,
                                           rel_tol, budget)
    return ContinuumPoint(xt1=xt1, xt2=xt2, value=value, rel_tol=achieved,
                          method=method, neval=int(neval))


# ---------------------------------------------------------------------------
# scaling probes
# ---------------------------------------------------------------------------

def scaling_probe(params: PhysicalParams, quantity: str, axis: str, points,
                  *, xt: float | None = None, omega_m: float | None = None,
                  rel_tol: float = 1e-6) -> list[ProbePoint]:
    """Finite-difference log-log slopes of a correlation along one axis.

    Parameters
    ----------
    quantity : {'asymptotic', 'far_field', 'continuum'}
        The paper's closed form (asymptotic_correlation), the far-field
        law of the integral (far_field_correlation) or the full continuum
        integral (partial-analytic path).
    axis : {'mass', 'omega0', 'distance'}
        Swept parameter; 'distance' sweeps xt1 = xt2 = point.
    points : array_like
        At least three strictly monotone probe values.
    xt : float, optional
        Distance used for the mass and omega0 axes
        (default 10 c/omega0; both coordinates equal).
    omega_m : float, optional
        Cutoff for quantity='continuum' (default 1000 omega0).
    """
    if quantity not in ("asymptotic", "far_field", "continuum"):
        raise UsageError(
            f"quantity must be 'asymptotic', 'far_field' or 'continuum', got {quantity!r}")
    if axis not in ("mass", "omega0", "distance"):
        raise UsageError(f"axis must be 'mass', 'omega0' or 'distance', got {axis!r}")
    pts = np.asarray(points, dtype=float)
    if pts.size < 3:
        raise UsageError("need at least 3 probe points")
    d = np.diff(pts)
    if not (np.all((pts > 0) & (pts < np.inf)) and (np.all(d > 0) or np.all(d < 0))):
        raise UsageError("probe points must be positive, finite and strictly monotone")
    if xt is None:
        xt = 10.0 * params.c / params.omega0
    elif not 0 < xt < math.inf:
        raise UsageError(f"xt must be positive and finite, got {xt}")
    if omega_m is None:
        omega_m = 1e3 * params.omega0

    def point(p):
        """The parameters and the distance of one probe point."""
        if axis == "mass":
            return params.with_mass(p), xt
        if axis == "omega0":
            return PhysicalParams(params.mass, p, params.length, params.hbar,
                                  params.c), xt
        return params, p

    if quantity == "continuum":
        def law(q, x1, x2):
            return continuum_correlation(q, omega_m, x1, x2, rel_tol).value
    else:
        law = (asymptotic_correlation if quantity == "asymptotic"
               else far_field_correlation)
    values = np.array([law(q, x, x) for q, x in map(point, pts)])
    logs = np.log(np.abs(values))
    logp = np.log(pts)
    slopes = np.gradient(logs, logp)
    return [ProbePoint(float(p), float(v), float(s))
            for p, v, s in zip(pts, values, slopes)]

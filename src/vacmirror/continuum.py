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

- 'partial_analytic': every denominator is written as an exponential
  integral, which factorizes the four sine transforms into the elementary
  integral  int_0^inf sin(k x) e^(-a k) dk = x/(x^2+a^2) =: S(x, a).
  What remains is non-oscillatory:

      T1 = A(xt1) A(xt2),
      A(x)    = int_0^inf dt e^(-w0 t) S(x, c(t + 1/omega_m))^2,
      T2      = int int dt du e^(-w0 t)
                S(xt1, c(1/omega_m + t + u))^2 S(xt2, c(1/omega_m + u))^2,
      T3      = T2 with xt1 <-> xt2,

  evaluated by adaptive 1-D/nested quadrature.  This path works at any
  omega_m * xt / c.
- 'full_quadrature': direct tensor-product Gauss-Legendre quadrature of
  the k integrals on axes truncated where the exponential damping makes
  the tail negligible, with half-wavelength panels and global panel
  doubling until two refinement levels agree.  Within a cavity the
  summand is symmetric in its two wavenumbers, so each cavity's pairs
  are folded to p <= q (doubled weight off the diagonal), about 4x fewer
  kernel entries; the kernel 1/(c (K1 + K2)) is built and contracted in
  row blocks of a fixed ~1 MiB buffer, so memory stays bounded.  Cost
  still grows with (omega_m xt / c)^4, so this path is for moderate
  cutoff-distance products; the evaluation budget caps it and counts
  the nominal tensor summands n1^2 n2^2.

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

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from .errors import ConvergenceError, UsageError
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


@dataclass(frozen=True)
class ContinuumPoint:
    """One evaluated continuum correlation value with its provenance."""

    xt1: float
    xt2: float
    value: float
    rel_tol: float           # achieved relative tolerance estimate
    method: str
    neval: int = 0           # integrand calls (partial_analytic) or nominal
                             # tensor summands n1^2 n2^2 (full_quadrature)


@dataclass(frozen=True)
class ProbePoint:
    """One point of a scaling study: parameter, value, local log-log slope."""

    parameter: float
    value: float
    log_slope: float


def _check_far_field_regime(params, xt1, xt2, name):
    if xt1 <= 0 or xt2 <= 0:
        raise UsageError(f"distances must be positive, got xt1={xt1}, xt2={xt2}")
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


class _EvalCounter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


def _a_integral(params, omega_m, xt, offset, epsrel, counter):
    """int_0^inf dt e^(-w0 t) S(xt, offset + c/omega_m + c t)^2."""
    w0, c = params.omega0, params.c
    base = offset + c / omega_m

    def f(t):
        counter.n += 1
        return math.exp(-w0 * t) * _s2(xt, base + c * t)

    val, err = quad(f, 0.0, np.inf, epsabs=0.0, epsrel=epsrel, limit=400)
    return val, err


def _b_integral(params, omega_m, xt_a, xt_b, epsrel, counter):
    """T2-type cross integral; xt_a carries the t+u offset, xt_b the u offset."""
    c = params.c
    off0 = c / omega_m

    def outer(u):
        counter.n += 1
        inner, _ = _a_integral(params, omega_m, xt_a, c * u, epsrel / 4.0, counter)
        return _s2(xt_b, off0 + c * u) * inner

    val, err = quad(outer, 0.0, np.inf, epsabs=0.0, epsrel=epsrel, limit=400)
    return val, err


def _partial_analytic(params, omega_m, xt1, xt2, rel_tol, budget):
    counter = _EvalCounter()
    eps = rel_tol / 8.0
    a1, e1 = _a_integral(params, omega_m, xt1, 0.0, eps, counter)
    a2, e2 = _a_integral(params, omega_m, xt2, 0.0, eps, counter)
    t1 = a1 * a2
    t1_err = abs(a1) * e2 + abs(a2) * e1
    t2, e3 = _b_integral(params, omega_m, xt1, xt2, eps, counter)
    t3, e4 = _b_integral(params, omega_m, xt2, xt1, eps, counter)
    total = t1 + t2 + t3
    abs_err = t1_err + e3 + e4
    achieved = abs_err / abs(total) if total != 0.0 else math.inf
    pre = params.hbar**3 * params.c**4 / (math.pi**4 * params.mass * params.omega0)
    value = -pre * total
    if counter.n > budget or achieved > rel_tol:
        raise ConvergenceError(
            f"partial-analytic quadrature reached relative tolerance "
            f"{achieved:.2e} (requested {rel_tol:.2e}) after {counter.n} "
            "integrand evaluations",
            best_estimate=value, achieved_rel_tol=achieved)
    return value, achieved, counter.n


# ---------------------------------------------------------------------------
# full-quadrature path
# ---------------------------------------------------------------------------

# one block of the Cauchy kernel; blocks that stay in cache ran 2x faster
# than 32 MiB blocks at omega_m = 15, xt = 0.15
_KERNEL_BLOCK_BYTES = 1 << 20


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


def _axis_rule(xt, k_max, k_struct, scale, gl_order=6):
    """Panel Gauss-Legendre nodes/weights on the graded edges."""
    xg, wg = leggauss(gl_order)
    edges = _axis_edges(xt, k_max, k_struct, scale)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    wts = (half[:, None] * wg[None, :]).ravel()
    return nodes, wts


def _pair_arrays(params, omega_m, xt, k_max, k_struct, scale):
    """One cavity's pairs p <= q of its two axes: weights, K sums, rule size.

    The summand depends on (p, q) only through K = k_p + k_q and
    amp_p amp_q, so the pairs (p, q) and (q, p) are folded into one whose
    weight is doubled when p != q.  The third value is the number n^2 of
    ordered pairs, which the budget counts.
    """
    k, w = _axis_rule(xt, k_max, k_struct, scale)
    amp = w * np.sin(k * xt) * np.exp(-params.c * k / omega_m)
    p, q = np.triu_indices(k.size)
    P = amp[p] * amp[q]
    P[p != q] *= 2.0
    return P, k[p] + k[q], k.size**2


def _full_level(params, omega_m, xt1, xt2, k_max, k_struct, scale, budget, spent):
    w0, c = params.omega0, params.c
    P1, K1, n1 = _pair_arrays(params, omega_m, xt1, k_max, k_struct, scale)
    P2, K2, n2 = _pair_arrays(params, omega_m, xt2, k_max, k_struct, scale)
    cost = n1 * n2
    if spent + cost > budget:
        return None, cost
    D1 = 1.0 / (w0 + c * K1)
    D2 = 1.0 / (w0 + c * K2)
    t1 = float(np.dot(P1, D1) * np.dot(P2, D2))
    # 1/(K1 + K2) row block by row block in one reused buffer; one product
    # against [P2, P2 D2] serves both cross structures, and the common
    # factor 1/c is applied once at the end
    P1D1 = P1 * D1
    cols = np.column_stack((P2, P2 * D2))
    rows = max(1, _KERNEL_BLOCK_BYTES // (8 * K2.size))
    buf = np.empty((min(rows, K1.size), K2.size))
    cross = 0.0
    for lo in range(0, K1.size, rows):
        hi = min(lo + rows, K1.size)
        kb = buf[:hi - lo]
        np.add(K1[lo:hi, None], K2, out=kb)
        np.reciprocal(kb, out=kb)
        s = kb @ cols
        cross += float(P1D1[lo:hi] @ s[:, 0] + P1[lo:hi] @ s[:, 1])
    return t1 + cross / c, cost


def _full_quadrature(params, omega_m, xt1, xt2, rel_tol, budget):
    c = params.c
    lam = max(18.0, math.log(1.0 / max(rel_tol, 1e-14)) + 4.0)
    k_max = lam * omega_m / c
    k_struct = min(params.omega0, omega_m) / c
    pre = params.hbar**3 * params.c**4 / (math.pi**4 * params.mass * params.omega0)

    neval = 0
    prev = None
    best = None
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
                best_estimate=best, achieved_rel_tol=achieved)
        neval += cost
        value = -pre * total
        if prev is not None:
            achieved = abs(value - prev) / abs(value) if value != 0 else math.inf
            best = value
            if achieved <= rel_tol:
                return value, achieved, neval
        else:
            best = value
        prev = value
        scale *= 1.5


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
        Requested relative tolerance.
    method : {'partial_analytic', 'full_quadrature'}
        Evaluation path; the two agree within their reported tolerances.
    budget : float
        Cap on integrand evaluations (partial_analytic) or nominal tensor
        summands (full_quadrature) before giving up with a
        ConvergenceError carrying the best estimate.
    """
    if xt1 <= 0 or xt2 <= 0:
        raise UsageError(f"distances must be positive, got xt1={xt1}, xt2={xt2}")
    if omega_m <= 0 or not math.isfinite(omega_m):
        raise UsageError(f"omega_m must be positive and finite, got {omega_m}")
    if rel_tol <= 0:
        raise UsageError(f"rel_tol must be positive, got {rel_tol}")
    if method == "partial_analytic":
        value, achieved, neval = _partial_analytic(params, omega_m, xt1, xt2,
                                                   rel_tol, budget)
    elif method == "full_quadrature":
        value, achieved, neval = _full_quadrature(params, omega_m, xt1, xt2,
                                                  rel_tol, budget)
    else:
        raise UsageError(
            f"method must be 'partial_analytic' or 'full_quadrature', got {method!r}")
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
    if np.any(pts <= 0) or not (np.all(d > 0) or np.all(d < 0)):
        raise UsageError("probe points must be positive and strictly monotone")
    if xt is None:
        xt = 10.0 * params.c / params.omega0
    if omega_m is None:
        omega_m = 1e3 * params.omega0

    def evaluate(p):
        if axis == "mass":
            pars, x1 = params.with_mass(p), xt
        elif axis == "omega0":
            pars = PhysicalParams(params.mass, p, params.length, params.hbar, params.c)
            x1 = xt
        else:
            pars, x1 = params, p
        if quantity == "asymptotic":
            return asymptotic_correlation(pars, x1, x1)
        if quantity == "far_field":
            return far_field_correlation(pars, x1, x1)
        return continuum_correlation(pars, omega_m, x1, x1, rel_tol=rel_tol).value

    values = np.array([evaluate(p) for p in pts])
    logs = np.log(np.abs(values))
    logp = np.log(pts)
    slopes = np.gradient(logs, logp)
    return [ProbePoint(float(p), float(v), float(s))
            for p, v, s in zip(pts, values, slopes)]

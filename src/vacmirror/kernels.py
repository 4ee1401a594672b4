"""Exponential sums for the 1/x kernels of the mode sums, and the
geometric sums they leave.

Every denominator of the discrete engines is 1/(a + s omega1) with s an
index sum, and the continuum full quadrature's is 1/(K1 + K2); on the
interval [lo, hi] it takes, 1/x is the separable sum

    1/x ~= sum_r w_r exp(-e_r x),

and a Hankel kernel 1/(c + y_j + y_k) becomes
sum_r (w_r e^{-e_r c}) e^{-e_r y_j} e^{-e_r y_k}.  `project` gives each
side of a Cauchy contraction A (1/(U_t + V_u)) B^T =
(A F_U) diag(w) (B F_V)^T, F_U[t, r] = e^{-e_r U_t}.  The nodes start
from the trapezoidal rule for 1/x = int exp(tau - x e^tau) dtau with step
1/4 on the nodes tau = m/4, m integer, which are exact in binary.  The
rule's discretization error is about 2e-16 relative; the range of tau
drops the two tails below TOL on [lo, hi].  Braess & Hackbusch, IMA J.
Numer. Anal. 25 (2005) 685; Beylkin & Monzon, ACHA 28 (2010) 131.

About 150 of those nodes lie in the lower tail e_r hi <= 1, where
e^{-e_r x} varies slowly on [lo, hi].  They are replaced by the
GAUSS_NODES-point Gauss rule of their own discrete measure
sum_r w_r delta(e_r), which has positive weights and the tail's moments
up to degree 2 GAUSS_NODES - 1 (Golub & Welsch, Math. Comp. 23 (1969)
221).  That leaves 25 nodes at N = 3 and 68 at N = 184208 modes.  The
rule depends on (lo, hi) only and is kept for the last few intervals.

The discrete engines' modes are equally spaced, w_k = k omega1 with
wavenumbers k pi / L, so once the kernels are exponential sums every mode
sum left is a finite geometric series sum_{k=1}^{N} k^p Z^k, p = 0 or 1,
in Z = e^{-u omega1} e^{i theta}: `geometric_sums` evaluates them in
closed form, at a cost that does not depend on N.
"""
from __future__ import annotations

import functools
import math

import numpy as np

TOL = 1e-16

# Gauss nodes that replace the lower tail of the trapezoid rule
GAUSS_NODES = 6

# bytes of the largest per-block table a contraction builds
BLOCK_BYTES = 1 << 21


@functools.lru_cache(maxsize=16)
def exp_sum(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes e and weights w with 1/x = sum_r w_r exp(-e_r x) on [lo, hi].

    The relative error is below 1e-15 on 0 < lo <= x <= hi; every weight
    is positive.  GAUSS_NODES nodes stand for the lower tail and about
    4 ln(37 hi / lo) trapezoid nodes for the rest: 25 to 70 in all on the
    engines' ranges.
    """
    # tails: int_{-inf}^{t0} e^tau dtau = e^t0 <= TOL / hi, and
    # e^{-x e^t1} <= TOL at x = lo
    m0 = math.floor(4.0 * math.log(TOL / hi))
    m1 = math.ceil(4.0 * math.log(math.log(1.0 / TOL) / lo))
    e = np.exp(np.arange(m0, m1 + 1) / 4.0)
    w = e / 4.0
    tail = e * hi <= 1.0
    # the rule is built on the nodes scaled to (0, 1], where the Lanczos
    # vectors and the Jacobi matrix are well conditioned
    t, v = _gauss_rule(e[tail] * hi, w[tail], GAUSS_NODES)
    e, w = np.concatenate([t / hi, e[~tail]]), np.concatenate([v, w[~tail]])
    e.flags.writeable = w.flags.writeable = False
    return e, w


def _gauss_rule(t: np.ndarray, w: np.ndarray, k: int):
    """Nodes and weights of the k-point Gauss rule of the discrete measure
    sum_r w_r delta(t_r), w_r > 0: k Lanczos steps on diag(t) from
    sqrt(w), reorthogonalized against every earlier vector, then the
    eigenpairs of the k x k Jacobi matrix (Golub & Welsch)."""
    mass = w.sum()
    Q = np.zeros((k, t.size))
    Q[0] = np.sqrt(w / mass)
    J = np.zeros((k, k))
    for j in range(k):
        v = t * Q[j]
        J[j, j] = Q[j] @ v
        if j + 1 == k:
            break
        for _ in range(2):          # twice is enough (Kahan's rule)
            v -= (Q[:j + 1] @ v) @ Q[:j + 1]
        J[j, j + 1] = J[j + 1, j] = np.linalg.norm(v)
        Q[j + 1] = v / J[j, j + 1]
    nodes, V = np.linalg.eigh(J)
    return nodes, mass * V[0] ** 2


def blocks(n: int, width: int) -> list[slice]:
    """Consecutive slices covering range(n), each a block of rows of a table
    `width` float64 wide that fits in BLOCK_BYTES."""
    step = max(1, BLOCK_BYTES // (8 * width))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def project(A: np.ndarray, W: np.ndarray, e: np.ndarray) -> np.ndarray:
    """A @ exp(-outer(W, e)), summed over blocks of W: the rows of A
    projected onto the nodes e, without the len(W) x len(e) table."""
    out = np.zeros((A.shape[0], e.size))
    for b in blocks(W.size, e.size):
        F = np.multiply.outer(W[b], -e)
        out += A[:, b] @ np.exp(F, out=F)
    return out


def geometric_sums(d: np.ndarray, theta: np.ndarray, n: int, p: int,
                   shift: np.ndarray | None = None,
                   imag: bool = False) -> np.ndarray:
    """sum_{k=1}^{n} k^p Z^k for Z = exp(-f_j - d_i + i theta_x), p = 0 or 1.

    d (m,) and the optional shift f (s,) are non-negative decay rates and
    theta (X,) are phases; the result is complex, of shape (X, m), or
    (X, s, m) with a shift.  imag=True returns the imaginary parts only,
    as a real array.  With Q = Z / (Z - 1) and a = log Z the sums are

        p = 0:  Q expm1(n a)                     = -Q + Q Z^n,
        p = 1:  -Q (expm1(n a) / expm1(a) - n Z^n) = Q / expm1(a)
                                                   + Q Z^n (n - 1 / expm1(a)),

    which keep their accuracy as Z -> 1, where the textbook form
    (1 - (n + 1) Z^n + n Z^{n+1}) / (1 - Z)^2 cancels.  The Z^n terms are
    added only where n^p |Z^n| exceeds the unit roundoff 2^-53.  Where
    n |a| < 2 the p = 1 sum cancels in turn, and those entries are summed
    over k directly.  Every table is built from per-rate factors
    rho = e^{-x}, expm1(-x) and per-phase factors e^{i theta},
    expm1(i theta), sin^2(theta / 2), with no transcendental function and
    no complex division per entry:

        expm1(a) = expm1(-x) e^{i theta} + expm1(i theta),
        |expm1(a)|^2 = expm1(-x)^2 + 4 rho sin^2(theta / 2),
        Q = rho (expm1(-x) - expm1(i theta)) / |expm1(a)|^2,

    each a sum of terms of one sign or, for Q, within a factor 2 of |Q|;
    for p = 0, -Im Q = rho sin(theta) / |expm1(a)|^2.  A shift enters the
    per-rate factors as e^{-d-f} = e^{-d} e^{-f} and
    expm1(-d-f) = expm1(-d) e^{-f} + expm1(-f).
    """
    rho, em, rate = np.exp(-d), np.expm1(-d), d
    if shift is not None:
        f = shift[:, None]
        ef = np.exp(-f)
        rho, em, rate = rho * ef, em * ef + np.expm1(-f), d + f
    shape = (theta.size,) + rate.shape
    rho, em, rate = rho.ravel(), em.ravel(), rate.ravel()
    th = theta[:, None]
    # in place where it can be: each fresh table costs page faults
    inv = rho * (4.0 * np.sin(th / 2.0)**2)
    inv += em * em
    np.reciprocal(inv, out=inv)
    e1 = np.expm1(1j * th)

    # complex operands on both sides: numpy's mixed products are slower
    def q(k=slice(None)):               # Q at the rates k
        out = (rho[k] + 0j) * e1
        np.subtract((rho * em)[k], out, out=out)
        out *= inv[:, k]
        return out

    def recip(k=slice(None)):           # 1 / expm1(a) at the rates k
        out = (em[k] + 0j) * np.exp(-1j * th)
        out += np.conj(e1)
        out *= inv[:, k]
        return out

    cap = 53.0 * math.log(2.0) + p * math.log(n)
    tail = np.flatnonzero(n * rate < cap)
    zn = (np.exp(-n * rate[tail]) + 0j) * np.exp(1j * n * th)
    if imag and p == 0:
        s = rho * np.sin(th)
        s *= inv
        if tail.size:
            s[:, tail] += (q(tail) * zn).imag
    else:
        s = q()
        if p == 0:
            np.negative(s, out=s)
            if tail.size:
                s[:, tail] += q(tail) * zn
        else:
            s *= recip()
            if tail.size:
                s[:, tail] += q(tail) * zn * (n - recip(tail))
        if imag:
            s = s.imag
    # direct sums where n |a| < 2, which needs n x < 2 and n |theta| < 2
    if n * rate.min() < 2.0 and n * np.abs(theta).min() < 2.0:
        xi, ki = np.nonzero(n * np.hypot(rate, th) < 2.0)
        near = _direct_sums(1j * theta[xi] - rate[ki], n, p)
        s[xi, ki] = near.imag if imag else near
    return s.reshape(shape)


def _direct_sums(a: np.ndarray, n: int, p: int) -> np.ndarray:
    """sum_{k=1}^{n} k^p e^{k a} for each entry of the 1-D array a, term by
    term in two levels, k = b B + j with B = isqrt(n): the sums over j and
    over the block starts b B, each of exponentials taken directly, cost
    O(sqrt(n)) per entry."""
    B = math.isqrt(n)
    nb, rem = divmod(n, B)
    j = np.arange(1.0, B + 1.0)[:, None]
    kb = B * np.arange(nb + 1.0)[:, None]       # block starts; the last for rem
    out = np.empty(a.shape, complex)
    for c in blocks(a.size, 2 * (B + nb + 1)):
        zj = np.exp(j * a[c])
        zb = np.exp(kb * a[c])
        full, part = zj.sum(axis=0), zj[:rem].sum(axis=0)
        if p == 0:
            out[c] = zb[:nb].sum(axis=0) * full + zb[nb] * part
        else:
            out[c] = ((kb[:nb] * zb[:nb]).sum(axis=0) * full
                      + zb[:nb].sum(axis=0) * (j * zj).sum(axis=0)
                      + zb[nb] * (kb[nb] * part + (j[:rem] * zj[:rem]).sum(axis=0)))
    return out

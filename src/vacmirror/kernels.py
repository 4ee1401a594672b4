"""Exponential sums for the 1/x kernels of the mode sums, and the mode
tables' trig factors by rotation.

Every denominator of the discrete engines is 1/(a + s omega1) with s an
index sum, and the continuum full quadrature's is 1/(K1 + K2); on the
interval [lo, hi] it takes, 1/x is the separable sum

    1/x ~= sum_r w_r exp(-e_r x),

and a Hankel kernel 1/(c + y_j + y_k) becomes
sum_r (w_r e^{-e_r c}) e^{-e_r y_j} e^{-e_r y_k}: a contraction over N
modes costs O(N r) instead of O(N^2).  `project` gives each side of a
Cauchy contraction A (1/(U_t + V_u)) B^T = (A F_U) diag(w) (B F_V)^T,
F_U[t, r] = e^{-e_r U_t}.  The nodes start from the trapezoidal rule for
1/x = int exp(tau - x e^tau) dtau with step 1/4 on the nodes tau = m/4,
m integer, which are exact in binary.  The rule's discretization error
is about 2e-16 relative; the range of tau drops the two tails below TOL
on [lo, hi].  Braess & Hackbusch, IMA J. Numer. Anal.
25 (2005) 685; Beylkin & Monzon, ACHA 28 (2010) 131.

About 150 of those nodes lie in the lower tail e_r hi <= 1, where
e^{-e_r x} varies slowly on [lo, hi].  They are replaced by the
GAUSS_NODES-point Gauss rule of their own discrete measure
sum_r w_r delta(e_r), which has positive weights and the tail's moments
up to degree 2 GAUSS_NODES - 1 (Golub & Welsch, Math. Comp. 23 (1969)
221).  That leaves 25 nodes at N = 3 and 68 at N = 184208 modes.

The mode tables' wavenumbers are k_n = n k_1, so e^{i k_{s+m} x} =
e^{i k_s x} e^{i k_m x}: `phases` builds the first block of the trig
table with cos and sin, and every later block as that table rotated by
one row taken in extended precision.
"""
from __future__ import annotations

import math

import numpy as np

TOL = 1e-16

# Gauss nodes that replace the lower tail of the trapezoid rule
GAUSS_NODES = 6

# bytes of the largest per-block table a contraction builds
BLOCK_BYTES = 1 << 21


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
    return np.concatenate([t / hi, e[~tail]]), np.concatenate([v, w[~tail]])


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


def phases(k: np.ndarray, x: np.ndarray, step: int):
    """A function b -> exp(i outer(k[b], x)) for slices b of at most `step`
    rows, for wavenumbers k_n = n k_1, n = 1 .. N (k[n - 1] = k_n).

    The table of rows :step is built once with cos and sin.  A slice
    starting at s > 0 is that table times the row exp(i k_s x), whose cos
    and sin are taken of the product k_s x in np.longdouble and then
    rounded: one complex product per entry instead of two trig calls.  At
    N = 184208 its rms and largest errors against cos and sin of the exact
    phase n pi x / L are below those of cos and sin at the rounded
    arguments k_n x.  A slice starting at 0 is a read-only view of the
    first table, so its parts are exactly cos and sin of outer(k, x).
    """
    kx = np.outer(k[:step], x)
    first = np.empty(kx.shape, complex)
    first.real = np.cos(kx)
    first.imag = np.sin(kx)
    first.flags.writeable = False
    x_ext = x.astype(np.longdouble)

    def table(b: slice) -> np.ndarray:
        rows = first[:b.stop - b.start]
        if b.start == 0:
            return rows
        ks = k[b.start - 1] * x_ext
        return (np.cos(ks) + 1j * np.sin(ks)).astype(complex) * rows
    return table

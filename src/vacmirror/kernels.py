"""Exponential sums for the 1/x kernels of the mode sums.

Every denominator of the discrete engines is 1/(a + s omega1) with s an
index sum, and the continuum full quadrature's is 1/(K1 + K2); on the
interval [lo, hi] it takes, 1/x is the separable sum

    1/x ~= sum_r w_r exp(-e_r x),

and a Hankel kernel 1/(c + y_j + y_k) becomes
sum_r (w_r e^{-e_r c}) e^{-e_r y_j} e^{-e_r y_k}: a contraction over N
modes costs O(N r) instead of O(N^2).  `project` gives each side of a
Cauchy contraction A (1/(U_t + V_u)) B^T = (A F_U) diag(w) (B F_V)^T,
F_U[t, r] = e^{-e_r U_t}.  The nodes come from the trapezoidal rule for
1/x = int exp(tau - x e^tau) dtau with step 1/4 on the nodes tau = m/4,
m integer, which are exact in binary.  The rule's discretization error
is about 2e-16 relative; the range of tau drops the two tails below TOL
on [lo, hi].  Braess & Hackbusch, IMA J. Numer. Anal.
25 (2005) 685; Beylkin & Monzon, ACHA 28 (2010) 131.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-16

# bytes of the largest per-block table a contraction builds
BLOCK_BYTES = 1 << 21


def exp_sum(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes e and weights w with 1/x = sum_r w_r exp(-e_r x) on [lo, hi].

    The relative error is below 1e-15 on 0 < lo <= x <= hi; about
    4 (ln(hi/lo) + 40) nodes.
    """
    # tails: int_{-inf}^{t0} e^tau dtau = e^t0 <= TOL / hi, and
    # e^{-x e^t1} <= TOL at x = lo
    m0 = math.floor(4.0 * math.log(TOL / hi))
    m1 = math.ceil(4.0 * math.log(math.log(1.0 / TOL) / lo))
    e = np.exp(np.arange(m0, m1 + 1) / 4.0)
    return e, e / 4.0


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

"""Ground-state dressing of the mirror-field system, to second order.

The interaction creates virtual states with one mirror quantum and a pair
of photons.  For an ordered index pair (k, j) the summand amplitude is

    c_kj = (1/L) sqrt(hbar/(8 m omega0)) (-1)**(k+j)
           * sqrt(w_k w_j) / (omega0 + w_k + w_j) * cutoff weight.

Pairs are stored unordered (k <= j) with multiplicity 2 for k != j and
1 for k = j.  The amplitude of the corresponding *normalized* Fock state
is sqrt(2 * mult) * c_kj, so the squared norm of the first-order dressing
is lambda_sq = 2 * sum_pairs mult * c_kj**2, and the second-order energy
shift obeys, exactly and for any cutoff,

    delta_E = - sum_pairs 2 * mult * c_kj_raw * c_kj * hbar*(omega0+w_k+w_j)

(c_kj_raw is the unweighted amplitude; with a sharp cutoff the product
c_raw * c reduces to c**2).  The shift itself is the double sum

    delta_E = - hbar^2/(4 L^2 m omega0) * sum_kj w_k w_j/(omega0+w_k+w_j)

over ordered pairs, strictly negative for any nonempty mode set.  On the
equally spaced spectrum w_k = k omega1 the denominator and the cutoff
weight of a summand depend on the index sum s = k + j only, so grouping
the numerators w_k w_j = omega1^2 k j by s collapses the double sum to the
O(N) sum

    delta_E = - hbar^2/(4 L^2 m omega0) * sum_{s=2}^{2N} omega1^2 M_s g(W_s)
              / (omega0 + W_s),   W_s = s omega1,

with the cutoff weight g of a pair and the index-product sum
M_s = sum_{k+j=s} k j over 1 <= k, j <= N, which has a closed form.  The
virtual photon spectrum groups the same way: the pairs of index sum s
share the pair frequency W_s, so `photon_spectrum` bins O(N) index-sum
weights.  `dressed_amplitudes` keeps the N (N + 1) / 2 individual pairs
for per-pair access.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, UsageError
from .model import CutoffSpec, PhysicalParams, checked_mode_count, mode_tables

__all__ = [
    "DressedAmplitudes",
    "PhotonSpectrum",
    "energy_shift",
    "dressed_amplitudes",
    "photon_spectrum",
]

# dressed_amplitudes holds about PAIR_BYTES per stored pair at its peak
# (index, frequency and amplitude arrays; 113 measured with tracemalloc)
# and refuses pair tables above PAIR_TABLE_LIMIT bytes (N > 4229 modes)
PAIR_BYTES = 120
PAIR_TABLE_LIMIT = 1 << 30

# photon_spectrum refuses histograms of more than MAX_BINS bins before it
# allocates them (edges, weights and centers take 24 bytes a bin, and the
# CLI writes one row a bin); the default width omega0/20 at MAX_MODES
# needs 40 (MAX_MODES - 1) omega1/omega0 bins, 7 999 961 at omega0 = omega1
MAX_BINS = 1 << 24


@dataclass(frozen=True)
class DressedAmplitudes:
    """First-order pair-excitation content of the dressed ground state."""

    params: PhysicalParams
    cutoff: CutoffSpec
    pairs: np.ndarray          # (P, 2) int, k <= j
    coeffs: np.ndarray         # cutoff-weighted amplitudes c_kj
    coeffs_raw: np.ndarray     # amplitudes without the cutoff weight
    weights: np.ndarray        # cutoff weights per pair
    multiplicities: np.ndarray  # 2 for k != j, 1 for k = j

    @property
    def pair_frequencies(self) -> np.ndarray:
        """Total pair frequency w_k + w_j per stored pair."""
        w1 = self.params.omega1
        return (self.pairs[:, 0] + self.pairs[:, 1]) * w1

    @property
    def normalized_state_amplitudes(self) -> np.ndarray:
        """Amplitudes on normalized Fock states: sqrt(2*mult) * c_kj."""
        return np.sqrt(2.0 * self.multiplicities) * self.coeffs

    @property
    def lambda_sq(self) -> float:
        """Squared norm of the first-order dressing (normalization deficit)."""
        return float(np.sum(2.0 * self.multiplicities * self.coeffs**2))

    def coefficient(self, k: int, j: int) -> float:
        """Summand amplitude c_kj for an (unordered) mode pair."""
        lo, hi = min(k, j), max(k, j)
        mask = (self.pairs[:, 0] == lo) & (self.pairs[:, 1] == hi)
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            raise UsageError(f"pair ({k}, {j}) is outside the stored mode set")
        return float(self.coeffs[idx[0]])


@dataclass(frozen=True)
class PhotonSpectrum:
    """Histogram of virtual-pair weight versus total pair frequency."""

    bin_edges: np.ndarray
    weights: np.ndarray
    bin_width: float
    peak_frequency: float = field(default=np.nan)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


def _pair_index_products(n):
    """M[s - 2] = sum of k j over ordered pairs 1 <= k, j <= n with k + j = s.

    Closed form from the integer prefix sums of k and k^2 over the range
    max(1, s - n) <= k <= min(n, s - 1); exact, in int64 and after the
    conversion to float64, for every n up to MAX_MODES.
    """
    s = np.arange(2, 2 * n + 1, dtype=np.int64)
    lo = np.maximum(s - n, 1) - 1
    hi = np.minimum(s - 1, n)
    sum_k = (hi * (hi + 1) - lo * (lo + 1)) // 2
    sum_k2 = (hi * (hi + 1) * (2 * hi + 1) - lo * (lo + 1) * (2 * lo + 1)) // 6
    return s * sum_k - sum_k2


def energy_shift(params: PhysicalParams, cutoff: CutoffSpec,
                 n_max: int | None = None) -> float:
    """Second-order ground-state energy shift, always negative.

    Parameters
    ----------
    params : PhysicalParams
    cutoff : CutoffSpec
        Determines the range and weighting of the double mode sum.
    n_max : int, optional
        Explicit mode count overriding the cutoff-derived size; a sharp
        per-mode cutoff caps it (modes above omega_m are dropped).
    """
    n = checked_mode_count(params, cutoff, n_max)
    _, _, g, _, h = mode_tables(params, cutoff, n)
    M = _pair_index_products(n)
    pre = params.hbar**2 / (4.0 * params.length**2 * params.mass * params.omega0)
    return float(-pre * params.omega1**2 * np.sum(M * g * h))


def dressed_amplitudes(params: PhysicalParams, cutoff: CutoffSpec,
                       n_max: int | None = None) -> DressedAmplitudes:
    """First-order amplitudes of the dressed ground state, pair by pair.

    n_max is the explicit mode count; a sharp per-mode cutoff caps it.
    Holds arrays over all N (N + 1) / 2 pairs: for per-pair access only
    (photon_spectrum and energy_shift work on index sums in O(N)).  Raises
    CapacityError before allocating when they would take more than
    PAIR_TABLE_LIMIT bytes.
    """
    n = checked_mode_count(params, cutoff, n_max)
    need = PAIR_BYTES * (n * (n + 1) // 2)
    if need > PAIR_TABLE_LIMIT:
        raise CapacityError(
            f"the {n * (n + 1) // 2} mode pairs of {n} modes need about "
            f"{need / 2**30:.1f} GiB, above the limit of "
            f"{PAIR_TABLE_LIMIT / 2**30:g} GiB; use energy_shift or "
            "photon_spectrum, which work on index sums in O(N)")
    modes, _, g, _, h = mode_tables(params, cutoff, n)
    rows, cols = np.triu_indices(len(modes))
    kk, jj = modes.indices[rows], modes.indices[cols]
    s = rows + cols                      # position of the pair's index sum
    w1 = params.omega1
    wk, wj = kk * w1, jj * w1
    signs = np.where(s % 2 == 0, 1.0, -1.0)
    pre = np.sqrt(params.hbar / (8.0 * params.mass * params.omega0)) / params.length
    raw = pre * signs * np.sqrt(wk * wj) * h[s]
    wgt = g[s]
    return DressedAmplitudes(
        params=params, cutoff=cutoff, pairs=np.column_stack([kk, jj]),
        coeffs=raw * wgt, coeffs_raw=raw, weights=wgt,
        multiplicities=np.where(kk == jj, 1.0, 2.0))


def photon_spectrum(params: PhysicalParams, cutoff: CutoffSpec,
                    n_max: int | None = None,
                    bin_width: float | None = None) -> PhotonSpectrum:
    """Histogram |amplitude|^2 of virtual pairs versus w_k + w_j.

    The pairs of index sum s share the frequency W_s and together weigh
    2 hbar/(8 m omega0 L^2) omega1^2 M_s (h_s g_s)^2 on normalized states,
    with M_s the index-product sum of the energy shift; so the histogram
    costs O(N) and builds no per-pair array.  n_max as in energy_shift.
    bin_width defaults to omega0/20; a width that asks for more than
    MAX_BINS bins raises CapacityError before any bin exists.  The sum of
    all bin weights equals lambda_sq of the dressed amplitudes; the peak
    location is reported as a diagnostic.
    """
    if bin_width is None:
        bin_width = params.omega0 / 20.0
    if not bin_width > 0:
        raise UsageError(f"bin_width must be positive, got {bin_width}")
    n = checked_mode_count(params, cutoff, n_max)
    _, _, g, W, h = mode_tables(params, cutoff, n)
    span = float(W[-1] - W[0])
    if span > 0 and bin_width > span:
        raise UsageError(
            f"bin_width {bin_width:g} exceeds the spectral range {span:g}")
    pre = 2.0 * params.hbar * params.omega1**2 / (
        8.0 * params.mass * params.omega0 * params.length**2)
    w = pre * _pair_index_products(n) * (h * g)**2
    bins = (span + 1e-12 * max(span, 1.0)) / bin_width if span > 0 else 1.0
    if bins > MAX_BINS:
        raise CapacityError(
            f"bin_width {bin_width:g} splits the spectral range {span:g} into "
            f"{bins:.3g} bins, above the limit of {MAX_BINS}")
    n_bins = max(1, int(np.ceil(bins)))
    edges = W[0] + bin_width * np.arange(n_bins + 1)
    idx = np.minimum(((W - W[0]) / bin_width).astype(np.int64), n_bins - 1)
    weights = np.bincount(idx, weights=w, minlength=n_bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    peak = float(centers[int(np.argmax(weights))])
    return PhotonSpectrum(bin_edges=edges, weights=weights,
                          bin_width=float(bin_width), peak_frequency=peak)

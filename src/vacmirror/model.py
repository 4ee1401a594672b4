"""Physical parameters, cavity mode structure, mirror-field coupling, cutoffs.

Conventions used throughout the library:

- One cavity: fixed wall at x = 0, movable wall at its equilibrium
  position x = L.  Two cavities: fixed walls at x = 0 and x = 2L, movable
  wall at x = L separating them.  Mode functions are sin(k_n x) with
  k_n = n pi / L, omega_n = c k_n, n = 1, 2, ...
- The mirror is a quantum harmonic oscillator of mass m and angular
  frequency omega0.  Its zero-point motion couples pairs of field modes
  with matrix element

      C_kj = (-1)**(k+j) / L * sqrt(hbar**3 * w_k * w_j / (8 m omega0)),

  the same for both cavities up to an overall sign (moving the wall
  lengthens one cavity while shortening the other, so C^right = -C^left).
- All formulas carry hbar and c explicitly; the default hbar = c = 1
  reproduces natural units, while SI values can be passed straight in.
- The dimensionless coupling lambda = sqrt(hbar / (8 m omega0 L**2))
  organizes the perturbative expansion; weak coupling means lambda << 1.

Mode sums diverge in the ultraviolet and are regularized by a cutoff
frequency omega_m, either sharp (drop high-frequency modes) or exponential
(damp each summand by exp(-sum of participating mode frequencies/omega_m)).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateModeSetError, ParameterError, UsageError

# Hard limit on the number of field modes a single discrete sum may use.
MAX_MODES = 200_000

# Auto-sized exponential-cutoff mode sets keep every per-mode damping
# factor above this tail weight, then double the count once as a guard.
EXP_TAIL_WEIGHT = 1e-8

# omega_m below this multiple of omega0 triggers a (non-fatal) warning.
CUTOFF_SCALE_WARN_RATIO = 5.0


@dataclass(frozen=True)
class PhysicalParams:
    """Mirror and cavity parameters.

    Parameters
    ----------
    mass : float
        Mirror mass (kg in SI, or any consistent unit system).
    omega0 : float
        Angular frequency of the harmonic binding of the mirror.
    length : float
        Cavity length L (each cavity in the two-cavity configuration).
    hbar, c : float, optional
        Fundamental constants; default 1 (natural units).
    """

    mass: float
    omega0: float
    length: float
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("mass", "omega0", "length", "hbar", "c"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be a positive finite number, got {v!r}")

    @property
    def coupling_lambda(self) -> float:
        """Dimensionless mirror-field coupling sqrt(hbar/(8 m omega0 L^2))."""
        lam = math.sqrt(self.hbar / (8.0 * self.mass * self.omega0 * self.length**2))
        if not math.isfinite(lam) or lam <= 0.0:
            raise ParameterError(f"derived coupling is not finite and positive: {lam}")
        return lam

    @property
    def omega1(self) -> float:
        """Fundamental mode frequency pi c / L."""
        return math.pi * self.c / self.length

    def with_mass(self, mass: float) -> "PhysicalParams":
        return PhysicalParams(mass, self.omega0, self.length, self.hbar, self.c)


class CavityTag(enum.Enum):
    """Which cavity a field operator lives in.

    SINGLE spans x in (0, L) with the movable wall at x = L.
    LEFT spans x in (0, L), RIGHT spans x in (L, 2L); the movable wall
    sits between them at x = L.
    """

    SINGLE = "single"
    LEFT = "left"
    RIGHT = "right"

    def span(self, params: PhysicalParams) -> tuple[float, float]:
        L = params.length
        if self is CavityTag.RIGHT:
            return (L, 2.0 * L)
        return (0.0, L)


@dataclass(frozen=True)
class CutoffSpec:
    """Regularization of ultraviolet mode sums.

    kind 'sharp' keeps a summand iff the participating mode frequencies
    pass the truncation rule; kind 'exp' weighs each summand by
    exp(-(sum of participating mode frequencies)/omega_m).

    sharp_rule selects the truncation reading for the sharp kind:
    'per_mode' (default) requires every participating frequency <= omega_m,
    equivalent to a finite mode set of N = floor(omega_m L/(pi c)) modes;
    'total' requires the *sum* of participating frequencies <= omega_m.
    Only the double sums (energy shift, pair amplitudes) support 'total';
    the profile and correlation engines rely on the factorized per-mode
    form and reject it.
    """

    kind: str
    omega_m: float
    sharp_rule: str = "per_mode"

    def __post_init__(self):
        if self.kind not in ("sharp", "exp"):
            raise ParameterError(f"cutoff kind must be 'sharp' or 'exp', got {self.kind!r}")
        if not (isinstance(self.omega_m, (int, float)) and math.isfinite(self.omega_m)
                and self.omega_m > 0):
            raise ParameterError(f"omega_m must be positive and finite, got {self.omega_m!r}")
        if self.sharp_rule not in ("per_mode", "total"):
            raise ParameterError(f"sharp_rule must be 'per_mode' or 'total', got {self.sharp_rule!r}")

    @classmethod
    def sharp(cls, omega_m: float, rule: str = "per_mode") -> "CutoffSpec":
        return cls("sharp", omega_m, rule)

    @classmethod
    def exponential(cls, omega_m: float) -> "CutoffSpec":
        return cls("exp", omega_m)

    @classmethod
    def sharp_n_modes(cls, params: PhysicalParams, n: int) -> "CutoffSpec":
        """Sharp cutoff placed so that exactly the lowest n modes survive."""
        if n < 1:
            raise ParameterError(f"need at least one mode, got n={n}")
        return cls("sharp", (n + 0.5) * params.omega1)

    def check_scale(self, params: PhysicalParams) -> None:
        """Warn when omega_m is not well above the mirror frequency."""
        if self.omega_m < CUTOFF_SCALE_WARN_RATIO * params.omega0:
            warnings.warn(
                f"cutoff omega_m = {self.omega_m:g} is below "
                f"{CUTOFF_SCALE_WARN_RATIO:g} * omega0 = "
                f"{CUTOFF_SCALE_WARN_RATIO * params.omega0:g}; results are "
                "well-defined but outside the intended regime omega_m >> omega0",
                # attributed to the caller of the engine: engine -> mode_tables -> here
                stacklevel=4,
            )


@dataclass(frozen=True)
class ModeSet:
    """The lowest N cavity modes: indices n, wavenumbers n pi/L, frequencies."""

    indices: np.ndarray
    wavenumbers: np.ndarray
    frequencies: np.ndarray

    @classmethod
    def build(cls, params: PhysicalParams, cutoff: CutoffSpec,
              n_max: int | None = None) -> "ModeSet":
        """Mode set implied by the cutoff, or of explicit size n_max.

        Sharp: N = floor(omega_m L / (pi c)) (per-mode truncation).
        Exponential: N sized so the per-mode tail weight exp(-w_N/omega_m)
        drops below EXP_TAIL_WEIGHT, then doubled once as a guard.
        """
        if n_max is None:
            w1 = params.omega1
            if cutoff.kind == "sharp":
                n_max = int(math.floor(cutoff.omega_m / w1))
            else:
                n_star = int(math.ceil(math.log(1.0 / EXP_TAIL_WEIGHT) * cutoff.omega_m / w1))
                n_max = 2 * max(n_star, 1)
        if n_max > MAX_MODES:
            raise CapacityError(
                f"mode set of size {n_max} exceeds the limit {MAX_MODES}; "
                "lower omega_m or pass an explicit n_max")
        n = np.arange(1, n_max + 1, dtype=np.int64)
        k = n * (np.pi / params.length)
        return cls(indices=n, wavenumbers=k, frequencies=params.c * k)

    def __len__(self) -> int:
        return int(self.indices.size)


def coupling_matrix_element(params: PhysicalParams, k: int, j: int) -> float:
    """Mirror-field coupling C_kj for mode indices k, j >= 1.

    C_kj = (-1)**(k+j) / L * sqrt(hbar^3 w_k w_j / (8 m omega0)); symmetric
    in (k, j), scales as 1/sqrt(mass), alternates sign with k + j.
    """
    if k < 1 or j < 1:
        raise UsageError(f"mode indices must be >= 1, got k={k}, j={j}")
    wk = k * params.omega1
    wj = j * params.omega1
    mag = math.sqrt(params.hbar**3 * wk * wj / (8.0 * params.mass * params.omega0))
    return (-1.0) ** ((k + j) % 2) * mag / params.length


def two_cavity_coupling(params: PhysicalParams, cavity: CavityTag, k: int, j: int) -> float:
    """Coupling of the mirror to the left (C_kj) or right (-C_kj) cavity."""
    if cavity is CavityTag.LEFT:
        return coupling_matrix_element(params, k, j)
    if cavity is CavityTag.RIGHT:
        return -coupling_matrix_element(params, k, j)
    raise UsageError("two_cavity_coupling needs cavity LEFT or RIGHT, not SINGLE")


def _cutoff_factor(spec: CutoffSpec, total, largest):
    """The one encoding of the cutoff: weight of summands whose participating
    mode frequencies add up to `total` and peak at `largest` (elementwise)."""
    if spec.kind == "exp":
        return np.exp(-np.asarray(total) / spec.omega_m)
    passing = largest if spec.sharp_rule == "per_mode" else total
    return np.where(np.asarray(passing) <= spec.omega_m, 1.0, 0.0)


def _factorizes(spec: CutoffSpec) -> bool:
    return spec.kind == "exp" or spec.sharp_rule == "per_mode"


def cutoff_weight(spec: CutoffSpec, freqs) -> float:
    """Regularization weight in [0, 1] for one summand.

    freqs lists the frequencies of every field mode participating in the
    summand (a mode occurring once per summation index).
    """
    f = np.asarray(freqs, dtype=float)
    if f.size == 0:
        raise UsageError("cutoff_weight needs at least one frequency")
    if np.any(f < 0):
        raise UsageError("frequencies must be non-negative")
    return float(_cutoff_factor(spec, f.sum(), f.max()))


def per_mode_weights(spec: CutoffSpec, frequencies: np.ndarray) -> np.ndarray:
    """Per-mode damping factors whose products build factorized summand weights.

    Only valid for the factorizable cutoffs: exponential, or sharp with the
    per-mode rule (where truncation to the mode set already encodes the
    cutoff and every weight is 1).
    """
    if not _factorizes(spec):
        raise UsageError(
            "sharp cutoff with the 'total' rule does not factorize; "
            "this operation supports sharp_rule='per_mode' only")
    return _cutoff_factor(spec, frequencies, frequencies)


def mode_tables(params: PhysicalParams, cutoff: CutoffSpec, n_max: int | None = None):
    """Mode set and index-sum tables shared by every discrete mode sum.

    The spectrum is equally spaced, w_k = k omega1, so a mode pair (j, k)
    enters every denominator 1/(omega0 + w_j + w_k) through its index sum
    s = j + k only.  A sharp per-mode cutoff also caps an explicit n_max:
    modes above omega_m are dropped.

    Returns (modes, damp, g, W, h).  Position s - 2 of the 1-D tables, for
    s = 2 .. 2N, holds the pair frequency W = s omega1, the denominator
    h = 1/(omega0 + W) and the cutoff weight g of a pair with index sum s.
    damp holds the per-mode factors whose products weigh factorized
    summands; it is None for the sharp 'total' rule, which does not
    factorize.  Raises DegenerateModeSetError when no mode is left.
    """
    cutoff.check_scale(params)
    modes = ModeSet.build(params, cutoff, n_max)
    if cutoff.kind == "sharp" and cutoff.sharp_rule == "per_mode":
        n = int(np.count_nonzero(modes.frequencies <= cutoff.omega_m))
        modes = ModeSet(modes.indices[:n], modes.wavenumbers[:n], modes.frequencies[:n])
    if len(modes) == 0:
        raise DegenerateModeSetError(
            f"cutoff omega_m = {cutoff.omega_m:g} leaves no mode to sum over "
            f"(fundamental frequency {params.omega1:g}, n_max = {n_max})")
    w = modes.frequencies
    W = params.omega1 * np.arange(2, 2 * len(modes) + 1, dtype=float)
    h = 1.0 / (params.omega0 + W)
    # every mode left passes a sharp per-mode cutoff, so the highest one
    # stands in for the larger frequency of every pair
    g = _cutoff_factor(cutoff, W, np.full_like(W, w[-1]))
    damp = per_mode_weights(cutoff, w) if _factorizes(cutoff) else None
    return modes, damp, g, W, h

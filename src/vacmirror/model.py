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
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateModeSetError, ParameterError, UsageError

# Limit on the number of field modes of every discrete engine.  At this
# limit (tracemalloc peaks, omega0 = omega1): the energy shift's O(N)
# index-sum tables take 31 MiB and the spectrum's 8e6 default-width bins
# 200 MiB.  The profiles and the correlation sum their modes in closed
# form (see `kernels`) and hold no per-mode array: under 6 MiB on a
# 200-point grid and under 3 MiB for a 10 x 10 correlation.  Only
# `dressed_amplitudes`, which holds every one of the N (N + 1) / 2 pairs,
# has a lower limit (`perturb.PAIR_TABLE_LIMIT`).
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
    Only the index-sum engines (energy shift, pair amplitudes, photon
    spectrum) support 'total'; the profile and correlation engines rely
    on the factorized per-mode form and reject it.
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
                # attributed to the caller of the engine:
                # engine -> checked_mode_count -> here
                stacklevel=4,
            )


@dataclass(frozen=True)
class ModeSet:
    """The lowest N cavity modes: indices n, wavenumbers n pi/L, frequencies.

    No engine builds one: each needs only the count (mode_count)."""

    indices: np.ndarray
    wavenumbers: np.ndarray
    frequencies: np.ndarray

    @classmethod
    def build(cls, params: PhysicalParams, cutoff: CutoffSpec,
              n_max: int | None = None) -> "ModeSet":
        """Mode set implied by the cutoff, or of explicit size n_max.

        Sharp: N = floor(omega_m L / (pi c)) (per-mode truncation; it also
        caps an explicit n_max).  Exponential: N sized so the per-mode
        tail weight exp(-w_N/omega_m) drops below EXP_TAIL_WEIGHT, then
        doubled once as a guard.
        """
        n = np.arange(1, mode_count(params, cutoff, n_max) + 1, dtype=np.int64)
        k = n * (np.pi / params.length)
        return cls(indices=n, wavenumbers=k, frequencies=params.c * k)

    def __len__(self) -> int:
        return int(self.indices.size)


def mode_count(params: PhysicalParams, cutoff: CutoffSpec,
               n_max: int | None = None) -> int:
    """Size of the mode set `ModeSet.build` makes, without building it.

    n_max when given, else the size the cutoff implies (see ModeSet.build);
    a sharp per-mode cutoff then drops the modes above omega_m.  Raises
    UsageError for an n_max that is not an integer or is negative, and
    CapacityError above MAX_MODES.
    """
    if n_max is None:
        w1 = params.omega1
        if cutoff.kind == "sharp":
            n_max = int(math.floor(cutoff.omega_m / w1))
        else:
            n_star = int(math.ceil(math.log(1.0 / EXP_TAIL_WEIGHT) * cutoff.omega_m / w1))
            n_max = 2 * max(n_star, 1)
    elif not isinstance(n_max, numbers.Integral) or isinstance(n_max, bool):
        raise UsageError(f"n_max must be an integer, got {n_max!r}")
    elif n_max < 0:
        raise UsageError(f"n_max must be >= 0, got {n_max}")
    if n_max > MAX_MODES:
        raise CapacityError(
            f"mode set of size {n_max} exceeds the limit {MAX_MODES}; "
            "lower omega_m or pass an explicit n_max")
    if cutoff.kind == "sharp" and cutoff.sharp_rule == "per_mode":
        # the last k with w_k <= omega_m, w_k rounded as ModeSet.build does
        step = math.pi / params.length
        k = min(n_max, int(cutoff.omega_m / params.omega1))
        while k < n_max and params.c * ((k + 1) * step) <= cutoff.omega_m:
            k += 1
        while k > 0 and params.c * (k * step) > cutoff.omega_m:
            k -= 1
        n_max = k
    return n_max


def checked_mode_count(params: PhysicalParams, cutoff: CutoffSpec,
                       n_max: int | None = None) -> int:
    """mode_count after the checks every discrete engine makes first: it
    warns when omega_m is low (check_scale, attributed to the engine's
    caller, so the engine calls this directly) and raises
    DegenerateModeSetError when no mode is left."""
    cutoff.check_scale(params)
    n = mode_count(params, cutoff, n_max)
    if n == 0:
        raise DegenerateModeSetError(
            f"cutoff omega_m = {cutoff.omega_m:g} leaves no mode to sum over "
            f"(fundamental frequency {params.omega1:g}, n_max = {n_max})")
    return n


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


def damping_rate(spec: CutoffSpec) -> float:
    """The per-mode weight of a factorizing cutoff as a rate: a mode of
    frequency w that the cutoff keeps weighs exp(-w * rate).  1/omega_m for
    the exponential kind, 0 for the sharp per-mode rule; UsageError for the
    sharp 'total' rule, which does not factorize."""
    if spec.kind == "exp":
        return 1.0 / spec.omega_m
    if spec.sharp_rule == "per_mode":
        return 0.0
    raise UsageError(
        "sharp cutoff with the 'total' rule does not factorize; the "
        "profiles and the correlation support sharp_rule='per_mode' only")


def mode_tables(params: PhysicalParams, cutoff: CutoffSpec, n: int):
    """Index-sum tables of the engines that sum index sum by index sum: the
    energy shift, the pair amplitudes and the spectrum.

    The spectrum is equally spaced, w_k = k omega1, so a mode pair (j, k)
    enters every denominator 1/(omega0 + w_j + w_k) through its index sum
    s = j + k only.  n is a mode count the caller has checked
    (checked_mode_count), so every mode passes a sharp per-mode cutoff.

    Returns (g, W, h).  Position s - 2 of each table, for s = 2 .. 2n,
    holds the cutoff weight g of a pair with index sum s, its frequency
    W = s omega1 and the denominator h = 1/(omega0 + W).
    """
    W = params.omega1 * np.arange(2, 2 * n + 1, dtype=float)
    h = 1.0 / (params.omega0 + W)
    if cutoff.kind == "exp":
        g = np.exp(-W / cutoff.omega_m)
    elif cutoff.sharp_rule == "per_mode":
        g = np.ones_like(W)
    else:
        g = np.where(W <= cutoff.omega_m, 1.0, 0.0)
    return g, W, h


# the last mass-free mode sum, as (key, result); see mass_free_sum
_last_sum = None


def mass_free_sum(compute, params: PhysicalParams, *args):
    """compute(params, *args), or its result from the last call if that
    call had the same compute, the same parameters apart from the mass and
    equal args.

    Every discrete observable carries the mirror mass only through its
    exact 1/m prefactor, so the mode sum behind it is mass-free and a mass
    sweep needs it once.  compute must read no input but its arguments and
    no parameter but omega0, L, hbar and c; so the key is the function,
    those four and args, where arrays enter by dtype, shape and exact
    bytes.  compute returns a tuple, whose arrays are made read-only:
    callers scale them into new arrays.

    One entry, the last result: a sum is reused only when no other sum ran
    in between, as in a sweep, and no older result stays in memory.  The
    entry is replaced by one tuple assignment, so threads sharing it see
    the old entry or the new one, never a mix; a lost replacement costs
    only a recomputation.
    """
    global _last_sum
    key = (compute, params.omega0, params.length, params.hbar, params.c,
           *((arg.dtype.str, arg.shape, arg.tobytes())
             if isinstance(arg, np.ndarray) else arg for arg in args))
    last = _last_sum
    if last is not None and last[0] == key:
        return last[1]
    value = compute(params, *args)
    for v in value:
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    _last_sum = (key, value)
    return value

"""Exact diagonalization of the truncated mirror-field model.

Non-perturbative ground truth at small mode counts: the Hamiltonian

    H = sum_k hbar w_k n_k  (per cavity)  +  hbar omega0 b^dag b
        - (b + b^dag) sum_kj C_kj (a_k a_j + a_k^dag a_j^dag
                                   + a_j^dag a_k + a_k^dag a_j)

is assembled on a Fock basis truncated in photons per mode and mirror
quanta (the normal-ordered interaction carries no vacuum constant; the
two-cavity variant adds a second field with couplings -C_kj).  Lowest
eigenpairs come from a dense solve below a size threshold and a Lanczos
solve above it.

Caveat for strong coupling: the model is only metastable.  At mirror
displacement xi = <b + b^dag> beyond 1/(2 lambda N) (N field modes with
equal-sign couplings) the field quadratic form loses positivity, so a
truncation that reaches that displacement (max mirror occupation around
(1/(2 lambda N))^2 / 4) develops collapsed states below the physical
branch, and the lowest eigenpair stops converging with truncation size.
Validation runs should stay well inside the stable window; the
convergence protocol in `converged_ground_energy` certifies that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CapacityError, ParameterError, UsageError
from .model import CavityTag, PhysicalParams, two_cavity_coupling

__all__ = [
    "TruncationSpec",
    "OracleModel",
    "OracleResult",
    "build_hamiltonian",
    "ground_state",
    "expectation",
    "perturbative_state",
    "converged_ground_energy",
]

DENSE_SOLVE_LIMIT = 5_000


@dataclass(frozen=True)
class TruncationSpec:
    """Hilbert-space truncation for the exact-diagonalization oracle."""

    modes_per_cavity: int = 1
    max_photons_per_mode: int = 6
    max_mirror_quanta: int = 6
    total_excitation_cap: int | None = None
    dim_limit: int = 20_000

    def __post_init__(self):
        if not (1 <= self.modes_per_cavity <= 4):
            raise ParameterError(
                f"modes_per_cavity must be 1..4, got {self.modes_per_cavity}")
        if self.max_photons_per_mode < 1 or self.max_mirror_quanta < 1:
            raise ParameterError("occupation caps must be >= 1")


@dataclass(frozen=True)
class OracleModel:
    """Assembled truncated Hamiltonian plus the bookkeeping to use it."""

    params: PhysicalParams
    truncation: TruncationSpec
    cavities: str                      # 'one' or 'two'
    h0_diag: np.ndarray                # bare energies of the basis states
    v: sp.csr_matrix                   # interaction part
    occupations: np.ndarray            # (dim, n_subsystems): mirror first
    mode_frequencies: np.ndarray
    kept: np.ndarray                   # indices into the full tensor basis
    dims: tuple = field(default=())

    @property
    def h(self) -> sp.csr_matrix:
        return (sp.diags(self.h0_diag) + self.v).tocsr()

    @property
    def dim(self) -> int:
        return int(self.h0_diag.size)

    def photon_columns(self, cavity: CavityTag) -> slice:
        m = self.truncation.modes_per_cavity
        if self.cavities == "one" or cavity in (CavityTag.SINGLE, CavityTag.LEFT):
            return slice(1, 1 + m)
        return slice(1 + m, 1 + 2 * m)


@dataclass(frozen=True)
class OracleResult:
    """Lowest eigenpair of the truncated model."""

    ground_energy: float
    energy_shift: float               # relative to the bare ground energy 0
    vector: np.ndarray
    residual_norm: float
    dim: int


def _ladder(n: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, n)), 1).tocsr()


def _embed(op: sp.spmatrix, site: int, dims) -> sp.csr_matrix:
    mats = [sp.identity(d, format="csr") for d in dims]
    mats[site] = op.tocsr()
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return out


def build_hamiltonian(params: PhysicalParams, truncation: TruncationSpec,
                      cavities: str = "one",
                      coupling_scale: float = 1.0) -> OracleModel:
    """Assemble the truncated Hamiltonian in the occupation-number basis.

    Parameters
    ----------
    cavities : {'one', 'two'}
        Single cavity with a movable end wall, or two cavities sharing
        the movable wall.
    coupling_scale : float
        Multiplies every C_kj; 0 gives the bare (diagonal) Hamiltonian,
        the infinite-mass limit.
    """
    if cavities not in ("one", "two"):
        raise UsageError(f"cavities must be 'one' or 'two', got {cavities!r}")
    m = truncation.modes_per_cavity
    n_fields = m if cavities == "one" else 2 * m
    dims = (truncation.max_mirror_quanta + 1,) + (truncation.max_photons_per_mode + 1,) * n_fields
    full_dim = int(np.prod(dims))

    grids = np.indices(dims).reshape(len(dims), -1).T      # (full_dim, nsub)
    if truncation.total_excitation_cap is not None:
        kept = np.nonzero(grids.sum(axis=1) <= truncation.total_excitation_cap)[0]
    else:
        kept = np.arange(full_dim)
    dim = kept.size
    if dim > truncation.dim_limit:
        raise CapacityError(
            f"truncated basis has dimension {dim}, above the limit "
            f"{truncation.dim_limit}")

    w = params.omega1 * np.arange(1, m + 1, dtype=float)
    occ = grids[kept]
    h0 = params.hbar * (params.omega0 * occ[:, 0]).astype(float)
    for c_idx in range(n_fields):
        h0 = h0 + params.hbar * w[c_idx % m] * occ[:, 1 + c_idx]

    # interaction, assembled in the full tensor space then projected
    b = _embed(_ladder(dims[0]), 0, dims)
    x_mirror = b + b.T
    ladders = [_embed(_ladder(dims[1 + i]), 1 + i, dims) for i in range(n_fields)]

    v = sp.csr_matrix((full_dim, full_dim))
    blocks = [(0, CavityTag.LEFT)] if cavities == "one" else \
             [(0, CavityTag.LEFT), (m, CavityTag.RIGHT)]
    for offset, tag in blocks:
        for k in range(1, m + 1):
            for j in range(1, m + 1):
                ckj = two_cavity_coupling(params, tag, k, j)
                ak = ladders[offset + k - 1]
                aj = ladders[offset + j - 1]
                pair = ak @ aj + ak.T @ aj.T + aj.T @ ak + ak.T @ aj
                v = v - (coupling_scale * ckj) * (x_mirror @ pair)
    v = v.tocsr()[kept][:, kept]

    return OracleModel(params=params, truncation=truncation, cavities=cavities,
                       h0_diag=h0, v=v, occupations=occ,
                       mode_frequencies=w, kept=kept, dims=dims)


def ground_state(model: OracleModel, solver_tol: float = 1e-12) -> OracleResult:
    """Lowest eigenpair: dense below DENSE_SOLVE_LIMIT, Lanczos above."""
    from scipy.linalg import eigh

    H = model.h
    dim = model.dim
    if dim <= DENSE_SOLVE_LIMIT:
        evals, evecs = eigh(H.toarray(), subset_by_index=[0, 0])
        e0 = float(evals[0])
        vec = evecs[:, 0]
    else:
        try:
            evals, evecs = spla.eigsh(H, k=1, which="SA", tol=solver_tol,
                                      maxiter=10_000)
        except spla.ArpackNoConvergence as exc:
            from .errors import ConvergenceError
            best = float(exc.eigenvalues[0]) if len(exc.eigenvalues) else None
            raise ConvergenceError(f"eigensolver did not converge: {exc}",
                                   best_estimate=best) from exc
        e0 = float(evals[0])
        vec = evecs[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    residual = float(np.linalg.norm(H @ vec - e0 * vec))
    return OracleResult(ground_energy=e0, energy_shift=e0, vector=vec,
                        residual_norm=residual, dim=dim)


def _field_operator(model: OracleModel, cavity: CavityTag, x: float,
                    kind: str) -> sp.csr_matrix:
    """Field operator on the truncated mode set (x in global coords).

    kind 'phi' gives phi(x) and 'grad' its x-derivative.  kind 'dot' gives
    the Hermitian part D of the time derivative, phi_dot = -i D; the i is
    applied when squaring.
    """
    p = model.params
    L = p.length
    lo, hi = cavity.span(p)
    if not (lo < x < hi):
        raise UsageError(f"x = {x:g} outside the open cavity interval ({lo:g}, {hi:g})")
    if model.cavities == "one" and cavity is CavityTag.RIGHT:
        raise UsageError("single-cavity model has no right cavity")
    sign = -1.0 if cavity is CavityTag.RIGHT else 1.0
    dims = model.dims
    m = model.truncation.modes_per_cavity
    offset = m if (model.cavities == "two" and cavity is CavityTag.RIGHT) else 0
    out = sp.csr_matrix((len(model.kept), len(model.kept)))
    for i in range(m):
        k = (i + 1) * math.pi / L
        w = model.mode_frequencies[i]
        a_full = _embed(_ladder(dims[1 + offset + i]), 1 + offset + i, dims)
        a = a_full[model.kept][:, model.kept]
        amp = sign * math.sqrt(p.hbar * p.c**2 / L)
        if kind == "phi":
            out = out + amp * math.sin(k * x) / math.sqrt(w) * (a + a.T)
        elif kind == "grad":
            out = out + amp * k * math.cos(k * x) / math.sqrt(w) * (a + a.T)
        else:
            out = out + amp * math.sin(k * x) * math.sqrt(w) * (a - a.T)
    return out.tocsr()


def _vacuum_vector(model: OracleModel) -> np.ndarray:
    vac = np.zeros(model.dim)
    idx = np.nonzero((model.occupations == 0).all(axis=1))[0]
    vac[idx[0]] = 1.0
    return vac


def _exp(vec, op) -> float:
    return float(np.real(vec @ (op @ vec)))


def _exp_renormalized(vec, vac, op) -> float:
    """<vec|(O - <0|O|0>)|vec>, the vacuum value taken off inside the form.

    The vacuum component of vec then contributes no large diagonal term,
    so a value far below <0|O|0> keeps its digits.
    """
    shifted = op - _exp(vac, op) * sp.identity(op.shape[0], format="csr")
    return _exp(vec, shifted)


def expectation(model: OracleModel, state: np.ndarray | OracleResult,
                observable: tuple) -> float:
    """Expectation value of a field observable on a model eigenstate.

    The state must have unit norm: the renormalized observables subtract
    the vacuum value as <psi|(O - <0|O|0>)|psi>.

    observable is a tuple naming the quantity:
      ('phi2', x)                 renormalized <phi(x)^2> (bare vacuum
                                  value on the same truncated set subtracted)
      ('energy_density', x)       renormalized field energy density
      ('phi2phi2', x1, x2)        connected <phi^2(x1) phi^2(x2)> between
                                  the two cavities
      ('phi1phi2', x1, x2)        connected <phi(x1) phi(x2)> between
                                  the two cavities
    Positions are global coordinates: cavity 1 in (0, L), cavity 2 in
    (L, 2L); the single-cavity model uses (0, L).
    """
    vec = state.vector if isinstance(state, OracleResult) else np.asarray(state)
    if vec.shape != (model.dim,):
        raise UsageError("state vector does not match the model dimension")
    kind = observable[0]
    vac = _vacuum_vector(model)
    left = CavityTag.LEFT if model.cavities == "two" else CavityTag.SINGLE

    if kind == "phi2":
        (_, x) = observable
        phi = _field_operator(model, left if x < model.params.length else CavityTag.RIGHT,
                              x, "phi")
        return _exp_renormalized(vec, vac, (phi @ phi).tocsr())
    if kind == "energy_density":
        (_, x) = observable
        tag = left if x < model.params.length else CavityTag.RIGHT
        pd = _field_operator(model, tag, x, "dot")
        gp = _field_operator(model, tag, x, "grad")
        # phi_dot enters as (-i D)^2 = -D^2 with D the stored Hermitian part
        op = 0.5 * (-(pd @ pd) / model.params.c**2 + gp @ gp)
        return _exp_renormalized(vec, vac, op)
    if kind in ("phi2phi2", "phi1phi2"):
        if model.cavities != "two":
            raise UsageError(f"{kind} needs the two-cavity model")
        (_, x1, x2) = observable
        phi1 = _field_operator(model, CavityTag.LEFT, x1, "phi")
        phi2 = _field_operator(model, CavityTag.RIGHT, x2, "phi")
        if kind == "phi1phi2":
            return _exp(vec, (phi1 @ phi2).tocsr()) - \
                _exp(vec, phi1) * _exp(vec, phi2)
        p1sq = (phi1 @ phi1).tocsr()
        p2sq = (phi2 @ phi2).tocsr()
        return _exp(vec, (p1sq @ p2sq).tocsr()) - _exp(vec, p1sq) * _exp(vec, p2sq)
    raise UsageError(f"unknown observable {kind!r}")


def perturbative_state(model: OracleModel, order: int = 1) -> np.ndarray:
    """Rayleigh-Schroedinger ground state built numerically from the model.

    Returns the unnormalized vector |0> + |g1> (+ |g2> for order 2),
    with coefficients assembled from the assembled h0/v split.  Useful to
    check analytic formulas that are defined on the perturbative state
    rather than on the exact eigenstate.
    """
    if order not in (1, 2):
        raise UsageError("order must be 1 or 2")
    vac = _vacuum_vector(model)
    e = model.h0_diag
    e0 = float(e[vac.argmax()])
    denom = e0 - e
    denom[vac.astype(bool)] = np.inf
    g1 = (model.v @ vac) / denom
    psi = vac + g1
    if order == 2:
        g2 = (model.v @ g1) / denom
        psi = psi + g2
    return psi


def converged_ground_energy(params: PhysicalParams, truncation: TruncationSpec,
                            cavities: str = "one", rel_change: float = 1e-8,
                            step: int = 2):
    """Truncation-certified ground energy.

    Recomputes the lowest eigenvalue with both occupation caps raised by
    `step`; the number is certified when the relative change stays below
    `rel_change`.  Returns (energy, certified, relative_change).
    """
    base = ground_state(build_hamiltonian(params, truncation, cavities))
    bumped_spec = TruncationSpec(
        modes_per_cavity=truncation.modes_per_cavity,
        max_photons_per_mode=truncation.max_photons_per_mode + step,
        max_mirror_quanta=truncation.max_mirror_quanta + step,
        total_excitation_cap=truncation.total_excitation_cap,
        dim_limit=truncation.dim_limit)
    bumped = ground_state(build_hamiltonian(params, bumped_spec, cavities))
    delta = abs(bumped.ground_energy - base.ground_energy) / max(abs(base.ground_energy), 1e-300)
    return base.ground_energy, bool(delta < rel_change), float(delta)

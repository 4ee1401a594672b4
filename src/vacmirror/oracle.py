"""Exact diagonalization of the truncated mirror-field model.

Non-perturbative ground truth at small mode counts: the Hamiltonian

    H = sum_k hbar w_k n_k  (per cavity)  +  hbar omega0 b^dag b
        - (b + b^dag) sum_kj C_kj (a_k a_j + a_k^dag a_j^dag
                                   + a_j^dag a_k + a_k^dag a_j)

is assembled on the plain tensor basis of Fock states truncated in
photons per mode and mirror quanta, mirror first (the normal-ordered
interaction carries no vacuum constant; the two-cavity variant adds a
second field with couplings -C_kj).

V changes each cavity's photon number by 0 or +-2, so H is block
diagonal in the per-cavity photon parities: 2 sectors for one cavity, 4
for two.  `ground_state` solves each sector block on its own and keeps
the lowest of the sector minima, which is the lowest eigenpair of the
whole truncated model (at strong coupling it can lie in an odd sector);
a sector whose Gershgorin bound already lies above the lowest minimum
found is not solved.  A block is solved densely when its dimension is at
most DENSE_SOLVE_LIMIT and by Lanczos above it.

The coupling is rank one (Law, PRA 51, 2537 (1995)): C_kj = u_k u_j with
u_k = (-1)^k sqrt(C_kk).  With Q = sum_k u_k (a_k + a_k^dag) the pair sum
is the normal-ordered :Q^2:, so

    V = -(b + b^dag) x sum_cav sigma_cav :Q_cav^2:,   sigma = +1 left, -1 right.

The k != j terms of Q^2 are those of the pair sum, since ladders of
different modes commute.  The k = j term of Q^2 is
u_k^2 (a^2 + a^dag^2 + a a^dag + a^dag a) where the pair sum has
u_k^2 (a^2 + a^dag^2 + 2 a^dag a); the difference is the truncated
commutator [a, a^dag]_trunc = diag(1, ..., 1, -n_cap), so

    :Q^2: = Q^2 - sum_k u_k^2 [a_k, a_k^dag]_trunc

holds exactly on the truncated ladders.  V is the mirror quadrature times
this photon factor.  Q, the mirror quadrature b + b^dag and the field
operators are each one sparse matrix from the occupation table: every
subsystem fills its own pair of diagonals +-stride (`_quadrature`).  The
commutator sum is a diagonal vector of sqrt(n+1)^2 - sqrt(n)^2 (first
term 0 at the cap), the very float products a a^dag - a^dag a forms.

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

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConvergenceError, ParameterError, UsageError
from .model import CavityTag, PhysicalParams, coupling_matrix_element

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

# Sector block dimension up to which a block is solved by dense eigh;
# above it, by Lanczos.  With one BLAS thread the two cross near 300:
# dense takes 1.6 ms at 175 and 8 ms at 369 against Lanczos's 4 and 6 ms,
# and 70 ms at 845 against 9 ms.
DENSE_SOLVE_LIMIT = 400


@dataclass(frozen=True)
class TruncationSpec:
    """Hilbert-space truncation for the exact-diagonalization oracle.

    Every photon mode keeps occupations 0..max_photons_per_mode and the
    mirror 0..max_mirror_quanta; the basis is the full tensor product of
    these, and a product above dim_limit raises `CapacityError` before
    anything is allocated.
    """

    modes_per_cavity: int = 1
    max_photons_per_mode: int = 6
    max_mirror_quanta: int = 6
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
    dims: tuple                        # tensor factor sizes, mirror first

    @property
    def h(self) -> sp.csr_matrix:
        import scipy.sparse as sp
        return (sp.diags(self.h0_diag) + self.v).tocsr()

    @property
    def dim(self) -> int:
        return int(self.h0_diag.size)


@dataclass(frozen=True)
class OracleResult:
    """Lowest eigenpair of the truncated model."""

    ground_energy: float
    energy_shift: float               # relative to the bare ground energy 0
    vector: np.ndarray
    residual_norm: float
    dim: int


def _quadrature(occ, dims, coeffs, sign) -> sp.csr_matrix:
    """sum_i coeffs[i] (a_i + sign a_i^dag) over subsystems i, mirror first.

    a_i |n> = sqrt(n_i) |n - e_i>, and |n - e_i> sits stride_i =
    prod(dims[i+1:]) rows above |n>, so subsystem i fills the diagonals
    +-stride_i of one sparse matrix; zero entries are dropped.
    """
    import scipy.sparse as sp
    strides = [math.prod(dims[i + 1:]) for i in range(len(dims))]
    up = [c * np.sqrt(occ[s:, i]) for i, (c, s) in enumerate(zip(coeffs, strides))]
    return sp.diags(up + [sign * d for d in up], strides + [-s for s in strides],
                    shape=(len(occ),) * 2, format="csr")


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
    import scipy.sparse as sp
    if cavities not in ("one", "two"):
        raise UsageError(f"cavities must be 'one' or 'two', got {cavities!r}")
    m = truncation.modes_per_cavity
    n_fields = m if cavities == "one" else 2 * m
    dims = (truncation.max_mirror_quanta + 1,) + (truncation.max_photons_per_mode + 1,) * n_fields
    dim = math.prod(dims)
    if dim > truncation.dim_limit:
        raise CapacityError(
            f"truncated basis has dimension {dim}, above the limit "
            f"{truncation.dim_limit}")

    w = params.omega1 * np.arange(1, m + 1, dtype=float)
    occ = np.indices(dims).reshape(len(dims), -1).T        # (dim, nsub)
    h0 = params.hbar * (params.omega0 * occ[:, 0]).astype(float)
    for c_idx in range(n_fields):
        h0 = h0 + params.hbar * w[c_idx % m] * occ[:, 1 + c_idx]

    # V = -(b + b^dag) sum_cav sigma_cav (Q_cav^2 - sum_k u_k^2 [a_k, a_k^dag])
    u = np.array([(-1.0) ** k * math.sqrt(coupling_matrix_element(params, k, k))
                  for k in range(1, m + 1)])
    # [a_k, a_k^dag]_trunc diagonals as a a^dag - a^dag a rounds them, not 1, -cap
    n = occ[:, 1:]
    raised = np.where(n < truncation.max_photons_per_mode, np.sqrt(n + 1), 0.0)
    comm = raised * raised - np.sqrt(n) * np.sqrt(n)
    photon = sp.csr_matrix((dim, dim))
    for cav, sigma in enumerate((1.0,) if cavities == "one" else (1.0, -1.0)):
        coeffs = np.zeros(len(dims))
        coeffs[1 + cav * m:1 + (cav + 1) * m] = u
        q = _quadrature(occ, dims, coeffs, 1.0)
        comm_sum = sum(u[k]**2 * comm[:, cav * m + k] for k in range(m))
        photon = photon + sigma * (q @ q - sp.diags(comm_sum))
    mirror = _quadrature(occ, dims, np.eye(len(dims))[0], 1.0)
    v = (mirror @ (-coupling_scale * photon)).tocsr()
    v.eliminate_zeros()

    return OracleModel(params=params, truncation=truncation, cavities=cavities,
                       h0_diag=h0, v=v, occupations=occ,
                       mode_frequencies=w, dims=dims)


def _parity_sectors(model: OracleModel) -> list:
    """Basis indices of each photon-parity sector, ordered by sector key.

    The key of a basis state is sum_c 2^c (photon number of cavity c mod 2);
    V changes each cavity's photon number by 0 or +-2, so H has no element
    between two sectors.
    """
    m = model.truncation.modes_per_cavity
    photons = model.occupations[:, 1:]
    n_cav = photons.shape[1] // m
    parity = photons.reshape(-1, n_cav, m).sum(axis=2) % 2
    key = parity @ (1 << np.arange(n_cav))
    return [np.flatnonzero(key == s) for s in range(1 << n_cav)]


def ground_state(model: OracleModel, solver_tol: float = 1e-12) -> OracleResult:
    """Lowest eigenpair of the truncated model, solved per parity sector.

    H is block diagonal in the per-cavity photon parities (2 sectors for
    one cavity, 4 for two).  Each sector block gets its lowest eigenpair,
    dense when the block's dimension is at most DENSE_SOLVE_LIMIT and by
    Lanczos above it; the result is the lowest of the sector minima (the
    lower sector key on ties, minima within 1e-12 max|H| counting as
    tied), embedded in the full basis with zeros in
    the other sectors.  The residual is taken on the full H, so it also
    certifies that no element couples two sectors.

    Sectors after the first are skipped when their Gershgorin bound
    min_i(H_ii - sum_{j!=i} |H_ij|) is at least the lowest minimum so far:
    the block has no eigenvalue below it (roundoff stays far inside the
    tie width), so the skip cannot change the chosen sector.
    """
    from scipy.linalg import eigh
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    H = model.h
    dim = model.dim
    # sector minima this close are one degenerate level: roundoff must not
    # pick between them, so the lower sector key keeps it
    tie = 1e-12 * abs(H).max()
    best = None
    for idx in _parity_sectors(model):
        block = H[idx][:, idx]
        if best is not None:
            # Gershgorin: no eigenvalue of the block lies below this bound
            d = block.diagonal()
            radius = abs(block) @ np.ones(idx.size) - abs(d)
            if (d - radius).min() >= best[0]:
                continue
        if idx.size <= DENSE_SOLVE_LIMIT:
            evals, evecs = eigh(block.toarray(), subset_by_index=[0, 0])
        else:
            # a fixed random start: ARPACK's own changes from call to call,
            # and a structured one can be orthogonal to the ground state
            v0 = np.random.default_rng(0).standard_normal(block.shape[0])
            try:
                evals, evecs = eigsh(block, k=1, which="SA", tol=solver_tol,
                                     maxiter=10_000, v0=v0)
            except ArpackNoConvergence as exc:
                est = float(exc.eigenvalues[0]) if len(exc.eigenvalues) else None
                estimate = ("no estimate" if est is None
                            else f"best estimate {est:.17e}")
                raise ConvergenceError(
                    f"eigensolver did not converge ({estimate}): {exc}",
                    best_estimate=est) from exc
        if best is None or evals[0] < best[0] - tie:
            best = (float(evals[0]), idx, evecs[:, 0])
    e0, idx, sub = best
    vec = np.zeros(dim)
    vec[idx] = sub
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
    m = model.truncation.modes_per_cavity
    offset = m if (model.cavities == "two" and cavity is CavityTag.RIGHT) else 0
    k = np.pi / L * np.arange(1, m + 1)
    w = model.mode_frequencies
    if kind == "phi":
        per_mode = np.sin(k * x) / np.sqrt(w)
    elif kind == "grad":
        per_mode = k * np.cos(k * x) / np.sqrt(w)
    else:
        per_mode = np.sin(k * x) * np.sqrt(w)
    coeffs = np.zeros(len(model.dims))
    coeffs[1 + offset:1 + offset + m] = sign * math.sqrt(p.hbar * p.c**2 / L) * per_mode
    return _quadrature(model.occupations, model.dims, coeffs,
                       -1.0 if kind == "dot" else 1.0)


def _vacuum_vector(model: OracleModel) -> np.ndarray:
    vac = np.zeros(model.dim)
    vac[0] = 1.0                       # all occupations zero come first
    return vac


def _exp(vec, op) -> float:
    return float(np.real(vec @ (op @ vec)))


def _exp_renormalized(vec, vac, op) -> float:
    """<vec|(O - <0|O|0>)|vec>, the vacuum value taken off inside the form.

    The vacuum component of vec then contributes no large diagonal term,
    so a value far below <0|O|0> keeps its digits.
    """
    import scipy.sparse as sp
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
    bumped_spec = dataclasses.replace(
        truncation,
        max_photons_per_mode=truncation.max_photons_per_mode + step,
        max_mirror_quanta=truncation.max_mirror_quanta + step)
    bumped = ground_state(build_hamiltonian(params, bumped_spec, cavities))
    delta = abs(bumped.ground_energy - base.ground_energy) / max(abs(base.ground_energy), 1e-300)
    return base.ground_energy, bool(delta < rel_change), float(delta)

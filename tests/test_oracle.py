import math
import tracemalloc
import warnings

import numpy as np
import pytest

import vacmirror.oracle as oracle
from vacmirror import (CapacityError, CavityTag, CutoffSpec, PhysicalParams,
                       TruncationSpec, UsageError, build_hamiltonian,
                       coupling_matrix_element, delta_energy_density,
                       energy_shift, expectation, ground_state,
                       perturbative_state, squared_field_correlation_discrete)

from conftest import (dense_ground_state, kron_field_operator,
                      pairwise_interaction, params_for_lambda)


def small_trunc(modes=2, nph=4, nmir=3):
    return TruncationSpec(modes_per_cavity=modes, max_photons_per_mode=nph,
                          max_mirror_quanta=nmir)


def basis_index(model, *occ):
    mask = np.all(model.occupations == np.array(occ), axis=1)
    return int(np.nonzero(mask)[0][0])


def test_hermitian_by_construction(params_weak):
    model = build_hamiltonian(params_weak, small_trunc(), "one")
    H = model.h
    assert abs(H - H.T).max() == 0.0


def test_zero_coupling_is_diagonal(params_weak):
    model = build_hamiltonian(params_weak, small_trunc(), "one",
                              coupling_scale=0.0)
    assert model.v.nnz == 0
    res = ground_state(model)
    assert res.energy_shift == 0.0
    assert res.residual_norm == 0.0
    # spectrum is exactly the bare occupation energies
    dense = model.h.toarray()
    assert np.allclose(np.diag(dense), model.h0_diag) and np.all(
        dense - np.diag(model.h0_diag) == 0.0)


def test_interaction_matrix_elements(params_weak):
    # pair-creation elements from the vacuum, normalized target states:
    # -2 C_kj for k != j and -sqrt(2) C_kk for k = j
    model = build_hamiltonian(params_weak, small_trunc(), "one")
    Hd = model.h.toarray()
    vac = basis_index(model, 0, 0, 0)
    i12 = basis_index(model, 1, 1, 1)
    i11 = basis_index(model, 1, 2, 0)
    c12 = coupling_matrix_element(params_weak, 1, 2)
    c11 = coupling_matrix_element(params_weak, 1, 1)
    assert abs(Hd[i12, vac] - (-2 * c12)) < 1e-14
    assert abs(Hd[i11, vac] - (-np.sqrt(2) * c11)) < 1e-14


def test_parity_superselection():
    p = params_for_lambda(0.05)
    model = build_hamiltonian(p, TruncationSpec(1, 7, 7), "two")
    res = ground_state(model)
    occ = model.occupations
    odd = (occ[:, 1] % 2 == 1) | (occ[:, 2] % 2 == 1)
    assert np.abs(res.vector[odd]).max() < 1e-12


@pytest.mark.parametrize("lam, spec, cavities, nondegenerate", [
    (0.025, (2, 4, 4), "two", True),
    (0.05, (1, 7, 7), "two", True),
    (0.05, (2, 6, 6), "one", True),
    (0.05, (2, 8, 8), "one", True),     # collapsed past the instability
    (0.2, (1, 7, 7), "two", False)])    # odd sectors 1 and 2 tie lowest
def test_sector_solve_matches_full_basis_eigh(lam, spec, cavities, nondegenerate):
    model = build_hamiltonian(params_for_lambda(lam), TruncationSpec(*spec), cavities)
    res = ground_state(model)
    e_ref, v_ref = dense_ground_state(model)
    assert abs(res.ground_energy - e_ref) <= 1e-13 * abs(model.h).max()
    if nondegenerate:
        assert np.abs(res.vector - v_ref).max() <= 1e-10


def test_cross_correlator_check_keeps_odd_sectors():
    # every element of V keeps each cavity's photon parity, so the sector
    # solve makes <phi1 phi2> zero by construction; the full-basis state
    # keeps criterion 3 a check that the odd sectors do not mix in
    p = PhysicalParams(mass=3.0, omega0=0.8, length=1.3, hbar=1.7, c=1.25)
    for spec, cavities in [((1, 6, 6), "one"), ((1, 6, 6), "two"),
                           ((2, 4, 4), "two"), ((3, 3, 4), "two")]:
        model = build_hamiltonian(p, TruncationSpec(*spec, dim_limit=25_000),
                                  cavities)
        m = spec[0]
        photons = model.occupations[:, 1:]
        parity = np.stack([photons[:, c * m:(c + 1) * m].sum(axis=1) % 2
                           for c in range(photons.shape[1] // m)], axis=1)
        v = model.v.tocoo()
        assert v.nnz > 0
        assert np.array_equal(parity[v.row], parity[v.col])
    model = build_hamiltonian(params_for_lambda(0.05), TruncationSpec(1, 6, 6), "two")
    _, vec = dense_ground_state(model)
    assert abs(expectation(model, vec, ("phi1phi2", 0.63, 1.37))) <= 1e-10


def test_basis_order_independence(params_weak):
    model = build_hamiltonian(params_weak, small_trunc(), "one")
    res = ground_state(model)
    rng = np.random.default_rng(5)
    perm = rng.permutation(model.dim)
    H = model.h.toarray()[np.ix_(perm, perm)]
    evals = np.linalg.eigvalsh(H)
    assert abs(evals[0] - res.ground_energy) < 1e-12 * max(1.0, abs(res.ground_energy))


def test_capacity_limit(params_weak):
    with pytest.raises(CapacityError):
        build_hamiltonian(params_weak,
                          TruncationSpec(2, 20, 20, dim_limit=1000), "one")


@pytest.mark.parametrize("spec, cavities", [
    ((1, 6, 6), "one"), ((1, 6, 6), "two"), ((2, 4, 4), "two"),
    ((3, 3, 4), "two"), ((4, 2, 3), "one")])
def test_interaction_matches_pairwise_assembly(spec, cavities):
    # the rank-one x :Q^2: build against the sum over every mode pair
    p = PhysicalParams(mass=3.0, omega0=0.8, length=1.3, hbar=1.7, c=1.25)
    trunc = TruncationSpec(*spec, dim_limit=25_000)
    v = build_hamiltonian(p, trunc, cavities, coupling_scale=0.7).v
    ref = pairwise_interaction(p, trunc, cavities, coupling_scale=0.7)
    assert abs(v - ref).max() <= 1e-14 * abs(ref).max()


@pytest.mark.parametrize("spec, cavities, x, tag", [
    ((3, 3, 2), "one", 0.41, CavityTag.SINGLE),
    ((2, 3, 2), "two", 0.41, CavityTag.LEFT),
    ((2, 3, 2), "two", 1.83, CavityTag.RIGHT)])
@pytest.mark.parametrize("kind", ["phi", "grad", "dot"])
def test_field_operator_matches_kron_assembly(spec, cavities, x, tag, kind):
    # the full-basis ladders from the occupation table against ladders
    # embedded by Kronecker products with identities
    p = PhysicalParams(mass=3.0, omega0=0.8, length=1.3, hbar=1.7, c=1.25)
    model = build_hamiltonian(p, TruncationSpec(*spec), cavities)
    got = oracle._field_operator(model, tag, x * p.length, kind)
    ref = kron_field_operator(model, tag, x * p.length, kind)
    assert got.shape == ref.shape == (model.dim, model.dim)
    assert ref.nnz > 0
    assert abs(got - ref).max() <= 1e-14 * abs(ref).max()


def test_capacity_error_before_allocation(params_weak):
    # 7^7 = 823543 states: the dimension is checked before any array exists
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            build_hamiltonian(params_weak, TruncationSpec(3, 6, 6), "two")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_lanczos_branch_matches_dense(params_weak, monkeypatch):
    # the sparse eigsh path above DENSE_SOLVE_LIMIT against the dense eigh
    model = build_hamiltonian(params_weak, TruncationSpec(2, 6, 6), "one")
    assert model.dim == 343
    dense = ground_state(model)
    monkeypatch.setattr(oracle, "DENSE_SOLVE_LIMIT", 100)
    lanczos = ground_state(model)
    e0 = dense.ground_energy
    assert abs(lanczos.ground_energy - e0) <= 1e-12 * abs(e0)
    assert np.abs(lanczos.vector - dense.vector).max() <= 1e-10
    assert lanczos.residual_norm <= 1e-9


def test_lanczos_branch_is_deterministic(params_weak, monkeypatch):
    # two solves in one process give the same bits: the Lanczos start
    # vector does not depend on how often the solver ran before
    model = build_hamiltonian(params_weak, TruncationSpec(2, 6, 6), "one")
    monkeypatch.setattr(oracle, "DENSE_SOLVE_LIMIT", 100)
    first = ground_state(model)
    again = ground_state(model)
    assert first.ground_energy == again.ground_energy
    assert np.array_equal(first.vector, again.vector)


def test_ground_state_keeps_lower_key_on_degenerate_sectors(monkeypatch):
    # odd sectors 1 and 2 (one odd cavity, left or right) tie lowest; a
    # 1e-14 relative nudge of sector 2's minimum, well inside roundoff of a
    # different eigensolver build, must not move the state to the right cavity
    import scipy.linalg

    model = build_hamiltonian(params_for_lambda(0.2), TruncationSpec(1, 7, 7), "two")
    sectors = oracle._parity_sectors(model)
    real_eigh = scipy.linalg.eigh
    calls = []

    def nudged_eigh(a, *args, **kwargs):
        evals, evecs = real_eigh(a, *args, **kwargs)
        calls.append(a.shape[0])
        if len(calls) == 3:                 # sector 2, in key order
            evals = evals - 1e-14 * abs(evals)
        return evals, evecs

    monkeypatch.setattr(scipy.linalg, "eigh", nudged_eigh)
    res = ground_state(model)
    assert calls == [idx.size for idx in sectors]
    outside = np.setdiff1d(np.arange(model.dim), sectors[1])
    assert np.abs(res.vector[sectors[1]]).max() > 0.1
    assert np.abs(res.vector[outside]).max() == 0.0


def record_solved_sectors(model, monkeypatch):
    """Patch both eigensolvers to record, in call order, the keys of the
    parity sectors that ground_state solves, each told by its whole block."""
    import scipy.linalg
    import scipy.sparse
    import scipy.sparse.linalg

    H = model.h
    blocks = [H[idx][:, idx].toarray() for idx in oracle._parity_sectors(model)]
    solved = []

    def spy(solver):
        def wrapped(a, *args, **kwargs):
            dense = a.toarray() if scipy.sparse.issparse(a) else a
            solved.extend(s for s, b in enumerate(blocks) if np.array_equal(b, dense))
            return solver(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(scipy.linalg, "eigh", spy(scipy.linalg.eigh))
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy(scipy.sparse.linalg.eigsh))
    return solved


def test_weak_coupling_solves_the_even_sector_alone(monkeypatch):
    # oracle-ed's two-cavity point: the Gershgorin bounds of the three odd
    # sectors lie 1.5-4.4 above the ground energy, so one Lanczos solve
    import scipy.sparse.linalg

    model = build_hamiltonian(params_for_lambda(0.025, omega0=math.pi),
                              TruncationSpec(2, 4, 4), "two")
    e_ref, v_ref = dense_ground_state(model)
    real_eigsh = scipy.sparse.linalg.eigsh
    calls = []

    def counted_eigsh(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted_eigsh)
    res = ground_state(model)
    assert calls == [oracle._parity_sectors(model)[0].size]
    assert abs(res.ground_energy - e_ref) <= 1e-13 * abs(model.h).max()
    assert np.abs(res.vector - v_ref).max() <= 1e-10


@pytest.mark.parametrize("lam, omega0, spec, cavities, skipped", [
    (0.025, 1.0, (2, 4, 4), "two", {3}),
    (0.05, 1.0, (1, 7, 7), "two", {1, 2, 3}),
    (0.05, 1.0, (2, 6, 6), "one", set()),
    (0.05, 1.0, (2, 8, 8), "one", set()),
    (0.2, 1.0, (1, 7, 7), "two", set()),          # odd sectors 1 and 2 tie lowest
    (0.025, math.pi, (2, 4, 4), "two", {1, 2, 3}),
    (0.0125, math.pi, (2, 6, 6), "one", {1})])
def test_skipped_sectors_lie_above_the_ground_energy(lam, omega0, spec, cavities,
                                                     skipped, monkeypatch):
    # a sector the Gershgorin bound skips has its exact block minimum at
    # or above the returned energy less the tie width
    model = build_hamiltonian(params_for_lambda(lam, omega0=omega0),
                              TruncationSpec(*spec), cavities)
    H = model.h
    sectors = oracle._parity_sectors(model)
    minima = [np.linalg.eigvalsh(H[idx][:, idx].toarray())[0] for idx in sectors]
    solved = record_solved_sectors(model, monkeypatch)
    res = ground_state(model)
    assert solved == sorted(set(range(len(sectors))) - skipped)
    tie = 1e-12 * abs(H).max()
    assert all(minima[s] >= res.ground_energy - tie for s in skipped)
    assert res.ground_energy == pytest.approx(min(minima), rel=0, abs=tie)


def test_oracle_ed_point_keeps_its_bits():
    # oracle-ed's two-cavity point (2 modes, caps 4, lambda 0.025, omega0 pi):
    # the values of the per-ladder assembly and the solve of every sector,
    # which the one-matrix quadratures and the sector screen reproduce bit
    # for bit (on the numpy/scipy build they were recorded with)
    model = build_hamiltonian(params_for_lambda(0.025, omega0=math.pi),
                              TruncationSpec(2, 4, 4), "two")
    res = ground_state(model)
    assert res.ground_energy == float.fromhex("-0x1.1aca3c2a58bc6p-6")
    assert res.residual_norm == float.fromhex("0x1.4a22ba1482767p-46")
    assert expectation(model, res, ("phi2phi2", 0.63, 1.37)) == \
        float.fromhex("-0x1.66aea6f4d8700p-11")


def test_large_sectors_use_lanczos(monkeypatch):
    # dim 3125 splits into sector blocks of 720-845, all above
    # DENSE_SOLVE_LIMIT: none goes to the dense eigh
    import scipy.linalg

    def no_dense(*args, **kwargs):
        pytest.fail("dense eigh called")

    model = build_hamiltonian(params_for_lambda(0.025), TruncationSpec(2, 4, 4), "two")
    sizes = [idx.size for idx in oracle._parity_sectors(model)]
    assert model.dim == 3125 and min(sizes) > oracle.DENSE_SOLVE_LIMIT
    monkeypatch.setattr(scipy.linalg, "eigh", no_dense)
    assert ground_state(model).residual_norm <= 1e-9


def test_ground_state_memory_bound():
    # one dense solve of the full dim-3125 basis peaks at 150 MiB; dense
    # solves of its sector blocks (up to dim 845) about 12 MiB, Lanczos
    # solves of them about 1.3 MiB
    model = build_hamiltonian(params_for_lambda(0.025), TruncationSpec(2, 4, 4), "two")
    tracemalloc.start()
    try:
        ground_state(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_residual_small(params_weak):
    model = build_hamiltonian(params_weak, small_trunc(), "one")
    res = ground_state(model)
    h_scale = abs(model.h).max()
    assert res.residual_norm <= 1e-10 * max(h_scale, 1.0)


def test_energy_shift_trend_against_perturbation():
    # second-order perturbation theory: halving lambda divides the
    # relative deviation by about four (couplings kept in the stable
    # window of the truncated model)
    rels = []
    for lam in (0.025, 0.0125, 0.00625):
        p = params_for_lambda(lam)
        model = build_hamiltonian(p, TruncationSpec(2, 6, 6), "one")
        res = ground_state(model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            pert = energy_shift(p, CutoffSpec.sharp_n_modes(p, 2))
        assert res.energy_shift < 0
        rels.append(abs(res.energy_shift - pert) / abs(pert))
    r1 = rels[0] / rels[1]
    r2 = rels[1] / rels[2]
    assert 3.0 <= r1 <= 5.0, rels
    assert 3.0 <= r2 <= 5.0, rels


def correlation_rels(spec, lambdas, x1=0.63, x2=1.37):
    """Relative oracle-versus-perturbation errors of the squared-field
    correlation, on spec's modes per cavity, one per coupling."""
    rels = []
    for lam in lambdas:
        p = params_for_lambda(lam)
        model = build_hamiltonian(p, spec, "two")
        res = ground_state(model)
        orc = expectation(model, res, ("phi2phi2", x1, x2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            pert = squared_field_correlation_discrete(
                p, CutoffSpec.sharp_n_modes(p, spec.modes_per_cavity), [x1], [x2],
                negativity="ignore").values[0, 0]
        assert orc < 0
        rels.append(abs(orc - pert) / abs(pert))
    return rels


def test_correlation_trend_against_perturbation():
    rels = correlation_rels(TruncationSpec(1, 7, 7), (0.05, 0.025, 0.0125))
    assert 3.0 <= rels[0] / rels[1] <= 5.0, rels
    assert 3.0 <= rels[1] / rels[2] <= 5.0, rels


def test_two_mode_correlation_trend_against_perturbation():
    # two modes per cavity exercise the Cauchy cross structure at more
    # than one pair-sum value; lambda = 0.05 is past the displacement
    # instability of this truncation
    rels = correlation_rels(TruncationSpec(2, 4, 4), (0.025, 0.0125, 0.00625))
    assert 3.0 <= rels[0] / rels[1] <= 5.0, rels
    assert 3.0 <= rels[1] / rels[2] <= 5.0, rels


def test_phi1_phi2_vanishes_on_exact_state():
    p = params_for_lambda(0.05)
    model = build_hamiltonian(p, TruncationSpec(1, 6, 6), "two")
    res = ground_state(model)
    val = expectation(model, res, ("phi1phi2", 0.63, 1.37))
    assert abs(val) < 1e-10


def test_truncation_convergence_levels():
    # photon-cap sensitivity of the lowest eigenvalue, frozen from the
    # convergence study: ~1e-5 relative at lambda = 0.05 (two-cavity),
    # ~1e-6 at 0.025, below 1e-8 only at lambda ~ 0.0125
    def photon_bump(cav, modes, lam, caps=(6, 8)):
        p = params_for_lambda(lam)
        es = [ground_state(build_hamiltonian(
            p, TruncationSpec(modes, nph, 6), cav)).ground_energy
            for nph in caps]
        return abs(es[1] - es[0]) / abs(es[0])

    assert photon_bump("two", 1, 0.05) < 5e-5
    assert photon_bump("one", 2, 0.025) < 5e-6
    assert photon_bump("one", 2, 0.0125) < 1e-8


def test_metastable_collapse_detected_at_strong_coupling():
    # the one-cavity two-mode model at lambda = 0.05 reaches the
    # displacement instability inside the default truncation: the lowest
    # eigenvalue dives far below the perturbative branch and keeps moving
    # when the caps grow; oracle numbers there are not certifiable
    p = params_for_lambda(0.05)
    res6 = ground_state(build_hamiltonian(p, TruncationSpec(2, 6, 6), "one"))
    res8 = ground_state(build_hamiltonian(p, TruncationSpec(2, 8, 8), "one"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        pert = energy_shift(p, CutoffSpec.sharp_n_modes(p, 2))
    assert res6.ground_energy < 10 * pert
    assert abs(res8.ground_energy - res6.ground_energy) > 1e-2 * abs(res6.ground_energy)


def test_energy_density_on_perturbative_state_matches_formula():
    # the closed-form energy-density profile is the expectation on the
    # first-order dressed state; rebuilding that state numerically from
    # the assembled Hamiltonian must reproduce the formula to O(lambda^2)
    lam = 0.0125
    p = params_for_lambda(lam)
    model = build_hamiltonian(p, TruncationSpec(2, 6, 6), "one")
    psi1 = perturbative_state(model, order=1)
    psi1 /= np.linalg.norm(psi1)
    x = 0.8
    num = expectation(model, psi1, ("energy_density", x))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ana = delta_energy_density(p, CutoffSpec.sharp_n_modes(p, 2), [x]).values[0]
    assert abs(num - ana) / abs(ana) < 4 * lam**2


def test_energy_density_second_order_state_tracks_exact():
    # the exact eigenstate's energy density is reproduced by the
    # second-order perturbative state with a quadratically shrinking error,
    # which pins the difference from the first-order closed form as a real
    # same-order contribution of the second-order dressing
    x = 0.8
    rels = []
    for lam in (0.025, 0.0125):
        p = params_for_lambda(lam)
        model = build_hamiltonian(p, TruncationSpec(2, 6, 6), "one")
        res = ground_state(model)
        exact = expectation(model, res, ("energy_density", x))
        psi2 = perturbative_state(model, order=2)
        psi2 /= np.linalg.norm(psi2)
        second = expectation(model, psi2, ("energy_density", x))
        rels.append(abs(second - exact) / abs(exact))
    assert 3.0 <= rels[0] / rels[1] <= 5.0, rels


def test_renormalized_expectation_keeps_small_values():
    # at coupling_scale 1e-5 the renormalized energy density is ~1e-14 of
    # the vacuum value; the subtraction must happen inside the quadratic
    # form for the second-order state to reproduce the closed form
    lam, x, scale = 0.0125, 0.8, 1e-5
    p = params_for_lambda(lam)
    model = build_hamiltonian(p, TruncationSpec(2, 6, 6), "one",
                              coupling_scale=scale)
    psi2 = perturbative_state(model, order=2)
    psi2 /= np.linalg.norm(psi2)
    num = expectation(model, psi2, ("energy_density", x)) / scale**2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ana = delta_energy_density(p, CutoffSpec.sharp_n_modes(p, 2), [x],
                                   state="second_order").values[0]
    assert abs(num - ana) <= 1e-8 * abs(ana)


def test_expectation_validation(params_weak):
    model = build_hamiltonian(params_weak, small_trunc(), "one")
    res = ground_state(model)
    with pytest.raises(Exception):
        expectation(model, res, ("phi2phi2", 0.3, 1.5))  # needs two cavities
    with pytest.raises(Exception):
        expectation(model, res, ("phi2", 1.5))           # outside the cavity
    with pytest.raises(Exception):
        expectation(model, res.vector[:-1], ("phi2", 0.5))


def test_energy_density_outside_cavity_rejected(params_weak):
    model = build_hamiltonian(params_weak, small_trunc(), "one")
    res = ground_state(model)
    for x in (1.4, -0.3):
        with pytest.raises(UsageError):
            expectation(model, res, ("energy_density", x))

import warnings

import numpy as np
import pytest

from vacmirror import (CapacityError, CutoffSpec, TruncationSpec, UsageError,
                       build_hamiltonian, coupling_matrix_element,
                       delta_energy_density, energy_shift, expectation,
                       ground_state, perturbative_state,
                       squared_field_correlation_discrete)

from conftest import params_for_lambda


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


def test_correlation_trend_against_perturbation():
    x1, x2 = 0.63, 1.37
    rels = []
    for lam in (0.05, 0.025, 0.0125):
        p = params_for_lambda(lam)
        model = build_hamiltonian(p, TruncationSpec(1, 7, 7), "two")
        res = ground_state(model)
        orc = expectation(model, res, ("phi2phi2", x1, x2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            pert = squared_field_correlation_discrete(
                p, CutoffSpec.sharp_n_modes(p, 1), [x1], [x2],
                negativity="ignore").values[0, 0]
        assert orc < 0
        rels.append(abs(orc - pert) / abs(pert))
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

import numpy as np
import pytest

from vacmirror import (CutoffSpec, PhysicalParams, TruncationSpec, UsageError,
                       build_hamiltonian, default_grid, delta_energy_density,
                       delta_phi_squared, em_field_fluctuations, expectation,
                       perturbative_state)

from conftest import (brute_delta_energy_density, brute_delta_phi_squared,
                      brute_em_fluct, brute_second_order_term,
                      direct_profile_sum, longdouble_profile, params_for_lambda)

GRID = np.array([0.17, 0.42, 0.77])


def test_delta_energy_density_vs_enumeration(params_weak):
    cut = CutoffSpec.sharp_n_modes(params_weak, 3)
    prof = delta_energy_density(params_weak, cut, GRID)
    ref = np.array([brute_delta_energy_density(params_weak, 3, x) for x in GRID])
    assert np.max(np.abs(prof.values - ref) / np.abs(ref)) < 1e-14

    prof_e = delta_energy_density(params_weak, CutoffSpec.exponential(9.0),
                                  GRID, n_max=3)
    ref_e = np.array([brute_delta_energy_density(params_weak, 3, x, omega_m=9.0)
                      for x in GRID])
    assert np.max(np.abs(prof_e.values - ref_e) / np.abs(ref_e)) < 1e-14


def test_em_fluctuations_vs_enumeration(params_weak):
    cut = CutoffSpec.sharp_n_modes(params_weak, 3)
    for comp in ("E", "B"):
        prof = em_field_fluctuations(params_weak, cut, GRID, comp)
        ref = np.array([brute_em_fluct(params_weak, 3, x, comp) for x in GRID])
        assert np.max(np.abs(prof.values - ref) / np.abs(ref)) < 1e-14


def test_delta_phi_squared_vs_enumeration(params_weak):
    cut = CutoffSpec.sharp_n_modes(params_weak, 3)
    prof = delta_phi_squared(params_weak, cut, GRID)
    ref = np.array([brute_delta_phi_squared(params_weak, 3, x) for x in GRID])
    assert np.max(np.abs(prof.values - ref) / np.abs(ref)) < 1e-14


def test_energy_density_is_mean_of_em_parts(params_weak):
    # the energy density change equals (<E^2> + <B^2>)/2; the left side is
    # assembled from the expanded cosine difference, the right from two
    # independently coded sin/cos sums
    cut = CutoffSpec.exponential(30.0)
    grid = default_grid(params_weak, 40)
    dh = delta_energy_density(params_weak, cut, grid)
    pe = em_field_fluctuations(params_weak, cut, grid, "E")
    pb = em_field_fluctuations(params_weak, cut, grid, "B")
    combo = 0.5 * (pe.values + pb.values)
    assert np.max(np.abs(combo - dh.values) / np.abs(dh.values)) < 1e-12


def test_field_boundary_behaviour(params_weak):
    cut = CutoffSpec.sharp_n_modes(params_weak, 5)
    near0 = np.array([1e-8])
    e = em_field_fluctuations(params_weak, cut, near0, "E")
    b = em_field_fluctuations(params_weak, cut, near0, "B")
    phi = delta_phi_squared(params_weak, cut, near0)
    mid_e = em_field_fluctuations(params_weak, cut, np.array([0.5]), "E")
    # electric-type and phi^2 profiles vanish toward the fixed wall
    assert abs(e.values[0]) < 1e-12 * abs(mid_e.values[0])
    assert abs(phi.values[0]) < 1e-12
    # magnetic-type profile approaches the all-cosine sum, nonzero
    ref = brute_em_fluct(params_weak, 5, 0.0, "B")
    assert abs(b.values[0] - ref) < 1e-10 * abs(ref)


def test_mass_scaling_exact(params_weak):
    cut = CutoffSpec.exponential(25.0)
    grid = default_grid(params_weak, 20)
    a = delta_energy_density(params_weak, cut, grid).values
    b = delta_energy_density(params_weak.with_mass(2 * params_weak.mass),
                             cut, grid).values
    assert np.max(np.abs(2 * b - a) / np.abs(a)) < 1e-14


def test_exponential_cutoff_mode_convergence(params_weak):
    # doubling the mode count beyond the auto-selected size must not move
    # the profile at the 1e-8 level
    cut = CutoffSpec.exponential(12.0)
    grid = default_grid(params_weak, 15)
    auto = delta_energy_density(params_weak, cut, grid)
    doubled = delta_energy_density(params_weak, cut, grid,
                                   n_max=2 * auto.n_modes)
    rel = np.max(np.abs(doubled.values - auto.values) / np.abs(auto.values))
    assert rel < 1e-8


def test_near_wall_enhancement():
    # reference configuration: omega0 = pi c/L, omega_m = 50 omega0, lambda = 0.05
    p = params_for_lambda(0.05, omega0=np.pi)
    cut = CutoffSpec.exponential(50 * p.omega0)
    grid = default_grid(p)
    prof = delta_energy_density(p, cut, grid)
    assert int(np.argmax(np.abs(prof.values))) == len(grid) - 1
    assert np.all(prof.values > 0)


def test_grid_validation(params_weak):
    cut = CutoffSpec.sharp_n_modes(params_weak, 2)
    with pytest.raises(UsageError):
        delta_energy_density(params_weak, cut, np.array([0.0, 0.5]))
    with pytest.raises(UsageError):
        delta_energy_density(params_weak, cut, np.array([0.5, 1.0]))
    with pytest.raises(UsageError):
        delta_energy_density(params_weak, cut, np.array([0.5, 0.4]))
    with pytest.raises(UsageError):
        em_field_fluctuations(params_weak, cut, GRID, "X")


@pytest.mark.parametrize("grid", [[np.nan], [0.1, np.nan], [np.nan, 0.5]])
def test_grid_rejects_nan(params_weak, grid):
    with pytest.raises(UsageError):
        delta_energy_density(params_weak, CutoffSpec.exponential(20.0), grid)


def test_movable_origin_convention(params_weak):
    cut = CutoffSpec.exponential(20.0)
    xt = np.array([0.1, 0.3, 0.5])
    from_movable = delta_energy_density(params_weak, cut, xt, origin="movable")
    fixed_grid = np.sort(params_weak.length - xt)
    from_fixed = delta_energy_density(params_weak, cut, fixed_grid)
    assert np.allclose(from_movable.values, from_fixed.values[::-1],
                       rtol=1e-13, atol=0)
    assert np.allclose(from_movable.grid_cavity, params_weak.length - xt)


def test_infinite_mass_limit(params_weak):
    cut = CutoffSpec.sharp_n_modes(params_weak, 3)
    prof = delta_phi_squared(params_weak.with_mass(1e14), cut, GRID)
    base = delta_phi_squared(params_weak, cut, GRID)
    assert np.max(np.abs(prof.values)) < 1e-12 * np.max(np.abs(base.values))


def _profile(kind, params, cut, grid, n_max=None, state="first_order"):
    if kind == "energy_density":
        return delta_energy_density(params, cut, grid, n_max, state=state)
    if kind == "phi2":
        return delta_phi_squared(params, cut, grid, n_max, state=state)
    return em_field_fluctuations(params, cut, grid, kind, n_max, state=state)


@pytest.mark.parametrize("kind", ["energy_density", "E", "B", "phi2"])
def test_second_order_term_vs_enumeration(params_weak, kind):
    # the term the complete form adds, against a triple loop over every
    # summand of 2 Re <0|:O:|g2>
    worst = 0.0
    for n in (1, 2, 3):
        for cut, n_max, omega_m in ((CutoffSpec.sharp_n_modes(params_weak, n), None, None),
                                    (CutoffSpec.exponential(9.0), n, 9.0)):
            full = _profile(kind, params_weak, cut, GRID, n_max, "second_order")
            first = _profile(kind, params_weak, cut, GRID, n_max)
            assert full.state == "second_order" and first.state == "first_order"
            ref = np.array([brute_second_order_term(params_weak, n, x, kind, omega_m)
                            for x in GRID])
            got = full.values - first.values
            worst = max(worst, np.max(np.abs(got - ref) / np.abs(ref)))
    assert worst < 1e-14


@pytest.mark.filterwarnings("ignore:cutoff omega_m")
def test_second_order_profiles_match_perturbative_state(params_unit):
    # the complete form is the O(coupling^2) value of the normalized
    # second-order perturbative state, rebuilt numerically from the oracle's
    # Hamiltonian; a small coupling_scale makes the higher orders negligible
    scale = 1e-4
    grid = [0.3, 0.5, 0.8]
    for n in (1, 2, 3):
        cut = CutoffSpec.sharp_n_modes(params_unit, n)
        model = build_hamiltonian(params_unit, TruncationSpec(n, 4, 4), "one",
                                  coupling_scale=scale)
        psi = perturbative_state(model, order=2)
        psi /= np.linalg.norm(psi)
        for obs, fn in (("energy_density", delta_energy_density),
                        ("phi2", delta_phi_squared)):
            full = fn(params_unit, cut, grid, state="second_order").values
            first = fn(params_unit, cut, grid).values
            for x, f, f1 in zip(grid, full, first):
                num = expectation(model, psi, (obs, x)) / scale**2
                assert abs(f - num) < 1e-6 * abs(num), (n, obs, x)
                # the default first-order form misses a same-order term
                assert abs(f1 - num) > 0.1 * abs(num), (n, obs, x)


@pytest.mark.parametrize("cut", [CutoffSpec.exponential(30.0), CutoffSpec.sharp(40.0)])
def test_second_order_energy_density_is_mean_of_em_parts(params_weak, cut):
    # the complete energy density sums its extra term over index sums
    # k + l; the E and B profiles use separate Hankel products.  The
    # profile crosses zero near the fixed wall, so the error is measured
    # against the size of the two averaged parts
    grid = default_grid(params_weak, 40)
    dh = delta_energy_density(params_weak, cut, grid, state="second_order")
    pe = em_field_fluctuations(params_weak, cut, grid, "E", state="second_order")
    pb = em_field_fluctuations(params_weak, cut, grid, "B", state="second_order")
    scale = 0.5 * (np.abs(pe.values) + np.abs(pb.values))
    assert np.max(np.abs(0.5 * (pe.values + pb.values) - dh.values) / scale) < 1e-12


def test_default_state_is_first_order(params_weak):
    cut = CutoffSpec.exponential(20.0)
    default = delta_energy_density(params_weak, cut, GRID)
    explicit = delta_energy_density(params_weak, cut, GRID, state="first_order")
    assert default.state == "first_order"
    assert np.array_equal(default.values, explicit.values)
    for fn in (delta_energy_density, delta_phi_squared):
        with pytest.raises(UsageError):
            fn(params_weak, cut, GRID, state="exact")
    with pytest.raises(UsageError):
        em_field_fluctuations(params_weak, cut, GRID, "E", state="third_order")


def test_second_order_mass_scaling_exact(params_weak):
    cut = CutoffSpec.exponential(25.0)
    grid = default_grid(params_weak, 20)
    heavy = PhysicalParams(2 * params_weak.mass, params_weak.omega0,
                           params_weak.length)
    a = delta_energy_density(params_weak, cut, grid, state="second_order").values
    b = delta_energy_density(heavy, cut, grid, state="second_order").values
    assert np.max(np.abs(2 * b - a) / np.abs(a)) < 1e-14


@pytest.mark.parametrize("state", ["first_order", "second_order"])
def test_profiles_match_direct_hankel_sums(state):
    # the exponential-sum contraction against the direct float64 Hankel
    # products at N = 1990.  Errors are taken relative to the profile's
    # largest magnitude on the grid: E vanishes on the walls and the
    # complete profiles cross zero, where a pointwise ratio measures only
    # the roundoff of the direct sum
    p = params_for_lambda(0.05, omega0=np.pi)
    cut = CutoffSpec.exponential(54 * np.pi)
    grid = default_grid(p, 40)
    pre = p.hbar**2 / (p.mass * p.omega0 * p.length**3)
    cases = [(delta_energy_density(p, cut, grid, state=state), pre / 2,
              (np.cos, np.sin), True, None),
             (em_field_fluctuations(p, cut, grid, "E", state=state), pre,
              (np.sin,), True, -1.0),
             (em_field_fluctuations(p, cut, grid, "B", state=state), pre,
              (np.cos,), True, 1.0),
             (delta_phi_squared(p, cut, grid, state=state), pre * p.c**2,
              (np.sin,), False, 1.0)]
    for prof, scale, trigs, freq_numerator, sigma in cases:
        n, vals = direct_profile_sum(p, cut, None, grid, trigs, freq_numerator,
                                     sigma, state)
        assert prof.n_modes == n == 1990
        ref = scale * vals
        assert np.max(np.abs(prof.values - ref)) <= 1e-13 * np.max(np.abs(ref))


# errors relative to peak against `longdouble_profile` at N = 7370 of the
# mode-block contraction the closed-form geometric sums replaced
BLOCK_ENGINE_ERRORS = {
    ("first_order", "energy_density"): 5.7e-13, ("first_order", "E"): 8.5e-13,
    ("first_order", "B"): 4.6e-13, ("first_order", "phi2"): 5.6e-15,
    ("second_order", "energy_density"): 1.4e-9, ("second_order", "E"): 4.0e-15,
    ("second_order", "B"): 1.1e-13, ("second_order", "phi2"): 1.3e-15}


@pytest.mark.parametrize("state", ["first_order", "second_order"])
@pytest.mark.parametrize("kind", ["energy_density", "E", "B", "phi2"])
def test_profiles_against_extended_precision(kind, state):
    # N = 7370 (exp:200 omega0) on every tenth point of the default grid,
    # where the complete energy density's sum cancels heavily: within twice
    # the error of the block contraction, relative to the peak
    p = params_for_lambda(0.05, omega0=np.pi)
    cut = CutoffSpec.exponential(200 * np.pi)
    grid = default_grid(p)[::10]
    prof = _profile(kind, p, cut, grid, state=state)
    assert prof.n_modes == 7370
    ref = longdouble_profile(p, cut, grid, kind, state).astype(float)
    err = np.max(np.abs(prof.values - ref)) / np.max(np.abs(ref))
    assert err <= 2.0 * BLOCK_ENGINE_ERRORS[state, kind]


def test_condition_estimate_grows_with_mode_count():
    # sum |terms| / max |value| of the complete energy density's node
    # contraction: finite, at least 1, and growing with N as its extra
    # term cancels more
    p = params_for_lambda(0.05, omega0=np.pi)
    grid = default_grid(p)
    conds = [delta_energy_density(p, CutoffSpec.exponential(m * np.pi), grid,
                                  state="second_order").cond
             for m in (5, 20, 200, 1000)]
    assert np.all(np.isfinite(conds)) and conds[0] > 0.99
    assert np.all(np.diff(conds) > 0)

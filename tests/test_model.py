import math

import numpy as np
import pytest

from vacmirror import (CapacityError, CavityTag, CutoffSpec,
                       DegenerateModeSetError, ModeSet, ParameterError,
                       PhysicalParams, UsageError, coupling_matrix_element,
                       cutoff_weight, delta_energy_density, energy_shift,
                       squared_field_correlation_discrete, two_cavity_coupling)


def test_coupling_symmetry(params_unit):
    rng = np.random.default_rng(7)
    for _ in range(20):
        k, j = rng.integers(1, 40, size=2)
        a = coupling_matrix_element(params_unit, int(k), int(j))
        b = coupling_matrix_element(params_unit, int(j), int(k))
        assert a == b


def test_coupling_sign_pattern(params_unit):
    assert coupling_matrix_element(params_unit, 1, 1) > 0
    assert coupling_matrix_element(params_unit, 1, 2) < 0
    assert coupling_matrix_element(params_unit, 2, 2) > 0


def test_coupling_pinned_value(params_unit):
    # C_11 with hbar=c=L=m=omega0=1 is sqrt(pi^2/8); value frozen from an
    # independent high-precision evaluation
    val = coupling_matrix_element(params_unit, 1, 1)
    assert abs(val - 1.1107207345395916) < 1e-15


def test_coupling_mass_scaling(params_unit):
    # power-of-two mass rescaling is exact in floating point
    p4 = params_unit.with_mass(4.0)
    for k, j in [(1, 1), (2, 5), (3, 3)]:
        assert (coupling_matrix_element(p4, k, j)
                == 0.5 * coupling_matrix_element(params_unit, k, j))
    p10 = params_unit.with_mass(10.0)
    for k, j in [(1, 2), (4, 7)]:
        a = coupling_matrix_element(p10, k, j) * math.sqrt(10.0)
        b = coupling_matrix_element(params_unit, k, j)
        assert abs(a - b) <= 1e-15 * abs(b)


def test_coupling_index_validation(params_unit):
    with pytest.raises(UsageError):
        coupling_matrix_element(params_unit, 0, 1)


def test_two_cavity_coupling_signs(params_unit):
    for k, j in [(1, 1), (1, 2), (3, 4)]:
        left = two_cavity_coupling(params_unit, CavityTag.LEFT, k, j)
        right = two_cavity_coupling(params_unit, CavityTag.RIGHT, k, j)
        single = coupling_matrix_element(params_unit, k, j)
        assert left == single
        assert right == -left
    with pytest.raises(UsageError):
        two_cavity_coupling(params_unit, CavityTag.SINGLE, 1, 1)


def test_invalid_params():
    with pytest.raises(ParameterError):
        PhysicalParams(mass=-1.0, omega0=1.0, length=1.0)
    with pytest.raises(ParameterError):
        PhysicalParams(mass=1.0, omega0=0.0, length=1.0)
    with pytest.raises(ParameterError):
        PhysicalParams(mass=1.0, omega0=1.0, length=math.inf)


def test_coupling_lambda(params_unit):
    lam = params_unit.coupling_lambda
    assert abs(lam - 1.0 / math.sqrt(8.0)) < 1e-15


def test_cavity_spans(params_unit):
    assert CavityTag.SINGLE.span(params_unit) == (0.0, 1.0)
    assert CavityTag.LEFT.span(params_unit) == (0.0, 1.0)
    assert CavityTag.RIGHT.span(params_unit) == (1.0, 2.0)


def test_cutoff_weight_exponential():
    spec = CutoffSpec.exponential(10.0)
    assert cutoff_weight(spec, [0.0, 0.0]) == 1.0
    assert abs(cutoff_weight(spec, [4.0, 6.0]) - math.exp(-1.0)) < 1e-15


def test_cutoff_weight_sharp_rules():
    spec = CutoffSpec.sharp(10.0)
    assert cutoff_weight(spec, [5.0, 11.0]) == 0.0
    assert cutoff_weight(spec, [5.0, 9.0]) == 1.0
    total = CutoffSpec.sharp(10.0, rule="total")
    assert cutoff_weight(total, [5.0, 9.0]) == 0.0
    assert cutoff_weight(total, [3.0, 5.0]) == 1.0


def test_cutoff_weight_monotone():
    rng = np.random.default_rng(11)
    for spec in (CutoffSpec.exponential(7.0), CutoffSpec.sharp(7.0),
                 CutoffSpec.sharp(7.0, rule="total")):
        for _ in range(30):
            f = rng.uniform(0.0, 12.0, size=rng.integers(1, 5))
            base = cutoff_weight(spec, f)
            i = rng.integers(0, f.size)
            f2 = f.copy()
            f2[i] += rng.uniform(0.0, 5.0)
            assert cutoff_weight(spec, f2) <= base + 1e-15


def test_cutoff_weight_usage_errors():
    spec = CutoffSpec.exponential(1.0)
    with pytest.raises(UsageError):
        cutoff_weight(spec, [])
    with pytest.raises(UsageError):
        cutoff_weight(spec, [-1.0])
    with pytest.raises(ParameterError):
        CutoffSpec("exp", -1.0)
    with pytest.raises(ParameterError):
        CutoffSpec("gauss", 1.0)


def test_low_cutoff_warns(params_unit):
    with pytest.warns(UserWarning, match="omega_m"):
        CutoffSpec.exponential(2.0).check_scale(params_unit)


def test_mode_set(params_unit):
    modes = ModeSet.build(params_unit, CutoffSpec.sharp(10.0))
    # floor(10 / pi) = 3 modes
    assert len(modes) == 3
    assert np.all(np.diff(modes.frequencies) > 0)
    assert np.array_equal(modes.frequencies, np.pi * np.arange(1, 4))

    explicit = ModeSet.build(params_unit, CutoffSpec.exponential(10.0), n_max=5)
    assert len(explicit) == 5
    with pytest.raises(CapacityError):
        ModeSet.build(params_unit, CutoffSpec.sharp(1e9))


def test_sharp_n_modes(params_unit):
    spec = CutoffSpec.sharp_n_modes(params_unit, 4)
    modes = ModeSet.build(params_unit, spec)
    assert len(modes) == 4


@pytest.mark.parametrize("engine", [
    lambda p, cut, n: energy_shift(p, cut, n),
    lambda p, cut, n: delta_energy_density(p, cut, [0.5], n),
    lambda p, cut, n: squared_field_correlation_discrete(p, cut, [0.5], [1.5], n),
], ids=["energy_shift", "delta_energy_density", "correlation"])
@pytest.mark.filterwarnings("ignore:cutoff omega_m")
def test_empty_mode_set_same_error_in_every_engine(params_unit, engine):
    with pytest.raises(DegenerateModeSetError):
        engine(params_unit, CutoffSpec.sharp(0.5 * params_unit.omega1), None)
    with pytest.raises(DegenerateModeSetError):
        engine(params_unit, CutoffSpec.exponential(50.0), 0)

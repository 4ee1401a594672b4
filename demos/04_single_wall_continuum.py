"""A single movable wall: the continuum limit and its distance scaling.

Sending the cavity length to infinity at fixed distances from the wall
turns the mode sums into wavenumber integrals.  Two independent
evaluation paths are compared (an analytic reduction of all four sine
integrals versus direct tensor quadrature), the discrete sum is shown to
walk onto the continuum value as the cavity grows, and the large-distance
decay is probed.

Note the tail: the factorized part of the correlation falls as
1/(xt1^2 xt2^2), the structure of the paper's closed-form law, but at
large distances it cancels exactly against the first correction of the
cross structures (one factor of 1/(total pair frequency)).  What remains
is far_field_correlation, which falls as xt^-3 at equal distances.
"""

import numpy as np

from vacmirror import (CutoffSpec, PhysicalParams, asymptotic_correlation,
                       continuum_correlation, far_field_correlation,
                       scaling_probe, squared_field_correlation_discrete)

params = PhysicalParams(mass=1.0, omega0=1.0, length=1.0)

print("two quadrature paths at a reference point (omega_m = 10 omega0):")
pa = continuum_correlation(params, 10.0, 0.08, 0.10, rel_tol=1e-8)
fq = continuum_correlation(params, 10.0, 0.08, 0.10, rel_tol=1e-7,
                           method="full_quadrature")
print(f"  partial-analytic  {pa.value:.10e}  (reported tol {pa.rel_tol:.1e}, "
      f"{pa.neval} rule nodes)")
print(f"  full quadrature   {fq.value:.10e}  (reported tol {fq.rel_tol:.1e}, "
      f"{fq.neval} nominal summands)")
print(f"  relative difference {abs(pa.value - fq.value) / abs(pa.value):.2e}\n")

print("discrete cavity sums approaching the continuum value:")
for L in (8.0, 16.0, 32.0):
    p = PhysicalParams(mass=1.0, omega0=1.0, length=L)
    val = squared_field_correlation_discrete(
        p, CutoffSpec.exponential(10.0), [L - 0.08], [L + 0.10],
        negativity="ignore").values[0, 0]
    print(f"  L = {L:4.0f}: {val:.8e}  (continuum {pa.value:.8e}, "
          f"gap {abs(val / pa.value - 1):.2e})")

print("\ndistance scaling at large xt (omega_m = 1000 omega0):")
probes = scaling_probe(params, "continuum", "distance",
                       [5.0, 10.0, 20.0, 40.0], omega_m=1e3, rel_tol=1e-8)
for pr in probes:
    asym = asymptotic_correlation(params, pr.parameter, pr.parameter)
    law = far_field_correlation(params, pr.parameter, pr.parameter)
    print(f"  xt = {pr.parameter:4.0f} c/omega0: C = {pr.value:.4e}, local "
          f"log-slope {pr.log_slope:+.3f}, ratio to the far-field law "
          f"{pr.value / law:.5f}, to the xt^-4 closed form "
          f"{pr.value / asym:8.1f}")
print("the slope settles at -3 and the ratio to the far-field law tends to")
print("1; the closed-form xt^-4 law does not describe the integral's tail")

"""Dressing of the vacuum by a trembling cavity wall.

A perfectly reflecting mirror of finite mass, harmonically bound at
frequency omega0, closes a 1D cavity of length L.  Its quantum position
fluctuations couple pairs of field modes: the interacting ground state
contains virtual states with one mirror quantum and two photons, and the
ground-state energy drops.

This script walks through the perturbative layer: the energy shift and
its cutoff dependence, the exact consistency identity tying the shift to
the dressing amplitudes, and the virtual photon spectrum with its broad
maximum near the mirror frequency.
"""

import numpy as np

from vacmirror import (CutoffSpec, PhysicalParams, dressed_amplitudes,
                       energy_shift, photon_spectrum)

# natural units; omega0 equal to the fundamental mode, weak coupling
params = PhysicalParams(mass=15.915, omega0=np.pi, length=1.0)
print(f"dimensionless coupling lambda = {params.coupling_lambda:.4f}\n")

print("ground-state energy shift vs cutoff frequency (exponential cutoff):")
for mult in (5, 10, 20, 40, 80):
    cut = CutoffSpec.exponential(mult * params.omega0)
    de = energy_shift(params, cut)
    print(f"  omega_m = {mult:3d} omega0:  dE = {de:+.6e}")
print("the shift is negative and grows in magnitude with the cutoff;")
print("the divergence as omega_m -> inf is the usual unrenormalized")
print("vacuum-energy growth, cured here by the mirror transparency scale\n")

cut = CutoffSpec.exponential(30 * params.omega0)
amps = dressed_amplitudes(params, cut)
de_direct = energy_shift(params, cut)
# exact for any cutoff: dE = -sum 2 mult c_raw c hbar (omega0 + w_k + w_j)
de_rebuilt = float(-np.sum(2.0 * amps.multiplicities * amps.coeffs_raw * amps.coeffs
                           * params.hbar * (params.omega0 + amps.pair_frequencies)))
print("consistency identity between the shift and the pair amplitudes:")
print(f"  direct double sum      {de_direct:+.12e}")
print(f"  rebuilt from amplitudes {de_rebuilt:+.12e}")
print(f"  normalization deficit (squared first-order norm) = {amps.lambda_sq:.3e}\n")

cut_soft = CutoffSpec.exponential(10 * params.omega0)
amps_soft = dressed_amplitudes(params, cut_soft)
# binned from index sums in O(N); the pair-by-pair amplitudes are only
# needed for the strongest single pair below
spec = photon_spectrum(params, cut_soft, bin_width=2 * params.omega0)
print("virtual photon spectrum (omega_m = 10 omega0): binned pair weight")
scale = spec.weights.max()
for lo, hi, w in zip(spec.bin_edges[:-1], spec.bin_edges[1:], spec.weights):
    if hi < 30 * params.omega0:
        bar = "#" * max(1, int(round(40 * w / scale))) if w > 0 else ""
        print(f"  [{lo / params.omega0:5.1f}, {hi / params.omega0:5.1f}) omega0  {bar}")
print(f"reported peak: {spec.peak_frequency / params.omega0:.1f} omega0")

s = amps_soft.pair_frequencies
a2 = amps_soft.normalized_state_amplitudes**2
i = int(np.argmax(a2))
print(f"strongest single pair: total frequency {s[i] / params.omega0:.1f} "
      f"omega0 with weight {a2[i]:.3e}")
print("the individual pair amplitudes are largest for the softest pairs,")
print("but the number of pairs per frequency bin grows with frequency, so")
print("the binned maximum sits at a cutoff-dependent scale: the spectrum")
print("is genuinely broad rather than resonant at the mirror frequency")

"""
The untrusted relay as a two-qubit measurement operator
=======================================================

Both photons interfere on a balanced beam splitter and two threshold
detectors watch the early/late time bins. The accepted announcement is
one specific coincidence pattern, and everything the relay does to the
incoming qubit pair is summarized by a single 4x4 POVM element. With
perfect detectors and no loss that element is exactly half a singlet
projector; loss scales it quadratically, dark counts pollute it, and
misalignment rotates it.
"""

import numpy as np

from mdiqkd import (
    SETTINGS,
    ChannelParams,
    ModulationErrors,
    build_bsm_povm,
    build_S_matrix,
    make_reference_state,
    reference_yields,
    transmission_rates,
)
from mdiqkd.channel import PSI_MINUS

ideal = build_bsm_povm(ChannelParams(eta_d=1.0, p_d=0.0, e_d=0.0))
target = 0.5 * np.outer(PSI_MINUS, PSI_MINUS)
print("ideal limit: max |M - singlet/2| =", f"{np.abs(ideal.m - target).max():.2e}")

benchmark = ChannelParams(eta_d=0.145, p_d=6.02e-6, e_d=0.015)
ref = [make_reference_state(s, ModulationErrors()) for s in SETTINGS]
s_matrix = build_S_matrix(ref, ref)

print("\nyields of the four ZZ setting pairs versus loss (benchmark hardware):")
print(f"  {'loss/dB':>8} {'Y(0,0)':>10} {'Y(0,1)':>10} {'Y(1,0)':>10} {'Y(1,1)':>10}")
for loss in (0.0, 5.0, 10.0, 20.0, 40.0):
    povm = build_bsm_povm(benchmark.replace(loss_db=loss))
    y = reference_yields(s_matrix, transmission_rates(povm)).y
    # ZZ pairs sit at indices 0, 1, 3, 4 of the row-major setting grid
    print(f"  {loss:>8} " + " ".join(f"{y[k]:>10.3e}" for k in (0, 1, 3, 4)))

print("\nthe anti-correlated pairs (0,1) and (1,0) dominate until dark counts")
print("take over; equal-bit yields are misalignment leakage plus darks.")

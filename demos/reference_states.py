"""
Reference states and the setting tomography matrix
===================================================

The protocol prepares three settings per side. A perfect source emits
|0Z>, |1Z> and |0X>; a flawed one rotates each by half its modulation
error. This script prints the prepared amplitudes, their Bloch vectors,
and the conditioning of the 9x9 tomography matrix that the estimation
chain inverts.
"""

import numpy as np

from mdiqkd import (
    SETTINGS,
    ModulationErrors,
    bloch_vector,
    build_S_matrix,
    build_virtual,
    make_reference_state,
)

for label, deltas in (
    ("perfect modulation", ModulationErrors()),
    ("flawed modulation (0.126 rad)", ModulationErrors(0.126, 0.126, 0.126)),
):
    print(f"\n== {label} ==")
    ref = [make_reference_state(s, deltas) for s in SETTINGS]
    for setting, state in zip(SETTINGS, ref):
        i, x, z = bloch_vector(state)
        print(f"  {setting}:  amplitudes ({state.amp0:+.6f}, {state.amp1:+.6f})"
              f"   Bloch (X, Z) = ({x:+.6f}, {z:+.6f})")

    s_matrix = build_S_matrix(ref, ref)
    print(f"  cond(S) = {np.linalg.cond(s_matrix):.3f}")

    # the kept X outcomes form the virtual ensemble used for phase errors
    ensemble = build_virtual(ref[:2], ref[:2])
    probs = ", ".join(f"{p:.6f}" for p in ensemble.p_vir)
    print(f"  virtual outcome probabilities: {probs}  (1/4 each when perfect)")

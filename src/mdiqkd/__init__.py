"""Security analysis of MDI-QKD with imperfect single-photon sources.

The package computes the asymptotic secret-key rate of a three-setting
measurement-device-independent protocol whose sources carry both
modulation errors (known rotations of the prepared qubits) and
side channels (an eps-weighted leak out of the qubit space). Yields are
expressed through Bloch-vector tomography of the setting states, the
phase-error rate is bounded with fidelity-based deviation functions, and
everything is driven either as a library or through the sweep CLI.

This namespace holds the names the README and the demos use; the other
public names of each layer live in its submodule.
"""

from .channel import ChannelParams, build_bsm_povm, reference_yields, transmission_rates
from .estimator import SideChannelParams, build_estimation_inputs, estimate
from .gbound import g_lower, g_upper
from .pauli_core import (
    SETTINGS,
    EstimationError,
    ModulationErrors,
    bloch_vector,
    build_S_matrix,
    build_virtual,
    make_reference_state,
)
from .sweep import (
    FrequencyRange,
    KeyRatePoint,
    LossRange,
    SweepConfig,
    SweepTable,
    frequency_table,
    load_config,
    loss_table,
)

__version__ = "0.1.0"

__all__ = [
    "SETTINGS",
    "ChannelParams",
    "ModulationErrors",
    "SideChannelParams",
    "build_bsm_povm",
    "build_estimation_inputs",
    "build_S_matrix",
    "estimate",
    "make_reference_state",
    "reference_yields",
    "transmission_rates",
    "g_lower",
    "g_upper",
    "bloch_vector",
    "build_virtual",
    "EstimationError",
    "FrequencyRange",
    "KeyRatePoint",
    "LossRange",
    "SweepConfig",
    "SweepTable",
    "frequency_table",
    "load_config",
    "loss_table",
    "__version__",
]

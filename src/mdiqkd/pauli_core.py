"""Qubit states, Bloch decompositions, and the tomography matrices.

Everything here lives in the X-Z plane of the Bloch sphere: the three
signal settings are prepared with real amplitudes, so the sigma_Y
coefficient vanishes identically and a 9-component {I, X, Z} x {I, X, Z}
decomposition captures two-qubit product states exactly.

Fixed orderings, shared by every consumer:

* settings: 0Z, 1Z, 0X
* Pauli axes: I, X, Z; 9-vectors indexed (I,I), (I,X), (I,Z), (X,I),
  (X,X), (X,Z), (Z,I), (Z,X), (Z,Z)
* setting pairs (rows of S and yield tables): (0Z,0Z), (0Z,1Z), (0Z,0X),
  (1Z,0Z), (1Z,1Z), (1Z,0X), (0X,0Z), (0X,1Z), (0X,0X)

X-basis convention: |jX> = (|0Z> + (-1)^j |1Z>)/sqrt(2).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SETTINGS",
    "PAULI_AXES",
    "PAULI_PAIRS",
    "SETTING_PAIRS",
    "PAULI_PRODUCTS",
    "ZZ_PAIR_INDICES",
    "QubitState",
    "ModulationErrors",
    "VirtualEnsemble",
    "DegenerateInputError",
    "make_reference_state",
    "bloch_vector",
    "two_qubit_bloch",
    "build_S_matrix",
    "build_virtual",
]

SETTINGS = ("0Z", "1Z", "0X")
PAULI_AXES = ("I", "X", "Z")
PAULI_PAIRS = tuple((l, lp) for l in PAULI_AXES for lp in PAULI_AXES)
SETTING_PAIRS = tuple((a, b) for a in SETTINGS for b in SETTINGS)
_PAULI_MATRICES = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}
# sigma_l x sigma_l' for each of PAULI_PAIRS, a (9, 4, 4) stack; every
# entry is real and symmetric
PAULI_PRODUCTS = np.array(
    [np.kron(_PAULI_MATRICES[l], _PAULI_MATRICES[lp]) for l, lp in PAULI_PAIRS]
)
# positions of the four (jZ, sZ) pairs inside SETTING_PAIRS
ZZ_PAIR_INDICES = (0, 1, 3, 4)

_NORM_ATOL = 1e-12


class DegenerateInputError(ValueError):
    """Raised when a reference set collapses a virtual state to zero trace."""


@dataclass(frozen=True, slots=True)
class QubitState:
    """Pure single-qubit state with real amplitudes on |0Z>, |1Z>."""

    amp0: float
    amp1: float

    def __post_init__(self):
        norm = self.amp0 * self.amp0 + self.amp1 * self.amp1
        if not abs(norm - 1.0) <= _NORM_ATOL:  # the negated test also refuses nan
            raise ValueError(f"state not normalized: |amp|^2 = {norm!r}")


@dataclass(frozen=True, slots=True)
class ModulationErrors:
    """Phase-modulation offsets (radians) for the three settings."""

    delta1: float = 0.0
    delta2: float = 0.0
    delta3: float = 0.0

    def __post_init__(self):
        for name in ("delta1", "delta2", "delta3"):
            if not abs(getattr(self, name)) < math.pi / 2:
                # beyond pi/2 the state is closer to the complementary one;
                # the negated test also refuses nan
                raise ValueError(f"|{name}| must be finite and < pi/2")


@dataclass(frozen=True, slots=True)
class VirtualEnsemble:
    """X-outcome ensemble of the entanglement-based source description.

    p_vir holds the probabilities of the kept outcomes (j, s) = (0, 0)
    and (1, 1); s_vir holds the Bloch rows of the normalized states sent
    on those outcomes.
    """

    p_vir: np.ndarray
    s_vir: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_vir, dtype=float)
        s = np.asarray(self.s_vir, dtype=float)
        if p.shape != (2,) or s.shape != (2, 9):
            raise ValueError("expected 2 probabilities and a 2x9 Bloch block")
        if not np.all((p >= -_NORM_ATOL) & (p <= 1.0 + _NORM_ATOL)):
            raise ValueError("virtual probabilities out of [0, 1]")
        object.__setattr__(self, "p_vir", p)
        object.__setattr__(self, "s_vir", s)


def make_reference_state(setting, deltas):
    """Reference state for one setting under modulation errors.

    0Z -> (cos(d1/2), sin(d1/2)); 1Z -> (sin(d2/2), cos(d2/2));
    0X -> (sin(pi/4 + d3/2), cos(pi/4 + d3/2)).
    """
    if setting == "0Z":
        half = deltas.delta1 / 2.0
        return QubitState(math.cos(half), math.sin(half))
    if setting == "1Z":
        half = deltas.delta2 / 2.0
        return QubitState(math.sin(half), math.cos(half))
    if setting == "0X":
        angle = math.pi / 4.0 + deltas.delta3 / 2.0
        return QubitState(math.sin(angle), math.cos(angle))
    raise ValueError(f"unknown setting {setting!r}, expected one of {SETTINGS}")


def bloch_vector(state):
    """Coefficients <sigma_l> for l in (I, X, Z), a (3,) array; requires a normalized state."""
    a, b = state.amp0, state.amp1
    norm = a * a + b * b
    if not abs(norm - 1.0) <= _NORM_ATOL:  # the negated test also refuses nan
        raise ValueError("state not normalized")
    return np.array([1.0, 2.0 * a * b, a * a - b * b])


def two_qubit_bloch(state_a, state_b):
    """Product-state coefficients s_{l,l'} = s_l(A) * s_{l'}(B), PAULI_PAIRS order."""
    return np.outer(bloch_vector(state_a), bloch_vector(state_b)).ravel()


def build_S_matrix(ref_a, ref_b):
    """9x9 matrix whose rows are the Bloch coefficients of the setting pairs.

    ref_a, ref_b: the three reference states per side in SETTINGS order.
    Rows follow SETTING_PAIRS order: entry (3i + j, 3l + l') is
    s_l(ref_a[i]) * s_l'(ref_b[j]), one product of the two Bloch blocks.
    """
    if len(ref_a) != 3 or len(ref_b) != 3:
        raise ValueError("expected three reference states per side")
    a = np.array([bloch_vector(state) for state in ref_a])
    b = np.array([bloch_vector(state) for state in ref_b])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(9, 9)


def _x_projected(ref_z, j):
    # transmitted state when the ancilla X measurement gives outcome j
    vec = np.array([ref_z[0].amp0, ref_z[0].amp1])
    vec = (vec + (-1) ** j * np.array([ref_z[1].amp0, ref_z[1].amp1])) / math.sqrt(2.0)
    return vec


def build_virtual(ref_a_z, ref_b_z):
    """X-outcome virtual ensemble from the four Z-basis reference states.

    The source-equivalent entangled state is
    (1/2) sum_{j,s} |jZ, sZ>|phi_jZ, phi_sZ>; projecting the ancillas onto
    |jX, sX> factorizes, so each kept outcome (0,0) and (1,1) carries a
    product state. Outcome probabilities of all four (j, s) combinations
    must sum to 1; the off-diagonal two are computed only for that check.
    """
    if len(ref_a_z) != 2 or len(ref_b_z) != 2:
        raise ValueError("expected the two Z-basis states per side")
    p_all = {}
    states = {}
    for j in range(2):
        va = _x_projected(ref_a_z, j)
        for s in range(2):
            vb = _x_projected(ref_b_z, s)
            p_all[j, s] = 0.25 * float(va @ va) * float(vb @ vb)
            states[j, s] = (va, vb)
    total = sum(p_all.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"virtual outcome probabilities sum to {total!r}")
    rows = []
    for j, s in ((0, 0), (1, 1)):
        va, vb = states[j, s]
        na, nb = math.sqrt(float(va @ va)), math.sqrt(float(vb @ vb))
        if na < 1e-7 or nb < 1e-7:
            raise DegenerateInputError(
                f"virtual state for outcome ({j},{s}) has zero trace"
            )
        qa = QubitState(va[0] / na, va[1] / na)
        qb = QubitState(vb[0] / nb, vb[1] / nb)
        rows.append(two_qubit_bloch(qa, qb))
    p_kept = np.array([p_all[0, 0], p_all[1, 1]])
    return VirtualEnsemble(p_kept, np.array(rows))

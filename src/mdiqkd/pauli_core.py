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

States travel as their real amplitudes on |0Z>, |1Z>: a (2,) array for
one state, (n, k, 2) for n sets of k states.
"""

import math

import numpy as np

from .gbound import Frozen, real

__all__ = [
    "SETTINGS",
    "PAULI_AXES",
    "PAULI_PAIRS",
    "SETTING_PAIRS",
    "PAULI_PRODUCTS",
    "ZZ_PAIR_INDICES",
    "ModulationErrors",
    "DegenerateInputError",
    "make_reference_state",
    "reference_amplitudes",
    "bloch_vector",
    "build_S_matrix",
    "virtual_stack",
    "build_virtual",
]

SETTINGS = ("0Z", "1Z", "0X")
PAULI_AXES = ("I", "X", "Z")
PAULI_PAIRS = tuple((l, lp) for l in PAULI_AXES for lp in PAULI_AXES)
SETTING_PAIRS = tuple((a, b) for a in SETTINGS for b in SETTINGS)
# I, X, Z in PAULI_AXES order, a (3, 2, 2) stack
_PAULI_MATRICES = np.array([[[1.0, 0.0], [0.0, 1.0]],
                            [[0.0, 1.0], [1.0, 0.0]],
                            [[1.0, 0.0], [0.0, -1.0]]])
# sigma_l x sigma_l' for each of PAULI_PAIRS, a (9, 4, 4) stack built as
# one broadcast product: entry [3l + l', 2i + k, 2j + m] = sigma_l[i, j] *
# sigma_l'[k, m], the bytes of np.kron. Every entry is real and symmetric.
PAULI_PRODUCTS = (
    _PAULI_MATRICES[:, None, :, None, :, None] * _PAULI_MATRICES[None, :, None, :, None, :]
).reshape(9, 4, 4)
# positions of the four (jZ, sZ) pairs inside SETTING_PAIRS
ZZ_PAIR_INDICES = (0, 1, 3, 4)

_NORM_ATOL = 1e-12


class DegenerateInputError(ValueError):
    """Raised when a reference set collapses a virtual state to zero trace."""


def check_delta(value, name):
    """value itself; ValueError unless it is a real number with |value| < pi/2."""
    if not abs(real(value, name)) < math.pi / 2:
        # beyond pi/2 the state is closer to the complementary one;
        # the negated test also refuses nan
        raise ValueError(f"|{name}| must be finite and < pi/2")
    return value


class ModulationErrors(Frozen):
    """Phase-modulation offsets (radians) for the three settings."""

    __slots__ = ("delta1", "delta2", "delta3")

    def __init__(self, delta1=0.0, delta2=0.0, delta3=0.0):
        for name, value in (("delta1", delta1), ("delta2", delta2), ("delta3", delta3)):
            check_delta(value, name)
        self.delta1 = delta1
        self.delta2 = delta2
        self.delta3 = delta3


def reference_amplitudes(deltas):
    """Amplitudes of the three reference states per modulation error, shape (n, 3, 2).

    Row i holds the settings in SETTINGS order, each under the offset
    deltas[i]: 0Z -> (cos(d/2), sin(d/2)); 1Z -> (sin(d/2), cos(d/2));
    0X -> (sin(pi/4 + d/2), cos(pi/4 + d/2)). The offsets are not checked.
    """
    flat = []
    for delta in deltas:
        half = delta / 2.0
        angle = math.pi / 4.0 + half
        cos, sin = math.cos(half), math.sin(half)
        flat += (cos, sin, sin, cos, math.sin(angle), math.cos(angle))
    return np.array(flat, dtype=float).reshape(-1, 3, 2)


def make_reference_state(setting, deltas):
    """Reference state for one setting under modulation errors.

    The one-state case of reference_amplitudes, its (2,) amplitudes on
    |0Z>, |1Z>: 0Z takes deltas.delta1, 1Z deltas.delta2 and 0X
    deltas.delta3.
    """
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}, expected one of {SETTINGS}")
    k = SETTINGS.index(setting)
    delta = (deltas.delta1, deltas.delta2, deltas.delta3)[k]
    return reference_amplitudes([delta])[0, k]


def _bloch(amps):
    """Coefficients <sigma_l>, l in (I, X, Z), of real amplitudes (..., 2) -> (..., 3)."""
    a, b = amps[..., 0], amps[..., 1]
    if not np.all(np.abs(a * a + b * b - 1.0) <= _NORM_ATOL):  # the negated test also refuses nan
        raise ValueError("state not normalized")
    return np.stack([np.ones_like(a), 2.0 * a * b, a * a - b * b], axis=-1)


def _pair_bloch(a, b):
    """Product-state coefficients s_{l,l'} = s_l(A) * s_l'(B) of Bloch rows (..., 3) -> (..., 9)."""
    product = a[..., :, None] * b[..., None, :]
    return product.reshape(product.shape[:-2] + (9,))


def bloch_vector(state):
    """Coefficients <sigma_l> for l in (I, X, Z), a (3,) array, of normalized amplitudes (2,)."""
    state = np.asarray(state, dtype=float)
    if state.shape != (2,):
        raise ValueError("expected the two amplitudes of one state")
    return _bloch(state)


def _side_matrices(refs):
    """One side's B of n reference sets, (n, 3, 3), row i the Bloch vector of state i.

    refs: amplitudes of shape (n, 3, 2), three states per set in SETTINGS order.
    """
    if refs.shape[1:] != (3, 2):
        raise ValueError("expected three reference states per side")
    return _bloch(refs)


def _kron_sides(b_a, b_b):
    """S = B_A (x) B_B of n reference sets, (n, 9, 9), with np.kron's bits.

    Row 3i + j, in SETTING_PAIRS order, holds the coefficients of ref_a[i] (x) ref_b[j].
    """
    return _pair_bloch(b_a[:, :, None], b_b[:, None]).reshape(-1, 9, 9)


def build_S_matrix(ref_a, ref_b):
    """9x9 matrix whose rows are the Bloch coefficients of the setting pairs.

    ref_a, ref_b: the amplitudes of the three reference states per side
    in SETTINGS order, (3, 2) or three (2,) rows; the one-set case of _kron_sides.
    """
    b_a, b_b = (_side_matrices(np.asarray([ref], dtype=float)) for ref in (ref_a, ref_b))
    return _kron_sides(b_a, b_b)[0]


def _kept_side(z):
    """Squared norms (n, 2), collapse mask and Bloch rows (n, 2, 3) of one side's kept outcomes.

    z (n, 2, 2): the side's Z-basis states. Outcome j sends (phi_0Z + (-1)^j
    phi_1Z)/sqrt(2), normalized; |0Z> where its norm is below 1e-7.
    """
    v = np.stack([z[:, 0] + z[:, 1], z[:, 0] - z[:, 1]], axis=1) / math.sqrt(2.0)
    n2 = v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]
    norm = np.sqrt(n2)
    collapsed = norm < 1e-7  # a nan norm is no collapse: _bloch refuses it
    live = ~collapsed[..., None]
    q = np.where(live, v / np.where(live, norm[..., None], 1.0), (1.0, 0.0))
    return n2, collapsed, _bloch(q)


def virtual_stack(z_a, z_b):
    """X-outcome virtual ensembles of n reference sets at once.

    z_a, z_b: amplitudes of shape (n, 2, 2), the two Z-basis reference
    states per side. The source-equivalent entangled state is
    (1/2) sum_{j,s} |jZ, sZ>|phi_jZ, phi_sZ>; projecting the ancillas onto
    |jX, sX> factorizes, so each kept outcome (0,0) and (1,1) carries a
    product state. Outcome probabilities of all four (j, s) combinations
    must sum to 1; the off-diagonal two enter only that check.

    Returns (p_vir, bloch_a, bloch_b, errors): the probabilities of the
    kept outcomes (j, s) = (0, 0) and (1, 1), shape (n, 2), the Bloch
    rows of the normalized state each side sends on them, (n, 2, 3) per
    side, and per set None or the DegenerateInputError of a kept outcome
    whose state has zero trace. Such a state is replaced by |0Z>, so that
    the stack stays finite.
    """
    if z_a.shape[1:] != (2, 2) or z_b.shape[1:] != (2, 2):
        raise ValueError("expected the two Z-basis states per side")
    kept_a, kept_b = _kept_side(z_a), _kept_side(z_b)
    p_vir, errors = _virtual_of_sides(kept_a, kept_b)
    return p_vir, kept_a[2], kept_b[2], errors


def _virtual_of_sides(kept_a, kept_b):
    """(p_vir, errors) of virtual_stack, from the _kept_side of each side."""
    (na2, collapsed_a, _), (nb2, collapsed_b, _) = kept_a, kept_b
    total = 0.25 * na2.sum(axis=1) * nb2.sum(axis=1)
    off = np.abs(total - 1.0) > 1e-9
    if np.any(off):
        raise ValueError(f"virtual outcome probabilities sum to {float(total[off][0])!r}")
    errors = [None] * len(total)
    # kept outcome (j, j) collapses on either side; a set's first outcome wins
    for k, j in reversed(np.argwhere(collapsed_a | collapsed_b).tolist()):
        errors[k] = DegenerateInputError(f"virtual state for outcome ({j},{j}) has zero trace")
    return 0.25 * na2 * nb2, errors


def build_virtual(ref_a_z, ref_b_z):
    """X-outcome virtual ensemble (p_vir, s_vir), shapes (2,) and (2, 9).

    ref_a_z, ref_b_z: the amplitudes of the two Z-basis reference states
    per side. The one-set case of virtual_stack, s_vir[j] = bloch_a[j] (x)
    bloch_b[j]; raises DegenerateInputError when a kept outcome carries a
    state of zero trace.
    """
    p_vir, bloch_a, bloch_b, errors = virtual_stack(np.asarray([ref_a_z], dtype=float),
                                                    np.asarray([ref_b_z], dtype=float))
    if errors[0] is not None:
        raise errors[0]
    return p_vir[0], _pair_bloch(bloch_a[0], bloch_b[0])

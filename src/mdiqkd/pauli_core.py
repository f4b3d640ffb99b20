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

import numpy as np

from .gbound import Frozen, real

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
    "amplitudes",
    "bloch_vector",
    "s_matrix_stack",
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


class QubitState(Frozen):
    """Pure single-qubit state with real amplitudes on |0Z>, |1Z>."""

    __slots__ = ("amp0", "amp1")

    def __init__(self, amp0, amp1):
        norm = amp0 * amp0 + amp1 * amp1
        if not abs(norm - 1.0) <= _NORM_ATOL:  # the negated test also refuses nan
            raise ValueError(f"state not normalized: |amp|^2 = {norm!r}")
        self.amp0 = amp0
        self.amp1 = amp1


class ModulationErrors(Frozen):
    """Phase-modulation offsets (radians) for the three settings."""

    __slots__ = ("delta1", "delta2", "delta3")

    def __init__(self, delta1=0.0, delta2=0.0, delta3=0.0):
        for name, value in (("delta1", delta1), ("delta2", delta2), ("delta3", delta3)):
            if not abs(real(value, name)) < math.pi / 2:
                # beyond pi/2 the state is closer to the complementary one;
                # the negated test also refuses nan
                raise ValueError(f"|{name}| must be finite and < pi/2")
        self.delta1 = delta1
        self.delta2 = delta2
        self.delta3 = delta3


class VirtualEnsemble(Frozen):
    """X-outcome ensemble of the entanglement-based source description.

    p_vir holds the probabilities of the kept outcomes (j, s) = (0, 0)
    and (1, 1); s_vir holds the Bloch rows of the normalized states sent
    on those outcomes. Shapes (2,) and (2, 9), or (n, 2) and (n, 2, 9)
    for a stack of n reference sets.
    """

    __slots__ = ("p_vir", "s_vir")

    def __init__(self, p_vir, s_vir):
        p = np.asarray(p_vir, dtype=float)
        s = np.asarray(s_vir, dtype=float)
        if p.shape[-1:] != (2,) or s.shape != p.shape + (9,):
            raise ValueError("expected 2 probabilities and a 2x9 Bloch block")
        if not np.all((p >= -_NORM_ATOL) & (p <= 1.0 + _NORM_ATOL)):
            raise ValueError("virtual probabilities out of [0, 1]")
        self.p_vir = p
        self.s_vir = s


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


def amplitudes(sets):
    """Real amplitudes of n sets of k states, shape (n, k, 2)."""
    return np.array([[(q.amp0, q.amp1) for q in states] for states in sets], dtype=float)


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
    """Coefficients <sigma_l> for l in (I, X, Z), a (3,) array; requires a normalized state."""
    return _bloch(np.array([state.amp0, state.amp1]))


def s_matrix_stack(refs_a, refs_b):
    """S of n reference sets at once, shape (n, 9, 9).

    refs_a, refs_b: amplitudes of shape (n, 3, 2), the three reference
    states per side in SETTINGS order. Row 3i + j, in SETTING_PAIRS
    order, holds the product-state coefficients of ref_a[i] and ref_b[j].
    """
    if refs_a.shape[1:] != (3, 2) or refs_b.shape[1:] != (3, 2):
        raise ValueError("expected three reference states per side")
    a, b = _bloch(refs_a), _bloch(refs_b)
    return _pair_bloch(a[:, :, None], b[:, None]).reshape(-1, 9, 9)


def build_S_matrix(ref_a, ref_b):
    """9x9 matrix whose rows are the Bloch coefficients of the setting pairs.

    ref_a, ref_b: the three reference states per side in SETTINGS order;
    the one-set case of s_matrix_stack.
    """
    return s_matrix_stack(amplitudes([ref_a]), amplitudes([ref_b]))[0]


def _x_projected(z):
    # transmitted states when the ancilla X measurement gives outcome
    # j = 0, 1: (phi_0Z + (-1)^j phi_1Z) / sqrt(2), shape (n, 2, 2)
    return np.stack([z[:, 0] + z[:, 1], z[:, 0] - z[:, 1]], axis=1) / math.sqrt(2.0)


def virtual_stack(z_a, z_b):
    """X-outcome virtual ensembles of n reference sets at once.

    z_a, z_b: amplitudes of shape (n, 2, 2), the two Z-basis reference
    states per side. The source-equivalent entangled state is
    (1/2) sum_{j,s} |jZ, sZ>|phi_jZ, phi_sZ>; projecting the ancillas onto
    |jX, sX> factorizes, so each kept outcome (0,0) and (1,1) carries a
    product state. Outcome probabilities of all four (j, s) combinations
    must sum to 1; the off-diagonal two are computed only for that check.

    Returns (ensemble, errors): a VirtualEnsemble of shapes (n, 2) and
    (n, 2, 9), and per set None or the DegenerateInputError of a kept
    outcome whose state has zero trace. Such a state is replaced by |0Z>
    in the ensemble, so that the stack stays finite.
    """
    if z_a.shape[1:] != (2, 2) or z_b.shape[1:] != (2, 2):
        raise ValueError("expected the two Z-basis states per side")
    va, vb = _x_projected(z_a), _x_projected(z_b)
    # squared norms per outcome, (n, 2), by matmul: a sum of squares would
    # miss the fused multiply-add of the BLAS dot that va @ va runs for
    # one vector, and with it the last bits
    na2 = (va[..., None, :] @ va[..., :, None])[..., 0, 0]
    nb2 = (vb[..., None, :] @ vb[..., :, None])[..., 0, 0]
    p_all = 0.25 * na2[:, :, None] * nb2[:, None, :]  # (n, j, s)
    total = p_all.sum(axis=(1, 2))
    off = np.abs(total - 1.0) > 1e-9
    if np.any(off):
        raise ValueError(f"virtual outcome probabilities sum to {float(total[off][0])!r}")
    na, nb = np.sqrt(na2), np.sqrt(nb2)
    collapsed = (na < 1e-7) | (nb < 1e-7)  # kept outcome (j, j), (n, 2)
    errors = [None] * len(collapsed)
    for k, j in reversed(np.argwhere(collapsed).tolist()):  # a set's first outcome wins
        errors[k] = DegenerateInputError(f"virtual state for outcome ({j},{j}) has zero trace")
    live = ~collapsed[..., None]
    qa = np.where(live, va / np.where(live, na[..., None], 1.0), (1.0, 0.0))
    qb = np.where(live, vb / np.where(live, nb[..., None], 1.0), (1.0, 0.0))
    s_vir = _pair_bloch(_bloch(qa), _bloch(qb))
    # in C order: over a strided operand matmul skips BLAS, whose fused
    # multiply-adds give f_obj = p_vir S_vir S^-1 other last bits
    p_kept = np.ascontiguousarray(p_all[:, (0, 1), (0, 1)])
    return VirtualEnsemble(p_kept, s_vir), errors


def build_virtual(ref_a_z, ref_b_z):
    """X-outcome virtual ensemble from the four Z-basis reference states.

    The one-set case of virtual_stack; raises DegenerateInputError when
    a kept outcome carries a state of zero trace.
    """
    ensemble, errors = virtual_stack(amplitudes([ref_a_z]), amplitudes([ref_b_z]))
    if errors[0] is not None:
        raise errors[0]
    return VirtualEnsemble(ensemble.p_vir[0], ensemble.s_vir[0])

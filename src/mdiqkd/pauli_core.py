"""Qubit states, Bloch decompositions, and the setup of a reference set.

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

Setup. One side's three reference states give its 3x3 matrix B, whose
rows are their Bloch rows (1, <X>, <Z>). This module owns that layout
and everything the estimation chain needs of a reference set that is
built from it: the tomography matrix S = B_A (x) B_B, cond(S), the
X-outcome virtual ensemble, f_obj = P_vir S_vir S^-1, and the refusals
of a set (IllConditionedError, DegenerateInputError).
build_estimation_stack builds them for many reference sets as one
stack; a sweep calls it once per table.
"""

import math

import numpy as np

from .gbound import Frozen, real

__all__ = [
    "SETTINGS",
    "PAULI_PRODUCTS",
    "ZZ_PAIR_INDICES",
    "DEFAULT_COND_CEILING",
    "ModulationErrors",
    "EstimationError",
    "IllConditionedError",
    "DegenerateInputError",
    "make_reference_state",
    "reference_amplitudes",
    "bloch_vector",
    "build_S_matrix",
    "build_virtual",
    "build_estimation_stack",
]

SETTINGS = ("0Z", "1Z", "0X")
# I, X, Z, a (3, 2, 2) stack
_PAULI_MATRICES = np.array([[[1.0, 0.0], [0.0, 1.0]],
                            [[0.0, 1.0], [1.0, 0.0]],
                            [[1.0, 0.0], [0.0, -1.0]]])
# sigma_l x sigma_l' for each Pauli pair, a (9, 4, 4) stack built as
# one broadcast product: entry [3l + l', 2i + k, 2j + m] = sigma_l[i, j] *
# sigma_l'[k, m], the bytes of np.kron. Every entry is real and symmetric.
PAULI_PRODUCTS = (
    _PAULI_MATRICES[:, None, :, None, :, None] * _PAULI_MATRICES[None, :, None, :, None, :]
).reshape(9, 4, 4)
# positions of the four (jZ, sZ) pairs among the setting pairs
ZZ_PAIR_INDICES = (0, 1, 3, 4)

DEFAULT_COND_CEILING = 1e8
_NORM_ATOL = 1e-12
# np.linalg.matrix_rank's 3x3 tolerance over the largest singular value
_RANK_TOL = 3 * np.finfo(float).eps


class EstimationError(Exception):
    """Base class for failures of the estimation chain."""


class IllConditionedError(EstimationError):
    """The setting tomography matrix amplifies noise beyond the ceiling."""

    def __init__(self, condition_number, ceiling):
        self.condition_number = condition_number
        self.ceiling = ceiling
        super().__init__(
            f"cond(S) = {condition_number:.3e} exceeds ceiling {ceiling:.3e}"
        )


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

    Row 3i + j, in setting-pair order, holds the coefficients of ref_a[i] (x) ref_b[j].
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


def _virtual_of_sides(kept_a, kept_b):
    """(p_vir, errors) of n sets, from the _kept_side of each side.

    p_vir (n, 2): the probabilities of the kept outcomes (j, s) = (0, 0)
    and (1, 1); errors: per set None or the DegenerateInputError of a kept
    outcome whose state has zero trace.
    """
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
    per side. The source-equivalent entangled state is
    (1/2) sum_{j,s} |jZ, sZ>|phi_jZ, phi_sZ>; projecting the ancillas onto
    |jX, sX> factorizes, so each kept outcome (0,0) and (1,1) carries a
    product state, s_vir[j] = b_A,j (x) b_B,j of the Bloch rows of the
    normalized state each side sends on it, with probability p_vir[j].
    Outcome probabilities of all four (j, s) combinations must sum to 1;
    the off-diagonal two enter only that check. Raises DegenerateInputError
    when a kept outcome carries a state of zero trace.
    """
    z_a, z_b = np.asarray([ref_a_z], dtype=float), np.asarray([ref_b_z], dtype=float)
    if z_a.shape[1:] != (2, 2) or z_b.shape[1:] != (2, 2):
        raise ValueError("expected the two Z-basis states per side")
    kept_a, kept_b = _kept_side(z_a), _kept_side(z_b)
    p_vir, errors = _virtual_of_sides(kept_a, kept_b)
    if errors[0] is not None:
        raise errors[0]
    return p_vir[0], _pair_bloch(kept_a[2][0], kept_b[2][0])


def build_estimation_stack(amps_a, amps_b, cond_ceiling=DEFAULT_COND_CEILING):
    """The tomography matrices and f_obj of n reference sets at once.

    amps_a, amps_b: the real amplitudes of n reference sets per side,
    shape (n, 3, 2), the three reference states of a set in SETTINGS
    order (reference_amplitudes, or make_reference_state rows).
    Returns (s_matrix, cond_s, f_obj, errors): S (n, 9, 9), cond(S) (n,),
    f_obj (n, 9) and per set None or the error that refuses it:
    IllConditionedError when cond(S) exceeds the ceiling (the inversion
    amplifies yield noise by that factor) or a side's B is singular to
    working precision (cond_s then reads inf), else a
    DegenerateInputError; the f_obj of every refused set is nan. As S =
    B_A (x) B_B, cond(S) = cond(B_A) cond(B_B) and f_obj = sum_j p_j c_A,j
    (x) c_B,j, c_j = b(q_j) B^-1 the barycentric coordinates of q_j.
    """
    amps_a, amps_b = np.asarray(amps_a, dtype=float), np.asarray(amps_b, dtype=float)
    side_a = _side_setup(amps_a, cond_ceiling)
    # a sweep passes one array for both sides: its setup is made once
    side_b = side_a if amps_b is amps_a else _side_setup(amps_b, cond_ceiling)
    (b_a, cond_a, regular_a, kept_a, c_a), (b_b, cond_b, regular_b, kept_b, c_b) = side_a, side_b
    with np.errstate(over="ignore"):  # a product past the float range is inf: refused
        cond = cond_a * cond_b
    # a set with a singular side that passes a lifted ceiling is refused as cond(S) = inf
    cond[~(regular_a & regular_b) & (cond <= cond_ceiling)] = np.inf
    p_vir, errors = _virtual_of_sides(kept_a, kept_b)
    inverted = np.isfinite(cond) & (cond <= cond_ceiling)
    errors = [err if ok else IllConditionedError(c, cond_ceiling)
              for err, ok, c in zip(errors, inverted.tolist(), cond.tolist())]
    f_obj = (p_vir[:, :, None, None] * c_a[..., :, None] * c_b[..., None, :]).sum(1)
    f_obj = f_obj.reshape(-1, 9)
    f_obj[[err is not None for err in errors]] = np.nan
    return _kron_sides(b_a, b_b), cond, f_obj, errors


def _side_setup(amps, cond_ceiling):
    """One side's share of build_estimation_stack for n reference sets.

    Returns (B, cond(B), regular, kept, c): B (n, 3, 3), its cond (n,),
    whether B passes np.linalg.matrix_rank's test, the side's _kept_side,
    and the c_j (n, 2, 3) where B is regular and its cond within the
    ceiling (cond(S) is no smaller), nan elsewhere; all by +, -, *, / and
    sqrt on Python floats, from a set's triangle of Bloch points (X, Z).
    """
    b = _side_matrices(amps)
    kept = _kept_side(amps[:, :2])
    cond, regular, c = [], [], []
    for ((_, x0, z0), (_, x1, z1), (_, x2, z2)), virtual in zip(b.tolist(), kept[2].tolist()):
        # B^T B = [[3, sx, sz], [sx, sxx, sxz], [sz, sxz, szz]], of trace t, principal
        # 2x2 minors summing to m and determinant det^2, det = det B twice the area
        sx, sz, sxz = x0 + x1 + x2, z0 + z1 + z2, x0 * z0 + x1 * z1 + x2 * z2
        sxx, szz = x0 * x0 + x1 * x1 + x2 * x2, z0 * z0 + z1 * z1 + z2 * z2
        t, m = 3.0 + sxx + szz, 3.0 * (sxx + szz) + sxx * szz - sx * sx - sz * sz - sxz * sxz
        det = (x1 - x0) * (z2 - z0) - (z1 - z0) * (x2 - x0)
        # its largest eigenvalue, in [3, 6] and 1.25 or more above lambda_2: six
        # Newton steps on the characteristic cubic from ||B^T B||_F >= lambda_1
        lam = math.sqrt(9.0 + sxx * sxx + szz * szz + 2.0 * (sx * sx + sz * sz + sxz * sxz))
        for _ in range(6):
            lam -= (((lam - t) * lam + m) * lam - det * det) / ((3.0 * lam - 2.0 * t) * lam + m)
        # lambda_2 = half + |D| / sqrt(2), D = B^T B - half I - (lambda_1 - half) v v^T,
        # exact also at lambda_2 = lambda_3: adj(B^T B - lambda_1 I) = f'(lambda_1) v v^T
        h0, h1, h2, half = 3.0 - lam, sxx - lam, szz - lam, 0.5 * (t - lam)
        a0, a1, a2 = h1 * h2 - sxz * sxz, h0 * h2 - sz * sz, h0 * h1 - sx * sx
        w = (lam - half) / (a0 + a1 + a2)
        d0, d1, d2 = 3.0 - half - w * a0, sxx - half - w * a1, szz - half - w * a2
        o0, o1, o2 = (sx - w * (sz * sxz - sx * h2), sz - w * (sx * sxz - sz * h1),
                      sxz - w * (sx * sz - h0 * sxz))
        dev = d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (o0 * o0 + o1 * o1 + o2 * o2)
        scale = lam * math.sqrt(half + math.sqrt(0.5 * dev))  # sigma_1^2 sigma_2
        cond.append(scale / abs(det) if det else math.inf)
        regular.append(abs(det) > scale * _RANK_TOL)
        solved = regular[-1] and cond[-1] <= cond_ceiling
        for _, qx, qz in virtual:  # barycentric: cross products of P_i - q over det B
            u0x, u0z, u1x, u1z, u2x, u2z = x0 - qx, z0 - qz, x1 - qx, z1 - qz, x2 - qx, z2 - qz
            c.append([(u1x * u2z - u1z * u2x) / det, (u2x * u0z - u2z * u0x) / det,
                      (u0x * u1z - u0z * u1x) / det] if solved else [math.nan] * 3)
    return b, np.array(cond, float), np.array(regular, bool), kept, np.array(c).reshape(-1, 2, 3)

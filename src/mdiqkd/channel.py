"""Relay model: the POVM element of a successful singlet announcement.

Time-bin qubits (|0> = early, |1> = late) from both senders interfere at
a 50:50 beam splitter watched by two threshold detectors D1, D2, giving
four detector-slot channels (D1-early, D1-late, D2-early, D2-late). The
announcement kept by the protocol is the click pattern {D1-early and
D2-late, nothing else}; any click outside it discards the event. Each
channel dark-fires independently with probability p_d per slot.

Loss and detector efficiency enter as one per-arm survival probability
eta_arm = eta_d * 10^(-loss_db/20): the configured loss_db is the total
sender-to-sender budget, split evenly between the two arms, with the
detector efficiency folded in. Misalignment rotates Bob's qubit by theta
with sin^2(theta) = e_d before interference.

With p_d = 0, e_d = 0 the construction reduces to
M = (eta_arm^2 / 2) |psi-><psi-|, the lossy singlet filter.

The element is exactly quadratic in eta_arm: each photon survives its arm
independently, so M(eta_arm) mixes four eta-independent elements (both
photons arrive, only Alice's, only Bob's, neither) with the probabilities
of those cases. A whole loss grid therefore costs one small product.

The beam splitter's amplitudes and the isometry rows that can give the
kept pattern are module constants; a channel adds two acceptance weights
and its misalignment, and its four elements form one validated stack.
"""

import math
import warnings

import numpy as np

from .gbound import Frozen, Record, real, unit_interval
from .pauli_core import PAULI_PRODUCTS

__all__ = [
    "ChannelParams",
    "BsmPovm",
    "YieldTable",
    "PSI_MINUS",
    "povm_components",
    "build_bsm_povm",
    "transmission_rates",
    "transmission_rates_grid",
    "reference_yields",
]

_ATOL = 1e-12

PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)

# channel indices: 0 = D1-early, 1 = D1-late, 2 = D2-early, 3 = D2-late.
# The amplitude of each sender's time bin t at each channel: D1 port t and
# D2 port 2 + t, with the beam splitter's sign on Bob's D2 port.
_AMP_A = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]) / math.sqrt(2.0)
_AMP_B = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]) / math.sqrt(2.0)

# the rows of the two-photon isometry from |t_A, t_B> (row-major) whose
# states can give the kept pattern: both photons in D1-early, one in each,
# both in D2-late
_KEPT_PAIRS = np.array([
    np.outer(math.sqrt(2.0) * _AMP_A[:, 0], _AMP_B[:, 0]).ravel(),
    (np.outer(_AMP_A[:, 0], _AMP_B[:, 3]) + np.outer(_AMP_A[:, 3], _AMP_B[:, 0])).ravel(),
    np.outer(math.sqrt(2.0) * _AMP_A[:, 3], _AMP_B[:, 3]).ravel(),
])


class ChannelParams(Record):
    """Detector and line parameters of the relay link."""

    __slots__ = ("eta_d", "p_d", "e_d", "loss_db", "p_za", "p_zb")

    def __init__(self, eta_d=0.145, p_d=6.02e-6, e_d=0.015, loss_db=0.0,
                 p_za=2.0 / 3.0, p_zb=2.0 / 3.0):
        self.eta_d = eta_d
        self.p_d = p_d
        self.e_d = e_d
        self.loss_db = loss_db
        self.p_za = p_za
        self.p_zb = p_zb
        for name in self.__slots__:
            real(getattr(self, name), name)
        for name in ("eta_d", "p_d", "e_d"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        if not 0.0 <= self.loss_db < math.inf:
            raise ValueError(f"loss_db must be finite and >= 0, got {self.loss_db!r}")
        for name in ("p_za", "p_zb"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v!r}")

    @property
    def eta_arm(self):
        return _arm_transmission(self.eta_d, self.loss_db)


def _arm_transmission(eta_d, loss_db):
    # per-arm survival probability: half of the loss budget, in Python
    # float math, so a grid and a single point give the same bits
    return eta_d * 10.0 ** (-loss_db / 20.0)


class BsmPovm(Frozen):
    """4x4 POVM element in the |00>,|01>,|10>,|11> basis (Alice first).

    m has shape (4, 4), or (k, 4, 4) for a stack of k elements; one
    symmetry check and one eigvalsh validate the whole stack.
    """

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.shape[-2:] != (4, 4) or m.ndim not in (2, 3) or not m.size:
            raise ValueError("expected a 4x4 matrix or a stack of them")
        if np.abs(m - np.swapaxes(m, -1, -2)).max() > _ATOL:
            raise ValueError("POVM element must be Hermitian")
        eig = np.linalg.eigvalsh(m)
        if eig.min() < -_ATOL or eig.max() > 1.0 + _ATOL:
            raise ValueError(f"POVM eigenvalues out of [0, 1]: {eig}")
        self.m = m


class YieldTable(Frozen):
    """Announcement probabilities per setting pair, SETTING_PAIRS order.

    y has shape (9,), or (n, 9) for a batch of grid points.
    """

    __slots__ = ("y",)

    def __init__(self, y):
        y = unit_interval(y, "yields")
        if y.shape[-1:] != (9,):
            raise ValueError("expected 9 yields")
        self.y = y


def povm_components(params):
    """The relay element of each photon-survival case, misalignment applied.

    Returns one BsmPovm stack of four elements, in the order both photons
    arrive, only Alice's, only Bob's, neither; eta_d and loss_db do not
    enter, the survival probabilities are applied by _arm_weights. The
    stack is validated on construction, and the weights sum to 1, so every
    M(eta_arm) is a convex combination of validated elements and lies in
    [0, 1] too.
    """
    p_d = params.p_d
    # the kept pattern clicks, and nothing else, with both of its channels
    # lit and the other two dark; a photon-free channel of it must dark-fire
    both_lit = (1.0 - p_d) ** 2
    one_dark = p_d * both_lit

    w2 = np.array([one_dark, both_lit, one_dark])
    m_both = _KEPT_PAIRS.T @ (w2[:, None] * _KEPT_PAIRS)

    w1 = np.array([one_dark, 0.0, 0.0, one_dark])
    m_alice = _AMP_A @ (w1[:, None] * _AMP_A.T)
    m_bob = _AMP_B @ (w1[:, None] * _AMP_B.T)

    p_vac = p_d * p_d * both_lit

    s = math.sqrt(params.e_d)
    c = math.sqrt(1.0 - params.e_d)
    rot = np.array([[c, -s], [s, c]])
    iu = np.kron(np.eye(2), rot)
    cases = (m_both, np.kron(m_alice, np.eye(2)), np.kron(np.eye(2), m_bob),
             p_vac * np.eye(4))
    return BsmPovm(np.array([iu.T @ m @ iu for m in cases]))


def _arm_weights(eta_arm):
    """Probabilities of the four survival cases of povm_components.

    eta_arm: per-arm transmission, a float or an (n,) array; the result
    has shape (4,) or (n, 4).
    """
    eta = np.asarray(eta_arm, dtype=float)
    return np.stack(
        [eta * eta, eta * (1.0 - eta), (1.0 - eta) * eta, (1.0 - eta) ** 2],
        axis=-1,
    )


def build_bsm_povm(params):
    """Assemble the 4x4 singlet-announcement POVM element for given params."""
    parts = povm_components(params).m
    return BsmPovm(np.tensordot(_arm_weights(params.eta_arm), parts, axes=1))


def transmission_rates(povm):
    """Pauli overlaps q_{l,l'} = Tr[M sigma_l x sigma_l']/4 in PAULI_PAIRS order.

    One (9,) row for the POVM element, or (k, 9) for a stack of k.
    """
    # Tr[M P] = sum_ij M_ij P_ij, as every Pauli product P is real symmetric.
    # One matrix-vector product per element: a single (k, 16) @ (16, 9)
    # product sums in another order and changes the last bits of q.
    q = np.array([PAULI_PRODUCTS.reshape(9, 16) @ m / 4.0 for m in povm.m.reshape(-1, 16)])
    return q.reshape(povm.m.shape[:-2] + (9,))


def transmission_rates_grid(params, losses_db):
    """Transmission rates of the relay at each loss in losses_db, shape (n, 9).

    params fixes everything but the loss. The rates are linear in M, so
    q(eta) = _arm_weights(eta) @ Q with Q the rates of the four
    povm_components: one (n, 4) @ (4, 9) product for a whole grid.
    """
    losses = np.asarray(losses_db, dtype=float)
    if not np.all((losses >= 0.0) & (losses < math.inf)):  # also refuses nan
        raise ValueError("losses must be finite and >= 0 dB")
    etas = [_arm_transmission(params.eta_d, loss) for loss in losses_db]
    return _arm_weights(etas) @ transmission_rates(povm_components(params))


def reference_yields(s_matrix, rates):
    """Yields of the reference setting pairs, Y = S q, clamped to [0, 1].

    A batch of rates (n, 9) gives a batch of yields (n, 9); a stack of
    m matrices S, shape (m, 9, 9), gives yields of shape (m, n, 9), and
    one warning for the whole stack if any yield is clamped.
    """
    raw = rates @ np.swapaxes(s_matrix, -1, -2)
    clamped = np.clip(raw, 0.0, 1.0)
    worst = np.abs(raw - clamped).max()
    if worst > 1e-9:
        warnings.warn(f"yield clamped by {worst:.3e}, exceeds 1e-9 dust")
    return YieldTable(clamped)

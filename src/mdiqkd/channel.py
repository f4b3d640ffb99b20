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
of those cases. A whole loss grid is therefore one four-term sum.

The four elements' rates are closed forms in a channel's acceptance
weights, with Bob's Pauli components rotated by the misalignment. Each
element's eigenvalues lie in [0, 1/2] for every p_d and e_d in [0, 1]:
the elements are module constants, checked by a test, not per table.
Every sum is elementwise, in a fixed order (_explicit_sum): no BLAS
kernel changes its bits.
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
    "build_bsm_povm",
    "transmission_rates",
    "transmission_rates_grid",
    "reference_yields",
]

_ATOL = 1e-12

PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)

# Rates q_P = Tr[M P]/4 of the four survival cases before misalignment,
# as coefficients of (one_dark, both_lit, p_vac): shape (4, 10, 3), P the
# nine Pauli pairs in pauli_core's order, then sigma_Y x sigma_Y, which the
# real X-Z states never see but the real symmetric elements M = sum_P q_P P
# hold. Both photons: both_lit |psi-><psi-|/2 and one_dark (|00><00| +
# |11><11|)/2; one photon: one_dark I/2; neither: p_vac I. Powers of two,
# so each rate is at most one addition from exact.
_RATE_COEFFICIENTS = np.zeros((4, 10, 3))
_RATE_COEFFICIENTS[0, 0] = (0.25, 0.125, 0.0)  # (I, I)
_RATE_COEFFICIENTS[0, 4] = (0.0, -0.125, 0.0)  # (X, X)
_RATE_COEFFICIENTS[0, 8] = (0.25, -0.125, 0.0)  # (Z, Z)
_RATE_COEFFICIENTS[0, 9] = (0.0, -0.125, 0.0)  # (Y, Y)
_RATE_COEFFICIENTS[1, 0] = _RATE_COEFFICIENTS[2, 0] = (0.5, 0.0, 0.0)
_RATE_COEFFICIENTS[3, 0] = (0.0, 0.0, 1.0)
# the P of the ten columns, sigma_Y x sigma_Y last, each flattened to 16 entries
_ELEMENT_BASIS = np.concatenate([PAULI_PRODUCTS, [[[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0],
                                                   [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]]
                                 ]).reshape(10, 16)


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


def _arm_transmission(eta_d, loss_db):
    # per-arm survival probability: half of the loss budget, in Python
    # float math, so a grid and a single point give the same bits
    return eta_d * 10.0 ** (-loss_db / 20.0)


class BsmPovm(Frozen):
    """4x4 POVM element in the |00>,|01>,|10>,|11> basis (Alice first).

    m: a real symmetric (4, 4) matrix whose eigenvalues lie in [-_ATOL,
    1 + _ATOL].
    """

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("expected a 4x4 matrix")
        if not np.isfinite(m).all():  # LAPACK does not converge on nan
            raise ValueError("POVM eigenvalues out of [0, 1]: the element is not finite")
        if np.abs(m - m.T).max() > _ATOL:
            raise ValueError("POVM element must be Hermitian")
        eig = np.linalg.eigvalsh(m)
        if not -_ATOL <= eig[0] <= eig[-1] <= 1.0 + _ATOL:
            raise ValueError(f"POVM eigenvalues out of [0, 1]: {eig[0]!r} to {eig[-1]!r}")
        self.m = m


class YieldTable(Frozen):
    """Announcement probabilities per setting pair, in pauli_core's setting-pair order.

    y has shape (9,), or (n, 9) for a batch of grid points.
    """

    __slots__ = ("y",)

    def __init__(self, y):
        y = unit_interval(y, "yields")
        if y.shape[-1:] != (9,):
            raise ValueError("expected 9 yields")
        self.y = y


def _explicit_sum(weights, terms):
    """sum_k weights[..., k, None] * terms[k], accumulated in place in k order."""
    total = weights[..., 0, None] * terms[0]
    product = np.empty_like(total)
    for k in range(1, len(terms)):
        total += np.multiply(weights[..., k, None], terms[k], out=product)
    return total


def _component_rates(params):
    """The rates of the four survival cases, (4, 10) as _RATE_COEFFICIENTS, misalignment applied.

    Unchecked: the elements' eigenvalues lie in [0, 1/2] whatever the
    channel, the rotation keeps them, and every M(eta_arm) is a convex
    combination of the elements.
    """
    p_d = params.p_d
    # the kept pattern clicks, and nothing else, with both of its channels
    # lit and the other two dark; a photon-free channel of it must dark-fire
    both_lit = (1.0 - p_d) * (1.0 - p_d)
    one_dark = p_d * both_lit
    p_vac = p_d * p_d * both_lit
    c = _RATE_COEFFICIENTS
    rates = c[..., 0] * one_dark + c[..., 1] * both_lit + c[..., 2] * p_vac
    # Bob's rotation by theta, sin^2(theta) = e_d: X -> cos 2theta X -
    # sin 2theta Z, Z -> cos 2theta Z + sin 2theta X; sigma_Y is kept
    cos2 = 1.0 - 2.0 * params.e_d
    sin2 = 2.0 * math.sqrt(params.e_d * (1.0 - params.e_d))
    x, z = rates[:, 1:9:3], rates[:, 2:9:3]  # Bob's X and Z parts, per Alice's axis
    rates[:, 1:9:3], rates[:, 2:9:3] = cos2 * x - sin2 * z, cos2 * z + sin2 * x
    return rates


def _arm_weights(eta_arm):
    """Probabilities of the four survival cases: both photons, only Alice's, only Bob's, neither.

    eta_arm: per-arm transmission, a float or an (n,) array; the result
    has shape (4,) or (4, n).
    """
    eta = np.asarray(eta_arm, dtype=float)
    return np.stack([eta * eta, eta * (1.0 - eta), (1.0 - eta) * eta, (1.0 - eta) ** 2])


def build_bsm_povm(params):
    """Assemble the 4x4 singlet-announcement POVM element for given params."""
    eta_arm = _arm_transmission(params.eta_d, params.loss_db)
    rates = _explicit_sum(_arm_weights(eta_arm), _component_rates(params))
    return BsmPovm(_explicit_sum(rates, _ELEMENT_BASIS).reshape(4, 4))


def transmission_rates(povm):
    """The (9,) Pauli overlaps q_{l,l'} = Tr[M sigma_l x sigma_l']/4, in pauli_core's order."""
    # Tr[M P] = sum_ij M_ij P_ij, as every Pauli product P is real symmetric
    return _explicit_sum(povm.m.reshape(16), PAULI_PRODUCTS.reshape(9, 16).T) / 4.0


def transmission_rates_grid(params, losses_db):
    """Transmission rates of the relay at each loss in losses_db, shape (n, 9).

    params fixes everything but the loss. The rates are linear in M, so
    q(eta) = sum_c _arm_weights(eta)_c Q_c with Q the _component_rates:
    one four-term sum for a whole grid, with the points innermost (the
    result is the transpose of a (9, n) array, as reference_yields reads it).
    """
    losses = np.asarray(losses_db, dtype=float)
    if not np.all((losses >= 0.0) & (losses < math.inf)):  # also refuses nan
        raise ValueError("losses must be finite and >= 0 dB")
    etas = [_arm_transmission(params.eta_d, loss) for loss in losses_db]
    return _explicit_sum(_component_rates(params)[:, :9].T, _arm_weights(etas)).T


def reference_yields(s_matrix, rates):
    """Yields of the reference setting pairs, Y = S q, clamped to [0, 1].

    A batch of rates (n, 9) gives a batch of yields (n, 9); a stack of
    m matrices S, shape (m, 9, 9), gives yields of shape (m, n, 9), and
    one warning for the whole stack if any yield is clamped.
    """
    s_matrix, rates = np.asarray(s_matrix, dtype=float), np.asarray(rates, dtype=float)
    if s_matrix.shape[-2:] != (9, 9) or rates.shape[-1:] != (9,):
        raise ValueError("expected 9x9 S and 9 rates per row")
    # the sum over j with the points innermost, as rows of q^T
    raw = np.swapaxes(_explicit_sum(s_matrix, np.ascontiguousarray(rates.reshape(-1, 9).T)),
                      -1, -2).reshape(s_matrix.shape[:-2] + rates.shape[:-1] + (9,))
    # the largest clamp, max |raw - clip(raw)|, read without a clipped copy
    worst = max(raw.max() - 1.0, -raw.min(), 0.0)
    if worst > 1e-9:
        warnings.warn(f"yield clamped by {worst:.3e}, exceeds 1e-9 dust")
    return YieldTable(np.clip(raw, 0.0, 1.0, out=raw))

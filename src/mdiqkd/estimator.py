"""Phase-error estimation chain and the secret-key rate.

The pipeline receives observed (or simulated) yields for the nine setting
pairs plus a per-pair side-channel budget eps, and produces:

1. omega_ref, the singlet-error weight of the X-outcome virtual ensemble
   evaluated on reference states, via the matrix identity
   Omega_ref = f_obj . Y with f_obj = P_vir S_vir S^-1;
2. an upper bound omega_ref_upper that replaces each yield by its
   deviation bound, since the actually emitted states only promise
   fidelity sqrt(1 - eps) to the reference states;
3. omega_upper, lifting the reference-ensemble bound to the actual
   virtual ensemble through the same deviation machinery;
4. the error rates e_ZZ (announced-bit errors) and e_XX (virtual X-basis
   errors), and the key rate R = Y_ZZ [1 - h(e_XX) - f_EC h(e_ZZ)].

Normalization conventions. Yield tables hold probabilities conditioned
on the setting pair. The virtual picture draws each Z bit pair with
probability 1/4, so the phase-error denominator zeta_obs is the joint
quantity (1/4) * sum of the four ZZ yields, and Y_ZZ := zeta_obs up to
the optional sifting prefactor. A certified error rate at or beyond 1/2
carries no key; the entropy arguments are capped at 1/2, which can only
lower R.

Batches. Every step also runs over a batch of grid points: a YieldTable
and SideChannelParams with a leading axis of n points give an
EstimationResult whose fields are arrays of n values, computed by the
same code that gives Python floats for a single point. f_obj is shared
by all points, or given per point as an (n, 9) array, so one batch can
mix reference sets. build_estimation_stack builds the tomography
matrices of many reference sets as one stack; a sweep calls it once per
table and evaluates the table in as few estimate calls as its batch
size allows, one for a table of up to 1820 rows.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .gbound import g_lower, g_upper, plain, unit_interval
from .pauli_core import ZZ_PAIR_INDICES, VirtualEnsemble, amplitudes, s_matrix_stack, virtual_stack

__all__ = [
    "EstimationError",
    "IllConditionedError",
    "NoSignalError",
    "SideChannelParams",
    "EstimationInputs",
    "EstimationResult",
    "build_estimation_stack",
    "build_estimation_inputs",
    "omega_ref_matrix",
    "omega_ref_upper",
    "delta_vir_lower",
    "omega_upper",
    "bit_error_rate",
    "phase_error_rate",
    "key_rate",
    "binary_entropy",
    "estimate",
]

DEFAULT_COND_CEILING = 1e8
# a zeta_obs below the smallest normal float holds too few bits to divide
# by: a subnormal is a whole multiple of 2^-1074. Both NoSignalError
# checks call such a row silent.
_SILENT_BELOW = np.finfo(float).tiny


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


class NoSignalError(EstimationError):
    """All relevant yields vanish; error rates are undefined.

    rows is the boolean mask of the batch rows without signal (0-d for a
    single point), so that a batch caller can set exactly those rows
    aside and evaluate the rest.
    """

    def __init__(self, message, rows):
        self.rows = rows
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class SideChannelParams:
    """Fidelity budget eps per setting pair, SETTING_PAIRS order.

    eps has shape (9,), or (n, 9) for a batch of grid points.
    """

    eps: np.ndarray

    def __post_init__(self):
        eps = unit_interval(self.eps, "side-channel weights")
        if eps.shape[-1:] != (9,):
            raise ValueError("expected 9 side-channel entries")
        object.__setattr__(self, "eps", eps)

    @classmethod
    def uniform(cls, value):
        """The same eps for all nine pairs; an (n,) array gives a batch."""
        value = np.asarray(value, dtype=float)
        return cls(np.repeat(value[..., None], 9, axis=-1))

    def anchors(self):
        # fidelity anchors delta^L = sqrt(1 - eps) per setting pair
        return np.sqrt(1.0 - self.eps)


@dataclass(frozen=True, slots=True)
class EstimationInputs:
    """Everything the bound of the estimation chain consumes.

    estimate reads yields, eps and f_obj; f_obj has shape (9,), or (n, 9)
    with one row per yield row. The other fields are the reference-set
    quantities f_obj = P_vir S_vir S^-1 came from, None for a batch that
    mixes reference sets. yields and eps may be None while the
    reference-set part is reused across a grid; dataclasses.replace
    attaches them before estimate.
    """

    yields: object
    eps: SideChannelParams
    f_obj: np.ndarray
    p_vir_ensemble: object = None
    s_matrix: np.ndarray = None
    s_matrix_inverse: np.ndarray = None
    cond_s: float = None


@dataclass(frozen=True, slots=True)
class EstimationResult:
    """Floats for one point; arrays of n values for a batch of n points."""

    omega_ref: float
    omega_ref_upper: float
    delta_vir_lower: float
    omega_upper: float
    zeta_obs: float
    e_zz: float
    e_xx: float
    key_rate: float

    def __post_init__(self):
        # negated tests, so that a nan fails them too
        if not np.all(self.omega_ref <= self.omega_ref_upper + 1e-12):
            raise ValueError("omega_ref exceeds its upper bound")
        if not np.all(self.key_rate >= 0.0):
            raise ValueError("key rate must be floored at 0")


def build_estimation_stack(refs_a, refs_b, cond_ceiling=DEFAULT_COND_CEILING):
    """The tomography matrices and f_obj of n reference sets at once.

    refs_a, refs_b: n reference sets per side, each the three reference
    states in SETTINGS order. Returns (inputs, errors). inputs is an
    EstimationInputs without yields and eps whose fields carry a leading
    axis of n: f_obj (n, 9), s_matrix and s_matrix_inverse (n, 9, 9),
    cond_s (n,) and the virtual ensemble. errors holds per set None, or
    the error build_estimation_inputs raises for it: IllConditionedError
    when cond(S) exceeds the ceiling (the linear inversion amplifies
    yield noise by that factor), else a DegenerateInputError. Only the
    accepted sets are inverted; a refused set's inverse and f_obj are nan.
    """
    amps_a, amps_b = amplitudes(refs_a), amplitudes(refs_b)
    s_matrix = s_matrix_stack(amps_a, amps_b)
    cond = np.linalg.cond(s_matrix)
    inverted = np.isfinite(cond) & (cond <= cond_ceiling)
    s_inv = np.full_like(s_matrix, np.nan)
    if inverted.any():
        s_inv[inverted] = np.linalg.inv(s_matrix[inverted])
    ensemble, errors = virtual_stack(amps_a[:, :2], amps_b[:, :2])
    errors = [err if ok else IllConditionedError(c, cond_ceiling)
              for err, ok, c in zip(errors, inverted.tolist(), cond.tolist())]
    # stacked matmul gives the bits of p_vir @ s_vir @ s_inv for one set
    f_obj = (ensemble.p_vir[:, None, :] @ ensemble.s_vir @ s_inv)[:, 0]
    return EstimationInputs(None, None, f_obj, ensemble, s_matrix, s_inv, cond), errors


def build_estimation_inputs(ref_a, ref_b, yields=None, eps=None,
                            cond_ceiling=DEFAULT_COND_CEILING):
    """Assemble the tomography matrices and f_obj for one reference set.

    ref_a, ref_b: the three reference states per side in SETTINGS order.
    The one-set case of build_estimation_stack; raises its error.
    """
    stack, errors = build_estimation_stack([ref_a], [ref_b], cond_ceiling)
    if errors[0] is not None:
        raise errors[0]
    ensemble = stack.p_vir_ensemble
    return EstimationInputs(
        yields, eps, stack.f_obj[0], VirtualEnsemble(ensemble.p_vir[0], ensemble.s_vir[0]),
        stack.s_matrix[0], stack.s_matrix_inverse[0], float(stack.cond_s[0]),
    )


def omega_ref_matrix(inputs):
    """Singlet-error weight via the tomography identity f_obj . Y, row by row."""
    return plain(np.einsum("...i,...i->...", inputs.yields.y, inputs.f_obj))


def omega_ref_upper(f_obj, yields, eps):
    """Worst-case omega_ref once each yield is only known up to fidelity.

    Positive coefficients take the upper deviation bound, negative ones
    the lower bound, with anchors delta^L = sqrt(1 - eps) per pair; a zero
    coefficient adds nothing. Floored at 0.
    """
    anchors = eps.anchors()
    bounds = np.where(f_obj > 0.0, g_upper(yields.y, anchors), g_lower(yields.y, anchors))
    return plain(np.maximum((f_obj * bounds).sum(axis=-1), 0.0))


def delta_vir_lower(eps):
    """Fidelity floor of the virtual source state: (1/4) sum sqrt(1 - eps_ZZ)."""
    return plain(0.25 * eps.anchors()[..., list(ZZ_PAIR_INDICES)].sum(axis=-1))


def omega_upper(omega_ref_up, delta_vir_low):
    """Lift the reference-ensemble bound to the actual virtual ensemble."""
    delta_vir_low = unit_interval(delta_vir_low, "delta_vir_lower")
    omega_ref_up = np.asarray(omega_ref_up, dtype=float)
    if not np.all(omega_ref_up >= 0.0):
        raise ValueError("omega_ref_upper must be >= 0")
    if np.any(omega_ref_up > 1.0):
        worst = float(omega_ref_up.max())
        warnings.warn(f"omega_ref_upper = {worst!r} clamped to 1")
        omega_ref_up = np.minimum(omega_ref_up, 1.0)
    return g_upper(omega_ref_up, delta_vir_low)


def bit_error_rate(zz_yields):
    """Share of equal-bit announcements among the four ZZ setting pairs.

    Equal bits are errors: the kept announcement anti-correlates the raw
    bits, and Bob flips his afterwards.
    """
    zz = np.asarray(zz_yields, dtype=float)
    if zz.shape[-1:] != (4,) or not np.all(zz >= 0.0):
        raise ValueError("expected 4 nonnegative ZZ yields")
    denom = zz.sum(axis=-1)
    silent = 0.25 * denom < _SILENT_BELOW  # zeta_obs, as estimate computes it
    if np.any(silent):
        raise NoSignalError("all ZZ yields vanish", silent)
    # order follows SETTING_PAIRS restricted to ZZ: (00, 01, 10, 11)
    return plain((zz[..., 0] + zz[..., 3]) / denom)


def phase_error_rate(omega_up, zeta_obs):
    """Virtual X-basis error rate Omega^U / zeta_obs, capped at 1.

    A zeta_obs below the smallest normal float counts as no signal.
    """
    omega_up = np.asarray(omega_up, dtype=float)
    zeta_obs = np.asarray(zeta_obs, dtype=float)
    if not np.all(omega_up >= 0.0):
        raise ValueError("omega_up must be >= 0")
    silent = zeta_obs < _SILENT_BELOW
    if np.any(silent):
        raise NoSignalError("zeta_obs must be positive and normal", silent)
    # capping the numerator gives the bits of capping the ratio, which
    # can overflow for a small zeta_obs
    return plain(np.minimum(omega_up, zeta_obs) / zeta_obs)


def binary_entropy(p):
    """Shannon entropy of a bit, with h(0) = h(1) = 0 by continuity."""
    p = unit_interval(p, "binary_entropy argument")
    inner = (p > 0.0) & (p < 1.0)
    q = np.where(inner, p, 0.5)  # keeps log2 away from 0 at the endpoints
    return plain(np.where(inner, -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q), 0.0))


def key_rate(y_zz, e_zz, e_xx, f_ec):
    """Distillable-key lower bound Y_ZZ [1 - h(e_XX) - f_EC h(e_ZZ)], floored at 0.

    Error rates certified at or beyond 1/2 yield nothing; the entropy
    arguments are capped there, which can only lower the bound.
    """
    e_zz, e_xx = unit_interval(e_zz, "e_zz"), unit_interval(e_xx, "e_xx")
    if not np.all(np.asarray(y_zz) >= 0.0):
        raise ValueError("y_zz must be >= 0")
    if not f_ec >= 1.0:
        raise ValueError("f_ec must be >= 1")
    bracket = (
        1.0
        - binary_entropy(np.minimum(e_xx, 0.5))
        - f_ec * binary_entropy(np.minimum(e_zz, 0.5))
    )
    return plain(y_zz * np.maximum(bracket, 0.0))


def estimate(inputs, f_ec=1.16, sifting_prefactor=None):
    """Run the full chain on assembled inputs and return an EstimationResult.

    sifting_prefactor: optional p_ZA * p_ZB factor on Y_ZZ; excluded by
    default since the key-rate bound is stated per ZZ-tagged pair.
    """
    omega_ref = omega_ref_matrix(inputs)
    om_ref_up = omega_ref_upper(inputs.f_obj, inputs.yields, inputs.eps)
    dv_low = delta_vir_lower(inputs.eps)
    om_up = omega_upper(om_ref_up, dv_low)

    zz = inputs.yields.y[..., list(ZZ_PAIR_INDICES)]
    e_zz = bit_error_rate(zz)
    zeta_obs = plain(0.25 * zz.sum(axis=-1))  # joint over the uniform bit pairs
    e_xx = phase_error_rate(om_up, zeta_obs)

    y_zz = zeta_obs if sifting_prefactor is None else zeta_obs * sifting_prefactor
    rate = key_rate(y_zz, e_zz, e_xx, f_ec)
    return EstimationResult(
        omega_ref=omega_ref,
        omega_ref_upper=om_ref_up,
        delta_vir_lower=dv_low,
        omega_upper=om_up,
        zeta_obs=zeta_obs,
        e_zz=e_zz,
        e_xx=e_xx,
        key_rate=rate,
    )

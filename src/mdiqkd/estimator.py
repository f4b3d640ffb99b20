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
table.

Checks. estimate is the chain's one public entry, and its result holds
every intermediate value above. Each formula lives once, in an unchecked
private helper. estimate checks its inputs once and runs _estimate_core,
the chain on arrays, which takes the deviation bound of each yield once,
on the branch the sign of its f_obj coefficient selects (that sign is
fixed per reference set). A sweep calls the core directly, once per
batch, on inputs its table checked when it was built; the core reports
the rows without signal as a mask instead of raising.
"""

import warnings

import numpy as np

from .channel import YieldTable
from .gbound import Frozen, _bound, plain, unit_interval
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
    "estimate",
]

DEFAULT_COND_CEILING = 1e8
# a zeta_obs below the smallest normal float holds too few bits to divide
# by: a subnormal is a whole multiple of 2^-1074. Such a row is silent.
_SILENT_BELOW = np.finfo(float).tiny
# the message of a row without signal, from estimate and from a sweep
NO_SIGNAL = "all ZZ yields vanish"
_ZZ = np.array(ZZ_PAIR_INDICES)  # an index array gathers faster than a list


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


class SideChannelParams(Frozen):
    """Fidelity budget eps per setting pair, SETTING_PAIRS order.

    eps has shape (9,), or (n, 9) for a batch of grid points.
    """

    __slots__ = ("eps",)

    def __init__(self, eps):
        eps = unit_interval(eps, "side-channel weights")
        if eps.shape[-1:] != (9,):
            raise ValueError("expected 9 side-channel entries")
        self.eps = eps

    @classmethod
    def uniform(cls, value):
        """The same eps for all nine pairs; an (n,) array gives a batch."""
        value = np.asarray(value, dtype=float)
        return cls(np.repeat(value[..., None], 9, axis=-1))

    def anchors(self):
        """Fidelity anchors delta^L = sqrt(1 - eps) per setting pair."""
        return np.sqrt(1.0 - self.eps)


class EstimationInputs(Frozen):
    """Everything the bound of the estimation chain consumes.

    estimate reads yields (a YieldTable), eps (a SideChannelParams) and
    f_obj; f_obj has shape (9,), or (n, 9) with one row per yield row.
    The other fields are the reference-set quantities f_obj = P_vir
    S_vir S^-1 came from, None for a batch that mixes reference sets.
    yields and eps may be None while the reference-set part is reused
    across a grid; a new EstimationInputs with the same reference-set
    fields attaches them before estimate.
    """

    __slots__ = ("yields", "eps", "f_obj", "p_vir_ensemble", "s_matrix",
                 "s_matrix_inverse", "cond_s")

    def __init__(self, yields, eps, f_obj, p_vir_ensemble=None, s_matrix=None,
                 s_matrix_inverse=None, cond_s=None):
        self.yields = yields
        self.eps = eps
        self.f_obj = f_obj
        self.p_vir_ensemble = p_vir_ensemble
        self.s_matrix = s_matrix
        self.s_matrix_inverse = s_matrix_inverse
        self.cond_s = cond_s


class EstimationResult(Frozen):
    """Floats for one point; arrays of n values for a batch of n points."""

    __slots__ = ("omega_ref", "omega_ref_upper", "delta_vir_lower", "omega_upper",
                 "zeta_obs", "e_zz", "e_xx", "key_rate")

    def __init__(self, omega_ref, omega_ref_upper, delta_vir_lower, omega_upper,
                 zeta_obs, e_zz, e_xx, key_rate):
        # negated tests, so that a nan fails them too
        if not np.all(omega_ref <= omega_ref_upper + 1e-12):
            raise ValueError("omega_ref exceeds its upper bound")
        if not np.all(key_rate >= 0.0):
            raise ValueError("key rate must be floored at 0")
        self.omega_ref = omega_ref
        self.omega_ref_upper = omega_ref_upper
        self.delta_vir_lower = delta_vir_lower
        self.omega_upper = omega_upper
        self.zeta_obs = zeta_obs
        self.e_zz = e_zz
        self.e_xx = e_xx
        self.key_rate = key_rate


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


# The chain's formulas, each once and unchecked: the core runs them on
# inputs that estimate, or a sweep's table, checked.

def _omega_ref_upper(y, roots, f_obj, upper):
    """omega_ref with each yield at the deviation bound upper selects, floored at 0."""
    return np.maximum((f_obj * _bound(y, roots, upper)).sum(axis=-1), 0.0)


def _delta_vir_lower(roots):
    """Fidelity floor of the virtual source state: (1/4) sum sqrt(1 - eps_ZZ)."""
    return 0.25 * roots[..., _ZZ].sum(axis=-1)


def _lift(omega_ref_up, delta_vir_low):
    """omega_upper; an omega_ref_up above 1 is clamped to 1, with a warning."""
    if np.any(omega_ref_up > 1.0):
        worst = float(omega_ref_up.max())
        warnings.warn(f"omega_ref_upper = {worst!r} clamped to 1")
        omega_ref_up = np.minimum(omega_ref_up, 1.0)
    return _bound(omega_ref_up, delta_vir_low, True)


def _zz_rates(zz):
    """(e_zz, zeta_obs, silent) of the ZZ yields; a silent row's e_zz is no number."""
    # equal announced bits are errors: the kept announcement anti-correlates
    # the raw bits, and Bob flips his afterwards
    denom = zz.sum(axis=-1)
    zeta_obs = 0.25 * denom  # joint over the uniform bit pairs
    # order follows SETTING_PAIRS restricted to ZZ: (00, 01, 10, 11)
    return (zz[..., 0] + zz[..., 3]) / denom, zeta_obs, zeta_obs < _SILENT_BELOW


def _phase_error_rate(omega_up, zeta_obs):
    """Virtual X-basis error rate Omega^U / zeta_obs, capped at 1."""
    # capping the numerator gives the bits of capping the ratio, which
    # can overflow for a small zeta_obs
    return np.minimum(omega_up, zeta_obs) / zeta_obs


def _binary_entropy(p):
    """Shannon entropy of a bit, with h(0) = h(1) = 0 by continuity."""
    inner = (p > 0.0) & (p < 1.0)
    q = np.where(inner, p, 0.5)  # keeps log2 away from 0 at the endpoints
    return np.where(inner, -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q), 0.0)


def _key_rate(y_zz, e_zz, e_xx, f_ec):
    """Y_ZZ [1 - h(e_XX) - f_EC h(e_ZZ)], floored at 0."""
    # a rate at or beyond 1/2 certifies nothing: capping the entropy
    # arguments there can only lower the bound
    h_xx = _binary_entropy(np.minimum(e_xx, 0.5))
    h_zz = _binary_entropy(np.minimum(e_zz, 0.5))
    return y_zz * np.maximum(1.0 - h_xx - f_ec * h_zz, 0.0)


def _estimate_core(y, roots, f_obj, upper, f_ec, sifting_prefactor):
    """The chain of estimate on arrays, without a check of its own.

    y: yields (..., 9); roots: sqrt(1 - eps) per pair, of y's shape;
    f_obj (..., 9) and upper = f_obj > 0, the coefficients that take the
    upper deviation bound, both fixed per reference set. Contiguous
    arrays run fastest: numpy loops over a broadcast view row by row.
    The caller has checked that yields and eps lie in [0, 1], f_obj is
    finite, f_ec >= 1 and sifting_prefactor (None: no sifting) >= 0.
    Returns the columns (key_rate, e_zz, e_xx, omega_ref_upper,
    omega_upper, zeta_obs) and the mask of the rows without signal, whose
    columns hold no number to read. Warns when omega_ref_upper exceeds 1.
    """
    omega_ref_up = _omega_ref_upper(y, roots, f_obj, upper)
    omega_up = _lift(omega_ref_up, _delta_vir_lower(roots))
    with np.errstate(divide="ignore", invalid="ignore"):
        e_zz, zeta_obs, silent = _zz_rates(y[..., _ZZ])
        e_xx = _phase_error_rate(omega_up, zeta_obs)
    y_zz = zeta_obs if sifting_prefactor is None else zeta_obs * sifting_prefactor
    rate = _key_rate(y_zz, e_zz, e_xx, f_ec)
    return (rate, e_zz, e_xx, omega_ref_up, omega_up, zeta_obs), silent


def estimate(inputs, f_ec=1.16, sifting_prefactor=None):
    """Run the full chain on assembled inputs and return an EstimationResult.

    sifting_prefactor: optional p_ZA * p_ZB factor on Y_ZZ; excluded by
    default since the key-rate bound is stated per ZZ-tagged pair.
    Raises NoSignalError naming the rows without signal.
    """
    # yields and eps checked their values when they were built
    for name, kind in (("yields", YieldTable), ("eps", SideChannelParams)):
        if not isinstance(getattr(inputs, name), kind):
            raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(inputs, name)!r}")
    f_obj = np.asarray(inputs.f_obj, dtype=float)
    if not np.all(np.isfinite(f_obj)):
        raise ValueError("f_obj must be finite")
    shape = inputs.yields.y.shape  # eps and f_obj are shared, or given per yield row
    for name, value in (("eps", inputs.eps.eps), ("f_obj", f_obj)):
        if value.shape not in ((9,), shape):
            raise ValueError(f"{name} must have shape (9,) or {shape}, got {value.shape}")
    if not f_ec >= 1.0:
        raise ValueError("f_ec must be >= 1")
    if not (sifting_prefactor is None or sifting_prefactor >= 0.0):
        raise ValueError("sifting_prefactor must be >= 0")
    roots = inputs.eps.anchors()
    columns, silent = _estimate_core(inputs.yields.y, roots, f_obj, f_obj > 0.0, f_ec,
                                     sifting_prefactor)
    if np.any(silent):
        raise NoSignalError(NO_SIGNAL, silent)
    rate, e_zz, e_xx, om_ref_up, om_up, zeta_obs = map(plain, columns)
    return EstimationResult(
        omega_ref=omega_ref_matrix(inputs),
        omega_ref_upper=om_ref_up,
        delta_vir_lower=plain(_delta_vir_lower(roots)),
        omega_upper=om_up,
        zeta_obs=zeta_obs,
        e_zz=e_zz,
        e_xx=e_xx,
        key_rate=rate,
    )

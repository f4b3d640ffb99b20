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
mix reference sets. f_obj and the refusals of a reference set come from
pauli_core's setup.

Checks. estimate is the chain's one public entry, and its result holds
every intermediate value above. Each formula lives once, in an unchecked
private helper. estimate checks its inputs once and runs _estimate_core,
the chain on arrays, which takes the deviation bound of each yield once,
on the branch the sign of its f_obj coefficient selects (that sign is
fixed per reference set). A sweep calls the core directly, once per
block of its grid, on inputs its table checked when it was built: the
yields (deltas, points, 9), f_obj (deltas, 1, 9) and eps (curves, 1,
points, 9) broadcast, so e_zz and zeta_obs run once per (delta, point);
the core reports the rows without signal as a mask instead of raising.
"""

import warnings

import numpy as np

from .channel import YieldTable
from .gbound import Frozen, _bound, plain, unit_interval
from .pauli_core import ZZ_PAIR_INDICES, EstimationError, build_estimation_stack

__all__ = [
    "NoSignalError",
    "SideChannelParams",
    "EstimationInputs",
    "EstimationResult",
    "build_estimation_inputs",
    "omega_ref_matrix",
    "estimate",
]

# a zeta_obs below the smallest normal float holds too few bits to divide
# by: a subnormal is a whole multiple of 2^-1074. Such a row is silent.
_SILENT_BELOW = np.finfo(float).tiny
# the message of a row without signal, from estimate and from a sweep
NO_SIGNAL = "all ZZ yields vanish"
_ZZ = np.array(ZZ_PAIR_INDICES)  # an index array gathers faster than a list


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
    """Fidelity budget eps per setting pair, in pauli_core's setting-pair order.

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


class EstimationInputs(Frozen):
    """Everything the estimation chain reads: yields, eps and f_obj.

    yields is a YieldTable, eps a SideChannelParams and f_obj = P_vir
    S_vir S^-1 of the reference states, of shape (9,), or (n, 9) with one
    row per yield row. For one reference set, build_S_matrix gives S,
    np.linalg.cond of it cond(S), and build_virtual the virtual ensemble
    (p_vir, s_vir).
    """

    __slots__ = ("yields", "eps", "f_obj")

    def __init__(self, yields, eps, f_obj):
        self.yields = yields
        self.eps = eps
        self.f_obj = f_obj


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


def build_estimation_inputs(ref_a, ref_b, yields, eps):
    """The EstimationInputs of yields and eps on one reference set.

    ref_a, ref_b: the amplitudes of the three reference states per side
    in SETTINGS order. f_obj is the one-set case of
    pauli_core.build_estimation_stack under the default ceiling; raises
    its error.
    """
    *_, f_obj, errors = build_estimation_stack([ref_a], [ref_b])
    if errors[0] is not None:
        raise errors[0]
    return EstimationInputs(yields, eps, f_obj[0])


def omega_ref_matrix(inputs):
    """Singlet-error weight via the tomography identity f_obj . Y, row by row."""
    return plain(np.einsum("...i,...i->...", inputs.yields.y, inputs.f_obj))


# The chain's formulas, each once and unchecked: the core runs them on
# inputs that estimate, or a sweep's table, checked.

def _anchors(eps):
    """Fidelity anchors delta^L = sqrt(1 - eps) per setting pair."""
    return np.sqrt(1.0 - eps)


def _omega_ref_upper(y, roots, f_obj):
    """omega_ref, each yield at the bound the sign of its coefficient selects, floored at 0."""
    t = f_obj * _bound(y, roots, f_obj > 0.0)
    # the nine terms in a fixed order (numpy's pairwise one for a row of
    # nine), so that no reduction's internals decide the bits
    total = (((t[..., 0] + t[..., 1]) + (t[..., 2] + t[..., 3]))
             + ((t[..., 4] + t[..., 5]) + (t[..., 6] + t[..., 7])) + t[..., 8])
    return np.maximum(total, 0.0)


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
    # the setting-pair order restricted to ZZ: (00, 01, 10, 11)
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


def _estimate_core(y, eps, f_obj, f_ec, sifting_prefactor):
    """The chain of estimate on arrays, without a check of its own.

    y: yields (..., 9); eps: the side-channel budget per pair and f_obj
    (..., 9), fixed per reference set, whose signs select each yield's
    deviation bound, both broadcastable against y. Each column has the
    broadcast shape of the inputs it reads: e_zz, zeta_obs and the mask
    follow y's, the rest all three.
    The caller has checked that yields and eps lie in [0, 1], f_obj is
    finite, f_ec >= 1 and sifting_prefactor (None: no sifting) >= 0.
    Returns the columns (key_rate, e_zz, e_xx, omega_ref_upper,
    omega_upper, zeta_obs) and the mask of the rows without signal, whose
    columns hold no number to read. Warns when omega_ref_upper exceeds 1.
    """
    roots = _anchors(eps)
    omega_ref_up = _omega_ref_upper(y, roots, f_obj)
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
    eps = inputs.eps.eps
    shape = inputs.yields.y.shape  # eps and f_obj are shared, or given per yield row
    for name, value in (("eps", eps), ("f_obj", f_obj)):
        if value.shape not in ((9,), shape):
            raise ValueError(f"{name} must have shape (9,) or {shape}, got {value.shape}")
    if not f_ec >= 1.0:
        raise ValueError("f_ec must be >= 1")
    if not (sifting_prefactor is None or sifting_prefactor >= 0.0):
        raise ValueError("sifting_prefactor must be >= 0")
    columns, silent = _estimate_core(inputs.yields.y, eps, f_obj, f_ec, sifting_prefactor)
    if np.any(silent):
        raise NoSignalError(NO_SIGNAL, silent)
    rate, e_zz, e_xx, om_ref_up, om_up, zeta_obs = map(plain, columns)
    return EstimationResult(
        omega_ref=omega_ref_matrix(inputs),
        omega_ref_upper=om_ref_up,
        delta_vir_lower=plain(_delta_vir_lower(_anchors(eps))),
        omega_upper=om_up,
        zeta_obs=zeta_obs,
        e_zz=e_zz,
        e_xx=e_xx,
        key_rate=rate,
    )

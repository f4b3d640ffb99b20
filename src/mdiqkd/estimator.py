"""Phase-error estimation chain and the secret-key rate.

The pipeline receives observed (or simulated) yields for the nine setting
pairs plus a per-pair side-channel budget eps, and produces:

1. omega_ref, the singlet-error weight of the X-outcome virtual ensemble
   on reference states, by the identity Omega_ref = f_obj . Y with f_obj
   = P_vir S_vir S^-1;
2. an upper bound omega_ref_upper that replaces each yield by its
   deviation bound, since the emitted states only promise fidelity
   sqrt(1 - eps) to the reference states;
3. omega_upper, lifting that bound to the actual virtual ensemble through
   the same deviation machinery;
4. the error rates e_ZZ (announced-bit errors) and e_XX (virtual X-basis
   errors), and the key rate R = Y_ZZ [1 - h(e_XX) - f_EC h(e_ZZ)].

Normalization conventions. Yields are probabilities conditioned on the
setting pair. The virtual picture draws each Z bit pair with probability
1/4, so the phase-error denominator zeta_obs is (1/4) * the sum of the
four ZZ yields, and Y_ZZ := zeta_obs up to the optional sifting
prefactor. An error rate at or beyond 1/2 carries no key; capping the
entropy arguments at 1/2 can only lower R.

Batches. A YieldTable and SideChannelParams with a leading axis of n
points give an EstimationResult of arrays of n values, by the code that
gives floats for one point; f_obj is shared, or given per point as (n,
9), so one batch can mix reference sets of pauli_core's setup.

Checks and stages. estimate is the chain's one public entry: it checks
its inputs once and runs _estimate_core, the chain on arrays, which takes
each yield's deviation bound on the branch the sign of its f_obj
coefficient selects, and whose omega_ref is the first stage's f_obj . Y,
the sum the bounds are built on. A sweep, whose table checked its
inputs, runs the chain in two stages: _point_terms once per (delta,
point), without eps, then _row_columns once per row, whose one eps
factors the deviation sum; a row where a pair saturates its bound takes
the per-pair form. Each formula lives once, in an unchecked private
helper, and a row without signal is marked by its zeta_obs instead of
raising.
"""

import warnings

import numpy as np

from .channel import YieldTable
from .gbound import Frozen, _bound, plain, real, unit_interval
from .pauli_core import ZZ_PAIR_INDICES, EstimationError, build_estimation_stack

__all__ = [
    "NoSignalError",
    "SideChannelParams",
    "EstimationInputs",
    "EstimationResult",
    "build_estimation_inputs",
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
    row per yield row (pauli_core.build_estimation_stack).
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
        for name, value in zip(self.__slots__, (omega_ref, omega_ref_upper, delta_vir_lower,
                                                omega_upper, zeta_obs, e_zz, e_xx, key_rate)):
            setattr(self, name, value)


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


def _anchors(eps):
    """Fidelity anchors delta^L = sqrt(1 - eps) per setting pair."""
    return np.sqrt(1.0 - eps)


def _nine_sum(terms):
    """The sum of nine terms in a written order, numpy's pairwise one, that no reduction changes.

    The terms are drawn one at a time, as the sum needs them, from an
    iterable: a generator builds each only when it is added.
    """
    t = iter(terms).__next__  # operands evaluate left to right: t() draws in written order
    return (((t() + t()) + (t() + t())) + ((t() + t()) + (t() + t()))) + t()


def _omega_ref_upper(y, roots, f_obj):
    """omega_ref, each yield at the bound the sign of its coefficient selects, floored at 0.

    y, roots and f_obj: iterables of the nine pairs' columns, which
    broadcast against each other; each pair's term is built when the sum
    needs it.
    """
    terms = (f * _bound(v, r, f > 0.0) for v, r, f in zip(y, roots, f_obj))
    return np.maximum(_nine_sum(terms), 0.0)


def _delta_vir_lower(roots):
    """Fidelity floor of the virtual source state: (1/4) sum sqrt(1 - eps_ZZ)."""
    return 0.25 * roots[..., _ZZ].sum(axis=-1)


def _lift(omega_ref_up, delta_vir_low):
    """omega_upper, of omega_ref_up clamped to 1."""
    return _bound(np.minimum(omega_ref_up, 1.0), delta_vir_low, True)


def _warn_of_clamp(omega_ref_up):
    """One warning for all omega_ref_upper values above 1, which _lift clamps, naming the worst."""
    if np.any(omega_ref_up > 1.0):
        warnings.warn(f"omega_ref_upper = {float(omega_ref_up.max())!r} clamped to 1")


def _zz_rates(zz):
    """(e_zz, zeta_obs) of the ZZ yields; e_zz is no number where zeta_obs is 0."""
    # equal announced bits are errors: the kept announcement anti-correlates
    # the raw bits, and Bob flips his afterwards
    denom = zz.sum(axis=-1)
    zeta_obs = 0.25 * denom  # joint over the uniform bit pairs
    # the setting-pair order restricted to ZZ: (00, 01, 10, 11)
    return (zz[..., 0] + zz[..., 3]) / denom, zeta_obs


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


def _key_rate(y_zz, e_xx, cost):
    """Y_ZZ [1 - h(e_XX) - cost], floored at 0; cost = f_EC h(e_ZZ), of _point_terms."""
    return y_zz * np.maximum(1.0 - _binary_entropy(np.minimum(e_xx, 0.5)) - cost, 0.0)


def _point_terms(y, f_obj, f_ec, sifting_prefactor):
    """The chain's first stage: the nine columns of each yield row (..., 9) that take no eps.

    f_obj (..., 9) broadcasts against y. omega_ref = f_obj . Y, A = sum f_i
    - 2 omega_ref and B = sum |f_i| sqrt(Y_i (1 - Y_i)): one eps gives
    omega_ref_upper = omega_ref + om A + 2 y sqrt(om) B, y = sqrt(1 - eps)
    and om = 1 - y^2, unless a pair saturates, where hi > y^2 or lo < om
    (_bound's predicate) for the largest Y_i with f_i > 0, hi, and the
    smallest with f_i <= 0, lo. Then e_zz, zeta_obs, Y_ZZ and f_ec h(e_zz).
    """
    # the pairs first, each contiguous; f_obj gains y's leading axes, as broadcasting would
    f = np.moveaxis(f_obj.reshape((1,) * (y.ndim - f_obj.ndim) + f_obj.shape), -1, 0)
    pairs = np.ascontiguousarray(np.moveaxis(y, -1, 0))
    up = f > 0.0
    omega_ref = _nine_sum(f * pairs)
    a = _nine_sum(f) - 2.0 * omega_ref
    b = _nine_sum(np.abs(f) * np.sqrt(pairs * (1.0 - pairs)))
    hi = np.where(up, pairs, -np.inf).max(axis=0)
    lo = np.where(up, np.inf, pairs).min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        e_zz, zeta_obs = _zz_rates(y[..., _ZZ])
    y_zz = zeta_obs if sifting_prefactor is None else zeta_obs * sifting_prefactor
    return (omega_ref, a, b, hi, lo, e_zz, zeta_obs, y_zz,
            f_ec * _binary_entropy(np.minimum(e_zz, 0.5)))


def _chain_tail(omega_ref_up, delta_vir_low, e_zz, zeta_obs, y_zz, cost):
    """The columns (key_rate, e_zz, e_xx, omega_ref_upper, omega_upper, zeta_obs)."""
    omega_up = _lift(omega_ref_up, delta_vir_low)
    with np.errstate(divide="ignore", invalid="ignore"):
        e_xx = _phase_error_rate(omega_up, zeta_obs)
    return _key_rate(y_zz, e_xx, cost), e_zz, e_xx, omega_ref_up, omega_up, zeta_obs


def _row_columns(eps, terms, y, f_obj):
    """The chain's second stage: _chain_tail's columns of each row at its one eps.

    terms: _point_terms' columns stacked, broadcastable against eps; y and
    f_obj are read only for the rows where a pair saturates its bound.
    """
    omega_ref, a, b, hi, lo, *rest = terms
    roots = _anchors(eps)
    om = 1.0 - roots * roots
    omega_ref_up = np.maximum(omega_ref + om * a + 2.0 * roots * np.sqrt(om) * b, 0.0)
    saturated = (hi > roots * roots) | (lo < om)
    if saturated.any():  # the per-pair form on those rows alone, one pair's column at a time
        def rows(v):
            return np.broadcast_to(v, saturated.shape)[saturated]

        y, f_obj = (map(rows, np.moveaxis(v, -1, 0)) for v in (y, f_obj))
        omega_ref_up[saturated] = _omega_ref_upper(y, [rows(roots)] * 9, f_obj)
    # _delta_vir_lower of nine equal anchors r is r: ((r + r) + r) + r rounds to 4r
    return _chain_tail(omega_ref_up, roots, *rest)


def _estimate_core(y, eps, f_obj, f_ec, sifting_prefactor):
    """The chain of estimate on arrays, per pair: _chain_tail's columns, silent mask and omega_ref.

    y (..., 9); eps and f_obj (..., 9), broadcast against it and checked by
    the caller, who warns of an omega_ref_upper clamped to 1 (_warn_of_clamp).
    omega_ref is the first stage's f_obj . Y.
    """
    roots = _anchors(eps)
    omega_ref, *_, e_zz, zeta_obs, y_zz, cost = _point_terms(y, f_obj, f_ec, sifting_prefactor)
    pairs = (np.moveaxis(v, -1, 0) for v in (y, roots, f_obj))
    columns = _chain_tail(_omega_ref_upper(*pairs), _delta_vir_lower(roots),
                          e_zz, zeta_obs, y_zz, cost)
    return columns, zeta_obs < _SILENT_BELOW, omega_ref


def estimate(inputs, f_ec=1.16, sifting_prefactor=None):
    """Run the full chain on assembled inputs and return an EstimationResult.

    sifting_prefactor: optional p_ZA * p_ZB factor on Y_ZZ; excluded by
    default since the key-rate bound is stated per ZZ-tagged pair.
    Warns once if an omega_ref_upper above 1 is clamped, rows without
    signal included; then raises NoSignalError naming those rows.
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
    if not 1.0 <= real(f_ec, "f_ec") < np.inf:
        raise ValueError("f_ec must be finite and >= 1")
    if not (sifting_prefactor is None
            or 0.0 <= real(sifting_prefactor, "sifting_prefactor") <= 1.0):
        raise ValueError("sifting_prefactor must lie in [0, 1]")
    columns, silent, omega_ref = _estimate_core(inputs.yields.y, eps, f_obj, f_ec,
                                                sifting_prefactor)
    _warn_of_clamp(columns[3])
    if np.any(silent):
        raise NoSignalError(NO_SIGNAL, silent)
    rate, e_zz, e_xx, om_ref_up, om_up, zeta_obs = map(plain, columns)
    return EstimationResult(plain(omega_ref), om_ref_up,
                            plain(_delta_vir_lower(_anchors(eps))), om_up, zeta_obs, e_zz, e_xx,
                            rate)

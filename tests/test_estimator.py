import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd import (
    SETTINGS,
    ChannelParams,
    ModulationErrors,
    SideChannelParams,
    build_bsm_povm,
    build_estimation_inputs,
    build_S_matrix,
    estimate,
    make_reference_state,
    reference_yields,
    transmission_rates,
)
from mdiqkd import estimator
from mdiqkd.channel import YieldTable
from mdiqkd.estimator import (
    NO_SIGNAL,
    EstimationInputs,
    EstimationResult,
    IllConditionedError,
    NoSignalError,
    build_estimation_stack,
    omega_ref_matrix,
    _estimate_core,
)
from mdiqkd.pauli_core import ZZ_PAIR_INDICES, DegenerateInputError
from oracles import (
    deviation_bounds,
    entropy_highprec,
    fock_povm,
    omega_ref_direct,
    virtual_ensemble_16dim,
)

BENCHMARK_DELTA = 0.126


def _pipeline(loss_db=4.0, delta=0.0, eps_value=1e-6, **channel_kwargs):
    deltas = ModulationErrors(delta, delta, delta)
    ref = [make_reference_state(s, deltas) for s in SETTINGS]
    povm = build_bsm_povm(ChannelParams(loss_db=loss_db, **channel_kwargs))
    yields = reference_yields(build_S_matrix(ref, ref), transmission_rates(povm))
    inputs = build_estimation_inputs(
        ref, ref, yields, SideChannelParams.uniform(eps_value)
    )
    return ref, povm, yields, inputs


def test_side_channel_validation():
    with pytest.raises(ValueError):
        SideChannelParams.uniform(1.5)
    with pytest.raises(ValueError):
        SideChannelParams(np.full(8, 0.1))
    with pytest.raises(ValueError):
        SideChannelParams(np.full(9, math.nan))


# The chain's formulas are private helpers of estimator; the tests below
# pin each one on its own, reached through the module.

def test_binary_entropy_endpoints_and_half():
    assert estimator._binary_entropy(np.array([0.0, 1.0, 0.5])).tolist() == [0.0, 0.0, 1.0]


def test_binary_entropy_against_high_precision():
    for p in (0.11, 0.015, 0.3, 0.499):
        assert estimator._binary_entropy(p) == pytest.approx(entropy_highprec(p), abs=1e-14)
    assert round(float(estimator._binary_entropy(0.11)), 6) == 0.499916


def test_key_rate_no_errors_returns_yield():
    assert estimator._key_rate(0.37, 0.0, 0.0, 1.16) == pytest.approx(0.37, abs=1e-15)


def test_key_rate_floors_at_half_phase_error():
    assert estimator._key_rate(0.3, 0.1, 0.5, 1.16) == 0.0


def test_key_rate_no_revival_beyond_half():
    # a certified phase-error bound past 1/2 must not resurrect the rate
    assert estimator._key_rate(0.3, 0.01, 0.9, 1.16) == 0.0
    assert estimator._key_rate(0.3, 0.01, 1.0, 1.16) == 0.0


def _zz_rates(zz):
    with np.errstate(divide="ignore", invalid="ignore"):
        return estimator._zz_rates(np.array(zz, dtype=float))


def test_bit_error_rate_perfect_anticorrelation():
    e_zz, zeta_obs, silent = _zz_rates([0.0, 0.25, 0.25, 0.0])
    assert (e_zz, zeta_obs, silent) == (0.0, 0.125, False)


def test_bit_error_rate_symmetry():
    assert _zz_rates([0.1, 0.1, 0.1, 0.1])[0] == 0.5


def test_bit_error_rate_no_signal():
    assert _zz_rates([0.0, 0.0, 0.0, 0.0])[2]


def test_no_signal_threshold_is_the_smallest_normal_zeta_obs():
    # zeta_obs = ZZ sum / 4: exactly the smallest normal float still counts
    tiny = np.finfo(float).tiny
    below = np.nextafter(tiny, 0.0)
    e_zz, zeta_obs, silent = _zz_rates([[4.0 * tiny, 0.0, 0.0, 0.0], [4.0 * below, 0.0, 0.0, 0.0]])
    assert silent.tolist() == [False, True]
    assert e_zz[0] == 1.0 and zeta_obs[0] == tiny
    assert estimator._phase_error_rate(0.0, tiny) == 0.0
    *_, inputs = _pipeline()
    y = np.zeros((2, 9))
    y[:, ZZ_PAIR_INDICES[0]] = [4.0 * tiny, 4.0 * below]

    def run(rows):
        return estimate(EstimationInputs(YieldTable(y[rows]),
                                         SideChannelParams.uniform(np.full(len(rows), 1e-6)),
                                         inputs.f_obj))

    assert run([0]).e_zz.tolist() == [1.0]
    with pytest.raises(NoSignalError, match=NO_SIGNAL) as excinfo:
        run([0, 1])
    assert excinfo.value.rows.tolist() == [False, True]


def test_no_signal_error_names_the_batch_rows():
    *_, inputs = _pipeline()
    quiet = np.zeros(9)
    denormal = quiet.copy()
    denormal[ZZ_PAIR_INDICES[0]] = 5e-324  # smallest denormal
    batch = np.stack([inputs.yields.y, quiet, denormal])

    def run(rows):
        y = batch[rows]
        return estimate(EstimationInputs(YieldTable(y),
                                         SideChannelParams.uniform(np.full(len(y), 1e-6)),
                                         inputs.f_obj))

    # a ZZ sum of one denormal step is no signal either: zeta_obs, a
    # quarter of the sum, lies below the smallest normal float
    with pytest.raises(NoSignalError, match="all ZZ yields vanish") as excinfo:
        run([0, 1, 2])
    assert excinfo.value.rows.tolist() == [False, True, True]
    assert run([0]).key_rate.shape == (1,)
    # a single point gets a 0-d mask
    with pytest.raises(NoSignalError) as excinfo:
        estimate(EstimationInputs(YieldTable(quiet), SideChannelParams.uniform(1e-6),
                                  inputs.f_obj))
    assert excinfo.value.rows.shape == () and excinfo.value.rows


def test_bit_error_rate_tracks_misalignment():
    *_, inputs = _pipeline(loss_db=4.0)
    observed = estimate(inputs).e_zz
    oracle = fock_povm(0.145, 6.02e-6, 0.015, 4.0)
    diag = [oracle[i, i] for i in range(4)]
    expected = (diag[0] + diag[3]) / sum(diag)
    assert observed == pytest.approx(expected, abs=1e-12)
    # dominated by e_d, diluted by dark counts
    assert abs(observed - 0.015) < 5e-3


def test_phase_error_rate_basics():
    rates = estimator._phase_error_rate(np.array([0.0, 0.05, 0.5]), 0.1)
    assert rates.tolist() == [0.0, 0.5, 1.0]  # capped at 1


def test_delta_vir_lower_limits():
    def floor(eps):
        return estimator._delta_vir_lower(SideChannelParams.uniform(eps).anchors())

    assert floor(0.0) == 1.0
    assert floor(1.0) == 0.0
    assert floor(1e-6) == pytest.approx(0.9999995, abs=5e-8)


def test_anchors_are_the_roots_of_one_minus_eps():
    # a uniform row has the bits of nine roots, and delta_vir_lower sums
    # the roots of the ZZ pairs
    rows = np.array([0.0, 5e-324, 1e-12, 1e-6, 0.3, 1.0 - 2.0**-53, 1.0])
    for eps in (SideChannelParams.uniform(1e-6), SideChannelParams.uniform(rows),
                SideChannelParams(np.outer(rows, np.linspace(0.1, 1.0, 9)))):
        roots = np.sqrt(1.0 - eps.eps)
        np.testing.assert_array_equal(eps.anchors(), roots)
        np.testing.assert_array_equal(estimator._delta_vir_lower(eps.anchors()),
                                      0.25 * roots[..., list(ZZ_PAIR_INDICES)].sum(axis=-1))


def test_omega_upper_limits():
    # a virtual fidelity of 1 lifts nothing
    assert estimator._lift(np.array(0.3), 1.0) == 0.3
    assert estimator._lift(np.array(0.0), 0.5) == pytest.approx(0.75, abs=1e-15)


def test_omega_upper_clamps_with_warning():
    with pytest.warns(UserWarning, match=r"omega_ref_upper = 1\.2 clamped to 1"):
        assert estimator._lift(np.array([0.3, 1.2]), 0.5)[1] == 1.0


def test_omega_ref_zero_cases():
    ref, povm, yields, inputs = _pipeline()
    zeros = YieldTable(np.zeros(9))
    assert omega_ref_matrix(EstimationInputs(zeros, inputs.eps, inputs.f_obj)) == 0.0

    class _Zero:
        m = np.zeros((4, 4))

    assert omega_ref_direct(inputs.p_vir_ensemble, _Zero()) == 0.0


def test_omega_ref_vanishes_for_ideal_setup():
    # the kept virtual states are |++| and |--|, both orthogonal to the
    # singlet, so an ideal relay assigns them zero announcement weight
    ref, _, yields, inputs = _pipeline(
        loss_db=0.0, eta_d=1.0, p_d=0.0, e_d=0.0, eps_value=0.0
    )
    ideal_povm = build_bsm_povm(ChannelParams(eta_d=1.0, p_d=0.0, e_d=0.0))
    assert abs(omega_ref_direct(inputs.p_vir_ensemble, ideal_povm)) < 1e-12
    assert abs(omega_ref_matrix(inputs)) < 1e-12


def test_omega_ref_route_equivalence_at_benchmark_point():
    ref, povm, yields, inputs = _pipeline(delta=BENCHMARK_DELTA)
    direct = omega_ref_direct(inputs.p_vir_ensemble, povm)
    via_matrix = omega_ref_matrix(inputs)
    assert via_matrix == pytest.approx(direct, abs=1e-10)
    assert direct > 0.0


def test_omega_ref_x_convention_independent():
    deltas = ModulationErrors(0.126, -0.07, 0.05)
    ref = [make_reference_state(s, deltas) for s in SETTINGS]
    povm = build_bsm_povm(ChannelParams(loss_db=6.0))
    amps = [np.array([s.amp0, s.amp1]) for s in ref[:2]]
    omegas = []
    for sign in (+1, -1):
        ens = virtual_ensemble_16dim(amps, amps, x_sign=sign)
        omegas.append(
            sum(p * float(np.trace(povm.m @ th)) for p, th in
                (ens[0, 0], ens[1, 1]))
        )
    assert omegas[0] == pytest.approx(omegas[1], abs=1e-14)


def test_omega_ref_upper_collapses_at_zero_eps():
    *_, inputs = _pipeline(delta=BENCHMARK_DELTA, eps_value=0.0)
    r = estimate(inputs)
    assert abs(r.omega_ref_upper - r.omega_ref) < 1e-12


def test_omega_ref_upper_saturated_eps():
    *_, inputs = _pipeline(eps_value=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the lift clamps a bound above 1
        upper = estimate(inputs).omega_ref_upper
    expected = sum(f for f in inputs.f_obj if f > 0.0)
    assert upper == pytest.approx(expected, abs=1e-12)


def test_omega_ref_upper_strictly_above_matrix_value():
    *_, inputs = _pipeline(delta=BENCHMARK_DELTA)
    r = estimate(inputs)
    assert r.omega_ref_upper > r.omega_ref


def test_degradation_monotone_in_eps():
    rates, exxs = [], []
    for eps_value in (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
        _, _, _, inputs = _pipeline(eps_value=eps_value)
        result = estimate(inputs)
        rates.append(result.key_rate)
        exxs.append(result.e_xx)
    assert all(a >= b - 1e-15 for a, b in zip(rates, rates[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(exxs, exxs[1:]))
    # a heavy leak sits strictly below a light one while the latter is alive
    assert rates[1] > rates[-1]


def test_ill_conditioned_reference_set_is_refused():
    # 0X nearly coincides with 1Z, collapsing the tomography basis
    deltas = ModulationErrors(delta3=-math.pi / 2 + 1e-5)
    ref = [make_reference_state(s, deltas) for s in SETTINGS]
    povm = build_bsm_povm(ChannelParams(loss_db=4.0))
    yields = reference_yields(build_S_matrix(ref, ref), transmission_rates(povm))
    with pytest.raises(IllConditionedError) as excinfo:
        build_estimation_inputs(ref, ref, yields, SideChannelParams.uniform(1e-6))
    assert excinfo.value.condition_number > 1e8


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda ref, yields, inputs: build_estimation_inputs(ref, ref),
                 "yields must be a YieldTable, got None", id="reference-set-alone"),
    pytest.param(lambda ref, yields, inputs: EstimationInputs(yields.y, inputs.eps, inputs.f_obj),
                 "yields must be a YieldTable, got array(", id="yields-array"),
    pytest.param(lambda ref, yields, inputs: EstimationInputs(yields, 1e-6, inputs.f_obj),
                 "eps must be a SideChannelParams, got 1e-06", id="eps-float"),
])
def test_estimate_names_a_field_of_the_wrong_type(build, message):
    ref, _, yields, inputs = _pipeline()
    with pytest.raises(ValueError, match=re.escape(message)):
        estimate(build(ref, yields, inputs))


@pytest.mark.parametrize("yields, eps, f_obj, message", [
    # one yield row may not give three key rates
    (np.full(9, 0.1), 1e-6, np.zeros((3, 9)), "f_obj must have shape (9,) or (9,), got (3, 9)"),
    # nor may two yield rows meet three eps rows in numpy's broadcast error
    (np.full((2, 9), 0.1), np.full(3, 1e-6), np.zeros(9),
     "eps must have shape (9,) or (2, 9), got (3, 9)"),
    (np.full(9, 0.1), np.full(2, 1e-6), np.zeros(9),
     "eps must have shape (9,) or (9,), got (2, 9)"),
    (np.full((2, 9), 0.1), 1e-6, np.zeros((3, 9)),
     "f_obj must have shape (9,) or (2, 9), got (3, 9)"),
], ids=["one-yield-row-three-f_obj-rows", "two-yield-rows-three-eps-rows",
        "one-yield-row-two-eps-rows", "two-yield-rows-three-f_obj-rows"])
def test_estimate_refuses_shapes_that_do_not_agree(monkeypatch, yields, eps, f_obj, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the chain ran")

    monkeypatch.setattr(estimator, "_estimate_core", no_work)
    inputs = EstimationInputs(YieldTable(yields), SideChannelParams.uniform(eps), f_obj)
    with pytest.raises(ValueError) as excinfo:
        estimate(inputs)
    assert str(excinfo.value) == message


def test_estimate_shares_a_nine_entry_eps_and_f_obj_over_the_yield_rows():
    *_, inputs = _pipeline()
    rows = np.stack([inputs.yields.y] * 2)
    for eps, f_obj in ((inputs.eps, np.stack([inputs.f_obj] * 2)),
                       (SideChannelParams(np.stack([inputs.eps.eps] * 2)), inputs.f_obj)):
        result = estimate(EstimationInputs(YieldTable(rows), eps, f_obj))
        assert result.key_rate.tolist() == [estimate(inputs).key_rate] * 2


def test_no_signal_channel_is_reported():
    with pytest.raises(NoSignalError):
        ref, _, yields, inputs = _pipeline(eta_d=0.0, p_d=0.0)
        estimate(inputs)


def test_estimate_ideal_limit():
    _, _, _, inputs = _pipeline(
        loss_db=7.0, eta_d=1.0, p_d=0.0, e_d=0.0, eps_value=0.0
    )
    result = estimate(inputs)
    assert result.e_zz < 1e-9
    assert result.e_xx < 1e-9
    assert result.key_rate == pytest.approx(result.zeta_obs, abs=1e-9)


def test_estimate_benchmark_point_is_positive():
    _, _, _, inputs = _pipeline(loss_db=4.0, eps_value=1e-6)
    result = estimate(inputs)
    assert result.key_rate > 0.0
    assert result.omega_ref <= result.omega_ref_upper + 1e-12
    # a single point gives plain floats, not numpy scalars
    assert all(type(getattr(result, name)) is float for name in result.__slots__)


def test_estimate_sifting_prefactor_scales_rate():
    _, _, _, inputs = _pipeline(loss_db=4.0, eps_value=1e-6)
    base = estimate(inputs)
    sifted = estimate(inputs, sifting_prefactor=4.0 / 9.0)
    assert sifted.key_rate == pytest.approx(base.key_rate * 4.0 / 9.0, rel=1e-12)


def test_estimation_result_guards_bound_ordering():
    with pytest.raises(ValueError):
        EstimationResult(
            omega_ref=0.2,
            omega_ref_upper=0.1,
            delta_vir_lower=1.0,
            omega_upper=0.1,
            zeta_obs=0.1,
            e_zz=0.0,
            e_xx=0.0,
            key_rate=0.0,
        )
    with pytest.raises(ValueError):
        EstimationResult(*[math.nan] * 8)


def test_zeta_obs_is_joint_zz_weight():
    _, _, yields, inputs = _pipeline(loss_db=4.0)
    result = estimate(inputs)
    assert result.zeta_obs == pytest.approx(
        0.25 * yields.y[list(ZZ_PAIR_INDICES)].sum(), abs=1e-15
    )


# 17 uniform deltas, asymmetric triples, a singular S at pi/4 and a delta
# 1e-9 short of pi/2, whose virtual state collapses
STACK_TRIPLES = (
    [(d, d, d) for d in np.linspace(-0.4, 0.4, 17).tolist()]
    + [(0.126, -0.07, 0.05), (0.0, 0.2, -0.1), (1.5, -1.2, 0.3)]
    + [(math.pi / 4,) * 3, (math.pi / 2 - 1e-9,) * 3]
)


@pytest.mark.parametrize("cond_ceiling", [1e8, 1e300])
def test_stacked_setup_equals_one_set_at_a_time(cond_ceiling):
    refs_a = [[make_reference_state(s, ModulationErrors(*t)) for s in SETTINGS]
              for t in STACK_TRIPLES]
    refs_b = refs_a[3:] + refs_a[:3]  # a different set on each side
    stack, errors = build_estimation_stack(refs_a, refs_b, cond_ceiling)
    assert stack.f_obj.shape == (len(refs_a), 9)
    refused = set()
    for k, (ref_a, ref_b) in enumerate(zip(refs_a, refs_b)):
        try:
            one = build_estimation_inputs(ref_a, ref_b, cond_ceiling=cond_ceiling)
        except (IllConditionedError, DegenerateInputError) as exc:
            assert type(errors[k]) is type(exc) and str(errors[k]) == str(exc)
            refused.add(type(exc))
            continue
        assert errors[k] is None
        for got, want in ((stack.s_matrix[k], one.s_matrix),
                          (stack.s_matrix_inverse[k], one.s_matrix_inverse),
                          (stack.cond_s[k], one.cond_s),
                          (stack.f_obj[k], one.f_obj),
                          (stack.p_vir_ensemble.p_vir[k], one.p_vir_ensemble.p_vir),
                          (stack.p_vir_ensemble.s_vir[k], one.p_vir_ensemble.s_vir)):
            np.testing.assert_array_equal(got, want)
        # the fields estimate reads are what the removed check recomputed
        ens = one.p_vir_ensemble
        np.testing.assert_array_equal(one.f_obj, ens.p_vir @ ens.s_vir @ one.s_matrix_inverse)
    # pi/4 (cond ~1e17) passes only the lifted ceiling, and the collapse
    # of a virtual state is checked only on sets that pass it
    assert refused == ({DegenerateInputError} if cond_ceiling == 1e300
                       else {IllConditionedError})
    # only the accepted sets are inverted
    inverted = np.array([e is None or isinstance(e, DegenerateInputError) for e in errors])
    assert np.isnan(stack.s_matrix_inverse[~inverted]).all()
    assert np.isfinite(stack.s_matrix_inverse[inverted]).all()


def test_estimate_takes_one_f_obj_per_row():
    # rows of two reference sets in one batch give each set's own results
    points = [_pipeline(loss_db=loss, delta=delta)[3]
              for delta in (0.0, BENCHMARK_DELTA) for loss in (2.0, 6.0)]
    batch = EstimationInputs(
        YieldTable(np.array([p.yields.y for p in points])),
        SideChannelParams.uniform(np.full(len(points), 1e-6)),
        np.array([p.f_obj for p in points]),
    )
    result = estimate(batch)
    for i, point in enumerate(points):
        alone = estimate(point)
        assert result.key_rate[i] == alone.key_rate and result.e_xx[i] == alone.e_xx
        assert result.omega_ref[i] == pytest.approx(alone.omega_ref, rel=1e-12, abs=1e-15)


def _entropy(p):
    # h(p) term by term, 0 at the endpoints
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p > 0.0) & (p < 1.0), h, 0.0)


def _reference_chain(y, eps, f_obj, f_ec, sifting):
    """The paper's chain step by step in plain numpy, deviation bounds from the oracle.

    Both deviation bounds are taken on every pair by the two-branch
    oracle, and np.where keeps the one the sign of f_obj selects. Returns
    the core's six columns, delta_vir_lower and the mask of the rows
    without signal; warns of the omega_ref_upper clamp as the core does.
    """
    zz_pairs = list(ZZ_PAIR_INDICES)
    roots = np.sqrt(1.0 - eps)
    lower, upper = deviation_bounds(y, roots)
    om_ref_up = np.maximum((f_obj * np.where(f_obj > 0.0, upper, lower)).sum(axis=-1), 0.0)
    if (om_ref_up > 1.0).any():
        warnings.warn(f"omega_ref_upper = {float(om_ref_up.max())!r} clamped to 1")
    delta_vir_low = 0.25 * roots[..., zz_pairs].sum(axis=-1)
    om_up = deviation_bounds(np.minimum(om_ref_up, 1.0), delta_vir_low)[1]
    zz = y[..., zz_pairs]
    zeta_obs = 0.25 * zz.sum(axis=-1)  # each Z bit pair is drawn with probability 1/4
    with np.errstate(divide="ignore", invalid="ignore"):
        e_zz = (zz[..., 0] + zz[..., 3]) / zz.sum(axis=-1)  # equal bits are errors
        e_xx = np.minimum(om_up, zeta_obs) / zeta_obs
    y_zz = zeta_obs if sifting is None else zeta_obs * sifting
    bracket = 1.0 - _entropy(np.minimum(e_xx, 0.5)) - f_ec * _entropy(np.minimum(e_zz, 0.5))
    rate = y_zz * np.maximum(bracket, 0.0)
    silent = zeta_obs < np.finfo(float).tiny
    return (rate, e_zz, e_xx, om_ref_up, om_up, zeta_obs), delta_vir_low, silent


# every entry of a unit-interval table may be one of the edges
_EDGES = st.sampled_from([0.0, 5e-324, np.finfo(float).tiny, 1e-12, 0.5, 1.0 - 2.0**-53, 1.0])
_UNIT = st.one_of(_EDGES, st.floats(0.0, 1.0))
_F_OBJ = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3.0, 3.0))


@st.composite
def _core_batches(draw):
    n = draw(st.integers(1, 6))
    y = np.array(draw(st.lists(st.lists(_UNIT, min_size=9, max_size=9), min_size=n, max_size=n)))
    for row in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        y[row, list(ZZ_PAIR_INDICES)] = draw(st.sampled_from([0.0, 5e-324]))  # no signal
    if draw(st.booleans()):  # one eps per row, as a sweep has it
        eps = np.repeat(np.array(draw(st.lists(_UNIT, min_size=n, max_size=n)))[:, None], 9, 1)
    else:
        eps = np.array(draw(st.lists(st.lists(_UNIT, min_size=9, max_size=9),
                                     min_size=n, max_size=n)))
    f_obj = np.array(draw(st.lists(st.lists(_F_OBJ, min_size=9, max_size=9),
                                   min_size=n, max_size=n)))
    if draw(st.booleans()):  # near a working point, where the key rate and its entropies live
        y[:, [0, 4]] *= 1e-2  # (0Z,0Z) and (1Z,1Z): few equal announced bits
        eps, f_obj = eps * 1e-6, f_obj * 1e-3
    f_ec = draw(st.sampled_from([1.0, 1.16, 2.0]))
    sifting = draw(st.sampled_from([None, 0.0, 4.0 / 9.0, 1.0]))
    return y, eps, f_obj, f_ec, sifting


def _assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _messages(caught):
    return [(w.category, str(w.message)) for w in caught]


def _check_core_against_reference(y, eps, f_obj, f_ec, sifting):
    with warnings.catch_warnings(record=True) as core_warnings:
        warnings.simplefilter("always")
        columns, silent = _estimate_core(y, np.sqrt(1.0 - eps), f_obj, f_obj > 0.0, f_ec, sifting)
    # both warn of the omega_ref_upper clamp on every row, those without
    # signal included
    with warnings.catch_warnings(record=True) as reference_warnings:
        warnings.simplefilter("always")
        reference, delta_vir_low, reference_silent = _reference_chain(y, eps, f_obj, f_ec, sifting)
    assert _messages(core_warnings) == _messages(reference_warnings)
    np.testing.assert_array_equal(silent, reference_silent)
    signal = ~silent
    for core_column, reference_column in zip(columns, reference):
        _assert_bits_equal(core_column[signal], reference_column[signal])
    if silent.any():
        inputs = EstimationInputs(YieldTable(y), SideChannelParams(eps), f_obj)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NoSignalError, match=NO_SIGNAL) as excinfo:
                estimate(inputs, f_ec=f_ec, sifting_prefactor=sifting)
        np.testing.assert_array_equal(excinfo.value.rows, silent)
    if not signal.any():
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = estimate(EstimationInputs(YieldTable(y[signal]), SideChannelParams(eps[signal]),
                                           f_obj[signal]), f_ec=f_ec, sifting_prefactor=sifting)
    fields = ("key_rate", "e_zz", "e_xx", "omega_ref_upper", "omega_upper", "zeta_obs")
    for name, reference_column in zip(fields, reference):
        _assert_bits_equal(getattr(result, name), reference_column[signal])
    _assert_bits_equal(result.delta_vir_lower, delta_vir_low[signal])


@settings(max_examples=100, deadline=None)
@given(_core_batches())
def test_core_equals_the_reference_chain_bit_for_bit(batch):
    _check_core_against_reference(*batch)


def test_core_covers_the_clamp_and_the_edges():
    # fixed cases the property must not miss: the omega_ref_upper clamp
    # and its warning, eps 0 and 1, zero coefficients and a silent row
    y = np.full((4, 9), 0.9)
    y[3, list(ZZ_PAIR_INDICES)] = 0.0
    eps = np.array([[0.0] * 9, [1.0] * 9, [1e-6] * 9, [1e-6] * 9])
    f_obj = np.array([[2.0, 0.0, -0.0, 1.0, 0.5, 0.0, -1.0, 0.0, 0.0]] * 4)
    with pytest.warns(UserWarning, match="clamped to 1"):
        columns, silent = _estimate_core(y, np.sqrt(1.0 - eps), f_obj, f_obj > 0.0, 1.16, None)
    assert silent.tolist() == [False, False, False, True]
    omega_ref_up = columns[3]
    assert (omega_ref_up[:3] > 1.0).all() and (columns[4][:3] == 1.0).all()
    _check_core_against_reference(y, eps, f_obj, 1.16, None)


def test_core_equals_the_reference_chain_on_the_relay_model():
    # working points of the relay model, where every step of the chain is live
    points = [_pipeline(loss_db=loss, delta=delta)[3]
              for delta in (0.0, BENCHMARK_DELTA) for loss in (0.0, 4.0, 8.0)]
    y = np.array([p.yields.y for p in points])
    eps = np.full_like(y, 1e-6)
    f_obj = np.array([p.f_obj for p in points])
    (rate, *_), _ = _estimate_core(y, np.sqrt(1.0 - eps), f_obj, f_obj > 0.0, 1.16, None)
    assert (rate > 0.0).all()
    _check_core_against_reference(y, eps, f_obj, 1.16, None)

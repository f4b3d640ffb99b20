import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdiqkd import (
    SETTINGS,
    ChannelParams,
    FrequencyRange,
    KeyRatePoint,
    LossRange,
    ModulationErrors,
    SideChannelParams,
    SweepConfig,
    build_bsm_povm,
    build_estimation_inputs,
    build_S_matrix,
    estimate,
    frequency_table,
    loss_table,
    make_reference_state,
    reference_yields,
    transmission_rates,
)
import mdiqkd.sweep
from mdiqkd import estimator
from mdiqkd.channel import YieldTable, transmission_rates_grid
from mdiqkd.estimator import (
    NO_SIGNAL,
    EstimationInputs,
    EstimationResult,
    NoSignalError,
    _delta_vir_lower,
    _estimate_core,
    _point_terms,
    _row_columns,
)
from mdiqkd.pauli_core import (
    DEFAULT_COND_CEILING,
    ZZ_PAIR_INDICES,
    DegenerateInputError,
    IllConditionedError,
    _side_matrices,
    bloch_vector,
    build_estimation_stack,
    build_virtual,
    reference_amplitudes,
)
from oracles import (
    deviation_bounds,
    entropy_highprec,
    fock_povm,
    leaky_adversary,
    leaky_source,
    omega_ref_direct,
    setup_chain_mp,
    tomography_mp,
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


def _key_rate(y_zz, e_zz, e_xx, f_ec):
    """estimator._key_rate at the error-correction cost of e_zz, as _point_terms gives it."""
    return estimator._key_rate(y_zz, e_xx, f_ec * estimator._binary_entropy(min(e_zz, 0.5)))


def test_key_rate_no_errors_returns_yield():
    assert _key_rate(0.37, 0.0, 0.0, 1.16) == pytest.approx(0.37, abs=1e-15)


def test_key_rate_floors_at_half_phase_error():
    assert _key_rate(0.3, 0.1, 0.5, 1.16) == 0.0


def test_key_rate_no_revival_beyond_half():
    # a certified phase-error bound past 1/2 must not resurrect the rate
    assert _key_rate(0.3, 0.01, 0.9, 1.16) == 0.0
    assert _key_rate(0.3, 0.01, 1.0, 1.16) == 0.0


def _zz_rates(zz):
    """(e_zz, zeta_obs) of the ZZ yields, and the silent mask the chain takes of zeta_obs."""
    with np.errstate(divide="ignore", invalid="ignore"):
        e_zz, zeta_obs = estimator._zz_rates(np.array(zz, dtype=float))
    return e_zz, zeta_obs, zeta_obs < estimator._SILENT_BELOW


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
        return estimator._delta_vir_lower(estimator._anchors(SideChannelParams.uniform(eps).eps))

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
        np.testing.assert_array_equal(estimator._anchors(eps.eps), roots)
        np.testing.assert_array_equal(estimator._delta_vir_lower(estimator._anchors(eps.eps)),
                                      0.25 * roots[..., list(ZZ_PAIR_INDICES)].sum(axis=-1))


def test_omega_upper_limits():
    # a virtual fidelity of 1 lifts nothing
    assert estimator._lift(np.array(0.3), 1.0) == 0.3
    assert estimator._lift(np.array(0.0), 0.5) == pytest.approx(0.75, abs=1e-15)


def test_omega_upper_clamps_and_one_warning_names_the_worst():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the lift itself is silent
        assert estimator._lift(np.array([0.3, 1.2, 1.5]), 0.5)[1:].tolist() == [1.0, 1.0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimator._warn_of_clamp(np.array([0.3, 1.2, 1.5, 1.0]))
        estimator._warn_of_clamp(np.array([0.3, 1.0]))
        estimator._warn_of_clamp(np.zeros((2, 0, 3)))
    assert _messages(caught) == [(UserWarning, "omega_ref_upper = 1.5 clamped to 1")]


def test_omega_ref_zero_cases():
    ref, povm, yields, inputs = _pipeline()
    assert _point_terms(np.zeros(9), inputs.f_obj, 1.16, None)[0] == 0.0

    class _Zero:
        m = np.zeros((4, 4))

    assert omega_ref_direct(*build_virtual(ref[:2], ref[:2]), _Zero()) == 0.0


def test_omega_ref_vanishes_for_ideal_setup():
    # the kept virtual states are |++| and |--|, both orthogonal to the
    # singlet, so an ideal relay assigns them zero announcement weight
    ref, _, yields, inputs = _pipeline(
        loss_db=0.0, eta_d=1.0, p_d=0.0, e_d=0.0, eps_value=0.0
    )
    ideal_povm = build_bsm_povm(ChannelParams(eta_d=1.0, p_d=0.0, e_d=0.0))
    assert abs(omega_ref_direct(*build_virtual(ref[:2], ref[:2]), ideal_povm)) < 1e-12
    assert abs(estimate(inputs).omega_ref) < 1e-12


def test_omega_ref_route_equivalence_at_benchmark_point():
    ref, povm, yields, inputs = _pipeline(delta=BENCHMARK_DELTA)
    direct = omega_ref_direct(*build_virtual(ref[:2], ref[:2]), povm)
    via_matrix = estimate(inputs).omega_ref
    assert via_matrix == pytest.approx(direct, abs=1e-10)
    assert direct > 0.0


def test_omega_ref_x_convention_independent():
    deltas = ModulationErrors(0.126, -0.07, 0.05)
    ref = [make_reference_state(s, deltas) for s in SETTINGS]
    povm = build_bsm_povm(ChannelParams(loss_db=6.0))
    amps = ref[:2]
    omegas = []
    for sign in (+1, -1):
        ens = virtual_ensemble_16dim(amps, amps, x_sign=sign)
        omegas.append(
            sum(p * float(np.trace(povm.m @ th)) for p, th in
                (ens[0, 0], ens[1, 1]))
        )
    assert omegas[0] == pytest.approx(omegas[1], abs=1e-14)


def _leaky_inputs(rng, delta, leaks_a, leaks_b, leak_dim, relays):
    """EstimationInputs of relays draws of leaky_source on one reference set, and Omega_act."""
    amps = reference_amplitudes([delta])[0]
    draws = [leaky_source(rng, amps, amps, leaks_a, leaks_b, leak_dim) for _ in range(relays)]
    y, eps, omega = map(np.array, zip(*draws))
    return build_estimation_inputs(amps, amps, YieldTable(y), SideChannelParams(eps)), omega


@pytest.mark.parametrize("delta", [0.0, BENCHMARK_DELTA, -0.4])
@pytest.mark.parametrize("leak_dim", [1, 2, 3])
def test_leaky_source_without_leaks_has_the_omega_of_the_tomography_identity(delta, leak_dim):
    # the oracle's Omega_act and the package's f_obj . Y share their conventions
    inputs, omega = _leaky_inputs(np.random.default_rng(7), delta, [0.0] * 3, [0.0] * 3,
                                  leak_dim, relays=5)
    np.testing.assert_allclose(estimate(inputs).omega_ref, omega, rtol=0, atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(delta=st.floats(-0.5, 0.5),
       leaks=st.dictionaries(st.integers(0, 5), st.floats(-6.0, -2.0).map(lambda k: 10.0**k),
                             min_size=1),
       leak_dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_estimate_bounds_the_phase_error_of_a_leaky_source(delta, leaks, leak_dim, seed):
    # the security claim: whatever the actual states within the fidelity
    # budget eps and whatever the relay, the certified omega_upper and
    # e_xx bound the actual singlet-error weight and phase-error rate.
    # leaks maps a state, Alice's three then Bob's, to its leak of up to
    # 1e-2, over four decades; a draw of few leaking states leaves the
    # bounds the least slack
    e = [leaks.get(state, 0.0) for state in range(6)]
    inputs, omega = _leaky_inputs(np.random.default_rng(seed), delta, e[:3], e[3:], leak_dim,
                                  relays=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the lift may clamp a bound above 1
        try:
            result = estimate(inputs)
        except NoSignalError as error:  # a relay blind to every state announces nothing
            signal = ~error.rows
            if not signal.any():
                return
            inputs = EstimationInputs(YieldTable(inputs.yields.y[signal]),
                                      SideChannelParams(inputs.eps.eps[signal]), inputs.f_obj)
            omega, result = omega[signal], estimate(inputs)
    assert np.all(result.omega_upper >= omega - 1e-12)
    assert np.all(result.e_xx >= omega / result.zeta_obs - 1e-12)


def _estimate_bound(f_obj):
    """leaky_adversary's bound through estimate: omega_upper per row, nan on a row without signal."""
    def bound(y, eps):
        inputs = EstimationInputs(YieldTable(y), SideChannelParams(eps), f_obj)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the lift may clamp a bound above 1
            try:
                return estimate(inputs).omega_upper
            except NoSignalError as error:
                upper, signal = np.full(len(y), np.nan), ~error.rows
                if signal.any():
                    upper[signal] = bound(y[signal], eps[signal])
                return upper
    return bound


def _stage_bound(f_obj):
    """leaky_adversary's bound through a sweep's two stages, for a uniform eps per row."""
    def bound(y, eps):
        terms = np.array(_point_terms(y, f_obj, 1.16, None))
        upper = _row_columns(eps[:, 0], terms, y, f_obj)[4]
        return np.where(terms[6] < np.finfo(float).tiny, np.nan, upper)  # zeta_obs
    return bound


@pytest.mark.parametrize("chain", [_estimate_bound, _stage_bound], ids=["estimate", "stages"])
@pytest.mark.parametrize("delta, e", [(BENCHMARK_DELTA, 1e-2), (-0.4, 1e-2)])
def test_an_adversary_finds_no_leaky_source_beyond_the_bound(chain, delta, e):
    # the security claim against a search for its worst case: a relay
    # aimed at the leaks and the leaks moved to meet it, against estimate
    # and against a sweep's stages. Every state leaks e into a
    # two-dimensional mode. The search comes within 22% and 11% of
    # omega_upper. There it exceeds a chain with the wrong branch for
    # f_obj < 0 at delta 0.126, one without its lift at -0.4 and one with
    # the lift through g_lower at both
    amps = reference_amplitudes([delta])[0]
    f_obj = build_estimation_inputs(amps, amps, None, None).f_obj
    _, omega, upper, _ = leaky_adversary(chain(f_obj), amps, e, leak_dim=2, seed=0)
    assert omega <= upper + 1e-12
    assert omega / upper > 0.7  # the search's reach: 0.78 and 0.89


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
    pytest.param(lambda ref, yields, inputs: EstimationInputs(None, inputs.eps, inputs.f_obj),
                 "yields must be a YieldTable, got None", id="yields-none"),
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


@pytest.mark.parametrize("f_obj_entry, keywords, message", [
    (math.nan, {}, "f_obj must be finite"),
    (-math.inf, {}, "f_obj must be finite"),
    (None, {"f_ec": 0.99}, "f_ec must be finite and >= 1"),
    (None, {"f_ec": math.nan}, "f_ec must be finite and >= 1"),
    (None, {"f_ec": math.inf}, "f_ec must be finite and >= 1"),
    (None, {"sifting_prefactor": -0.1}, "sifting_prefactor must lie in [0, 1]"),
    (None, {"sifting_prefactor": math.nan}, "sifting_prefactor must lie in [0, 1]"),
    # p_ZA * p_ZB, a product of two probabilities
    (None, {"sifting_prefactor": 1.5}, "sifting_prefactor must lie in [0, 1]"),
    (None, {"sifting_prefactor": math.inf}, "sifting_prefactor must lie in [0, 1]"),
    # a bool is no number, though Python compares it as 1 or 0
    (None, {"f_ec": True}, "f_ec must be a number, got True"),
    (None, {"f_ec": "2"}, "f_ec must be a number, got '2'"),
    (None, {"sifting_prefactor": True}, "sifting_prefactor must be a number, got True"),
], ids=["f_obj-nan", "f_obj-inf", "f_ec-below-1", "f_ec-nan", "f_ec-inf", "sifting-negative",
        "sifting-nan", "sifting-above-1", "sifting-inf", "f_ec-bool", "f_ec-text",
        "sifting-bool"])
def test_estimate_refuses_a_bad_f_obj_f_ec_or_sifting_prefactor(monkeypatch, f_obj_entry,
                                                                keywords, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the chain ran")

    *_, inputs = _pipeline()
    f_obj = inputs.f_obj.copy()
    if f_obj_entry is not None:
        f_obj[4] = f_obj_entry
    monkeypatch.setattr(estimator, "_estimate_core", no_work)
    with pytest.raises(ValueError) as excinfo:
        estimate(EstimationInputs(inputs.yields, inputs.eps, f_obj), **keywords)
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


def test_estimation_result_refuses_a_negative_key_rate():
    fields = dict(omega_ref=0.1, omega_ref_upper=0.2, delta_vir_lower=1.0, omega_upper=0.2,
                  zeta_obs=0.1, e_zz=0.0, e_xx=0.0)
    for key_rate in (-5e-324, -1.0, math.nan, np.array([0.1, -0.1])):
        with pytest.raises(ValueError, match="^key rate must be floored at 0$"):
            EstimationResult(**fields, key_rate=key_rate)
    assert EstimationResult(**fields, key_rate=0.0).key_rate == 0.0


def test_zeta_obs_is_joint_zz_weight():
    _, _, yields, inputs = _pipeline(loss_db=4.0)
    result = estimate(inputs)
    assert result.zeta_obs == pytest.approx(
        0.25 * yields.y[list(ZZ_PAIR_INDICES)].sum(), abs=1e-15
    )


# 17 uniform deltas, asymmetric triples, a singular side at pi/4, a delta
# 1e-9 short of pi/2 (cond(B) 2.7e9) and one 1.4e-7 short of pi/2
# (cond(B) 1.9e7), whose virtual states collapse
STACK_TRIPLES = (
    [(d, d, d) for d in np.linspace(-0.4, 0.4, 17).tolist()]
    + [(0.126, -0.07, 0.05), (0.0, 0.2, -0.1), (1.5, -1.2, 0.3)]
    + [(math.pi / 4,) * 3, (math.pi / 2 - 1e-9,) * 3, (1.5707961867948965,) * 3]
)


@pytest.mark.parametrize("cond_ceiling", [1e8, 1e300])
def test_stacked_setup_equals_one_set_at_a_time(cond_ceiling):
    refs_a = [[make_reference_state(s, ModulationErrors(*t)) for s in SETTINGS]
              for t in STACK_TRIPLES]
    refs_b = refs_a[3:] + refs_a[:3]  # a different set on each side
    s_matrix, cond_s, f_obj, errors = build_estimation_stack(
        np.asarray(refs_a, dtype=float), np.asarray(refs_b, dtype=float), cond_ceiling)
    assert f_obj.shape == (len(refs_a), 9)
    refused = set()
    for k, (ref_a, ref_b) in enumerate(zip(refs_a, refs_b)):
        _, (cond_one,), (f_one,), (error,) = build_estimation_stack([ref_a], [ref_b],
                                                                    cond_ceiling)
        if error is not None:
            assert type(errors[k]) is type(error) and str(errors[k]) == str(error)
            refused.add(type(error))
            if cond_ceiling == DEFAULT_COND_CEILING:
                # the public one-set entry raises the stack's error for the set
                with pytest.raises(type(error)) as excinfo:
                    build_estimation_inputs(ref_a, ref_b, YieldTable(np.full(9, 0.1)),
                                            SideChannelParams.uniform(1e-6))
                assert str(excinfo.value) == str(error)
            continue
        assert errors[k] is None
        for got, want in ((s_matrix[k], build_S_matrix(ref_a, ref_b)), (cond_s[k], cond_one),
                          (f_obj[k], f_one)):
            np.testing.assert_array_equal(got, want)
        # f_obj is p_vir S_vir S^-1 of the set, and cond_s cond(S), to 1e-12
        # of 60-digit arithmetic on the same amplitudes
        oracle = tomography_mp(ref_a, ref_b)
        np.testing.assert_allclose(f_obj[k], oracle["f_obj"], rtol=0,
                                   atol=1e-12 * np.abs(oracle["f_obj"]).max())
        assert cond_s[k] == pytest.approx(oracle["cond_s"], rel=1e-12)
    # the collapse of a virtual state is checked only on sets that pass the
    # ceiling. A lifted one refuses just the two sets with pi/4 on a side,
    # whose B is singular to working precision
    assert refused == {IllConditionedError, DegenerateInputError}
    ill = [str(e) for e in errors if isinstance(e, IllConditionedError)]
    if cond_ceiling == 1e300:
        assert ill == ["cond(S) = inf exceeds ceiling 1.000e+300"] * 2
    else:
        assert len(ill) == 5 and not any("inf" in message for message in ill)
    # f_obj is nan exactly on the refused sets
    refused = np.array([e is not None for e in errors])
    assert np.isnan(f_obj[refused]).all()
    assert np.isfinite(f_obj[~refused]).all()


def _amplitudes(angles):
    """(cos a, sin a) of each angle, an array of the angles' shape + (2,)."""
    return np.array([[math.cos(a), math.sin(a)] for a in np.ravel(angles)]).reshape(
        np.shape(angles) + (2,))


# the trine, three states 120 degrees apart on the Bloch circle, whose B^T B
# has a double eigenvalue (lambda_2 = lambda_3 = 3/2), and sets near it
_TRINE = (0.0, math.pi / 3, 2 * math.pi / 3)


@settings(max_examples=40, deadline=None)
@given(angles=st.lists(st.lists(st.floats(-math.pi, math.pi), min_size=6, max_size=6),
                       min_size=1, max_size=2))
@example(angles=[list(_TRINE) * 2, [0.4, 0.4 + math.pi / 3 + 1e-9, 0.4 - math.pi / 3, *_TRINE]])
@example(angles=[[0.0, 1.0, 2.0, 0.0, 1.0, 1e-05]])  # a side of cond 1.7e5
# cond(B) 6.9 times cond(B) 8.9e307: cond(S) overflows to inf
@example(angles=[[0.0, 1.0, 0.5, 2.2250738585072014e-308, 0.0, 1.0]])
def test_general_sets_match_60_digit_tomography(angles):
    # any three states per side, given by the angles of their real
    # amplitudes: f_obj and cond_s of every set under the default ceiling
    # agree with 60-digit arithmetic on the same amplitudes to 1e-12, or to
    # 2 eps (cond(B_A) + cond(B_B)), the rounding of the Bloch rows times
    # its amplification; a set over the ceiling is over it there too
    amps = _amplitudes(angles)
    amps_a, amps_b = amps[:, :3], amps[:, 3:]
    _, cond_s, f_obj, errors = build_estimation_stack(amps_a, amps_b)
    for k, error in enumerate(errors):
        if type(error) is DegenerateInputError or cond_s[k] > 1e15:
            continue  # no f_obj, or a side too close to singular for an inverse
        oracle = tomography_mp(amps_a[k], amps_b[k])
        if error is not None:
            assert type(error) is IllConditionedError and oracle["cond_s"] > 1e8 * (1.0 - 1e-12)
            continue
        sides = _side_matrices(np.array([amps_a[k], amps_b[k]]))
        rtol = max(1e-12, 2 * np.finfo(float).eps * sum(np.linalg.cond(sides)))
        np.testing.assert_allclose(f_obj[k], oracle["f_obj"], rtol=0,
                                   atol=rtol * np.abs(oracle["f_obj"]).max())
        assert cond_s[k] == pytest.approx(oracle["cond_s"], rel=rtol)


def test_a_cond_s_past_the_float_range_is_refused_without_a_warning():
    # side A's cond(B) 6.9 times side B's 8.9e307 overflows: the set is
    # refused as cond(S) = inf, and numpy's overflow warning stays silent
    amps = _amplitudes([0.0, 1.0, 0.5, 2.2250738585072014e-308, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IllConditionedError) as excinfo:
            build_estimation_inputs(amps[:3], amps[3:], YieldTable(np.full(9, 0.1)),
                                    SideChannelParams.uniform(1e-6))
    assert str(excinfo.value) == "cond(S) = inf exceeds ceiling 1.000e+08"


def _stack_from_states(refs_a, refs_b, cond_ceiling):
    """The stack's fields and error messages, one set of make_reference_state rows at a time.

    S is np.kron of the sides' Bloch rows; cond(S) and f_obj are the
    stack's of the set alone. That cond(S) is the product of the sides'
    np.linalg.cond, to LAPACK's rounding of eps cond(B) per side, where
    np.linalg.matrix_rank finds both sides regular; a side singular to it
    refuses its set as cond(S) = inf under the ceiling.
    """
    fields, messages = [], []
    for ref_a, ref_b in zip(refs_a, refs_b):
        sides = [np.array([bloch_vector(state) for state in ref]) for ref in (ref_a, ref_b)]
        s_matrix = np.kron(*sides)
        _, (cond,), (f_one,), _ = build_estimation_stack([ref_a], [ref_b], cond_ceiling)
        lapack = [np.linalg.cond(side) for side in sides]
        if min(np.linalg.matrix_rank(side) for side in sides) < 3:  # singular to working precision
            assert min(cond, lapack[0] * lapack[1]) > 1e15  # both conds are rounding noise
            cond = cond if cond > cond_ceiling else math.inf
        else:
            eps = np.finfo(float).eps
            assert cond == pytest.approx(lapack[0] * lapack[1], rel=4 * eps * sum(lapack))
        if not cond <= cond_ceiling:
            fields.append((s_matrix, cond, None))
            messages.append(str(IllConditionedError(float(cond), cond_ceiling)))
            continue
        try:
            build_virtual(ref_a[:2], ref_b[:2])
        except DegenerateInputError as exc:
            fields.append((s_matrix, cond, None))
            messages.append(str(exc))
            continue
        fields.append((s_matrix, cond, f_one))
        messages.append(None)
    return fields, messages


_HALF_PI = math.pi / 2
# anywhere in (-pi/2, pi/2), both zeros, pi/4 (a singular side) and within
# 1e-9 of either end (cond(B) ~1e9), or 1.4e-7 short of pi/2 (a collapsed
# virtual state)
_DELTAS = st.one_of(
    st.floats(-_HALF_PI, _HALF_PI, exclude_min=True, exclude_max=True),
    st.sampled_from([0.0, -0.0, 0.126, -0.126, math.pi / 4, 1.5707961867948965]),
    st.floats(_HALF_PI - 1e-9, _HALF_PI, exclude_max=True),
    st.floats(-_HALF_PI, -_HALF_PI + 1e-9, exclude_min=True),
)


@pytest.mark.parametrize("cond_ceiling", [1e8, 1e300])
@settings(max_examples=60, deadline=None)
@given(deltas=st.lists(_DELTAS, min_size=1, max_size=6), shift=st.integers(0, 5))
@example(deltas=[0.0, math.pi / 4, _HALF_PI - 1e-9, -0.126, -0.0], shift=1)
@example(deltas=[0.5, math.pi / 4], shift=1)  # a singular side, here
@example(deltas=[1.5707961867948965, 0.0], shift=0)  # a collapsed virtual state
@example(deltas=[math.pi / 4 - 1e-7, 0.3], shift=0)  # cond(S) 7.1e14 with both sides regular
def test_stack_of_amplitudes_equals_the_states_one_set_at_a_time(cond_ceiling, deltas, shift):
    # a sweep hands the stack one reference_amplitudes array per side; it
    # gives the bits and the messages of the states built one set at a time
    shift %= len(deltas)
    amps = reference_amplitudes(deltas)
    amps_b = np.roll(amps, shift, axis=0)  # another set on side B
    s_matrix, cond_s, f_obj, errors = build_estimation_stack(amps, amps_b, cond_ceiling)
    refs = [[make_reference_state(s, ModulationErrors(d, d, d)) for s in SETTINGS]
            for d in deltas]
    fields, messages = _stack_from_states(refs, refs[-shift:] + refs[:-shift], cond_ceiling)
    assert [None if e is None else str(e) for e in errors] == messages
    if shift == 0:  # one array for both sides, as a sweep passes it: the same bits
        *same, same_errors = build_estimation_stack(amps, amps, cond_ceiling)
        for got, want in zip(same, (s_matrix, cond_s, f_obj)):
            np.testing.assert_array_equal(got, want, strict=True)
        assert [None if e is None else str(e) for e in same_errors] == messages
    for k, (s_one, cond, f_one) in enumerate(fields):
        np.testing.assert_array_equal(s_matrix[k], s_one, strict=True)
        np.testing.assert_array_equal(cond_s[k], cond)  # inf and nan equal themselves
        if f_one is not None:
            np.testing.assert_array_equal(f_obj[k], f_one, strict=True)


def test_stack_refuses_an_s_singular_to_working_precision():
    # equal 0Z and 0X states on side A give its B two equal rows, and S
    # repeated ones. Under a lifted ceiling that set is refused as
    # cond(S) = inf; the batch's other set keeps the bits it has alone
    amps_a = reference_amplitudes([0.3, 0.3])
    amps_a[1, 2] = amps_a[1, 0]
    amps_b = reference_amplitudes([0.3, 0.1])
    _, cond_s, f_obj, errors = build_estimation_stack(amps_a, amps_b, 1e300)
    assert errors[0] is None
    assert type(errors[1]) is IllConditionedError
    assert str(errors[1]) == "cond(S) = inf exceeds ceiling 1.000e+300"
    assert cond_s[1] == math.inf and np.isnan(f_obj[1]).all()
    *_, alone, _ = build_estimation_stack(amps_a[:1], amps_b[:1], 1e300)
    np.testing.assert_array_equal(f_obj[0], alone[0], strict=True)


def test_stack_refuses_an_s_past_the_rank_tolerance_as_singular():
    # at pi/4 the 0X state equals the 0Z one up to rounding: B has two
    # nearly equal rows, and its cond(B) 1.9e16 lies past
    # np.linalg.matrix_rank's tolerance for a 3x3 matrix, 1 / (3 eps) =
    # 1.5e15. A lifted ceiling refuses the set as cond(S) = inf; a ceiling
    # below its cond(S) = cond(B)^2 keeps the finite message. 1.4e-7 short
    # of pi/2, cond(B) 1.9e7 stays below the tolerance: that set is solved,
    # and refused for its collapsed state
    amps = reference_amplitudes([0.3, math.pi / 4, 1.5707961867948965])
    _, cond_s, f_obj, errors = build_estimation_stack(amps, amps, 1e300)
    b = _side_matrices(amps)
    assert [np.linalg.matrix_rank(side) for side in b] == [3, 2, 3]
    assert errors[0] is None
    assert type(errors[1]) is IllConditionedError
    assert str(errors[1]) == "cond(S) = inf exceeds ceiling 1.000e+300"
    assert cond_s[1] == math.inf and np.isnan(f_obj[1]).all()
    assert 3e14 < cond_s[2] < 4e14 and type(errors[2]) is DegenerateInputError
    assert np.isfinite(f_obj[0]).all() and np.isnan(f_obj[2]).all()
    _, cond_s, _, errors = build_estimation_stack(amps, amps, 1e15)
    # the cond(B)^2 of the rounded Bloch rows, as 50-digit arithmetic gives it
    assert str(errors[1]) == "cond(S) = 1.152e+33 exceeds ceiling 1.000e+15"
    assert 1e32 < cond_s[1] < math.inf and type(errors[2]) is DegenerateInputError


def test_stack_gives_no_f_obj_for_a_collapsed_virtual_state():
    # under a lifted ceiling the set 1.4e-7 short of pi/2 is solved but
    # refused for its collapsed virtual state: a caller that reads f_obj
    # without errors must not get numbers for it
    amps = reference_amplitudes([0.126, 1.5707961867948965, 0.7853981633974483])
    _, _, f_obj, errors = build_estimation_stack(amps, amps, 1e300)
    assert [type(e) for e in errors] == [type(None), DegenerateInputError,
                                         IllConditionedError]
    assert np.isfinite(f_obj[0]).all() and np.isnan(f_obj[1:]).all()


def test_stack_refuses_a_set_by_its_singular_side_not_by_cond_s():
    # a singular side refuses its set, on either side, while a set whose
    # sides both pass the rank tolerance is solved, whatever their product:
    # pi/4 - 1e-7 gives cond(B) 2.7e7 and cond(S) 7.1e14, past the 9x9 rank
    # tolerance 1 / (9 eps) = 5.0e14 of S itself
    near = math.pi / 4 - 1e-7
    amps_a = reference_amplitudes([0.3, 0.1, near, 0.2])
    amps_b = reference_amplitudes([0.1, 0.3, near, 0.2])
    amps_a[0, 2] = amps_a[0, 0]  # side A's 0X state is its 0Z state
    amps_b[1, 2] = amps_b[1, 0]  # and side B's
    _, cond_s, f_obj, errors = build_estimation_stack(amps_a, amps_b, 1e300)
    assert [None if e is None else str(e) for e in errors] == [
        "cond(S) = inf exceeds ceiling 1.000e+300"] * 2 + [None, None]
    assert (cond_s[:2] == math.inf).all() and np.isnan(f_obj[:2]).all()
    assert 5e14 < cond_s[2] < 1e15
    for k in (2, 3):  # each solved set keeps the bits it has alone
        *_, alone, _ = build_estimation_stack(amps_a[k:k + 1], amps_b[k:k + 1], 1e300)
        np.testing.assert_array_equal(f_obj[k], alone[0], strict=True)
    # the near set loses about cond(B) eps of f_obj to rounding, and no more
    oracle = tomography_mp(amps_a[2], amps_b[2])
    np.testing.assert_allclose(f_obj[2], oracle["f_obj"], rtol=0,
                               atol=1e-7 * np.abs(oracle["f_obj"]).max())


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


def _nine_term_sum(t):
    """t[0] + ... + t[8] in numpy 2's pairwise order for a row of nine, written out."""
    return ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7])) + t[8]


def _reference_chain(y, eps, f_obj, f_ec, sifting):
    """The paper's chain step by step in plain numpy, deviation bounds from the oracle.

    Both deviation bounds are taken on every pair by the two-branch
    oracle, and np.where keeps the one the sign of f_obj selects. Returns
    the core's six columns, delta_vir_lower and the mask of the rows
    without signal; warns of the omega_ref_upper clamp as estimate does.
    """
    zz_pairs = list(ZZ_PAIR_INDICES)
    roots = np.sqrt(1.0 - eps)
    lower, upper = deviation_bounds(y, roots)
    terms = f_obj * np.where(f_obj > 0.0, upper, lower)
    om_ref_up = np.maximum(_nine_term_sum(np.moveaxis(terms, -1, 0)), 0.0)
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
        columns, silent, _ = _estimate_core(y, eps, f_obj, f_ec, sifting)
    assert core_warnings == []  # its callers warn of the clamp
    with warnings.catch_warnings(record=True) as reference_warnings:
        warnings.simplefilter("always")
        reference, delta_vir_low, reference_silent = _reference_chain(y, eps, f_obj, f_ec, sifting)
    np.testing.assert_array_equal(silent, reference_silent)
    signal = ~silent
    for core_column, reference_column in zip(columns, reference):
        _assert_bits_equal(core_column[signal], reference_column[signal])
    # estimate and the reference warn of the omega_ref_upper clamp once,
    # over every row, those without signal included
    inputs = EstimationInputs(YieldTable(y), SideChannelParams(eps), f_obj)
    with warnings.catch_warnings(record=True) as estimate_warnings:
        warnings.simplefilter("always")
        if silent.any():
            with pytest.raises(NoSignalError, match=NO_SIGNAL) as excinfo:
                estimate(inputs, f_ec=f_ec, sifting_prefactor=sifting)
            np.testing.assert_array_equal(excinfo.value.rows, silent)
        else:
            estimate(inputs, f_ec=f_ec, sifting_prefactor=sifting)
    assert _messages(estimate_warnings) == _messages(reference_warnings)
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


def test_core_sums_omega_ref_upper_in_its_written_order():
    # omega_ref_upper adds its nine terms in one fixed order, whatever
    # order a numpy reduction would take: each row's bits are those of
    # Python floats added in that order, and so do omega_ref = f_obj . Y
    # and the omega_ref that estimate returns. Terms of mixed sign and of
    # six decades of size make a sequential sum differ in the last bits
    rng = np.random.default_rng(5)
    n = 2000
    y = rng.uniform(0.0, 1.0, (n, 9))
    eps = rng.uniform(0.0, 1e-4, (n, 9))
    f_obj = rng.uniform(-0.1, 0.1, (n, 9)) * 10.0 ** rng.uniform(-6.0, 0.0, (n, 9))
    (*_, omega_ref_up, _, _), _, omega_ref = _estimate_core(y, eps, f_obj, 1.16, None)
    lower, upper = deviation_bounds(y, np.sqrt(1.0 - eps))
    terms = (f_obj * np.where(f_obj > 0.0, upper, lower)).tolist()
    want = [max(_nine_term_sum(row), 0.0) for row in terms]
    assert (omega_ref_up > 0.0).sum() > n // 4
    assert omega_ref_up.tolist() == want
    want = [_nine_term_sum(row) for row in (f_obj * y).tolist()]
    assert omega_ref.tolist() == want
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the lift may clamp a bound above 1
        result = estimate(EstimationInputs(YieldTable(y), SideChannelParams(eps), f_obj))
    assert result.omega_ref.tolist() == want


def test_core_covers_the_clamp_and_the_edges():
    # fixed cases the property must not miss: the omega_ref_upper clamp
    # and its warning, eps 0 and 1, zero coefficients and a silent row
    y = np.full((4, 9), 0.9)
    y[3, list(ZZ_PAIR_INDICES)] = 0.0
    eps = np.array([[0.0] * 9, [1.0] * 9, [1e-6] * 9, [1e-6] * 9])
    f_obj = np.array([[2.0, 0.0, -0.0, 1.0, 0.5, 0.0, -1.0, 0.0, 0.0]] * 4)
    columns, silent, _ = _estimate_core(y, eps, f_obj, 1.16, None)
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
    (rate, *_), *_ = _estimate_core(y, eps, f_obj, 1.16, None)
    assert (rate > 0.0).all()
    _check_core_against_reference(y, eps, f_obj, 1.16, None)


def _check_stages_against_per_pair(eps, terms, y, f_obj, f_ec, sifting):
    """The columns of the two stages, checked against the per-pair core on the same rows.

    eps (rows), terms, _point_terms' nine columns (rows), and y and f_obj
    (rows, 9), broadcast as a sweep passes them. omega_ref_upper may
    differ by 1e-14 of the sum of its terms' magnitudes, sum |f_i| (Y_i +
    g_i), g_i the bound of Y_i; where that sum is at most ten times
    omega_ref_upper, the columns after it by 1e-14 relative; e_zz and
    zeta_obs, of one code, not at all.
    """
    rows = np.broadcast_shapes(eps.shape, *(np.shape(column) for column in terms))
    y, eps9 = np.broadcast_to(y, rows + (9,)), np.broadcast_to(eps[..., None], rows + (9,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a clamped omega_ref_upper is the caller's to warn of
        two = _row_columns(eps, terms, y, f_obj)
        pair, silent, _ = _estimate_core(y, eps9, f_obj, f_ec, sifting)
    signal = ~silent
    two = [np.broadcast_to(column, rows)[signal] for column in two]
    pair = [column[signal] for column in pair]
    lower, upper = deviation_bounds(y, np.sqrt(1.0 - eps9))
    scale = (np.abs(f_obj) * (y + np.where(f_obj > 0.0, upper, lower))).sum(axis=-1)[signal]
    rate, e_zz, e_xx, omega_ref_up, omega_up, zeta_obs = two
    assert np.all(np.abs(omega_ref_up - pair[3]) <= 1e-14 * scale)
    conditioned = scale <= 10.0 * pair[3]
    for got, want in ((rate, pair[0]), (e_xx, pair[2]), (omega_up, pair[4])):
        np.testing.assert_allclose(got[conditioned], want[conditioned], rtol=1e-14, atol=0)
    _assert_bits_equal(e_zz, pair[1])
    _assert_bits_equal(zeta_obs, pair[5])
    return two, conditioned


@st.composite
def _stage_batches(draw):
    """(eps, y, f_obj, f_ec, sifting) of curves x deltas x points, as a sweep's stages see them."""
    curves, deltas, points = (draw(st.integers(1, n)) for n in (3, 3, 5))
    shared = draw(st.booleans())  # a frequency table's one loss: one yield row per delta
    shape = (deltas, 1 if shared else points, 9)
    y = np.array(draw(st.lists(_UNIT, min_size=math.prod(shape), max_size=math.prod(shape))))
    y = y.reshape(shape)
    f_obj = np.array(draw(st.lists(_F_OBJ, min_size=9 * deltas, max_size=9 * deltas)))
    f_obj = f_obj.reshape(deltas, 1, 9)
    if deltas > 1 and draw(st.booleans()):  # a delta listed twice
        y[-1], f_obj[-1] = y[0], f_obj[0]
    eps = np.array(draw(st.lists(_UNIT, min_size=curves * points, max_size=curves * points)))
    eps = eps.reshape(curves, 1, points)
    if draw(st.booleans()):  # near a working point
        y[..., [0, 4]] *= 1e-2
        eps, f_obj = eps * 1e-6, f_obj * 1e-3
    return (eps, y, f_obj, draw(st.sampled_from([1.0, 1.16, 2.0])),
            draw(st.sampled_from([None, 0.0, 4.0 / 9.0, 1.0])))


@settings(max_examples=60, deadline=None)
@given(_stage_batches())
@example((np.array([[[0.0, 1.0, 1e-6, 1e-300]]]), np.full((1, 1, 9), 0.5),
          np.array([[[2.0, -1.0, 0.0, -0.0, 0.5, 0.1, -0.2, 1.0, -3.0]]]), 1.16, None))
def test_two_stages_agree_with_the_per_pair_core(batch):
    # the factored deviation sum of a row's one eps against the nine
    # bounds per row, saturated pairs, eps 0 and 1 and shared yields included
    eps, y, f_obj, f_ec, sifting = batch
    terms = np.array(_point_terms(y, f_obj, f_ec, sifting))
    _check_stages_against_per_pair(eps, terms, y, f_obj, f_ec, sifting)


def test_two_stages_cover_saturated_rows_and_both_ends_of_eps():
    # eps 1 saturates every pair whose yield is not at the far end, eps 0
    # none; the rows in between take the factored form. Where no pair
    # saturates, eps 0 gives omega_ref itself and the forms agree bit for bit
    y = np.array([[[0.3, 0.6, 0.1, 0.8, 0.5, 0.2, 0.4, 0.7, 0.9]]])
    f_obj = np.array([[[0.4, -0.1, 0.2, -0.05, 0.5, -0.1, 0.05, 0.15, -0.05]]])
    eps = np.array([[[0.0, 1e-12, 1e-6, 0.5, 1.0]]])
    terms = np.array(_point_terms(y, f_obj, 1.16, None))
    (rate, _, _, omega_ref_up, *_), conditioned = _check_stages_against_per_pair(
        eps, terms, y, f_obj, 1.16, None)
    assert conditioned[:3].all()
    assert omega_ref_up[0] == max(terms[0, 0, 0], 0.0)
    assert omega_ref_up[-1] == (f_obj * (f_obj > 0.0)).sum()  # each pair at its far bound


@settings(max_examples=100, deadline=None)
@given(st.lists(_UNIT, min_size=1, max_size=20))
@example([1e-300, 2.0**-52, 0.75, 1.0 - 2.0**-53])
def test_the_lift_of_one_eps_has_the_bits_of_nine_equal_anchors(eps):
    # the second stage lifts through the anchor itself: the sum over the
    # four ZZ anchors, ((r + r) + r) + r, rounds to exactly 4r
    roots = np.sqrt(1.0 - np.array(eps))
    _assert_bits_equal(roots, _delta_vir_lower(np.repeat(roots[:, None], 9, axis=1)))


def test_a_tables_stages_agree_with_the_per_pair_core(monkeypatch):
    # whole tables with a refused delta, repeated ones and eps 0 and 1, on
    # both axes: the one call of its second stage that each table makes
    # agrees with the per-pair core on the same views, and the error rows
    # are those of the per-pair mask
    config = SweepConfig(eps_values=(0.0, 1e-6, 1.0), delta_values=(0.126, math.pi / 4, 0.0, 0.126),
                         loss_range=LossRange(0.0, 30.0, 2.5),
                         frequency_range=FrequencyRange(0.1, 4.0, 0.5, loss_db=5.0))
    calls = []

    def checked(eps, terms, y, f_obj):
        calls.append(_check_stages_against_per_pair(eps, terms, y, f_obj, config.f_ec, None))
        return _row_columns(eps, terms, y, f_obj)

    monkeypatch.setattr(mdiqkd.sweep, "_row_columns", checked)
    for build in (loss_table, frequency_table):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = build(config)
        assert sum("exceeds ceiling" in (e or "") for e in table.errors) == table.numbers.shape[1] // 4
    assert len(calls) == 2


@pytest.mark.parametrize("delta", [0.0, 0.126, 0.2, 0.7, 0.77, 0.78, 0.785])
def test_a_tables_setup_and_eps_zero_chain_match_60_digit_arithmetic(delta):
    # a loss table at eps 0, where every deviation bound is its yield, and
    # its setup, against the mpmath chain from (delta, channel, loss); each
    # array is held to 1e-12 of its largest entry. f_obj . Y amplifies the
    # relative errors of its terms by kappa = sum |f_obj_i Y_i| / |f_obj . Y|,
    # 2.1e6 at delta 0.785, so e_xx and the key rate that it enters are held
    # to 16 kappa eps where that exceeds 1e-12
    channel = ChannelParams()
    losses = [0.0, 4.0, 8.0]
    config = SweepConfig(channel=channel, eps_values=(0.0,), delta_values=(delta,),
                         loss_range=LossRange(0.0, 8.0, 4.0))
    table = loss_table(config)
    amps = reference_amplitudes([delta])
    s_matrix, cond_s, f_obj, errors = build_estimation_stack(amps, amps)
    b = _side_matrices(amps)
    p_vir, s_vir = build_virtual(amps[0, :2], amps[0, :2])
    rates = transmission_rates_grid(channel, losses)
    yields = reference_yields(s_matrix, rates).y[0]
    assert errors == [None] and table.good.all()
    columns = dict(zip(KeyRatePoint._fields, table.numbers))

    def close(got, want, rtol=1e-12):
        want = np.asarray(want)
        np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.abs(want).max())

    for i, loss in enumerate(losses):
        oracle = setup_chain_mp(delta, channel.eta_d, channel.p_d, channel.e_d, loss)
        if i == 0:
            for got, key in ((amps[0], "amplitudes"), (b[0], "b"), (s_matrix[0], "s_matrix"),
                             (p_vir, "p_vir"), (s_vir, "s_vir"), (f_obj[0], "f_obj")):
                close(got, oracle[key])
            assert cond_s[0] == pytest.approx(oracle["cond_s"], rel=1e-12)
        close(rates[i], oracle["rates"])
        close(yields[i], oracle["yields"])
        assert columns["cond_s"][i] == cond_s[0]
        assert columns["e_zz"][i] == pytest.approx(oracle["e_zz"], rel=1e-12)
        rtol = max(1e-12, 16 * oracle["kappa"] * np.finfo(float).eps)
        for name in ("e_xx", "key_rate"):
            assert columns[name][i] == pytest.approx(oracle[name], rel=rtol), name


@pytest.mark.parametrize("delta", [0.0, 0.126, 0.7])
def test_the_two_stages_add_no_error_against_60_digit_arithmetic(delta):
    # a loss table's rows at eps 0 to 1e-12, against the mpmath chain at
    # the same eps: the two stages err by at most the per-pair core's error
    # on the same yields and f_obj, plus 4e-15 of the size of the terms
    # of f_obj . Y, sum |f_i Y_i| = kappa |f_obj . Y|. The two forms round
    # those terms differently, and kappa (about 130 here) amplifies that
    # to about 1e-14 of the value, either way. Both take om = 1 - y^2 of
    # the anchor y = sqrt(1 - eps), which carries a relative error of
    # about 1e-16 / eps, so neither is near the exact value at tiny eps
    channel, eps, losses = ChannelParams(), [0.0, 1e-6, 1e-9, 1e-12], [0.0, 4.0, 8.0]
    config = SweepConfig(channel=channel, eps_values=tuple(eps), delta_values=(delta,),
                         loss_range=LossRange(0.0, 8.0, 4.0))
    columns = dict(zip(KeyRatePoint._fields, loss_table(config).numbers.reshape(11, 4, 3)))
    amps = reference_amplitudes([delta])
    s_matrix, _, f_obj, _ = build_estimation_stack(amps, amps)
    yields = reference_yields(s_matrix, transmission_rates_grid(channel, losses)).y[0]
    eps9 = np.broadcast_to(np.array(eps)[:, None, None], (4, 3, 9))
    (_, _, e_xx, omega_ref_up, omega_up, _), *_ = _estimate_core(
        np.broadcast_to(yields, (4, 3, 9)), eps9, f_obj[0], 1.16, None)
    per_pair = {"omega_ref_upper": omega_ref_up, "omega_upper": omega_up, "e_xx": e_xx}
    for j, loss in enumerate(losses):
        oracle = setup_chain_mp(delta, channel.eta_d, channel.p_d, channel.e_d, loss, eps=eps)
        for name, pair in per_pair.items():
            two_error = np.abs(columns[name][:, j] / oracle[name] - 1.0)
            pair_error = np.abs(pair[:, j] / oracle[name] - 1.0)
            assert np.all(two_error <= pair_error + 4e-15 * oracle["kappa"]), name

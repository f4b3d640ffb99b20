import math
from dataclasses import replace

import numpy as np
import pytest

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
from mdiqkd.channel import YieldTable
from mdiqkd.estimator import (
    EstimationInputs,
    EstimationResult,
    IllConditionedError,
    NoSignalError,
    binary_entropy,
    build_estimation_stack,
    bit_error_rate,
    delta_vir_lower,
    key_rate,
    omega_ref_matrix,
    omega_ref_upper,
    omega_upper,
    phase_error_rate,
)
from mdiqkd.pauli_core import ZZ_PAIR_INDICES, DegenerateInputError
from oracles import entropy_highprec, fock_povm, omega_ref_direct, virtual_ensemble_16dim

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


def test_binary_entropy_endpoints_and_half():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_against_high_precision():
    for p in (0.11, 0.015, 0.3, 0.499):
        assert binary_entropy(p) == pytest.approx(entropy_highprec(p), abs=1e-14)
    assert round(binary_entropy(0.11), 6) == 0.499916


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_key_rate_no_errors_returns_yield():
    assert key_rate(0.37, 0.0, 0.0, 1.16) == pytest.approx(0.37, abs=1e-15)


def test_key_rate_floors_at_half_phase_error():
    assert key_rate(0.3, 0.1, 0.5, 1.16) == 0.0


def test_key_rate_no_revival_beyond_half():
    # a certified phase-error bound past 1/2 must not resurrect the rate
    assert key_rate(0.3, 0.01, 0.9, 1.16) == 0.0
    assert key_rate(0.3, 0.01, 1.0, 1.16) == 0.0


def test_key_rate_validation():
    with pytest.raises(ValueError):
        key_rate(0.1, 0.0, 1.2, 1.16)
    with pytest.raises(ValueError):
        key_rate(0.1, 0.0, 0.0, 0.9)
    with pytest.raises(ValueError):
        key_rate(-0.1, 0.0, 0.0, 1.16)


def test_bit_error_rate_perfect_anticorrelation():
    assert bit_error_rate([0.0, 0.25, 0.25, 0.0]) == 0.0


def test_bit_error_rate_symmetry():
    assert bit_error_rate([0.1, 0.1, 0.1, 0.1]) == 0.5


def test_bit_error_rate_no_signal():
    with pytest.raises(NoSignalError):
        bit_error_rate([0.0, 0.0, 0.0, 0.0])


def test_no_signal_threshold_is_the_smallest_normal_zeta_obs():
    # zeta_obs = ZZ sum / 4: exactly the smallest normal float still counts
    tiny = np.finfo(float).tiny
    assert bit_error_rate([4.0 * tiny, 0.0, 0.0, 0.0]) == 1.0
    assert phase_error_rate(0.0, tiny) == 0.0
    below = np.nextafter(tiny, 0.0)
    with pytest.raises(NoSignalError, match="all ZZ yields vanish"):
        bit_error_rate([4.0 * below, 0.0, 0.0, 0.0])
    with pytest.raises(NoSignalError, match="zeta_obs must be positive"):
        phase_error_rate(0.0, below)


def test_no_signal_error_names_the_batch_rows():
    *_, inputs = _pipeline()
    quiet = np.zeros(9)
    denormal = quiet.copy()
    denormal[ZZ_PAIR_INDICES[0]] = 5e-324  # smallest denormal
    batch = np.stack([inputs.yields.y, quiet, denormal])

    def run(rows):
        y = batch[rows]
        return estimate(replace(inputs, yields=YieldTable(y),
                                eps=SideChannelParams.uniform(np.full(len(y), 1e-6))))

    # a ZZ sum of one denormal step is no signal either: zeta_obs, a
    # quarter of the sum, lies below the smallest normal float
    with pytest.raises(NoSignalError, match="all ZZ yields vanish") as excinfo:
        run([0, 1, 2])
    assert excinfo.value.rows.tolist() == [False, True, True]
    assert run([0]).key_rate.shape == (1,)
    # phase_error_rate applies the same threshold to the zeta_obs it is given
    tiny = np.finfo(float).tiny
    with pytest.raises(NoSignalError, match="zeta_obs must be positive") as excinfo:
        phase_error_rate(np.zeros(3), np.array([0.1, 5e-324, tiny]))
    assert excinfo.value.rows.tolist() == [False, True, False]
    # a single point gets a 0-d mask
    with pytest.raises(NoSignalError) as excinfo:
        bit_error_rate([0.0, 0.0, 0.0, 0.0])
    assert excinfo.value.rows.shape == () and excinfo.value.rows


def test_bit_error_rate_tracks_misalignment():
    _, povm, yields, _ = _pipeline(loss_db=4.0)
    zz = yields.y[list(ZZ_PAIR_INDICES)]
    observed = bit_error_rate(zz)
    oracle = fock_povm(0.145, 6.02e-6, 0.015, 4.0)
    diag = [oracle[i, i] for i in range(4)]
    expected = (diag[0] + diag[3]) / sum(diag)
    assert observed == pytest.approx(expected, abs=1e-12)
    # dominated by e_d, diluted by dark counts
    assert abs(observed - 0.015) < 5e-3


def test_phase_error_rate_basics():
    assert phase_error_rate(0.0, 0.1) == 0.0
    assert phase_error_rate(0.05, 0.1) == 0.5
    assert phase_error_rate(0.5, 0.1) == 1.0  # clamped
    with pytest.raises(NoSignalError):
        phase_error_rate(0.1, 0.0)
    # a bound on a probability weight is never negative
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="omega_up"):
            phase_error_rate(bad, 0.1)


def test_delta_vir_lower_limits():
    assert delta_vir_lower(SideChannelParams.uniform(0.0)) == 1.0
    assert delta_vir_lower(SideChannelParams.uniform(1.0)) == 0.0
    assert delta_vir_lower(SideChannelParams.uniform(1e-6)) == pytest.approx(
        0.9999995, abs=5e-8
    )


def test_omega_upper_limits():
    assert omega_upper(0.3, 1.0) == 0.3
    assert omega_upper(0.0, 0.5) == pytest.approx(0.75, abs=1e-15)
    with pytest.raises(ValueError):
        omega_upper(-0.1, 0.5)
    with pytest.raises(ValueError):
        omega_upper(0.1, 1.5)


def test_omega_upper_clamps_with_warning():
    with pytest.warns(UserWarning, match="clamped"):
        assert omega_upper(1.2, 0.5) == 1.0


def test_omega_ref_zero_cases():
    ref, povm, yields, inputs = _pipeline()
    zeros = YieldTable(np.zeros(9))
    assert omega_ref_matrix(replace(inputs, yields=zeros)) == 0.0

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
    ref, _, yields, inputs = _pipeline(delta=BENCHMARK_DELTA, eps_value=0.0)
    upper = omega_ref_upper(inputs.f_obj, yields, SideChannelParams.uniform(0.0))
    assert abs(upper - omega_ref_matrix(inputs)) < 1e-12


def test_omega_ref_upper_saturated_eps():
    ref, _, yields, inputs = _pipeline()
    upper = omega_ref_upper(inputs.f_obj, yields, SideChannelParams.uniform(1.0))
    expected = sum(f for f in inputs.f_obj if f > 0.0)
    assert upper == pytest.approx(expected, abs=1e-12)


def test_omega_ref_upper_strictly_above_matrix_value():
    ref, _, yields, inputs = _pipeline(delta=BENCHMARK_DELTA)
    base = omega_ref_matrix(inputs)
    upper = omega_ref_upper(inputs.f_obj, yields, SideChannelParams.uniform(1e-6))
    assert upper > base


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

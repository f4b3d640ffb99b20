import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdiqkd import (
    SETTINGS,
    ChannelParams,
    ModulationErrors,
    build_bsm_povm,
    build_S_matrix,
    make_reference_state,
    reference_yields,
    transmission_rates,
)
from mdiqkd import channel
from mdiqkd.channel import (
    PSI_MINUS,
    BsmPovm,
    YieldTable,
    transmission_rates_grid,
)
from oracles import bloch_by_trace, density_matrix, fock_povm

BENCHMARK = ChannelParams()  # eta_d=0.145, p_d=6.02e-6, e_d=0.015


def _ideal_states():
    return [make_reference_state(s, ModulationErrors()) for s in SETTINGS]


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(eta_d=1.2)
    with pytest.raises(ValueError):
        ChannelParams(loss_db=-1.0)
    with pytest.raises(ValueError):
        ChannelParams(loss_db=math.nan)
    with pytest.raises(ValueError):
        ChannelParams(p_za=0.0)


def test_eta_arm_combines_detector_and_line():
    assert channel._arm_transmission(0.145, 4.0) == pytest.approx(
        0.145 * 10.0 ** (-0.2), abs=1e-15
    )


def test_transmission_rates_grid_etas_equal_eta_arm(monkeypatch):
    # the grid's per-arm transmissions are those build_bsm_povm takes at each loss
    seen = []
    arm_weights = channel._arm_weights
    monkeypatch.setattr(channel, "_arm_weights",
                        lambda eta: seen.append(eta) or arm_weights(eta))
    losses = [0.013 + 0.04 * k for k in range(500)] + [0, 3, 7.77, 1e-300, 400.0]
    transmission_rates_grid(BENCHMARK, losses)
    for loss in losses:
        build_bsm_povm(BENCHMARK.replace(loss_db=loss))
    np.testing.assert_array_equal(seen[0], seen[1:])
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="losses"):
            transmission_rates_grid(BENCHMARK, [1.0, bad])


def test_povm_no_photons_no_darks_is_zero():
    povm = build_bsm_povm(ChannelParams(eta_d=0.0, p_d=0.0, e_d=0.0))
    assert np.abs(povm.m).max() == 0.0


def test_povm_ideal_limit_is_half_singlet_projector():
    povm = build_bsm_povm(ChannelParams(eta_d=1.0, p_d=0.0, e_d=0.0, loss_db=0.0))
    target = 0.5 * np.outer(PSI_MINUS, PSI_MINUS)
    np.testing.assert_allclose(povm.m, target, rtol=0, atol=1e-12)
    oracle = fock_povm(1.0, 0.0, 0.0, 0.0)
    np.testing.assert_allclose(povm.m, oracle, rtol=0, atol=1e-12)


def test_povm_matches_fock_oracle_at_benchmark_params():
    povm = build_bsm_povm(ChannelParams(loss_db=4.0))
    oracle = fock_povm(0.145, 6.02e-6, 0.015, 4.0)
    np.testing.assert_allclose(povm.m, oracle, rtol=0, atol=1e-12)


def test_povm_matches_fock_oracle_at_random_params():
    rng = np.random.default_rng(2024)
    # p_d and e_d over all of [0, 1], both ends included
    ends = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.0), (0.0, 0.5)]
    draws = ends + [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)) for _ in range(24)]
    for p_d, e_d in draws:
        params = ChannelParams(
            eta_d=rng.uniform(0.01, 1.0), p_d=p_d, e_d=e_d, loss_db=rng.uniform(0.0, 30.0)
        )
        oracle = fock_povm(params.eta_d, params.p_d, params.e_d, params.loss_db)
        np.testing.assert_allclose(build_bsm_povm(params).m, oracle, rtol=0, atol=1e-12)


def test_povm_hermitian_and_bounded_on_grid():
    for eta_d in (0.1, 0.5, 1.0):
        for p_d in (0.0, 1e-6, 0.05):
            for e_d in (0.0, 0.015, 0.3):
                for loss in (0.0, 8.0, 25.0):
                    m = build_bsm_povm(
                        ChannelParams(eta_d=eta_d, p_d=p_d, e_d=e_d, loss_db=loss)
                    ).m
                    assert np.abs(m - m.T).max() < 1e-12
                    eig = np.linalg.eigvalsh(m)
                    assert eig.min() > -1e-12 and eig.max() < 1.0 + 1e-12


def test_transmission_rates_zero_povm():
    class _Zero:
        m = np.zeros((4, 4))

    assert np.abs(transmission_rates(_Zero())).max() == 0.0


def test_transmission_rates_ideal_projector():
    povm = build_bsm_povm(ChannelParams(eta_d=1.0, p_d=0.0, e_d=0.0))
    q = transmission_rates(povm)
    # <psi-|sigma_l x sigma_l|psi-> = -1 for l in {X, Z}
    expected = np.zeros(9)
    expected[0], expected[4], expected[8] = 1 / 8, -1 / 8, -1 / 8
    np.testing.assert_allclose(q, expected, rtol=0, atol=1e-15)


def test_bsm_povm_validation():
    povm = BsmPovm([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert povm.m.dtype == float and povm.m.shape == (4, 4)
    with pytest.raises(ValueError, match="4x4"):
        BsmPovm(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="4x4"):
        BsmPovm(np.zeros(16))
    skew = np.zeros((4, 4))
    skew[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        BsmPovm(skew)
    with pytest.raises(ValueError, match="eigenvalues"):
        BsmPovm(1.5 * np.eye(4))
    with pytest.raises(ValueError, match="eigenvalues"):
        BsmPovm(-0.1 * np.eye(4))
    # one element only: a stack of them is refused by its shape
    for shape in ((3, 4), (4,), (0, 4, 4), (1, 4, 4), (4, 4, 4), (2, 2, 4, 4)):
        with pytest.raises(ValueError, match="4x4"):
            BsmPovm(np.zeros(shape))


def test_povm_check_refuses_nan_and_keeps_the_boundary_elements():
    for m in (np.full((4, 4), np.nan), np.diag([0.5, 0.5, np.nan, 0.5])):
        with pytest.raises(ValueError, match="^POVM eigenvalues out of"):
            BsmPovm(m)
    # singular and full-rank elements at the ends of [0, 1]: the ideal
    # singlet filter (eigenvalues 0, 0, 0, 1/2), a projector and the identity
    for m in (0.5 * np.outer(PSI_MINUS, PSI_MINUS), np.diag([1.0, 1.0, 0.0, 0.0]), np.eye(4),
              np.zeros((4, 4))):
        assert BsmPovm(m).m.tobytes() == m.tobytes()
    for m in ((1.0 + 1e-11) * np.eye(4), np.diag([0.2, -1e-11, 0.3, 0.4])):
        with pytest.raises(ValueError, match="^POVM eigenvalues out of"):
            BsmPovm(m)


def test_transmission_rates_of_each_survival_element_are_its_own_rates():
    rng = np.random.default_rng(5)
    for _ in range(50):
        params = ChannelParams(p_d=rng.uniform(0.0, 1.0), e_d=rng.uniform(0.0, 1.0))
        components = channel._component_rates(params)
        for element, rates in zip((components @ channel._ELEMENT_BASIS).reshape(4, 4, 4),
                                  components[:, :9]):
            q = transmission_rates(BsmPovm(element))
            assert q.shape == (9,)
            np.testing.assert_allclose(q, rates, rtol=0, atol=1e-16)
            # M >= 0 keeps every rate within the q_II envelope
            assert np.abs(q).max() <= q[0] + 1e-12


def _check_relay_elements(p_d, e_d):
    """Assert that the four survival-case elements of _RATE_COEFFICIENTS are POVM elements.

    Unrotated and rotated by the misalignment e_d, their eigenvalues lie
    in [0, 1/2], to 1e-15.
    """
    for misalignment in (0.0, e_d):
        rates = channel._component_rates(ChannelParams(p_d=p_d, e_d=misalignment))
        eig = np.linalg.eigvalsh((rates @ channel._ELEMENT_BASIS).reshape(4, 4, 4))
        assert eig.min() >= -1e-15 and eig.max() <= 0.5 + 1e-15, (p_d, misalignment, eig)


_UNIT_ENDS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(p_d=_UNIT_ENDS, e_d=_UNIT_ENDS, eta_d=st.floats(0.0, 1.0), loss=st.floats(0.0, 60.0))
@example(p_d=0.0, e_d=0.0, eta_d=1.4420353988664076e-156, loss=0.0)
def test_closed_form_rates_match_the_fock_oracle(p_d, e_d, eta_d, loss):
    # the grid's rates, closed forms in p_d and e_d, against Fock
    # propagation, and against the rates of the element build_bsm_povm
    # assembles from them; relative to q_II, which bounds every rate, and
    # to a few subnormal steps, where a q_II below 1e-308 keeps no relative
    # precision (eta_d 1.44e-156 gives q_II 2.6e-313, one step from Fock's)
    params = ChannelParams(eta_d=eta_d, p_d=p_d, e_d=e_d)
    q = transmission_rates_grid(params, [loss])[0]
    oracle = bloch_by_trace(fock_povm(eta_d, p_d, e_d, loss)) / 4.0
    scale, step = oracle[0], 4 * np.finfo(float).smallest_subnormal
    np.testing.assert_allclose(q, oracle, rtol=0, atol=1e-14 * scale + step)
    element = build_bsm_povm(params.replace(loss_db=loss))
    np.testing.assert_allclose(q, transmission_rates(element), rtol=0, atol=1e-15 * scale + step)


@settings(max_examples=150, deadline=None)
@given(p_d=_UNIT_ENDS, e_d=_UNIT_ENDS)
def test_relay_elements_have_their_eigenvalues_in_zero_to_one_half(p_d, e_d):
    # no table checks the relay: its elements are module constants in p_d
    # and e_d, POVM elements over all of [0, 1], which every M(eta_arm)
    # mixes convexly
    _check_relay_elements(p_d, e_d)


def test_relay_constants_check_refuses_a_both_photon_element_that_is_not_positive(monkeypatch):
    # a both-photon element with +1/8 sigma_Z x sigma_Z, not -1/8, has the
    # eigenvalue -(1 - p_d)^2 / 4 on psi+
    coefficients = channel._RATE_COEFFICIENTS.copy()
    coefficients[0, 8, 1] = 0.125
    monkeypatch.setattr(channel, "_RATE_COEFFICIENTS", coefficients)
    for p_d, e_d in ((0.0, 0.0), (6.02e-6, 0.015), (0.5, 1.0)):
        with pytest.raises(AssertionError):
            _check_relay_elements(p_d, e_d)


def test_yield_table_range_enforced():
    with pytest.raises(ValueError):
        YieldTable(np.full(9, 1.5))
    with pytest.raises(ValueError):
        YieldTable(np.full(9, -0.1))
    with pytest.raises(ValueError):
        YieldTable(np.full(9, math.nan))
    with pytest.raises(ValueError):
        YieldTable(np.zeros(8))


def test_yields_zero_rates():
    s = build_S_matrix(_ideal_states(), _ideal_states())
    table = reference_yields(s, np.zeros(9))
    assert np.abs(table.y).max() == 0.0


def test_yields_refuse_nan_rates_and_rows_not_nine_long():
    # the rates are a plain array: a nan one fails the YieldTable range
    # check, and a row of another length the product with S
    s = build_S_matrix(_ideal_states(), _ideal_states())
    with pytest.raises(ValueError, match=r"^yields must lie in \[0, 1\], got nan$"):
        reference_yields(s, np.full(9, math.nan))
    for q in (np.zeros((4, 8)), np.zeros(10)):
        with pytest.raises(ValueError):
            reference_yields(s, q)


def test_yields_ideal_values():
    s = build_S_matrix(_ideal_states(), _ideal_states())
    povm = build_bsm_povm(ChannelParams(eta_d=1.0, p_d=0.0, e_d=0.0))
    y = reference_yields(s, transmission_rates(povm)).y
    # anti-correlated pairs announce with probability 1/4, correlated never
    assert y[1] == pytest.approx(0.25, abs=1e-12)
    assert y[3] == pytest.approx(0.25, abs=1e-12)
    assert abs(y[0]) < 1e-15 and abs(y[4]) < 1e-15


def test_yields_clamp_warns_beyond_dust():
    s = 2.0 * np.eye(9)
    rates = np.array([0.6] + [0.0] * 8)
    with pytest.warns(UserWarning, match="clamped"):
        reference_yields(s, rates)


def test_yields_clamp_warning_names_the_largest_clamp():
    # one yield of -1e-8, every other in [0, 1]
    s, rates = np.eye(9), np.array([1.0] + [0.5] * 8)
    s[0, 0] = -1e-8
    with pytest.warns(UserWarning) as caught:
        y = reference_yields(s, rates).y
    assert [str(w.message) for w in caught] == ["yield clamped by 1.000e-08, exceeds 1e-9 dust"]
    assert y[0] == 0.0 and np.all(y[1:] == 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reference_yields(s / 100.0, rates)  # a clamp of 1e-10 is dust


def test_yields_of_a_stack_clamp_in_place():
    # 20 matrices S over 500 losses: beside the yields, the sum over j
    # holds one product of their size, and the clamp adds no copy
    deltas = np.linspace(0.0, 0.2, 20)
    stack = np.array([build_S_matrix(*[[make_reference_state(s, ModulationErrors(d, d, d))
                                        for s in SETTINGS]] * 2) for d in deltas])
    rates = transmission_rates_grid(BENCHMARK, np.linspace(0.0, 30.0, 500))
    tracemalloc.start()
    try:
        y = reference_yields(stack, rates).y
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == (20, 500, 9)
    assert peak < 2.5 * y.nbytes, peak / y.nbytes


def test_yields_match_direct_traces():
    rng = np.random.default_rng(99)
    for _ in range(50):
        deltas_a = ModulationErrors(*rng.uniform(-0.3, 0.3, 3))
        deltas_b = ModulationErrors(*rng.uniform(-0.3, 0.3, 3))
        ref_a = [make_reference_state(s, deltas_a) for s in SETTINGS]
        ref_b = [make_reference_state(s, deltas_b) for s in SETTINGS]
        povm = build_bsm_povm(
            ChannelParams(eta_d=rng.uniform(0.05, 1.0), p_d=rng.uniform(0, 0.01),
                          e_d=rng.uniform(0, 0.1), loss_db=rng.uniform(0, 20))
        )
        table = reference_yields(
            build_S_matrix(ref_a, ref_b), transmission_rates(povm)
        )
        direct = [
            float(np.trace(povm.m @ np.kron(density_matrix(a), density_matrix(b))))
            for a in ref_a
            for b in ref_b
        ]
        np.testing.assert_allclose(table.y, direct, rtol=0, atol=1e-12)


def test_yields_monotone_in_loss():
    s = build_S_matrix(_ideal_states(), _ideal_states())
    previous = None
    for loss in np.linspace(0.0, 30.0, 16):
        y = reference_yields(
            s, transmission_rates(build_bsm_povm(ChannelParams(loss_db=float(loss))))
        ).y
        if previous is not None:
            assert np.all(y <= previous + 1e-15)
        previous = y

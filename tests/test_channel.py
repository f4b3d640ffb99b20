import math

import numpy as np
import pytest

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
from mdiqkd.channel import PSI_MINUS, TransmissionRates, YieldTable
from oracles import density_matrix, fock_povm

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
    assert ChannelParams(loss_db=4.0).eta_arm == pytest.approx(
        0.145 * 10.0 ** (-0.2), abs=1e-15
    )


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
    for _ in range(20):
        params = ChannelParams(
            eta_d=rng.uniform(0.01, 1.0),
            p_d=rng.uniform(0.0, 0.2),
            e_d=rng.uniform(0.0, 1.0),
            loss_db=rng.uniform(0.0, 30.0),
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

    assert np.abs(transmission_rates(_Zero()).q).max() == 0.0


def test_transmission_rates_ideal_projector():
    povm = build_bsm_povm(ChannelParams(eta_d=1.0, p_d=0.0, e_d=0.0))
    q = transmission_rates(povm).q
    # <psi-|sigma_l x sigma_l|psi-> = -1 for l in {X, Z}
    expected = np.zeros(9)
    expected[0], expected[4], expected[8] = 1 / 8, -1 / 8, -1 / 8
    np.testing.assert_allclose(q, expected, rtol=0, atol=1e-15)


def test_transmission_rates_envelope_enforced():
    with pytest.raises(ValueError):
        TransmissionRates(np.array([0.1, 0.2, 0, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        TransmissionRates(np.full(9, math.nan))


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
    table = reference_yields(s, TransmissionRates(np.zeros(9)))
    assert np.abs(table.y).max() == 0.0


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
    rates = TransmissionRates(np.array([0.6] + [0.0] * 8))
    with pytest.warns(UserWarning, match="clamped"):
        reference_yields(s, rates)


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

import math
from types import SimpleNamespace

import numpy as np
import pytest

from mdiqkd import (
    SETTINGS,
    ModulationErrors,
    bloch_vector,
    build_S_matrix,
    build_virtual,
    make_reference_state,
)
from mdiqkd.pauli_core import (
    PAULI_PAIRS,
    PAULI_PRODUCTS,
    DegenerateInputError,
    QubitState,
    VirtualEnsemble,
)
from oracles import bloch_by_trace, density_matrix, virtual_ensemble_16dim

IDEAL = ModulationErrors()


def _states(deltas):
    return [make_reference_state(s, deltas) for s in SETTINGS]


def _amp(state):
    return np.array([state.amp0, state.amp1])


def test_reference_state_0z_identity():
    s = make_reference_state("0Z", IDEAL)
    assert (s.amp0, s.amp1) == (1.0, 0.0)


def test_reference_state_0x_balanced():
    s = make_reference_state("0X", IDEAL)
    assert s.amp0 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert s.amp1 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


def test_reference_state_with_modulation_error():
    s = make_reference_state("0Z", ModulationErrors(delta1=0.126))
    assert s.amp0 == pytest.approx(math.cos(0.063), abs=1e-15)
    assert s.amp1 == pytest.approx(math.sin(0.063), abs=1e-15)


def test_reference_state_rejects_unknown_setting():
    with pytest.raises(ValueError):
        make_reference_state("1X", IDEAL)


def test_modulation_errors_bounded():
    with pytest.raises(ValueError):
        ModulationErrors(delta2=math.pi / 2)
    with pytest.raises(ValueError):
        ModulationErrors(delta1=math.nan)


def test_qubit_state_requires_normalization():
    with pytest.raises(ValueError):
        QubitState(1.0, 1.0)
    with pytest.raises(ValueError):
        QubitState(math.nan, 0.0)


def test_bloch_vector_eigenstates():
    assert bloch_vector(QubitState(1.0, 0.0)).tolist() == [1.0, 0.0, 1.0]
    plus = QubitState(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    np.testing.assert_allclose(bloch_vector(plus), [1.0, 1.0, 0.0], rtol=0, atol=1e-15)


def test_bloch_vector_double_angle():
    s = QubitState(math.cos(0.063), math.sin(0.063))
    np.testing.assert_allclose(
        bloch_vector(s), [1.0, math.sin(0.126), math.cos(0.126)], rtol=0, atol=1e-15
    )


def test_bloch_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        bloch_vector(SimpleNamespace(amp0=1.0, amp1=1.0))
    with pytest.raises(ValueError):
        bloch_vector(SimpleNamespace(amp0=math.nan, amp1=0.0))


def test_s_matrix_zz_row():
    ideal = _states(IDEAL)
    # (0Z,0Z): (I,I), (I,Z), (Z,I), (Z,Z) are 1, X entries vanish
    np.testing.assert_allclose(build_S_matrix(ideal, ideal)[0], [1, 0, 1, 0, 0, 0, 1, 0, 1],
                               rtol=0, atol=1e-15)


def test_s_matrix_rows_match_trace_oracle():
    # row 3i + j holds the product-state coefficients of ref_a[i] and ref_b[j]
    rng = np.random.default_rng(1234)
    for _ in range(120):
        ref_a, ref_b = [
            [QubitState(math.cos(t), math.sin(t)) for t in rng.uniform(-math.pi, math.pi, 3)]
            for _ in range(2)
        ]
        s = build_S_matrix(ref_a, ref_b)
        for i, a in enumerate(ref_a):
            for j, b in enumerate(ref_b):
                rho = np.kron(density_matrix(a), density_matrix(b))
                np.testing.assert_allclose(s[3 * i + j], bloch_by_trace(rho), rtol=0, atol=1e-12)


def test_bloch_products_equal_kron_bitwise():
    # outer products form each coefficient as the one product np.kron forms
    rng = np.random.default_rng(4321)
    for _ in range(200):
        ref_a, ref_b = [
            [QubitState(math.cos(t), math.sin(t)) for t in rng.uniform(-math.pi, math.pi, 3)]
            for _ in range(2)
        ]
        kron = np.array([np.kron(bloch_vector(a), bloch_vector(b))
                         for a in ref_a for b in ref_b])
        np.testing.assert_array_equal(build_S_matrix(ref_a, ref_b), kron)


def test_pauli_products_are_the_krons_of_their_pairs():
    paulis = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
              "Z": np.array([[1.0, 0.0], [0.0, -1.0]])}
    assert PAULI_PRODUCTS.shape == (9, 4, 4) and PAULI_PRODUCTS.dtype == float
    for product, (l, lp) in zip(PAULI_PRODUCTS, PAULI_PAIRS, strict=True):
        # bytes, so that each -0.0 of np.kron is pinned too
        assert product.tobytes() == np.kron(paulis[l], paulis[lp]).tobytes()


def test_s_matrix_first_row_ideal():
    s = build_S_matrix(_states(IDEAL), _states(IDEAL))
    np.testing.assert_allclose(s[0], [1, 0, 1, 0, 0, 0, 1, 0, 1], rtol=0, atol=1e-15)


def test_s_matrix_ideal_invertible():
    s = build_S_matrix(_states(IDEAL), _states(IDEAL))
    assert np.linalg.matrix_rank(s) == 9


def test_s_matrix_conditioning_with_modulation_errors():
    d = ModulationErrors(0.126, 0.126, 0.126)
    cond = np.linalg.cond(build_S_matrix(_states(d), _states(d)))
    assert math.isfinite(cond)
    assert cond < 100.0


def test_virtual_ideal_probabilities():
    ens = build_virtual(_states(IDEAL)[:2], _states(IDEAL)[:2])
    np.testing.assert_allclose(ens.p_vir, [0.25, 0.25], rtol=0, atol=1e-15)


def test_virtual_ideal_states_are_plus_plus_and_minus_minus():
    ens = build_virtual(_states(IDEAL)[:2], _states(IDEAL)[:2])
    # |+>|+> has every coefficient over {I,X} equal to 1
    np.testing.assert_allclose(ens.s_vir[0], [1, 1, 0, 1, 1, 0, 0, 0, 0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(ens.s_vir[1], [1, -1, 0, -1, 1, 0, 0, 0, 0], rtol=0, atol=1e-15)


def test_virtual_matches_16dim_oracle():
    d = ModulationErrors(0.126, 0.126, 0.126)
    sa = _states(d)[:2]
    ens = build_virtual(sa, sa)
    amps = [_amp(s) for s in sa]
    oracle = virtual_ensemble_16dim(amps, amps)
    assert sum(p for p, _ in oracle.values()) == pytest.approx(1.0, abs=1e-12)
    for row, (j, s) in zip(range(2), ((0, 0), (1, 1))):
        p, theta = oracle[j, s]
        assert ens.p_vir[row] == pytest.approx(p, abs=1e-12)
        np.testing.assert_allclose(ens.s_vir[row], bloch_by_trace(theta), rtol=0, atol=1e-12)


def test_virtual_kept_weight_is_x_convention_independent():
    d = ModulationErrors(0.126, -0.07, 0.126)
    amps = [_amp(s) for s in _states(d)[:2]]
    standard = virtual_ensemble_16dim(amps, amps, x_sign=+1)
    flipped = virtual_ensemble_16dim(amps, amps, x_sign=-1)
    kept = standard[0, 0][0] + standard[1, 1][0]
    kept_flipped = flipped[0, 0][0] + flipped[1, 1][0]
    assert kept == pytest.approx(kept_flipped, abs=1e-14)


def test_virtual_ensemble_validation():
    rows = np.zeros((2, 9))
    with pytest.raises(ValueError):
        VirtualEnsemble(np.array([0.5, 1.5]), rows)
    with pytest.raises(ValueError):
        VirtualEnsemble(np.array([0.5, math.nan]), rows)
    with pytest.raises(ValueError):
        VirtualEnsemble(np.array([0.5, 0.5]), np.zeros((2, 8)))


def test_virtual_degenerate_reference_set():
    near = math.pi / 2 - 1e-9
    d = ModulationErrors(delta1=near, delta2=near)
    with pytest.raises(DegenerateInputError):
        build_virtual(_states(d)[:2], _states(d)[:2])

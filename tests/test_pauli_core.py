import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd import (
    SETTINGS,
    ModulationErrors,
    bloch_vector,
    build_S_matrix,
    build_virtual,
    make_reference_state,
)
from mdiqkd.pauli_core import (
    PAULI_PRODUCTS,
    DegenerateInputError,
    _kron_sides,
    _side_matrices,
    build_estimation_stack,
    reference_amplitudes,
)
from oracles import bloch_by_trace, density_matrix, virtual_ensemble_16dim

IDEAL = ModulationErrors()


def _states(deltas):
    return [make_reference_state(s, deltas) for s in SETTINGS]


def test_reference_state_0z_identity():
    assert make_reference_state("0Z", IDEAL).tolist() == [1.0, 0.0]


def test_reference_state_0x_balanced():
    s = make_reference_state("0X", IDEAL)
    np.testing.assert_allclose(s, [1.0 / math.sqrt(2.0)] * 2, rtol=0, atol=1e-15)


def test_reference_state_with_modulation_error():
    s = make_reference_state("0Z", ModulationErrors(delta1=0.126))
    np.testing.assert_allclose(s, [math.cos(0.063), math.sin(0.063)], rtol=0, atol=1e-15)


_HALF_PI = math.pi / 2
# modulation errors over (-pi/2, pi/2): anywhere, both zeros, and within
# 1e-9 of either end
DELTAS = st.one_of(
    st.floats(-_HALF_PI, _HALF_PI, exclude_min=True, exclude_max=True),
    st.sampled_from([0.0, -0.0]),
    st.floats(_HALF_PI - 1e-9, _HALF_PI, exclude_max=True),
    st.floats(-_HALF_PI, -_HALF_PI + 1e-9, exclude_min=True),
)


def _formula(setting, d):
    # the reference states as the paper writes them, one setting at a time
    if setting == "0Z":
        return math.cos(d / 2.0), math.sin(d / 2.0)
    if setting == "1Z":
        return math.sin(d / 2.0), math.cos(d / 2.0)
    return math.sin(math.pi / 4.0 + d / 2.0), math.cos(math.pi / 4.0 + d / 2.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(DELTAS, max_size=8))
def test_reference_amplitudes_are_the_states_bit_for_bit(deltas):
    got = reference_amplitudes(deltas)
    assert got.shape == (len(deltas), 3, 2) and got.dtype == np.float64
    states = [[make_reference_state(s, ModulationErrors(d, d, d)) for s in SETTINGS]
              for d in deltas]
    formula = np.array([[_formula(s, d) for s in SETTINGS] for d in deltas]).reshape(-1, 3, 2)
    assert got.tobytes() == np.asarray(states, dtype=float).reshape(-1, 3, 2).tobytes()
    assert got.tobytes() == formula.tobytes()


def test_reference_state_takes_its_own_settings_delta():
    errors = ModulationErrors(0.1, -0.2, 0.3)
    rows = reference_amplitudes([0.1, -0.2, 0.3])
    for k, setting in enumerate(SETTINGS):
        state = make_reference_state(setting, errors)
        assert state.shape == (2,) and state.dtype == np.float64
        assert state.tobytes() == rows[k, k].tobytes()


def test_reference_state_rejects_unknown_setting():
    with pytest.raises(ValueError):
        make_reference_state("1X", IDEAL)


def test_modulation_errors_bounded():
    with pytest.raises(ValueError):
        ModulationErrors(delta2=math.pi / 2)
    with pytest.raises(ValueError):
        ModulationErrors(delta1=math.nan)


def test_bloch_vector_eigenstates():
    assert bloch_vector(np.array([1.0, 0.0])).tolist() == [1.0, 0.0, 1.0]
    plus = np.full(2, 1.0 / math.sqrt(2.0))
    np.testing.assert_allclose(bloch_vector(plus), [1.0, 1.0, 0.0], rtol=0, atol=1e-15)


def test_bloch_vector_double_angle():
    s = np.array([math.cos(0.063), math.sin(0.063)])
    np.testing.assert_allclose(
        bloch_vector(s), [1.0, math.sin(0.126), math.cos(0.126)], rtol=0, atol=1e-15
    )


def test_bloch_vector_rejects_unnormalized():
    for amps in ([1.0, 1.0], [math.nan, 0.0]):
        with pytest.raises(ValueError, match="^state not normalized$"):
            bloch_vector(amps)


def test_bloch_vector_takes_the_two_amplitudes_of_one_state():
    for amps in ([1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]):
        with pytest.raises(ValueError, match="^expected the two amplitudes of one state$"):
            bloch_vector(amps)


# the one-set entry points, each as a function of one side's three
# reference states (both sides the same), and the message each gives
# for amplitudes that are not normalized
ONE_SET = {
    "bloch_vector": (lambda ref: np.array([bloch_vector(a) for a in ref]),
                     "^state not normalized$"),
    "build_S_matrix": (lambda ref: build_S_matrix(ref, ref), "^state not normalized$"),
    "build_virtual": (lambda ref: np.concatenate([np.ravel(v) for v in
                                                  build_virtual(ref[:2], ref[:2])]),
                      "^virtual outcome probabilities sum to "),
    "build_estimation_stack": (lambda ref: build_estimation_stack([ref], [ref])[2][0],
                               "^state not normalized$"),
}


@pytest.mark.parametrize("name", ONE_SET)
def test_one_set_entry_points_take_amplitude_arrays(name):
    # make_reference_state rows and the matching rows of one
    # reference_amplitudes array give the same bits
    run, _ = ONE_SET[name]
    deltas = (0.126, -0.07, 0.05)
    states = _states(ModulationErrors(*deltas))
    rows = reference_amplitudes(deltas)[[0, 1, 2], [0, 1, 2]]
    assert run(states).tobytes() == run(rows).tobytes()
    d = 0.126
    assert run(_states(ModulationErrors(d, d, d))).tobytes() == \
        run(reference_amplitudes([d])[0]).tobytes()


@pytest.mark.parametrize("name", ONE_SET)
def test_one_set_entry_points_refuse_unnormalised_amplitudes(name):
    run, message = ONE_SET[name]
    scaled = reference_amplitudes([0.126])[0] * (1.0 + 1e-6)
    with pytest.raises(ValueError, match=message):
        run(scaled)


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
            [np.array([math.cos(t), math.sin(t)]) for t in rng.uniform(-math.pi, math.pi, 3)]
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
            [np.array([math.cos(t), math.sin(t)]) for t in rng.uniform(-math.pi, math.pi, 3)]
            for _ in range(2)
        ]
        kron = np.array([np.kron(bloch_vector(a), bloch_vector(b))
                         for a in ref_a for b in ref_b])
        np.testing.assert_array_equal(build_S_matrix(ref_a, ref_b), kron)
        # and S is the Kronecker product of the sides, whose rows are the Bloch vectors
        sides = [_side_matrices(np.array([ref])) for ref in (ref_a, ref_b)]
        np.testing.assert_array_equal(sides[0][0], [bloch_vector(a) for a in ref_a])
        np.testing.assert_array_equal(_kron_sides(*sides)[0], np.kron(sides[0][0], sides[1][0]))


def test_pauli_products_are_the_krons_of_their_pairs():
    paulis = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
              "Z": np.array([[1.0, 0.0], [0.0, -1.0]])}
    assert PAULI_PRODUCTS.shape == (9, 4, 4) and PAULI_PRODUCTS.dtype == float
    # the Pauli pairs (I,I), (I,X), (I,Z), (X,I), ..., (Z,Z)
    pairs = [(l, lp) for l in "IXZ" for lp in "IXZ"]
    for product, (l, lp) in zip(PAULI_PRODUCTS, pairs, strict=True):
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
    p_vir, _ = build_virtual(_states(IDEAL)[:2], _states(IDEAL)[:2])
    np.testing.assert_allclose(p_vir, [0.25, 0.25], rtol=0, atol=1e-15)


def test_virtual_ideal_states_are_plus_plus_and_minus_minus():
    _, s_vir = build_virtual(_states(IDEAL)[:2], _states(IDEAL)[:2])
    # |+>|+> has every coefficient over {I,X} equal to 1
    np.testing.assert_allclose(s_vir[0], [1, 1, 0, 1, 1, 0, 0, 0, 0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(s_vir[1], [1, -1, 0, -1, 1, 0, 0, 0, 0], rtol=0, atol=1e-15)


def test_virtual_matches_16dim_oracle():
    d = ModulationErrors(0.126, 0.126, 0.126)
    amps = _states(d)[:2]
    p_vir, s_vir = build_virtual(amps, amps)
    oracle = virtual_ensemble_16dim(amps, amps)
    assert sum(p for p, _ in oracle.values()) == pytest.approx(1.0, abs=1e-12)
    for row, (j, s) in zip(range(2), ((0, 0), (1, 1))):
        p, theta = oracle[j, s]
        assert p_vir[row] == pytest.approx(p, abs=1e-12)
        np.testing.assert_allclose(s_vir[row], bloch_by_trace(theta), rtol=0, atol=1e-12)


def test_virtual_kept_weight_is_x_convention_independent():
    d = ModulationErrors(0.126, -0.07, 0.126)
    amps = _states(d)[:2]
    standard = virtual_ensemble_16dim(amps, amps, x_sign=+1)
    flipped = virtual_ensemble_16dim(amps, amps, x_sign=-1)
    kept = standard[0, 0][0] + standard[1, 1][0]
    kept_flipped = flipped[0, 0][0] + flipped[1, 1][0]
    assert kept == pytest.approx(kept_flipped, abs=1e-14)


def test_stacks_refuse_the_wrong_number_of_states_per_side():
    three = reference_amplitudes([0.0, 0.1])
    two = three[:, :2]
    with pytest.raises(ValueError) as excinfo:
        _side_matrices(two)
    assert str(excinfo.value) == "expected three reference states per side"
    for a, b in ((two[0], three[0]), (three[0], two[0])):
        with pytest.raises(ValueError) as excinfo:
            build_virtual(b, a)
        assert str(excinfo.value) == "expected the two Z-basis states per side"


def test_build_virtual_refuses_unnormalised_amplitudes():
    # doubling one side's amplitudes makes the four outcome probabilities sum to 4
    z = reference_amplitudes([0.1])[0, :2]
    for a, b in ((2.0 * z, z), (z, 2.0 * z)):
        with pytest.raises(ValueError, match="^virtual outcome probabilities sum to ") as excinfo:
            build_virtual(a, b)
        assert float(str(excinfo.value).rsplit(" ", 1)[1]) == pytest.approx(4.0, rel=1e-12)
    build_virtual(z, z)


def test_virtual_degenerate_reference_set():
    near = math.pi / 2 - 1e-9
    d = ModulationErrors(delta1=near, delta2=near)
    with pytest.raises(DegenerateInputError):
        build_virtual(_states(d)[:2], _states(d)[:2])

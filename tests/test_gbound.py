import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd import g_lower, g_upper
from mdiqkd.channel import BsmPovm, ChannelParams, TransmissionRates, YieldTable
from mdiqkd.estimator import EstimationInputs, EstimationResult, SideChannelParams
from mdiqkd.pauli_core import ModulationErrors, QubitState, VirtualEnsemble
from mdiqkd.sweep import FrequencyRange, LossRange, SweepConfig
from oracles import deviation_bounds, random_bounded_operator, random_pure_state

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# the seams, the endpoints and the smallest floats, beside any unit value
edgy = st.one_of(st.sampled_from([0.0, 5e-324, 1e-12, 0.25, 0.5, 0.75, 1.0 - 2.0**-53, 1.0]),
                 unit)


def test_lower_zero_branch():
    assert g_lower(0.3, 0.0) == 0.0


def test_lower_x_equal_one():
    # 1 + (1 - y^2)(-1) = y^2
    assert g_lower(1.0, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_lower_perfect_fidelity_is_identity():
    for x in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert g_lower(x, 1.0) == x


def test_upper_saturated_branch():
    assert g_upper(0.5, 0.6) == 1.0


def test_upper_x_zero():
    assert g_upper(0.0, 0.5) == pytest.approx(0.75, abs=1e-15)


def test_upper_perfect_fidelity_is_identity():
    for x in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert g_upper(x, 1.0) == x


@pytest.mark.parametrize("func", [g_lower, g_upper])
@pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
def test_rejects_out_of_range(func, bad):
    with pytest.raises(ValueError):
        func(bad, 0.5)
    with pytest.raises(ValueError):
        func(0.5, bad)


@given(x=unit, y=unit)
def test_outputs_stay_in_unit_interval(x, y):
    assert 0.0 <= g_lower(x, y) <= 1.0
    assert 0.0 <= g_upper(x, y) <= 1.0


@given(x=unit, y=unit)
def test_lower_never_exceeds_upper(x, y):
    assert g_lower(x, y) <= g_upper(x, y) + 1e-12


def test_branch_points_are_continuous():
    # the analytic branch must meet the constant branch at the seam
    for y in np.linspace(0.05, 0.95, 19):
        assert abs(g_lower(1.0 - y * y, y)) < 1e-12
        assert abs(g_upper(y * y, y) - 1.0) < 1e-12


def test_monotone_in_fidelity_on_grid():
    xs = np.linspace(0.0, 1.0, 21)
    ys = np.linspace(0.0, 1.0, 41)
    for x in xs:
        lows = [g_lower(x, y) for y in ys]
        ups = [g_upper(x, y) for y in ys]
        assert all(b - a >= -1e-12 for a, b in zip(lows, lows[1:]))
        assert all(b - a <= 1e-12 for a, b in zip(ups, ups[1:]))


def test_midpoint_concavity_on_grid():
    xs = np.linspace(0.0, 1.0, 41)
    for y in (0.1, 0.3, 0.7, 0.9, 0.999):
        for x1 in xs[::4]:
            for x2 in xs[::4]:
                mid = 0.5 * (x1 + x2)
                assert g_upper(mid, y) >= 0.5 * (g_upper(x1, y) + g_upper(x2, y)) - 1e-12
                assert -g_lower(mid, y) >= 0.5 * (-g_lower(x1, y) - g_lower(x2, y)) - 1e-12


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       dim=st.integers(min_value=2, max_value=8))
def test_sandwich_against_random_operators(seed, dim):
    # the defining property: both bounds must bracket <R|M|R>
    rng = np.random.default_rng(seed)
    m = random_bounded_operator(rng, dim)
    a = random_pure_state(rng, dim)
    r = random_pure_state(rng, dim)
    x = float(np.real(a.conj() @ m @ a))
    x = min(max(x, 0.0), 1.0)
    y = float(abs(a.conj() @ r))
    y = min(y, 1.0)
    target = float(np.real(r.conj() @ m @ r))
    assert g_lower(x, y) - 1e-10 <= target <= g_upper(x, y) + 1e-10


@given(x=st.lists(edgy, min_size=1, max_size=9), y=st.lists(edgy, min_size=1, max_size=9))
def test_bits_of_the_two_branch_formula(x, y):
    # one sign-selected branch gives each bound's bits, for floats and arrays
    x, y = np.array(x), np.array(y)[:, None]
    lower, upper = deviation_bounds(x, y)
    for got, want in ((g_lower(x, y), lower), (g_upper(x, y), upper)):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    assert g_lower(x[0], y[0, 0]) == lower[0, 0] and g_upper(x[0], y[0, 0]) == upper[0, 0]


# one valid instance of each checked value type
VALUE_TYPES = {
    "QubitState": lambda: QubitState(1.0, 0.0),
    "ModulationErrors": lambda: ModulationErrors(delta1=0.126),
    "VirtualEnsemble": lambda: VirtualEnsemble(np.array([0.5, 0.5]), np.zeros((2, 9))),
    "BsmPovm": lambda: BsmPovm(np.zeros((4, 4))),
    "TransmissionRates": lambda: TransmissionRates(np.zeros(9)),
    "YieldTable": lambda: YieldTable(np.zeros(9)),
    "SideChannelParams": lambda: SideChannelParams.uniform(1e-6),
    "EstimationInputs": lambda: EstimationInputs(None, None, np.zeros(9)),
    "EstimationResult": lambda: EstimationResult(0.0, 0.0, 1.0, 0.0, 0.25, 0.0, 0.0, 0.25),
    # the config records, which compare by their fields
    "ChannelParams": ChannelParams,
    "LossRange": LossRange,
    "FrequencyRange": lambda: FrequencyRange(loss_db=5.0),
    "SweepConfig": SweepConfig,
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_are_read_only(name):
    value = VALUE_TYPES[name]()
    assert type(value).__name__ == name and not hasattr(value, "__dict__")
    for field in type(value).__slots__:  # a default None is set too
        before = getattr(value, field)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, field, 0.5)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1.0

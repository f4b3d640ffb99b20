"""The digit kernel against its oracle, Python's own "%.12g"."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd._g12 import print_rows


def _fields(values):
    """values printed as one field per row, read back field by field."""
    block = np.array([values], dtype=np.float64)
    text = "".join(print_rows(block, ["|"], "\n"))
    lines = text.split("\n")
    assert lines.pop() == "" and all(line.startswith("|") for line in lines)
    return [line[1:] for line in lines]


def _assert_like_python(values):
    expected = ["%.12g" % v for v in values]
    mismatches = [(v, g, e) for v, g, e in zip(values, _fields(values), expected) if g != e]
    assert not mismatches, mismatches[:5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[st.floats(width=64)] * 3), min_size=1, max_size=40))
def test_every_field_is_the_bytes_of_percent_12g(rows):
    # any float64: +-0, subnormals, +-inf and nan among them
    prefixes, suffix = ["{", ", b: ", ", c: "], "}\n"
    block = np.array(rows, dtype=np.float64).T
    text = "".join(print_rows(block, prefixes, suffix))
    assert text == "".join(
        "".join(p + "%.12g" % v for p, v in zip(prefixes, row)) + suffix for row in rows)


def test_every_layout_of_sign_exponent_and_digit_count():
    # the d leading digits of each pattern: no zero digit, and zeros
    # between a first and a last nonzero digit
    values = [float(f"{sign}{pattern[:d]}e{e - d + 1}")
              for sign in ("", "-") for e in range(-330, 309) for d in range(1, 13)
              for pattern in ("987654321987", "1" + "0" * (d - 2) + "7" if d > 1 else "7")]
    _assert_like_python(values)


def test_powers_of_ten_their_neighbours_and_rounding_ties():
    values = []
    for e in range(-323, 309):
        power = float(f"1e{e}")
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
    # a carry into the next exponent, across the fixed/exponent border
    values += [9.9999999999995e-05, 999999999999.5, 1e16, 99999999999.95]
    # exact binary ties at the 13th digit round half to even
    values += [1234567890125.0, 1234567890135.0, 100000000000.5, 100000000001.5]
    values += [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, np.finfo(np.float64).max]
    _assert_like_python(values + [-v for v in values])

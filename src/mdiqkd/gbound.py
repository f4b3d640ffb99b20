"""Deviation bounds that transfer detection probabilities between nearby states.

Given two pure states A and R with overlap |<A|R>| >= y, and any operator
0 <= M <= 1, the probability <R|M|R> is pinned to an interval around the
known probability x = <A|M|A>:

    g_lower(x, y) <= <R|M|R> <= g_upper(x, y)

Both bounds are piecewise: g_lower is 0 below x = 1 - y^2 and g_upper
saturates at 1 above x = y^2. On the analytic branch they read

    x + (1 - y^2)(1 - 2x) -/+ 2y sqrt((1 - y^2) x (1 - x))

with - for the lower and + for the upper bound. -g_lower and g_upper are
concave in x; g_lower is nondecreasing and g_upper nonincreasing in y.

Both functions take floats or broadcastable arrays: a float argument
gives a float, arrays give an array of the broadcast shape. The other
layers share the argument checks and the float conversion defined here.
"""

import numbers

import numpy as np

__all__ = ["g_lower", "g_upper"]


def unit_interval(value, name):
    """value as a float array; ValueError unless every entry lies in [0, 1]."""
    arr = np.asarray(value, dtype=float)
    inside = (arr >= 0.0) & (arr <= 1.0)  # nan fails both comparisons
    if not inside.all():
        bad = float(arr[~inside].flat[0])
        raise ValueError(f"{name} must lie in [0, 1], got {bad!r}")
    return arr


def real(value, name):
    """value itself; ValueError unless it is a real number and not a bool.

    YAML spells true and false as booleans, which Python would otherwise
    take as the numbers 1 and 0.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def plain(arr):
    """A 0-d result as a Python float; arrays pass through."""
    arr = np.asarray(arr)
    return arr.item() if arr.ndim == 0 else arr


def _branch(x, y, sign):
    # sqrt argument can stray to ~-1e-16 at the endpoints
    root = np.sqrt(np.maximum((1.0 - y * y) * x * (1.0 - x), 0.0))
    return x + (1.0 - y * y) * (1.0 - 2.0 * x) + sign * 2.0 * y * root


def g_lower(x, y):
    """Lower bound on <R|M|R> given x = <A|M|A> and overlap y = |<A|R>|.

    Returns 0 where x < 1 - y^2; otherwise the analytic branch, clamped
    to [0, 1] against floating-point dust.
    """
    x, y = unit_interval(x, "x"), unit_interval(y, "y")
    branch = np.clip(_branch(x, y, -1.0), 0.0, 1.0)
    return plain(np.where(x < 1.0 - y * y, 0.0, branch))


def g_upper(x, y):
    """Upper bound on <R|M|R> given x = <A|M|A> and overlap y = |<A|R>|.

    Returns 1 where x > y^2; otherwise the analytic branch, clamped to
    [0, 1].
    """
    x, y = unit_interval(x, "x"), unit_interval(y, "y")
    branch = np.clip(_branch(x, y, +1.0), 0.0, 1.0)
    return plain(np.where(x > y * y, 1.0, branch))

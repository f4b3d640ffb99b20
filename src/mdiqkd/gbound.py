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
gives a float, arrays give an array of the broadcast shape. Both check
their arguments and wrap _bound, the one unchecked implementation, which
the estimator's core also calls with a per-entry choice of bound. The
other layers share the argument checks, the float conversion, the
read-only base of their value types and the value-compared base of their
config records defined here.
"""

import numbers

import numpy as np

__all__ = ["g_lower", "g_upper"]


class Frozen:
    """Base of the checked value types: each field is set once, in __init__.

    A subclass lists its fields in __slots__ and stores each after its
    checks; setting a field again, or deleting one, raises AttributeError.
    Instances compare and hash by identity.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Frozen):
    """Base of the config records: a Frozen that compares by its fields.

    Records of one class with equal fields are equal and hash equal; repr
    names each field, as a dataclass's does. replace(**changes) builds a
    changed copy through __init__, so every check runs again; a name that
    is no field raises TypeError.
    """

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        return type(self)(**dict(zip(self.__slots__, self._fields()), **changes))


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


def _bound(x, y, upper):
    """g_upper(x, y) where upper is true, g_lower(x, y) elsewhere; unchecked.

    One analytic branch, whose sign upper selects: it has the bits of
    either bound, as the sign factor +-2 is exact. upper broadcasts
    against x and y, a bool for one bound throughout.
    """
    om = 1.0 - y * y
    # sqrt argument can stray to ~-1e-16 at the endpoints
    root = np.sqrt(np.maximum(om * x * (1.0 - x), 0.0))
    branch = x + om * (1.0 - 2.0 * x) + (upper * 4.0 - 2.0) * y * root
    branch = np.clip(branch, 0.0, 1.0)
    # g_upper saturates at 1 above x = y^2, g_lower at 0 below x = 1 - y^2
    saturated = ((x > y * y) & upper) | ((x < om) & np.logical_not(upper))
    return np.where(saturated, upper, branch)


def g_lower(x, y):
    """Lower bound on <R|M|R> given x = <A|M|A> and overlap y = |<A|R>|.

    Returns 0 where x < 1 - y^2; otherwise the analytic branch, clamped
    to [0, 1] against floating-point dust.
    """
    x, y = unit_interval(x, "x"), unit_interval(y, "y")
    return plain(_bound(x, y, False))


def g_upper(x, y):
    """Upper bound on <R|M|R> given x = <A|M|A> and overlap y = |<A|R>|.

    Returns 1 where x > y^2; otherwise the analytic branch, clamped to
    [0, 1].
    """
    x, y = unit_interval(x, "x"), unit_interval(y, "y")
    return plain(_bound(x, y, True))

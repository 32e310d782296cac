"""Shared pieces of the whole-range properties: what a call may raise
besides returning finite values, heights on every scale, and the scale
law of a quantity of dimension length^-3."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from torvdw import errors

#: a typed error of the package, or a ValueError
TYPED_ERRORS = (ValueError, *(c for c in vars(errors).values() if isinstance(c, type)
                              and issubclass(c, Exception) and c.__module__ == errors.__name__))

FLOATS_MAX = np.finfo(float).max
FLOATS_TINY = np.finfo(float).tiny

#: (height, whether it is in units of b): on the whole float range, or a
#: multiple of b on the scale of the toroid
HEIGHTS = st.one_of(
    st.tuples(st.floats(min_value=-FLOATS_MAX, max_value=FLOATS_MAX), st.just(False)),
    st.tuples(st.floats(min_value=-100.0, max_value=100.0), st.just(True)))


def assert_scaled_by_inverse_cube(call, at_one: float, lam: float, rel: float):
    """call() is the value, on a toroid scaled to tube radius lam, of a
    quantity in 1/nm^3 that is at_one at b = 1.  Where at_one lam^-3 (taken
    in 50 digits) is a normal float, the result matches it to rel; below
    the smallest normal float, it is a float of at most that size, within
    rel of it in absolute terms; past the float range, the call raises
    ResultOverflowError.  It never warns."""
    with mpmath.workdps(50):
        want = mpmath.mpf(at_one) / mpmath.mpf(lam) ** 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if abs(want) > FLOATS_MAX:
            with pytest.raises(errors.ResultOverflowError):
                call()
            return
        got = call()
    assert isinstance(got, float)
    if abs(want) >= FLOATS_TINY:
        assert abs(got - want) <= rel * abs(want), (got, want)
    else:
        assert abs(got) <= FLOATS_TINY and abs(got - want) <= rel * FLOATS_TINY, (got, want)

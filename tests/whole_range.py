"""Shared pieces of the whole-range properties: what a call may raise
besides returning finite values, and heights on every scale."""

import numpy as np
from hypothesis import strategies as st

from torvdw import errors

#: a typed error of the package, or a ValueError
TYPED_ERRORS = (ValueError, *(c for c in vars(errors).values() if isinstance(c, type)
                              and issubclass(c, Exception) and c.__module__ == errors.__name__))

FLOATS_MAX = np.finfo(float).max

#: (height, whether it is in units of b): on the whole float range, or a
#: multiple of b on the scale of the toroid
HEIGHTS = st.one_of(
    st.tuples(st.floats(min_value=-FLOATS_MAX, max_value=FLOATS_MAX), st.just(False)),
    st.tuples(st.floats(min_value=-100.0, max_value=100.0), st.just(True)))

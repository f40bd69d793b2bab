import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcal.util import float_row_format, fmt_float

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 123456789012345678.0]


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.one_of(st.floats(width=64), st.sampled_from(SPECIAL)), min_size=1, max_size=30),
    st.sampled_from([",", " "]),
)
def test_row_format_equals_joined_fmt_float(row, sep):
    values = np.array(row, dtype=np.float64)
    expected = sep.join(fmt_float(v) for v in values)
    assert float_row_format(len(row), sep) % tuple(values.tolist()) == expected
    assert float_row_format(len(row), sep) % tuple(values) == expected

"""Property-based tests of the interpreter's C-style integer arithmetic.

The Machine's ``/`` and ``%`` deliberately follow C semantics (truncation
toward zero, remainder with the dividend's sign) rather than Python's
floor semantics, because the cost model and the paper's benchmarks assume
C.  Division by zero is defined to yield zero so random programs can't
crash the tracer.  These invariants pin that contract down.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.interp.machine import _c_div, _c_mod

_SETTINGS = dict(
    max_examples=200, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])

ints = st.integers(min_value=-10**9, max_value=10**9)
nonzero_ints = ints.filter(lambda v: v != 0)


@settings(**_SETTINGS)
@given(a=ints, b=nonzero_ints)
def test_div_truncates_toward_zero(a, b):
    q = _c_div(a, b)
    assert isinstance(q, int)
    assert abs(q) == abs(a) // abs(b)
    # Truncation: the quotient never moves away from zero, and its sign
    # (when nonzero) matches the signs of the operands.
    if q != 0:
        assert (q > 0) == ((a > 0) == (b > 0))
    assert abs(q * b) <= abs(a)


@settings(**_SETTINGS)
@given(a=ints, b=nonzero_ints)
def test_div_mod_identity(a, b):
    # The C99 identity: (a/b)*b + a%b == a.
    assert _c_div(a, b) * b + _c_mod(a, b) == a


@settings(**_SETTINGS)
@given(a=ints, b=nonzero_ints)
def test_mod_sign_and_magnitude(a, b):
    r = _c_mod(a, b)
    assert abs(r) < abs(b)
    # C99: the remainder has the sign of the dividend (or is zero).
    if r != 0:
        assert (r > 0) == (a > 0)


@settings(**_SETTINGS)
@given(a=ints)
def test_division_by_zero_yields_zero(a):
    assert _c_div(a, 0) == 0
    assert _c_mod(a, 0) == 0


@settings(**_SETTINGS)
@given(a=ints, b=nonzero_ints)
def test_matches_python_on_sign_agreeing_operands(a, b):
    # When both operands share a sign, C and Python semantics coincide.
    if (a >= 0) == (b > 0):
        assert _c_div(a, b) == a // b
        assert _c_mod(a, b) == a % b


def _reference_mod(a, b):
    """The remainder as the interpreter used to compute it: through the
    truncating quotient for ints, ``fmod``-style for floats."""
    if b == 0:
        return 0
    if isinstance(a, int) and isinstance(b, int):
        return a - _c_div(a, b) * b
    return a - b * int(a / b)


# The workloads' LCGs reach ~2.4e18 before taking a remainder.
big_ints = st.integers(min_value=-10**19, max_value=10**19)
# Divisors far below 1 overflow int(a / b) on both implementations.
floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(
    lambda v: v == 0 or abs(v) >= 1e-3)


@settings(**_SETTINGS)
@given(a=big_ints, b=st.one_of(big_ints, ints))
def test_mod_matches_reference_on_large_ints(a, b):
    assert _c_mod(a, b) == _reference_mod(a, b)
    if b != 0:
        assert _c_div(a, b) * b + _c_mod(a, b) == a


@settings(**_SETTINGS)
@given(a=st.one_of(floats, ints), b=st.one_of(floats, ints))
def test_mod_matches_reference_on_floats(a, b):
    assert _c_mod(a, b) == _reference_mod(a, b)

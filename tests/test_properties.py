"""Property tests on random smooth plane curves against closed forms.

For smooth f the Jacobian ring is a complete intersection of three forms of
degree d-1, so its Hilbert function is that of ((1-t^(d-1))/(1-t))^3; and the
cokernel of multiplication by f on H_f is the Jacobian ring shifted by n+1
(`coker_check_prop16`).  Both are checked through the one context of f.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from brieskornlab import brieskorn, jacobian  # noqa: E402
from brieskornlab.brieskorn import coker_check_prop16  # noqa: E402
from brieskornlab.gradedpoly import Poly, hilbert_ci_coeffs, monomial_basis  # noqa: E402
from brieskornlab.jacobian import jacobian_dims, smoothness_test  # noqa: E402


@st.composite
def smooth_plane_curves(draw):
    """A ternary cubic or quartic with coefficients in -3..3, smooth."""
    d = draw(st.sampled_from((3, 4)))
    monos = monomial_basis(3, d)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
    f = Poly.from_terms(3, dict(zip(monos, coeffs)))
    assume(not f.is_zero() and smoothness_test(f))
    return f


@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(smooth_plane_curves())
def test_smooth_curve_matches_complete_intersection(f):
    n, d = 2, f.homogeneous_degree()
    for k in range(n + 1, (n + 1) * d + 1):
        assert coker_check_prop16(f, k), k
    coeffs = hilbert_ci_coeffs(n + 1, d - 1)
    assert jacobian_dims(f, len(coeffs)) == coeffs + [0]
    assert brieskorn._ctx(f).base is jacobian._ctx(f)

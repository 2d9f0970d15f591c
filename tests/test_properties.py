"""Property tests on random plane curves against closed forms and theorems.

For smooth f the Jacobian ring is a complete intersection of three forms of
degree d-1, so its Hilbert function is that of ((1-t^(d-1))/(1-t))^3; and the
cokernel of multiplication by f on H_f is the Jacobian ring shifted by n+1
(`coker_check_prop16`).  Both are checked through the one context of f.  For
any f, singular or not, the Hilbert function of R obeys Macaulay's bound, and
a Tjurina number certified by Gotzmann persistence stays the dim of R after
the certified degree.
"""

import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from brieskornlab import brieskorn, jacobian  # noqa: E402
from brieskornlab.brieskorn import coker_check_prop16  # noqa: E402
from brieskornlab.gradedpoly import Poly, hilbert_ci_coeffs, monomial_basis  # noqa: E402
from brieskornlab.jacobian import (NonIsolatedError, _macaulay_bound,  # noqa: E402
                                   global_tjurina, jacobian_dim, jacobian_dims,
                                   smoothness_test)


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


@st.composite
def plane_curves(draw):
    """A nonzero ternary cubic or quartic with sparse coefficients in -2..2,
    so that singular and non-reduced curves come up as well as smooth ones."""
    d = draw(st.sampled_from((3, 4)))
    monos = monomial_basis(3, d)
    coeffs = draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -2)),
                           min_size=len(monos), max_size=len(monos)))
    f = Poly.from_terms(3, dict(zip(monos, coeffs)))
    assume(not f.is_zero())
    return f


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(plane_curves())
def test_jacobian_growth_obeys_macaulay_and_the_certificate(f):
    """dim R_{k+1} <= (dim R_k)^<k> for k >= 1.  A returned tau is dim R_k two
    and three degrees past max(start, tau), where it must have settled; a
    certified positive dimensional locus keeps growing maximally for two more
    degrees after the degrees its message cites."""
    d = f.homogeneous_degree()
    start = 3 * (d - 2) + 1
    dims = jacobian_dims(f, start + 6)
    for k in range(1, len(dims) - 1):
        assert dims[k + 1] <= _macaulay_bound(dims[k], k), (k, dims)
    try:
        tau = global_tjurina(f)
    except NonIsolatedError as e:
        event("positive dimensional")
        k = int(re.search(r"grows maximally from degree (\d+) to", str(e)).group(1))
        h = [jacobian_dim(f, j) for j in range(k, k + 4)]
        assert h[1] > h[0]
        for j in (1, 2):
            assert h[j + 1] == _macaulay_bound(h[j], k + j), (k, h)
        return
    event("finite, tau > 0" if tau else "smooth")
    high = max(start, tau) + 2
    assert tau == jacobian_dim(f, high) == jacobian_dim(f, high + 1)

"""Jacobian rings: graded dims, smoothness, Tjurina numbers."""

import pytest

from brieskornlab import brieskorn, jacobian
from brieskornlab.brieskorn import hf_dim
from brieskornlab.gradedpoly import InputError, hilbert_ci_coeffs, parse_poly
from brieskornlab.jacobian import (NonIsolatedError, global_tjurina,
                                   jacobian_dim, jacobian_dims,
                                   smooth_hodge_numbers, smoothness_test)

XYZ = ("x", "y", "z")
XYZT = ("x", "y", "z", "t")

FERMAT_CUBIC = parse_poly("x^3 + y^3 + z^3", XYZ)
CUSP = parse_poly("x^3 + y^2*z", XYZ)
TWO_CUSP = parse_poly("x^2*y^2 + x*z^3 + y*z^3", XYZ)
NODAL_CUBIC = parse_poly("y^2*z - x^3 - x^2*z", XYZ)
NON_ISOLATED = parse_poly("x^2*t + y^2*z", XYZT)


def test_jacobian_dims_fermat_matches_hilbert_series():
    """For Fermat f the partials are a regular sequence of degree d-1 forms,
    so the Jacobian ring has the complete-intersection Hilbert function."""
    coeffs = hilbert_ci_coeffs(3, 2)
    dims = jacobian_dims(FERMAT_CUBIC, len(coeffs) + 2)
    assert dims[:len(coeffs)] == coeffs
    assert dims[len(coeffs):] == [0, 0, 0]


def test_jacobian_dims_cusp():
    assert jacobian_dims(CUSP, 6) == [1, 3, 3, 2, 2, 2, 2]
    assert jacobian_dim(CUSP, 50) == 2  # stable value = global Tjurina


def test_jacobian_dims_two_cusp():
    assert jacobian_dims(TWO_CUSP, 8) == [1, 3, 6, 7, 6, 4, 4, 4, 4]
    assert jacobian_dim(TWO_CUSP, -1) == 0  # R_k vanishes below degree zero


def test_smoothness():
    assert smoothness_test(FERMAT_CUBIC)
    assert smoothness_test(parse_poly("x^4 + y^4 + z^4", XYZ))
    assert smoothness_test(parse_poly("x^2 + y^2 + z^2", XYZ))
    assert not smoothness_test(CUSP)
    assert not smoothness_test(NODAL_CUBIC)
    assert not smoothness_test(NON_ISOLATED)


def test_smooth_hodge_numbers():
    assert smooth_hodge_numbers(2, 3) == [1, 1]
    assert smooth_hodge_numbers(3, 4) == [1, 19, 1]
    assert smooth_hodge_numbers(3, 3) == [0, 6, 0]
    assert smooth_hodge_numbers(2, 2) == [0, 0]
    with pytest.raises(InputError):
        smooth_hodge_numbers(1, 3)


def test_global_tjurina_values():
    assert global_tjurina(CUSP) == 2
    assert global_tjurina(TWO_CUSP) == 4
    assert global_tjurina(NODAL_CUBIC) == 1
    assert global_tjurina(FERMAT_CUBIC) == 0
    # x^4 z + y^5: one singular point, quasi-homogeneous of type (1/4, 1/5),
    # so tau = mu = 3 * 4 = 12
    assert global_tjurina(parse_poly("x^4*z + y^5", XYZ)) == 12


def test_non_isolated_raises_with_dims():
    with pytest.raises(NonIsolatedError) as exc:
        global_tjurina(NON_ISOLATED)
    dims = exc.value.dims
    assert len(dims) >= 2 and dims[-1] > dims[0]  # growing, not stabilizing


def test_non_reduced_f_has_a_jacobian_ring_but_no_brieskorn_module(monkeypatch):
    calls = []
    real = jacobian.is_squarefree
    monkeypatch.setattr(jacobian, "is_squarefree", lambda f: calls.append(f) or real(f))
    f = parse_poly("x^2*y", XYZ)
    monkeypatch.delitem(jacobian._contexts, f, raising=False)   # a fresh context
    assert jacobian_dims(f, 5) == [1, 3, 4, 5, 6, 7]
    for _ in range(2):
        with pytest.raises(InputError, match=r"f must be reduced \(squarefree\)"):
            hf_dim(f, 4)
    assert jacobian_dim(f, 6) == 8
    assert len(calls) == 1   # the verdict is kept on the context


def test_brieskorn_and_jacobian_share_one_context():
    f = parse_poly("x^3 + y^3 + z^3 + 2/3*x^2*y", XYZ)
    hf_dim(f, 6)
    jacobian_dims(f, 4)
    jac, bri = jacobian._ctx(f), brieskorn._ctx(f)
    assert bri.base is jac and jac.brieskorn is bri
    assert brieskorn._ctx(f) is bri and jacobian._ctx(f) is jac
    assert jac.scale == bri.scale == 3 and bri.f is jac.f
    for m in (3, 4):   # filled by hf_dim (m = k-n-1) and by jacobian_dims
        assert bri.index(m) is jac.index(m)

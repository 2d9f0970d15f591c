"""Jacobian rings: graded dims, smoothness, Tjurina numbers."""

from itertools import combinations_with_replacement
from math import comb

import pytest

from brieskornlab import brieskorn, jacobian
from brieskornlab.brieskorn import hf_dim
from brieskornlab.exactlinalg import InvariantError
from brieskornlab.gradedpoly import InputError, hilbert_ci_coeffs, parse_poly
from brieskornlab.jacobian import (NonIsolatedError, _macaulay_bound, global_tjurina,
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


def _count_tjurina_degrees(monkeypatch, f) -> list:
    """Give f a fresh context and record each degree whose dim R_k it evaluates."""
    monkeypatch.delitem(jacobian._contexts, f, raising=False)
    seen = []
    real = jacobian._JacContext.dim_R
    monkeypatch.setattr(jacobian._JacContext, "dim_R",
                        lambda ctx, k: seen.append(k) or real(ctx, k))
    return seen


def test_tjurina_certificate_on_the_cubic_surface(monkeypatch):
    """9 -> 10 is maximal growth from degree 5; the scan stops there."""
    surface = parse_poly("x^2*z + y^3 + x*y*t", XYZT)
    seen = _count_tjurina_degrees(monkeypatch, surface)
    with pytest.raises(NonIsolatedError) as exc:
        global_tjurina(surface)
    assert seen == [5, 6]   # the heuristic scan evaluated every degree 5..35
    assert exc.value.dims == [9, 10] and _macaulay_bound(9, 5) == 10
    msg = str(exc.value)
    assert "from degree 5 to 6 (9 -> 10" in msg and "is positive dimensional" in msg
    assert "Gotzmann" in msg and "looks" not in msg


def test_tjurina_certificate_on_a_finite_locus(monkeypatch):
    """12 = 12 in degrees 10 -> 11 is no Gotzmann certificate (12^<10> = 13),
    but the line z = 0 misses the singular point (0:0:1): (S/(J + z))_10 = 0."""
    f = parse_poly("x^4*z + y^5", XYZ)
    seen = _count_tjurina_degrees(monkeypatch, f)
    assert global_tjurina(f) == 12
    assert seen == [10, 11] and _macaulay_bound(12, 10) == 13
    assert jacobian._coordinate_section_vanishes(jacobian._ctx(f), 10)
    assert jacobian_dims(f, 16)[10:] == [12] * 7


@pytest.mark.parametrize("src, variables, start, tau", [
    ("x^8 + y^8", XYZ, 19, 49),
    ("x^8 + y^8 + 3*x^3*y^5 - 2*x^6*y^2 + x*y^7", XYZ, 19, 49),
    ("x^4 + y^4 + z^4 + 2*x^3*y - 3*x*y^2*z + x^2*z^2 + y*z^3", XYZT, 9, 27)])
def test_tjurina_of_a_cone_above_the_old_cap(monkeypatch, src, variables, start, tau):
    """A cone over a smooth base of degree d has tau = (d-1)^(n): tau is far
    above the first scanned degree (and, for 8 lines, above start + 6(n+2) =
    43).  The coordinate hyperplane opposite the vertex certifies it there."""
    f = parse_poly(src, variables)
    seen = _count_tjurina_degrees(monkeypatch, f)
    assert global_tjurina(f) == tau
    assert seen == [start, start + 1]
    assert jacobian_dim(f, start + 4) == jacobian_dim(f, tau + 1) == tau


def test_tjurina_jumps_to_degree_tau_when_every_coordinate_meets_the_locus(monkeypatch):
    """Five lines x y z (x+y)(y+z): two D4 points (0:0:1), (1:0:0) and four
    nodes, tau = 12.  Every coordinate line passes through a D4 point, so the
    equal dims 12, 12 in degrees 10, 11 are certified by Gotzmann at 12 -> 13."""
    f = parse_poly("x*y*z*(x+y)*(y+z)", XYZ)
    seen = _count_tjurina_degrees(monkeypatch, f)
    assert global_tjurina(f) == 12
    assert seen == [10, 11, 12, 13]
    assert not jacobian._coordinate_section_vanishes(jacobian._ctx(f), 11)


def test_tjurina_jump_is_not_cut_by_the_budget(monkeypatch):
    """Without the hyperplane certificate tau = 49 of x^8 + y^8 needs degrees
    49 and 50, past the budget top 19 + 6 * 4 = 43; the jump goes there."""
    f = parse_poly("x^8 + y^8", XYZ)
    seen = _count_tjurina_degrees(monkeypatch, f)
    monkeypatch.setattr(jacobian, "_coordinate_section_vanishes", lambda ctx, k: False)
    assert global_tjurina(f) == 49
    assert seen == [19, 20, 49, 50]


def test_tjurina_scan_asserts_macaulays_bound(monkeypatch):
    """A dim above Macaulay's bound can only come from a wrong elimination."""
    f = parse_poly("x^4*z + y^5", XYZ)
    monkeypatch.delitem(jacobian._contexts, f, raising=False)
    real = jacobian._JacContext.dim_R
    monkeypatch.setattr(jacobian._JacContext, "dim_R",
                        lambda ctx, k: real(ctx, k) + 2 * (k == 11))
    with pytest.raises(InvariantError, match=r"dim R_11 = 14 exceeds Macaulay's bound 13") as exc:
        global_tjurina(f)
    assert not isinstance(exc.value, NonIsolatedError)


def test_tjurina_budget_exhausted_is_undecided(monkeypatch):
    f = parse_poly("x^4*z + y^5", XYZ)
    monkeypatch.setattr(jacobian, "_TJURINA_DEGREE_BUDGET", 0)
    with pytest.raises(NonIsolatedError, match=r"undecided up to degree 10") as exc:
        global_tjurina(f)
    assert "positive dimensional" not in str(exc.value)
    assert exc.value.dims == [12]
    monkeypatch.setattr(jacobian, "_TJURINA_DEGREE_BUDGET", 1)   # degrees 10..15
    assert global_tjurina(f) == 12


@pytest.mark.parametrize("h, k, expect", [
    (8, 4, 9), (9, 5, 10), (12, 11, 13), (12, 12, 12), (4, 3, 5), (0, 1, 0), (0, 7, 0),
    (1, 1, 1), (3, 1, 6), (5, 2, 7)])
def test_macaulay_bound_hand_values(h, k, expect):
    assert _macaulay_bound(h, k) == expect


def _lex_segment_growth(h: int, k: int, nvars: int) -> int:
    """Degree-(k+1) monomials outside the ideal generated by all degree-k
    monomials but the h lex-smallest, in nvars variables."""
    def monos(deg):
        return sorted(tuple(e.count(i) for i in range(nvars))
                      for e in combinations_with_replacement(range(nvars), deg))
    kept = set(monos(k)[:h])
    count = 0
    for m in monos(k + 1):
        divisors = [m[:i] + (m[i] - 1,) + m[i + 1:] for i in range(nvars) if m[i]]
        count += all(q in kept for q in divisors)
    return count


def test_macaulay_bound_matches_lex_segments():
    """Macaulay's bound is attained by the lex segment in any ring with h monomials."""
    for k in range(1, 6):
        for h in range(36):
            nvars = 1
            while comb(nvars - 1 + k, k) < h:
                nvars += 1
            for extra in (0, 1):
                assert _macaulay_bound(h, k) == _lex_segment_growth(h, k, nvars + extra), (h, k)


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

"""Exact polynomial layer: parsing, grading, weighted degrees, Hilbert series."""

import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from oracles import evaluate, poly_gcd, try_divide

from brieskornlab import exactlinalg, jacobian
from brieskornlab.gradedpoly import (InputError, ParseError, Poly,
                                     dehomogenize_shift, hilbert_ci_coeffs,
                                     monomial_basis, monomials_weighted_below,
                                     parse_poly, render, weight_vector,
                                     weighted_degree)

XYZ = ("x", "y", "z")


def P(text, variables=XYZ):
    return parse_poly(text, variables)


def test_parse_render_round_trip():
    for text in ("x^3 + y^3 + z^3", "x^2*y^2 + x*z^3 + y*z^3",
                 "y^2*z - x^3 - x^2*z", "1/2*x^2 - 3*y*z + 7"):
        p = P(text)
        assert parse_poly(render(p, XYZ), XYZ) == p


def test_parse_exact_rationals():
    p = P("1/3*x + 1/6*x")
    assert p == P("1/2*x")
    assert p.terms[(1, 0, 0)] == Fraction(1, 2)


def test_parse_precedence_and_signs():
    assert P("-x^2*y + y*-z") == P("-(x^2*y) - y*z")
    assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")
    assert P("2 - 3") == Poly.constant(3, -1)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        P("x^2 + @")
    assert "position" in str(exc.value)
    with pytest.raises(ParseError):
        P("x +")
    with pytest.raises(ParseError):
        P("w^2")  # not a declared variable


def test_arithmetic_matches_evaluation():
    rng = random.Random(7)
    pts = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in XYZ)
           for _ in range(5)]
    a, b = P("x^2 - y*z + 1/2"), P("x*y + z^2 - 3")
    for pt in pts:
        assert evaluate(a * b, pt) == evaluate(a, pt) * evaluate(b, pt)
        assert evaluate(a + b, pt) == evaluate(a, pt) + evaluate(b, pt)
        assert evaluate(a ** 3, pt) == evaluate(a, pt) ** 3


def test_homogeneous_degree():
    assert P("x^3 + y^2*z").is_homogeneous()
    assert P("x^3 + y^2*z").homogeneous_degree() == 3
    assert not P("x^2 + y^3").is_homogeneous()
    with pytest.raises(InputError):
        P("x^2 + y^3").homogeneous_degree()


def test_weighted_degree_exact():
    w = weight_vector(("1/2", "1/3"))
    assert weighted_degree((2, 3), w) == 2
    assert weighted_degree((1, 1), w) == Fraction(5, 6)
    with pytest.raises(InputError):
        weight_vector((Fraction(1, 2), 0))
    with pytest.raises(InputError):
        weighted_degree((1, 2, 3), w)


def test_weighted_parts_and_truncation():
    w = weight_vector((Fraction(1, 2), Fraction(1, 3)))
    p = parse_poly("y^2 + y^3 + x*y^3", ("x", "y"))  # wdeg 2/3, 1, 3/2
    parts = p.weighted_parts(w)
    assert sorted(parts) == [Fraction(2, 3), Fraction(1), Fraction(3, 2)]
    assert p.min_weighted_degree(w) == Fraction(2, 3)
    cut = p.truncate_weighted(w, Fraction(3, 2))  # strictly below 3/2
    assert cut == parse_poly("y^2 + y^3", ("x", "y"))
    assert p.truncate_weighted(w, Fraction(2, 3)).is_zero()


def test_monomials_weighted_below():
    w = weight_vector((Fraction(1, 2), Fraction(1, 3)))
    ms = monomials_weighted_below(2, w, Fraction(1))
    assert set(ms) == {(0, 0), (1, 0), (0, 1), (0, 2), (1, 1)}
    # sorted by weighted degree first
    degs = [weighted_degree(m, w) for m in ms]
    assert degs == sorted(degs)
    # no monomial has negative weighted degree, not even the constant one
    assert monomials_weighted_below(2, w, Fraction(-1, 4)) == []


def test_monomial_basis_counts():
    assert len(monomial_basis(3, 4)) == 15
    assert monomial_basis(4, 0) == [(0, 0, 0, 0)]
    assert monomial_basis(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_monomial_basis_refuses_past_the_budget_before_building():
    """Degree 706 in 3 variables has C(708, 2) = 250278 monomials, one degree
    past the budget: refused with next to no memory; degree 705 builds."""
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as refused:
            monomial_basis(3, 706)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == ("degree 706 has 250278 monomials in 3 variables, "
                                  "more than the limit of 250000")
    assert peak < 1 << 20
    assert len(monomial_basis(3, 705)) == comb(707, 2) == 249571


def test_hilbert_ci_coeffs():
    """Coefficients of ((1-t^e)/(1-t))^m, the Hilbert series of a complete
    intersection of m forms of degree e; total dim e^m."""
    assert hilbert_ci_coeffs(3, 2) == [1, 3, 3, 1]
    assert hilbert_ci_coeffs(4, 3) == [1, 4, 10, 16, 19, 16, 10, 4, 1]
    assert sum(hilbert_ci_coeffs(4, 3)) == 3 ** 4
    assert hilbert_ci_coeffs(3, 1) == [1]


def test_dehomogenize_shift_two_cusp():
    f = P("x^2*y^2 + x*z^3 + y*z^3")
    local = dehomogenize_shift(f, 0, (1, 0, 0))
    assert local == parse_poly("y^2 + z^3 + y*z^3", ("y", "z"))
    local2 = dehomogenize_shift(f, 1, (0, 1, 0))
    assert local2 == parse_poly("x^2 + z^3 + x*z^3", ("x", "z"))


def reduced(text, variables=XYZ) -> bool:
    """The reducedness verdict of a context built for the parsed form."""
    return jacobian._JacContext(P(text, variables)).reduced


def test_is_squarefree():
    assert reduced("x^3 + y^3 + z^3")
    assert reduced("x^2*y^2 + x*z^3 + y*z^3")
    assert not reduced("x^2*y")
    assert not reduced("(x + y)^2*(x - y)")
    assert reduced("x - 2*y") and not reduced("x^2")
    assert reduced("x^2 - y^2", ("x", "y"))


def test_gcd_and_division():
    a, b = P("x^2 - y^2"), P("x^2 + 2*x*y + y^2")
    g = poly_gcd(a, b)
    assert try_divide(a, g) is not None and try_divide(b, g) is not None
    assert try_divide(P("x^2"), P("y")) is None
    q = try_divide(P("x^2*y + x*y^2"), P("x*y"))
    assert q == P("x + y")


def test_only_a_non_reduced_form_costs_an_exact_elimination(monkeypatch):
    """The Fermat cubic and six lines are proved reduced by the full rank of
    their rows modulo a prime, with no exact elimination; the rows of
    (x + y)^2*(x - y) are dependent, fail that test and cost one exact rank.
    The modular pass runs the same pivot loop with its own row step, so only
    the calls with the exact step `_combine` are counted."""
    real, calls = exactlinalg._forward_eliminate, []

    def counted(rows, step=exactlinalg._combine, need=0):
        if step is exactlinalg._combine:
            calls.append(1)
        return real(rows, step, need)

    monkeypatch.setattr(exactlinalg, "_forward_eliminate", counted)
    assert reduced("x^3 + y^3 + z^3")
    assert reduced("x*y*z*(x + y)*(y + z)*(x + 2*y + 3*z)")
    assert len(calls) == 0
    assert not reduced("(x + y)^2*(x - y)")
    assert len(calls) == 1


def test_gcd_needs_homogeneous_input():
    with pytest.raises(InputError, match="homogeneous"):
        poly_gcd(P("x^2 + y"), P("x"))
    with pytest.raises(InputError, match="homogeneous"):
        reduced("x^3 + y^2 + z")
    assert poly_gcd(P("0"), P("2*x*y")) == P("x*y")
    assert poly_gcd(P("3"), P("x^2")) == P("1")
    assert poly_gcd(P("2*x^3", ("x",)), P("x^5", ("x",))) == P("x^3", ("x",))


def test_integer_scaled():
    p = P("1/2*x + 1/3*y")
    q, den = p.integer_scaled()
    assert den == 6
    assert q == P("3*x + 2*y")
    assert all(c.denominator == 1 for c in q.terms.values())

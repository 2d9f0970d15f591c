"""Exterior calculus on polynomial forms: wedge, d, Euler contraction.

The randomized suites draw small sparse polynomials with rational
coefficients; every identity is checked exactly, no tolerances.
"""

import random
from fractions import Fraction

import pytest

from brieskornlab.gradedpoly import InputError, Poly, monomial_basis
from oracles import EulerField, Form, eta0, exterior_d, iota_euler, lie_euler, omega0, wedge


def rand_poly(rng, nvars, degree, homogeneous=True):
    terms = {}
    monos = monomial_basis(nvars, degree)
    if not homogeneous:
        monos = [m for d in range(degree + 1) for m in monomial_basis(nvars, d)]
    for m in rng.sample(monos, k=min(len(monos), rng.randint(1, 4))):
        terms[m] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly.from_terms(nvars, terms)


def rand_form(rng, nvars, j, degree):
    """Random j-form whose coefficients are homogeneous of the given degree,
    so the form is graded of degree degree + j."""
    idxs = [tuple(sorted(c)) for c in _combinations(range(nvars), j)]
    terms = {}
    for idx in rng.sample(idxs, k=rng.randint(1, len(idxs))):
        p = rand_poly(rng, nvars, degree)
        if not p.is_zero():
            terms[idx] = p
    return Form.from_terms(nvars, j, terms)


def _combinations(pool, r):
    pool = list(pool)
    if r == 0:
        return [()]
    out = []

    def rec(start, chosen):
        if len(chosen) == r:
            out.append(tuple(chosen))
            return
        for i in range(start, len(pool)):
            rec(i + 1, chosen + [pool[i]])

    rec(0, [])
    return out


def test_form_validation():
    with pytest.raises(InputError):
        Form.from_terms(3, 1, {(0, 0): Poly.constant(3, 1)})  # repeated index
    with pytest.raises(InputError):
        Form.from_terms(3, 2, {(1, 0): Poly.constant(3, 1)})  # not sorted
    with pytest.raises(InputError):
        Form.from_terms(3, 1, {(5,): Poly.constant(3, 1)})  # out of range


def test_wedge_on_basis_forms():
    x, y = Poly.variable(3, 0), Poly.variable(3, 1)
    dx = Form.from_terms(3, 1, {(0,): Poly.constant(3, 1)})
    dy = Form.from_terms(3, 1, {(1,): Poly.constant(3, 1)})
    w = wedge(dx.scale(x), dy.scale(y))
    assert w.terms == {(0, 1): x * y}
    assert wedge(dy, dx).terms == {(0, 1): Poly.constant(3, -1)}
    assert wedge(dx, dx).is_zero()


def test_omega0_and_eta0():
    """d(eta0) recovers ((n+1)/d) * omega0 because omega0 is closed and the
    scaled Euler contraction acts as degree/d on graded forms."""
    for nvars, d in ((3, 3), (4, 4), (3, 5)):
        w0 = omega0(nvars)
        assert w0.jdegree == nvars and len(w0.terms) == 1
        e0 = eta0(nvars, d)
        lhs = exterior_d(e0)
        assert lhs == w0.scale(Fraction(nvars, d))


def test_d_squared_zero_randomized():
    rng = random.Random(101)
    for _ in range(60):
        nvars = rng.choice((3, 4))
        j = rng.randint(0, nvars - 2)
        form = rand_form(rng, nvars, j, rng.randint(1, 3))
        assert exterior_d(exterior_d(form)).is_zero()


def test_leibniz_randomized():
    rng = random.Random(202)
    for _ in range(60):
        nvars = 3
        ja, jb = rng.randint(0, 1), rng.randint(0, 1)
        a = rand_form(rng, nvars, ja, rng.randint(1, 3))
        b = rand_form(rng, nvars, jb, rng.randint(1, 3))
        lhs = exterior_d(wedge(a, b))
        rhs = wedge(exterior_d(a), b) + wedge(a, exterior_d(b)).scale((-1) ** ja)
        assert lhs == rhs


def test_wedge_graded_anticommutative():
    rng = random.Random(303)
    for _ in range(60):
        nvars = rng.choice((3, 4))
        ja, jb = rng.randint(0, 2), rng.randint(0, 2)
        if ja + jb > nvars:
            continue
        a = rand_form(rng, nvars, ja, 2)
        b = rand_form(rng, nvars, jb, 1)
        assert wedge(a, b) == wedge(b, a).scale((-1) ** (ja * jb))


def test_iota_squares_to_zero_and_antiderivation():
    rng = random.Random(404)
    for _ in range(60):
        nvars = rng.choice((3, 4))
        xi = EulerField(nvars, rng.randint(1, 5))
        j = rng.randint(1, nvars - 1)
        form = rand_form(rng, nvars, j, rng.randint(1, 3))
        assert iota_euler(iota_euler(form, xi), xi).is_zero()
        b = rand_form(rng, nvars, 1, 2)
        lhs = iota_euler(wedge(form, b), xi)
        rhs = wedge(iota_euler(form, xi), b) + wedge(form, iota_euler(b, xi)).scale((-1) ** j)
        assert lhs == rhs


def test_cartan_identity_gives_degree_over_d():
    """(d iota + iota d) acts on a graded form of degree k as k/d."""
    rng = random.Random(505)
    for _ in range(60):
        nvars = rng.choice((3, 4))
        d = rng.randint(1, 5)
        xi = EulerField(nvars, d)
        j = rng.randint(0, nvars)
        cdeg = rng.randint(0, 3)
        form = rand_form(rng, nvars, j, cdeg) if j else Form.from_poly(rand_poly(rng, nvars, cdeg))
        assert lie_euler(form, xi) == form.scale(Fraction(cdeg + j, d))


def test_euler_relation_for_omega0():
    """df ^ iota_xi(P omega0) = f P omega0 for f homogeneous of the scaling
    degree; the identity behind pole-order bookkeeping."""
    rng = random.Random(606)
    for _ in range(60):
        nvars = rng.choice((3, 4))
        d = rng.randint(2, 4)
        f = rand_poly(rng, nvars, d)
        P = rand_poly(rng, nvars, rng.randint(0, 3))
        w0 = omega0(nvars)
        lhs = wedge(exterior_d(Form.from_poly(f)), iota_euler(w0.scale(P), EulerField(nvars, d)))
        assert lhs == w0.scale(f * P)


def test_lie_euler_rejects_mixed_degrees():
    p = Poly.from_terms(3, {(1, 0, 0): Fraction(1), (2, 0, 0): Fraction(1)})
    with pytest.raises(InputError):
        lie_euler(Form.from_poly(p), EulerField(3, 2))


def test_zero_form_addition_any_degree():
    z1 = Form.from_terms(3, 1, {})
    w = omega0(3)
    assert z1 + w == w
    assert w + z1 == w

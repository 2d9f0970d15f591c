"""Brieskorn module slices, torsion-free quotients, stabilization evidence.

The relation space has an independent oracle here: build (df ^ d(Omega^{n-1}))_k
literally with the exterior calculus of `oracles` and compare the spans.  Everything else is
frozen against hand values (Griffiths dims via the complete-intersection
Hilbert series, Euler-characteristic counts for the Milnor fiber).
"""

import itertools
from fractions import Fraction
from math import comb

import pytest

from brieskornlab import brieskorn, jacobian
from brieskornlab.brieskorn import (BrianconSkodaResult, StabilizationError,
                                    StabilizationPolicy, briancon_skoda,
                                    hbar_certificate, milnor_eigenspace_dim,
                                    pole_filtration_dims, stabilized_span_rank)
from brieskornlab.exactlinalg import Subspace
from brieskornlab.gradedpoly import (InputError, Poly, hilbert_ci_coeffs,
                                     monomial_basis, parse_poly)
from oracles import (Form, coker_check_prop16, exterior_d,
                     gauss_manin_identity_check, wedge)

XYZ = ("x", "y", "z")
XYZT = ("x", "y", "z", "t")

FERMAT_CUBIC = parse_poly("x^3 + y^3 + z^3", XYZ)
CUSP = parse_poly("x^3 + y^2*z", XYZ)
TWO_CUSP = parse_poly("x^2*y^2 + x*z^3 + y*z^3", XYZ)
CUBIC_SURFACE = parse_poly("x^2*z + y^3 + x*y*t", XYZT)


def relation_space_oracle(f: Poly, k: int) -> Subspace:
    """(df ^ dOmega^{n-1})_k computed with actual differential forms."""
    nvars = f.nvars
    n = nvars - 1
    d = f.homogeneous_degree()
    gdeg = k - d - n + 1
    idx = {m: i for i, m in enumerate(monomial_basis(nvars, k - n - 1))}
    df = exterior_d(Form.from_poly(f))
    vectors = []
    if gdeg >= 0:
        for g in monomial_basis(nvars, gdeg):
            for I in itertools.combinations(range(nvars), n - 1):
                eta = Form.from_terms(nvars, n - 1, {I: Poly.monomial(nvars, g)})
                top = wedge(df, exterior_d(eta))
                if top.is_zero():
                    continue
                coeff = top.terms[tuple(range(nvars))]
                vectors.append({idx[m]: c for m, c in coeff.terms.items()})
    return Subspace.from_vectors(vectors, len(idx))


@pytest.mark.parametrize("f", [FERMAT_CUBIC, CUSP, TWO_CUSP])
def test_relation_space_matches_exterior_construction(f):
    n, d = f.nvars - 1, f.homogeneous_degree()
    for k in range(n + 1, (n + 2) * d + 1):
        assert brieskorn._ctx(f).relations(k) == relation_space_oracle(f, k)


def test_relation_space_matches_exterior_construction_surface():
    for k in range(4, 12):
        assert brieskorn._ctx(CUBIC_SURFACE).relations(k) == relation_space_oracle(CUBIC_SURFACE, k)


def divergence_free_count(n: int, e: int) -> int:
    """dim of the divergence-free vector fields of degree e in n+1 variables,
    (n+1) dim S_e - dim S_{e-1}."""
    return (n + 1) * comb(e + n, n) - comb(e + n - 1, n)


def test_relation_rows_never_exceed_the_divergence_free_basis():
    """One row per basis field at most: a field g with g.grad f = 0 gives
    none.  On xyz the field x e_0 - z e_2 has x*yz - z*xy = 0, so only the
    bound holds in general."""
    xyz = parse_poly("x*y*z", XYZ)
    for f in (FERMAT_CUBIC, CUSP, TWO_CUSP, CUBIC_SURFACE, xyz):
        ctx = brieskorn._ctx(f)
        n, d = ctx.n, ctx.d
        assert ctx.relation_rows(n + d - 1) == []
        for e in range(6):
            assert len(ctx.relation_rows(n + d + e)) <= divergence_free_count(n, e), (f, e)
    ctx = brieskorn._ctx(xyz)
    assert len(ctx.relation_rows(ctx.n + ctx.d + 1)) < divergence_free_count(ctx.n, 1)


@pytest.mark.parametrize("f", [FERMAT_CUBIC, parse_poly("x^3 + y^3 + z^3 + t^3", XYZT)])
def test_relation_rows_one_per_divergence_free_field_on_fermat(f):
    """On Fermat f = sum x_a^d no basis field annihilates grad f (down to
    e = 0, where the fields are the constant e_a and the rows the partials),
    so the count is exact: about half the C(n+1, 2) dim S_{e+1} rows of the
    rotations f_a d_b(g) - f_b d_a(g)."""
    ctx = brieskorn._ctx(f)
    n, d = ctx.n, ctx.d
    for e in range(5):
        assert len(ctx.relation_rows(n + d + e)) == divergence_free_count(n, e), e


def test_non_reduced_rejected():
    with pytest.raises(InputError):
        brieskorn._ctx(parse_poly("x^2*y", XYZ)).hf_dim(4)
    with pytest.raises(InputError):
        pole_filtration_dims(parse_poly("(x + y)^2*z", XYZ))


def test_power_image_dim_basics():
    ctx = brieskorn._ctx(FERMAT_CUBIC)
    assert ctx.hf_dim(2) == 0  # below degree n+1
    assert ctx.power_rank(3, 0) == ctx.hf_dim(3)
    # multiplication by f is injective modulo torsion once ranks stabilize
    assert ctx.power_rank(3, 1) == 1


def test_torsion_detected_for_cusp():
    """H_{f,3} is one-dimensional but dies in the torsion-free quotient."""
    assert brieskorn._ctx(CUSP).hf_dim(3) == 1
    assert hbar_certificate(CUSP, 3).value == 0
    cert = hbar_certificate(CUSP, 3)
    assert cert.early_zero and cert.values[-1] == 0 and cert.values[0] == 1


def test_pole_filtration_smooth_cubic():
    rep = pole_filtration_dims(FERMAT_CUBIC)
    assert rep.dims == (1, 2, 2)
    assert rep.total_dim == 2
    assert len(rep.certificates) == 3
    assert all(c.values[-1] == rep.dims[q] for q, c in enumerate(rep.certificates))


def test_pole_filtration_against_hilbert_series():
    """Griffiths: dim P^{n-q} is a partial sum of Jacobian-ring dims, which for
    Fermat-type f are complete-intersection Hilbert coefficients."""
    for nvars, d, text in ((3, 3, "x^3 + y^3 + z^3"),
                           (3, 4, "x^4 + y^4 + z^4"),
                           (4, 3, "x^3 + y^3 + z^3 + t^3")):
        f = parse_poly(text, XYZT[:nvars])
        n = nvars - 1
        coeffs = hilbert_ci_coeffs(nvars, d - 1)
        expected = []
        total = 0
        for q in range(n + 1):
            i = q * d + d - n - 1
            total += coeffs[i] if 0 <= i < len(coeffs) else 0
            expected.append(total)
        assert list(pole_filtration_dims(f).dims) == expected


def test_pole_filtration_cusp_vanishes():
    assert pole_filtration_dims(CUSP).dims == (0, 0, 0)


def test_pole_filtration_two_cusp():
    assert pole_filtration_dims(TWO_CUSP).dims == (2, 2, 2)


def test_stabilization_policy_validation():
    with pytest.raises(InputError):
        StabilizationPolicy(window=1).resolved(2, 3)
    with pytest.raises(InputError):
        StabilizationPolicy(window=4, max_power=3).resolved(2, 3)


def test_stabilization_exhaustion_raises_with_trace():
    policy = StabilizationPolicy(window=2, max_power=3, min_target_degree=200)
    with pytest.raises(StabilizationError) as exc:
        hbar_certificate(FERMAT_CUBIC, 6, policy)
    assert exc.value.values  # the rank trace is attached


def test_certificate_shape():
    cert = hbar_certificate(FERMAT_CUBIC, 3)
    assert cert.degree == 3
    assert cert.landing_degree == 3 + cert.power * 3
    assert cert.values[cert.power] == cert.value == 1
    assert not cert.early_zero


def test_milnor_eigenspace_fermat_cubic():
    """Sum over eigenvalues is (d-1)^{n+1}, the Milnor number of the cone."""
    dims = [milnor_eigenspace_dim(FERMAT_CUBIC, i) for i in range(3)]
    assert dims == [2, 3, 3]
    assert sum(dims) == 2 ** 3


def test_milnor_eigenspace_cusp():
    """chi(F) = 3 chi(U) = 3 for the cusp cone, so H^2(F) has total dim 2;
    the eigenvalue-1 part is H^2(U) = 0."""
    dims = [milnor_eigenspace_dim(CUSP, i) for i in range(3)]
    assert dims == [0, 1, 1]
    with pytest.raises(InputError):
        milnor_eigenspace_dim(CUSP, 3)
    with pytest.raises(InputError):
        milnor_eigenspace_dim(CUSP, -1)


def test_briancon_skoda_results():
    res = briancon_skoda(CUSP)
    assert res.holds and res
    assert res.witness_power == 1
    smooth = briancon_skoda(FERMAT_CUBIC)
    assert not smooth.holds and smooth.witness_power is None
    assert smooth.certificate.values[-1] == 1
    surf = briancon_skoda(CUBIC_SURFACE)
    assert surf.holds and surf.witness_power == 1
    assert briancon_skoda(CUSP) == res
    assert res != smooth


def test_briancon_skoda_result_is_boolish():
    r = BrianconSkodaResult(True, 2, hbar_certificate(CUSP, 3))
    assert bool(r) is True
    assert r != True or r == True  # comparison with plain bools is defined
    assert r == True or r.witness_power == 2


def test_briancon_skoda_result_hash_agrees_with_eq():
    cert = hbar_certificate(CUSP, 3)
    results = [BrianconSkodaResult(True, 2, cert), BrianconSkodaResult(True, 2, cert),
               BrianconSkodaResult(True, 1, cert), BrianconSkodaResult(False, None, cert),
               True, False]
    for a in results:
        for b in results:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert BrianconSkodaResult(True, 2, cert) == True   # noqa: E712
    assert len({BrianconSkodaResult(True, 2, cert), True}) == 1


@pytest.mark.parametrize("f", [FERMAT_CUBIC, CUSP, TWO_CUSP])
def test_coker_dimension_formula(f):
    """dim H_{f,k} - rank(f .) equals the Jacobian ring dim in degree k-n-1."""
    n, d = f.nvars - 1, f.homogeneous_degree()
    ctx = brieskorn._ctx(f)
    for k in range(n + 1, (n + 2) * d + 1):
        assert coker_check_prop16(f, k)
        assert (ctx.hf_dim(k) - ctx.power_rank(k - d, 1)
                == jacobian._ctx(f).dim_R(k - n - 1))
    with pytest.raises(InputError):
        coker_check_prop16(f, n)


def test_gauss_manin_identity():
    for P in (Poly.constant(3, 0), Poly.monomial(3, (1, 1, 1)),
              parse_poly("x^2*y - 1/2*z^3", XYZ)):
        assert gauss_manin_identity_check(FERMAT_CUBIC, P)
    assert gauss_manin_identity_check(CUSP, Poly.variable(3, 2))


def test_stabilized_span_rank():
    """The classes of x*y*z and of f/3 inside H-bar_{f,6}: the second is in
    the image of multiplication by f, both survive to the free part."""
    span = stabilized_span_rank(FERMAT_CUBIC, 6, [Poly.monomial(3, (1, 1, 1))])
    assert span.value == 1
    both = stabilized_span_rank(
        FERMAT_CUBIC, 6, [Poly.monomial(3, (1, 1, 1)), FERMAT_CUBIC.scale(Fraction(1, 3))])
    assert both.value == 2
    zero = stabilized_span_rank(CUSP, 3, [Poly.constant(3, 1)])
    assert zero.value == 0 and zero.early_zero

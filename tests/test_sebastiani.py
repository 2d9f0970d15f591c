"""The Sebastiani fast path: on proved-smooth f, rank traces and dim R_k are
read off the complete-intersection Hilbert series instead of eliminated.

H_f of smooth f is a free C[f]-module on a monomial basis of the Jacobian
ring times omega_0, so dim H_{f,k} = sum_j dim R_{k-n-1-jd} and every rank of
a power of f out of degree k equals it.  The tests hold the fast path to the
scan by elimination (`brieskorn._scan`) certificate by certificate, check
that it is gated on proved smoothness, and that its exact spot check catches
a wrong series.
"""

import pytest

from brieskornlab import brieskorn, jacobian
from brieskornlab.brieskorn import (StabilizationError, StabilizationPolicy,
                                    briancon_skoda, hbar_certificate,
                                    milnor_eigenspace_dim, pole_filtration_dims)
from brieskornlab.exactlinalg import InvariantError, rank_of_vectors
from brieskornlab.gradedpoly import hilbert_ci_coeffs, parse_poly
from brieskornlab.jacobian import jacobian_dims, smoothness_test

XY = ("x", "y")
XYZ = ("x", "y", "z")
XYZT = ("x", "y", "z", "t")

POLICIES = (StabilizationPolicy(),
            StabilizationPolicy(window=2, max_power=2),
            StabilizationPolicy(window=3, max_power=3),
            StabilizationPolicy(window=2, max_power=2, min_target_degree=0))


def outcome(stabilize):
    """A certificate without its rule, or the StabilizationError it raised."""
    try:
        cert = stabilize()
    except StabilizationError as e:
        return ("error", str(e), e.degree, tuple(e.values))
    return ("cert", cert.degree, cert.values, cert.power, cert.landing_degree,
            cert.early_zero)


def assert_matches_scan(f, degrees):
    """Every Sebastiani certificate equals the scan's, field by field."""
    ctx = brieskorn._ctx(f)
    assert smoothness_test(f)
    for policy in POLICIES:
        resolved = policy.resolved(ctx.n, ctx.d)
        for k in degrees:
            fast = outcome(lambda: brieskorn._stabilize(ctx, k, policy))
            scan = outcome(lambda: brieskorn._scan(ctx, k, resolved))
            assert fast == scan, (k, policy)
            if fast[0] == "cert":
                assert brieskorn._stabilize(ctx, k, policy).rule == "Sebastiani"
                rule = brieskorn._scan(ctx, k, resolved).rule
                assert rule == ("early zero" if scan[5] else "window")


def elimination_dim_R(ctx, k):
    """dim R_k by an exact rank, whatever the context knows about f."""
    return len(ctx.index(k)) - rank_of_vectors(ctx.image_rows(k))


@pytest.mark.parametrize("text,variables", [
    ("x + 2*y - z", XYZ),                       # d = 1: R = 0 and H_f = 0
    ("x*z - y^2", XYZ),                         # smooth conic
    ("x^3 + y^3", XY),                          # binary form, three points
    ("x^3 + y^3 + z^3", XYZ),
])
def test_small_cases_match_the_scan(text, variables):
    f = parse_poly(text, variables)
    n, d = f.nvars - 1, f.homogeneous_degree()
    assert_matches_scan(f, range(0, (n + 2) * d + 3))


def test_cubic_surface_matches_the_scan():
    f = parse_poly("x^3 + y^3 + z^3 + t^3 - x*y*t + 2*y*z^2", XYZT)
    assert_matches_scan(f, range(4, 16))


def test_linear_form_has_zero_module():
    """The spot check compares against the formula, which is 0 for d = 1."""
    f = parse_poly("x + 2*y - z", XYZ)
    assert jacobian_dims(f, 4) == [0] * 5
    certs = pole_filtration_dims(f).certificates
    assert [c.values for c in certs] == [(0,)] * 3
    assert {c.rule for c in certs} == {"Sebastiani"}
    assert briancon_skoda(f)
    assert [brieskorn._ctx(f).hf_dim(k) for k in range(6)] == [0] * 6


def test_smooth_jacobian_ring_reads_the_series(monkeypatch):
    """Once smoothness is proved, dim R_k is no elimination but at the probe
    degree, and it agrees with the elimination it replaced."""
    f = parse_poly("x^4 + y^4 + z^4 + x*y*z^2", XYZ)
    ctx = jacobian._ctx(f)
    oracle = [elimination_dim_R(ctx, k) for k in range(ctx.probe + 3)]
    assert smoothness_test(f)

    def no_elimination(*_):
        raise AssertionError("dim R_k eliminated after smoothness was proved")

    monkeypatch.setattr(jacobian, "rank_of_vectors", no_elimination)
    assert jacobian_dims(f, ctx.probe + 2) == oracle
    assert oracle == hilbert_ci_coeffs(3, 3) + [0, 0, 0]


def test_smooth_stabilization_takes_no_power_beyond_the_spot_check():
    f = parse_poly("x^4 + y^4 + z^4 - 2*x^2*y*z", XYZ)
    ctx = brieskorn._ctx(f)
    rep = pole_filtration_dims(f)
    assert rep.dims == (3, 6, 6)        # genus 3, then b_1 = 6 of the curve
    assert {c.rule for c in rep.certificates} == {"Sebastiani"}
    for i in range(4):
        milnor_eigenspace_dim(f, i)
    assert list(ctx._traces) == [(3, None)]
    assert ctx._traces[(3, None)].values == [1, 1]


@pytest.mark.parametrize("bump", ["everywhere", "degree d"])
def test_wrong_hilbert_series_fails_the_spot_check(monkeypatch, bump):
    real = jacobian.hilbert_ci_coeffs

    def wrong(nvars, gen_degree):
        coeffs = real(nvars, gen_degree)
        if bump == "everywhere":
            return [c + 1 for c in coeffs]
        coeffs[gen_degree + 1] += 1
        return coeffs

    monkeypatch.setattr(jacobian, "_contexts", {})
    monkeypatch.setattr(jacobian, "hilbert_ci_coeffs", wrong)
    f = parse_poly("x^3 + y^3 + z^3", XYZ)
    with pytest.raises(InvariantError, match="Sebastiani"):
        hbar_certificate(f, 9)


@pytest.mark.parametrize("text,variables", [
    ("x^3 + y^2*z", XYZ),                       # cuspidal cubic
    ("x^4 + y^4 + z^4", XYZT),                  # cone, singular at one point
])
def test_singular_input_is_scanned(text, variables):
    f = parse_poly(text, variables)
    assert not smoothness_test(f)
    n, d = f.nvars - 1, f.homogeneous_degree()
    certs = list(pole_filtration_dims(f).certificates)
    certs.append(briancon_skoda(f).certificate)
    certs += [hbar_certificate(f, k) for k in range(n + 1, 2 * d + 1)]
    assert certs and all(c.rule in ("early zero", "window") for c in certs)
    assert any(hbar_certificate(f, k).value < brieskorn._ctx(f).hf_dim(k) for k in range(n + 1, 2 * d))
    ctx = jacobian._ctx(f)
    assert jacobian_dims(f, ctx.probe + 1)[-2:] == \
        [elimination_dim_R(ctx, ctx.probe), elimination_dim_R(ctx, ctx.probe + 1)]

"""Push-forward f-power ranks against their direct definition.

The context grows each rank trace one multiplication by f at a time, from
the echelon basis of the previous image.  The oracle here is the definition
itself: multiply every source class by f^N, reduce modulo the relations of
the landing degree, and take the rank of the results.
"""

import random

import pytest

from brieskornlab import brieskorn, jacobian
from brieskornlab.exactlinalg import rank_of_vectors
from brieskornlab.gradedpoly import Poly, monomial_basis, parse_poly

XYZ = ("x", "y", "z")

CORPUS = {
    "smooth": parse_poly("x^3 + y^3 + z^3", XYZ),
    "nodal": parse_poly("y^2*z - x^3 - x^2*z", XYZ),
    "cuspidal": parse_poly("x^3 + y^2*z", XYZ),
    "two_cusp": parse_poly("x^2*y^2 + x*z^3 + y*z^3", XYZ),
    "bs_surface": parse_poly("x^2*z + y^3 + x*y*t", ("x", "y", "z", "t")),
}
POWERS = range(5)


def seeded_form(seed: int, nvars: int, d: int) -> Poly:
    """A reduced form with a few random small coefficients."""
    rng = random.Random(seed)
    monos = monomial_basis(nvars, d)
    while True:
        terms = {m: rng.randint(-3, 3) for m in rng.sample(monos, min(len(monos), 5))}
        f = Poly.from_terms(nvars, terms)
        if not f.is_zero() and jacobian._ctx(f).reduced:
            return f


SEEDED = {f"seed{s}_{nv}v_d{d}": seeded_form(s, nv, d)
          for s, nv, d in ((1, 3, 3), (2, 3, 4), (3, 2, 5))}


def degrees(f: Poly) -> range:
    n, d = f.nvars - 1, f.homogeneous_degree()
    if n >= 3:
        return range(n + 1, n + 3)   # the landing degrees of N = 4 are large
    return range(n, (n + 1) * d + 1)


def coords(p: Poly, m: int) -> dict:
    idx = {mono: i for i, mono in enumerate(monomial_basis(p.nvars, m))}
    return {idx[mono]: c for mono, c in p.terms.items()}


def direct_span_rank(f: Poly, k: int, N: int, polys) -> int:
    """Rank of the reduced f^N * p over the given p, from scratch."""
    n, d = f.nvars - 1, f.homogeneous_degree()
    if k < n + 1:
        return 0
    landing = k + N * d
    rel = brieskorn._ctx(f).relations(landing)
    fN = f ** N
    return rank_of_vectors([rel.reduce(coords(fN * p, landing - n - 1)) for p in polys])


def direct_power_rank(f: Poly, k: int, N: int) -> int:
    n = f.nvars - 1
    src = [Poly.monomial(f.nvars, m) for m in monomial_basis(f.nvars, k - n - 1)]
    return direct_span_rank(f, k, N, src)


def span_seed(f: Poly, k: int, seed: int) -> list:
    """Two or three random combinations of degree-(k-n-1) monomials."""
    rng = random.Random(seed)
    monos = monomial_basis(f.nvars, k - f.nvars)
    return [Poly.from_terms(f.nvars, {m: rng.randint(-2, 2) or 1
                                      for m in rng.sample(monos, min(len(monos), 3))})
            for _ in range(rng.randint(2, 3))]


ALL = {**CORPUS, **SEEDED}


@pytest.mark.parametrize("name", sorted(ALL))
def test_power_rank_matches_direct_definition(name):
    f = ALL[name]
    ctx = brieskorn._ctx(f)
    for k in degrees(f):
        got = [ctx.power_rank(k, N) for N in POWERS]
        assert got == [direct_power_rank(f, k, N) for N in POWERS], (name, k)


@pytest.mark.parametrize("name", sorted(ALL))
def test_span_rank_matches_direct_definition(name):
    f = ALL[name]
    ctx = brieskorn._ctx(f)
    for k in degrees(f):
        if k < f.nvars:
            continue
        polys = span_seed(f, k, k)
        got = [ctx.span_rank(k, N, polys) for N in POWERS]
        assert got == [direct_span_rank(f, k, N, polys) for N in POWERS], (name, k)


def test_class_vector_matches_reduced_product():
    # a fiber with a rational coefficient: the context works with 2f
    f = parse_poly("x^3 + y^3 + z^3 + 1/2*x*y*z", XYZ)
    n, d = 2, 3
    p = parse_poly("x^2*y - 3*z^3 + 1/3*x*y*z", XYZ)
    k = 6
    ctx = brieskorn._ctx(f)
    for power in POWERS:
        landing = k + power * d
        want = ctx.relations(landing).reduce(coords((f ** power) * p, landing - n - 1))
        assert ctx.class_vector(p, k, power) == want


def _forbid(*_args):
    raise AssertionError("rank recomputed instead of read from the trace")


def test_second_call_is_served_from_the_trace(monkeypatch):
    f = CORPUS["two_cusp"]
    ctx = jacobian._JacContext(f)   # cold: the first calls compute
    polys = {k: span_seed(f, k, 0) for k in (4, 6)}
    asks = [(k, N) for k in (4, 6) for N in POWERS]
    first = {(k, N): (ctx.power_rank(k, N), ctx.span_rank(k, N, polys[k])) for k, N in asks}
    for name in ("times_f", "relations", "relation_rows"):
        monkeypatch.setattr(ctx, name, _forbid)
    for k, N in reversed(asks):
        assert (ctx.power_rank(k, N), ctx.span_rank(k, N, polys[k])) == first[(k, N)]


def test_one_image_basis_per_degree():
    f = CORPUS["nodal"]
    n, d = 2, 3
    ctx = jacobian._JacContext(f)   # cold: no trace from another test
    ks = range(n + 1, (n + 1) * d + 1)
    for k in ks:
        for N in POWERS:
            ctx.power_rank(k, N)
    assert set(ctx._traces) == {(k, None) for k in ks}
    for (k, _), trace in ctx._traces.items():
        assert trace.__slots__ == ("k", "values", "basis")
        assert len(trace.values) == len(POWERS)
        # the retained basis is that of the image of the last power only
        landing = k + POWERS[-1] * d
        assert len(trace.basis) == trace.values[-1]
        pivots = set(ctx.relations(landing).pivots)
        ambient = len(monomial_basis(f.nvars, landing - n - 1))
        for v in trace.basis:
            assert all(0 <= c < ambient and c not in pivots for c in v)
        assert rank_of_vectors(trace.basis) == trace.values[-1]

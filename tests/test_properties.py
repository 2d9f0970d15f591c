"""Property tests on random plane curves against closed forms and theorems.

For smooth f the Jacobian ring is a complete intersection of three forms of
degree d-1, so its Hilbert function is that of ((1-t^(d-1))/(1-t))^3; and the
cokernel of multiplication by f on H_f is the Jacobian ring shifted by n+1
(`coker_check_prop16`).  Both are checked through the one context of f, with
exact elimination as the oracle for the series the context reads once f is
proved smooth; and every certificate the Sebastiani fast path issues equals
the one the f-power scan by elimination gives under the same policy.  For
any f, singular or not, the Hilbert function of R obeys Macaulay's bound, and
a Tjurina number certified by Gotzmann persistence stays the dim of R after
the certified degree.  The oracle's Sylvester-kernel gcd of forms in 2-4
variables returns a monic common divisor that a planted common factor
divides; the squarefree test decides as the chain of those gcds over the
partials does, rejects f*h^2 and accepts smooth forms.  On
pencils whose sampled fibers are smooth, the graded connection matrix at
s = 0 is multiplication by -q*g in the Jacobian ring of the fiber, computed
by the dense Fraction Gauss-Jordan of `test_kernel_oracle`.  On reduced
singular forms in 3 and 4 variables, the relation spaces built from the
divergence-free vector fields equal those of the rotation rows
f_a d_b(g) - f_b d_a(g).  On plane curves and cubic surfaces placed through
a random rational point, `build_chart` finds the point off the hypersurface,
or smooth on it, exactly when evaluating f and its n+1 partials there does.
"""

import itertools
from fractions import Fraction
import re
import weakref
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import (coker_check_prop16, evaluate, poly_gcd, squarefree_by_gcd,  # noqa: E402
                     try_divide)
from test_kernel_oracle import dense_rref  # noqa: E402

from brieskornlab import brieskorn, exactlinalg, jacobian  # noqa: E402
from brieskornlab.brieskorn import StabilizationError, StabilizationPolicy  # noqa: E402
from brieskornlab.exactlinalg import Subspace, rank_of_vectors  # noqa: E402
from brieskornlab.families import (DEFAULT_SAMPLES, PencilFamily,  # noqa: E402
                                   grp_nabla_matrix, specialize)
from brieskornlab.gradedpoly import (InputError, Poly, hilbert_ci_coeffs,  # noqa: E402
                                     is_squarefree, monomial_basis)
from brieskornlab.jacobian import (NonIsolatedError, _macaulay_bound,  # noqa: E402
                                   global_tjurina, jacobian_dims, smoothness_test)
from brieskornlab.singularities import build_chart  # noqa: E402


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
    ctx = jacobian._ctx(f)
    eliminated = [len(ctx.index(k)) - rank_of_vectors(ctx.image_rows(k), len(ctx.index(k)))
                  for k in range(len(coeffs) + 1)]
    assert eliminated == coeffs + [0]
    assert jacobian_dims(f, len(coeffs)) == coeffs + [0]
    assert brieskorn._ctx(f) is ctx


def _outcome(stabilize):
    """A certificate's fields but its rule, or the StabilizationError raised."""
    try:
        c = stabilize()
    except StabilizationError as e:
        return ("error", str(e), e.degree, tuple(e.values))
    return ("cert", c.degree, c.values, c.power, c.landing_degree, c.early_zero)


@settings(max_examples=5, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(smooth_plane_curves())
def test_sebastiani_certificate_matches_the_scan(f):
    """On smooth f the fast path's certificate, or StabilizationError, equals
    the scan's field by field in every degree n+1..(n+2)d under the default
    and two small policies; only the rule differs ("Sebastiani" against the
    policy clause that accepted)."""
    ctx = brieskorn._ctx(f)
    for policy in (StabilizationPolicy(), StabilizationPolicy(window=2, max_power=2),
                   StabilizationPolicy(window=3, max_power=4)):
        resolved = policy.resolved(ctx.n, ctx.d)
        for k in range(ctx.n + 1, (ctx.n + 2) * ctx.d + 1):
            fast = _outcome(lambda: brieskorn._stabilize(ctx, k, policy))
            scan = _outcome(lambda: brieskorn._scan(ctx, k, resolved))
            assert fast == scan, (k, policy)
            event(fast[0])
            if fast[0] == "cert":
                assert brieskorn._stabilize(ctx, k, policy).rule == "Sebastiani"
                assert brieskorn._scan(ctx, k, resolved).rule in ("early zero", "window")


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
        h = [jacobian._ctx(f).dim_R(j) for j in range(k, k + 4)]
        assert h[1] > h[0]
        for j in (1, 2):
            assert h[j + 1] == _macaulay_bound(h[j], k + j), (k, h)
        return
    event("finite, tau > 0" if tau else "smooth")
    high = max(start, tau) + 2
    assert tau == jacobian._ctx(f).dim_R(high) == jacobian._ctx(f).dim_R(high + 1)


@st.composite
def forms(draw, nvars, degree):
    """A nonzero form of the given degree with coefficients in -3..3."""
    monos = monomial_basis(nvars, degree)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
    f = Poly.from_terms(nvars, dict(zip(monos, coeffs)))
    assume(not f.is_zero())
    return f


@st.composite
def planted_gcd_pairs(draw):
    """(g, g*a', g*b') for random forms in 2-4 variables, deg g in 1..2."""
    nvars = draw(st.integers(2, 4))
    g = draw(forms(nvars, draw(st.integers(1, 2))))
    a = draw(forms(nvars, draw(st.integers(0, 2))))
    b = draw(forms(nvars, draw(st.integers(0, 2))))
    return g, g * a, g * b


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(planted_gcd_pairs())
def test_gcd_is_a_monic_common_divisor_that_the_planted_factor_divides(pair):
    g, a, b = pair
    gcd = poly_gcd(a, b)
    lead = max(gcd.terms, key=lambda m: (sum(m), m))
    assert gcd.terms[lead] == 1
    assert try_divide(a, gcd) is not None and try_divide(b, gcd) is not None
    assert try_divide(gcd, g) is not None
    event(f"deg gcd - deg g = {gcd.homogeneous_degree() - g.homogeneous_degree()}")


@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.integers(2, 4).flatmap(
    lambda nvars: st.tuples(forms(nvars, 1) | forms(nvars, 2), forms(nvars, 1) | forms(nvars, 2))))
def test_a_squared_factor_is_never_squarefree(pair):
    f, h = pair
    assert not is_squarefree(f * h * h)


@st.composite
def squarefree_candidates(draw):
    """A form in 2-4 variables of degree 0..5 with coefficients in -3..3:
    dense, sparse, free of one variable, or with a planted square g^2 h."""
    nvars, d = draw(st.integers(2, 4)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(("dense", "sparse", "missing", "square")))
    if kind == "square" and d >= 2:
        c = draw(st.integers(1, d // 2))
        g, h = draw(forms(nvars, c)), draw(forms(nvars, d - 2 * c))
        event(kind)
        return g * g * h
    monos = monomial_basis(nvars, d)
    coeff = st.sampled_from((0, 0, 0, 1, -1, 2)) if kind == "sparse" else st.integers(-3, 3)
    f = Poly.from_terms(nvars, dict(zip(monos, draw(st.lists(
        coeff, min_size=len(monos), max_size=len(monos))))))
    if kind == "missing":
        i = draw(st.integers(0, nvars - 1))
        f = Poly.from_terms(nvars, {m: c for m, c in f.terms.items() if not m[i]})
    assume(not f.is_zero())
    event(kind)
    return f


def fresh_context(f: Poly):
    """The context `jacobian._ctx` builds for f, with no verdict kept from
    an earlier call; the probe's verdict is recorded as an event."""
    with mock.patch.object(jacobian, "_contexts", weakref.WeakKeyDictionary()):
        ctx = jacobian._ctx(f)
        event(f"probe proves smooth: {ctx._probe_full_rank} at prime "
              f"{exactlinalg.FULL_RANK_PRIME}")
        return ctx


@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(squarefree_candidates())
def test_squarefree_test_agrees_with_the_gcd_chain(f):
    """The rank of one Macaulay matrix of the partials decides as the gcd
    of f and its partials does, at the default prime and at the prime 3,
    where many modular ranks fall short and the exact rank decides.  So does
    the verdict of a fresh context of f, which a full-rank smoothness probe
    gives without that matrix."""
    expected = squarefree_by_gcd(f)
    event(f"squarefree: {expected}")
    assert is_squarefree(f) == expected
    if f.homogeneous_degree() >= 1:
        assert fresh_context(f).reduced == expected
    with mock.patch.object(exactlinalg, "FULL_RANK_PRIME", 3):
        assert is_squarefree(f) == expected
        if f.homogeneous_degree() >= 1:
            assert fresh_context(f).reduced == expected


@settings(max_examples=20, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.sampled_from(((2, 5), (3, 3), (3, 4), (4, 3))).flatmap(lambda nd: forms(*nd)))
def test_smooth_forms_are_squarefree(f):
    assume(smoothness_test(f))
    assert is_squarefree(f)


@st.composite
def smooth_pencils(draw):
    """f + s*g with f a ternary cubic or quartic (coefficients in -3..3) and g
    a sparse nonzero form of the same degree, every fiber at DEFAULT_SAMPLES
    smooth; the family keeps those fibers."""
    d = draw(st.sampled_from((3, 4)))
    monos = monomial_basis(3, d)
    f = Poly.from_terms(3, dict(zip(monos, draw(st.lists(
        st.integers(-3, 3), min_size=len(monos), max_size=len(monos))))))
    g = Poly.from_terms(3, dict(zip(monos, draw(st.lists(
        st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=len(monos), max_size=len(monos))))))
    assume(not f.is_zero() and not g.is_zero())
    fam = PencilFamily(f, g)
    try:
        smooth = all(smoothness_test(specialize(fam, s)) for s in DEFAULT_SAMPLES)
    except InputError:   # a zero or non-reduced fiber
        smooth = False
    assume(smooth)
    return fam


def jacobian_ring_presentation(f: Poly, m: int, images: list) -> tuple:
    """Greedy monomial basis of R_m = S_m / J_m, J the Jacobian ideal of f,
    and the coordinates of each image over it, by one dense Gauss-Jordan.

    The columns are the generators partial_i(f) * x^a of J_m, then every
    monomial of degree m, then the images.  Leftmost pivots take the
    monomials that are independent of J_m and of the monomials before them,
    the greedy basis; since J_m and the monomials span S_m, no image is a
    pivot, and its column in the RREF holds its coordinates.
    """
    if m < 0:
        return [], [{} for _ in images]
    monos = monomial_basis(3, m)
    d = f.homogeneous_degree()
    gens = [f.partial(i) * Poly.monomial(3, a)
            for a in monomial_basis(3, m - d + 1) for i in range(3)]
    columns = gens + [Poly.monomial(3, mono) for mono in monos] + images
    position = {mono: r for r, mono in enumerate(monos)}
    rows = [{} for _ in monos]
    for c, p in enumerate(columns):
        for mono, v in p.terms.items():
            rows[position[mono]][c] = v
    pivots, rref = dense_rref(rows, len(columns))
    first, last = len(gens), len(gens) + len(monos)
    assert pivots[-1] < last
    basis = [(r, c) for r, c in enumerate(pivots) if c >= first]
    coords = [{i: rref[r][c] for i, (r, _) in enumerate(basis) if rref[r][c]}
              for c in range(last, len(columns))]
    return [monos[c - first] for _, c in basis], coords


@settings(max_examples=6, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(smooth_pencils())
def test_smooth_connection_is_multiplication_in_the_jacobian_ring(fam):
    """grp_nabla_matrix(fam, 0, q) for q <= 2 is multiplication by -q*g from
    R_{qd-n-1} to R_{(q+1)d-n-1} (Griffiths), over the greedy monomial bases."""
    f, g = fam.base, fam.direction
    d = f.homogeneous_degree()
    for q in range(3):
        source, _ = jacobian_ring_presentation(f, q * d - 3, [])
        images = [g.scale(-q) * Poly.monomial(3, mono) for mono in source]
        target, columns = jacobian_ring_presentation(f, (q + 1) * d - 3, images)
        m = grp_nabla_matrix(fam, 0, q)
        assert (m.nrows, m.ncols) == (len(target), len(source)), q
        assert [[m.entry(r, c) for c in range(m.ncols)] for r in range(m.nrows)] == \
            [[col.get(r, 0) for col in columns] for r in range(len(target))], q


def rotation_relation_space(f: Poly, k: int) -> Subspace:
    """(df^dOmega^{n-1})_k spanned by the rotation rows f_a d_b(g) - f_b d_a(g),
    g a monomial of degree k-d-n+1 and a < b: the coefficient of omega_0 in
    df ^ d(g dx_I) for the index sets I missing a and b."""
    nvars, d = f.nvars, f.homogeneous_degree()
    n = nvars - 1
    idx = {mono: i for i, mono in enumerate(monomial_basis(nvars, k - n - 1))}
    partials = [f.partial(a) for a in range(nvars)]
    vectors = []
    for mono in monomial_basis(nvars, k - d - n + 1):
        g = Poly.monomial(nvars, mono)
        for a, b in itertools.combinations(range(nvars), 2):
            row = partials[a] * g.partial(b) - partials[b] * g.partial(a)
            vectors.append({idx[m]: c for m, c in row.terms.items()})
    return Subspace.from_vectors(vectors, len(idx))


@st.composite
def reduced_singular_forms(draw):
    """A squarefree product of linear and quadratic forms with sparse
    coefficients in -3..2: two to three factors of degree up to 4 in 3
    variables, up to 3 in 4 variables.  Two components meet in P^n, so
    f = 0 is singular."""
    nvars = draw(st.sampled_from((3, 4)))
    shapes = ((1, 1), (1, 2), (1, 1, 1)) + (((2, 2), (1, 1, 2)) if nvars == 3 else ())
    f = Poly.constant(nvars, 1)
    for deg in draw(st.sampled_from(shapes)):
        monos = monomial_basis(nvars, deg)
        coeffs = draw(st.lists(st.sampled_from((0, 0, 1, -1, 2, -3)),
                               min_size=len(monos), max_size=len(monos)))
        f = f * Poly.from_terms(nvars, dict(zip(monos, coeffs)))
    assume(not f.is_zero() and is_squarefree(f))
    return f


@settings(max_examples=10, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(reduced_singular_forms())
def test_divergence_free_relations_match_the_rotation_rows(f):
    n, d = f.nvars - 1, f.homogeneous_degree()
    event(f"{f.nvars} variables, degree {d}")
    for k in range(n + 1, (n + 2) * d + 1):
        assert brieskorn._ctx(f).relations(k) == rotation_relation_space(f, k), k


@st.composite
def placed_forms(draw):
    """(f, point, chart): a plane curve of degree 2-4 or a cubic surface with
    integer coefficients, written in the local coordinates
    y_i = x_i - p_i x_chart at a rational point p from a chosen least order
    (0, 1 or 2) up, before its random coefficients vanish; the point has its
    chart coordinate and one other coordinate nonzero, and a random scale."""
    nvars, d = draw(st.sampled_from(((3, 2), (3, 3), (3, 4), (4, 3))))
    chart = draw(st.integers(0, nvars - 1))
    other = draw(st.sampled_from([i for i in range(nvars) if i != chart]))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    pt = [draw(coord) for _ in range(nvars)]
    pt[chart] = 1
    pt[other] = draw(st.fractions(1, 3, max_denominator=3)) * draw(st.sampled_from((1, -1)))
    xc = Poly.variable(nvars, chart)
    ys = [Poly.variable(nvars, i) - xc.scale(pt[i]) for i in range(nvars) if i != chart]
    f = Poly.zero(nvars)
    for e in range(draw(st.integers(0, 2)), d + 1):
        for a in monomial_basis(nvars - 1, e):
            c = draw(st.integers(-3, 3))
            if c:
                term = xc ** (d - e)
                for y, k in zip(ys, a):
                    term = term * y ** k
                f = f + term.scale(c)
    assume(not f.is_zero())
    scale = draw(st.sampled_from((1, -1, 2, Fraction(-1, 3))))
    return f.integer_scaled()[0], tuple(v * scale for v in pt), chart


@settings(max_examples=120, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(placed_forms())
def test_build_chart_verdicts_match_evaluation(placed):
    """build_chart reads f(p) and the partials off the local equation and
    checks n of the n+1 partials; evaluating them all must agree."""
    f, pt, chart = placed
    on = evaluate(f, pt) == 0
    singular = on and not any(evaluate(f.partial(i), pt) for i in range(f.nvars))
    try:
        build_chart(f, pt, chart, (Fraction(1, 2),) * (f.nvars - 1))
        verdict = None
    except InputError as exc:
        verdict = str(exc)
    if not on:
        event("off the hypersurface")
        assert verdict == "point does not lie on the hypersurface"
    elif not singular:
        event("smooth point")
        assert verdict == "point is not a singular point of the hypersurface"
    else:
        event("singular point")
        assert verdict not in ("point does not lie on the hypersurface",
                               "point is not a singular point of the hypersurface")

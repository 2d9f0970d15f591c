"""Weighted-homogeneous singular points, local ideal jets, Hodge filtration."""

import math
from fractions import Fraction

import pytest

from brieskornlab import singularities
from brieskornlab.exactlinalg import InvariantError
from brieskornlab.gradedpoly import InputError, Poly, parse_poly
from brieskornlab.singularities import (WeightedChart, alpha_Y, build_chart,
                                        global_jq_dim, hodge_filtration_dims,
                                        local_jq_jets, local_tjurina,
                                        verify_chart_coverage)

XYZ = ("x", "y", "z")

FERMAT_CUBIC = parse_poly("x^3 + y^3 + z^3", XYZ)
CUSP = parse_poly("x^3 + y^2*z", XYZ)
TWO_CUSP = parse_poly("x^2*y^2 + x*z^3 + y*z^3", XYZ)
NODAL_CUBIC = parse_poly("y^2*z - x^3 - x^2*z", XYZ)

W_CUSP = (Fraction(1, 3), Fraction(1, 2))


def cusp_chart() -> WeightedChart:
    return build_chart(CUSP, (0, 0, 1), 2, W_CUSP)


def two_cusp_charts():
    w = (Fraction(1, 2), Fraction(1, 3))
    return (build_chart(TWO_CUSP, (1, 0, 0), 0, w),
            build_chart(TWO_CUSP, (0, 1, 0), 1, w))


def test_build_chart_cusp():
    ch = cusp_chart()
    assert ch.alpha == Fraction(5, 6)
    assert ch.nloc == 2
    assert ch.local_eq == parse_poly("x^3 + y^2", ("x", "y"))
    assert not ch.swh_tail  # genuinely weighted homogeneous


def test_build_chart_node():
    ch = build_chart(NODAL_CUBIC, (0, 0, 1), 2, (Fraction(1, 2), Fraction(1, 2)))
    assert ch.alpha == 1
    assert ch.swh_tail  # the cubic term sits above weighted degree 1
    assert local_tjurina(ch) == 1


def test_build_chart_scales_points():
    a = build_chart(CUSP, (0, 0, 1), 2, W_CUSP)
    b = build_chart(CUSP, (0, 0, 7), 2, W_CUSP)
    assert a.local_eq == b.local_eq and a.point == b.point


CHART_REFUSALS = [
    (CUSP, (1, 1, 1), 2, W_CUSP, "point does not lie on the hypersurface"),
    (FERMAT_CUBIC, (1, -1, 0), 0, W_CUSP, "point is not a singular point of the hypersurface"),
    (FERMAT_CUBIC, (1, -1, 0), 2, W_CUSP, "point does not lie in the requested chart"),
    (CUSP, (0, 0, 0), 2, W_CUSP, "point does not lie in the requested chart"),
    (CUSP, (0, 0, 1), 3, W_CUSP, "chart index out of range"),
    (CUSP, (0, 1), 2, W_CUSP, "point needs 3 coordinates"),
    (CUSP, (0, 0, 1), 2, (Fraction(1, 3),), "need 2 weights, one per non-chart variable"),
    (CUSP, (0, 0, 1), 2, (Fraction(1), Fraction(1, 2)), "weights must be strictly less than 1"),
    (CUSP, (0, 0, 1), 2, (Fraction(1, 4), Fraction(1, 2)),
     "lowest weighted part of the local equation has weighted degree 3/4, "
     "expected exactly 1 under the given weights"),
    (CUSP, (0, 0, 1), 2, (Fraction(1, 2), Fraction(1, 2)),
     "weighted-degree-1 part has a non-isolated critical point"),
    # f itself is checked by its context (`jacobian._ctx`)
    (Poly.constant(3, 1), (0, 0, 1), 2, W_CUSP, "f must be nonconstant"),
    (Poly.zero(3), (0, 0, 1), 2, W_CUSP, "f must be a nonzero homogeneous polynomial"),
    (parse_poly("x^3", ("x",)), (1,), 0, (), "f must have at least two variables"),
]


def test_build_chart_rejections():
    for f, point, chart, weights, message in CHART_REFUSALS:
        with pytest.raises(InputError) as refused:
            build_chart(f, point, chart, weights)
        assert str(refused.value) == message, (f, point, chart, weights)


def test_alpha_Y():
    assert alpha_Y([cusp_chart()]) == Fraction(5, 6)
    assert alpha_Y([], f=FERMAT_CUBIC) == math.inf
    assert alpha_Y(two_cusp_charts()) == Fraction(5, 6)
    with pytest.raises(InputError):
        alpha_Y([], f=CUSP)  # singular but no chart data supplied


def test_local_tjurina_values():
    assert local_tjurina(cusp_chart()) == 2
    for ch in two_cusp_charts():
        assert local_tjurina(ch) == 2
        assert ch.swh_tail  # y*z^3 tail above weighted degree 1


@pytest.mark.parametrize("a,b", [(a, b) for b in range(2, 7) for a in range(2, b + 1)])
def test_local_tjurina_brieskorn_pham(a, b):
    """x^a + y^b is quasi-homogeneous, so tau = mu = (a-1)(b-1)."""
    f = parse_poly(f"x^{a}*z^{b - a} + y^{b}", XYZ)
    ch = build_chart(f, (0, 0, 1), 2, (Fraction(1, a), Fraction(1, b)))
    assert local_tjurina(ch) == (a - 1) * (b - 1)


def test_local_tjurina_below_milnor():
    """x^4 + y^5 + x^2*y^3 has mu = 12 but tau = 11: with the tail x^2*y^3 the
    germ is not in its own Jacobian ideal, so its Tjurina algebra is smaller."""
    f = parse_poly("x^4*z + y^5 + x^2*y^3", XYZ)
    ch = build_chart(f, (0, 0, 1), 2, (Fraction(1, 4), Fraction(1, 5)))
    assert local_tjurina(ch) == 11


def test_chart_tjurina_is_computed_once(monkeypatch):
    """The coverage check and the report's chart entries share one local
    Tjurina number per chart: later reads run no elimination."""
    charts = two_cusp_charts()
    rep = hodge_filtration_dims(TWO_CUSP, charts)

    def no_elimination(*_):
        raise AssertionError("local Tjurina number recomputed")

    monkeypatch.setattr(singularities, "rank_of_vectors", no_elimination)
    assert [local_tjurina(c) for c in rep.charts] == [2, 2]
    assert verify_chart_coverage(TWO_CUSP, charts) == 4


def test_build_chart_rejects_non_isolated_h1():
    f = parse_poly("y^2*z^2 + x^4", XYZ)  # h1 = y^2
    with pytest.raises(InputError, match="non-isolated"):
        build_chart(f, (0, 0, 1), 2, (Fraction(1, 2), Fraction(1, 2)))


THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)


@pytest.mark.parametrize("h1,weights,isolated", [
    ("x^2*y", (THIRD, THIRD), False),
    ("x*y*z", (THIRD, THIRD, THIRD), False),
    ("x^2*y + z^2", (THIRD, THIRD, HALF), False),
    ("x^3 + y^2", (THIRD, HALF), True),
    ("x^2 + y^2 + z^2", (HALF, HALF, HALF), True),
    ("x^2*y + y^3", (THIRD, THIRD), True),
    ("x^3 + x*y^2", (THIRD, THIRD), True),
])
def test_isolated_weighted(h1, weights, isolated):
    poly = parse_poly(h1, XYZ[:len(weights)])
    assert singularities._isolated_weighted(poly, weights) is isolated


def test_local_jq_jets_cusp_q0():
    jets = local_jq_jets(cusp_chart(), 0)
    assert jets.threshold == Fraction(1, 6)
    assert jets.basis == ((0, 0),)
    assert jets.jet_space.dim == 0  # one point condition on global sections


def test_local_jq_jets_cusp_q1():
    """J^(1) at the cusp: truncated below 7/6, the ideal jets are spanned by
    x*y, x^3, y^2 inside the 7 monomials under the threshold."""
    jets = local_jq_jets(cusp_chart(), 1)
    assert jets.threshold == Fraction(7, 6)
    assert jets.basis == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (0, 2))
    assert jets.jet_space.dim == 3
    pos = {m: i for i, m in enumerate(jets.basis)}
    for member in ((1, 1), (3, 0), (0, 2)):
        assert jets.jet_space.contains({pos[member]: 1})
    for non_member in ((0, 0), (1, 0), (0, 1), (2, 0)):
        assert not jets.jet_space.contains({pos[non_member]: 1})


def test_global_jq_dim_two_cusp_line():
    """Exactly one line passes through both cusps: z = 0."""
    f, charts = TWO_CUSP, two_cusp_charts()
    dim, basis = global_jq_dim(f, charts, 0)
    assert dim == 1
    assert len(basis) == 1
    p = basis[0]
    assert p.is_homogeneous() and p.homogeneous_degree() == 1
    nonzero = {m for m, c in p.terms.items() if c}
    assert nonzero == {(0, 0, 1)}  # the line z = 0


def test_global_jq_dim_degenerate_degree():
    dim, basis = global_jq_dim(CUSP, [cusp_chart()], 0)
    assert (dim, basis) == (0, [])  # forms of degree d-n-1 = 0 all vanish? no sections


def test_verify_chart_coverage():
    assert verify_chart_coverage(TWO_CUSP, two_cusp_charts()) == 4
    with pytest.raises(InputError):
        verify_chart_coverage(TWO_CUSP, two_cusp_charts()[:1])  # one cusp missing
    ch = two_cusp_charts()[0]
    with pytest.raises(InputError):
        verify_chart_coverage(TWO_CUSP, (ch, ch))  # same point twice


def test_hodge_smooth_equals_pole():
    rep = hodge_filtration_dims(FERMAT_CUBIC, ())
    assert rep.alpha == math.inf
    assert rep.hodge_dims == rep.pole_dims == (1, 2, 2)
    assert rep.equal_range == (0, 1, 2)
    assert rep.strict_drop == ()


def test_hodge_cusp_all_zero():
    rep = hodge_filtration_dims(CUSP, (cusp_chart(),))
    assert rep.alpha == Fraction(5, 6)
    assert rep.hodge_dims == (0, 0, 0) == rep.pole_dims
    assert rep.equal_range == ()  # alpha < 1 forces nothing
    assert rep.strict_drop == ()


def test_hodge_two_cusp_strict_drop():
    rep = hodge_filtration_dims(TWO_CUSP, two_cusp_charts())
    assert rep.pole_dims == (2, 2, 2)
    assert rep.hodge_dims == (1, 2, 2)
    assert rep.strict_drop == (0,)
    assert all(rep.hodge_dims[q] <= rep.pole_dims[q] for q in range(3))


def test_hodge_refuses_uncovered_singularities():
    with pytest.raises(InputError):
        hodge_filtration_dims(CUSP, ())  # singular, no charts
    with pytest.raises(InputError):
        hodge_filtration_dims(TWO_CUSP, two_cusp_charts()[:1])

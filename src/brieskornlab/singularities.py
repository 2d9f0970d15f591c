"""Weighted-homogeneous local data at hypersurface singularities.

Each singular point comes with user-supplied local weights; the chart builder
validates that the lowest weighted part h_1 of the local equation is weighted
homogeneous of weighted degree 1 with an isolated critical point.  From the
weights one reads off alpha = sum of weights, the monomial ideals of bounded
weighted order, and the local ideals whose degree-(q+1)d-n-1 global sections
cut out the Hodge filtration on H^n of the complement inside the pole-order
filtration.

The local ideal of level q is evaluated through its low-weight jets: every
element of weighted degree at least q+1-alpha is a member for free, so
membership of a germ g is decided entirely by the truncation of g below that
threshold against the truncated span of an explicit finite generating family.

The three local eliminations (those jet spaces, the isolatedness check on
h_1 and the local Tjurina number) share one truncated-jet row builder,
`_jet_rows`; the local Tjurina number is its unit-weight case, with jets
taken in total degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import floor, inf

from .brieskorn import StabilizationPolicy, pole_filtration_dims, stabilized_span_rank
from .exactlinalg import ExactMatrix, InvariantError, Subspace, rank_of_vectors
from .gradedpoly import (InputError, Poly, dehomogenize_shift, monomials_weighted_below,
                         multiples, weight_vector, weighted_degree)
from .jacobian import _ctx, global_tjurina, smoothness_test


class WeightedChart:
    """A singular point with an affine chart and validated local weights.

    point is scaled so the chart coordinate equals 1; local_eq lives in the
    n remaining variables in their original order, centered at the point.
    h1 is the weighted-degree-1 part of local_eq; alpha the sum of weights.
    Immutable by convention; no __slots__, since `tjurina` is kept in the
    instance __dict__.
    """

    def __init__(self, point: tuple, chart: int, weights: tuple, local_eq: Poly,
                 alpha: Fraction, h1: Poly):
        self.point = point
        self.chart = chart
        self.weights = weights
        self.local_eq = local_eq
        self.alpha = alpha
        self.h1 = h1

    @property
    def nloc(self) -> int:
        return self.local_eq.nvars

    @property
    def swh_tail(self) -> bool:
        """True when the local equation has terms above weighted degree 1."""
        return self.local_eq != self.h1

    @cached_property
    def tjurina(self) -> int:
        """The local Tjurina number, computed on first use and kept on the
        chart; read it through `local_tjurina`.  The jets of (h, dh) are
        taken in total degree: the unit-weight case of `_jet_rows`."""
        h = self.local_eq
        gens = [h] + [h.partial(i) for i in range(self.nloc)]
        unit = (1,) * self.nloc
        prev = None
        for K in range(2, 64):
            monos = monomials_weighted_below(self.nloc, unit, K)
            idx = {m: i for i, m in enumerate(monos)}
            cur = len(monos) - rank_of_vectors(_jet_rows(gens, unit, K, idx))
            if prev is not None and cur == prev:
                return cur
            prev = cur
        raise InvariantError("local Tjurina truncation did not stabilize by order 64")


def _jet_rows(gens, weights: tuple, threshold, idx: dict) -> list:
    """Truncations below weighted degree threshold of every monomial multiple
    of each generator, as sparse rows over the columns idx, which index
    exactly the monomials below the threshold (so truncation is membership).

    A multiple o*g reaches below the threshold only when wdeg(o) is below
    threshold minus the lowest weighted degree of g; multiples whose
    truncation vanishes give no row.
    """
    rows = []
    for g in gens:
        low = [(m, c) for m, c in g.terms.items() if m in idx]
        if low:
            glow = min(weighted_degree(m, weights) for m, _ in low)
            multipliers = monomials_weighted_below(g.nvars, weights, threshold - glow)
            rows.extend(row for row in multiples([low], multipliers, idx) if row)
    return rows


def _isolated_weighted(h1: Poly, weights: tuple) -> bool:
    """Whether the weighted-homogeneous h1 has an isolated critical point at 0.

    The Milnor algebra C[y]/(dh1) of an isolated weighted-homogeneous germ is
    artinian with socle in weighted degree s = sum(1-2w_i); if the critical
    point is not isolated the algebra is nonzero in arbitrarily high weighted
    degrees.  Stripping one variable at a time from a surviving monomial drops
    its weighted degree by at most max(w), so the algebra vanishes above s
    iff it vanishes in every attainable weighted degree in (s, s+max(w)].
    The partials are weighted homogeneous, so their jet span below a
    threshold past s+max(w) is graded, and the algebra vanishes in a degree
    iff every monomial of that degree is a pivot column of the span.
    """
    socle = sum(1 - 2 * w for w in weights)
    threshold = socle + 2 * max(weights)
    monos = monomials_weighted_below(h1.nvars, weights, threshold)
    idx = {m: i for i, m in enumerate(monos)}
    partials = [h1.partial(i) for i in range(h1.nvars)]
    pivots = set(Subspace.from_vectors(_jet_rows(partials, weights, threshold, idx),
                                       len(monos)).pivots)
    return all(i in pivots for m, i in idx.items() if weighted_degree(m, weights) > socle)


def build_chart(f: Poly, point, chart: int, weights) -> WeightedChart:
    """Validate a singular point of f = 0 with its local weights.

    Checks, in order: f is a hypersurface (`jacobian._ctx`); the point is
    rational and lies in the chart; the local equation (f at the point moved
    to the origin, x_chart = 1) has no constant term, f(p), and no linear
    term, the partials at p off the chart (the chart's then vanishes by
    Euler's formula sum p_i df/dx_i(p) = d f(p)); the weights lie in (0, 1);
    the lowest weighted part of the local equation sits exactly in weighted
    degree 1; and that part has an isolated critical point at the origin.
    """
    ctx = _ctx(f)
    try:
        pt = tuple(Fraction(v) for v in point)
    except (TypeError, ValueError) as exc:
        raise InputError(f"point coordinates must be rational: {exc}") from None
    if len(pt) != ctx.nvars:
        raise InputError(f"point needs {ctx.nvars} coordinates")
    if not 0 <= chart < ctx.nvars:
        raise InputError("chart index out of range")
    if pt[chart] == 0:
        raise InputError("point does not lie in the requested chart")
    pt = tuple(v / pt[chart] for v in pt)
    local_eq = dehomogenize_shift(f, chart, pt)
    if (0,) * ctx.n in local_eq.terms:
        raise InputError("point does not lie on the hypersurface")
    if any(sum(m) == 1 for m in local_eq.terms):
        raise InputError("point is not a singular point of the hypersurface")
    ws = weight_vector(weights)
    if len(ws) != ctx.n:
        raise InputError(f"need {ctx.n} weights, one per non-chart variable")
    if any(w >= 1 for w in ws):
        raise InputError("weights must be strictly less than 1")
    low = local_eq.min_weighted_degree(ws)
    if low != 1:
        raise InputError(
            f"lowest weighted part of the local equation has weighted degree {low}, "
            "expected exactly 1 under the given weights")
    parts = local_eq.weighted_parts(ws)
    h1 = parts[Fraction(1)]
    if not _isolated_weighted(h1, ws):
        raise InputError("weighted-degree-1 part has a non-isolated critical point")
    return WeightedChart(pt, chart, ws, local_eq, sum(ws, Fraction(0)), h1)


def alpha_Y(charts, f: Poly | None = None):
    """min over the charts of alpha; +infinity for an empty chart list.

    When f is supplied, an empty chart list is cross-checked against the
    smoothness test so a singular hypersurface cannot masquerade as smooth.
    """
    if not charts:
        if f is not None and not smoothness_test(f):
            raise InputError("hypersurface is singular but no charts were supplied")
        return inf
    return min(c.alpha for c in charts)


class LocalIdealJets:
    """Membership data for the level-q local ideal below its free threshold.

    basis lists the local monomials of weighted degree < threshold (the
    truncation coordinates); jet_space is the span of the truncations of the
    generating family.  A germ belongs to the ideal iff its truncation lies
    in jet_space; with threshold <= 0 there is no condition at all.
    """

    __slots__ = ("threshold", "basis", "jet_space")

    def __init__(self, threshold: Fraction, basis: tuple, jet_space: Subspace):
        self.threshold = threshold
        self.basis = basis
        self.jet_space = jet_space


def local_jq_jets(chart: WeightedChart, q: int) -> LocalIdealJets:
    """Truncated generating family of the level-q local ideal.

    The ideal is the sum over k = 0..min(k0, q), k0 = floor(n - alpha) - 1, of
    all order-(<= q-k) derivative combinations applied to monomials of
    weighted order >= k+1-alpha against h^{-k-1}, cleared of denominators:
    the generator for a derivative sequence of length j is N_j * h^{q-k-j}
    where N_0 = m and N_{j+1} = d_i(N_j)*h - (k+1+j)*N_j*d_i(h).

    Truncation bounds (used below, derived from wdeg(h) >= 1,
    wdeg(d_i A) >= wdeg(A) - w_i):
      * wdeg(N_j * h^{q-k-j}) >= wdeg(m) + (q-k) - j*max(w), so only m with
        wdeg(m) < k+1-alpha + (q-k)*max(w) can contribute below the threshold;
      * a term t of N_j only contributes final weighted degrees
        >= wdeg(t) + (q-k-j)(1-max(w)), so t is dropped once
        wdeg(t) >= threshold - (q-k-j)(1-max(w)).
    """
    if q < 0:
        raise InputError("q must be nonnegative")
    theta = q + 1 - chart.alpha
    nloc = chart.nloc
    if theta <= 0:
        return LocalIdealJets(theta, (), Subspace.zero(0))
    ws = chart.weights
    wmax = max(ws)
    basis = tuple(monomials_weighted_below(nloc, ws, theta))
    idx = {m: i for i, m in enumerate(basis)}
    h = chart.local_eq
    dh = [h.partial(i) for i in range(nloc)]
    k0 = min(floor(nloc - chart.alpha) - 1, q)

    rows = []
    for k in range(k0 + 1):
        jmax = q - k
        low = k + 1 - chart.alpha
        cand = [m for m in monomials_weighted_below(nloc, ws, low + jmax * wmax)
                if weighted_degree(m, ws) >= low]
        hpows = [h ** e for e in range(jmax + 1)]
        for m0 in cand:
            level = [Poly.monomial(nloc, m0)]
            for j in range(jmax + 1):
                hpow = hpows[jmax - j]
                rows.extend(_jet_rows((A * hpow for A in level), ws, theta, idx))
                if j == jmax:
                    break
                r = k + 1 + j
                bound = theta - (jmax - j - 1) * (1 - wmax)
                nxt = []
                for A in level:
                    for i in range(nloc):
                        B = A.partial(i) * h - (A * dh[i]).scale(r)
                        B = B.truncate_weighted(ws, bound)
                        if not B.is_zero():
                            nxt.append(B)
                level = nxt
                if not level:
                    break
    return LocalIdealJets(theta, basis, Subspace.from_vectors(rows, len(basis)))


def _chart_conditions(f: Poly, chart: WeightedChart, q: int, globals_: list) -> list:
    """Linear conditions on C[x]_m coefficients from one chart's jet test."""
    jets = local_jq_jets(chart, q)
    idx = {m: i for i, m in enumerate(jets.basis)}
    cond: dict = {}
    for j, mono in enumerate(globals_):
        loc = dehomogenize_shift(Poly.monomial(f.nvars, mono), chart.chart, chart.point)
        trunc = {idx[m]: c for m, c in loc.terms.items() if m in idx}
        if not trunc:
            continue
        res = jets.jet_space.reduce(trunc)
        for coord, val in res.items():
            cond.setdefault(coord, {})[j] = val
    return list(cond.values())


def global_jq_dim(f: Poly, charts, q: int) -> tuple:
    """Dimension and basis of the degree-(q+1)d-n-1 sections of the global
    level-q ideal: forms whose local jets pass every chart's membership test."""
    ctx = _ctx(f)
    if q < 0:
        raise InputError("q must be nonnegative")
    m = (q + 1) * ctx.d - ctx.n - 1
    globals_ = ctx.monomials(m)
    rows = []
    for chart in charts:
        rows.extend(_chart_conditions(f, chart, q, globals_))
    kernel = ExactMatrix.from_rows(rows, len(globals_)).kernel_basis()
    basis = []
    for vec in kernel.basis():
        basis.append(Poly.from_terms(f.nvars, {globals_[j]: c for j, c in vec.items()}))
    return kernel.dim, basis


def local_tjurina(chart: WeightedChart) -> int:
    """dim of the local algebra by (h, dh), via stabilized jet truncations.

    dim C[y]/((h,dh)+m^K) is nondecreasing in K and bounded by the Tjurina
    number; one flat step K -> K+1 certifies stabilization, since
    m^K inside (ideal + m^{K+1}) forces m^K inside the ideal by Krull
    intersection in the local ring.  Computed once per chart
    (`WeightedChart.tjurina`), so the coverage check and the report share it.
    """
    return chart.tjurina


def verify_chart_coverage(f: Poly, charts) -> int:
    """Check the charts account for the entire singular locus of f = 0.

    The one check of a chart against f: its point has one coordinate per
    variable of f and its local equation is recomputed from f.  Requires the
    points to be distinct, and matches the sum of local Tjurina numbers
    against the global one.  Returns the common value.
    """
    seen = set()
    for chart in charts:
        lead = next(v for v in chart.point if v != 0)
        canonical = tuple(v / lead for v in chart.point)
        if canonical in seen:
            raise InputError(f"duplicate singular point {':'.join(map(str, chart.point))}")
        seen.add(canonical)
        if (len(chart.point) != f.nvars
                or dehomogenize_shift(f, chart.chart, chart.point) != chart.local_eq):
            raise InputError("chart was not built from this polynomial")
    total = global_tjurina(f)
    covered = sum(local_tjurina(c) for c in charts)
    if covered != total:
        raise InputError(
            f"charts cover Tjurina number {covered} but the hypersurface has {total}; "
            "some singular points are missing or duplicated")
    return total


class HodgeReport:
    """Hodge vs pole-order filtration dims on H^n(U), with the alpha invariant.

    hodge_dims[q] = dim F^{n-q}, pole_dims[q] = dim P^{n-q}, q = 0..n.
    equal_range lists the q where F = P is forced (q <= alpha-1) and checked.
    alpha is a Fraction, or math.inf for smooth input.
    """

    __slots__ = ("n", "d", "alpha", "hodge_dims", "pole_dims", "equal_range",
                 "certificates", "charts")

    def __init__(self, n: int, d: int, alpha, hodge_dims: tuple, pole_dims: tuple,
                 equal_range: tuple, certificates: tuple, charts: tuple):
        self.n = n
        self.d = d
        self.alpha = alpha
        self.hodge_dims = hodge_dims
        self.pole_dims = pole_dims
        self.equal_range = equal_range
        self.certificates = certificates
        self.charts = charts

    @property
    def strict_drop(self) -> tuple:
        """The q where F^{n-q} is strictly smaller than P^{n-q}."""
        return tuple(q for q in range(self.n + 1) if self.hodge_dims[q] < self.pole_dims[q])


def hodge_filtration_dims(f: Poly, charts, policy: StabilizationPolicy | None = None) -> HodgeReport:
    """Hodge filtration dims on H^n(U) through the global level-q ideals.

    dim F^{n-q} is the stabilized rank of the span of J^(q)-section classes
    inside the degree-(q+1)d piece of the torsion-free quotient.  Smooth input
    with no charts short-circuits to F = P.  Every report re-checks F <= P
    and F = P on q <= alpha-1.
    """
    pole = pole_filtration_dims(f, policy)
    n, d = pole.n, pole.d
    charts = tuple(charts)
    if charts:
        verify_chart_coverage(f, charts)
    alpha = alpha_Y(charts, f)
    certs = []
    dims = []
    for q in range(n + 1):
        if not charts:
            certs.append(pole.certificates[q])
            dims.append(pole.dims[q])
            continue
        _, basis = global_jq_dim(f, charts, q)
        cert = stabilized_span_rank(f, (q + 1) * d, basis, policy)
        certs.append(cert)
        dims.append(cert.value)
    equal_range = tuple(q for q in range(n + 1) if q + 1 <= alpha)
    for q in range(n + 1):
        if dims[q] > pole.dims[q]:
            raise InvariantError(
                f"Hodge dim exceeds pole dim at q={q}: {dims[q]} > {pole.dims[q]}")
        if q + 1 <= alpha and dims[q] != pole.dims[q]:
            raise InvariantError(
                f"F = P forced for q <= alpha-1 but fails at q={q}: "
                f"{dims[q]} != {pole.dims[q]} (alpha = {alpha})")
    return HodgeReport(n, d, alpha, tuple(dims), tuple(pole.dims), equal_range,
                       tuple(certs), charts)

"""End-to-end acceptance checks: worked examples plus property suites.

Each test covers one target and prints a single timed PASS line.  All value
comparisons are exact (integers and Fractions); the only tolerances here are
wall-clock budgets on the named examples.

The corpus is the problems/ directory: every polynomial that appears there
feeds the dimension-identity and stabilization suites.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from brieskornlab import (
    PencilFamily,
    Poly,
    briancon_skoda,
    build_chart,
    grp_nabla_matrix,
    hbar_certificate,
    hodge_filtration_dims,
    milnor_eigenspace_dim,
    parse_poly,
    pole_filtration_dims,
    tjurina_scan,
)
from brieskornlab import brieskorn, jacobian
from brieskornlab.cli import load_problem
from brieskornlab.exactlinalg import ExactMatrix
from brieskornlab.gradedpoly import hilbert_ci_coeffs, monomial_basis
from brieskornlab.singularities import alpha_Y, global_jq_dim
from oracles import (EulerField, Form, coker_check_prop16, evaluate, exterior_d, iota_euler,
                     lie_euler, omega0, smooth_hodge_numbers, wedge)
from test_families import lift_powers

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _corpus():
    """Distinct homogeneous polynomials across all problem files."""
    seen = {}
    for path in sorted(PROBLEMS.glob("*.txt")):
        problem = load_problem(str(path))
        f = parse_poly(problem["polynomial"], problem["variables"])
        seen.setdefault(f, path.stem)
    return [(name, f) for f, name in seen.items()]


CORPUS = _corpus()


def _done(label: str, started: float, budget=None):
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"{label}: {elapsed:.1f}s over the {budget}s budget"
    note = f" (budget {budget}s)" if budget is not None else ""
    print(f"PASS {label}: {elapsed:.2f}s{note}")


# ---------------------------------------------------------------------------
# smooth hypersurfaces


SMOOTH_FERMAT = {
    (2, 3): "x^3 + y^3 + z^3",
    (2, 4): "x^4 + y^4 + z^4",
    (3, 3): "x^3 + y^3 + z^3 + t^3",
    (3, 4): "x^4 + y^4 + z^4 + t^4",
}


def _pole_dims_oracle(n: int, d: int) -> tuple:
    """Partial sums of the Jacobian-ring Hilbert function at degrees qd+d-n-1.

    For smooth f the ring is a complete intersection in degree d-1, so its
    Hilbert function is independent of f and the pole dimensions follow from
    it alone.
    """
    coeffs = hilbert_ci_coeffs(n + 1, d - 1)
    running, dims = 0, []
    for q in range(n + 1):
        m = q * d + d - n - 1
        running += coeffs[m] if 0 <= m < len(coeffs) else 0
        dims.append(running)
    return tuple(dims)


def test_smooth_pole_dims_match_hilbert_partial_sums():
    started = time.perf_counter()
    names = ("x", "y", "z", "t")
    for (n, d), text in SMOOTH_FERMAT.items():
        f = parse_poly(text, names[: n + 1])
        assert pole_filtration_dims(f).dims == _pole_dims_oracle(n, d), (n, d)
    quartic = parse_poly(SMOOTH_FERMAT[3, 4], names)
    dims = pole_filtration_dims(quartic).dims
    assert list(dims) == [1, 20, 21, 21]
    assert dims[1] - dims[0] == 19  # primitive h^{1,1} of the quartic surface
    assert smooth_hodge_numbers(3, 4) == [1, 19, 1]
    _done("smooth pole dims vs Hilbert partial sums", started, budget=60)


# ---------------------------------------------------------------------------
# named singular examples


def test_cuspidal_cubic_vanishing_alpha_and_power_membership():
    started = time.perf_counter()
    f = parse_poly("x^3 + y^2*z", ("x", "y", "z"))
    assert pole_filtration_dims(f).dims == (0, 0, 0)
    chart = build_chart(f, (0, 0, 1), 2, (Fraction(1, 3), Fraction(1, 2)))
    assert alpha_Y([chart]) == Fraction(5, 6)
    bs = briancon_skoda(f)
    assert bs.holds is True
    assert isinstance(bs.witness_power, int) and bs.witness_power >= 1
    _done("cuspidal cubic: zero pole dims, alpha 5/6, power membership", started, budget=10)


def test_cubic_surface_power_membership():
    started = time.perf_counter()
    f = parse_poly("x^2*z + y^3 + x*y*t", ("x", "y", "z", "t"))
    bs = briancon_skoda(f)
    assert bs.holds is True
    assert isinstance(bs.witness_power, int) and bs.witness_power >= 1
    _done("cubic surface: power membership holds", started, budget=60)


def test_two_cusp_quartic_hodge_strictly_below_pole():
    started = time.perf_counter()
    f = parse_poly("x^2*y^2 + x*z^3 + y*z^3", ("x", "y", "z"))
    weights = (Fraction(1, 2), Fraction(1, 3))
    charts = [
        build_chart(f, (1, 0, 0), 0, weights),
        build_chart(f, (0, 1, 0), 1, weights),
    ]
    dim, basis = global_jq_dim(f, charts, 0)
    assert dim == 1  # the one line through both cusps
    line = basis[0]
    assert line.is_homogeneous() and line.homogeneous_degree() == 1
    for point in ((1, 0, 0), (0, 1, 0)):
        assert evaluate(line, point) == 0
    report = hodge_filtration_dims(f, charts)
    assert report.hodge_dims[0] < report.pole_dims[0]
    assert (report.hodge_dims[0], report.pole_dims[0]) == (1, 2)
    _done("two-cusp quartic: F^2 strictly below P^2", started, budget=60)


# ---------------------------------------------------------------------------
# dense input


def test_dense_sextic_and_quartic_surface_are_reduced_within_budget():
    """Reducedness is the rank of one Macaulay matrix of the partials, so
    dense forms with coefficients in -3..3 are decided in milliseconds; a
    recursive PRS gcd ran for minutes on the same sextic."""
    started = time.perf_counter()
    rng = random.Random(8)
    for nvars, d in ((3, 6), (4, 4)):
        f = Poly.from_terms(nvars, {m: rng.randint(-3, 3) for m in monomial_basis(nvars, d)})
        assert len(f.terms) > len(monomial_basis(nvars, d)) // 2
        assert jacobian._ctx(f).reduced, (nvars, d)
    _done("dense sextic and quartic surface are reduced", started, budget=5)


# ---------------------------------------------------------------------------
# property suites over the corpus


def test_cokernel_dimension_identity_across_corpus():
    started = time.perf_counter()
    assert len(CORPUS) >= 8
    for name, f in CORPUS:
        n = f.nvars - 1
        d = f.homogeneous_degree()
        for k in range(n + 1, (n + 2) * d + 1):
            ctx = brieskorn._ctx(f)
            lhs = ctx.hf_dim(k) - ctx.power_rank(k - d, 1)
            assert lhs == jacobian._ctx(f).dim_R(k - n - 1), (name, k)
            assert coker_check_prop16(f, k), (name, k)
    _done("cokernel dimension identity across corpus", started)


def test_stabilized_dims_monotone_and_eventually_periodic():
    started = time.perf_counter()
    for name, f in CORPUS:
        n = f.nvars - 1
        d = f.homogeneous_degree()
        top = n * d + 4 * d - 1  # covers three full periods past nd in each residue class
        values = {k: hbar_certificate(f, k).value for k in range(n + 1, top + 1)}
        for k in range(n + 1, top - d + 1):
            assert values[k] <= values[k + d], (name, k)
        for k in range(n * d, top - d + 1):
            assert values[k] == values[k + d], (name, k)
    _done("stabilized dims monotone, constant past n*d", started)


def _rand_poly(rng, nvars, degree):
    terms = {}
    monos = monomial_basis(nvars, degree)
    for m in rng.sample(monos, k=min(len(monos), rng.randint(1, 4))):
        terms[m] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly.from_terms(nvars, terms)


def _rand_form(rng, nvars, j, cdeg):
    if j == 0:
        return Form.from_poly(_rand_poly(rng, nvars, cdeg))
    idxs = [tuple(c) for c in combinations(range(nvars), j)]
    terms = {}
    for idx in rng.sample(idxs, k=rng.randint(1, len(idxs))):
        p = _rand_poly(rng, nvars, cdeg)
        if not p.is_zero():
            terms[idx] = p
    return Form.from_terms(nvars, j, terms)


def test_exterior_calculus_randomized_identities():
    started = time.perf_counter()
    rng = random.Random(20260814)
    cases = 0
    for _ in range(260):
        nvars = rng.choice((3, 4))
        d = rng.randint(2, 5)
        xi = EulerField(nvars, d)

        w = _rand_form(rng, nvars, rng.randint(0, nvars - 1), rng.randint(0, 3))
        assert exterior_d(exterior_d(w)).is_zero()
        cases += 1

        w2 = _rand_form(rng, nvars, rng.randint(1, nvars), rng.randint(0, 3))
        assert iota_euler(iota_euler(w2, xi), xi).is_zero()
        cases += 1

        j = rng.randint(0, nvars)
        cdeg = rng.randint(0, 3)
        w3 = _rand_form(rng, nvars, j, cdeg)
        assert lie_euler(w3, xi) == w3.scale(Fraction(cdeg + j, d))
        cases += 1

        f = _rand_poly(rng, nvars, d)
        P = _rand_poly(rng, nvars, rng.randint(0, 3))
        w0 = omega0(nvars)
        lhs = wedge(exterior_d(Form.from_poly(f)), iota_euler(w0.scale(P), xi))
        assert lhs == w0.scale(f * P)
        cases += 1
    assert cases >= 1000
    _done(f"exterior calculus identities on {cases} randomized cases", started)


# ---------------------------------------------------------------------------
# Milnor fiber eigenspaces


def test_milnor_eigenspace_sum_for_fermat_cubic():
    started = time.perf_counter()
    n, d = 2, 3
    f = parse_poly("x^3 + y^3 + z^3", ("x", "y", "z"))
    dims = [milnor_eigenspace_dim(f, i) for i in range(d)]
    assert sum(dims) == (d - 1) ** (n + 1) == 8
    # the two landing degrees compute the same eigenspace
    for i in range(d):
        assert (hbar_certificate(f, (n + 2) * d - i).value
                == hbar_certificate(f, (n + 1) * d - i).value), i
    _done("Milnor eigenspace dims sum to 8 for the Fermat cubic", started)


# ---------------------------------------------------------------------------
# graded connection matrices


def test_graded_connection_matrices_and_tjurina_scan(monkeypatch):
    started = time.perf_counter()
    vars3 = ("x", "y", "z")
    fermat = parse_poly("x^3 + y^3 + z^3", vars3)

    const = PencilFamily(fermat, Poly.zero(3))
    for q in (1, 2):
        m = grp_nabla_matrix(const, 0, q)
        assert m == ExactMatrix.zeros(m.nrows, m.ncols), q

    pencil = PencilFamily(fermat, parse_poly("x*y*z", vars3))
    m0 = grp_nabla_matrix(pencil, 0, 0)
    assert m0 == ExactMatrix.zeros(m0.nrows, m0.ncols)

    lift_powers(monkeypatch, 1)
    m1 = grp_nabla_matrix(pencil, 0, 1)
    lift_powers(monkeypatch, 2)
    m2 = grp_nabla_matrix(pencil, 0, 1)
    assert m1 == m2
    assert (m1.nrows, m1.ncols) == (1, 1) and m1.entry(0, 0) == -1

    base = parse_poly("x^4*z + y^5", vars3)
    fam = PencilFamily(base, parse_poly("x^2*y^3", vars3))
    scan = tjurina_scan(fam, samples=(0, 1))
    taus = {row.sample: row.tjurina for row in scan.rows}
    assert taus[0] > taus[1]
    assert scan.jumps == (0,)
    _done("graded connection matrices and Tjurina scan", started)

"""Jacobian rings: graded dims, smoothness, Tjurina numbers; the lifetime of
the context of a hypersurface."""

import gc
import sys
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

import brieskornlab
from brieskornlab import brieskorn, exactlinalg, gradedpoly, jacobian
from brieskornlab.cli import main
from brieskornlab.exactlinalg import InvariantError
from brieskornlab.families import PencilFamily, pole_constancy_check, specialize
from brieskornlab.gradedpoly import InputError, hilbert_ci_coeffs, parse_poly
from brieskornlab.jacobian import (NonIsolatedError, _macaulay_bound, global_tjurina,
                                   jacobian_dims, smoothness_test)
from oracles import smooth_hodge_numbers

XYZ = ("x", "y", "z")
XYZT = ("x", "y", "z", "t")

FERMAT_CUBIC = parse_poly("x^3 + y^3 + z^3", XYZ)
CUSP = parse_poly("x^3 + y^2*z", XYZ)
TWO_CUSP = parse_poly("x^2*y^2 + x*z^3 + y*z^3", XYZ)
NODAL_CUBIC = parse_poly("y^2*z - x^3 - x^2*z", XYZ)
NON_ISOLATED = parse_poly("x^2*t + y^2*z", XYZT)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_jacobian_dims_fermat_matches_hilbert_series():
    """For Fermat f the partials are a regular sequence of degree d-1 forms,
    so the Jacobian ring has the complete-intersection Hilbert function."""
    coeffs = hilbert_ci_coeffs(3, 2)
    dims = jacobian_dims(FERMAT_CUBIC, len(coeffs) + 2)
    assert dims[:len(coeffs)] == coeffs
    assert dims[len(coeffs):] == [0, 0, 0]


def test_jacobian_dims_cusp():
    assert jacobian_dims(CUSP, 6) == [1, 3, 3, 2, 2, 2, 2]
    assert jacobian._ctx(CUSP).dim_R(50) == 2  # stable value = global Tjurina


def test_jacobian_dims_two_cusp():
    assert jacobian_dims(TWO_CUSP, 8) == [1, 3, 6, 7, 6, 4, 4, 4, 4]
    assert jacobian._ctx(TWO_CUSP).dim_R(-1) == 0  # R_k vanishes below degree zero


def test_smoothness():
    assert smoothness_test(FERMAT_CUBIC)
    assert smoothness_test(parse_poly("x^4 + y^4 + z^4", XYZ))
    assert smoothness_test(parse_poly("x^2 + y^2 + z^2", XYZ))
    assert not smoothness_test(CUSP)
    assert not smoothness_test(NODAL_CUBIC)
    assert not smoothness_test(NON_ISOLATED)


def test_the_smoothness_probe_needs_an_exact_rank_only_on_singular_input(monkeypatch):
    """The probe rows of degree (n+1)(d-2)+1 are built once.  On a smooth
    form they reach full rank modulo a prime, which proves R = 0 there with
    no exact rank; on a singular form they cannot, and the same rows get
    one exact rank, after which the context drops them."""
    monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
    ranks, built = [], []
    real_rank, real_rows = jacobian.rank_of_vectors, jacobian._JacContext.image_rows
    monkeypatch.setattr(jacobian, "rank_of_vectors", lambda rows: ranks.append(rows) or real_rank(rows))
    monkeypatch.setattr(jacobian._JacContext, "image_rows",
                        lambda ctx, k: built.append((k, real_rows(ctx, k))) or built[-1][1])
    assert smoothness_test(parse_poly("x^4 + 2*y^4 + 3*z^4 - x*y^3", XYZ))
    assert (ranks, [k for k, _ in built]) == ([], [7])
    built.clear()
    assert not smoothness_test(TWO_CUSP)
    assert [k for k, _ in built] == [7] and len(ranks) == 1 and ranks[0] is built[0][1]
    assert jacobian._ctx(TWO_CUSP)._probe_rows is None


def test_a_probe_short_of_columns_never_enters_the_pivot_loop(monkeypatch):
    """The probe rows of the cuspidal cubic (`problems/cuspidal_cubic.txt`)
    hit 13 of their 15 columns, so their rank modulo p cannot reach 15: the
    modular test answers False before the pivot loop, and only the exact
    rank of dim R_4 enters it."""
    steps = []
    real = exactlinalg._forward_eliminate
    monkeypatch.setattr(exactlinalg, "_forward_eliminate",
                        lambda rows, step=exactlinalg._combine, need=0:
                        steps.append(step) or real(rows, step, need))
    ctx = jacobian._JacContext(CUSP)
    rows = ctx.image_rows(ctx.probe)
    assert (len(set().union(*rows)), len(ctx.index(ctx.probe))) == (13, 15)
    assert not ctx._probe_full_rank and steps == []
    assert ctx.dim_R(ctx.probe) == 2 and steps == [exactlinalg._combine]


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
    assert jacobian._ctx(f).dim_R(start + 4) == jacobian._ctx(f).dim_R(tau + 1) == tau


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


def test_the_certified_tjurina_tail_matches_exact_ranks(monkeypatch):
    """From the degree its certificate holds on, the context answers
    dim R_k = tau without eliminating; a context that never ran the scan
    gets the same numbers by exact rank."""
    jump_fiber = parse_poly("x^4*z + y^5", XYZ)
    for f in (CUSP, TWO_CUSP, NODAL_CUBIC, jump_fiber):
        monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
        tau = global_tjurina(f)
        k0, stable, grows = jacobian._ctx(f)._tail
        certified = [jacobian._ctx(f).dim_R(k) for k in range(k0, k0 + 4)]
        monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
        assert certified == [jacobian._ctx(f).dim_R(k) for k in range(k0, k0 + 4)] == [tau] * 4
        assert stable == tau and not grows


@pytest.mark.parametrize("src", ["x^2*z + y^3 + x*y*t", "x^2*z + y^2*t"])
def test_the_growth_tail_matches_exact_ranks(monkeypatch, src):
    """Past maximal growth from degree k0, dim R_j of a surface singular along
    a line is Macaulay's bound iterated from dim R_k0 (Gotzmann persistence),
    with no Jacobian row built; a context that never ran the scan gets the
    same numbers by exact rank.  The first form is problems/cubic_surface_bs."""
    f = parse_poly(src, XYZT)
    monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
    built = []
    real_rows = jacobian._JacContext.image_rows
    monkeypatch.setattr(jacobian._JacContext, "image_rows",
                        lambda ctx, k: built.append(k) or real_rows(ctx, k))
    with pytest.raises(NonIsolatedError) as exc:
        global_tjurina(f)
    k0, h0, grows = jacobian._ctx(f)._tail
    assert grows and exc.value.dims[-2:] == [h0, _macaulay_bound(h0, k0)]
    scanned = list(built)
    tail = [jacobian._ctx(f).dim_R(k) for k in range(k0, 13)]
    assert built == scanned
    monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
    assert tail == [jacobian._ctx(f).dim_R(k) for k in range(k0, 13)]
    assert len(built) > len(scanned) + 2


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


def watch_squarefree_tests(monkeypatch) -> list:
    """Rebind `jacobian.full_rank_mod_p` to a wrapper that records the
    context of each squarefree matrix it is given, the call that
    `_JacContext.reduced` makes; returns the contexts."""
    tested = []
    real = jacobian.full_rank_mod_p

    def recorded(rows, ncols):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "reduced":
            tested.append(caller.f_locals["self"])
        return real(rows, ncols)

    monkeypatch.setattr(jacobian, "full_rank_mod_p", recorded)
    return tested


def test_non_reduced_f_has_a_jacobian_ring_but_no_brieskorn_module(monkeypatch):
    """x^2*y has a Jacobian ring on its one context, but every entry point of
    `brieskorn` refuses it with the one line, leaves no Brieskorn state on
    that context, and reads the reducedness verdict kept there."""
    calls = watch_squarefree_tests(monkeypatch)
    f, p = parse_poly("x^2*y", XYZ), parse_poly("x", XYZ)
    monkeypatch.delitem(jacobian._contexts, f, raising=False)   # a fresh context
    assert jacobian_dims(f, 5) == [1, 3, 4, 5, 6, 7]
    entries = (lambda: brieskorn._ctx(f).hf_dim(4),
               lambda: brieskorn.hbar_certificate(f, 4),
               lambda: brieskorn.stabilized_span_rank(f, 4, [p]),
               lambda: brieskorn.pole_filtration_dims(f),
               lambda: brieskorn.milnor_eigenspace_dim(f, 0),
               lambda: brieskorn.briancon_skoda(f))
    for entry in entries:
        with pytest.raises(InputError, match=r"^f must be reduced \(squarefree\)$"):
            entry()
    ctx = jacobian._ctx(f)
    assert ctx.dim_R(6) == 8
    assert ctx._rel == {} and ctx._traces == {}
    assert len(calls) == 1   # the verdict is kept on the context


ENTRIES_TAKING_F = {
    "smoothness_test": brieskornlab.smoothness_test,
    "jacobian_dims": lambda f: brieskornlab.jacobian_dims(f, 3),
    "global_tjurina": brieskornlab.global_tjurina,
    "pole_filtration_dims": brieskornlab.pole_filtration_dims,
    "hbar_certificate": lambda f: brieskornlab.hbar_certificate(f, 3),
    "milnor_eigenspace_dim": lambda f: brieskornlab.milnor_eigenspace_dim(f, 0),
    "briancon_skoda": brieskornlab.briancon_skoda,
    "hodge_filtration_dims": lambda f: brieskornlab.hodge_filtration_dims(f, ()),
    "build_chart": lambda f: brieskornlab.build_chart(f, (0, 0, 1), 2, (Fraction(1, 2),) * 2),
}


@pytest.mark.parametrize("name", ENTRIES_TAKING_F)
@pytest.mark.parametrize("f", [None, "x", 3])
def test_every_exported_entry_point_refuses_a_non_poly(name, f):
    """The context refuses anything but a Poly before its weak-key lookup,
    which would raise TypeError on an object it cannot weakly reference."""
    with pytest.raises(InputError, match=r"^expected a Poly$"):
        ENTRIES_TAKING_F[name](f)


def test_a_non_reduced_input_is_refused_before_any_elimination(monkeypatch, capsys, tmp_path):
    """`pole` refuses (x+y)^2 (x^6 + y^6 + z^6 + t^6) by its squarefree
    matrix alone, whose one exact rank is taken in `_JacContext.reduced`:
    the smoothness probe, whose rows are rank-deficient and would get an
    exact rank too, never runs."""
    monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
    ranks = []
    real = jacobian.rank_of_vectors
    monkeypatch.setattr(jacobian, "rank_of_vectors",
                        lambda rows: ranks.append(sys._getframe(1).f_code.co_name) or real(rows))
    p = tmp_path / "p.txt"
    p.write_text("variables = x y z t\npolynomial = (x+y)^2*(x^6 + y^6 + z^6 + t^6)\n")
    assert main(["pole", "--input", str(p)]) == 1
    assert capsys.readouterr() == ("", "error: f must be reduced (squarefree)\n")
    assert ranks == ["reduced"]


def test_the_probe_decides_reducedness_first_only_when_no_wider(monkeypatch):
    """A smooth plane quartic is proved reduced by its smoothness probe (36
    columns, the squarefree matrix 42), so the squarefree test never runs;
    the probe rows are built once and serve the smoothness verdict too.  A
    non-reduced quartic surface, whose probe (220 columns) is wider than its
    squarefree matrix (168), is refused by the squarefree test alone, with
    no probe row built."""
    monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
    tested, built = watch_squarefree_tests(monkeypatch), []
    real_rows = jacobian._JacContext.image_rows
    monkeypatch.setattr(jacobian._JacContext, "image_rows",
                        lambda ctx, k: built.append(k) or real_rows(ctx, k))
    quartic = parse_poly("x^4 + 2*y^4 + 3*z^4 - x*y^3", XYZ)
    assert jacobian._ctx(quartic).reduced and smoothness_test(quartic)
    assert (tested, built) == ([], [7])
    surface = parse_poly("(x+y)^2*(x^2 + y^2 + z^2 + t^2)", XYZT)
    assert not jacobian._ctx(surface).reduced
    assert (len(tested), built) == (1, [7])


def test_brieskorn_and_jacobian_share_one_context():
    f = parse_poly("x^3 + y^3 + z^3 + 2/3*x^2*y", XYZ)
    brieskorn._ctx(f).hf_dim(6)
    jacobian_dims(f, 4)
    ctx = jacobian._ctx(f)
    assert brieskorn._ctx(f) is ctx and type(ctx) is jacobian._JacContext
    assert ctx.scale == 3 and 6 in ctx._rel
    assert {3, 4} <= set(ctx._index)   # m = k-n-1 of hf_dim(6), and jacobian_dims


def test_a_context_lives_as_long_as_its_polynomial():
    """The context of f, with its Brieskorn state, is dropped with f: no
    process-global cache keeps it."""
    f = parse_poly("x^5 + y^5 + z^5 - 7*x^2*y^2*z", XYZ)   # used nowhere else
    assert smoothness_test(f)
    assert brieskorn._ctx(f).hf_dim(8) == 12 + 1   # dim R_5 + dim R_0
    ref = weakref.ref(jacobian._ctx(f))
    assert jacobian._ctx(f) is ref()
    del f
    gc.collect()
    assert ref() is None


def test_a_family_keeps_its_fibers_and_their_contexts(monkeypatch):
    """Two pole constancy checks on one family share its fiber objects, so
    the second one runs no elimination."""
    fam = PencilFamily(parse_poly("x^3 + y^3 + z^3 - 5*x*y*z", XYZ),
                       parse_poly("x^2*y + 3*y^2*z", XYZ))
    samples = (0, 1, Fraction(-2, 3))
    first = pole_constancy_check(fam, samples)
    fibers = [specialize(fam, s) for s in samples]

    def no_elimination(*_):
        raise AssertionError("fiber rank recomputed")

    monkeypatch.setattr(jacobian, "echelon_rows", no_elimination)
    monkeypatch.setattr(jacobian._JacContext, "relation_rows", no_elimination)
    monkeypatch.setattr(jacobian, "rank_of_vectors", no_elimination)
    assert pole_constancy_check(fam, samples).table == first.table
    assert all(specialize(fam, s) is fiber for s, fiber in zip(samples, fibers))
    assert all(brieskorn._ctx(f) is jacobian._ctx(f) for f in fibers)


def _run_family(capsys, path) -> None:
    assert main(["family", "--q-max", "2", "--input", str(path), "--json", "--no-timing"]) == 0
    capsys.readouterr()


def test_the_tjurina_scan_builds_each_degree_of_rows_once(monkeypatch, capsys):
    """dim R_k builds the Jacobian rows of degree k once per context, and the
    coordinate-hyperplane test builds its own cut rows and none of those.
    On the jump family both fibers reach that test at their probe degree 10,
    whose dim the smoothness test took."""
    monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
    built, tested = [], []
    real_rows = jacobian._JacContext.image_rows
    real_test = jacobian._coordinate_section_vanishes

    def test(ctx, k):
        tested.append(k)
        before = len(built)
        verdict = real_test(ctx, k)
        assert len(built) == before, "the coordinate test built Jacobian rows"
        return verdict

    monkeypatch.setattr(jacobian._JacContext, "image_rows",
                        lambda ctx, k: built.append((ctx, k)) or real_rows(ctx, k))
    monkeypatch.setattr(jacobian, "_coordinate_section_vanishes", test)
    _run_family(capsys, PROBLEMS / "tjurina_jump_family.txt")
    assert tested == [10, 10]
    assert built and max(Counter(built).values()) == 1


def test_each_monomial_basis_is_built_once_per_context(monkeypatch, capsys, tmp_path):
    """Every monomial basis comes from a context (`_JacContext.monomials`,
    cached and under the input budget), so no family run builds one twice
    for one polynomial."""
    monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
    built = []
    real = gradedpoly.monomial_basis

    def counted(nvars, degree):
        caller = sys._getframe(1)
        built.append((caller.f_code.co_name, caller.f_locals.get("self"), nvars, degree))
        return real(nvars, degree)

    for name, module in list(sys.modules.items()):
        if name.startswith("brieskornlab."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)
    quartic = tmp_path / "quartic_pencil.txt"
    quartic.write_text("variables = x y z\npolynomial = x^4 + 2*y^4 + 3*z^4 - x*y^3\n"
                       "[family]\ndirection = x^2*y*z + y^3*z\n")
    for path in (PROBLEMS / "tjurina_jump_family.txt", PROBLEMS / "fermat_pencil.txt", quartic):
        _run_family(capsys, path)
    assert built and {caller for caller, *_ in built} == {"monomials"}
    assert max(Counter((ctx, nvars, degree) for _, ctx, nvars, degree in built).values()) == 1

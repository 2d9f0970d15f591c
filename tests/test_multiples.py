"""`gradedpoly.multiples`, the one Macaulay-row builder, against the loops it
replaced (`tests/oracles.py`).

The Jacobian rows, the relation rows and the Tjurina scan's coordinate
sections of random forms in 3 and 4 variables, and the local jets of the
charts in `problems/`, come out as the same rows in the same order (key
order inside each row included), and the same coordinate verdicts, whether
a full rank modulo the prime or the exact rank proves them.
"""

from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import (coordinate_section_vanishes_by_cut, image_rows_by_loop,  # noqa: E402
                     jet_rows_by_truncation, relation_rows_by_loop)

from brieskornlab import brieskorn, exactlinalg, jacobian, singularities  # noqa: E402
from brieskornlab.cli import load_problem  # noqa: E402
from brieskornlab.gradedpoly import Poly, monomial_basis, multiples, parse_poly  # noqa: E402

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _ordered(rows) -> list:
    return [list(row.items()) for row in rows]


def test_one_rule_gives_full_cut_and_truncated_rows():
    p = [((1, 0), 2), ((0, 1), -1)]                      # 2x - y
    monos = [(1, 0), (0, 1)]
    full = {m: i for i, m in enumerate(monomial_basis(2, 2))}   # x^2, xy, y^2
    assert multiples([p], monos, full) == [{0: 2, 1: -1}, {1: 2, 2: -1}]
    free_of_y = {(2, 0): 0}
    assert multiples([p], monos, free_of_y) == [{0: 2}, {}]
    assert multiples([p, [((0, 0), 5)]], [(0, 0)], {(1, 0): 0, (0, 0): 1}) == [{0: 2}, {1: 5}]


# highest relation degree compared: the rows are built, never eliminated
_TOP = {3: 20, 4: 16}


@st.composite
def sparse_forms(draw):
    """A form of degree 2..5 in 3 variables or 2..4 in 4, with 2-7 terms
    and coefficients in -3..3."""
    nvars = draw(st.sampled_from((3, 4)))
    d = draw(st.integers(2, 5 if nvars == 3 else 4))
    monos = monomial_basis(nvars, d)
    chosen = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=7, unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(chosen),
                           max_size=len(chosen)))
    return Poly.from_terms(nvars, dict(zip(chosen, coeffs)))


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(sparse_forms())
def test_rows_and_coordinate_verdicts_match_the_loops(f):
    ctx = jacobian._ctx(f)
    top = _TOP[ctx.nvars]
    for k in range(top - ctx.n):
        assert _ordered(ctx.image_rows(k)) == _ordered(image_rows_by_loop(ctx, k)), k
    for k in range(max(ctx.d - 1, 1), ctx.probe + 4):
        assert (jacobian._coordinate_section_vanishes(ctx, k)
                == coordinate_section_vanishes_by_cut(ctx, k)), k
    assume(ctx.reduced)
    bctx = brieskorn._ctx(f)
    for k in range(ctx.n + ctx.d, top + 1):
        assert _ordered(bctx.relation_rows(k)) == _ordered(relation_rows_by_loop(bctx, k)), k


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(sparse_forms(), st.sampled_from((exactlinalg.FULL_RANK_PRIME, 3)))
def test_coordinate_verdicts_proved_modulo_a_prime_are_the_exact_ones(f, prime):
    """A coordinate section proved by a full rank modulo the prime, or by the
    exact rank where that fails, which 3 makes common, gets the verdict of
    the exact rank alone."""
    ctx = jacobian._ctx(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlinalg, "FULL_RANK_PRIME", prime)
        for k in range(max(ctx.d - 1, 1), ctx.probe + 4):
            assert (jacobian._coordinate_section_vanishes(ctx, k)
                    == coordinate_section_vanishes_by_cut(ctx, k)), k


@pytest.mark.parametrize("name", sorted(p.name for p in PROBLEMS.glob("*.txt")
                                        if "[singular_point]" in p.read_text()))
def test_corpus_chart_jets_match_the_truncation_loop(monkeypatch, name):
    """Every jet matrix of the corpus charts: the isolatedness check of
    build_chart, the local Tjurina truncations and the level-q jet spaces."""
    seen = []
    real = singularities._jet_rows

    def both(gens, weights, threshold, idx):
        gens = list(gens)
        got = real(gens, weights, threshold, idx)
        assert _ordered(got) == _ordered(jet_rows_by_truncation(gens, weights, threshold, idx))
        seen.append(len(got))
        return got

    monkeypatch.setattr(singularities, "_jet_rows", both)
    problem = load_problem(str(PROBLEMS / name))
    variables = problem["variables"]
    f = parse_poly(problem["polynomial"], variables)
    for p in problem["singular_points"]:
        chart = singularities.build_chart(f, p["point"], variables.index(p["chart"]),
                                          p["weights"])
        singularities.local_tjurina(chart)
        for q in range(f.nvars):
            singularities.local_jq_jets(chart, q)
    assert seen and sum(seen)


"""The exact elimination kernel against a dense Fraction Gauss-Jordan oracle.

`dense_rref` below shares no code with `exactlinalg`: it clears columns left
to right over Fractions, with no integer rows, no content stripping and no
sparsity-first pivots.  On random small sparse rational matrices, including
rows that are combinations of earlier ones, every exact path must agree with
it: ranks, subspace dimensions and canonical reduction, kernels, and the
greedy acceptance and coordinates of `SpanSolver`.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from brieskornlab.exactlinalg import (ExactMatrix, SpanSolver, Subspace,  # noqa: E402
                                      echelon_rows, rank_of_vectors)


def dense_rref(rows: list, ncols: int) -> tuple:
    """Leftmost-pivot RREF over Fractions: (pivot columns, nonzero rows)."""
    m = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                a = m[i][c]
                m[i] = [x - a * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m[:len(pivots)]


def dense_rank(rows: list, ncols: int) -> int:
    return len(dense_rref(rows, ncols)[0])


def combination(coeffs, rows) -> dict:
    out: dict = {}
    for a, row in zip(coeffs, rows):
        for c, val in row.items():
            out[c] = out.get(c, 0) + a * val
    return {c: val for c, val in out.items() if val}


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def sparse_matrices(draw):
    """(rows, ncols): sparse rational rows, some of them combinations of
    earlier rows, so rank deficiency is common; explicit zeros included."""
    ncols = draw(st.integers(1, 6))
    entries = st.dictionaries(st.integers(0, ncols - 1), RATIONALS, max_size=ncols)
    rows = draw(st.lists(entries, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            coeffs = draw(st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))
            rows.insert(draw(st.integers(0, len(rows))), combination(coeffs, rows))
    return rows, ncols


def vectors(ncols: int):
    return st.dictionaries(st.integers(0, ncols - 1), RATIONALS, max_size=ncols)


SETTINGS = settings(max_examples=150, deadline=None, database=None)


@SETTINGS
@given(sparse_matrices())
def test_ranks_match_the_oracle(matrix):
    rows, ncols = matrix
    rank = dense_rank(rows, ncols)
    assert rank_of_vectors(rows, ncols) == rank
    assert len(echelon_rows(rows)) == rank
    assert Subspace.from_vectors(rows, ncols).dim == rank


@SETTINGS
@given(sparse_matrices(), st.data())
def test_reduce_is_the_canonical_representative(matrix, data):
    rows, ncols = matrix
    space = Subspace.from_vectors(rows, ncols)
    _, oracle_rows = dense_rref(rows, ncols)
    oracle_basis = [{c: x for c, x in enumerate(r) if x} for r in oracle_rows]
    assert space == Subspace.from_vectors(oracle_basis, ncols)
    v = data.draw(vectors(ncols))
    red = space.reduce(v)
    assert not set(red) & set(space.pivots)
    diff = {c: v.get(c, 0) - red.get(c, 0) for c in range(ncols)}
    assert dense_rank(oracle_basis + [diff], ncols) == len(oracle_basis)
    # any other member of v + span reduces to the same vector
    coeffs = data.draw(st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))
    shifted = combination([1, *coeffs], [v, *rows])
    assert space.reduce(shifted) == red


@SETTINGS
@given(sparse_matrices())
def test_kernel_matches_the_oracle(matrix):
    rows, ncols = matrix
    kernel = ExactMatrix.from_rows(rows, ncols).kernel_basis()
    assert kernel.dim == ncols - dense_rank(rows, ncols)
    basis = kernel.basis()
    assert dense_rank(basis, ncols) == kernel.dim
    for b in basis:
        for row in rows:
            assert sum(val * b.get(c, 0) for c, val in row.items()) == 0
    # RREF shape: unit pivots on the free columns of the row space
    free = [c for c in range(ncols)
            if c not in Subspace.from_vectors(rows, ncols).pivots]
    assert list(kernel.pivots) == free
    for p, b in zip(kernel.pivots, basis):
        assert b[p] == 1
        assert not set(b) & (set(free) - {p})


@SETTINGS
@given(sparse_matrices(), st.data())
def test_span_solver_matches_the_oracle(matrix, data):
    rows, ncols = matrix
    solver = SpanSolver(ncols)
    accepted = []
    for i, row in enumerate(rows):
        grows = dense_rank(rows[:i + 1], ncols) > dense_rank(rows[:i], ncols)
        assert solver.add(row, i) == grows
        if grows:
            accepted.append(i)
    assert solver.dim == len(accepted)
    coeffs = data.draw(st.lists(RATIONALS, min_size=len(accepted), max_size=len(accepted)))
    target = combination(coeffs, [rows[i] for i in accepted])
    want = {i: a for i, a in zip(accepted, coeffs) if a}
    assert solver.express(target) == want
    v = data.draw(vectors(ncols))
    combo = solver.express(v)
    inside = dense_rank(rows + [v], ncols) == len(accepted)
    assert (combo is not None) == inside
    if inside:
        assert combination(list(combo.values()), [rows[i] for i in combo]) == \
            {c: x for c, x in v.items() if x}

"""The exact elimination kernel against a dense Fraction Gauss-Jordan oracle.

`dense_rref` below shares no code with `exactlinalg`: it clears columns left
to right over Fractions, with no integer rows, no content stripping and no
sparsity-first pivots.  On random small sparse rational matrices, including
rows that are combinations of earlier ones, every exact path must agree with
it: ranks, subspace dimensions and canonical reduction, kernels, and the
greedy acceptance and coordinates of `SpanSolver`.

The modular full-rank pass is held to the dense mod-p oracle of
`tests/oracles.py`, on entries that are multiples of the prime too, and to
the Fraction rank it certifies, and the exact fallbacks behind it must leave
every report unchanged when the prime divides minors that Q does not.
"""

import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import dense_rank_mod  # noqa: E402

from brieskornlab import exactlinalg, jacobian  # noqa: E402
from brieskornlab.cli import main  # noqa: E402
from brieskornlab.exactlinalg import (ExactMatrix, SpanSolver, Subspace,  # noqa: E402
                                      echelon_rows, full_rank_mod_p, rank_of_vectors)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


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


@SETTINGS
@given(sparse_matrices(), st.data())
def test_explicit_zeros_change_no_reduction(matrix, data):
    """`Subspace.reduce` and `SpanSolver` read vectors as given: an explicit
    zero entry, as `times_f` leaves after a cancellation, changes nothing."""
    rows, ncols = matrix
    v = {c: x for c, x in data.draw(vectors(ncols)).items() if x}
    zeros = data.draw(st.sets(st.integers(0, ncols - 1)))
    padded = {**{c: data.draw(st.sampled_from((0, Fraction(0)))) for c in zeros}, **v}
    space = Subspace.from_vectors(rows, ncols)
    assert space.reduce(padded) == space.reduce(v)
    assert space.contains(padded) == space.contains(v)
    clean, dirty = SpanSolver(ncols), SpanSolver(ncols)
    for i, row in enumerate(rows):
        assert dirty.add({**{c: 0 for c in zeros}, **row}, i) == clean.add(row, i)
    assert dirty.express(padded) == clean.express(v)
    assert dirty.add(padded, "v") == clean.add(v, "v")


INTEGERS = st.integers(-6, 6)


@st.composite
def integer_matrices(draw):
    """(rows, ncols): up to 16 integer rows over up to 12 columns, explicit
    zeros included.  Half of them are sparse, at most 6 entries a row, wide
    enough for the pivot loop to fill in and to leave stale heap entries;
    the other half are a product B*C through r < ncols dimensions, so their
    rank is below ncols over Q and over every prime."""
    ncols = draw(st.integers(1, 12))
    if not draw(st.booleans()):
        entries = st.dictionaries(st.integers(0, ncols - 1), INTEGERS, max_size=min(ncols, 6))
        return draw(st.lists(entries, max_size=16)), ncols
    r = draw(st.integers(0, ncols - 1))
    c = [draw(st.lists(INTEGERS, min_size=ncols, max_size=ncols)) for _ in range(r)]
    b = draw(st.lists(st.lists(INTEGERS, min_size=r, max_size=r), max_size=16))
    return [{j: sum(bi[t] * c[t][j] for t in range(r)) for j in range(ncols)}
            for bi in b], ncols


@SETTINGS
@given(integer_matrices(), st.sampled_from((2, 3, 5, exactlinalg.FULL_RANK_PRIME)))
def test_full_rank_mod_p_matches_the_oracle_and_proves_full_rank(matrix, prime):
    rows, ncols = matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlinalg, "FULL_RANK_PRIME", prime)
        full = full_rank_mod_p(rows, ncols)
    assert full == (dense_rank_mod(rows, ncols, prime) == ncols)
    if full:
        assert dense_rank(rows, ncols) == ncols


@st.composite
def rows_with_multiples_of_p(draw):
    """(prime, rows, width): the default prime or 3, and up to 12 sparse
    integer rows over up to 10 columns whose entries are small or a multiple
    of the prime plus -1, 0 or 1, so that many nonzero integers vanish or
    become units modulo it."""
    prime = draw(st.sampled_from((exactlinalg.FULL_RANK_PRIME, 3)))
    width = draw(st.integers(1, 10))
    near_multiple = st.builds(lambda k, r: k * prime + r, st.integers(-3, 3), st.integers(-1, 1))
    entries = st.dictionaries(st.integers(0, width - 1), INTEGERS | near_multiple,
                              max_size=min(width, 6))
    return prime, draw(st.lists(entries, max_size=12)), width


@SETTINGS
@given(rows_with_multiples_of_p())
def test_full_rank_mod_p_is_exactly_the_rank_modulo_p(matrix):
    """full_rank_mod_p(rows, ncols) says whether the rank over GF(p) reaches
    ncols, both for ncols the width (the smoothness probe) and for ncols the
    number of rows (the squarefree test), and leaves the rows as it found
    them."""
    prime, rows, width = matrix
    given_rows = [dict(row) for row in rows]
    rank = dense_rank_mod(rows, width, prime)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlinalg, "FULL_RANK_PRIME", prime)
        for ncols in (width, len(rows)):
            assert full_rank_mod_p(rows, ncols) == (rank >= ncols)
    assert rows == given_rows


def test_full_rank_over_q_but_singular_mod_p_is_no_certificate():
    """A pivot that is a multiple of p, alone or as a determinant, hides a
    rank that Q has: the pass must say False, never True."""
    p = exactlinalg.FULL_RANK_PRIME
    for rows, ncols in (([{0: p}], 1),
                        ([{0: 1, 1: 2}, {0: 3, 1: 6 + p}], 2),
                        ([{0: 2 * p, 1: 1}, {1: 5}, {0: 3 * p, 2: 1}], 3)):
        assert rank_of_vectors(rows, ncols) == ncols
        assert not full_rank_mod_p(rows, ncols)


def _verdicts(monkeypatch) -> dict:
    """Record what full_rank_mod_p answers at each of its two call sites."""
    seen = {}
    for site in ("jacobian", "gradedpoly"):
        log = seen[site] = []

        def recorded(rows, ncols, log=log):
            log.append(full_rank_mod_p(rows, ncols))
            return log[-1]

        monkeypatch.setattr(sys.modules["brieskornlab." + site], "full_rank_mod_p", recorded)
    return seen


def _corpus_reports(monkeypatch, capsys) -> list:
    """analyze on every problem file and family --q-max 2 on each pencil,
    from fresh contexts: (argv, exit code, stdout, stderr) per run."""
    monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
    runs = []
    for path in sorted(PROBLEMS.glob("*.txt")):
        argvs = [["analyze"]]
        if "[family]" in path.read_text():
            argvs.append(["family", "--q-max", "2"])
        for argv in argvs:
            argv = argv + ["--input", str(path), "--json", "--no-timing"]
            code = main(argv)
            out, err = capsys.readouterr()
            runs.append((argv, code, out, err))
    return runs


def test_the_exact_fallbacks_leave_every_report_unchanged(monkeypatch, capsys):
    """With the prime set to 3, which divides the coefficients of Fermat
    partials and many small minors, both call sites fall back to exact
    eliminations; every report is byte-identical to the one the fast path
    gives."""
    seen = _verdicts(monkeypatch)
    fast = _corpus_reports(monkeypatch, capsys)
    assert all(True in log for log in seen.values())
    for log in seen.values():
        log.clear()
    monkeypatch.setattr(exactlinalg, "FULL_RANK_PRIME", 3)
    assert _corpus_reports(monkeypatch, capsys) == fast
    assert all(False in log for log in seen.values())

"""Exact linear algebra over Q: subspaces, matrices, span solving."""

import random
from fractions import Fraction

from brieskornlab import exactlinalg
from brieskornlab.exactlinalg import (ExactMatrix, SpanSolver, Subspace,
                                      rank_of_vectors)


def test_subspace_dims_and_membership():
    s = Subspace.from_vectors([{0: 1, 1: 2}, {1: 1, 2: 1}, {0: 1, 1: 1, 2: -1}], 3)
    assert s.dim == 2  # third vector = first minus second
    assert s.contains({0: 2, 1: 5, 2: 1})  # 2*(first) + (second)
    assert not s.contains({2: 1})
    assert Subspace.zero(4).dim == 0
    assert Subspace.from_vectors([], 3).dim == 0


def test_reduce_is_linear_and_idempotent():
    rng = random.Random(11)
    s = Subspace.from_vectors(
        [{i: rng.randint(-3, 3) for i in range(6)} for _ in range(3)], 6)
    for _ in range(25):
        u = {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(6)}
        v = {i: rng.randint(-4, 4) for i in range(6)}
        ru, rv = s.reduce(u), s.reduce(v)
        w = {i: u.get(i, 0) + v.get(i, 0) for i in range(6)}
        rw = s.reduce(w)
        summed = {i: ru.get(i, 0) + rv.get(i, 0) for i in set(ru) | set(rv)}
        summed = {i: c for i, c in summed.items() if c}
        assert rw == summed
        assert s.reduce(ru) == ru
        assert s.contains({i: u.get(i, 0) - ru.get(i, 0) for i in range(6)})


def test_subspace_semantic_equality():
    """Equality must not depend on which generators presented the space."""
    s = Subspace.from_vectors([{0: 1, 1: 1}, {2: 1}], 3)
    t = Subspace.from_vectors([{0: 1, 1: 1, 2: 1}, {2: 2}], 3)
    assert s == t
    assert hash(s) == hash(t)
    assert s != Subspace.from_vectors([{0: 1}, {2: 1}], 3)
    assert s != Subspace.from_vectors([{0: 1, 1: 1}], 3)


def test_matrix_hash_agrees_with_eq():
    """__eq__ ignores explicit zero entries, so the hash must too."""
    a = ExactMatrix(2, 3, ({0: 1, 2: 0}, {1: Fraction(1, 2)}))
    b = ExactMatrix(2, 3, ({0: Fraction(1)}, {1: Fraction(1, 2), 0: 0}))
    c = ExactMatrix.from_rows([{0: 1}, {1: Fraction(1, 2)}], 3)
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert a != ExactMatrix(2, 3, ({0: 1}, {1: 1}))


def test_rank_of_vectors():
    assert rank_of_vectors([{0: 1}, {0: 2}, {}]) == 1
    assert rank_of_vectors([]) == 0
    assert rank_of_vectors([{i: 1} for i in range(4)]) == 4


def _transpose(rows: list, ncols: int) -> list:
    cols = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, val in row.items():
            cols[c][r] = val
    return cols


def _product(rows: list, v: dict) -> list:
    """The entries of rows @ v."""
    return [sum(val * v.get(c, 0) for c, val in row.items()) for row in rows]


def test_matrix_rank_and_kernel():
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]
    assert rank_of_vectors(rows) == 2
    ker = ExactMatrix.from_rows(rows, 3).kernel_basis()
    assert ker.dim == 1
    for b in ker.basis():
        assert not any(_product(rows, b))


def test_matrix_rational_entries():
    rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: 3, 1: 2}]
    assert rank_of_vectors(rows) == 1  # second row = 6 * first
    assert rank_of_vectors(_transpose(rows, 2)) == 1
    ker = ExactMatrix.from_rows(rows, 2).kernel_basis()
    assert ker.dim == 1
    assert not any(_product(rows, ker.basis()[0]))


def test_rank_transpose_invariance():
    rng = random.Random(23)
    for _ in range(30):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [{c: rng.randint(-2, 2) for c in range(nc) if rng.random() < 0.6}
                for _ in range(nr)]
        rank = rank_of_vectors(rows)
        assert rank == rank_of_vectors(_transpose(rows, nc))
        ker = ExactMatrix.from_rows(rows, nc).kernel_basis()
        assert ker.dim == nc - rank
        for b in ker.basis():
            assert not any(_product(rows, b))


def test_kernel_basis_runs_one_elimination(monkeypatch):
    """The null space is read off the row space's RREF, not eliminated again."""
    calls = []
    forward = exactlinalg._forward_eliminate

    def counting(int_rows):
        calls.append(1)
        return forward(int_rows)

    monkeypatch.setattr(exactlinalg, "_forward_eliminate", counting)
    rows = [{0: 1, 1: 2, 3: -1}, {1: 1, 2: 1}, {0: 2, 1: 5, 2: 1, 3: -2}]
    ker = ExactMatrix.from_rows(rows, 4).kernel_basis()
    assert len(calls) == 1
    assert ker.dim == 4 - rank_of_vectors(rows) == 2


def test_the_modular_pass_stops_once_full_rank_is_out_of_reach(monkeypatch):
    """Six dense rows with one repeated cannot reach rank 6: the pass stops
    when the repeat clears to zero, after fewer row steps than the full
    elimination makes."""
    rows = [{c: (i + 2) ** c for c in range(6)} for i in range(5)]
    rows.append(dict(rows[0]))
    steps = []
    real = exactlinalg._combine_mod_p

    def counted(row, prow, pcol):
        steps.append(1)
        return real(row, prow, pcol)

    assert len(exactlinalg._forward_eliminate([dict(r) for r in rows], counted)) == 5
    full_steps = len(steps)
    steps.clear()
    monkeypatch.setattr(exactlinalg, "_combine_mod_p", counted)
    assert not exactlinalg.full_rank_mod_p(rows, 6)
    assert 0 < len(steps) < full_steps


def test_span_solver_expresses_exact_combinations():
    rng = random.Random(5)
    solver = SpanSolver(5)
    basis = []
    while len(basis) < 3:
        v = {i: rng.randint(-3, 3) for i in range(5)}
        if solver.add(v, len(basis)):
            basis.append(v)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in basis]
        target = {}
        for c, v in zip(coeffs, basis):
            for i, val in v.items():
                target[i] = target.get(i, 0) + c * val
        combo = solver.express(target)
        assert combo is not None
        want = {j: c for j, c in enumerate(coeffs) if c != 0}
        assert combo == want
    assert solver.express({4: 1, 0: 17, 2: -5}) is None or solver.dim == 5


def test_span_solver_rejects_dependent_vectors():
    solver = SpanSolver(3)
    assert solver.add({0: 1, 1: 1}, "a")
    assert not solver.add({0: 2, 1: 2}, "b")
    assert solver.dim == 1

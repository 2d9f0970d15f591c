"""Exact sparse linear algebra over Q: rank, kernel, canonical reduction.

All exact elimination is fraction-free and goes through one step, `_combine`:
input vectors are scaled to integer rows, and a row is cleared at a pivot
column by cross-multiplying it with the pivot row and stripping the content.
The sparse forward elimination, the back-substitution of `_rref` and the
incremental `SpanSolver` all use it.  Fractions appear only in the output:
the unit-pivot tails of a `Subspace` and the coordinates `SpanSolver.express`
returns.  Pivots are chosen sparsity-first (sparsest row, then the column
hitting the fewest rows, then the entry of smallest bit length) so the
relation matrices coming from discriminants of small hypersurfaces eliminate
without fill-in blowup.

A `Subspace` is stored in reduced row echelon form with unit pivots, which
makes equality structural and makes `reduce` a single pass: tails only touch
non-pivot columns, so reductions never cascade.

There is one pivot loop, `_forward_eliminate`, with two row steps: `_combine`
and `_combine_mod_p`, its analogue modulo a fixed prime over unit pivots, with
which `full_rank_mod_p` can prove full rank but never refute it.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd


class InputError(ValueError):
    """An input violates a documented precondition."""


class InvariantError(RuntimeError):
    """A machine-checked invariant failed."""


class QuotientMapError(InvariantError):
    """A map does not descend to the requested quotients."""


def _as_dict(v: Mapping[int, object], ambient_dim: int) -> dict[int, Fraction]:
    """The nonzero entries of v, its coordinates checked against ambient_dim."""
    out = {}
    for c, val in v.items():
        if not 0 <= c < ambient_dim:
            raise InputError(f"coordinate {c} outside ambient dimension {ambient_dim}")
        if val:
            out[c] = val
    return out


def _int_row(v: Mapping[int, object]) -> dict[int, int]:
    """Scale a sparse rational row to integers and strip the content."""
    lcm = 1
    for val in v.values():
        if isinstance(val, Fraction):
            den = val.denominator
            lcm = lcm * den // gcd(lcm, den)
    row = {}
    for c, val in v.items():
        n = int(val * lcm) if lcm != 1 or isinstance(val, Fraction) else val
        if n:
            row[c] = n
    _strip_content(row)
    return row


def _strip_content(row: dict[int, int]) -> None:
    g = 0
    for val in row.values():
        g = gcd(g, val)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def _combine(row: dict[int, int], prow: dict[int, int], pcol: int) -> dict[int, int]:
    """row*(p/g) - prow*(q/g) with p = prow[pcol], q = row[pcol], g = gcd(p, q).

    The result is zero at pcol and has its content stripped.  This is the
    only exact elimination arithmetic in the module.
    """
    p, q = prow[pcol], row[pcol]
    g = gcd(p, q)
    mr, mp = p // g, q // g
    new = {c: val * mr for c, val in row.items()}
    for c, val in prow.items():
        s = new.get(c, 0) - val * mp
        if s:
            new[c] = s
        else:
            new.pop(c, None)
    _strip_content(new)
    return new


FULL_RANK_PRIME = 2_147_483_647   # 2^31 - 1


def _combine_mod_p(row: dict[int, int], prow: dict[int, int], pcol: int) -> dict[int, int]:
    """row - prow*q with q = row[pcol], modulo FULL_RANK_PRIME, after the
    first call on a pivot row scales it in place to prow[pcol] = 1 (the
    loop owns these residue rows, see `full_rank_mod_p`)."""
    prime = FULL_RANK_PRIME
    if prow[pcol] != 1:
        inv = pow(prow[pcol], -1, prime)
        for c, val in prow.items():
            prow[c] = val * inv % prime
    q = row[pcol]
    new = row.copy()
    for c, val in prow.items():
        s = (new.get(c, 0) - val * q) % prime
        if s:
            new[c] = s
        else:
            new.pop(c, None)
    return new


def _forward_eliminate(int_rows: Iterable[dict[int, int]], step=_combine,
                       need: int = 0) -> list[tuple[int, dict[int, int]]]:
    """Sparse elimination; returns (pivot_col, row) in pivot time order.

    `step(other, prow, pcol)` clears other at the pivot column pcol of the
    pivot row prow and changes its support only on the columns of prow:
    `_combine` over Q by default, `_combine_mod_p` over residues.  Each
    returned row is zero on the pivot columns of all earlier ones.  The pass
    stops, returning fewer rows than the rank, once the pivots found plus the
    rows still live fall below `need` (0: never), since the rank cannot then
    reach it.
    """
    rows: dict[int, dict[int, int]] = {}
    by_col: dict[int, set[int]] = {}
    heap: list[tuple[int, int]] = []
    for row in int_rows:
        if not row:
            continue
        rid = len(rows)
        rows[rid] = row
        for c in row:
            by_col.setdefault(c, set()).add(rid)
        heapq.heappush(heap, (len(row), rid))

    finished: list[tuple[int, dict[int, int]]] = []
    while heap and len(finished) + len(rows) >= need:
        length, rid = heapq.heappop(heap)
        row = rows.get(rid)
        if row is None or len(row) != length:
            continue  # stale heap entry
        # pivot column: fewest other rows, then smallest entry, then lowest index
        pcol = min(row, key=lambda c: (len(by_col[c]), abs(row[c]).bit_length(), c))
        del rows[rid]
        for c in row:
            by_col[c].discard(rid)
        for oid in list(by_col[pcol]):
            other = rows[oid]
            new = step(other, row, pcol)
            for c in row:   # the only columns other can gain or lose
                if c in other:
                    if c not in new:
                        by_col[c].discard(oid)
                elif c in new:
                    by_col[c].add(oid)
            if new:
                rows[oid] = new
                heapq.heappush(heap, (len(new), oid))
            else:
                del rows[oid]
        finished.append((pcol, row))
    return finished


def _rref(int_rows: Iterable[dict[int, int]]):
    """Full reduction: returns (pivots sorted, tails {pivot: {col: Fraction}})."""
    finished = _forward_eliminate(int_rows)
    # substitute in reverse pivot-time order: later pivot rows are already clean
    pivot_of = {pcol: i for i, (pcol, _) in enumerate(finished)}
    for i in range(len(finished) - 1, -1, -1):
        pcol, row = finished[i]
        hits = [c for c in row if c != pcol and c in pivot_of and pivot_of[c] > i]
        for c in sorted(hits, key=lambda c: pivot_of[c]):
            if row.get(c):
                row = _combine(row, finished[pivot_of[c]][1], c)
        finished[i] = (pcol, row)
    pivots = sorted(p for p, _ in finished)
    tails: dict[int, dict[int, Fraction]] = {}
    for pcol, row in finished:
        pv = row[pcol]
        tail = {}
        for c, val in row.items():
            if c != pcol:
                q = Fraction(val, pv)
                tail[c] = int(q) if q.denominator == 1 else q
        tails[pcol] = tail
    return pivots, tails


class Subspace:
    """A linear subspace of Q^ambient_dim in reduced row echelon form.

    Basis rows have unit pivots with distinct pivot columns and tails supported
    only on non-pivot columns.  The pivot columns are chosen for sparsity, not
    left-to-right, so the stored form is canonical per object but not across
    generator presentations; equality compares the spaces themselves.
    """

    __slots__ = ("ambient_dim", "pivots", "tails")

    def __init__(self, ambient_dim: int, pivots: Sequence[int], tails: dict):
        self.ambient_dim = ambient_dim
        self.pivots = tuple(pivots)
        self.tails = tails   # keyed by the pivots

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), {})

    @classmethod
    def from_vectors(cls, vectors: Iterable, ambient_dim: int) -> "Subspace":
        rows = [_int_row(_as_dict(v, ambient_dim)) for v in vectors]
        pivots, tails = _rref(rows)
        return cls(ambient_dim, pivots, tails)

    @classmethod
    def _from_int_rows(cls, int_rows: Iterable[dict[int, int]], ambient_dim: int) -> "Subspace":
        pivots, tails = _rref(int_rows)
        return cls(ambient_dim, pivots, tails)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def basis(self) -> list[dict[int, Fraction]]:
        """RREF basis rows (pivot coefficient 1), sorted by pivot column."""
        out = []
        for p in self.pivots:
            row = {p: 1}
            row.update(self.tails[p])
            out.append(row)
        return out

    def reduce(self, v: Mapping[int, object]) -> dict[int, Fraction]:
        """Canonical representative of the sparse vector v modulo the subspace.

        The result has zero at every pivot column; it is the unique member of
        v + subspace supported on non-pivot columns.  The coordinates of v
        are taken as given, without a range check; zero values are skipped.
        """
        tails = self.tails
        out: dict[int, Fraction] = {}
        hits = []
        for c, val in v.items():
            if not val:
                continue
            if c in tails:
                hits.append((c, val))
            else:
                out[c] = val
        for c, a in hits:
            for cc, t in tails[c].items():
                s = out.get(cc, 0) - a * t
                if s:
                    out[cc] = s
                else:
                    out.pop(cc, None)
        return out

    def contains(self, v: Mapping[int, object]) -> bool:
        return not self.reduce(v)

    def __eq__(self, other) -> bool:
        # Pivot columns depend on the elimination order, so compare the spaces
        # themselves: equal dimension plus one-sided containment.
        if not isinstance(other, Subspace) or self.ambient_dim != other.ambient_dim:
            return False
        if self.dim != other.dim:
            return False
        if self.pivots == other.pivots and self.tails == other.tails:
            return True
        return all(other.contains(b) for b in self.basis())

    def __hash__(self) -> int:
        # weak but representation-independent; Subspace is rarely a dict key
        return hash((self.ambient_dim, self.dim))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def rank_of_vectors(vectors: Iterable, ambient_dim: int) -> int:
    rows = (_int_row(_as_dict(v, ambient_dim)) for v in vectors)
    return len(_forward_eliminate(rows))


def full_rank_mod_p(rows: Iterable[Mapping[int, int]], ncols: int) -> bool:
    """Whether the integer rows reach rank ncols modulo FULL_RANK_PRIME.

    True proves rank ncols over Q, since rank mod p <= rank over Q for integer
    rows: a minor that is nonzero mod p is a nonzero integer.  False proves
    nothing, and the caller falls back to an exact rank.  With ncols the
    number of columns it proves full column rank (the smoothness probe);
    with ncols = len(rows) it proves the rows independent, a zero row
    counting as a dependency (the squarefree test).  The pass is
    `_forward_eliminate` over residue copies of the rows, which stops as soon
    as the rows it has left cannot reach rank ncols.
    """
    p = FULL_RANK_PRIME
    residues = ({c: r for c, val in row.items() if (r := val % p)} for row in rows)
    return len(_forward_eliminate(residues, _combine_mod_p, ncols)) >= ncols


def echelon_rows(vectors: Iterable[Mapping[int, object]]) -> list[dict[int, int]]:
    """Integer rows of an echelon basis of the span of sparse vectors.

    Each row is zero on the pivot columns of the rows before it, so the rows
    are independent and their count is the rank.  Coordinates are taken as
    given, without a range check.
    """
    rows = (_int_row(v) for v in vectors)
    return [row for _, row in _forward_eliminate(rows)]


class ExactMatrix:
    """Immutable sparse matrix over Q (rows of sparse dicts).

    A value type: the graded connection matrices are built, compared and
    rendered as ExactMatrix, and `kernel_basis` solves the chart conditions.
    The constructor cleans the rows (`_as_dict`), so equal matrices store
    equal rows.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Iterable[Mapping[int, object]]):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = tuple(_as_dict(r, ncols) for r in rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[int, object]], ncols: int) -> "ExactMatrix":
        rows = tuple(rows)
        return cls(len(rows), ncols, rows)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls(nrows, ncols, tuple({} for _ in range(nrows)))

    def entry(self, r: int, c: int):
        return self.rows[r].get(c, 0)

    def kernel_basis(self) -> Subspace:
        """RREF basis of the null space {v : self @ v = 0}.

        Read off the row space's RREF with one elimination: for a free column
        c, e_c minus the tails at c has unit pivot c and support on c and the
        row-space pivots, so these vectors are already a reduced basis.
        """
        rowspace = Subspace.from_vectors(self.rows, self.ncols)
        free = [c for c in range(self.ncols) if c not in rowspace.tails]
        tails: dict[int, dict] = {c: {} for c in free}
        for p in rowspace.pivots:
            for c, t in rowspace.tails[p].items():
                tails[c][p] = -t
        return Subspace(self.ncols, free, tails)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return False
        return (self.nrows, self.ncols, self.rows) == (other.nrows, other.ncols, other.rows)

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, tuple(frozenset(r.items()) for r in self.rows)))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"


class SpanSolver:
    """Incremental exact row space with coordinate recovery.

    The rows are integer echelon rows in insertion order, each zero on the
    pivots of the rows before it, so one forward pass reduces a vector.
    Column ambient_dim + j holds the coordinate of the j-th accepted vector
    a_j: a row (x | c) stands for x = sum_j c_j a_j, and the step that
    combines rows updates the coordinates with them.  Vectors are sparse
    dicts over range(ambient_dim), taken as given, without a range check;
    zero values are skipped.
    """

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self._rows: list[tuple[int, dict[int, int]]] = []  # (pivot, row)
        self._labels: list = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, v: Mapping[int, object]) -> tuple[dict[int, int], int]:
        """Reduced integer row of v, tagged in the next free coordinate column."""
        tag = self.ambient_dim + len(self._rows)
        row = _int_row({**v, tag: 1})
        for pcol, prow in self._rows:
            if pcol in row:
                row = _combine(row, prow, pcol)
        return row, tag

    def add(self, v, label) -> bool:
        """Add v; True if it enlarged the span (label becomes a basis name)."""
        row, _ = self._reduce(v)
        pivot = min(row)
        if pivot >= self.ambient_dim:
            return False
        self._rows.append((pivot, row))
        self._labels.append(label)
        return True

    def express(self, v):
        """Coordinates of v over the added basis labels, or None if outside."""
        row, tag = self._reduce(v)
        if min(row) < self.ambient_dim:
            return None
        # the row (0 | c, t) says 0 = sum_j c_j a_j + t v
        t = row.pop(tag)
        combo: dict = {}
        for c, val in row.items():
            label = self._labels[c - self.ambient_dim]
            s = combo.get(label, 0) - Fraction(val, t)
            if s:
                combo[label] = s
            else:
                combo.pop(label, None)
        return combo

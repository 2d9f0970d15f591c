"""Graded Jacobian ring R = C[x]/(partials of f) of a homogeneous polynomial,
and the one context per hypersurface that every layer computes through.

For smooth hypersurfaces R is the artinian complete intersection whose graded
pieces carry the primitive Hodge numbers (Griffiths); for isolated
singularities dim R_k stabilizes at the global Tjurina number; for non-isolated
singularities it grows without bound and the Tjurina request is refused.

Both outcomes are proved.  Macaulay's theorem bounds the growth of
any standard graded algebra, dim R_{k+1} <= (dim R_k)^<k> for k >= 1, and the
bound is asserted at every degree scanned.  The Jacobian ideal is generated in
degree d-1, so for k >= d-1 Gotzmann's persistence theorem applies: one degree
of maximal growth, dim R_{k+1} = (dim R_k)^<k>, forces maximal growth in every
later degree (Gotzmann, Math. Z. 158 (1978); Bruns-Herzog, Cohen-Macaulay
Rings, 4.2-4.3).  `global_tjurina` stops at the first such k: equal dims there
prove the Hilbert polynomial is that constant, the length of the singular
scheme; growing dims prove the singular locus positive dimensional.  Equal
dims h in degrees k, k+1 with h > k are not maximal growth; they are proved
final when a coordinate hyperplane x_i = 0 has (S/(J + x_i))_k = 0 (the
m-regularity criterion of Bayer and Stillman), and otherwise by Gotzmann in
degrees h, h+1, where the scan jumps.

Smoothness is decided by one exact elimination, at the probe degree
(n+1)(d-2)+1 one past the smooth socle degree: f = 0 is smooth exactly when
R vanishes there.  Once that is proved, the partials are a regular sequence
of n+1 forms of degree d-1, R is their complete intersection, and every other
dim R_k is read off the Hilbert series ((1-t^(d-1))/(1-t))^(n+1) (empty for
d = 1, where R = 0); those numbers are theorems, not eliminations.  Before the
verdict, and for singular f, dim R_k is an exact rank.

`_ctx(f)` is the one context of f per live polynomial: it validates, scales
and differentiates f once, holds the Brieskorn state of f beside the ranks of
R, and decides reducedness and smoothness on first use only, since R is
defined for every f.  The context lives exactly as long as the Poly it was
first asked for (a weak key): an equal Poly shares it while that one is
alive, and builds a new one after.  A caller that asks about one polynomial
again keeps that Poly alive, as `families.PencilFamily` keeps its fibers.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from math import comb

from .exactlinalg import InvariantError, rank_of_vectors
from .gradedpoly import InputError, Poly, hilbert_ci_coeffs, is_squarefree, mono_mul, monomial_basis


class NonIsolatedError(InvariantError):
    """No global Tjurina number: the singular locus is proven positive
    dimensional, or the scan budget ran out first (the message says which).
    `dims` holds the dim R_k the scan evaluated, in increasing degree."""

    def __init__(self, message: str, dims: list | None = None):
        super().__init__(message)
        self.dims = list(dims or [])


# resource budget of global_tjurina: it steps through at most
# _TJURINA_DEGREE_BUDGET * (n+2) degrees past its start, then gives up undecided
# (a jump to the degree h of a constant run h is let through up to h+1)
_TJURINA_DEGREE_BUDGET = 6

# input budget: the most monomials one degree of a context may have.  Every
# index, and so every Jacobian and relation row, is built through
# `_JacContext.monomials`, which refuses a larger basis before building it.  A basis and its index
# take about 150 bytes a monomial (CPython 3.11), so this bounds one at about
# 40 MB; the largest that the tests build has 4495 monomials (4 variables,
# degree 28), the problem corpus and the benchmark workloads 680.
_MAX_BASIS_SIZE = 250_000


class _JacContext:
    """Context of one hypersurface: the validated integer-scaled f, its scale,
    partials, monomial bases and indices by degree, the ranks dim R_k, the
    reducedness and smoothness verdicts and the Brieskorn state (set by
    `brieskorn._ctx`)."""

    def __init__(self, f: Poly):
        if not isinstance(f, Poly):
            raise InputError("expected a Poly")
        if f.is_zero() or not f.is_homogeneous():
            raise InputError("f must be a nonzero homogeneous polynomial")
        if f.nvars < 2:
            raise InputError("f must have at least two variables")
        self.d = f.homogeneous_degree()
        if self.d < 1:
            raise InputError("f must be nonconstant")
        self.nvars, self.n = f.nvars, f.nvars - 1
        self.probe = (self.n + 1) * (self.d - 2) + 1
        self.f, self.scale = f.integer_scaled()
        self.partials = [list(self.f.partial(i).terms.items()) for i in range(self.nvars)]
        self.brieskorn = None
        self._monos: dict[int, list] = {}
        self._index: dict[int, dict] = {}
        self._dims: dict[int, int] = {}
        self._series: list | None = None   # Hilbert function of R, once smooth

    @cached_property
    def reduced(self) -> bool:
        """Whether f is squarefree; decided on first use."""
        return is_squarefree(self.f)

    @cached_property
    def smooth(self) -> bool:
        """Whether f = 0 is smooth, by the exact dim R at the probe degree;
        decided on first use.  A proof of smoothness switches `dim_R` to the
        complete-intersection Hilbert series."""
        if self.dim_R(self.probe):
            return False
        self._series = hilbert_ci_coeffs(self.nvars, self.d - 1) if self.d > 1 else []
        return True

    def monomials(self, m: int) -> list:
        got = self._monos.get(m)
        if got is None:
            size = comb(m + self.n, self.n) if m >= 0 else 0
            if size > _MAX_BASIS_SIZE:
                raise InputError(
                    f"degree {m} has {size} monomials in {self.nvars} variables, "
                    f"more than the limit of {_MAX_BASIS_SIZE}")
            got = self._monos[m] = monomial_basis(self.nvars, m)
        return got

    def index(self, m: int) -> dict:
        got = self._index.get(m)
        if got is None:
            got = self._index[m] = {mono: i for i, mono in enumerate(self.monomials(m))}
        return got

    def image_rows(self, k: int) -> list:
        """Integer generator rows of the degree-k piece of the Jacobian ideal."""
        mdeg = k - (self.d - 1)
        if mdeg < 0:
            return []
        idx = self.index(k)
        rows = []
        for m in monomial_basis(self.nvars, mdeg):
            for terms in self.partials:
                row = {}
                for mono, c in terms:
                    col = idx[mono_mul(mono, m)]
                    row[col] = row.get(col, 0) + c
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
        return rows

    def dim_R(self, k: int) -> int:
        """dim R_k: read off the Hilbert series once f is proved smooth (but
        at the probe degree, which proved it), an exact rank otherwise."""
        if k < 0:
            return 0
        if self._series is not None and k != self.probe:
            return self._series[k] if k < len(self._series) else 0
        got = self._dims.get(k)
        if got is None:
            ambient = len(self.index(k))
            got = self._dims[k] = ambient - rank_of_vectors(self.image_rows(k), ambient)
        return got


_contexts: weakref.WeakKeyDictionary[Poly, _JacContext] = weakref.WeakKeyDictionary()


def _ctx(f: Poly) -> _JacContext:
    got = _contexts.get(f)
    if got is None:
        got = _contexts[f] = _JacContext(f)
    return got


def jacobian_dim(f: Poly, k: int) -> int:
    """dim R_k, exact."""
    return _ctx(f).dim_R(k)


def jacobian_dims(f: Poly, k_max: int) -> list:
    """[dim R_k for k = 0..k_max]."""
    ctx = _ctx(f)
    if k_max >= ctx.probe:
        # the probe is among the degrees asked for: deciding smoothness first
        # lets a smooth f read every other degree off the Hilbert series
        ctx.smooth
    return [ctx.dim_R(k) for k in range(k_max + 1)]


def smoothness_test(f: Poly) -> bool:
    """Whether the projective hypersurface f = 0 is smooth.

    R is artinian exactly in the smooth case, and the smooth socle degree is
    (n+1)(d-2), so a single vanishing test one degree above it decides: once
    some R_k = 0, every later degree vanishes too.  The verdict is kept on
    the context of f (`_JacContext.smooth`).
    """
    return _ctx(f).smooth


def smooth_hodge_numbers(n: int, d: int) -> list:
    """Primitive Hodge numbers [h^{n-1-q,q}_prim, q = 0..n-1] of a smooth
    degree-d hypersurface in P^n, read off the Jacobian Hilbert series."""
    if n < 2 or d < 2:
        raise InputError("need n >= 2 and d >= 2")
    coeffs = hilbert_ci_coeffs(n + 1, d - 1)
    out = []
    for q in range(n):
        k = q * d + d - n - 1
        out.append(coeffs[k] if 0 <= k < len(coeffs) else 0)
    return out


def _macaulay_bound(h: int, k: int) -> int:
    """h^<k>, the largest dim in degree k+1 of a standard graded algebra with
    dim h in degree k (Macaulay; k >= 1).

    Writes h = C(a_k, k) + C(a_{k-1}, k-1) + ... + C(a_j, j) with
    a_k > a_{k-1} > ... > a_j >= j >= 1 (the k-binomial representation, each
    a_i greedy) and returns C(a_k+1, k+1) + ... + C(a_j+1, j+1).
    """
    out = 0
    while h:
        a = k
        while comb(a + 1, k) <= h:
            a += 1
        h -= comb(a, k)
        out += comb(a + 1, k + 1)
        k -= 1
    return out


def _coordinate_section_vanishes(ctx: _JacContext, k: int) -> bool:
    """Whether (S/(J + x_i))_k = 0 for some coordinate x_i: the degree-k rows
    of J, read modulo x_i (on the monomials free of x_i), span that space."""
    rows = ctx.image_rows(k)
    for i in reversed(range(ctx.nvars)):
        cols = {c: j for j, c in enumerate(
            c for c, mono in enumerate(ctx.monomials(k)) if not mono[i])}
        cut = ({cols[c]: v for c, v in row.items() if c in cols} for row in rows)
        if rank_of_vectors(cut, len(cols)) == len(cols):
            return True
    return False


def global_tjurina(f: Poly) -> int:
    """Sum of the local Tjurina numbers, certified by Gotzmann persistence or
    by a coordinate hyperplane (Bayer-Stillman).

    Scans k = start, start+1, ... with start = max((n+1)(d-2)+1, d-1), one past
    the smooth socle degree and at least the generating degree of J, evaluating
    each dim R_k once.  At every step dim R_{k+1} <= (dim R_k)^<k> is asserted
    (a violation means the elimination is wrong and raises InvariantError).  At
    the first k where dim R_{k+1} = (dim R_k)^<k> the growth is maximal in every
    later degree, so: equal dims prove the Hilbert polynomial of R is that
    constant and it is returned as tau; growing dims prove the singular locus
    positive dimensional and NonIsolatedError is raised with the dims scanned.
    dim R_k = 0 ends the scan at once (the smooth case, tau = 0).

    Equal dims h = dim R_k = dim R_{k+1} with h > k are no Gotzmann
    certificate (h^<k> > h).  They are one when a coordinate hyperplane x_i = 0
    has (S/(J + x_i))_k = 0: then x_i maps R_k onto R_{k+1}, so bijectively;
    J + (x_i) is k-regular, its syzygies lie in degrees <= k+1, so J : x_i is
    generated in degree <= k and equals J from degree k on; x_i is then
    bijective R_j -> R_{j+1} for every j >= k, and tau = h (the one-form case
    of the m-regularity criterion of Bayer and Stillman, Invent. Math. 87
    (1987)).  The test fails when every coordinate hyperplane meets the
    singular locus; the scan then jumps to degree h and tests h, h+1 there
    (h^<h> = h), which costs dim R in degrees up to tau+1, the largest
    ambients of the scan.  Without a certificate by degree
    start + _TJURINA_DEGREE_BUDGET * (n+2), or by h+1 after a jump, the scan
    gives up, raising NonIsolatedError that says tau is undecided up to that
    degree.
    """
    ctx = _ctx(f)
    start = max(ctx.probe, ctx.d - 1)
    top = start + _TJURINA_DEGREE_BUDGET * (ctx.n + 2)
    k, h = start, ctx.dim_R(start)
    dims = [h]
    while h and k < top:
        bound = _macaulay_bound(h, k)
        nxt = ctx.dim_R(k + 1)
        dims.append(nxt)
        if nxt > bound:
            raise InvariantError(
                f"dim R_{k + 1} = {nxt} exceeds Macaulay's bound {bound} "
                f"from dim R_{k} = {h}")
        if nxt == bound:
            if nxt == h:
                return h
            raise NonIsolatedError(
                f"dim R_k grows maximally from degree {k} to {k + 1} "
                f"({h} -> {nxt}, Macaulay's bound), "
                "so by Gotzmann persistence it grows in every later degree and "
                "the singular locus is positive dimensional", dims)
        if nxt == h and _coordinate_section_vanishes(ctx, k):
            return h
        if nxt == h and h > k + 1:
            # Gotzmann certifies a constant h from degree h on (h^<j> > h for
            # j < h), so the scan goes there at once and the budget reaches h+1
            k, h = h, ctx.dim_R(h)
            dims.append(h)
            top = max(top, k + 1)
        else:
            k, h = k + 1, nxt
    if not h:
        return 0
    raise NonIsolatedError(
        f"dim R_k gave no certificate from degree {start} on; "
        f"the Tjurina number is undecided up to degree {top}", dims)

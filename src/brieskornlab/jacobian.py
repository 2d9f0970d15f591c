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

Smoothness is decided at the probe degree (n+1)(d-2)+1, one past the smooth
socle degree: f = 0 is smooth exactly when R vanishes there, that is when the
Jacobian rows of that degree have full column rank.  Rows of full rank modulo
a prime have full rank over Q (`exactlinalg.full_rank_mod_p`), which proves
smoothness without an exact elimination; otherwise one exact elimination of
the same rows decides.  Once smoothness is proved, the partials are a regular
sequence of n+1 forms of degree d-1, R is their complete intersection, and
every other dim R_k is read off the Hilbert series ((1-t^(d-1))/(1-t))^(n+1)
(empty for d = 1, where R = 0); those numbers are theorems, not eliminations.
Before the verdict, and for singular f, dim R_k is an exact rank, except past
the degree k where `global_tjurina` proved the tail: every later dim R_j is
tau, or, once the growth from k is maximal, Macaulay's bound iterated from
dim R_k (Gotzmann persistence).  Every row the module builds is a Macaulay
row of the partials (`gradedpoly.multiples`), and so is every row of the
reducedness test (`gradedpoly.is_squarefree`): with a the first nonzero
partial and a_1..a_n the others, f is squarefree exactly when the rows
x^m * (a_1, ..., a_n) and x^m * a in each block i, m of degree d-2, are
linearly independent, which a full rank modulo the prime proves as at the
probe.  A probe no wider than that matrix goes first: a full rank there
proves f = 0 smooth, and a smooth f is reduced (if g^2 divides f, every
partial vanishes on g = 0), so the test runs only when the probe falls short.

`_ctx(f)` is the one context of f per live polynomial: it validates, scales
and differentiates f once and holds the ranks of R beside the relation
subspaces and rank traces of the Brieskorn module H_f (`brieskorn._ctx`
hands out the same object for reduced f only).  Reducedness and smoothness
are decided on first use only, since R is defined for every f.  The context
lives exactly as long as the Poly it was first asked for (a weak key): an
equal Poly shares it while that one is alive, and builds a new one after.  A
caller that asks about one polynomial again keeps that Poly alive, as
`families.PencilFamily` keeps its fibers.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property
from math import comb

from .exactlinalg import (InvariantError, Subspace, _strip_content, echelon_rows,
                          full_rank_mod_p, rank_of_vectors)
from .gradedpoly import (_MAX_BASIS_SIZE, InputError, Poly, hilbert_ci_coeffs, is_squarefree,
                         mono_mul, monomial_basis, multiples)


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


class _RankTrace:
    """Ranks of f^N out of one seed span in degree k, N = 0..len(values)-1,
    and an echelon basis of the image of the last power tried.  Only that one
    basis is kept: the next power needs nothing else."""

    __slots__ = ("k", "values", "basis")

    def __init__(self, k: int, basis: list):
        self.k = k
        self.values = [len(basis)]
        self.basis = basis


class _JacContext:
    """Context of one hypersurface f, the only object kept per polynomial:
    the validated integer-scaled f, its scale, partials, monomial bases and
    indices by degree, the ranks dim R_k and the tail `global_tjurina`
    proved, the reducedness and smoothness verdicts, and for reduced f
    (`brieskorn._ctx`) the relation subspaces and f-power rank traces of H_f.

    Multiplication by f is well defined on H_f because
    f * (df ^ d eta) = df ^ d(f eta), so it maps the relations in degree k
    into those in degree k+d.  The image of f^N out of degree k is therefore
    f times the image of f^(N-1), and a rank trace grows one power at a time:
    push the echelon basis of the last image forward by f alone, reduce
    modulo the relations of the landing degree and eliminate again
    (`_extend`).  Traces are kept per degree for `power_rank` (seeded by the
    non-pivot monomials, a basis of H_k) and per (degree, classes) for
    `span_rank`, so a rank asked for twice is read from the trace.  The same
    multiplication, `times_f`, gives the class vectors of `class_vector`.
    """

    def __init__(self, f: Poly):
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
        self.fterms = list(self.f.terms.items())
        self._monos: dict[int, list] = {}
        self._index: dict[int, dict] = {}
        self._dims: dict[int, int] = {}
        self._series: list | None = None   # Hilbert function of R, once smooth
        self._tail: tuple | None = None    # (k, dim R_k, grows) from global_tjurina, see dim_R
        self._probe_rows: list | None = None   # probe rows short of full rank modulo p
        self._rel: dict[int, Subspace] = {}
        self._traces: dict[tuple, _RankTrace] = {}

    @cached_property
    def reduced(self) -> bool:
        """Whether f is squarefree, by `gradedpoly.is_squarefree` unless a
        full-rank probe proves f = 0 smooth, hence reduced.  The probe goes
        first only when its basis is within the budget and no wider than that
        test's matrix, so a non-reduced f pays no more for it than a smooth f saves."""
        width = min(_MAX_BASIS_SIZE, self.n * comb(2 * self.d - 3 + self.n, self.n))
        if comb(self.probe + self.n, self.n) <= width and self._probe_full_rank:
            return True
        return is_squarefree(self.f)

    @cached_property
    def _probe_full_rank(self) -> bool:
        """Whether the probe rows have full rank modulo a prime (R = 0 there);
        rows that fall short are kept for the one exact rank `dim_R` takes."""
        rows = self.image_rows(self.probe)
        full = full_rank_mod_p(rows, len(self.index(self.probe)))
        self._probe_rows = None if full else rows
        return full

    @cached_property
    def smooth(self) -> bool:
        """Whether f = 0 is smooth, by dim R at the probe degree; decided on
        first use.  The probe rows are built once: a full rank modulo a prime
        proves smoothness without an exact elimination, and rows that are
        rank-deficient modulo it get one exact elimination.  A proof of
        smoothness switches `dim_R` to the complete-intersection Hilbert
        series."""
        if self.dim_R(self.probe):
            return False
        self._series = hilbert_ci_coeffs(self.nvars, self.d - 1) if self.d > 1 else []
        return True

    def monomials(self, m: int) -> list:
        got = self._monos.get(m)
        if got is None:
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
        return [row for row in multiples(self.partials, self.monomials(mdeg), self.index(k)) if row]

    def dim_R(self, k: int) -> int:
        """dim R_k: read off the Hilbert series once f is proved smooth (but
        at the probe degree, which proved it), read off the tail that
        `global_tjurina` proved from its degree on, an exact rank otherwise.
        The tail is constant (tau) or, past maximal growth, Macaulay's bound
        iterated (Gotzmann persistence).  At the probe degree a full rank
        modulo a prime proves R_k = 0 first."""
        if k < 0:
            return 0
        if self._series is not None and k != self.probe:
            return self._series[k] if k < len(self._series) else 0
        if self._tail is not None and k >= self._tail[0]:
            j, h, grows = self._tail
            while grows and j < k:
                h, j = _macaulay_bound(h, j), j + 1
            return h
        got = self._dims.get(k)
        if got is None:
            ambient = len(self.index(k))
            if k == self.probe and self._probe_full_rank:
                got = 0
            else:
                rows = self._probe_rows if k == self.probe else self.image_rows(k)
                got = ambient - rank_of_vectors(rows, ambient)
            self._dims[k] = got
        return got

    # -- the Brieskorn module H_f, asked for on reduced f only (`brieskorn._ctx`)

    def relation_rows(self, k: int) -> list:
        """Integer rows, content stripped, spanning (df^dOmega^{n-1})_k in the
        coordinates of C[x]_{k-n-1}: the row of g.grad(f) for every field g of
        a monomial basis of the divergence-free vector fields of degree
        e = k-n-d.

        The rows span.  Every n-form is iota_g omega_0 for one vector field
        g, of total degree e+n when g has degree e, and
        d(iota_g omega_0) = div(g) omega_0, while iota_g(df ^ omega_0) = 0
        gives df ^ iota_g omega_0 = (g.grad f) omega_0.  By the Euler
        homotopy (d iota_E + iota_E d multiplies a form by its total degree)
        every closed form of positive degree is exact, so the exact n-forms
        of degree e+n are the iota_g omega_0 with div g = 0, and
        (df^dOmega^{n-1})_k = {(g.grad f) omega_0 : div g = 0, deg g = e}.

        The fields are a basis of that kernel.  div maps S_e^{n+1} onto
        S_{e-1}, since x^b = div(x^{b+e_0} e_0) / (b_0+1), so the kernel has
        dimension (n+1) dim S_e - dim S_{e-1}.  The fields are
          (a) x^alpha e_a for alpha in S_e with alpha_a = 0, and
          (b) (b_n+1) x^{b+e_a} e_a - (b_a+1) x^{b+e_n} e_n for b in S_{e-1}
              and a < n,
        each of divergence 0.  A type (b) field is the only field with the
        term x^{b+e_a} e_a: type (a) fields in component a avoid x_a, and
        every other type (b) field has another e_a-term or none.  So a
        vanishing combination has no type (b) field, and the type (a)
        fields are distinct monomial fields: the fields are independent.
        There are (n+1) C(e+n-1, n-1) of type (a) and n dim S_{e-1} of type
        (b), which is (n+1) dim S_e - dim S_{e-1}, the dimension of the
        kernel.  A field with g.grad(f) = 0 gives no row, so that count
        bounds the number of rows.  Each row is one Jacobian row
        jac[a][alpha] of x^alpha f_a (alpha in S_e), or for type (b)
        (b_n+1) jac[a][b+e_a] - (b_a+1) jac[n][b+e_n].
        """
        e = k - self.n - self.d
        if e < 0:
            return []
        n, monos, at = self.n, self.monomials(e), self.index(e)
        jac = [multiples([p], monos, self.index(k - n - 1)) for p in self.partials]
        rows = [jac[a][i] for i, alpha in enumerate(monos) for a in range(n + 1) if not alpha[a]]
        for b in self.monomials(e - 1):
            up = [at[b[:a] + (b[a] + 1,) + b[a + 1:]] for a in range(n + 1)]
            last = jac[n][up[n]]
            for a in range(n):
                row = {col: (b[n] + 1) * c for col, c in jac[a][up[a]].items()}
                for col, c in last.items():
                    v = row.get(col, 0) - (b[a] + 1) * c
                    if v:
                        row[col] = v
                    else:
                        del row[col]
                rows.append(row)
        for row in rows:
            _strip_content(row)
        return [row for row in rows if row]

    def relations(self, k: int) -> Subspace:
        got = self._rel.get(k)
        if got is None:
            ambient = len(self.index(k - self.n - 1)) if k >= self.n + 1 else 0
            got = self._rel[k] = Subspace._from_int_rows(self.relation_rows(k), ambient)
        return got

    def vector(self, p: Poly, m: int) -> dict:
        """Coordinates of a degree-m polynomial in the cached basis order."""
        idx = self.index(m)
        return {idx[mono]: c for mono, c in p.terms.items()}

    def hf_dim(self, k: int) -> int:
        if k < self.n + 1:
            return 0
        return len(self.index(k - self.n - 1)) - self.relations(k).dim

    def times_f(self, vec: dict, k: int) -> dict:
        """Coordinates in degree k+d of the integer-scaled f times the
        degree-k coordinates vec, unreduced."""
        src = self.monomials(k - self.n - 1)
        idx = self.index(k + self.d - self.n - 1)
        out: dict = {}
        for col, c in vec.items():
            mono = src[col]
            for fm, fc in self.fterms:
                t = idx[mono_mul(mono, fm)]
                out[t] = out.get(t, 0) + c * fc
        return out

    def _extend(self, trace: _RankTrace, N: int) -> int:
        """Push the trace forward by f until it holds the rank of f^N."""
        while len(trace.values) <= N:
            last = trace.k + (len(trace.values) - 1) * self.d
            rel = self.relations(last + self.d)
            trace.basis = echelon_rows(rel.reduce(self.times_f(v, last)) for v in trace.basis)
            trace.values.append(len(trace.basis))
        return trace.values[N]

    def power_rank(self, k: int, N: int) -> int:
        """Rank of multiplication by f^N from H_{f,k} to H_{f,k+Nd}."""
        if k < self.n + 1:
            return 0
        trace = self._traces.get((k, None))
        if trace is None:
            pivots = set(self.relations(k).pivots)
            seed = [{c: 1} for c in range(len(self.index(k - self.n - 1))) if c not in pivots]
            trace = self._traces[(k, None)] = _RankTrace(k, seed)
        return self._extend(trace, N)

    def span_rank(self, k: int, N: int, polys) -> int:
        """Rank of the span of the classes of f^N * p in H_{f,k+Nd}."""
        if k < self.n + 1:
            return 0
        key = (k, tuple(polys))
        trace = self._traces.get(key)
        if trace is None:
            rel = self.relations(k)
            m = k - self.n - 1
            seed = echelon_rows(rel.reduce(self.vector(p, m)) for p in key[1])
            trace = self._traces[key] = _RankTrace(k, seed)
        return self._extend(trace, N)

    def class_vector(self, p: Poly, k: int, power: int) -> dict:
        """Reduced coordinates of the class of f^power * p in H_{k+power*d};
        p is homogeneous of degree k-n-1 (the coefficient of omega_0).

        The product is reduced once, in the landing degree: a reduction per
        power would cost more than it saves on the few powers used here.
        """
        if k < self.n + 1:
            return {}
        vec = self.vector(p, k - self.n - 1)
        for j in range(power):
            vec = self.times_f(vec, k + j * self.d)
        vec = self.relations(k + power * self.d).reduce(vec)
        if self.scale != 1 and power:
            unscale = Fraction(1, self.scale ** power)
            vec = {c: v * unscale for c, v in vec.items()}
        return vec


_contexts: weakref.WeakKeyDictionary[Poly, _JacContext] = weakref.WeakKeyDictionary()


def _ctx(f: Poly) -> _JacContext:
    """The context of f, built and validated on first use."""
    if not isinstance(f, Poly):
        raise InputError("expected a Poly")
    got = _contexts.get(f)
    if got is None:
        got = _contexts[f] = _JacContext(f)
    return got


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
    of J, read modulo x_i, span the monomials free of x_i.  Modulo x_i those
    rows are the multiples of the partials with x_i = 0 by the monomials free
    of x_i (a multiple by any other monomial vanishes).  A full rank modulo
    a prime proves the span; the exact rank decides only where that fails."""
    mdeg = k - (ctx.d - 1)
    for i in reversed(range(ctx.nvars)):
        cols = {mono: j for j, mono in enumerate(m for m in ctx.monomials(k) if not m[i])}
        rows = multiples(ctx.partials, (m for m in ctx.monomials(mdeg) if not m[i]), cols)
        if full_rank_mod_p(rows, len(cols)) or rank_of_vectors(rows, len(cols)) == len(cols):
            return True
    return False


def _certified(ctx: _JacContext, k: int, tau: int) -> int:
    """Record a proof that dim R_j = tau for every j >= k; returns tau."""
    ctx._tail = (k, tau, False)
    return tau


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
    degree.  Each certificate proves dim R_j = tau for every j >= k, and
    maximal growth from k proves every later dim R_j to be Macaulay's bound
    iterated; the context keeps either tail, so `dim_R` eliminates no later
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
                return _certified(ctx, k, h)
            ctx._tail = (k, h, True)
            raise NonIsolatedError(
                f"dim R_k grows maximally from degree {k} to {k + 1} "
                f"({h} -> {nxt}, Macaulay's bound), "
                "so by Gotzmann persistence it grows in every later degree and "
                "the singular locus is positive dimensional", dims)
        if nxt == h and _coordinate_section_vanishes(ctx, k):
            return _certified(ctx, k, h)
        if nxt == h and h > k + 1:
            # Gotzmann certifies a constant h from degree h on (h^<j> > h for
            # j < h), so the scan goes there at once and the budget reaches h+1
            k, h = h, ctx.dim_R(h)
            dims.append(h)
            top = max(top, k + 1)
        else:
            k, h = k + 1, nxt
    if not h:
        return _certified(ctx, k, 0)
    raise NonIsolatedError(
        f"dim R_k gave no certificate from degree {start} on; "
        f"the Tjurina number is undecided up to degree {top}", dims)

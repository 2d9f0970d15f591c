"""Graded pieces of the algebraic Brieskorn module of a homogeneous polynomial.

For reduced homogeneous f of degree d in n+1 variables, the module
H_f = Omega^{n+1} / df^dOmega^{n-1} is graded by total degree (with
deg x_i = deg dx_i = 1) and carries multiplication by f as the degree-d
transition map.  The degree-k piece is presented as C[x]_{k-n-1}, the
coefficients of omega_0 = dx_0^...^dx_n, modulo the relation subspace

    (df^dOmega^{n-1})_k = { (g.grad f) omega_0 : div g = 0 },

with g running over the polynomial vector fields of degree k-n-d: the
exact n-forms are the closed ones, iota_g omega_0 with div g = 0, and
df ^ iota_g omega_0 = (g.grad f) omega_0 (Brieskorn, Manuscripta Math. 2
(1970)).  One row is built per field of an explicit monomial basis of the
divergence-free fields (`_BrieskornContext.relation_rows`).

Ranks of high f-powers out of a fixed degree compute the torsion-free
quotient, and with it the pole-order filtration on H^n of the complement,
Milnor-fiber monodromy eigenspaces, and the Briancon-Skoda membership test.
For singular f there is no effective a-priori bound on the torsion order, so
every such rank is stabilized under an explicit policy and ships with its
certificate.  For smooth f the cone has an isolated singularity and H_f is a
free C[f]-module of rank (d-1)^(n+1) on a monomial basis of the Jacobian ring
times omega_0 (Sebastiani, Manuscripta Math. 3 (1970); Brieskorn, Manuscripta
Math. 2 (1970)), so f is injective, there is no torsion, and
dim H_{f,k} = sum_{j>=0} dim R_{k-n-1-jd}: those ranks are theorems.

The relation subspaces and rank traces of f live on the one context of f
(`jacobian._ctx`), which validates, scales and checks f for reducedness once.
"""

from __future__ import annotations

from fractions import Fraction

from . import jacobian
from .exactlinalg import InvariantError, Subspace, _strip_content, echelon_rows
from .gradedpoly import InputError, Poly, _basis_overflow, mono_mul, multiples


class StabilizationError(InvariantError):
    """Rank failed to stabilize within the policy cap; carries the trace."""

    def __init__(self, message: str, degree: int, values: list):
        super().__init__(message)
        self.degree = degree
        self.values = list(values)


class StabilizationPolicy:
    """Acceptance rule for f-power rank stabilization.

    A rank sequence is accepted once it is constant over `window` consecutive
    powers and the landing degree k + N*d has reached `min_target_degree`.
    Fields left as None default to window = max(2, n) and
    min_target_degree = (n+1)*d, the first degree past the range where the
    transition maps of the torsion-free quotient H-bar, which the scan
    stabilizes, are known to become isomorphisms.  On H_f itself they need
    not be: for the six lines x*y*z*(x+y)*(y+z)*(x+2*y+3*z) (d = 6),
    dim H_18 = 25 but f has rank 8 out of degree 18, and the other
    17 = tau dimensions are torsion.  Rank 0 is accepted immediately: once
    every image vanishes it stays zero at higher powers.

    On proved-smooth f the ranks are not scanned: every value of the trace is
    dim H_{f,k} by Sebastiani's theorem (see `_stabilize`).  The policy still
    shapes that certificate exactly as it would a scanned constant trace: its
    length, power and landing degree, and StabilizationError when the window
    cannot be met within `max_power`.  Immutable by convention.
    """

    __slots__ = ("window", "min_target_degree", "max_power")

    def __init__(self, window: int | None = None, min_target_degree: int | None = None,
                 max_power: int = 20):
        self.window = window
        self.min_target_degree = min_target_degree
        self.max_power = max_power

    def __repr__(self) -> str:
        return (f"StabilizationPolicy(window={self.window}, "
                f"min_target_degree={self.min_target_degree}, max_power={self.max_power})")

    def resolved(self, n: int, d: int) -> tuple:
        w = self.window if self.window is not None else max(2, n)
        mt = self.min_target_degree if self.min_target_degree is not None else (n + 1) * d
        if w < 2:
            raise InputError("stabilization window must be at least 2")
        if self.max_power < w:
            raise InputError("stabilization max_power must be at least the window")
        return w, mt, self.max_power


class StabilizationCertificate:
    """Evidence for one stabilized rank: the full trace of powers tried, and
    the rule that accepted it: "Sebastiani" (a theorem for smooth f), or for a
    scanned trace "early zero" or "window" (the policy).  `values` holds the
    rank of f^N out of degree k, N = 0..power.  Immutable by convention."""

    __slots__ = ("degree", "values", "power", "landing_degree", "early_zero", "rule")

    def __init__(self, degree: int, values: tuple, power: int, landing_degree: int,
                 early_zero: bool, rule: str):
        self.degree = degree
        self.values = values
        self.power = power
        self.landing_degree = landing_degree
        self.early_zero = early_zero
        self.rule = rule

    @property
    def value(self) -> int:
        return self.values[-1]


class _RankTrace:
    """Ranks of f^N out of one seed span in degree k, N = 0..len(values)-1,
    and an echelon basis of the image of the last power tried.  Only that one
    basis is kept: the next power needs nothing else."""

    __slots__ = ("k", "values", "basis")

    def __init__(self, k: int, basis: list):
        self.k = k
        self.values = [len(basis)]
        self.basis = basis


class _BrieskornContext:
    """Relation subspaces and f-power rank traces of one reduced f.

    Built on the context of f (`jacobian._JacContext`), whose scaled f,
    partials and monomial bases it reads; `_ctx` stores it there.

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

    def __init__(self, f: Poly | jacobian._JacContext):
        self.base = base = f if isinstance(f, jacobian._JacContext) else jacobian._ctx(f)
        if not base.reduced:
            raise InputError("f must be reduced (squarefree)")
        self.d, self.n, self.nvars = base.d, base.n, base.nvars
        self.f, self.scale, self.partials = base.f, base.scale, base.partials
        self.monomials, self.index = base.monomials, base.index
        self.fterms = list(self.f.terms.items())
        self._rel: dict[int, Subspace] = {}
        self._traces: dict[tuple, _RankTrace] = {}

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


def _ctx(f: Poly) -> _BrieskornContext:
    """The Brieskorn state of f, kept on the hypersurface context of f."""
    base = jacobian._ctx(f)
    if base.brieskorn is None:
        base.brieskorn = _BrieskornContext(base)
    return base.brieskorn


def relation_space(f: Poly, k: int) -> Subspace:
    """(df^dOmega^{n-1})_k inside C[x]_{k-n-1} coordinates."""
    return _ctx(f).relations(k)


def class_vector(f: Poly, p: Poly, k: int, power: int = 0) -> dict:
    """Reduced coordinates of the class of f^power * p in H_{f,k+power*d}.

    p must be homogeneous of degree k-n-1 (the coefficient of omega_0).  The
    representative is the canonical one modulo the relations (zero on their
    pivot columns), so it does not depend on how the product was formed.
    """
    ctx = _ctx(f)
    if power < 0:
        raise InputError("power must be nonnegative")
    if not isinstance(p, Poly) or p.nvars != ctx.nvars:
        raise InputError("p must live in the same ring as f")
    if p.terms and not (p.is_homogeneous() and p.homogeneous_degree() == k - ctx.n - 1):
        raise InputError(f"p must be homogeneous of degree {k - ctx.n - 1}")
    return ctx.class_vector(p, k, power)


def _window(k: int, d: int, resolved: tuple, rank,
            rule: str | None = None) -> StabilizationCertificate:
    """Run the policy (window, min_target, max_power) over rank(N), N = 0, 1, ...

    A certificate names `rule` if given, else the policy clause that accepted.
    """
    window, min_target, max_power = resolved
    values = []
    for N in range(max_power + 1):
        v = rank(N)
        if values and v > values[-1]:
            raise InvariantError(
                f"rank of f^N out of degree {k} increased from {values[-1]} to {v} at N={N}")
        values.append(v)
        landing = k + N * d
        if v == 0:
            return StabilizationCertificate(k, tuple(values), N, landing, True,
                                            rule or "early zero")
        if (len(values) >= window and landing >= min_target
                and len(set(values[-window:])) == 1):
            return StabilizationCertificate(k, tuple(values), N, landing, False,
                                            rule or "window")
    raise StabilizationError(
        f"rank out of degree {k} did not stabilize within {max_power} powers "
        f"(trace {values})", k, values)


def _scan(ctx: _BrieskornContext, k: int, resolved: tuple,
          polys=None) -> StabilizationCertificate:
    """Stabilize by elimination under the resolved policy: the rank of f^N
    out of degree k (or out of the span of the classes of polys), one power
    at a time."""
    if polys is None:
        return _window(k, ctx.d, resolved, lambda N: ctx.power_rank(k, N))
    return _window(k, ctx.d, resolved, lambda N: ctx.span_rank(k, N, polys))


def _sebastiani_dim(ctx: _BrieskornContext, k: int) -> int:
    """dim H_{f,k} = sum_{j>=0} dim R_{k-n-1-jd} of smooth f (free module)."""
    return sum(ctx.base.dim_R(m) for m in range(k - ctx.n - 1, -1, -ctx.d))


def _stabilize(ctx: _BrieskornContext, k: int, policy: StabilizationPolicy,
               polys=None) -> StabilizationCertificate:
    """Certificate for the rank of f^N out of degree k (or out of the span of
    the classes of polys) at high N.

    On proved-smooth f (`jacobian._JacContext.smooth`) the rank out of
    degree k takes no power of f: H_f is free, so every value is
    h = dim H_{f,k} by `_sebastiani_dim`, whose dim R are theorems from the
    complete-intersection Hilbert series, and the policy is run over the
    constant trace (h, ..., h) under rule "Sebastiani".  No basis is built
    for it, so each power N refuses, with InputError, a landing degree
    k+N*d whose coefficient degree k+N*d-n-1 a scan would refuse: the
    window stays within the basis budget on smooth input too.  Each such call
    first checks the formula exactly at the lowest degrees, through the
    engine: the rank of f out of degree n+1 and dim H_f in degree n+1+d
    (cache reads after the first call); a mismatch raises InvariantError.
    Then the only eliminations behind the numbers are the smoothness probe
    and this spot check.  Singular f, and spans of classes, are scanned
    (`_scan`).
    """
    resolved = policy.resolved(ctx.n, ctx.d)
    if polys is not None or not ctx.base.smooth:
        return _scan(ctx, k, resolved, polys)
    low = ctx.n + 1
    for what, exact, at in (("rank of f out of", ctx.power_rank(low, 1), low),
                            ("dim H_f in", ctx.hf_dim(low + ctx.d), low + ctx.d)):
        if exact != _sebastiani_dim(ctx, at):
            raise InvariantError(
                f"smooth f: {what} degree {at} is {exact}, but Sebastiani's "
                f"free-module formula gives {_sebastiani_dim(ctx, at)}")
    h = _sebastiani_dim(ctx, k)

    def rank(N: int) -> int:
        refusal = _basis_overflow(ctx.nvars, k + N * ctx.d - ctx.n - 1)
        if refusal:
            raise InputError(refusal)
        return h

    return _window(k, ctx.d, resolved, rank, "Sebastiani")


def hbar_certificate(f: Poly, k: int, policy: StabilizationPolicy | None = None) -> StabilizationCertificate:
    return _stabilize(_ctx(f), k, policy or StabilizationPolicy())


def stabilized_span_rank(f: Poly, k: int, polys, policy: StabilizationPolicy | None = None) -> StabilizationCertificate:
    """Stabilized rank of the span of the given classes inside the degree-k
    piece of the torsion-free quotient.

    Each p must be homogeneous of degree k-n-1 (the coefficient of omega_0);
    zero polynomials are allowed and contribute nothing.
    """
    ctx = _ctx(f)
    use = []
    for p in polys:
        if not isinstance(p, Poly) or p.nvars != ctx.nvars:
            raise InputError("span polynomials must live in the same ring as f")
        if p.is_zero():
            continue
        if not p.is_homogeneous() or p.homogeneous_degree() != k - ctx.n - 1:
            raise InputError(f"span polynomial must be homogeneous of degree {k - ctx.n - 1}")
        use.append(p)
    return _stabilize(ctx, k, policy or StabilizationPolicy(), polys=use)


class PoleFiltrationReport:
    """dims[q] = dim P^{n-q} H^n(U) for q = 0..n, with their certificates."""

    __slots__ = ("n", "d", "dims", "certificates")

    def __init__(self, n: int, d: int, dims: tuple, certificates: tuple):
        self.n = n
        self.d = d
        self.dims = dims
        self.certificates = certificates

    @property
    def total_dim(self) -> int:
        return self.dims[-1]


def pole_filtration_dims(f: Poly, policy: StabilizationPolicy | None = None) -> PoleFiltrationReport:
    """Pole-order filtration on H^n(U), U the complement of f = 0 in P^n.

    dim P^{n-q} = stabilized dim of the torsion-free quotient in degree
    (q+1)d.  The filtration is exhausted from q = n-1 on; both that and
    monotonicity are asserted on the computed values.
    """
    ctx = _ctx(f)
    policy = policy or StabilizationPolicy()
    certs = [_stabilize(ctx, (q + 1) * ctx.d, policy) for q in range(ctx.n + 1)]
    dims = tuple(c.value for c in certs)
    for q in range(ctx.n):
        if dims[q] > dims[q + 1]:
            raise InvariantError(f"pole filtration dims decreased at q={q}: {dims}")
    if ctx.n >= 1 and dims[ctx.n - 1] != dims[ctx.n]:
        raise InvariantError(
            f"pole filtration not exhausted at q=n-1: {dims}")
    return PoleFiltrationReport(ctx.n, ctx.d, dims, tuple(certs))


def milnor_eigenspace_dim(f: Poly, i: int, policy: StabilizationPolicy | None = None) -> int:
    """dim of the monodromy eigenspace of H^n of the Milnor fiber of the cone,
    for eigenvalue exp(2*pi*sqrt(-1)*i/d).

    Computed in degree (n+2)d - i and cross-checked against (n+1)d - i; the
    two must agree since the transition maps of the torsion-free quotient
    H-bar, whose stabilized dims these are, are isomorphisms there.  Those
    of H_f need not be (see StabilizationPolicy).
    """
    ctx = _ctx(f)
    if not 0 <= i < ctx.d:
        raise InputError(f"eigenvalue index must lie in [0, {ctx.d})")
    policy = policy or StabilizationPolicy()
    main = _stabilize(ctx, (ctx.n + 2) * ctx.d - i, policy)
    check = _stabilize(ctx, (ctx.n + 1) * ctx.d - i, policy)
    if main.value != check.value:
        raise InvariantError(
            f"Milnor eigenspace cross-check failed at i={i}: "
            f"{main.value} (degree {main.degree}) vs {check.value} (degree {check.degree})")
    return main.value


class BrianconSkodaResult:
    """Outcome of the membership test f^N * omega_0 in df^dOmega^{n-1}.

    Truthy iff the membership holds for some N; then witness_power is the
    smallest such N.
    """

    __slots__ = ("holds", "witness_power", "certificate")

    def __init__(self, holds: bool, witness_power, certificate):
        self.holds = holds
        self.witness_power = witness_power
        self.certificate = certificate

    def __bool__(self) -> bool:
        return self.holds

    def __eq__(self, other) -> bool:
        if isinstance(other, bool):
            return self.holds == other
        if isinstance(other, BrianconSkodaResult):
            return (self.holds, self.witness_power) == (other.holds, other.witness_power)
        return NotImplemented

    def __hash__(self) -> int:
        # only `holds` is shared by everything that compares equal (a bool too)
        return hash(self.holds)

    def __repr__(self) -> str:
        if self.holds:
            return f"BrianconSkodaResult(holds=True, witness_power={self.witness_power})"
        return "BrianconSkodaResult(holds=False)"


def briancon_skoda(f: Poly, policy: StabilizationPolicy | None = None) -> BrianconSkodaResult:
    """Whether some power of f kills the class of omega_0.

    Equivalent to the degree-(n+1) piece of the torsion-free quotient being
    zero.  The stabilization scan visits powers in order and stops at the
    first rank drop to zero, so a positive answer comes with the smallest
    witness; a negative answer carries the stabilization certificate.
    """
    ctx = _ctx(f)
    cert = _stabilize(ctx, ctx.n + 1, policy or StabilizationPolicy())
    if cert.early_zero:
        return BrianconSkodaResult(True, cert.power, cert)
    return BrianconSkodaResult(False, None, cert)


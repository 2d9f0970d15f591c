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
divergence-free fields (`jacobian._JacContext.relation_rows`).

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

Every function here computes through the one context of f
(`jacobian._JacContext`), which `_ctx` hands out for reduced f only.
"""

from __future__ import annotations

from . import jacobian
from .exactlinalg import InvariantError
from .gradedpoly import InputError, Poly, _basis_overflow


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


# the trace targets of bench/tracing.py name the context's Brieskorn methods
# (power_rank, span_rank, relation_rows) through this alias
_BrieskornContext = jacobian._JacContext


def _ctx(f: Poly) -> jacobian._JacContext:
    """The context of f (`jacobian._ctx`), refused unless f is reduced."""
    ctx = jacobian._ctx(f)
    if not ctx.reduced:
        raise InputError("f must be reduced (squarefree)")
    return ctx


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


def _scan(ctx: jacobian._JacContext, k: int, resolved: tuple,
          polys=None) -> StabilizationCertificate:
    """Stabilize by elimination under the resolved policy: the rank of f^N
    out of degree k (or out of the span of the classes of polys), one power
    at a time."""
    if polys is None:
        return _window(k, ctx.d, resolved, lambda N: ctx.power_rank(k, N))
    return _window(k, ctx.d, resolved, lambda N: ctx.span_rank(k, N, polys))


def _sebastiani_dim(ctx: jacobian._JacContext, k: int) -> int:
    """dim H_{f,k} = sum_{j>=0} dim R_{k-n-1-jd} of smooth f (free module)."""
    return sum(ctx.dim_R(m) for m in range(k - ctx.n - 1, -1, -ctx.d))


def _stabilize(ctx: jacobian._JacContext, k: int, policy: StabilizationPolicy | None = None,
               polys=None) -> StabilizationCertificate:
    """Certificate for the rank of f^N out of degree k (or out of the span of
    the classes of polys) at high N.  A policy of None is the default
    `StabilizationPolicy()`, built here only: the entry points hand theirs on.

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
    resolved = (policy or StabilizationPolicy()).resolved(ctx.n, ctx.d)
    if polys is not None or not ctx.smooth:
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
    return _stabilize(_ctx(f), k, policy)


def stabilized_span_rank(f: Poly, k: int, polys, policy: StabilizationPolicy | None = None) -> StabilizationCertificate:
    """Stabilized rank of the span of the given classes inside the degree-k
    piece of the torsion-free quotient.

    Each p is a form of degree k-n-1 in the ring of f, as `global_jq_dim`
    builds them (the coefficient of omega_0), unchecked here.
    """
    return _stabilize(_ctx(f), k, policy, polys=list(polys))


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
    certs = [_stabilize(ctx, (q + 1) * ctx.d, policy) for q in range(ctx.n + 1)]
    dims = tuple(c.value for c in certs)
    for q in range(ctx.n):
        if dims[q] > dims[q + 1]:
            raise InvariantError(f"pole filtration dims decreased at q={q}: {dims}")
    if dims[ctx.n - 1] != dims[ctx.n]:
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
    cert = _stabilize(ctx, ctx.n + 1, policy)
    if cert.early_zero:
        return BrianconSkodaResult(True, cert.power, cert)
    return BrianconSkodaResult(False, None, cert)


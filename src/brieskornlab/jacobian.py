"""Graded Jacobian ring R = C[x]/(partials of f) of a homogeneous polynomial,
and the one context per hypersurface that every layer computes through.

For smooth hypersurfaces R is the artinian complete intersection whose graded
pieces carry the primitive Hodge numbers (Griffiths); for isolated
singularities dim R_k stabilizes at the global Tjurina number; for non-isolated
singularities it never stabilizes and the Tjurina request is refused.

`_ctx(f)` is the one context of f per process: it validates, scales and
differentiates f once, holds the Brieskorn state of f beside the ranks of R,
and decides reducedness on first use only, since R is defined for every f.
"""

from __future__ import annotations

from functools import cached_property

from .exactlinalg import InvariantError, rank_of_vectors
from .gradedpoly import InputError, Poly, hilbert_ci_coeffs, is_squarefree, mono_mul, monomial_basis


class NonIsolatedError(InvariantError):
    """dim R_k failed to stabilize; the singular locus is not finite."""

    def __init__(self, message: str, dims: list | None = None):
        super().__init__(message)
        self.dims = list(dims or [])


# how far past the smooth socle degree global_tjurina is willing to look:
# constancy window of n+2 degrees, hard cap of 6(n+2) degrees
_TJURINA_WINDOW_SLACK = 6


class _JacContext:
    """Context of one hypersurface: the validated integer-scaled f, its scale,
    partials, monomial bases and indices by degree, the ranks dim R_k, the
    reducedness verdict and the Brieskorn state (set by `brieskorn._ctx`)."""

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
        self.f, self.scale = f.integer_scaled()
        self.partials = [list(self.f.partial(i).terms.items()) for i in range(self.nvars)]
        self.brieskorn = None
        self._monos: dict[int, list] = {}
        self._index: dict[int, dict] = {}
        self._dims: dict[int, int] = {}

    @cached_property
    def reduced(self) -> bool:
        """Whether f is squarefree; decided on first use."""
        return is_squarefree(self.f)

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
        if k < 0:
            return 0
        got = self._dims.get(k)
        if got is None:
            ambient = len(self.index(k))
            got = self._dims[k] = ambient - rank_of_vectors(self.image_rows(k), ambient)
        return got


_contexts: dict[Poly, _JacContext] = {}


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
    return [ctx.dim_R(k) for k in range(k_max + 1)]


def smoothness_test(f: Poly) -> bool:
    """Whether the projective hypersurface f = 0 is smooth.

    R is artinian exactly in the smooth case, and the smooth socle degree is
    (n+1)(d-2), so a single vanishing test one degree above it decides: once
    some R_k = 0, every later degree vanishes too.
    """
    ctx = _ctx(f)
    probe = (ctx.n + 1) * (ctx.d - 2) + 1
    return ctx.dim_R(probe) == 0


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


def global_tjurina(f: Poly) -> int:
    """Sum of the local Tjurina numbers, as the stabilized value of dim R_k.

    Requires the singular locus to be finite: dim R_k must become constant
    over n+2 consecutive degrees past the smooth socle degree.  When the cap
    is hit without constancy the input almost certainly has a positive
    dimensional singular locus and NonIsolatedError is raised with the trace.
    """
    ctx = _ctx(f)
    start = max((ctx.n + 1) * (ctx.d - 2) + 1, 0)
    window = ctx.n + 2
    cap = start + _TJURINA_WINDOW_SLACK * window
    dims = []
    run = 0
    for k in range(start, cap + 1):
        v = ctx.dim_R(k)
        if v == 0:
            return 0
        if dims and v == dims[-1]:
            run += 1
        else:
            run = 1
        dims.append(v)
        if run >= window:
            return v
    raise NonIsolatedError(
        f"dim R_k did not stabilize for degrees {start}..{cap}; "
        "the singular locus looks positive dimensional", dims)

"""One-parameter families of hypersurfaces and their graded invariants.

A family is a polynomial in one parameter s with homogeneous coefficients of
a common degree, f_s = sum_j c_j(x) s^j.  The module samples exact rational
parameter values to test constancy of the pole-order filtration, computes the
multiplication map that realizes the Kodaira-Spencer action on the graded
pole pieces, and scans for Tjurina-number jumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .brieskorn import (StabilizationPolicy, class_vector, hbar_certificate,
                        pole_filtration_dims, relation_space)
from .exactlinalg import ExactMatrix, InvariantError, QuotientMapError, SpanSolver
from .gradedpoly import InputError, Poly, monomial_basis
from .jacobian import _ctx, global_tjurina, jacobian_dims

DEFAULT_SAMPLES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2))


@dataclass(frozen=True)
class PencilFamily:
    """f_s = sum coeffs[j] * s^j, every nonzero coefficient homogeneous of the
    same degree.  A pencil is the two-coefficient case f0 + s*g."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(self.coeffs)
        if not cs or all(c.is_zero() for c in cs):
            raise InputError("family needs at least one nonzero coefficient")
        nvars = cs[0].nvars
        deg = None
        for c in cs:
            if not isinstance(c, Poly) or c.nvars != nvars:
                raise InputError("family coefficients must share one polynomial ring")
            if c.is_zero():
                continue
            if not c.is_homogeneous():
                raise InputError("family coefficients must be homogeneous")
            if deg is None:
                deg = c.homogeneous_degree()
            elif c.homogeneous_degree() != deg:
                raise InputError("family coefficients must share one degree")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def pencil(cls, base: Poly, direction: Poly) -> "PencilFamily":
        return cls((base, direction))

    @classmethod
    def constant(cls, base: Poly) -> "PencilFamily":
        return cls((base,))

    @property
    def nvars(self) -> int:
        return self.coeffs[0].nvars

    @property
    def degree(self) -> int:
        for c in self.coeffs:
            if not c.is_zero():
                return c.homogeneous_degree()
        raise InvariantError("unreachable: empty family")


def specialize(fam: PencilFamily, s0) -> Poly:
    """Exact substitution s = s0; refuses non-reduced fibers."""
    s0 = Fraction(s0)
    total = Poly.zero(fam.nvars)
    power = Fraction(1)
    for c in fam.coeffs:
        if not c.is_zero():
            total = total + c.scale(power)
        power = power * s0
    if total.is_zero():
        raise InputError(f"fiber at s = {s0} is identically zero")
    if not _ctx(total).reduced:
        raise InputError(f"fiber at s = {s0} is not reduced")
    return total


def xi_f(fam: PencilFamily, s0) -> Poly:
    """d f_s / d s at s = s0 (the direction of the deformation there)."""
    s0 = Fraction(s0)
    total = Poly.zero(fam.nvars)
    power = Fraction(1)
    for j, c in enumerate(fam.coeffs):
        if j >= 1 and not c.is_zero():
            total = total + c.scale(j * power)
        if j >= 1:
            power = power * s0
    return total


class PoleConstancyResult:
    """Truthiness = all sampled pole-dimension vectors coincide."""

    __slots__ = ("constant", "table")

    def __init__(self, constant: bool, table: tuple):
        self.constant = constant
        self.table = table

    def __bool__(self) -> bool:
        return self.constant

    def __repr__(self) -> str:
        return f"PoleConstancyResult(constant={self.constant}, samples={len(self.table)})"


def pole_constancy_check(fam: PencilFamily, samples=None,
                         policy: StabilizationPolicy | None = None) -> PoleConstancyResult:
    """Pole dims at each sample; constant iff all rows agree.

    Samples default to 0, 1, -1, 2.  Non-reduced fibers abort with an input
    error naming the sample.
    """
    ss = tuple(Fraction(s) for s in (samples if samples is not None else DEFAULT_SAMPLES))
    if not ss:
        raise InputError("need at least one sample")
    table = tuple((s, pole_filtration_dims(specialize(fam, s), policy).dims) for s in ss)
    return PoleConstancyResult(len({dims for _, dims in table}) == 1, table)


def _graded_quotient(f: Poly, n: int, d: int, k: int, power: int):
    """SpanSolver for H-bar_{f,k} / f*H-bar_{f,k-d} plus the chosen basis.

    Seeds the solver with the f-image classes (labelled None), then adds the
    classes of ambient monomials; the accepted ones label the quotient basis.
    """
    if k < n + 1:
        return None, []
    solver = SpanSolver(relation_space(f, k + power * d).ambient_dim)
    basis = []
    fimage_src = monomial_basis(f.nvars, k - d - n - 1) if k - d >= n + 1 else []
    for mono in fimage_src:
        solver.add(class_vector(f, f.shift(mono), k, power), None)
    for mono in monomial_basis(f.nvars, k - n - 1):
        if solver.add(class_vector(f, Poly.monomial(f.nvars, mono), k, power), len(basis)):
            basis.append(mono)
    return solver, basis


def grp_nabla_matrix(fam: PencilFamily, s0, q: int,
                     policy: StabilizationPolicy | None = None,
                     samples=None, extra_stabilization: int = 0) -> ExactMatrix:
    """Matrix of the graded Gauss-Manin action on the pole filtration.

    Multiplication by -q * xi_f(fam, s0) from H-bar_{qd}/f H-bar_{(q-1)d} to
    H-bar_{(q+1)d}/f H-bar_{qd}, in bases chosen by the stabilized class maps.
    Refused unless the pole dims are constant across the sample set (the
    hypothesis the underlying comparison needs).  The check runs on every
    call; each fiber's context keeps its rank traces, so a repeat runs no
    elimination.  Every ambient monomial is re-expressed through the chosen
    basis and its image compared, so a successful return certifies the map
    is well defined on the quotients.
    """
    if q < 0:
        raise InputError("q must be nonnegative")
    s0 = Fraction(s0)
    ss = tuple(Fraction(s) for s in (samples if samples is not None else DEFAULT_SAMPLES))
    if s0 not in ss:
        ss = ss + (s0,)
    policy = policy or StabilizationPolicy()
    constancy = pole_constancy_check(fam, ss, policy)
    if not constancy:
        raise InvariantError(
            "pole dims are not constant over the samples; "
            f"table: {constancy.table}")
    f = specialize(fam, s0)
    n, d = f.nvars - 1, f.homogeneous_degree()
    g = xi_f(fam, s0)

    src_k, tgt_k = q * d, (q + 1) * d
    p_tgt = hbar_certificate(f, tgt_k, policy).power + extra_stabilization
    p_src = hbar_certificate(f, src_k, policy).power + extra_stabilization if src_k >= n + 1 else 0
    if src_k - d >= n + 1:
        p_src = max(p_src, hbar_certificate(f, src_k - d, policy).power - 1 + extra_stabilization)

    tgt_solver, tgt_basis = _graded_quotient(f, n, d, tgt_k, p_tgt)
    src_solver, src_basis = _graded_quotient(f, n, d, src_k, p_src)
    nrows, ncols = len(tgt_basis), len(src_basis)
    if q == 0 or g.is_zero() or ncols == 0:
        return ExactMatrix.zeros(nrows, ncols)

    def target_coords(p: Poly) -> dict:
        combo = tgt_solver.express(class_vector(f, p, tgt_k, p_tgt))
        if combo is None:
            raise InvariantError("image class escaped the target presentation")
        return {lab: val for lab, val in combo.items() if lab is not None}

    scaled = g.scale(-q)
    columns = [target_coords(scaled * Poly.monomial(f.nvars, mono)) for mono in src_basis]

    # well-definedness: every ambient monomial must map consistently with its
    # expression through the chosen source basis
    basis_pos = {mono: i for i, mono in enumerate(src_basis)}
    for mono in monomial_basis(f.nvars, src_k - n - 1):
        if mono in basis_pos:
            continue
        combo = src_solver.express(class_vector(f, Poly.monomial(f.nvars, mono), src_k, p_src))
        if combo is None:
            raise InvariantError("source class escaped its own presentation")
        expected: dict = {}
        for lab, val in combo.items():
            if lab is None:
                continue
            for r, e in columns[lab].items():
                acc = expected.get(r, 0) + val * e
                if acc:
                    expected[r] = acc
                else:
                    expected.pop(r, None)
        got = target_coords(scaled * Poly.monomial(f.nvars, mono))
        if got != expected:
            raise QuotientMapError(
                "graded action is not well defined: representative choice leaks "
                f"through monomial {mono}")

    rows = [dict() for _ in range(nrows)]
    for col, coords in enumerate(columns):
        for r, val in coords.items():
            rows[r][col] = val
    return ExactMatrix.from_rows(rows, ncols)


@dataclass(frozen=True)
class TjurinaScanRow:
    sample: Fraction
    tjurina: int
    tail: tuple


class TjurinaScanResult:
    """Per-sample global Tjurina numbers with the stable Jacobian tail."""

    __slots__ = ("rows", "jumps")

    def __init__(self, rows: tuple, jumps: tuple):
        self.rows = rows
        self.jumps = jumps

    def __repr__(self) -> str:
        return f"TjurinaScanResult(rows={len(self.rows)}, jumps={self.jumps})"


def tjurina_scan(fam: PencilFamily, samples=None) -> TjurinaScanResult:
    """global_tjurina at each sample; a sample is flagged as a jump when its
    value exceeds the minimum over the scan (the generic value nearby)."""
    ss = tuple(Fraction(s) for s in (samples if samples is not None else DEFAULT_SAMPLES))
    if not ss:
        raise InputError("need at least one sample")
    rows = []
    for s in ss:
        f = specialize(fam, s)
        ctx = _ctx(f)
        start = max(ctx.probe, 0)
        tau = global_tjurina(f)
        dims = jacobian_dims(f, start + ctx.n + 1)
        rows.append(TjurinaScanRow(s, tau, tuple(dims[start:])))
    low = min(r.tjurina for r in rows)
    jumps = tuple(r.sample for r in rows if r.tjurina > low)
    return TjurinaScanResult(tuple(rows), jumps)

"""One-parameter families of hypersurfaces and their graded invariants.

A family is a pencil f_s = f + s*g of two forms of one degree.  The module
samples exact rational parameter values to test constancy of the pole-order
filtration, computes multiplication by the direction g, which realizes the
Kodaira-Spencer action on the graded pole pieces, and scans for
Tjurina-number jumps.
"""

from __future__ import annotations

from fractions import Fraction

from .brieskorn import StabilizationPolicy, hbar_certificate, pole_filtration_dims
from .exactlinalg import ExactMatrix, InvariantError, QuotientMapError, SpanSolver
from .gradedpoly import InputError, Poly
from .jacobian import _ctx, _JacContext, global_tjurina

DEFAULT_SAMPLES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2))


def _samples(samples) -> tuple:
    """The samples as Fractions; None stands for DEFAULT_SAMPLES."""
    return tuple(Fraction(s) for s in (DEFAULT_SAMPLES if samples is None else samples))


class PencilFamily:
    """The pencil f_s = base + s * direction: two forms of one degree in one
    ring, not both zero (a zero direction is the constant family).  Immutable
    by convention; equality, hash and repr read the two forms only.

    The family keeps every fiber `specialize` returns, by sample, so the
    fiber's context (`jacobian._ctx`), which lives as long as the fiber, is
    reused by every later call on the family."""

    __slots__ = ("base", "direction", "_fibers")

    def __init__(self, base: Poly, direction: Poly):
        if not (isinstance(base, Poly) and isinstance(direction, Poly)
                and base.nvars == direction.nvars):
            raise InputError("base and direction must share one polynomial ring")
        forms = [c for c in (base, direction) if not c.is_zero()]
        if not (forms and all(c.is_homogeneous() for c in forms)
                and len({c.homogeneous_degree() for c in forms}) == 1):
            raise InputError("base and direction must be forms of one degree, not both zero")
        self.base = base
        self.direction = direction
        self._fibers = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PencilFamily):
            return NotImplemented
        return (self.base, self.direction) == (other.base, other.direction)

    def __hash__(self) -> int:
        return hash((self.base, self.direction))

    def __repr__(self) -> str:
        return f"PencilFamily(base={self.base!r}, direction={self.direction!r})"


def specialize(fam: PencilFamily, s0) -> Poly:
    """base + s0 * direction; refuses a zero or non-reduced fiber.

    The family keeps the fiber, so a repeat returns the same Poly and the
    context of the first call."""
    s0 = Fraction(s0)
    got = fam._fibers.get(s0)
    if got is not None:
        return got
    total = fam.base + fam.direction.scale(s0)
    if total.is_zero():
        raise InputError(f"fiber at s = {s0} is identically zero")
    if not _ctx(total).reduced:
        raise InputError(f"fiber at s = {s0} is not reduced")
    fam._fibers[s0] = total
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
    ss = _samples(samples)
    if not ss:
        raise InputError("need at least one sample")
    table = tuple((s, pole_filtration_dims(specialize(fam, s), policy).dims) for s in ss)
    return PoleConstancyResult(len({dims for _, dims in table}) == 1, table)


def _graded_quotient(ctx: _JacContext, k: int, power: int):
    """SpanSolver for H-bar_{f,k} / f*H-bar_{f,k-d}, f that of ctx, plus the chosen basis.

    Seeds the solver with the f-image classes (labelled None; the context's
    integer-scaled f spans the same image), then adds the classes of ambient
    monomials; the accepted ones label the quotient basis.
    On a proved-smooth fiber the quotient is the Jacobian ring piece R_{k-n-1}
    (Griffiths), of the dimension the Hilbert series gives (Prop. 16: the
    cokernel of f on H_f is R shifted by n+1), at every power.  Past the
    socle degree (n+1)(d-2) it is zero, as is the target k = (q+1)d of
    `grp_nabla_matrix` for every q >= n, and the empty presentation is
    returned without building the relation space.
    """
    n, d = ctx.n, ctx.d
    if k < n + 1:
        return None, []
    if ctx.smooth and not ctx.dim_R(k - n - 1):
        return None, []
    solver = SpanSolver(len(ctx.index(k + power * d - n - 1)))
    basis = []
    fimage_src = ctx.monomials(k - d - n - 1) if k - d >= n + 1 else []
    for mono in fimage_src:
        solver.add(ctx.class_vector(ctx.f.shift(mono), k, power), None)
    for mono in ctx.monomials(k - n - 1):
        if solver.add(ctx.class_vector(Poly.monomial(ctx.nvars, mono), k, power), len(basis)):
            basis.append(mono)
    return solver, basis


def _presentation_powers(f: Poly, q: int, policy: StabilizationPolicy) -> tuple:
    """(p_src, p_tgt), the powers of f that present the source and target
    quotients of `grp_nabla_matrix` at q: 0 on a proved-smooth fiber, else
    the certified power of the target degree, and for the source the larger
    of the certified power of its degree and that of one degree d lower,
    less one.  The certificates are asked for in either case."""
    ctx = _ctx(f)
    n, d = ctx.n, ctx.d
    src_k, tgt_k = q * d, (q + 1) * d
    p_tgt = hbar_certificate(f, tgt_k, policy).power
    p_src = hbar_certificate(f, src_k, policy).power if src_k >= n + 1 else 0
    if src_k - d >= n + 1:
        p_src = max(p_src, hbar_certificate(f, src_k - d, policy).power - 1)
    if ctx.smooth:
        return 0, 0
    return p_src, p_tgt


def grp_nabla_matrix(fam: PencilFamily, s0, q: int,
                     policy: StabilizationPolicy | None = None,
                     samples=None) -> ExactMatrix:
    """Matrix of the graded Gauss-Manin action on the pole filtration.

    Multiplication by -q * fam.direction from H-bar_{qd}/f H-bar_{(q-1)d} to
    H-bar_{(q+1)d}/f H-bar_{qd}, in bases chosen by the stabilized class maps.
    Refused unless the pole dims are constant across the sample set (the
    hypothesis the underlying comparison needs).  The check runs on every
    call; the family keeps its fibers and each fiber's context its rank
    traces, so a repeat runs no elimination.  Every ambient monomial is
    re-expressed through the chosen basis and its image compared, so a
    successful return certifies the map is well defined on the quotients.

    Each quotient is presented through the classes of f^p * m in degree
    k + p*d.  On a singular fiber p is the certified power of degree k (and
    of k - d, less one), so the classes live in the torsion-free quotient.
    On a proved-smooth fiber p = 0: H_f is a free C[f]-module (Sebastiani),
    f^p is injective and keeps every linear relation among classes, so the
    chosen basis and coordinates are those of any higher power, and
    H-bar_k / f H-bar_{k-d} is the Jacobian ring piece R_{k-n-1} (Griffiths).
    For q >= n the target R_{(q+1)d-n-1} lies past the socle degree
    (n+1)(d-2), so it is zero, its presentation is empty and the
    0 x dim R_{qd-n-1} matrix is returned with no source presentation
    built: a map into the zero space needs no check that it is well
    defined.  The certificates are still asked for, so a policy that
    cannot be met raises as on a singular fiber.
    """
    if q < 0:
        raise InputError("q must be nonnegative")
    s0 = Fraction(s0)
    ss = _samples(samples)
    if s0 not in ss:
        ss = ss + (s0,)
    constancy = pole_constancy_check(fam, ss, policy)
    if not constancy:
        raise InvariantError(
            "pole dims are not constant over the samples; "
            f"table: {constancy.table}")
    f = specialize(fam, s0)
    ctx = _ctx(f)
    n, d = ctx.n, ctx.d

    src_k, tgt_k = q * d, (q + 1) * d
    p_src, p_tgt = _presentation_powers(f, q, policy)

    tgt_solver, tgt_basis = _graded_quotient(ctx, tgt_k, p_tgt)
    if not tgt_basis and ctx.smooth:
        # the source is R_{qd-n-1} too, and the zero map needs only its dim
        return ExactMatrix.zeros(0, ctx.dim_R(src_k - n - 1))
    src_solver, src_basis = _graded_quotient(ctx, src_k, p_src)
    nrows, ncols = len(tgt_basis), len(src_basis)
    if q == 0 or fam.direction.is_zero() or ncols == 0:
        return ExactMatrix.zeros(nrows, ncols)

    def target_coords(p: Poly) -> dict:
        combo = tgt_solver.express(ctx.class_vector(p, tgt_k, p_tgt))
        if combo is None:
            raise InvariantError("image class escaped the target presentation")
        return {lab: val for lab, val in combo.items() if lab is not None}

    scaled = fam.direction.scale(-q)
    columns = [target_coords(scaled * Poly.monomial(ctx.nvars, mono)) for mono in src_basis]

    # well-definedness: every ambient monomial must map consistently with its
    # expression through the chosen source basis
    basis_pos = {mono: i for i, mono in enumerate(src_basis)}
    for mono in ctx.monomials(src_k - n - 1):
        if mono in basis_pos:
            continue
        combo = src_solver.express(ctx.class_vector(Poly.monomial(ctx.nvars, mono), src_k, p_src))
        if combo is None:
            raise InvariantError("source class escaped its own presentation")
        expected: dict = {}
        for lab, val in combo.items():
            for r, e in columns[lab].items() if lab is not None else ():
                expected[r] = expected.get(r, 0) + val * e
        got = target_coords(scaled * Poly.monomial(ctx.nvars, mono))
        if got != {r: v for r, v in expected.items() if v}:
            raise QuotientMapError(
                "graded action is not well defined: representative choice leaks "
                f"through monomial {mono}")

    rows = [{col: coords[r] for col, coords in enumerate(columns) if r in coords}
            for r in range(nrows)]
    return ExactMatrix.from_rows(rows, ncols)


class TjurinaScanRow:
    """Global Tjurina number at one sample, and the dims of R from the scan's
    start degree on."""

    __slots__ = ("sample", "tjurina", "tail")

    def __init__(self, sample: Fraction, tjurina: int, tail: tuple):
        self.sample = sample
        self.tjurina = tjurina
        self.tail = tail


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
    value exceeds the minimum over the scan (the generic value nearby).  The
    tail reads the dims the Tjurina scan evaluated and, from the degree its
    certificate holds on, tau."""
    ss = _samples(samples)
    if not ss:
        raise InputError("need at least one sample")
    rows = []
    for s in ss:
        f = specialize(fam, s)
        ctx = _ctx(f)
        start = ctx.tjurina_start
        tau = global_tjurina(f)
        tail = tuple(ctx.dim_R(k) for k in range(start, start + ctx.n + 2))
        rows.append(TjurinaScanRow(s, tau, tail))
    low = min(r.tjurina for r in rows)
    jumps = tuple(r.sample for r in rows if r.tjurina > low)
    return TjurinaScanResult(tuple(rows), jumps)

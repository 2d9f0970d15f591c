"""Reference implementations that the tests compare the package against.

None of these runs on a CLI path; each is an independent way to reach a
number the package computes another way.

Polynomial differential forms on affine space with the Euler contraction: a
j-form is a sparse map from sorted index tuples (the dx factors) to
polynomial coefficients.  The grading puts deg(x_i) = deg(dx_i) = 1, so the
exterior derivative preserves total degree and the Lie derivative along the
rescaled Euler field xi = (1/d) sum x_i d/dx_i acts on a graded form of total
degree k as multiplication by k/d.  The relation-row tests build
(df ^ dOmega^{n-1})_k literally with these forms.

Three checks of the paper's identities follow: the Gauss-Manin
identities behind the transition maps, the cokernel of multiplication by f
(Prop. 16) and the primitive Hodge numbers of a smooth hypersurface
(Griffiths).  Then come the hand-written Macaulay row loops for the Jacobian,
relation, coordinate-section and jet matrices, which the package now builds
through `gradedpoly.multiples`.  Then comes the gcd of forms, read off the
exact kernels of Sylvester maps, and the chain of gcds of f and its partials
that decides reducedness without the theorem of `jacobian._JacContext.reduced`.
Then comes a dense Gaussian elimination over GF(p), the rank that
`exactlinalg.full_rank_mod_p` compares with its column count.  Last come the
value of a polynomial at a point, term by term, and the invariants of a line
arrangement read off its intersection points, with no elimination.

Test files import it as a plain module: pytest's default import mode puts
the test directory on sys.path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Mapping

from brieskornlab import brieskorn
from brieskornlab.exactlinalg import ExactMatrix, _strip_content, rank_of_vectors
from brieskornlab.gradedpoly import (InputError, Poly, hilbert_ci_coeffs, mono_mul,
                                     monomial_basis, monomials_weighted_below)


class EulerField:
    """The Euler vector field scaled by 1/d; immutable by convention."""

    __slots__ = ("nvars", "d")

    def __init__(self, nvars: int, d: int):
        if d < 1 or nvars < 1:
            raise InputError("EulerField needs positive degree and variable count")
        self.nvars = nvars
        self.d = d


class Form:
    """Differential form with Poly coefficients; immutable by convention."""

    __slots__ = ("nvars", "jdegree", "terms")

    def __init__(self, nvars: int, jdegree: int, terms: dict):
        self.nvars = nvars
        self.jdegree = jdegree
        self.terms = terms

    @classmethod
    def zero(cls, nvars: int, jdegree: int) -> "Form":
        return cls(nvars, jdegree, {})

    @classmethod
    def from_terms(cls, nvars: int, jdegree: int, terms: Mapping) -> "Form":
        clean = {}
        for idx, coeff in terms.items():
            idx = tuple(idx)
            if len(idx) != jdegree or list(idx) != sorted(set(idx)):
                raise InputError(f"index tuple {idx} must be strictly increasing of length {jdegree}")
            if any(not 0 <= i < nvars for i in idx):
                raise InputError(f"index out of range in {idx}")
            if not isinstance(coeff, Poly):
                coeff = Poly.constant(nvars, coeff)
            if coeff.nvars != nvars:
                raise InputError("coefficient polynomial in the wrong ring")
            if not coeff.is_zero():
                clean[idx] = coeff
        return cls(nvars, jdegree, clean)

    @classmethod
    def from_poly(cls, p: Poly) -> "Form":
        """A 0-form."""
        return cls(p.nvars, 0, {(): p} if not p.is_zero() else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Form") -> "Form":
        # a zero form is degree-agnostic (iota on 0-forms yields one)
        if other.is_zero() and other.jdegree != self.jdegree:
            self._compat(other)
            return self
        if self.is_zero() and other.jdegree != self.jdegree:
            self._compat(other)
            return other
        self._compat(other, same_j=True)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            s = out.get(idx)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        return Form(self.nvars, self.jdegree, out)

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scale(-1)

    def scale(self, c) -> "Form":
        if isinstance(c, Poly):
            out = {}
            for idx, coeff in self.terms.items():
                p = coeff * c
                if not p.is_zero():
                    out[idx] = p
            return Form(self.nvars, self.jdegree, out)
        if c == 0:
            return Form.zero(self.nvars, self.jdegree)
        return Form(self.nvars, self.jdegree, {i: co.scale(c) for i, co in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Form) and self.nvars == other.nvars
                and self.jdegree == other.jdegree and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.nvars, self.jdegree, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Form(j={self.jdegree}, terms={len(self.terms)})"

    def graded_degree(self):
        """Total degree if graded (all coefficients homogeneous of matching degree)."""
        if not self.terms:
            return None
        degs = set()
        for coeff in self.terms.values():
            if not coeff.is_homogeneous():
                raise InputError("form is not graded: inhomogeneous coefficient")
            degs.add(coeff.homogeneous_degree() + self.jdegree)
        if len(degs) != 1:
            raise InputError("form is not graded: mixed total degrees")
        return degs.pop()

    def _compat(self, other: "Form", same_j: bool = False) -> None:
        if self.nvars != other.nvars:
            raise InputError("forms on different spaces")
        if same_j and self.jdegree != other.jdegree:
            raise InputError("forms of different exterior degrees")


def _merge_sign(a: tuple, b: tuple):
    """Sorted merge of disjoint sorted tuples with the permutation sign."""
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            out.append(a[i]); i += 1
        else:
            # b[j] hops over the remaining len(a)-i entries of a
            if (len(a) - i) & 1:
                sign = -sign
            out.append(b[j]); j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def wedge(a: Form, b: Form) -> Form:
    a._compat(b)
    j = a.jdegree + b.jdegree
    if j > a.nvars:
        return Form.zero(a.nvars, j)
    out: dict = {}
    for ia, ca in a.terms.items():
        sa = set(ia)
        for ib, cb in b.terms.items():
            if sa.intersection(ib):
                continue
            idx, sign = _merge_sign(ia, ib)
            p = ca * cb
            if sign < 0:
                p = -p
            s = out.get(idx)
            s = p if s is None else s + p
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
    return Form(a.nvars, j, out)


def exterior_d(a: Form) -> Form:
    """Exterior derivative; preserves the total grading."""
    j = a.jdegree + 1
    if j > a.nvars:
        return Form.zero(a.nvars, j)
    out: dict = {}
    for idx, coeff in a.terms.items():
        occupied = set(idx)
        for i in range(a.nvars):
            if i in occupied:
                continue
            dp = coeff.partial(i)
            if dp.is_zero():
                continue
            nidx, sign = _merge_sign((i,), idx)
            if sign < 0:
                dp = -dp
            s = out.get(nidx)
            s = dp if s is None else s + dp
            if s.is_zero():
                out.pop(nidx, None)
            else:
                out[nidx] = s
    return Form(a.nvars, j, out)


def iota_euler(a: Form, xi: EulerField) -> Form:
    """Interior product with xi = (1/d) sum x_i d/dx_i."""
    if a.nvars != xi.nvars:
        raise InputError("field and form on different spaces")
    if a.jdegree == 0:
        return Form.zero(a.nvars, 0)
    scale = Fraction(1, xi.d)
    out: dict = {}
    for idx, coeff in a.terms.items():
        for pos, i in enumerate(idx):
            p = (coeff * Poly.variable(a.nvars, i)).scale(scale if pos % 2 == 0 else -scale)
            nidx = idx[:pos] + idx[pos + 1:]
            s = out.get(nidx)
            s = p if s is None else s + p
            if s.is_zero():
                out.pop(nidx, None)
            else:
                out[nidx] = s
    return Form(a.nvars, a.jdegree - 1, out)


def lie_euler(a: Form, xi: EulerField) -> Form:
    """Lie derivative along xi via the Cartan formula; input must be graded.

    For a graded form of total degree k the result equals (k/d) * a; the
    caller can use that as a consistency check.
    """
    a.graded_degree()  # raises if not graded
    return iota_euler(exterior_d(a), xi) + exterior_d(iota_euler(a, xi))


def omega0(nvars: int) -> Form:
    """The top form dx_0 ^ ... ^ dx_n with coefficient 1."""
    return Form.from_terms(nvars, nvars, {tuple(range(nvars)): Poly.constant(nvars, 1)})


def eta0(nvars: int, d: int) -> Form:
    """The contraction of the top form along the rescaled Euler field.

    Equals (1/d) sum_i (-1)^i x_i dx_0 ^ ... omit i ... ^ dx_n; its exterior
    derivative is (nvars/d) times the top form.
    """
    terms = {}
    scale = Fraction(1, d)
    for i in range(nvars):
        idx = tuple(j for j in range(nvars) if j != i)
        c = Poly.variable(nvars, i).scale(scale if i % 2 == 0 else -scale)
        terms[idx] = c
    return Form.from_terms(nvars, nvars - 1, terms)


def gauss_manin_identity_check(f: Poly, P: Poly) -> bool:
    """Exterior-algebra identities behind the Gauss-Manin transition maps.

    For f homogeneous of degree d and omega = P*omega_0 graded of total
    degree k, checks exactly that df ^ iota_xi(omega) = f*omega and
    d(iota_xi(omega)) = (k/d)*omega.
    """
    if P.is_zero():
        return True
    nvars, d = f.nvars, f.homogeneous_degree()
    omega = omega0(nvars).scale(P)
    eta = iota_euler(omega, EulerField(nvars, d))
    if wedge(exterior_d(Form.from_poly(f)), eta) != omega.scale(f):
        return False
    k = P.homogeneous_degree() + nvars
    return exterior_d(eta) == omega.scale(Fraction(k, d))


def coker_check_prop16(f: Poly, k: int) -> bool:
    """dim H_{f,k} - rank(f: H_{f,k-d} -> H_{f,k}) against dim R_{k-n-1}.

    The cokernel of the transition map is the Jacobian ring shifted by n+1;
    this verifies the two sides degree by degree.
    """
    ctx = brieskorn._ctx(f)
    if k < ctx.n + 1:
        raise InputError(f"degree must be at least n+1 = {ctx.n + 1}")
    lhs = ctx.hf_dim(k) - ctx.power_rank(k - ctx.d, 1)
    return lhs == ctx.dim_R(k - ctx.n - 1)


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


# The hand-written Macaulay loops that `gradedpoly.multiples` replaced, kept
# as oracles: each maps every product monomial to its column itself and
# truncates or cuts explicitly, where the package leaves out the products
# outside its column index.


def image_rows_by_loop(ctx, k: int) -> list:
    """The nonzero rows x^m * f_j of the degree-k piece of the Jacobian
    ideal, m outer and j inner, entries accumulated per column."""
    mdeg = k - (ctx.d - 1)
    if mdeg < 0:
        return []
    idx = ctx.index(k)
    rows = []
    for m in monomial_basis(ctx.nvars, mdeg):
        for terms in ctx.partials:
            row = {}
            for mono, c in terms:
                col = idx[mono_mul(mono, m)]
                row[col] = row.get(col, 0) + c
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


def relation_rows_by_loop(ctx, k: int) -> list:
    """`jacobian._JacContext.relation_rows` with each product mapped by hand:
    type (a) rows x^alpha f_a, then type (b) rows built from the partials
    shifted by x_a."""
    e = k - ctx.n - ctx.d
    if e < 0:
        return []
    n = ctx.n
    idx = ctx.index(k - n - 1)
    rows = []
    for alpha in monomial_basis(ctx.nvars, e):
        for a, terms in enumerate(ctx.partials):
            if not alpha[a]:
                rows.append({idx[mono_mul(mono, alpha)]: c for mono, c in terms})
    # x_a * f_a: the e_a-term of a type (b) field adds (b_n+1) x^b x_a f_a
    shifted = [[(mono[:a] + (mono[a] + 1,) + mono[a + 1:], c) for mono, c in terms]
               for a, terms in enumerate(ctx.partials)]
    for b in monomial_basis(ctx.nvars, e - 1):
        last = [(idx[mono_mul(mono, b)], c) for mono, c in shifted[n]]
        for a in range(n):
            row = {idx[mono_mul(mono, b)]: (b[n] + 1) * c for mono, c in shifted[a]}
            for col, c in last:
                v = row.get(col, 0) - (b[a] + 1) * c
                if v:
                    row[col] = v
                else:
                    del row[col]
            rows.append(row)
    for row in rows:
        _strip_content(row)
    return [row for row in rows if row]


def jet_rows_by_truncation(gens, weights, threshold, idx: dict) -> list:
    """`singularities._jet_rows` by explicit weighted truncation of each
    generator and of each of its monomial multiples."""
    rows = []
    for g in gens:
        gt = g.truncate_weighted(weights, threshold)
        if gt.is_zero():
            continue
        glow = gt.min_weighted_degree(weights)
        for o in monomials_weighted_below(gt.nvars, weights, threshold - glow):
            prod = gt.shift(o).truncate_weighted(weights, threshold)
            if not prod.is_zero():
                rows.append({idx[m]: c for m, c in prod.terms.items()})
    return rows


def coordinate_section_vanishes_by_cut(ctx, k: int) -> bool:
    """`jacobian._coordinate_section_vanishes` from every degree-k Jacobian
    row, cut to the columns of the monomials free of x_i."""
    rows = image_rows_by_loop(ctx, k)
    for i in reversed(range(ctx.nvars)):
        cols = {c: j for j, c in enumerate(
            c for c, mono in enumerate(ctx.monomials(k)) if not mono[i])}
        cut = ({cols[c]: v for c, v in row.items() if c in cols} for row in rows)
        if rank_of_vectors(cut) == len(cols):
            return True
    return False


# The gcd chain that decided reducedness before `jacobian._JacContext.reduced`
# read it off one Macaulay matrix of the partials, kept as its oracle.  The
# gcd of homogeneous forms is linear algebra too.  Let a and b have degrees
# alpha and beta and gcd g of degree gamma.  The map phi_e(u, v) = u*a - v*b
# from S_{beta-e} + S_{alpha-e} to S_{alpha+beta-e} has kernel
# {(b/g*t, a/g*t) : t in S_{gamma-e}}: it is zero exactly when e > gamma, so a
# and b are coprime iff ker phi_1 = 0, and at e = gamma it is a line whose
# v-part is a/g up to a scalar.  Since dim ker phi_1 = dim S_{gamma-1}, that
# dimension names gamma.  Results are normalized to have leading (graded-lex)
# coefficient 1.


def _leading(p: Poly) -> tuple:
    m = max(p.terms, key=lambda t: (sum(t), t))
    return m, p.terms[m]


def _normalize(p: Poly) -> Poly:
    if p.is_zero():
        return p
    _, c = _leading(p)
    return p.scale(Fraction(1, 1) / c)


def _sylvester_matrix(a: Poly, b: Poly, alpha: int, beta: int, e: int):
    """The matrix of phi_e over the columns (v, u), and the monomial basis
    of S_{alpha-e} that indexes the v-part (the leading columns)."""
    vs, us = monomial_basis(a.nvars, alpha - e), monomial_basis(a.nvars, beta - e)
    target = {m: i for i, m in enumerate(monomial_basis(a.nvars, alpha + beta - e))}
    rows: list = [{} for _ in target]
    neg_b = -b
    for col, (factor, m) in enumerate([(neg_b, m) for m in vs] + [(a, m) for m in us]):
        for t, c in factor.terms.items():
            rows[target[mono_mul(t, m)]][col] = c
    return ExactMatrix.from_rows(rows, len(vs) + len(us)), vs


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """gcd of homogeneous a and b up to scalar, normalized to leading
    coefficient 1 (1 for coprime), read off the exact kernel of phi_e above.

    Raises InputError when a nonzero argument is not homogeneous.
    """
    a._same_ring(b)
    if not (a.is_homogeneous() and b.is_homogeneous()):
        raise InputError("poly_gcd needs homogeneous polynomials")
    if a.is_zero():
        return _normalize(b)
    if b.is_zero():
        return _normalize(a)
    alpha, beta = a.homogeneous_degree(), b.homogeneous_degree()
    phi, vs = _sylvester_matrix(a, b, alpha, beta, 1)
    kernel = phi.kernel_basis()
    if not kernel.dim:
        return Poly.constant(a.nvars, 1)
    # gamma is the largest e with dim S_{e-1} = dim ker phi_1; in one
    # variable every form is a monomial and gamma = min(alpha, beta)
    gamma = max(e for e in range(1, min(alpha, beta) + 1)
                if comb(e + a.nvars - 2, a.nvars - 1) == kernel.dim)
    if gamma > 1:
        phi, vs = _sylvester_matrix(a, b, alpha, beta, gamma)
        kernel = phi.kernel_basis()
    (line,) = kernel.basis()
    cofactor = Poly(a.nvars, {vs[c]: val for c, val in line.items() if c < len(vs)})
    return _normalize(try_divide(a, cofactor))


def try_divide(p: Poly, q: Poly):
    """Return p/q when q divides p exactly, else None (graded-lex long division)."""
    p._same_ring(q)
    if q.is_zero():
        raise InputError("division by the zero polynomial")
    if p.is_zero():
        return Poly.zero(p.nvars)
    qm, qc = _leading(q)
    quot: dict = {}
    rem = p
    while not rem.is_zero():
        rm, rc = _leading(rem)
        diff = tuple(a - b for a, b in zip(rm, qm))
        if any(e < 0 for e in diff):
            return None
        c = Fraction(rc) / Fraction(qc)
        if c.denominator == 1:
            c = int(c)
        quot[diff] = c
        rem = rem - q.shift(diff).scale(c)
    return Poly(p.nvars, quot)


def squarefree_by_gcd(f: Poly) -> bool:
    """Whether the homogeneous f is squarefree, by gcd(f, df/dx_0, ...,
    df/dx_n): the gcd is a constant exactly when f is squarefree."""
    if f.is_zero():
        return False
    g = f
    for i in range(f.nvars):
        g = poly_gcd(g, f.partial(i))
        if g.degree() == 0:
            return True
    return g.degree() == 0


def dense_rank_mod(rows: list, ncols: int, p: int) -> int:
    """Rank of integer rows over GF(p), leftmost pivots, dense."""
    m = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        k = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[rank], m[k] = m[k], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            a = m[i][c] * inv % p
            m[i] = [(x - a * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def evaluate(p: Poly, point) -> Fraction:
    """The value of p at a point of Q^nvars, term by term."""
    if len(point) != p.nvars:
        raise InputError("point arity does not match variable count")
    total = Fraction(0)
    for m, c in p.terms.items():
        v = Fraction(c)
        for e, x in zip(m, point):
            v *= Fraction(x) ** e
        total += v
    return total


def arrangement_invariants(lines) -> dict:
    """Invariants of a reduced arrangement of m >= 2 lines in P^2, the zero
    set of the product of the linear forms `lines` (Polys in 3 variables),
    read off its intersection points with no elimination.

    The points are the cross products of the coefficient vectors of pairs of
    lines, scaled to a first nonzero coordinate of 1; m_p counts the lines
    through p.  Then (Dimca, *Hyperplane Arrangements* (2017)):
    - the global Tjurina number is tau = sum_p (m_p - 1)^2, since a point
      of multiplicity m_p is an ordinary m_p-fold point, weighted
      homogeneous with tau = mu = (m_p - 1)^2;
    - b_2(U) = 1 - m + sum_p (m_p - 1) for the complement U, and H^2(U) is
      pure of type (2, 2), so every pole-order dim and the Milnor eigenspace
      of eigenvalue 1 equal b_2(U);
    - chi(U) = 2 - m + b_2(U), and for i = 1..m-1 the Milnor eigenspace of
      exp(2 pi sqrt(-1) i/m) has dim chi(U) when m does not divide i * m_p
      at any point with m_p >= 3 (Libgober, Duke Math. J. 49 (1982)).

    Returns {"points": {p: m_p}, "tau", "b2", "chi", "milnor": {i: dim}},
    the last for i = 0 and every i that rule covers.
    """
    if any(l.nvars != 3 or l.degree() != 1 or not l.is_homogeneous() for l in lines):
        raise InputError("every line must be a linear form in 3 variables")
    vecs = [tuple(Fraction(l.terms.get(e, 0)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
            for l in lines]
    through: dict = {}
    for (i, a), (j, b) in combinations(enumerate(vecs), 2):
        cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        if not any(cross):
            raise InputError(f"lines {i} and {j} coincide")
        lead = next(c for c in cross if c)
        through.setdefault(tuple(c / lead for c in cross), set()).update((i, j))
    m = len(vecs)
    points = {p: len(on) for p, on in through.items()}
    b2 = 1 - m + sum(mp - 1 for mp in points.values())
    chi = 2 - m + b2
    milnor = {0: b2}
    milnor.update((i, chi) for i in range(1, m)
                  if all(i * mp % m for mp in points.values() if mp >= 3))
    return {"points": points, "tau": sum((mp - 1) ** 2 for mp in points.values()),
            "b2": b2, "chi": chi, "milnor": milnor}

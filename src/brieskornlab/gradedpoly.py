"""Sparse multivariate polynomials over Q, graded by total or weighted degree.

Coefficients are exact rationals (`fractions.Fraction`, with plain ints allowed
as a fast path) and monomials are exponent tuples, one entry per variable.
Everything downstream builds matrices out of these, so all enumeration here is
deterministic: graded-lex order with the user's variable order throughout.
The one algorithm beyond arithmetic, the reducedness test, is linear
algebra too: f is squarefree exactly when one Macaulay matrix of its
partials, built by `multiples` like every other, has independent rows,
proved by a full rank modulo a prime or decided by `exactlinalg`'s exact
rank (`is_squarefree`).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, floor, gcd
from operator import add
from typing import Iterable, Mapping, Sequence

from .exactlinalg import InputError, full_rank_mod_p, rank_of_vectors

Monomial = tuple[int, ...]


class ParseError(InputError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_degree(m: Monomial) -> int:
    return sum(m)


def weighted_degree(m: Monomial, weights: Sequence[Fraction]) -> Fraction:
    """Sum of w_i * exponent_i as an exact rational."""
    if len(m) != len(weights):
        raise InputError(f"monomial has {len(m)} exponents, weight vector has {len(weights)}")
    total = Fraction(0)
    for e, w in zip(m, weights):
        if e:
            total += e * w
    return total


def weight_vector(values: Iterable) -> tuple[Fraction, ...]:
    """Validate and normalize a weight vector: every entry a positive rational."""
    ws = tuple(Fraction(v) for v in values)
    if not ws or any(w <= 0 for w in ws):
        raise InputError("weights must be positive rationals")
    return ws


class Poly:
    """Immutable sparse polynomial; term map from exponent tuple to coefficient.

    The term map never stores zero coefficients, so equality and hashing are
    structural.  Arithmetic keeps integer coefficients as ints (cheap) and only
    produces Fractions when a denominator actually appears.
    """

    __slots__ = ("nvars", "terms", "_hash", "__weakref__")

    def __init__(self, nvars: int, terms: dict):
        # internal constructor: assumes terms is already clean (no zeros, right arity)
        self.nvars = nvars
        self.terms = terms
        self._hash = None

    # ------------------------------------------------------------------ build
    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        c = _coeff(c)
        return cls(nvars, {} if c == 0 else {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise InputError(f"variable index {i} out of range for {nvars} variables")
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, nvars: int, m: Monomial, c=1) -> "Poly":
        c = _coeff(c)
        if len(m) != nvars or any(e < 0 for e in m):
            raise InputError(f"bad monomial {m} for {nvars} variables")
        return cls(nvars, {} if c == 0 else {tuple(m): c})

    @classmethod
    def from_terms(cls, nvars: int, terms: Mapping[Monomial, object]) -> "Poly":
        clean = {}
        for m, c in terms.items():
            if len(m) != nvars or any(e < 0 for e in m):
                raise InputError(f"bad monomial {m} for {nvars} variables")
            c = _coeff(c)
            if c != 0:
                clean[tuple(m)] = c
        return cls(nvars, clean)

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other: "Poly") -> "Poly":
        self._same_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._same_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) - c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        self._same_ring(other)
        if len(self.terms) > len(other.terms):
            self, other = other, self
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly(self.nvars, out)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def scale(self, c) -> "Poly":
        c = _coeff(c)
        if c == 0:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise InputError("negative exponent")
        result = Poly.constant(self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def shift(self, m: Monomial) -> "Poly":
        """Multiply by a single monomial (exponent shift, no coefficient work)."""
        return Poly(self.nvars, {mono_mul(t, m): c for t, c in self.terms.items()})

    # ----------------------------------------------------------------- queries
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or None for the zero polynomial (kept distinct from 0)."""
        if not self.terms:
            return None
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a nonzero homogeneous polynomial; raises otherwise."""
        degs = {mono_degree(m) for m in self.terms}
        if len(degs) != 1:
            raise InputError("polynomial is zero or not homogeneous")
        return degs.pop()

    def partial(self, i: int) -> "Poly":
        """Partial derivative with respect to variable i."""
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                out[m[:i] + (e - 1,) + m[i + 1:]] = c * e
        return Poly(self.nvars, out)

    def weighted_parts(self, weights: Sequence[Fraction]) -> dict:
        """Decompose into weighted-homogeneous parts, keyed by weighted degree."""
        parts: dict = {}
        for m, c in self.terms.items():
            parts.setdefault(weighted_degree(m, weights), {})[m] = c
        return {w: Poly(self.nvars, t) for w, t in sorted(parts.items())}

    def min_weighted_degree(self, weights: Sequence[Fraction]):
        """Smallest weighted degree among terms, or None for the zero polynomial."""
        if not self.terms:
            return None
        return min(weighted_degree(m, weights) for m in self.terms)

    def truncate_weighted(self, weights: Sequence[Fraction], threshold: Fraction) -> "Poly":
        """Keep only the terms of weighted degree strictly below the threshold."""
        kept = {m: c for m, c in self.terms.items() if weighted_degree(m, weights) < threshold}
        return Poly(self.nvars, kept)

    def integer_scaled(self) -> tuple["Poly", int]:
        """Return (s*self, s) where s is the least positive integer clearing denominators."""
        lcm = 1
        for c in self.terms.values():
            den = c.denominator if isinstance(c, Fraction) else 1
            lcm = lcm * den // gcd(lcm, den)
        if lcm == 1:
            return Poly(self.nvars, {m: int(c) for m, c in self.terms.items()}), 1
        return Poly(self.nvars, {m: int(c * lcm) for m, c in self.terms.items()}), lcm

    # ------------------------------------------------------------- structural
    def _same_ring(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise InputError("polynomials live in different rings")

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"Poly({render(self, names)})"


def _coeff(c):
    if isinstance(c, (int, Fraction)):
        return c
    if isinstance(c, str):
        return Fraction(c)
    raise InputError(f"not an exact rational coefficient: {c!r}")


# ---------------------------------------------------------------------- bases

# input budget: the most monomials one degree may have.  `monomial_basis`
# refuses a larger basis before building it, so every index, every Jacobian,
# relation and reducedness row, and the bases of the family quotients and the
# global level-q sections stay within it.  Two callers refuse a degree without
# building its basis: `parse_poly` before it expands a power or product into
# it, and a proved-smooth certificate, which builds no basis, for every power
# whose relations a scan would refuse (`brieskorn._stabilize`).  A basis and
# its index take about 150 bytes a monomial (CPython 3.11), so this bounds one
# at about 40 MB; the largest that the tests build has 4495 monomials (4
# variables, degree 28), the problem corpus and the benchmark workloads 680.
_MAX_BASIS_SIZE = 250_000


def _basis_overflow(nvars: int, m: int) -> str | None:
    """The refusal of degree m in nvars variables when it has more than
    _MAX_BASIS_SIZE monomials, else None."""
    size = comb(m + nvars - 1, nvars - 1) if m >= 0 else 0
    if size <= _MAX_BASIS_SIZE:
        return None
    return (f"degree {m} has {size} monomials in {nvars} variables, "
            f"more than the limit of {_MAX_BASIS_SIZE}")


def monomial_basis(nvars: int, degree: int) -> list[Monomial]:
    """All monomials of the given total degree, in descending lex order.

    This is the graded-lex order restricted to one degree; every matrix in the
    package indexes its columns by this list, so the order is load-bearing.
    Raises InputError, before enumerating anything, when the degree has more
    than _MAX_BASIS_SIZE monomials.
    """
    if nvars < 1:
        raise InputError("need at least one variable")
    if degree < 0:
        return []
    refusal = _basis_overflow(nvars, degree)
    if refusal:
        raise InputError(refusal)
    out: list[Monomial] = []

    def rec(prefix: Monomial, remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


def multiples(polys: Sequence[list], monos: Iterable[Monomial], index: Mapping) -> list[dict]:
    """The rows of x^m * p over the columns of index, for each monomial m of
    monos (outer loop) and each p of polys (inner loop, a list of (monomial,
    coefficient) pairs).  A product outside index is left out, so the index
    decides between full, cut and truncated rows."""
    rows = []
    for m in monos:
        for terms in polys:
            row = {}
            for t, c in terms:
                col = index.get(mono_mul(t, m))
                if col is not None:
                    row[col] = c
            rows.append(row)
    return rows


def monomials_weighted_below(nvars: int, weights: Sequence[Fraction], bound: Fraction) -> list[Monomial]:
    """Monomials with weighted degree < bound.

    Finite because all weights are positive.  Sorted by (weighted degree,
    descending lex) so weighted jet spaces get a canonical coordinate order.
    """
    ws = weight_vector(weights)
    out: list[Monomial] = []

    def rec(prefix: Monomial, budget: Fraction, i: int) -> None:
        if i == nvars:
            out.append(prefix)
            return
        w = ws[i]
        top = budget / w
        emax = floor(top)
        if emax == top:
            emax -= 1
        for e in range(max(emax, -1) + 1):
            rec(prefix + (e,), budget - e * w, i + 1)

    rec((), Fraction(bound), 0)
    out.sort(key=lambda m: (weighted_degree(m, ws), tuple(-e for e in m)))
    return out


def hilbert_ci_coeffs(nvars: int, gen_degree: int) -> list[int]:
    """Coefficients of ((1 - t^gen_degree) / (1 - t))^nvars.

    Hilbert series of a complete intersection of nvars forms of degree
    gen_degree in nvars variables; list has length nvars*(gen_degree-1)+1.
    """
    if nvars < 1 or gen_degree < 1:
        raise InputError("nvars and gen_degree must be positive")
    block = [1] * gen_degree
    coeffs = [1]
    for _ in range(nvars):
        nxt = [0] * (len(coeffs) + gen_degree - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(block):
                nxt[i + j] += a * b
        coeffs = nxt
    return coeffs


# --------------------------------------------------------------------- parser
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' natural)?
# base   := rational | name | '(' expr ')'
# rational := integer ('/' positive-integer)?
#
# No implicit multiplication; a '-' starts a literal only when followed by digits.


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_number(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected digits", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:   # longer than the interpreter's int string limit
            raise ParseError("number has too many digits", start) from None

    def take_name(self) -> str:
        self.skip_ws()
        start = self.pos
        ch = self.text[self.pos]
        if not (ch.isalpha() or ch == "_"):
            raise ParseError("expected a name", start)
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1


# Deepest nesting of parentheses and unary minus signs parse_poly accepts.
# The parser recurses a few frames per level, so this keeps it well inside
# the interpreter's recursion limit.
_MAX_NESTING = 100


def parse_poly(source: str, variables: Sequence[str]) -> Poly:
    """Parse polynomial text over the named variables; exact, no floats.

    Raises ParseError (with position) on syntax errors, on names that are
    not in `variables`, on more than _MAX_NESTING (100) nested
    parentheses or unary minus signs, and at a '^' or '*' whose result has
    a degree D with more than _MAX_BASIS_SIZE monomials of degree D, before
    expanding it.  That bounds the degree of what is expanded, not the
    time: a power or product within the budget can still take long.
    """
    names = list(variables)
    if len(set(names)) != len(names):
        raise InputError("duplicate variable names")
    index = {name: i for i, name in enumerate(names)}
    nvars = len(names)
    toks = _Tokens(source)

    def parse_expr() -> Poly:
        value = parse_term()
        while True:
            ch = toks.peek()
            if ch == "+":
                toks.pos += 1
                value = value + parse_term()
            elif ch == "-":
                toks.pos += 1
                value = value - parse_term()
            else:
                return value

    def refuse_over_budget(degree: int, pos: int) -> None:
        if degree > 0:   # degree 0 has one monomial, even with no variables
            refusal = _basis_overflow(nvars, degree)
            if refusal:
                raise ParseError(refusal, pos)

    def parse_term() -> Poly:
        value = parse_factor()
        while toks.peek() == "*":
            pos = toks.pos
            toks.pos += 1
            factor = parse_factor()
            if value and factor:
                refuse_over_budget(value.degree() + factor.degree(), pos)
            value = value * factor
        return value

    def parse_factor() -> Poly:
        value = parse_base()
        if toks.peek() == "^":
            pos = toks.pos
            toks.pos += 1
            toks.skip_ws()
            e = toks.take_number()
            if value:
                refuse_over_budget(value.degree() * e, pos)
            value = value**e
        return value

    depth = 0

    def parse_base() -> Poly:
        nonlocal depth
        ch = toks.peek()
        if ch in ("(", "-"):
            if depth == _MAX_NESTING:
                raise ParseError(f"more than {_MAX_NESTING} nested parentheses "
                                 "or signs", toks.pos)
            depth += 1
            toks.pos += 1
            if ch == "(":
                value = parse_expr()
                toks.expect(")")
            else:
                value = parse_factor().scale(-1)
            depth -= 1
            return value
        if ch.isdigit():
            num = toks.take_number()
            if toks.peek() == "/":
                toks.pos += 1
                dpos = toks.pos
                den = toks.take_number()
                if den == 0:
                    raise ParseError("zero denominator", dpos)
                return Poly.constant(nvars, Fraction(num, den))
            return Poly.constant(nvars, num)
        if ch.isalpha() or ch == "_":
            pos = toks.pos
            name = toks.take_name()
            if name not in index:
                raise ParseError(f"unknown variable {name!r}", pos)
            return Poly.variable(nvars, index[name])
        raise ParseError("expected a number, name or '('", toks.pos)

    toks.skip_ws()
    if not toks.text[toks.pos:]:
        raise ParseError("empty input", toks.pos)
    value = parse_expr()
    toks.skip_ws()
    if toks.pos != len(toks.text):
        raise ParseError("trailing input", toks.pos)
    return value


def render(p: Poly, variables: Sequence[str]) -> str:
    """Grammar-valid text for p; render(parse(s)) parses back to an equal Poly."""
    if len(variables) != p.nvars:
        raise InputError("variable list does not match polynomial arity")
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda mc: (-mono_degree(mc[0]), tuple(-e for e in mc[0])))
    pieces: list[str] = []
    for m, c in items:
        factors = []
        for name, e in zip(variables, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = c if c > 0 else -c
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            # a leading negative sign must stay inside a rational literal
            pieces.append(body if c > 0 else (f"-{body}" if not factors else f"-{mag}*" + "*".join(factors)))
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


def dehomogenize_shift(g: Poly, chart: int, point: Sequence) -> Poly:
    """Local representative of a homogeneous g at a projective point.

    Sets x_chart = 1 and substitutes x_i = y_i + p_i for the remaining
    variables, where p is the point scaled so its chart coordinate is 1.  The
    result lives in nvars-1 variables (original order with chart removed) and
    is the germ of g/x_chart^deg(g) in coordinates centered at the point.
    """
    if not g.is_homogeneous():
        raise InputError("dehomogenize_shift needs a homogeneous polynomial")
    n1 = g.nvars
    if not 0 <= chart < n1:
        raise InputError("chart index out of range")
    pt = [_coeff(v) for v in point]
    if len(pt) != n1:
        raise InputError("point arity does not match variable count")
    if pt[chart] == 0:
        raise InputError("point does not lie in the requested chart")
    scale = pt[chart]
    pt = [Fraction(v, 1) / scale if not isinstance(v, Fraction) else v / scale for v in pt]
    locals_ = [i for i in range(n1) if i != chart]
    nloc = n1 - 1
    # cache (variable, exponent) -> expanded (y_i + p_i)^e in the local ring
    powers: dict[tuple[int, int], Poly] = {}

    def shifted_power(j: int, e: int) -> Poly:
        key = (j, e)
        if key not in powers:
            base = Poly.variable(nloc, j) + Poly.constant(nloc, pt[locals_[j]])
            powers[key] = base**e
        return powers[key]

    total = Poly.zero(nloc)
    for m, c in g.terms.items():
        piece = Poly.constant(nloc, c)
        for j, i in enumerate(locals_):
            e = m[i]
            if e:
                piece = piece * shifted_power(j, e)
        total = total + piece
    return total


# ------------------------------------------------------------- squarefree test


def is_squarefree(f: Poly) -> bool:
    """True iff the homogeneous f has no repeated factor (characteristic zero).

    Decided by the rank of one Macaulay matrix of the partials.  Let d =
    deg f >= 2, a the first nonzero partial and a_1..a_n the other n.  Then
    f is squarefree iff these rows of S_{2d-3}^n are linearly independent:
    x^m * (a_1, ..., a_n) for each m in S_{d-2}, and x^m * a in block i for
    each m in S_{d-2} and i = 1..n.  A zero row counts, as a dependency.  A
    dependency is a tuple (u, v_1, ..., v_n) of forms in S_{d-2}, not all
    zero, with u * a_i = v_i * a for every i (the sign taken into v_i).

    - If f = g^2 h with deg g = c >= 1, g divides every partial, and
      u = (a/g) * l^(c-1), v_i = (a_i/g) * l^(c-1), for any linear form l,
      is one.
    - Conversely u != 0, since u = 0 leaves v_i * a = 0 with a != 0.  Then
      a | u * a_i with deg u < deg a gives a prime p dividing a more often
      than u, so p divides a and every a_i.  By Euler's formula
      d*f = sum x_j * df/dx_j, p divides f; writing f = p*h, p divides
      df/dx_j = p * dh/dx_j + h * dp/dx_j for every j, and does not divide
      every dp/dx_j, so p divides h and p^2 divides f.

    A full rank modulo a prime proves the rows independent without an exact
    elimination (`exactlinalg.full_rank_mod_p`); otherwise their exact rank
    decides.  `monomial_basis` refuses the basis of degree 2d-3 when it has
    more than _MAX_BASIS_SIZE monomials.  Forms of degree 0 and 1 are
    squarefree, 0 is not.  Raises InputError when f is nonzero and not
    homogeneous.
    """
    if f.is_zero():
        return False
    d = f.homogeneous_degree()
    if d < 2:
        return True
    f = f.integer_scaled()[0]
    others = [list(f.partial(i).terms.items()) for i in range(f.nvars)]
    a = others.pop(next(i for i, p in enumerate(others) if p))
    # every block of S_{2d-3}^n reads the one index of S_{2d-3}, block i
    # offset by i*width
    index = {m: j for j, m in enumerate(monomial_basis(f.nvars, 2 * d - 3))}
    width, monos = len(index), monomial_basis(f.nvars, d - 2)
    rows = [{} for _ in monos]   # x^m * (a_1, ..., a_n)
    for i, p in enumerate(others):
        for row, part in zip(rows, multiples([p], monos, index)):
            row.update((c + i * width, v) for c, v in part.items())
    a_rows = multiples([a], monos, index)   # x^m * a, put in each block
    for i in range(len(others)):
        rows += [{c + i * width: v for c, v in row.items()} for row in a_rows]
    return (full_rank_mod_p(rows, len(rows))
            or rank_of_vectors(rows, len(others) * width) == len(rows))

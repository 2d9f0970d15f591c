"""Pencils of hypersurfaces: specialization, pole constancy, graded connection."""

import sys
from fractions import Fraction

import pytest

from brieskornlab import brieskorn, families, gradedpoly
from brieskornlab.exactlinalg import InvariantError
from brieskornlab.families import (DEFAULT_SAMPLES, PencilFamily,
                                   grp_nabla_matrix, pole_constancy_check,
                                   specialize, tjurina_scan, xi_f)
from brieskornlab.gradedpoly import InputError, Poly, parse_poly
from brieskornlab.jacobian import NonIsolatedError

XYZ = ("x", "y", "z")
XYZT = ("x", "y", "z", "t")

FERMAT_CUBIC = parse_poly("x^3 + y^3 + z^3", XYZ)
XYZ_CUBE = parse_poly("x*y*z", XYZ)
FERMAT_PENCIL = PencilFamily.pencil(FERMAT_CUBIC, XYZ_CUBE)
JUMP_FAMILY = PencilFamily.pencil(parse_poly("x^4*z + y^5", XYZ),
                                  parse_poly("x^2*y^3", XYZ))


def test_family_validation():
    with pytest.raises(InputError):
        PencilFamily(())
    with pytest.raises(InputError):
        PencilFamily((Poly.zero(3), Poly.zero(3)))
    with pytest.raises(InputError):
        PencilFamily.pencil(FERMAT_CUBIC, parse_poly("x^2", XYZ))  # degree clash
    with pytest.raises(InputError):
        PencilFamily.pencil(FERMAT_CUBIC, parse_poly("x^2 + x^3", XYZ))
    fam = PencilFamily((FERMAT_CUBIC, Poly.zero(3), XYZ_CUBE))  # f + s^2 g
    assert fam.degree == 3 and fam.nvars == 3


def test_specialize_exact():
    f1 = specialize(FERMAT_PENCIL, Fraction(1, 2))
    assert f1 == FERMAT_CUBIC + XYZ_CUBE.scale(Fraction(1, 2))
    assert specialize(FERMAT_PENCIL, 0) == FERMAT_CUBIC
    quad = PencilFamily((FERMAT_CUBIC, Poly.zero(3), XYZ_CUBE))
    assert specialize(quad, 3) == FERMAT_CUBIC + XYZ_CUBE.scale(9)


def test_specialize_rejects_degenerate_fibers():
    cancel = PencilFamily((FERMAT_CUBIC, FERMAT_CUBIC.scale(-1)))
    with pytest.raises(InputError):
        specialize(cancel, 1)  # identically zero fiber
    tube = PencilFamily.pencil(parse_poly("x^2*z + y^3", XYZ),
                               parse_poly("x^2*z", XYZ))
    with pytest.raises(InputError):
        specialize(tube, -1)  # fiber y^3 is not reduced
    assert specialize(tube, 1) is not None


def test_xi_f():
    assert xi_f(FERMAT_PENCIL, 5) == XYZ_CUBE
    quad = PencilFamily((FERMAT_CUBIC, XYZ_CUBE, FERMAT_CUBIC))
    # d/ds (f + s g + s^2 f) = g + 2 s f
    assert xi_f(quad, 2) == XYZ_CUBE + FERMAT_CUBIC.scale(4)
    assert xi_f(PencilFamily.constant(FERMAT_CUBIC), 7).is_zero()


def test_pole_constancy_fermat_pencil():
    res = pole_constancy_check(FERMAT_PENCIL)
    assert res and res.constant
    assert [s for s, _ in res.table] == list(DEFAULT_SAMPLES)
    assert all(dims == (1, 2, 2) for _, dims in res.table)


def test_pole_constancy_detects_singular_member():
    """The fiber at s = -3 is the triangle-degenerate member: dims drop."""
    res = pole_constancy_check(FERMAT_PENCIL, samples=(0, -3))
    assert not res
    table = dict(res.table)
    assert table[Fraction(0)] == (1, 2, 2)
    assert table[Fraction(-3)] == (1, 1, 1)


def test_grp_nabla_fermat_pencil():
    m = grp_nabla_matrix(FERMAT_PENCIL, 0, 1)
    assert (m.nrows, m.ncols) == (1, 1)
    assert m.entry(0, 0) == -1
    # independent stabilization powers give the same matrix
    m2 = grp_nabla_matrix(FERMAT_PENCIL, 0, 1, extra_stabilization=1)
    assert m.rows == m2.rows
    m3 = grp_nabla_matrix(FERMAT_PENCIL, 0, 1, extra_stabilization=2)
    assert m.rows == m3.rows


def test_grp_nabla_linear_in_direction():
    doubled = PencilFamily.pencil(FERMAT_CUBIC, XYZ_CUBE.scale(2))
    m1 = grp_nabla_matrix(FERMAT_PENCIL, 0, 1)
    m2 = grp_nabla_matrix(doubled, 0, 1)
    assert all(m2.entry(r, c) == 2 * m1.entry(r, c)
               for r in range(m1.nrows) for c in range(m1.ncols))


def test_grp_nabla_trivial_cases():
    m0 = grp_nabla_matrix(FERMAT_PENCIL, 0, 0)
    assert m0.ncols == 0  # no classes below the first pole order
    const = grp_nabla_matrix(PencilFamily.constant(FERMAT_CUBIC), 0, 1)
    assert all(not row for row in const.rows)
    with pytest.raises(InputError):
        grp_nabla_matrix(FERMAT_PENCIL, 0, -1)


def test_grp_nabla_quartic_pencil_stable():
    fam = PencilFamily.pencil(parse_poly("x^4 + y^4 + z^4", XYZ),
                              parse_poly("x*y*z^2", XYZ))
    m1 = grp_nabla_matrix(fam, 0, 1)
    m2 = grp_nabla_matrix(fam, 0, 1, extra_stabilization=1)
    assert (m1.nrows, m1.ncols) == (3, 3)
    assert m1.rows == m2.rows
    assert any(m1.rows)  # genuinely nonzero action


def test_grp_nabla_refuses_nonconstant_pole_dims():
    with pytest.raises(InvariantError):
        grp_nabla_matrix(FERMAT_PENCIL, 0, 1, samples=(0, -3))


def test_grp_nabla_rechecks_constancy_from_cached_fiber_traces(monkeypatch):
    """Every grp_nabla_matrix call checks pole constancy over its samples, and
    a repeated check reads the fibers' cached rank traces: no elimination."""
    calls = []
    real = families.pole_filtration_dims
    monkeypatch.setattr(families, "pole_filtration_dims",
                        lambda f, policy=None: calls.append(f) or real(f, policy))
    samples = (0, 1, -1, 3)
    assert pole_constancy_check(FERMAT_PENCIL, samples)
    assert len(calls) == len(samples)
    for q in range(3):
        grp_nabla_matrix(FERMAT_PENCIL, 0, q, samples=samples)
    assert len(calls) == 4 * len(samples)
    with pytest.raises(InvariantError):
        grp_nabla_matrix(FERMAT_PENCIL, 0, 1, samples=(0, 1, -3))
    assert len(calls) == 4 * len(samples) + 3

    def no_elimination(*_):
        raise AssertionError("fiber rank recomputed")

    monkeypatch.setattr(brieskorn, "echelon_rows", no_elimination)
    monkeypatch.setattr(brieskorn._BrieskornContext, "relation_rows", no_elimination)
    assert pole_constancy_check(FERMAT_PENCIL, samples)


def test_each_fiber_is_checked_for_reducedness_once(monkeypatch):
    """The fiber's context holds the verdict: specializing a fiber again, or
    asking for its Brieskorn state, does not rerun the squarefree test."""
    calls = []
    real = gradedpoly.is_squarefree

    def counted(f):
        calls.append(f)
        return real(f)

    for name, module in list(sys.modules.items()):
        if name == "brieskornlab" or name.startswith("brieskornlab."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)
    samples = (Fraction(5, 7), Fraction(-7, 5), Fraction(9, 4))  # used nowhere else
    assert pole_constancy_check(FERMAT_PENCIL, samples)
    tjurina_scan(FERMAT_PENCIL, samples)
    for q in range(3):
        grp_nabla_matrix(FERMAT_PENCIL, samples[0], q, samples=samples)
    fibers = {specialize(FERMAT_PENCIL, s) for s in samples}
    assert len(fibers) == len(samples)
    assert 0 < len(calls) <= len(fibers)
    assert len(set(calls)) == len(calls)


def test_tjurina_scan_jump_family():
    """mu-constant family x^4 z + y^5 + s x^2 y^3: tau jumps from 11 to 12
    exactly at s = 0."""
    scan = tjurina_scan(JUMP_FAMILY, samples=(0, 1))
    by_s = {r.sample: r for r in scan.rows}
    assert by_s[Fraction(0)].tjurina == 12
    assert by_s[Fraction(1)].tjurina == 11
    assert scan.jumps == (Fraction(0),)
    assert all(len(set(r.tail)) == 1 for r in scan.rows)  # tail already stable


def test_tjurina_scan_propagates_non_isolated():
    fam = PencilFamily.constant(parse_poly("x^2*t + y^2*z", XYZT))
    with pytest.raises(NonIsolatedError):
        tjurina_scan(fam, samples=(0,))

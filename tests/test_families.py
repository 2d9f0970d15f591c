"""Pencils of hypersurfaces: specialization, pole constancy, graded connection."""

import sys
import weakref
from fractions import Fraction

import pytest

from brieskornlab import brieskorn, families, gradedpoly, jacobian
from brieskornlab.exactlinalg import InvariantError
from brieskornlab.families import (DEFAULT_SAMPLES, PencilFamily,
                                   grp_nabla_matrix, pole_constancy_check,
                                   specialize, tjurina_scan)
from brieskornlab.gradedpoly import InputError, Poly, parse_poly
from brieskornlab.jacobian import NonIsolatedError

XYZ = ("x", "y", "z")
XYZT = ("x", "y", "z", "t")

FERMAT_CUBIC = parse_poly("x^3 + y^3 + z^3", XYZ)
XYZ_CUBE = parse_poly("x*y*z", XYZ)
FERMAT_PENCIL = PencilFamily(FERMAT_CUBIC, XYZ_CUBE)
JUMP_FAMILY = PencilFamily(parse_poly("x^4*z + y^5", XYZ),
                           parse_poly("x^2*y^3", XYZ))

PRESENTATION_POWERS = families._presentation_powers


def lift_powers(monkeypatch, extra: int) -> None:
    """Present both quotients of every later grp_nabla_matrix call extra
    powers of f above the ones it chooses."""
    monkeypatch.setattr(families, "_presentation_powers",
                        lambda *args: tuple(p + extra for p in PRESENTATION_POWERS(*args)))


def test_family_validation():
    with pytest.raises(InputError):
        PencilFamily(Poly.zero(3), Poly.zero(3))
    with pytest.raises(InputError):
        PencilFamily(FERMAT_CUBIC, Poly.zero(4))  # ring clash
    with pytest.raises(InputError):
        PencilFamily(FERMAT_CUBIC, parse_poly("x^2", XYZ))  # degree clash
    with pytest.raises(InputError):
        PencilFamily(FERMAT_CUBIC, parse_poly("x^2 + x^3", XYZ))
    PencilFamily(Poly.zero(3), XYZ_CUBE)  # one zero form is allowed
    PencilFamily(FERMAT_CUBIC, Poly.zero(3))


def test_specialize_exact():
    f1 = specialize(FERMAT_PENCIL, Fraction(1, 2))
    assert f1 == FERMAT_CUBIC + XYZ_CUBE.scale(Fraction(1, 2))
    assert specialize(FERMAT_PENCIL, 0) == FERMAT_CUBIC


def test_kept_fibers_stay_out_of_compare_hash_and_repr():
    fam = PencilFamily(FERMAT_CUBIC, XYZ_CUBE.scale(3))
    fresh = PencilFamily(FERMAT_CUBIC, XYZ_CUBE.scale(3))
    assert specialize(fam, 2) is specialize(fam, Fraction(2))
    assert fam == fresh and hash(fam) == hash(fresh) and repr(fam) == repr(fresh)
    assert "fibers" not in repr(fam)


def test_specialize_rejects_degenerate_fibers():
    cancel = PencilFamily(FERMAT_CUBIC, FERMAT_CUBIC.scale(-1))
    with pytest.raises(InputError):
        specialize(cancel, 1)  # identically zero fiber
    tube = PencilFamily(parse_poly("x^2*z + y^3", XYZ),
                        parse_poly("x^2*z", XYZ))
    with pytest.raises(InputError):
        specialize(tube, -1)  # fiber y^3 is not reduced
    assert specialize(tube, 1) is not None


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


def test_grp_nabla_fermat_pencil(monkeypatch):
    m = grp_nabla_matrix(FERMAT_PENCIL, 0, 1)
    assert (m.nrows, m.ncols) == (1, 1)
    assert m.entry(0, 0) == -1
    # independent stabilization powers give the same matrix
    for extra in (1, 2):
        lift_powers(monkeypatch, extra)
        assert grp_nabla_matrix(FERMAT_PENCIL, 0, 1).rows == m.rows


def test_grp_nabla_linear_in_direction():
    doubled = PencilFamily(FERMAT_CUBIC, XYZ_CUBE.scale(2))
    m1 = grp_nabla_matrix(FERMAT_PENCIL, 0, 1)
    m2 = grp_nabla_matrix(doubled, 0, 1)
    assert all(m2.entry(r, c) == 2 * m1.entry(r, c)
               for r in range(m1.nrows) for c in range(m1.ncols))


def test_grp_nabla_trivial_cases():
    m0 = grp_nabla_matrix(FERMAT_PENCIL, 0, 0)
    assert m0.ncols == 0  # no classes below the first pole order
    const = grp_nabla_matrix(PencilFamily(FERMAT_CUBIC, Poly.zero(3)), 0, 1)
    assert all(not row for row in const.rows)
    with pytest.raises(InputError):
        grp_nabla_matrix(FERMAT_PENCIL, 0, -1)


def test_grp_nabla_quartic_pencil_stable(monkeypatch):
    fam = PencilFamily(parse_poly("x^4 + y^4 + z^4", XYZ),
                       parse_poly("x*y*z^2", XYZ))
    m1 = grp_nabla_matrix(fam, 0, 1)
    lift_powers(monkeypatch, 1)
    m2 = grp_nabla_matrix(fam, 0, 1)
    assert (m1.nrows, m1.ncols) == (3, 3)
    assert m1.rows == m2.rows
    assert any(m1.rows)  # genuinely nonzero action


def _quotient_powers(monkeypatch) -> list:
    """Record (degree, power) of every graded quotient grp_nabla_matrix builds."""
    built = []
    real = families._graded_quotient

    def recorded(ctx, k, power):
        built.append((k, power))
        return real(ctx, k, power)

    monkeypatch.setattr(families, "_graded_quotient", recorded)
    return built


def test_grp_nabla_smooth_fiber_presents_at_power_zero(monkeypatch):
    """A smooth fiber's quotients take no power of f: no relation subspace
    is built above the target degree (q+1)d (nor above n+1+d, where the
    Sebastiani spot check reads dim H_f), and extra powers only lift the
    presentation, never the matrix."""
    fam = PencilFamily(parse_poly("x^4 + 2*y^4 + 3*z^4 - x*y^3", XYZ),
                       parse_poly("x*y*z^2 + y^2*z^2", XYZ))
    built = _quotient_powers(monkeypatch)
    f = specialize(fam, 0)
    assert jacobian.smoothness_test(f)
    for q in range(3):
        m = grp_nabla_matrix(fam, 0, q)
        assert max(brieskorn._ctx(f)._rel) <= max((q + 1) * 4, 3 + 4), q
    assert {p for _, p in built} == {0}
    for extra in (1, 2):
        built.clear()
        lift_powers(monkeypatch, extra)
        assert grp_nabla_matrix(fam, 0, 2) == m
        assert {p for _, p in built} == {extra}


def test_grp_nabla_builds_no_presentation_of_a_zero_target(monkeypatch):
    """On a smooth quartic curve the q = 2 target R_{3d-n-1} = R_9 lies past
    the socle degree 6 (Griffiths), so the map is 0 x dim R_5 = 0 x 3 and no
    relation subspace of degree 3d = 12 is built for it."""
    monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
    fam = PencilFamily(parse_poly("x^4 + 2*y^4 + 3*z^4 - x*y^3", XYZ),
                       parse_poly("x*y*z^2 + y^2*z^2", XYZ))
    degrees = []
    real = jacobian._JacContext.relations
    monkeypatch.setattr(jacobian._JacContext, "relations",
                        lambda ctx, k: degrees.append(k) or real(ctx, k))
    m = grp_nabla_matrix(fam, 0, 2)
    assert (m.nrows, m.ncols) == (0, 3)
    assert 12 not in degrees
    assert 12 not in brieskorn._ctx(specialize(fam, 0))._rel


def test_grp_nabla_singular_fiber_keeps_the_certified_power(monkeypatch):
    """The fiber at s = 0 of the Tjurina jump family is singular: its
    quotients are still built at the certified power, and the relation
    subspace of the certified landing degree exists."""
    built = _quotient_powers(monkeypatch)
    f = specialize(JUMP_FAMILY, 0)
    assert not jacobian.smoothness_test(f)
    grp_nabla_matrix(JUMP_FAMILY, 0, 1, samples=(0,))
    cert = brieskorn.hbar_certificate(f, 10)
    assert cert.power > 0
    assert (10, cert.power) in built
    assert cert.landing_degree in brieskorn._ctx(f)._rel


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

    monkeypatch.setattr(jacobian, "echelon_rows", no_elimination)
    monkeypatch.setattr(jacobian._JacContext, "relation_rows", no_elimination)
    assert pole_constancy_check(FERMAT_PENCIL, samples)


def test_each_fiber_is_checked_for_reducedness_once(monkeypatch):
    """The fiber's context holds the verdict: specializing a fiber again, or
    asking for its Brieskorn state, does not rerun the squarefree test.  A
    fiber the smoothness probe proves smooth (the Fermat pencil's at these
    samples) is reduced without it; a singular one (the jump family's) runs
    it once."""
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
    for fam, q_max in ((FERMAT_PENCIL, 2), (JUMP_FAMILY, 0)):
        calls.clear()
        assert pole_constancy_check(fam, samples)
        tjurina_scan(fam, samples)
        for q in range(q_max + 1):
            grp_nabla_matrix(fam, samples[0], q, samples=samples)
        fibers = {specialize(fam, s) for s in samples}
        assert len(fibers) == len(samples)
        singular = {jacobian._ctx(f).f for f in fibers if not jacobian._ctx(f).smooth}
        assert len(set(calls)) == len(calls) and set(calls) == singular
        assert len(singular) == (0 if fam is FERMAT_PENCIL else len(fibers))


def test_tjurina_scan_jump_family():
    """mu-constant family x^4 z + y^5 + s x^2 y^3: tau jumps from 11 to 12
    exactly at s = 0."""
    scan = tjurina_scan(JUMP_FAMILY, samples=(0, 1))
    by_s = {r.sample: r for r in scan.rows}
    assert by_s[Fraction(0)].tjurina == 12
    assert by_s[Fraction(1)].tjurina == 11
    assert scan.jumps == (Fraction(0),)
    assert all(len(set(r.tail)) == 1 for r in scan.rows)  # tail already stable


def test_tjurina_scan_eliminates_only_the_degrees_it_scans(monkeypatch):
    """The tail, degrees 10..13 from the probe on, is read off the scan:
    each fiber of the jump family eliminates its probe degree and the next,
    where the hyperplane certificate holds, and no degree below the probe or
    past the certificate."""
    monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
    built = []
    real = jacobian._JacContext.image_rows
    monkeypatch.setattr(jacobian._JacContext, "image_rows",
                        lambda ctx, k: built.append(k) or real(ctx, k))
    fam = PencilFamily(JUMP_FAMILY.base, JUMP_FAMILY.direction)
    scan = tjurina_scan(fam, samples=(0, 1))
    assert [r.tail for r in scan.rows] == [(12,) * 4, (11,) * 4]
    assert built == [10, 11, 10, 11]


def test_tjurina_scan_propagates_non_isolated():
    fam = PencilFamily(parse_poly("x^2*t + y^2*z", XYZT), Poly.zero(4))
    with pytest.raises(NonIsolatedError):
        tjurina_scan(fam, samples=(0,))

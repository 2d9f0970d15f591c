"""`analyze` on line arrangements against `oracles.arrangement_invariants`,
which reads tau, b_2(U), chi(U) and the Milnor dims it predicts off the
intersection points, with no elimination."""

import json
import weakref

import pytest

from brieskornlab import jacobian
from brieskornlab.brieskorn import milnor_eigenspace_dim
from brieskornlab.cli import main
from brieskornlab.gradedpoly import parse_poly
from oracles import arrangement_invariants

XYZ = ("x", "y", "z")

# (lines, whether every coordinate line meets the singular locus)
ARRANGEMENTS = {
    "triple_point": (("x", "y", "z", "x+y+z", "x-y"), False),
    "six_lines": (("x", "y", "z", "x+y", "y+z", "x+2*y+3*z"), False),
    # a quadruple point at (0:0:1), so the Tjurina scan has no coordinate
    # section to certify it and jumps to degree tau = 13
    "quadruple_point": (("x", "y", "x+y", "x+2*y", "z"), True),
}


@pytest.mark.parametrize("name", ARRANGEMENTS)
def test_analyze_matches_the_arrangement_oracle(name, tmp_path, capsys, monkeypatch):
    lines, jumps = ARRANGEMENTS[name]
    monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
    sections = []
    real = jacobian._coordinate_section_vanishes

    def spy(ctx, k):
        sections.append(real(ctx, k))
        return sections[-1]

    monkeypatch.setattr(jacobian, "_coordinate_section_vanishes", spy)
    want = arrangement_invariants([parse_poly(line, XYZ) for line in lines])
    p = tmp_path / "p.txt"
    p.write_text("variables = x y z\npolynomial = " + "*".join(f"({l})" for l in lines) + "\n")
    assert main(["analyze", "--input", str(p), "--json", "--no-timing"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["jacobian"]["tjurina"] == want["tau"]
    assert report["pole"]["dims"] == [want["b2"]] * 3
    milnor = {row["i"]: row["dim"] for row in report["milnor"]["eigenspaces"]}
    assert {i: milnor[i] for i in want["milnor"]} == want["milnor"]
    if jumps:
        assert sections and not any(sections)


def test_a3_arrangement_has_nontrivial_monodromy():
    """The A3 arrangement x*y*z*(x-y)*(y-z)*(x-z) has four triple points, so
    the oracle's rule covers only i = 0, 1, 3, 5 (chi(U) = 2).  At i = 2, 4,
    the eigenvalues of order 3, H^1(F)_lambda has dim 1 (Dimca, *Hyperplane
    Arrangements* (2017)), and for a curve with isolated singularities
    dim H^2(F)_lambda - dim H^1(F)_lambda = chi(U), so the dim is chi(U) + 1."""
    lines = ("x", "y", "z", "x-y", "y-z", "x-z")
    want = arrangement_invariants([parse_poly(line, XYZ) for line in lines])
    assert (want["chi"], sorted(want["milnor"])) == (2, [0, 1, 3, 5])
    f = parse_poly("*".join(f"({l})" for l in lines), XYZ)
    dims = {i: milnor_eigenspace_dim(f, i) for i in range(6)}
    assert dims == {**want["milnor"], 2: want["chi"] + 1, 4: want["chi"] + 1}


def test_zariski_sextic_has_alexander_polynomial_t2_minus_t_plus_1():
    """Zariski's sextic (x^2+y^2+z^2)^3 + (x^3+y^3+z^3)^2 has six cusps
    (Zariski, Amer. J. Math. 51 (1929)), so its Milnor numbers sum to 12,
    chi(C) = 3d - d^2 + 12 = -6 and chi(U) = 3 - chi(C) = 9.  Its Alexander
    polynomial is t^2 - t + 1 (Zariski; Libgober, Duke Math. J. 49 (1982)),
    so dim H^1(F)_lambda = 1 exactly at the primitive sixth roots of unity,
    i = 1, 5, and 0 at the other lambda != 1.  For a curve with isolated
    singularities dim H^2(F)_lambda = chi(U) + dim H^1(F)_lambda, which is
    10 at i = 1 and 9 at i = 2."""
    f = parse_poly("(x^2+y^2+z^2)^3 + (x^3+y^3+z^3)^2", XYZ)
    assert [milnor_eigenspace_dim(f, i) for i in (1, 2)] == [10, 9]

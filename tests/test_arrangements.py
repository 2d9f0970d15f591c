"""`analyze` on line arrangements against `oracles.arrangement_invariants`,
which reads tau, b_2(U), chi(U) and the Milnor dims it predicts off the
intersection points, with no elimination."""

import json
import weakref

import pytest

from brieskornlab import jacobian
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

"""Acceptance suite: one test per criterion, each printing a PASS line with
its tolerance when it completes (run with -s or -rA to see the lines)."""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from deriv_audit.cli import main
from deriv_audit.derivative import differentiate
from deriv_audit.expr import (
    Interval, UndefinedReason, evaluate, format_expr, lower, parse,
)
from deriv_audit.probe import (
    Corner, Cusp, Differentiable, VerticalTangent, classify, probe,
)
from deriv_audit.report import analyze, emit_plot_data, to_json_dict
from deriv_audit.tangents import Provenance
from helpers import central_diff, eval_defined, fd_regular_point, random_expr

IV = Interval(-1, 1)
F_TEXT = "cbrt(x)*sin(x^2)"
G_TEXT = "cbrt(x)*cos(x^2)"


def _cbrt(v):
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def test_criterion_1_worked_example(capsys):
    start = time.perf_counter()
    rep = analyze(F_TEXT, IV)
    elapsed = time.perf_counter() - start

    assert rep.naive_tangents == (), "naive tangent set must be empty"
    assert len(rep.tangents) == 1
    assert abs(rep.tangents[0].x) <= 1e-9
    assert rep.tangents[0].provenance is Provenance.REPAIRED_BY_DEFINITION
    assert len(rep.candidates) == 1
    _, verdict = rep.candidates[0]
    assert isinstance(verdict, Differentiable)
    assert abs(verdict.value) <= 1e-6
    assert elapsed < 1.0, f"analyze took {elapsed:.3f}s"

    # same result through the CLI entry point
    assert main(["analyze", F_TEXT, "--interval", "-1", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["naive_tangents"] == []
    assert [t["x"] for t in data["tangents"]] == [0.0]

    with capsys.disabled():
        print(f"\nACCEPTANCE 1: PASS - worked example: naive set empty, corrected set {{0}}, "
              f"f'(0) = {verdict.value:.3e} (|.| <= 1e-6), runtime {elapsed:.3f}s < 1s")


def test_criterion_2_derivative_expression_fidelity(capsys):
    d = differentiate(parse(F_TEXT)).simplified
    hand = parse("(6*x^2*cos(x^2)+sin(x^2))/(3*cbrt(x^2))")
    points = [s * t / 10.0 for t in range(1, 11) for s in (1.0, -1.0)] + [0.05]
    assert len(points) == 21
    worst = 0.0
    for x in points:
        a = evaluate(d, x)
        b = evaluate(hand, x)
        assert a.is_defined and b.is_defined
        rel = abs(a.value - b.value) / abs(b.value)
        worst = max(worst, rel)
        assert rel <= 1e-12, (x, rel)
    for e in (d, hand):
        out = evaluate(e, 0.0)
        assert not out.is_defined
        assert out.reason is UndefinedReason.DIV_BY_ZERO

    with capsys.disabled():
        print(f"ACCEPTANCE 2: PASS - symbolic derivative matches the hand form at 21 points "
              f"(worst rel {worst:.2e} <= 1e-12); both undefined (div by zero) at 0")


def test_criterion_3_numerator_positive(capsys):
    numerator = parse("6*x^2*cos(x^2)+sin(x^2)")
    rng = random.Random(31415)
    kept = 0
    while kept < 10_000:
        x = rng.uniform(-1.0, 1.0)
        if abs(x) < 1e-6:
            continue
        out = evaluate(numerator, x)
        direct = 6.0 * x * x * math.cos(x * x) + math.sin(x * x)
        assert out.is_defined and out.value > 0.0, x
        assert direct > 0.0, x
        kept += 1

    with capsys.disabled():
        print("ACCEPTANCE 3: PASS - numerator positive at 10^4 uniform samples on [-1,1] "
              "minus (-1e-6, 1e-6)")


def test_criterion_4_counterexample_vertical_tangent(capsys):
    # pre-build style oracle: brute-force quotient table, independent of the
    # expression machinery
    g = lambda x: _cbrt(x) * math.cos(x * x)
    qs = [(g(0.1 * 2.0 ** -k) - g(0.0)) / (0.1 * 2.0 ** -k) for k in range(31)]
    assert all(q > 0 for q in qs), "oracle table must be all positive"
    assert all(b > a for a, b in zip(qs, qs[1:])), "oracle table must be increasing"

    p = probe(parse(G_TEXT), 0.0)
    for k in range(31):
        assert p.right[k] == pytest.approx(qs[k], rel=1e-12)

    assert main(["classify", G_TEXT, "--at", "0", "--json"]) == 0
    # capsys captured inside main's print
    import json as _json
    data = _json.loads(_capsys_out(capsys))
    assert data["step3"] == {"kind": "vertical_tangent", "sign": 1}

    verdict = classify(p)
    assert verdict == VerticalTangent(sign=1)

    with capsys.disabled():
        print("ACCEPTANCE 4: PASS - counterexample classifies as a positive vertical tangent; "
              "quotient table matches the brute-force oracle (k = 0..30, all positive, increasing)")


def _capsys_out(capsys):
    return capsys.readouterr().out


def test_criterion_5_corrected_piecewise_derivative(capsys):
    rep = analyze(F_TEXT, IV)
    pieces = rep.corrected_derivative
    assert len(pieces) == 2, "exactly two pieces"
    default, point = pieces
    assert default.expression == rep.derivative_text
    assert default.value is None
    assert point.expression is None
    assert abs(point.at) <= 1e-9
    assert abs(point.value) <= 1e-6

    with capsys.disabled():
        print("ACCEPTANCE 5: PASS - corrected derivative has exactly the default expression "
              "piece and (x = 0 -> 0)")


def test_criterion_6_differentiation_oracle(capsys):
    rng = random.Random(20240841)
    checked = 0
    attempted = 0
    failures = []
    while checked < 1000:
        e = random_expr(rng, depth=6)
        attempted += 1
        d = differentiate(e).simplified
        x = fd_regular_point(e, d, rng)
        if x is None:
            continue
        sym = eval_defined(d, x)
        fd = central_diff(e, x, 1e-6)
        checked += 1
        if abs(sym - fd) > max(1e-5, 1e-5 * abs(sym)):
            failures.append((format_expr(e), x, sym, fd))
    assert not failures, failures[:5]

    with capsys.disabled():
        print(f"ACCEPTANCE 6: PASS - 1000 random expressions (from {attempted} drawn, depth <= 6), "
              f"symbolic vs central difference within max(1e-5 abs, 1e-5 rel), 0 failures")


def test_criterion_7_classification_taxonomy(capsys):
    # every expectation re-derived from a brute-force quotient table
    def oracle_table(func):
        hs = [0.1 * 2.0 ** -k for k in range(31)]
        return ([(func(h) - func(0.0)) / h for h in hs],
                [(func(-h) - func(0.0)) / -h for h in hs])

    r, l = oracle_table(abs)
    assert all(q == 1.0 for q in r) and all(q == -1.0 for q in l)
    v = classify(probe(parse("abs(x)"), 0.0))
    assert isinstance(v, Corner)
    assert v.left_slope == pytest.approx(-1.0, abs=1e-9)
    assert v.right_slope == pytest.approx(1.0, abs=1e-9)

    r, l = oracle_table(lambda x: _cbrt(x * x))
    assert all(q > 0 for q in r) and all(q < 0 for q in l)
    assert r[-1] > r[0] * 10  # diverging
    assert classify(probe(parse("cbrt(x^2)"), 0.0)) == Cusp()

    r, l = oracle_table(_cbrt)
    assert all(q > 0 for q in r) and all(q > 0 for q in l)
    assert classify(probe(parse("cbrt(x)"), 0.0)) == VerticalTangent(sign=1)

    r, l = oracle_table(lambda x: x * x)
    assert all(0.0 < q <= 0.11 for q in r) and r == sorted(r, reverse=True)
    assert all(-0.11 <= q < 0.0 for q in l) and l == sorted(l)
    v = classify(probe(parse("x^2"), 0.0))
    assert isinstance(v, Differentiable)
    assert abs(v.value) <= 1e-6

    with capsys.disabled():
        print("ACCEPTANCE 7: PASS - taxonomy: abs -> Corner(-1,+1), cbrt(x^2) -> Cusp, "
              "cbrt(x) -> VerticalTangent(+), x^2 -> Differentiable(0), all against "
              "brute-force quotient oracles")


def test_criterion_8_round_trip(capsys):
    rng = random.Random(271828)
    for _ in range(1000):
        e = random_expr(rng, depth=8)
        assert parse(format_expr(e)) == e

    with capsys.disabled():
        print("ACCEPTANCE 8: PASS - 1000 random ASTs, parse(format(e)) == e")


def test_criterion_9_determinism(capsys, tmp_path):
    # machine-readable outputs of the criteria above, computed twice
    for text in (F_TEXT, G_TEXT, "x^3"):
        first = json.dumps(to_json_dict(analyze(text, IV)), indent=2)
        second = json.dumps(to_json_dict(analyze(text, IV)), indent=2)
        assert first == second, text

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        f = parse(F_TEXT)
        emit_plot_data(lower(f), lower(differentiate(f).simplified), IV, 1000, path)
    assert a.read_bytes() == b.read_bytes()

    cmd = [sys.executable, "-m", "deriv_audit.cli",
           "analyze", F_TEXT, "--interval", "-1", "1", "--json"]
    run1 = subprocess.run(cmd, capture_output=True, check=True)
    run2 = subprocess.run(cmd, capture_output=True, check=True)
    assert run1.stdout == run2.stdout
    assert run1.stdout  # non-empty

    cls = [sys.executable, "-m", "deriv_audit.cli", "classify", G_TEXT, "--at", "0", "--json"]
    c1 = subprocess.run(cls, capture_output=True, check=True)
    c2 = subprocess.run(cls, capture_output=True, check=True)
    assert c1.stdout == c2.stdout

    with capsys.disabled():
        print("ACCEPTANCE 9: PASS - byte-identical JSON and CSV across repeated runs "
              "(in-process and through the CLI)")

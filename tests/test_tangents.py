import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from deriv_audit.derivative import differentiate
from deriv_audit.expr import HUGE, Interval, evaluate, parse
from deriv_audit.probe import classify, probe
from deriv_audit.report import analyze
from deriv_audit.tangents import (
    UNCONFIRMED_BAND, Grid, Provenance, column_events, scan_roots,
)
from helpers import random_expr, reference_events

IV = Interval(-1, 1)

# Root of cos(t) - 6 t sin(t) on (0, 1), located by a million-point sign scan
# plus bisection; the tangent locations of the counterexample are +-sqrt(t).
T_STAR = 0.39724806421917946
X_STAR = 0.6302761809073697


def test_frozen_root_against_oracle():
    num = lambda t: math.cos(t) - 6.0 * t * math.sin(t)
    a, b = 0.397248, 0.397249  # bracket from the pre-build sign scan
    assert num(a) > 0 > num(b)
    for _ in range(100):
        m = 0.5 * (a + b)
        if num(a) * num(m) <= 0:
            b = m
        else:
            a = m
    assert 0.5 * (a + b) == pytest.approx(T_STAR, abs=1e-12)
    assert math.sqrt(T_STAR) == pytest.approx(X_STAR, abs=1e-15)


class TestExpressionRoots:
    def test_worked_example_has_no_expression_roots(self):
        fp = differentiate(parse("cbrt(x)*sin(x^2)")).simplified
        assert scan_roots(Grid(fp, IV, 4096)).roots == ()

    def test_linear(self):
        assert scan_roots(Grid(parse("2*x"), IV, 4096)).roots == (0.0,)

    def test_counterexample_roots(self):
        fp = parse("(cos(x^2)-6*x^2*sin(x^2))/(3*cbrt(x^2))")
        roots = scan_roots(Grid(fp, IV, 4096)).roots
        assert len(roots) == 2
        assert roots[0] == pytest.approx(-X_STAR, abs=1e-9)
        assert roots[1] == pytest.approx(X_STAR, abs=1e-9)

    def test_exact_grid_zero_without_sign_change(self):
        # 3x^2 touches zero at a grid node; the sign scan alone cannot see it
        assert scan_roots(Grid(parse("3*x^2"), IV, 4096)).roots == (0.0,)

    def test_pole_crossing_rejected(self):
        # 1/x changes sign across 0 but has no root there
        assert scan_roots(Grid(parse("1/x"), Interval(-1, 1.0001), 4096)).roots == ()
        assert scan_roots(Grid(parse("1/x"), IV, 4096)).roots == ()

    def test_unconfirmed_touching_zero_flagged(self):
        rs = scan_roots(Grid(parse("(x-0.25)^2+1e-11"), IV, 4096))
        assert rs.roots == ()
        assert len(rs.unconfirmed) == 1
        assert rs.unconfirmed[0] == pytest.approx(0.25, abs=1e-9)

    def test_roots_sorted_dedup(self):
        roots = scan_roots(Grid(parse("sin(4*x)"), IV, 4096)).roots
        assert list(roots) == sorted(roots)
        expected = [-math.pi / 4, 0.0, math.pi / 4]
        assert roots == pytest.approx(expected, abs=1e-9)


class TestHorizontalTangents:
    def test_worked_example_repaired_point(self):
        pts = analyze("cbrt(x)*sin(x^2)", IV).tangents
        assert len(pts) == 1
        assert pts[0].x == pytest.approx(0.0, abs=1e-9)
        assert pts[0].provenance is Provenance.REPAIRED_BY_DEFINITION
        assert pts[0].residual <= 1e-6

    def test_parabola(self):
        pts = analyze("x^2", IV).tangents
        assert [(p.x, p.provenance) for p in pts] == [(0.0, Provenance.SYMBOLIC_EXPRESSION_ROOT)]

    def test_counterexample_excludes_vertical_tangent(self):
        pts = analyze("cbrt(x)*cos(x^2)", IV).tangents
        assert len(pts) == 2
        assert [p.x for p in pts] == pytest.approx([-X_STAR, X_STAR], abs=1e-9)
        assert all(p.provenance is Provenance.SYMBOLIC_EXPRESSION_ROOT for p in pts)

    def test_reverification_invariant(self):
        corpus = ["cbrt(x)*sin(x^2)", "cbrt(x)*cos(x^2)", "x^2", "x^3",
                  "sin(x)", "x*abs(x)", "cbrt(x^2)", "x^3-x"]
        for text in corpus:
            f = parse(text)
            fp = differentiate(f).simplified
            for p in analyze(text, IV).tangents:
                assert p.residual <= 1e-6
                out = evaluate(fp, p.x)
                if p.provenance is Provenance.SYMBOLIC_EXPRESSION_ROOT:
                    assert out.is_defined and abs(out.value) <= 1e-6
                else:
                    assert not out.is_defined
                    verdict = classify(probe(f, p.x))
                    assert abs(verdict.value) <= 1e-6

    def test_no_point_carries_both_provenances(self):
        for text in ["cbrt(x)*sin(x^2)", "x^2", "x*abs(x)"]:
            pts = analyze(text, IV).tangents
            xs = [p.x for p in pts]
            assert len(xs) == len(set(xs))

    def test_symmetry_for_odd_functions(self):
        for text in ["cbrt(x)*sin(x^2)", "cbrt(x)*cos(x^2)", "x^3-x", "sin(x)"]:
            xs = [p.x for p in analyze(text, IV).tangents]
            mirrored = sorted(-x for x in xs)
            assert xs == pytest.approx(mirrored, abs=1e-9)


BAND = UNCONFIRMED_BAND
INSIDE = math.nextafter(BAND, 0.0)  # the largest magnitude that is small
NAN = math.nan
MIN_NORMAL = 2.2250738585072014e-308
SPECIAL = [NAN, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, MIN_NORMAL, -MIN_NORMAL,
           BAND, -BAND, INSIDE, -INSIDE, HUGE, -HUGE, 1.0, -1.0]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-2 * BAND, 2 * BAND))
# Runs of repeated values, so NaN runs and single-signed stretches of any
# length sit anywhere, the ends included.
COLUMNS = st.lists(st.tuples(VALUES, st.integers(1, 5)), max_size=30).map(
    lambda runs: [v for v, k in runs for _ in range(k)])


class TestColumnEvents:
    @settings(max_examples=600, deadline=None)
    @given(col=COLUMNS)
    @example(col=[])
    @example(col=[NAN])
    @example(col=[NAN, NAN, NAN])
    @example(col=[0.0])
    @example(col=[-0.0, NAN])
    @example(col=[NAN, INSIDE])
    @example(col=[BAND, -BAND])
    @example(col=[INSIDE, -INSIDE])
    @example(col=[1.0, -1.0, NAN, 0.0, 2.0])
    @example(col=[NAN, 1.0, 0.0, NAN, -5e-324, 5e-324, NAN])
    @example(col=[HUGE, HUGE, 3e-11, -1.0])  # the sum overflows to inf
    @example(col=[-HUGE, -HUGE, 0.0, 2.0, -1e-310])  # ... and to -inf
    @example(col=[HUGE, HUGE, -HUGE, -HUGE, NAN, INSIDE])
    def test_matches_the_per_element_rules(self, col):
        assert tuple(column_events(col)) == reference_events(col)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 6))
    def test_matches_the_per_element_rules_on_grid_columns(self, seed, depth):
        fp = differentiate(random_expr(random.Random(seed), depth)).simplified
        grid = Grid(fp, Interval(-2, 2), 64)
        assert tuple(grid.events) == reference_events(grid.columns[grid.tape.root])
        for slot in grid.tape.domain_slots():
            assert tuple(column_events(grid.columns[slot])) == reference_events(grid.columns[slot])

import math
import random
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from deriv_audit.derivative import differentiate
from deriv_audit.expr import (
    Constant, Func, Interval, Pow, Tape, UndefinedReason, X, evaluate, format_expr, lower, parse,
)
from deriv_audit.probe import Inconclusive
from deriv_audit.report import analyze, audit_point
from deriv_audit.scan import IntervalNote, _bisect_boundary, scan_detailed
from deriv_audit.tangents import BRACKET_TOL, DEFAULT_GRID_N, Grid, grid_points
from helpers import chain, random_expr, reference_bisect_boundary, reference_events

IV = Interval(-1, 1)


def _fp(text):
    return differentiate(parse(text)).simplified


def scan(f, fp, iv, grid_n):
    return list(scan_detailed(lower(f), Grid(fp, iv, grid_n)).candidates)


class TestScan:
    def test_worked_example(self):
        f = parse("cbrt(x)*sin(x^2)")
        fp = _fp("cbrt(x)*sin(x^2)")
        assert scan(f, fp, IV, 1000) == [0.0]
        a = audit_point("cbrt(x)*sin(x^2)", 0.0)
        assert a.derivative_outcome.reason is UndefinedReason.DIV_BY_ZERO
        assert a.function_outcome.value == 0.0
        assert "cbrt(x^2)" in a.culprit
        assert not evaluate(parse(a.culprit), 0.0).is_defined

    def test_everywhere_defined_derivative(self):
        assert scan(parse("x^2"), parse("2*x"), IV, 1000) == []

    def test_counterexample(self):
        f = parse("cbrt(x)*cos(x^2)")
        fp = _fp("cbrt(x)*cos(x^2)")
        assert scan(f, fp, IV, 1000) == [0.0]
        a = audit_point("cbrt(x)*cos(x^2)", 0.0)
        assert a.derivative_outcome.reason is UndefinedReason.DIV_BY_ZERO

    def test_hole_off_grid_found_by_denominator_roots(self):
        # 0.3 is not a node of a 1000-step grid over [-1, 1]
        f = parse("x")
        fp = parse("1/(x-0.3)")
        points = scan(f, fp, IV, 1000)
        assert len(points) == 1
        assert points[0] == pytest.approx(0.3, abs=1e-9)
        assert not evaluate(fp, points[0]).is_defined

    def test_dismissed_when_function_also_undefined(self):
        f = parse("1/x")
        fp = _fp("1/x")
        result = scan_detailed(lower(f), Grid(fp, IV, 1000))
        assert result.candidates == ()
        assert result.dismissed == (0.0,)
        assert evaluate(f, 0.0).reason is UndefinedReason.DIV_BY_ZERO

    def test_interval_undefinedness_is_a_note_not_a_candidate(self):
        f = parse("sqrt(x)")
        fp = _fp("sqrt(x)")  # 1/(2*sqrt(x)): undefined for x <= 0
        result = scan_detailed(lower(f), Grid(fp, IV, 1000))
        assert result.candidates == ()
        assert len(result.interval_notes) == 1
        note = result.interval_notes[0]
        assert note.x == pytest.approx(0.0, abs=1e-9)
        assert note.undefined_side == "left"

    def test_single_point_interval(self):
        f = parse("abs(x)")
        fp = _fp("abs(x)")
        assert scan(f, fp, Interval(0, 0), 1000) == [0.0]
        assert scan(f, fp, Interval(0.5, 0.5), 1000) == []

    def test_grid_n_validation(self):
        with pytest.raises(ValueError):
            scan(parse("x"), parse("1"), IV, 1)

    @pytest.mark.parametrize("text,boundary", [("sqrt(x-0.3)", 0.3), ("x^1.5", -1e-12),
                                               ("sqrt(x-0.1234564)", 0.1234564)])
    def test_undefined_region_is_noted_at_its_boundary_only(self, text, boundary):
        # the grid node next to the flip lies inside the undefined region
        # (0.2998046875 and -0.00048828125 on the default grid): no note;
        # nor does a snap of the boundary that falls inside it, such as
        # 0.123456, 4e-7 from its seed
        notes = analyze(text, IV).interval_notes
        assert [(n.x, n.undefined_side) for n in notes] == [(boundary, "left")]

    def test_hole_beyond_two_to_the_24_is_a_point(self):
        # there ulp(1e9) = 1.2e-7 > DEDUP_TOL, so 1e9 +- DEDUP_TOL is 1e9
        rep = analyze("cbrt(x-1e9)", Interval(999999999, 1000000001))
        assert rep.interval_notes == ()
        (a, verdict), = rep.candidates
        assert a.x0 == 1e9 and a.function_outcome.value == 0.0
        assert a.culprit == "1/(3*cbrt((x-1000000000)^2))"
        assert isinstance(verdict, Inconclusive)  # the probe's steps stop at ulp(x0)
        notes = analyze("sqrt(x-1e9)", Interval(999999999, 1000000001)).interval_notes
        assert [(n.x, n.undefined_side) for n in notes] == [(1e9, "left")]

    def test_sorted_and_deduplicated(self):
        f = parse("x")
        fp = parse("1/((x-0.25)*(x+0.5))")
        xs = scan(f, fp, IV, 1000)
        assert xs == sorted(xs)
        assert xs == pytest.approx([-0.5, 0.25], abs=1e-9)


class TestWork:
    """What scan_detailed evaluates and lowers, counted."""

    @staticmethod
    def _count_calls(monkeypatch):
        """Record lower's argument wherever the package refers to it, and
        count Tape.run calls."""
        lowered, runs = [], [0]
        original_run = Tape.run

        def counted_lower(e):
            lowered.append(e)
            return lower(e)

        def counted_run(self, x):
            runs[0] += 1
            return original_run(self, x)

        for key, module in list(sys.modules.items()):
            if key.startswith("deriv_audit") and getattr(module, "lower", None) is lower:
                monkeypatch.setattr(module, "lower", counted_lower)
        monkeypatch.setattr(Tape, "run", counted_run)
        return lowered, runs

    def test_linear_in_nesting_depth(self, monkeypatch):
        # every sqrt argument and denominator of f' is zero at the grid node
        # 0 and nowhere changes sign: one seed, no bisection, no sub-tape
        scans = []
        for depth in (50, 100, 200):
            f = chain(depth, lambda e: Func("sqrt", e), Pow(X, Constant(2)))
            f_tape, grid = lower(f), Grid(differentiate(f).simplified, IV, 40)
            assert len(grid.tape.domain_slots()) == 2 * depth
            with monkeypatch.context() as patch:
                lowered, runs = self._count_calls(patch)
                result = scan_detailed(f_tape, grid)
            assert result.candidates == (0.0,)
            scans.append((len(lowered), runs[0]))
        assert scans[0][0] == 0 and scans[0] == scans[1] == scans[2]

    def test_a_point_audit_runs_f_and_f_prime_once(self, monkeypatch):
        # f for step 1, f' for step 2 and its culprit; the probe reads f(x0)
        # from its column
        _, runs = self._count_calls(monkeypatch)
        columns, calls = Tape.columns, [0]

        def counted_columns(self, xs, keep=()):
            calls[0] += 1
            return columns(self, xs, keep)

        monkeypatch.setattr(Tape, "columns", counted_columns)
        audit = audit_point("cbrt(x)*sin(x^2)", 0.0)
        assert audit.culprit == "1/(3*cbrt(x^2))" and audit.verdict is not None
        assert (runs[0], calls[0]) == (2, 1)

    def test_a_note_takes_its_reason_from_its_neighbours_run(self, monkeypatch):
        # the boundary 0.0, a grid node, is a hole as it stands: only its
        # two neighbours run, the left one undefined
        grid = Grid(_fp("sqrt(x)"), IV, DEFAULT_GRID_N)
        _, runs = self._count_calls(monkeypatch)
        note, = scan_detailed(lower(parse("sqrt(x)")), grid).interval_notes
        assert note == IntervalNote(0.0, "left", UndefinedReason.EVEN_ROOT_OF_NEGATIVE)
        assert runs[0] == 2

    def test_a_snap_two_seeds_share_is_run_once(self, monkeypatch):
        # the bisected boundary of sqrt(x-0.3)'s undefined region and the
        # bisected root of its argument x-0.3 both snap to 0.3
        grid = Grid(_fp("sqrt(x-0.3)"), IV, DEFAULT_GRID_N)
        xs, run = [], Tape.run

        def recorded(self, x):
            if self is grid.tape:
                xs.append(x)
            return run(self, x)

        monkeypatch.setattr(Tape, "run", recorded)
        note, = scan_detailed(lower(parse("sqrt(x-0.3)")), grid).interval_notes
        assert note.x == 0.3 and xs.count(0.3) == 1
        # the boundary itself, found undefined by bisection, is not run again
        assert xs.count(0.2999999999992724) == 1

    def test_analyze_of_the_worked_example_makes_five_runs(self, monkeypatch):
        _, runs = self._count_calls(monkeypatch)
        assert len(analyze("cbrt(x)*sin(x^2)", IV).candidates) == 1
        assert runs[0] == 5

    def test_wide_sum_lowers_only_sign_changing_slots(self, monkeypatch):
        # on a 40-step grid over [-1, 1], -0.7, -0.2 and 0.5 are nodes, where
        # x-c has an exact zero and no sign change; the rest are not
        cs = [-0.7, -0.413, -0.2, 0.013, 0.25, 0.333, 0.5, 0.687, 0.9]
        f = parse("+".join(f"sqrt(x-{c})" if c > 0 else f"sqrt(x+{-c})" for c in cs))
        f_tape, grid = lower(f), Grid(differentiate(f).simplified, IV, 40)
        lowered, _ = self._count_calls(monkeypatch)
        result = scan_detailed(f_tape, grid)
        assert [note.x for note in result.interval_notes] == cs
        # which slots change sign, from the dense oracle over every grid node
        tape = grid.tape
        dense = tape.columns(grid_points(IV, 40), tape.domain_slots())
        events = {slot: reference_events(dense[slot]) for slot in tape.domain_slots()}
        changing = [tape.nodes[slot] for slot, (_, zeros, changes, _) in events.items() if changes]
        assert len(changing) == 6
        assert any(zeros and not changes for _, zeros, changes, _ in events.values())
        assert lowered == changing

    @pytest.mark.parametrize("lo", [-1.0, -0.0])
    def test_negative_zero_keeps_its_hole(self, lo):
        (cand, _), = analyze("cbrt(x)", Interval(lo, -0.0)).candidates
        assert cand.x0 == 0.0 and math.copysign(1.0, cand.x0) == -1.0


class TestBisectBoundary:
    """_bisect_boundary evaluates the midpoints it takes while each is
    defined as one column, and ends where the point-by-point loop ends."""

    def test_toward_an_undefined_grid_node_makes_no_run(self, monkeypatch):
        # f' of cbrt(x) is undefined at the grid node 0 alone
        tape = lower(_fp("cbrt(x)"))
        xs = grid_points(IV, DEFAULT_GRID_N)
        mid = DEFAULT_GRID_N // 2
        assert xs[mid] == 0.0 and math.isnan(tape.value(0.0))
        runs = [0]
        run = Tape.run

        def counted(self, x):
            runs[0] += 1
            return run(self, x)

        monkeypatch.setattr(Tape, "run", counted)
        assert _bisect_boundary(tape, xs[mid - 1], 0.0) == 0.0
        assert _bisect_boundary(tape, xs[mid + 1], 0.0) == 0.0
        assert runs[0] == 0

    # 150 examples in tier-1, and the profile's count under --hypothesis-profile=ci
    @settings(max_examples=max(150, settings.default.max_examples), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 6),
           i=st.integers(0, 64), j=st.integers(0, 64))
    def test_matches_the_scalar_loop(self, seed, depth, i, j):
        # a defined and an undefined grid node, adjacent or far apart; every
        # other tree is f of a family with an undefined region or a hole
        rng = random.Random(seed)
        f = random_expr(rng, depth) if seed % 2 else parse(rng.choice(
            ["sqrt(x-{a})", "x*ln({a}-x)", "cbrt(x-{a})", "abs(x-{a})*sqrt(x^2-{a})"]
        ).format(a=rng.uniform(-2, 2)))
        tape = lower(differentiate(f).simplified)
        xs = grid_points(Interval(-2, 2), 64)
        col = tape.columns(xs)[tape.root]
        defined = [x for x, v in zip(xs, col) if v == v]
        undefined = [x for x, v in zip(xs, col) if v != v]
        if defined and undefined:
            a, b = defined[i % len(defined)], undefined[j % len(undefined)]
            ref = reference_bisect_boundary(tape, a, b, BRACKET_TOL)
            assert struct.pack("<d", _bisect_boundary(tape, a, b)) == struct.pack("<d", ref)


class TestSoundness:
    CORPUS = [
        "cbrt(x)*sin(x^2)", "cbrt(x)*cos(x^2)", "abs(x)", "x^2", "x^3",
        "cbrt(x^2)", "sqrt(x^2+1)", "x*abs(x)", "cbrt(x)+x^2", "tan(x)/2",
    ]

    def test_candidates_reverify(self):
        for text in self.CORPUS:
            f = parse(text)
            fp = differentiate(f).simplified
            for x0 in scan(f, fp, IV, 1000):
                assert evaluate(f, x0).is_defined
                assert not evaluate(fp, x0).is_defined
                a = audit_point(text, x0)
                culprit = evaluate(parse(a.culprit), x0)
                assert not culprit.is_defined
                # step 2's reason is the culprit's own
                assert a.derivative_outcome.reason is culprit.reason is not None

    def test_grid_density_monotonicity(self):
        for text in self.CORPUS:
            f = parse(text)
            fp = differentiate(f).simplified
            coarse = scan(f, fp, IV, 1000)
            fine = scan(f, fp, IV, 10000)
            for x in coarse:
                assert any(abs(x - y) <= 1e-9 for y in fine), (text, x, fine)


class TestStepOne:
    def test_defined_function(self):
        out = evaluate(parse("cbrt(x)*sin(x^2)"), 0.0)
        assert out.is_defined and out.value == 0.0

    def test_log_undefined(self):
        out = evaluate(parse("ln(x)"), 0.0)
        assert out.reason is UndefinedReason.LOG_NON_POSITIVE

    def test_reciprocal_undefined(self):
        out = evaluate(parse("1/x"), 0.0)
        assert out.reason is UndefinedReason.DIV_BY_ZERO


class TestCulprit:
    def test_culprit_is_minimal(self):
        fp = _fp("cbrt(x)*sin(x^2)")
        tape = lower(fp)
        culprit, reason = tape.culprit(tape.run(0.0))
        assert reason is UndefinedReason.DIV_BY_ZERO
        assert format_expr(culprit) == "1/(3*cbrt(x^2))"

    def test_culprit_leftmost(self):
        fp = parse("1/x + ln(x)")
        tape = lower(fp)
        culprit, reason = tape.culprit(tape.run(0.0))
        assert reason is UndefinedReason.DIV_BY_ZERO
        assert format_expr(culprit) == "1/x"

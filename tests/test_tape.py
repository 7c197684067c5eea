"""The lowered evaluator against the recursive reference evaluator it
replaced (helpers.reference_evaluate): the same value bits and the same
undefined reason at every point, for the scalar path and for every column
the grid pass fills; and Tape.enclose against the columns it must bound."""

import math
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from deriv_audit.derivative import differentiate
from deriv_audit.expr import (
    HUGE, Add, Constant, Div, Func, Interval, Mul, Neg, Pow, Sub, UndefinedReason, X,
    evaluate, lower, parse,
)
from deriv_audit.report import analyze
from deriv_audit.scan import scan_detailed
from deriv_audit.tangents import Grid, grid_points
from helpers import random_expr, reference_evaluate

IV = Interval(-2, 2)


def _bits(v):
    return None if v is None else struct.pack("<d", v)


def _undefined_as_none(v):
    """A column value read as the scalar path gives it: NaN marks undefined."""
    return None if v != v else v


def _same(out, ref):
    return out.reason is ref.reason and _bits(out.value) == _bits(ref.value)


def _points(e):
    """Grid nodes, dyadics, and the holes of e itself."""
    xs = grid_points(IV, 16) + [k / 64.0 for k in range(-130, 131, 7)]
    scanned = scan_detailed(lower(e), Grid(e, IV, 64))
    xs += [*scanned.candidates, *scanned.dismissed]
    xs += [n.x for n in scanned.interval_notes]
    return xs


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 7))
def test_scalar_path_matches_reference(seed, depth):
    e = random_expr(random.Random(seed), depth)
    tape = lower(e)
    for x in _points(e):
        ref = reference_evaluate(e, x)
        assert _same(evaluate(e, x), ref), (x, ref)
        assert _same(tape.outcome(x), ref), (x, ref)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 7))
def test_every_column_matches_reference(seed, depth):
    e = random_expr(random.Random(seed), depth)
    tape = lower(e)
    xs = _points(e)
    columns = tape.columns(xs, keep=range(len(tape.code)))
    for node, column in zip(tape.nodes, columns):
        for x, v in zip(xs, column):
            assert _bits(_undefined_as_none(v)) == _bits(reference_evaluate(node, x).value), (x, node)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 6))
def test_grid_pass_columns_of_the_derivative(seed, depth):
    # exactly the columns the grid pass keeps: f' and its domain-sensitive
    # nodes, at every grid node of the dense oracle
    fp = differentiate(random_expr(random.Random(seed), depth)).simplified
    tape = lower(fp)
    xs = grid_points(IV, 64)
    columns = tape.columns(xs, tape.domain_slots())
    kept = [i for i, col in enumerate(columns) if col is not None]
    assert kept == sorted({tape.root, *tape.domain_slots()})
    for i in kept:
        for x, v in zip(xs, columns[i]):
            assert _bits(_undefined_as_none(v)) == _bits(
                reference_evaluate(tape.nodes[i], x).value)


# Named cases: each operation with its own domain rule, the saturation rule,
# and the shallowest-leftmost reason rule over shared subtrees.
LN0 = Func("ln", X)
NAMED = [
    ("tan near poles", parse("tan(x)"), [math.pi / 2, -math.pi / 2, 3 * math.pi / 2]),
    ("tan pole as a denominator", parse("1/tan(x)+tan(2*x)"), [math.pi / 4, math.pi / 2]),
    ("0^0", Pow(Constant(0), Constant(0)), [0.0, 1.0]),
    ("x^0 and x^x at 0", Add(Pow(X, Constant(0)), Pow(X, X)), [0.0, -0.0, 1.0]),
    ("0 to a negative power", Pow(X, Neg(Constant(1))), [0.0]),
    ("negative base, non-integer power", Pow(X, Constant(0.5)), [-1.0, -0.25, 4.0]),
    ("negative base, integer power", Pow(X, Constant(3)), [-2.0, -1e200]),
    ("negative base, non-integer power inside", parse("(x-1)^x*ln(x)"), [0.5, -0.5, 0.0]),
    ("saturation: 1/exp(x^32) at 2", parse("1/exp(x^32)"), [2.0, 1.0]),
    ("saturation: products and sums", parse("x*x+x*x-x^x"), [1e200, -1e200, 1e4]),
    ("saturation: negative base overflow", Pow(X, Constant(301)), [-1e10, 1e10]),
    ("shallowest violation wins", parse("ln(ln(x))+1/x"), [0.0]),
    ("leftmost on a tie", parse("ln(x)+1/x"), [0.0, -1.0]),
    ("shared subtree at two depths",
     Add(Neg(Neg(Div(Constant(1), X))), Add(LN0, Div(Constant(1), X))), [0.0]),
    ("same object at two depths",
     Add(Neg(Neg(LN0)), Func("sqrt", Sub(X, LN0))), [0.0, -1.0]),
    ("signed zero constants stay apart",
     Mul(Mul(X, Constant(0.0)), Mul(X, Constant(-0.0))), [1.0, -1.0]),
    # the column kernel's hazards: math.pow(-0.0, odd) is -0.0; math.pow(nan, 0),
    # math.pow(1, nan) and math.pow(0, 0) are 1.0; truediv(nan, 0.0) raises;
    # overflow to inf saturates; exp overflows
    ("kernel: x^3 and x^5 at signed zeros", parse("x^3/x+x^5"), [-0.0, 0.0, 1.0]),
    ("kernel: (1/x)^0", Pow(Div(Constant(1), X), Constant(0)), [0.0, 1.0]),
    ("kernel: 1^(1/x)", Pow(Constant(1), Div(Constant(1), X)), [1.0, 0.0]),
    ("kernel: (1/x)/x", parse("(1/x)/x"), [0.0, 2.0]),
    ("kernel: cbrt(x) at -0.0", parse("cbrt(x)/x"), [-0.0, 1.0]),
    ("kernel: exp(1000*x)", parse("exp(1000*x)*sqrt(x)"), [-1.0, 0.5, 1.0]),
    ("kernel: 1e300*x*x+1/x", parse("1e300*x*x+1/x"), [0.0, 1.0, 1e10]),
    ("kernel: no points", parse("x^3/x+sqrt(x)"), []),
]


@pytest.mark.parametrize("name,e,xs", NAMED, ids=[n for n, _, _ in NAMED])
def test_named_case_matches_reference(name, e, xs):
    for x in xs:
        ref = reference_evaluate(e, x)
        assert _same(evaluate(e, x), ref), (x, ref)
    tape = lower(e)
    columns = tape.columns(xs, keep=range(len(tape.code)))
    for node, column in zip(tape.nodes, columns):
        assert [_bits(_undefined_as_none(v)) for v in column] == [
            _bits(reference_evaluate(node, x).value) for x in xs], node


def test_saturated_case_value():
    out = evaluate(parse("1/exp(x^32)"), 2.0)
    assert out.is_defined and out.value == 1.0 / 1.7976931348623157e308


def _neg_chain(n):
    e = X
    for _ in range(n):
        e = Neg(e)
    return e


def _add_chain(n, last):
    e = X
    for _ in range(n - 2):
        e = Add(e, X)
    return Add(e, last)


def test_deep_chains_evaluate_without_recursion():
    neg = _neg_chain(5000)
    add = _add_chain(5000, X)
    with pytest.raises(RecursionError):
        reference_evaluate(neg, 0.5)
    with pytest.raises(RecursionError):
        reference_evaluate(add, 0.5)
    assert evaluate(neg, 0.5).value == 0.5
    assert evaluate(_neg_chain(4999), 0.5).value == -0.5
    assert evaluate(add, 0.5).value == 2500.0
    assert lower(add).columns([0.5, -1.0])[-1] == [2500.0, -5000.0]


def test_deep_chain_reason_and_culprit():
    add = _add_chain(5000, Div(Constant(1), X))
    assert evaluate(add, 0.0).reason is UndefinedReason.DIV_BY_ZERO
    tape = lower(add)
    culprit, reason = tape.culprit(tape.run(0.0))
    assert culprit == Div(Constant(1), X)
    assert reason is UndefinedReason.DIV_BY_ZERO


def test_repeated_subtrees_share_one_slot():
    tape = lower(parse("sin(x^2)+cos(x^2)*x^2"))
    assert sum(1 for op, *_ in tape.code if op == "^") == 1
    assert len(tape.code) == len(set(tape.code))


class TestGridPoints:
    def test_finite_span_nodes_unchanged(self):
        for lo, hi, n in [(-1.0, 1.0, 4096), (0.1, 0.7, 1000), (-3.5, 2.25, 256),
                          (-1e300, 1e300, 64)]:
            span = hi - lo
            old = [lo + (i * span) / n for i in range(n + 1)]
            old[-1] = hi
            assert [_bits(x) for x in grid_points(Interval(lo, hi), n)] == [_bits(x) for x in old]

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (-1.7976931348623157e308,
                                                         1.7976931348623157e308), (-3e307, 1e308)])
    def test_overflowing_span_gives_finite_increasing_nodes(self, lo, hi):
        xs = grid_points(Interval(lo, hi), 4096)
        assert all(math.isfinite(x) for x in xs)
        assert xs[0] == lo and xs[-1] == hi
        assert all(a < b for a, b in zip(xs, xs[1:]))

    @pytest.mark.parametrize("text,lo,hi,n", [
        ("sin(x)", -1e308, 0.0, 3),  # a sign change of f' bisected there
        ("sqrt(x+1.5e308)+sin(x)", -1.7e308, -1e308, 8),  # and a definedness flip
    ])
    def test_bisection_next_to_the_largest_float(self, text, lo, hi, n):
        # lo + hi overflows to -inf there, where sin and cos raise
        rep = analyze(text, Interval(lo, hi), grid_n=n)
        notes = [note.x for note in rep.interval_notes]
        assert all(math.isfinite(x) for x in [*rep.naive_tangents, *notes])
        if text.startswith("sqrt"):
            assert -1.5e308 in notes

    def test_wide_interval_finds_the_tangent_at_zero(self):
        rep = analyze("x^2", Interval(-1e308, 1e308))
        assert [t.x for t in rep.tangents] == [0.0]
        assert rep.naive_tangents == (0.0,)


# --------------------------------------------------------------------------
# enclosures


def _range_points(lo, hi):
    """The ends of [lo, hi], their neighbours inside it, and 17 even steps."""
    xs = [lo, hi, math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)]
    xs += [lo + (hi - lo) * k / 16 for k in range(17)]
    return [min(max(x, lo), hi) for x in xs]


def _check_enclosures(e, lo, hi, xs=()):
    """Tape.enclose(lo, hi) of e against its columns at the range's points
    and at xs inside it: each value lies in its slot's enclosure, and a
    certified slot is defined (NaN fails both comparisons)."""
    tape = lower(e)
    encs = tape.enclose(lo, hi)
    assert len(encs) == len(tape.code)
    xs = _range_points(lo, hi) + [x for x in xs if lo <= x <= hi]
    for node, enc, column in zip(tape.nodes, encs, tape.columns(xs, keep=range(len(tape.code)))):
        if enc is not None:
            assert enc[0] <= enc[1] and math.isfinite(enc[0]) and math.isfinite(enc[1])
            for x, v in zip(xs, column):
                assert enc[0] <= v <= enc[1], (node, x, v, enc)
    return encs


SPECIAL_X = [0.0, -0.0, 1.0, -1.0, 0.5, math.pi / 2, -math.pi / 2, math.pi, 3 * math.pi / 2]
WIDTHS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-12, 1e-6, 1e-3, 0.1, 1.0, 4.0]),
                   st.floats(0.0, 8.0))

HAZARDS = [
    ("sin maximum inside", parse("sin(x)"), 1.5, 1.7),
    ("sin minimum inside", parse("sin(x)"), -1.7, -1.5),
    ("cos maximum inside", parse("cos(x)"), -0.1, 0.1),
    ("cos minimum inside", parse("cos(x)"), 3.1, 3.2),
    ("sin over more than a period", parse("sin(3*x)+cos(x)"), -4.0, 4.0),
    ("sin at large x", parse("sin(x)*cos(x)"), 1e7, 1e7 + 1.0),
    ("tan beside pi/2", parse("tan(x)"), 1.5, math.pi / 2),
    ("tan just below pi/2", parse("tan(x)"), 1.5, 1.5707963),
    ("tan beside -pi/2", parse("tan(x)"), -math.pi / 2, -1.5),
    ("tan between poles", parse("tan(x)"), -1.5, 1.5),
    ("odd power across 0", parse("x^3+x^5"), -1.0, 2.0),
    ("even power across 0", parse("x^2+x^4"), -1.0, 0.5),
    ("negative even power", Pow(X, Neg(Constant(2))), -2.0, -0.5),
    ("negative odd power across 0", Pow(X, Neg(Constant(3))), -1.0, 1.0),
    ("0^p", Add(Pow(Constant(0), Constant(2)), Pow(X, Constant(0.5))), -0.0, 1.0),
    ("0^0", Pow(X, Constant(0)), 0.0, 1.0),
    ("negative base, non-integer power", Pow(X, Constant(1.5)), -1.0, 1.0),
    ("non-constant exponent", Pow(X, X), 0.5, 1.0),
    ("cbrt of negatives", parse("cbrt(x)+cbrt(x-8)"), -8.0, -1.0),
    ("cbrt across 0", parse("cbrt(x)"), -1.0, 1.0),
    ("-0.0 ends: 1/x", parse("1/x"), -0.0, 1.0),
    ("-0.0 ends: sqrt, cbrt, abs", parse("sqrt(x)+cbrt(x)+abs(x)"), -0.0, 1.0),
    ("-0.0 ends: ln", parse("ln(x)"), -0.0, 1.0),
    ("-0.0 ends: to the left", parse("sqrt(-x)+cbrt(x)"), -1.0, -0.0),
    ("near HUGE: a product", parse("x*1e308"), 1.0, 2.0),
    ("near HUGE: exp", parse("exp(x)"), 700.0, 710.0),
    ("near HUGE: 1e300*x*x", parse("1e300*x*x"), 1e3, 1e4),
    ("near HUGE: x^301", Pow(X, Constant(301)), -1e10, 1e10),
    ("near HUGE: a quotient", parse("1/(x-1)"), 1.0 + 2 ** -52, 2.0),
    ("near HUGE: just below", Mul(X, Constant(HUGE / 4)), 1.0, 3.9),
]
LIBM = ["sin(x)", "cos(x)", "tan(x)", "exp(x)", "ln(x)", "cbrt(x)", "x^0.5", "x^1.5"]


class TestEnclose:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 6),
           derivative=st.booleans(),
           lo=st.one_of(st.floats(-4.0, 4.0), st.sampled_from(SPECIAL_X)), width=WIDTHS)
    @example(seed=0, depth=1, derivative=False, lo=-0.0, width=0.0)
    def test_enclosures_hold_every_column_value(self, seed, depth, derivative, lo, width):
        e = random_expr(random.Random(seed), depth)
        if derivative:
            e = differentiate(e).simplified
        _check_enclosures(e, lo, lo + width)

    @pytest.mark.parametrize("name,e,xs", [n for n in NAMED if n[2]],
                             ids=[n for n, _, xs in NAMED if xs])
    def test_named_case(self, name, e, xs):
        _check_enclosures(e, min(xs), max(xs), xs)
        for x in xs:
            _check_enclosures(e, x, x)

    @pytest.mark.parametrize("name,e,lo,hi", HAZARDS, ids=[h[0] for h in HAZARDS])
    def test_hazard(self, name, e, lo, hi):
        poles_and_peaks = [k * math.pi / 2 for k in range(-4, 5)]
        _check_enclosures(e, lo, hi, poles_and_peaks)

    def test_extrema_inside_reach_one(self):
        assert _check_enclosures(parse("sin(x)"), 1.5, 1.7)[-1][1] >= 1.0
        assert _check_enclosures(parse("sin(x)"), -1.7, -1.5)[-1][0] <= -1.0
        assert _check_enclosures(parse("cos(x)"), 3.1, 3.2)[-1][0] <= -1.0
        assert _check_enclosures(parse("x^2"), -1.0, 0.5)[-1][0] <= 0.0

    @pytest.mark.parametrize("text,lo,hi", [
        ("tan(x)", 1.5, math.pi / 2), ("tan(x)", -math.pi / 2, -1.5),
        ("1/x", -0.0, 1.0), ("ln(x)", -0.0, 1.0), ("sqrt(x)", -1e-300, 1.0),
        ("x^0.5", -1e-300, 1.0), ("x^(-2)", -1.0, 1.0), ("x^0", -0.0, 1.0), ("x^x", 0.0, 1.0),
        ("x^x", -0.5, 0.5), ("x*1e308", 1.0, 2.0), ("exp(x)", 700.0, 710.0),
        ("x^301", -1e10, 1e10),
    ])
    def test_uncertified(self, text, lo, hi):
        assert _check_enclosures(parse(text), lo, hi)[-1] is None

    def test_an_exponent_in_x_over_a_base_above_0(self):
        # the corner powers 0.5^0.5, 0.5^1, 1^0.5 and 1^1, widened
        assert _check_enclosures(parse("x^x"), 0.5, 1.0)[-1] == (
            math.nextafter(math.nextafter(0.5, 0.0), 0.0),
            math.nextafter(math.nextafter(1.0, 2.0), 2.0))

    @pytest.mark.parametrize("text", LIBM)
    def test_libm_results_widened_two_ulps(self, text):
        x = 0.7
        lo, hi = lower(parse(text)).enclose(x, x)[-1]
        v = evaluate(parse(text), x).value
        assert lo <= math.nextafter(math.nextafter(v, -math.inf), -math.inf)
        assert hi >= math.nextafter(math.nextafter(v, math.inf), math.inf)

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from deriv_audit.derivative import differentiate
from deriv_audit.expr import (
    Constant, EvalOutcome, Interval, Mul, Sub, Variable, X, _sat, lower, parse,
)
from deriv_audit.probe import (
    CONVERGENCE_TOL, DIVERGENCE_MAGNITUDE_MIN, H0, P_MIN, RATIO, STEPS, Corner, Cusp,
    Differentiable, Inconclusive, QuotientProbe, VerticalTangent, classify, probe,
)
from deriv_audit.report import analyze
from deriv_audit.tangents import Provenance
from helpers import eval_defined, probe_regular_point, random_expr, substitute_var


def _oracle_quotients(func, x0, ks):
    """Brute-force difference quotients straight from math.*, independent of
    the expression machinery."""
    table = {}
    for k in ks:
        h = 0.1 * 2.0 ** -k
        table[k] = ((func(x0 + h) - func(x0)) / h, (func(x0 - h) - func(x0)) / -h)
    return table


def _cbrt(v):
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _scalar_probe(f, x0):
    """The probe one step at a time on the tape's scalar path, each
    undefined step with its reason."""
    tape = lower(f)
    f0 = tape.outcome(x0).value
    schedule = tuple(H0 * RATIO**k for k in range(STEPS))

    def quotient(h):
        fh = tape.outcome(x0 + h)
        return fh if not fh.is_defined else EvalOutcome(_sat((fh.value - f0) / h))

    return QuotientProbe(x0=x0, schedule=schedule, right=tuple(quotient(h) for h in schedule),
                         left=tuple(quotient(-h) for h in schedule))


class TestProbe:
    def test_schedule_shape(self):
        p = probe(parse("x"), 0.0)
        assert len(p.schedule) == 40
        assert p.schedule[0] == 0.1
        assert all(b == a * 0.5 for a, b in zip(p.schedule, p.schedule[1:]))

    def test_linear_quotients_exact(self):
        p = probe(parse("x"), 0.0)
        assert all(o.is_defined and o.value == 1.0 for o in p.right)
        assert all(o.is_defined and o.value == 1.0 for o in p.left)

    def test_worked_example_quotients_trend_to_zero(self):
        p = probe(parse("cbrt(x)*sin(x^2)"), 0.0)
        rights = [o.value for o in p.right]
        assert all(rights[i + 1] < rights[i] for i in range(20))
        assert rights[23] < 1e-10
        lefts = [o.value for o in p.left]
        assert all(v > 0 for v in lefts[:24])

    def test_counterexample_quotients_match_oracle(self):
        # frozen from the brute-force table of cbrt(h)cos(h^2)/h
        frozen = {
            0: 4.641356756105087,
            10: 471.5560318259695,
            20: 47907.106622879604,
            30: 4867058.652794355,
        }
        g = lambda x: _cbrt(x) * math.cos(x * x)
        oracle = _oracle_quotients(g, 0.0, list(frozen))
        p = probe(parse("cbrt(x)*cos(x^2)"), 0.0)
        for k, expected in frozen.items():
            assert oracle[k][0] == pytest.approx(expected, rel=1e-12)
            assert p.right[k].value == pytest.approx(expected, rel=1e-12)
            assert p.left[k].value == pytest.approx(expected, rel=1e-12)

    def test_undefined_steps_recorded(self):
        p = probe(parse("sqrt(x)"), 0.0)
        assert all(not o.is_defined for o in p.left)
        assert all(o.is_defined for o in p.right)

    def test_record_validation(self):
        ok, out = (0.1, 0.05), (EvalOutcome(1.0), EvalOutcome(1.0))
        QuotientProbe(0.0, ok, out, out)
        with pytest.raises(ValueError, match="^side lists must match the schedule length$"):
            QuotientProbe(0.0, ok, out[:1], out)
        with pytest.raises(ValueError, match="^side lists must match the schedule length$"):
            QuotientProbe(x0=0.0, schedule=ok, right=out, left=out * 2)
        for schedule in [(0.05, 0.1), (0.1, 0.1), (0.1, 0.0), (-0.1, -0.2)]:
            with pytest.raises(ValueError, match="^schedule must be strictly decreasing and positive$"):
                QuotientProbe(0.0, schedule, out, out)

    def test_precondition(self):
        with pytest.raises(ValueError):
            probe(parse("1/x"), 0.0)
        with pytest.raises(ValueError):
            probe(parse("ln(x)"), 0.0)
        for x0 in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                probe(parse("x"), x0)

    @pytest.mark.parametrize("text,x0", [
        ("sqrt(x)", 0.0), ("sqrt(x)", 1e-9), ("ln(x)", 1e-9),
        ("sqrt(x)+ln(1-x)/(x-0.05)", 1e-9), ("(x-1e-9)^0.5*tan(x)", 1e-9),
    ])
    def test_steps_match_the_scalar_path(self, text, x0):
        f = parse(text)
        p = probe(f, x0)
        assert p == _scalar_probe(f, x0)
        assert repr(p) == repr(_scalar_probe(f, x0))  # signed zeros too
        steps = p.right + p.left
        assert any(o.is_defined for o in steps) and any(not o.is_defined for o in steps)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 6),
       x0=st.sampled_from([0.0, 1e-9, -1e-9, 0.5, -1.0, 0.05, 1.0]))
def test_probe_matches_the_scalar_path_on_random_trees(seed, depth, x0):
    f = random_expr(random.Random(seed), depth)
    tape = lower(f)
    if tape.outcome(x0).is_defined:
        p = probe(f, x0)
        assert repr(p) == repr(_scalar_probe(f, x0))
        assert repr(probe(tape, x0)) == repr(p)  # f's tape gives the same probe


class TestClassify:
    def test_verdicts_are_equal_by_type_then_fields(self):
        assert Differentiable(1.0) != VerticalTangent(1) and not Differentiable(1.0) == VerticalTangent(1)
        assert Cusp() != Variable() and Variable() != Cusp()
        assert not Cusp() == Variable() and not Variable() == Cusp()
        assert Cusp() == Cusp() and hash(Cusp()) == hash(Cusp())
        assert Corner(-1, 1) == Corner(left_slope=-1, right_slope=1) != (-1, 1)
        assert Inconclusive("why") != ("why",) and ("why",) != Inconclusive("why")
        assert bool(Cusp()) and repr(Cusp()) == "Cusp()"
        assert repr(Corner(-1.0, 1.0)) == "Corner(left_slope=-1.0, right_slope=1.0)"

    def test_worked_example_differentiable_zero(self):
        v = classify(probe(parse("cbrt(x)*sin(x^2)"), 0.0))
        assert isinstance(v, Differentiable)
        assert abs(v.value) <= 1e-6

    def test_counterexample_vertical_tangent(self):
        # oracle: quotients are positive and strictly increasing on both sides
        g = lambda x: _cbrt(x) * math.cos(x * x)
        table = _oracle_quotients(g, 0.0, range(31))
        rs = [table[k][0] for k in range(31)]
        ls = [table[k][1] for k in range(31)]
        assert all(q > 0 for q in rs + ls)
        assert all(b > a for a, b in zip(rs, rs[1:]))
        v = classify(probe(parse("cbrt(x)*cos(x^2)"), 0.0))
        assert v == VerticalTangent(sign=1)

    def test_corner(self):
        v = classify(probe(parse("abs(x)"), 0.0))
        assert isinstance(v, Corner)
        assert v.left_slope == pytest.approx(-1.0, abs=1e-9)
        assert v.right_slope == pytest.approx(1.0, abs=1e-9)

    def test_cusp(self):
        # oracle: h^(-1/3) on the right, -h^(-1/3) on the left
        table = _oracle_quotients(lambda x: _cbrt(x * x), 0.0, range(31))
        assert all(table[k][0] > 0 and table[k][1] < 0 for k in range(31))
        assert classify(probe(parse("cbrt(x^2)"), 0.0)) == Cusp()

    def test_vertical_tangent_bare_cbrt(self):
        v = classify(probe(parse("cbrt(x)"), 0.0))
        assert v == VerticalTangent(sign=1)

    def test_parabola_flat_point(self):
        v = classify(probe(parse("x^2"), 0.0))
        assert isinstance(v, Differentiable)
        assert abs(v.value) <= 1e-6

    def test_negative_vertical_tangent(self):
        v = classify(probe(parse("0-cbrt(x)"), 0.0))
        assert v == VerticalTangent(sign=-1)

    def test_insufficient_samples(self):
        v = classify(probe(parse("sqrt(x)"), 0.0))
        assert isinstance(v, Inconclusive)
        assert "insufficient samples" in v.diagnostic
        assert "left" in v.diagnostic

    def test_determinism(self):
        for text in ["cbrt(x)*sin(x^2)", "cbrt(x)*cos(x^2)", "abs(x)", "x^2"]:
            a = classify(probe(parse(text), 0.0))
            b = classify(probe(parse(text), 0.0))
            assert a == b

    def test_oscillation_is_never_a_definite_verdict(self):
        schedule = tuple(0.1 * 0.5**k for k in range(40))
        bounded = tuple(EvalOutcome(math.sin(3.0 / h)) for h in schedule)
        p = QuotientProbe(x0=0.0, schedule=schedule, right=bounded, left=bounded)
        assert isinstance(classify(p), Inconclusive)
        unbounded = tuple(EvalOutcome(math.sin(3.0 / h) / h) for h in schedule)
        p = QuotientProbe(x0=0.0, schedule=schedule, right=unbounded, left=unbounded)
        assert isinstance(classify(p), Inconclusive)

    def test_mixed_sides_are_inconclusive(self):
        schedule = tuple(0.1 * 0.5**k for k in range(40))
        diverging = tuple(EvalOutcome(1.0 / h) for h in schedule)
        converging = tuple(EvalOutcome(2.0 + h) for h in schedule)
        p = QuotientProbe(x0=0.0, schedule=schedule, right=diverging, left=converging)
        v = classify(p)
        assert isinstance(v, Inconclusive)
        assert "right" in v.diagnostic or "disagree" in v.diagnostic


# f'(0) = 0, approached at an order p < 1 or just above it: q(h) = O(h^p).
SLOW_ORDERS = [
    ("cbrt(x^4)", lambda x: _cbrt(x**4)),
    ("x*cbrt(x)", lambda x: x * _cbrt(x)),
    ("abs(x)^1.5", lambda x: abs(x) ** 1.5),
    ("cbrt(x^5)", lambda x: _cbrt(x**5)),
    ("sqrt(abs(x))*x", lambda x: math.sqrt(abs(x)) * x),
    ("cbrt(x^4)*cos(x)", lambda x: _cbrt(x**4) * math.cos(x)),
    ("exp(x)*cbrt(x^4)", lambda x: math.exp(x) * _cbrt(x**4)),
]


def _geometric_probe(q):
    """Both sides sampled from q(k), the quotient at step k."""
    schedule = tuple(H0 * RATIO**k for k in range(STEPS))
    side = tuple(EvalOutcome(q(k)) for k in range(STEPS))
    return QuotientProbe(x0=0.0, schedule=schedule, right=side, left=side)


class TestSlowConvergence:
    @pytest.mark.parametrize("text,g", SLOW_ORDERS, ids=[t for t, _ in SLOW_ORDERS])
    def test_slow_order_is_differentiable_zero(self, text, g):
        # oracle: |q| shrinks at every step on both sides, toward 0
        table = _oracle_quotients(g, 0.0, range(STEPS))
        for side in (0, 1):
            qs = [abs(table[k][side]) for k in range(STEPS)]
            assert all(b < a for a, b in zip(qs, qs[1:]))
            assert qs[-1] < 1e-4
        p = probe(parse(text), 0.0)
        for k in range(STEPS):
            assert p.right[k].value == pytest.approx(table[k][0], rel=1e-9)
            assert p.left[k].value == pytest.approx(table[k][1], rel=1e-9)
        v = classify(p)
        assert isinstance(v, Differentiable), v
        assert abs(v.value) <= 1e-6

    @pytest.mark.parametrize("text", [t for t, _ in SLOW_ORDERS])
    def test_slow_order_tangent_is_repaired(self, text):
        rep = analyze(text, Interval(-1, 1))
        repaired = [t.x for t in rep.tangents if t.provenance is Provenance.REPAIRED_BY_DEFINITION]
        assert repaired == [0.0]

    def test_order_below_p_min_stays_inconclusive(self):
        # q(h) = h^0.2 converges, but too slowly to be told from a drift
        v = classify(probe(parse("abs(x)^1.2"), 0.0))
        assert isinstance(v, Inconclusive)

    def test_steep_tan_is_never_a_corner(self):
        # f = tan(a*x^2) with a = 1.3e14: f'(0) = 0, and the quotients are
        # tan's noise until the last steps of the window
        v = classify(probe(parse("tan((cbrt(0.5)*x/(0.25^4)^3)^2)"), 0.0))
        assert not isinstance(v, Corner)
        if isinstance(v, Differentiable):
            assert abs(v.value) <= 1e-6


class TestLargeX0:
    """x0 + h rounds by up to ulp(x0), which the quotient divides by h."""

    @pytest.mark.parametrize("text, x0", [
        ("x", 1e9), ("x^3", 1e12), ("x", 1e308),
        ("cbrt(x-1e9)", 1e9),  # a vertical tangent at x0
    ])
    def test_rounded_steps_give_no_slope(self, text, x0):
        assert not isinstance(classify(probe(parse(text), x0)), Differentiable)

    def test_slope_of_x_at_1e5(self):
        v = classify(probe(parse("x"), 1e5))
        assert isinstance(v, Differentiable) and abs(v.value - 1.0) <= 1e-6

    def test_slope_of_exp_at_700(self):
        v = classify(probe(parse("exp(x)"), 700.0))
        assert isinstance(v, Differentiable)
        assert abs(v.value - math.exp(700.0)) <= 1e-6 * math.exp(700.0)


@settings(max_examples=200, deadline=None)
@given(limit=st.floats(-1e3, 1e3), c=st.floats(1e-3, 1e3), negative=st.booleans(),
       p=st.floats(P_MIN + 0.01, 3.0))
def test_geometric_approach_converges_to_its_limit(limit, c, negative, p):
    c = -c if negative else c
    v = classify(_geometric_probe(lambda k: limit + c * 2.0 ** (-p * k)))
    assert isinstance(v, Differentiable), v
    # a tail that settled within tol per step leaves at most a few tol unsummed
    assert abs(v.value - limit) <= 10 * CONVERGENCE_TOL * max(1.0, abs(limit))


@settings(max_examples=200, deadline=None)
@given(c=st.floats(1e-3, 1e3), negative=st.booleans(), p=st.floats(P_MIN + 0.01, 3.0))
def test_geometric_growth_diverges_with_the_sign_of_c(c, negative, p):
    assume(c * 2.0 ** (p * (STEPS - 1)) >= DIVERGENCE_MAGNITUDE_MIN)
    c = -c if negative else c
    v = classify(_geometric_probe(lambda k: c * 2.0 ** (p * k)))
    assert v == VerticalTangent(sign=1 if c > 0 else -1)


class TestInvariants:
    def test_shift_invariance(self):
        rng = random.Random(4242)
        cases = [
            ("cbrt(x)*sin(x^2)", 0.0),
            ("cbrt(x)*cos(x^2)", 0.0),
            ("abs(x)", 0.0),
            ("x^2", 0.0),
            ("cbrt(x^2)", 0.0),
        ]
        checked = 0
        while checked < 30:
            f = random_expr(rng, depth=4)
            d = differentiate(f).simplified
            x0 = probe_regular_point(f, d, rng)
            if x0 is None:
                continue
            cases.append((f, x0))
            checked += 1
        for f, x0 in cases:
            e = parse(f) if isinstance(f, str) else f
            a = rng.choice([0.5, 1.25, -0.75, 2.0])
            # build f(x - a) and classify at x0 + a
            shifted = substitute_var(e, Sub(X, Constant(a)))
            v0 = classify(probe(e, x0))
            v1 = classify(probe(shifted, x0 + a))
            assert type(v0) is type(v1), (e, x0, a, v0, v1)
            if isinstance(v0, Differentiable):
                assert abs(v0.value - v1.value) <= 1e-6 + 1e-6 * abs(v0.value)

    def test_scale_equivariance(self):
        cases = ["cbrt(x)*sin(x^2)", "cbrt(x)*cos(x^2)", "abs(x)", "x^2", "cbrt(x^2)", "sin(x)"]
        for text in cases:
            e = parse(text)
            base = classify(probe(e, 0.0))
            for c in (2.0, -3.0):
                scaled_expr = Mul(Constant(abs(c)), e)
                if c < 0:
                    scaled_expr = Sub(Constant(0), scaled_expr)
                v = classify(probe(scaled_expr, 0.0))
                if isinstance(base, Differentiable):
                    assert isinstance(v, Differentiable)
                    assert abs(v.value - c * base.value) <= max(1e-4, 1e-4 * abs(c * base.value))
                elif isinstance(base, VerticalTangent):
                    assert isinstance(v, VerticalTangent)
                    assert v.sign == (base.sign if c > 0 else -base.sign)
                elif isinstance(base, Cusp):
                    assert isinstance(v, Cusp)
                elif isinstance(base, Corner):
                    assert isinstance(v, Corner)
                    assert v.left_slope == pytest.approx(c * base.left_slope, abs=1e-6)
                    assert v.right_slope == pytest.approx(c * base.right_slope, abs=1e-6)

    def test_agreement_with_symbolic_derivative(self):
        rng = random.Random(11088)
        checked = 0
        while checked < 500:
            f = random_expr(rng, depth=5)
            d = differentiate(f).simplified
            x0 = probe_regular_point(f, d, rng)
            if x0 is None:
                continue
            sym = eval_defined(d, x0)
            v = classify(probe(f, x0))
            assert isinstance(v, Differentiable), (f, x0, v, sym)
            assert abs(v.value - sym) <= max(1e-4, 1e-4 * abs(sym))
            checked += 1

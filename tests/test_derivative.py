import math
import random
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from deriv_audit.derivative import differentiate, is_everywhere_defined, simplify
from deriv_audit.expr import (
    HUGE, OPS, Add, Constant, Div, Func, Interval, Mul, Neg, Pow, Sub, X, evaluate,
    format_expr, lower, op_of, parse,
)
from deriv_audit.report import analyze
from helpers import (
    central_diff, chain, eval_defined, fd_regular_point, random_expr, reference_d,
    reference_simplify, substitute_var,
)


def rel_close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _bits(v):
    return struct.pack("<d", v)


# Every operation on constant operands, at the edges of its domain; NaN
# where it is undefined.
FOLD_CASES = [
    (Add(Constant(1), Constant(2)), 3.0),
    (Sub(Constant(1), Constant(2)), -1.0),
    (Mul(Constant(HUGE), Constant(2)), HUGE),  # saturates
    (Div(Constant(1), Constant(4)), 0.25),
    (Div(Constant(1), Constant(0)), math.nan),
    (Pow(Constant(0), Constant(0)), math.nan),
    (Pow(Constant(0), Constant(-1)), math.nan),
    (Pow(Constant(-8), Constant(1 / 3)), math.nan),
    (Pow(Constant(-2), Constant(3)), -8.0),
    (Neg(Constant(0)), -0.0),
    (Func("sin", Constant(0)), 0.0),
    (Func("cos", Constant(0)), 1.0),
    (Func("tan", Constant(0)), 0.0),
    (Func("exp", Constant(1000)), HUGE),  # saturates
    (Func("ln", Constant(0)), math.nan),
    (Func("ln", Constant(-1)), math.nan),
    (Func("ln", Constant(1)), 0.0),
    (Func("sqrt", Constant(-1)), math.nan),
    (Func("sqrt", Constant(4)), 2.0),
    (Func("cbrt", Constant(-8)), -2.0),
    (Func("abs", Constant(-3)), 3.0),
]

# Each exponent settles to a constant, but the parsed one is not: the rule is
# picked by the parsed shape, so f' keeps the general-exponent form, and with
# it the undefined points of its ln(u) and 1/u.
PARSED_EXPONENT_CASES = [
    ("x^(1+1)", "x^2*(0*ln(x)+2*(1/x))"),
    ("x^(2*1)", "x^2*(0*ln(x)+2*(1/x))"),
    ("sin(x)^(0+3)", "sin(x)^3*(0*ln(sin(x))+3*(cos(x)/sin(x)))"),
    ("cbrt(x)^(3-1)", "cbrt(x)^2*(0*ln(cbrt(x))+2*(1/(3*cbrt(x^2))/cbrt(x)))"),
]


class TestRules:
    def test_variable(self):
        assert differentiate(parse("x")).simplified == Constant(1)

    def test_product_with_cube_root_matches_hand_form(self):
        d = differentiate(parse("cbrt(x)*sin(x^2)")).simplified
        hand = parse("(6*x^2*cos(x^2)+sin(x^2))/(3*cbrt(x^2))")
        v = evaluate(d, 0.5).value
        w = evaluate(hand, 0.5).value
        assert rel_close(v, w, 1e-12)

    def test_counterexample_derivative_matches_hand_form(self):
        d = differentiate(parse("cbrt(x)*cos(x^2)")).simplified
        hand = parse("(cos(x^2)-6*x^2*sin(x^2))/(3*cbrt(x^2))")
        v = evaluate(d, 0.7).value
        w = evaluate(hand, 0.7).value
        assert rel_close(v, w, 1e-12)

    def test_cbrt_derivative_hole_is_division_by_zero(self):
        d = reference_d(Func("cbrt", X))
        assert d == Div(Constant(1), Mul(Constant(3), Func("cbrt", Pow(X, Constant(2)))))
        assert differentiate(Func("cbrt", X)).simplified == simplify(d) == d
        assert not evaluate(d, 0.0).is_defined

    def test_abs_derivative_keeps_the_corner_visible(self):
        d = differentiate(Func("abs", X)).simplified
        assert not evaluate(d, 0.0).is_defined
        assert evaluate(d, 2.0).value == 1.0
        assert evaluate(d, -2.0).value == -1.0

    @pytest.mark.parametrize("text,x", [
        ("tan(x)", 0.4),
        ("exp(2*x)", -0.3),
        ("ln(x^2+1)", 1.1),
        ("sqrt(x+2)", 0.5),
        ("x^x", 1.7),
        ("sin(cos(x))", 0.9),
        ("1/(x+3)", 0.2),
    ])
    def test_against_central_difference(self, text, x):
        d = differentiate(parse(text)).simplified
        sym = evaluate(d, x).value
        fd = central_diff(parse(text), x, 1e-6)
        assert abs(sym - fd) <= max(1e-5, 1e-5 * abs(sym))

    def test_deep_neg_chain(self):
        d = differentiate(chain(5000, Neg))
        assert d.simplified == Constant(1)  # the double negations cancel

    @pytest.mark.parametrize("text,expected", PARSED_EXPONENT_CASES,
                             ids=[text for text, _ in PARSED_EXPONENT_CASES])
    def test_rule_is_picked_by_the_parsed_exponent(self, text, expected):
        assert format_expr(differentiate(parse(text)).simplified) == expected

    def test_general_exponent_keeps_its_undefined_region(self):
        notes = analyze("x^(1+1)", Interval(-1, 1)).interval_notes
        assert [(n.x, n.undefined_side) for n in notes] == [(0.0, "left")]


# Wraps for deep chains that share no subtree, so the recursive reference_d
# stays linear in depth.
CHAIN_WRAPS = (
    Neg,
    lambda u: Func("sqrt", u),
    lambda u: Func("cbrt", u),
    lambda u: Func("sin", u),
    lambda u: Func("abs", u),
    lambda u: Mul(u, X),
    lambda u: Sub(Constant(1), u),
    lambda u: Div(u, Add(X, Constant(2))),
    lambda u: Pow(u, Constant(2)),
    lambda u: Pow(u, Add(Constant(1), Constant(1))),
)


class TestFusedPass:
    """differentiate settles every node as it builds it; the result must be
    the recursive rule tree (`reference_d`) simplified afterwards."""

    @staticmethod
    def check(e):
        fused, ref = differentiate(e).simplified, simplify(reference_d(e))
        assert fused == ref
        assert format_expr(fused) == format_expr(ref)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 8))
    def test_matches_the_simplified_rule_tree(self, seed, depth):
        e = random_expr(random.Random(seed), depth)
        for tree in (e, differentiate(e).simplified):
            self.check(tree)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 5))
    def test_matches_on_shared_subtrees(self, seed, depth):
        rng = random.Random(seed)
        shared = random_expr(rng, depth)
        # every x of the outer tree is the one object `shared`
        self.check(substitute_var(random_expr(rng, 4), shared))

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_on_300_deep_chains(self, seed):
        rng = random.Random(seed)
        e = X
        for _ in range(300):
            e = rng.choice(CHAIN_WRAPS)(e)
        self.check(e)

    def test_deep_chains_do_not_recurse(self):
        assert differentiate(chain(5001, Neg)).simplified == Constant(-1)
        nest, sqrt_d = X, Constant(1)
        for _ in range(5000):  # d sqrt(u) = du/(2*sqrt(u))
            nest = Func("sqrt", nest)
            sqrt_d = Div(sqrt_d, Mul(Constant(2), nest))
        assert differentiate(nest).simplified == sqrt_d
        product, mul_d = Mul(X, X), Add(X, X)
        for _ in range(4999):  # d (u*x) = du*x + u
            product, mul_d = Mul(product, X), Add(Mul(mul_d, X), product)
        assert differentiate(product).simplified == mul_d


class TestSimplify:
    def test_identity_rules(self):
        assert simplify(parse("1*x + 0")) == X

    def test_zero_product_requires_total_other_factor(self):
        assert simplify(parse("cbrt(x)*0")) == Constant(0)
        e = parse("ln(x)*0")
        assert simplify(e) == e  # must keep the hole at x <= 0

    def test_integer_exponents_combine(self):
        assert simplify(parse("x^2*x^3")) == Pow(X, Constant(5))

    def test_negative_exponents_do_not_combine(self):
        # x^-1 * x^2 is undefined at 0; x^1 is not
        e = Mul(Pow(X, Constant(-1)), Pow(X, Constant(2)))
        assert simplify(e) == e

    def test_fold_cases_cover_every_op(self):
        assert {op_of(e) for e, _ in FOLD_CASES} == set(OPS) - {"c", "x"}

    @pytest.mark.parametrize("e,expected", FOLD_CASES,
                             ids=[format_expr(e) for e, _ in FOLD_CASES])
    def test_folds_exactly_where_the_tape_is_defined(self, e, expected):
        value = lower(e).value(0.0)
        s = simplify(e)
        if math.isnan(expected):
            assert math.isnan(value) and s == e
        else:
            assert _bits(value) == _bits(expected)
            assert isinstance(s, Constant) and _bits(s.value) == _bits(value)

    def test_totality_check_on_a_deep_chain(self):
        total, partial = X, Func("ln", X)
        for _ in range(5000):
            total, partial = Neg(total), Neg(partial)
        assert is_everywhere_defined(total)
        assert not is_everywhere_defined(partial)

    @settings(max_examples=500, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 8))
    def test_matches_the_fixpoint_oracle(self, seed, depth):
        e = random_expr(random.Random(seed), depth)
        for tree in (e, reference_d(e)):
            s, r = simplify(tree), reference_simplify(tree)
            assert s == r
            assert format_expr(s) == format_expr(r)

    def test_deep_chain(self):
        chain = X
        for _ in range(5000):
            chain = Neg(chain)
        assert simplify(chain) is X  # the double negations cancel
        with pytest.raises(RecursionError):
            reference_simplify(chain)

    def test_idempotent(self):
        rng = random.Random(3104)
        for _ in range(300):
            e = random_expr(rng, depth=7)
            s = simplify(e)
            assert simplify(s) == s

    def test_domain_preservation(self):
        rng = random.Random(9217)
        checked = 0
        while checked < 1000:
            e = random_expr(rng, depth=6)
            s = simplify(e)
            x = rng.uniform(-4.0, 4.0)
            assert evaluate(e, x).is_defined == evaluate(s, x).is_defined
            checked += 1

    def test_raw_and_simplified_agree(self):
        rng = random.Random(5150)
        eps = sys.float_info.epsilon
        checked = 0
        while checked < 500:
            e = random_expr(rng, depth=5)
            x = rng.uniform(-3.0, 3.0)
            raw = evaluate(reference_d(e), x)
            simp = evaluate(differentiate(e).simplified, x)
            assert raw.is_defined == simp.is_defined
            if raw.is_defined:
                a, b = raw.value, simp.value
                assert abs(a - b) <= 4.0 * eps * max(abs(a), abs(b)) + 5e-324
            checked += 1


class TestProperties:
    def test_linearity(self):
        rng = random.Random(6006)
        checked = 0
        while checked < 200:
            e1 = random_expr(rng, depth=4)
            e2 = random_expr(rng, depth=4)
            a = rng.choice([2.0, -0.5, 3.0])
            combo = Add(Mul(Constant(abs(a)), e1) if a > 0 else Neg(Mul(Constant(abs(a)), e1)), e2)
            d_combo = differentiate(combo).simplified
            d1 = differentiate(e1).simplified
            d2 = differentiate(e2).simplified
            x = rng.uniform(-2.0, 2.0)
            lhs = eval_defined(d_combo, x)
            v1 = eval_defined(d1, x)
            v2 = eval_defined(d2, x)
            if lhs is None or v1 is None or v2 is None:
                continue
            rhs = a * v1 + v2
            if abs(rhs) > 1e12:
                continue
            assert abs(lhs - rhs) <= max(1e-9, 1e-9 * abs(rhs))
            checked += 1

    def test_oracle_agreement(self):
        # symbolic derivative vs central difference at filtered regular points
        rng = random.Random(20240841)
        checked = 0
        while checked < 300:
            e = random_expr(rng, depth=6)
            d = differentiate(e).simplified
            x = fd_regular_point(e, d, rng)
            if x is None:
                continue
            sym = eval_defined(d, x)
            fd = central_diff(e, x, 1e-6)
            assert sym is not None and fd is not None
            assert abs(sym - fd) <= max(1e-5, 1e-5 * abs(sym)), format_expr(e)
            checked += 1

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from deriv_audit.derivative import differentiate
from deriv_audit.expr import (
    Add, Constant, Div, EvalOutcome, Func, Interval, Mul, Neg, ParseError, Pow, Sub,
    UndefinedReason, Variable, X, evaluate, format_expr, parse, record,
)
from helpers import (
    chain, random_expr, reference_d, reference_format, reference_parse, reference_repr,
)

DEEP = 5000


class TestParse:
    def test_product_of_named_functions(self):
        expected = Mul(Func("cbrt", X), Func("sin", Pow(X, Constant(2))))
        assert parse("cbrt(x)*sin(x^2)") == expected

    def test_bare_variable(self):
        assert parse("x") == X

    def test_precedence_with_unary_minus(self):
        assert parse("2*x + -3") == Add(Mul(Constant(2), X), Neg(Constant(3)))

    def test_whitespace_insensitive(self):
        assert parse(" cbrt( x ) * sin(x ^ 2) ") == parse("cbrt(x)*sin(x^2)")

    def test_power_right_associative(self):
        assert parse("2^3^2") == Pow(Constant(2), Pow(Constant(3), Constant(2)))

    def test_unary_minus_binds_looser_than_power(self):
        assert parse("-x^2") == Neg(Pow(X, Constant(2)))

    def test_negative_exponent(self):
        assert parse("x^-2") == Pow(X, Neg(Constant(2)))

    def test_alternate_variable_name(self):
        assert parse("t^2") == Pow(X, Constant(2))

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + * 2")
        assert exc.value.position == 4

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("sinh(x)")

    def test_multiple_variables_rejected(self):
        with pytest.raises(ParseError, match="multiple distinct variable"):
            parse("x + y")

    def test_missing_close_paren(self):
        with pytest.raises(ParseError, match=r"expected '\)'"):
            parse("sin(x")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="end of input"):
            parse("x 2")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse("x + $")
        assert exc.value.position == 4

    def test_overflowing_literal_carries_offset(self):
        with pytest.raises(ParseError, match="too large") as exc:
            parse("x + 1e999")
        assert exc.value.position == 4


class TestDeep:
    """Every pass over a tree runs without recursion, at any depth."""

    def test_parse_nested_parentheses(self):
        assert parse("(" * DEEP + "x" + ")" * DEEP) is X

    def test_parse_minus_chain(self):
        assert parse("-" * DEEP + "x") == chain(DEEP, Neg)

    def test_parse_power_chain(self):
        assert parse("^".join(["x"] * DEEP)) == chain(DEEP - 1, lambda e: Pow(X, e))

    def test_parse_nested_calls(self):
        assert parse("sin(" * DEEP + "x" + ")" * DEEP) == chain(DEEP, lambda e: Func("sin", e))

    def test_format_neg_chain(self):
        assert format_expr(chain(DEEP, Neg)) == "-" * DEEP + "x"

    def test_repr_neg_chain(self):
        assert repr(chain(DEEP, Neg)) == "Neg(arg=" * DEEP + "Variable()" + ")" * DEEP

    def test_eq_and_hash_on_chains_built_separately(self):
        a, b = chain(DEEP, Neg), chain(DEEP, Neg)
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != chain(DEEP, Neg, Constant(1)) and a != chain(DEEP - 1, Neg)

    def test_eq_compares_each_pair_of_shared_nodes_once(self):
        # k nested Mul(a, a) has 2^k paths to its leaf but k + 1 nodes; a
        # copy that differs in its innermost leaf alone is unequal
        def dag(k, leaf=X):
            return chain(k, lambda e: Mul(e, e), leaf)

        assert dag(64) == dag(64) and hash(dag(64)) == hash(dag(64))
        assert dag(64) != dag(64, Constant(1))


def _parse_outcome(parse_fn, text):
    try:
        tree = parse_fn(text)
    except ParseError as exc:
        return "error", str(exc), exc.message, exc.position
    return "tree", repr(tree)  # the record repr: a structure check apart from ==


def _edited(t):
    seed, at, char = t
    text = format_expr(random_expr(random.Random(seed), 5))
    at %= len(text) + 1
    return text[:at] + ("" if char == "del" else char) + text[at + 1:]


_TOKENS = ["x", "y", "2", "0.5", ".", "1e999", "sin", "sinh", "sqrt", "(", ")", "+", "-",
           "*", "/", "^", " ", "$"]
_TEXTS = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: format_expr(random_expr(random.Random(seed), 8))),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 200),
              st.sampled_from(_TOKENS + ["del"])).map(_edited),
    st.lists(st.sampled_from(_TOKENS), max_size=20).map("".join),
    st.text(max_size=12),
)


class TestAgainstRecursiveOracles:
    @settings(max_examples=1000, deadline=None)
    @given(text=_TEXTS)
    def test_parse_gives_the_same_tree_or_error(self, text):
        assert _parse_outcome(parse, text) == _parse_outcome(reference_parse, text)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 8))
    def test_format_gives_the_same_text(self, seed, depth):
        e = random_expr(random.Random(seed), depth)
        for tree in (e, reference_d(e), differentiate(e).simplified):
            assert format_expr(tree) == reference_format(tree)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 8))
    def test_repr_gives_the_same_text(self, seed, depth):
        e = random_expr(random.Random(seed), depth)
        for tree in (e, differentiate(e).simplified):
            assert repr(tree) == reference_repr(tree)

    def test_shared_subtree_in_places_that_parenthesise_it_differently(self):
        u = Add(X, Constant(1))
        e = Mul(u, Pow(u, u))
        assert format_expr(e) == reference_format(e) == "(x+1)*(x+1)^(x+1)"
        assert repr(e) == reference_repr(e)

    def test_doubling_dag_text_is_exponential_in_its_nodes(self):
        u = X
        for _ in range(16):
            u = Add(u, u)  # 17 distinct nodes, 2^16 leaves in the text
        assert format_expr(u) == reference_format(u)
        assert format_expr(u).count("x") == 2**16
        assert repr(u) == reference_repr(u)

    def test_repr_is_the_dataclass_text(self):
        assert repr(parse("sin(x)+1")) == (
            "Add(left=Func(name='sin', arg=Variable()), right=Constant(value=1.0))")

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 6))
    def test_eq_and_hash_are_structural(self, seed, depth):
        a, b = (random_expr(random.Random(seed), depth) for _ in range(2))
        c = random_expr(random.Random(seed + 1), depth)
        assert a == b and hash(a) == hash(b)
        assert (a == c) == (repr(a) == repr(c))


class TestFormat:
    def test_function_product(self):
        e = Mul(Func("cbrt", X), Func("sin", Pow(X, Constant(2))))
        assert format_expr(e) == "cbrt(x)*sin(x^2)"

    def test_zero(self):
        assert format_expr(Constant(0)) == "0"

    def test_simple_division(self):
        assert format_expr(Div(Constant(1), X)) == "1/x"

    def test_minimal_parens_reassociation(self):
        assert format_expr(Mul(X, Mul(X, X))) == "x*(x*x)"
        assert format_expr(Mul(Mul(X, X), X)) == "x*x*x"
        assert format_expr(Sub(X, Add(X, X))) == "x-(x+x)"
        assert format_expr(Pow(Pow(X, Constant(2)), Constant(3))) == "(x^2)^3"
        assert format_expr(Neg(Mul(X, X))) == "-(x*x)"

    def test_round_trip_random_asts(self):
        rng = random.Random(8451)
        for _ in range(400):
            e = random_expr(rng, depth=8)
            assert parse(format_expr(e)) == e

    def test_negative_constants_re_read_as_neg(self):
        d = differentiate(parse("x^0.5")).simplified
        assert format_expr(d) == "0.5*x^-0.5"
        assert parse(format_expr(d)) == parse("0.5*x^(-0.5)") != d
        assert format_expr(Constant(-0.0)) == "0"

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 4))
    def test_derivative_text_re_reads_to_the_same_function(self, seed, depth):
        # f' holds negative constants, which random_expr never makes
        d = differentiate(random_expr(random.Random(seed), depth)).simplified
        text = format_expr(d)
        reread = parse(text)
        assert format_expr(reread) == text
        for x in (-1.3, -0.5, 0.0, 0.25, 1.7):
            a, b = evaluate(d, x), evaluate(reread, x)
            assert a.is_defined == b.is_defined and a.value == b.value  # 0.0 == -0.0


class TestEvaluate:
    def test_function_defined_at_zero(self):
        out = evaluate(parse("cbrt(x)*sin(x^2)"), 0.0)
        assert out.is_defined and out.value == 0.0

    def test_derivative_expression_hole_at_zero(self):
        out = evaluate(parse("(6*x^2*cos(x^2)+sin(x^2))/(3*cbrt(x^2))"), 0.0)
        assert not out.is_defined
        assert out.reason is UndefinedReason.DIV_BY_ZERO

    def test_derivative_expression_value_at_one(self):
        # independent oracle: the same arithmetic written out directly
        expected = (6.0 * math.cos(1.0) + math.sin(1.0)) / 3.0
        out = evaluate(parse("(6*x^2*cos(x^2)+sin(x^2))/(3*cbrt(x^2))"), 1.0)
        assert out.is_defined
        assert out.value == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("text,x,reason", [
        ("1/x", 0.0, UndefinedReason.DIV_BY_ZERO),
        ("sqrt(x)", -1.0, UndefinedReason.EVEN_ROOT_OF_NEGATIVE),
        ("ln(x)", 0.0, UndefinedReason.LOG_NON_POSITIVE),
        ("ln(x)", -2.0, UndefinedReason.LOG_NON_POSITIVE),
        ("x^0.5", -1.0, UndefinedReason.POW_NEGATIVE_BASE),
    ])
    def test_reasons(self, text, x, reason):
        out = evaluate(parse(text), x)
        assert not out.is_defined
        assert out.reason is reason

    def test_pow_domain(self):
        assert evaluate(parse("(0-2)^3"), 0.0).value == -8.0
        assert evaluate(Pow(X, Constant(2)), -3.0).value == 9.0
        assert not evaluate(Pow(Constant(0), Constant(0)), 0.0).is_defined
        assert not evaluate(Pow(X, Neg(Constant(1))), 0.0).is_defined
        assert evaluate(Pow(Constant(0), Constant(2)), 0.0).value == 0.0

    def test_cbrt_total_and_odd(self):
        e = Func("cbrt", X)
        for a in [0.0, 1e-12, 0.3, 1.0, 8.0, 5e7, 1e300]:
            pos = evaluate(e, a)
            neg = evaluate(e, -a)
            assert pos.is_defined and neg.is_defined
            assert neg.value == -pos.value

    def test_overflow_saturates_defined(self):
        assert evaluate(parse("exp(x)"), 1e6).is_defined
        assert evaluate(parse("x*x"), 1e200).is_defined
        assert evaluate(parse("x^x"), 1e4).is_defined
        assert evaluate(parse("1/x"), 5e-324).is_defined

    def test_tan_is_float_total_off_poles(self):
        # cos never hits 0.0 exactly at the doubles nearest the poles
        assert evaluate(parse("tan(x)"), math.pi / 2).is_defined

    def test_totality_property(self):
        rng = random.Random(7101)
        xs = [0.0, 1.0, -1.0, 0.5, -2.5, 1e-9, -1e-9, 1e300, -1e300, 12345.678]
        for _ in range(300):
            e = random_expr(rng, depth=6)
            for x in xs:
                out = evaluate(e, x)
                if out.is_defined:
                    assert math.isfinite(out.value)
                else:
                    assert out.reason is not None

    def test_shallowest_violation_wins(self):
        # the division by zero sits above the log violation inside its numerator
        e = Div(Func("ln", Neg(Constant(1))), Constant(0))
        assert evaluate(e, 0.0).reason is UndefinedReason.DIV_BY_ZERO

    def test_leftmost_violation_wins_at_equal_depth(self):
        e = Add(Func("ln", Neg(Constant(1))), Func("sqrt", Neg(Constant(1))))
        assert evaluate(e, 0.0).reason is UndefinedReason.LOG_NON_POSITIVE
        e2 = Add(Func("sqrt", Neg(Constant(1))), Func("ln", Neg(Constant(1))))
        assert evaluate(e2, 0.0).reason is UndefinedReason.EVEN_ROOT_OF_NEGATIVE


class TestInterval:
    def test_validation(self):
        with pytest.raises(ValueError, match=r"^interval requires lo <= hi, got \[1.0, -1.0\]$"):
            Interval(1.0, -1.0)
        with pytest.raises(ValueError, match=r"^interval requires lo <= hi, got \[2.0, 1.0\]$"):
            Interval(2, 1)
        with pytest.raises(ValueError, match="^interval endpoints must be finite$"):
            Interval(0.0, math.inf)
        iv = Interval(-1, 1)
        assert iv.lo == -1.0 and iv.hi == 1.0
        assert type(iv.lo) is float and type(iv.hi) is float

    def test_constant_must_be_finite(self):
        with pytest.raises(ValueError, match="^constant must be finite, got nan$"):
            Constant(math.nan)
        with pytest.raises(ValueError, match="^constant must be finite, got inf$"):
            Constant(math.inf)
        assert type(Constant(2).value) is float

    def test_unknown_function_name_rejected(self):
        with pytest.raises(ValueError, match="^unknown function name 'sinh'$"):
            Func("sinh", X)


class TestRecords:
    """Records are named tuples that keep the frozen dataclass behaviour:
    equal by type and fields, hashed by fields, immutable, always true."""

    RECORDS = [Constant(1.0), X, Neg(X), Add(X, Constant(2)), Func("sin", X),
               EvalOutcome(1.0), EvalOutcome(reason=UndefinedReason.DIV_BY_ZERO), Interval(1, 2)]

    def test_equality_is_by_type_then_fields(self):
        for a, b in [(Constant(1.0), (1.0,)), (Interval(1, 2), (1.0, 2.0)),
                     (EvalOutcome(1.0), (1.0, None)), (X, ()), (Add(X, X), Sub(X, X)),
                     (Add(X, X), (X, X)), (EvalOutcome(1.0, None), Interval(1, 1))]:
            assert a != b and b != a
            assert not a == b and not b == a
        assert Constant(1) == Constant(1.0) and not Constant(1) != Constant(1.0)
        assert Interval(1, 2) == Interval(1.0, 2.0) and not Interval(1, 2) != Interval(1.0, 2.0)

    def test_equal_records_hash_equal(self):
        for a in self.RECORDS:
            b = type(a)(*a)
            assert a is not b and a == b and hash(a) == hash(b)
        assert hash(Interval(1, 2)) == hash(Interval(1.0, 2.0)) == hash((1.0, 2.0))

    def test_fields_are_read_only(self):
        for r in self.RECORDS:
            for name in r._fields:
                with pytest.raises(AttributeError):
                    setattr(r, name, getattr(r, name))
            with pytest.raises(AttributeError):
                r.extra = 1  # no __dict__

    def test_every_record_is_true(self):
        assert bool(Variable()) and bool(X)
        assert all(self.RECORDS)

    def test_repr(self):
        assert repr(EvalOutcome(1.0)) == "EvalOutcome(value=1.0, reason=None)"
        assert repr(Interval(1, 2)) == "Interval(lo=1.0, hi=2.0)"
        assert repr(X) == "Variable()"
        assert repr(EvalOutcome(reason=UndefinedReason.TAN_POLE)) == (
            "EvalOutcome(value=None, reason=<UndefinedReason.TAN_POLE: 'tangent pole'>)")

    def test_keywords_and_defaults(self):
        assert EvalOutcome() == EvalOutcome(None, None) == EvalOutcome(value=None)
        assert EvalOutcome(reason=UndefinedReason.DIV_BY_ZERO).value is None
        assert EvalOutcome(2.0).reason is None and EvalOutcome(2.0).is_defined
        assert Interval(hi=2, lo=1) == Interval(1, 2)
        assert Constant(value=2) == Constant(2.0)
        assert Func(arg=X, name="cos") == Func("cos", X)
        assert Add(right=Constant(1), left=X) == parse("x+1")

    def test_a_default_before_a_field_without_one_is_refused(self):
        with pytest.raises(TypeError, match="without a default follows"):
            @record
            class Bad:
                a: int = 0
                b: int

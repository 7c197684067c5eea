"""Shared test utilities: random expression generation, substitution, and
finite-difference oracles kept independent of the library's derivative path."""

from __future__ import annotations

import math
import random

from deriv_audit.expr import (
    Add, Constant, Div, EvalOutcome, Expr, Func, Mul, Neg, ParseError, Pow, Sub,
    UndefinedReason, Variable, X, FUNCTION_NAMES, HUGE, _pow_value, _sat, _tokenize,
    _Token, cbrt, evaluate, format_number, lower,
)
from deriv_audit.derivative import _fold_constant, _rewrite
from deriv_audit.tangents import ROOT_RESIDUAL_TOL, UNCONFIRMED_BAND

FUNCS = sorted(FUNCTION_NAMES)

_NICE_CONSTANTS = [0.0, 1.0, 2.0, 3.0, 4.0, 0.5, 1.5, 0.25]


def _leaf(rng: random.Random) -> Expr:
    r = rng.random()
    if r < 0.55:
        return X
    if r < 0.8:
        return Constant(rng.choice(_NICE_CONSTANTS))
    # raw doubles round-trip exactly through repr; keep them nonnegative since
    # the grammar has no negative literals
    return Constant(rng.uniform(0.0, 3.0))


def _exponent(rng: random.Random, depth: int) -> Expr:
    r = rng.random()
    if r < 0.7:
        return Constant(float(rng.randint(1, 4)))
    if r < 0.85:
        return Constant(rng.choice([0.5, 1.5, 2.0, 3.0]))
    return random_expr(rng, max(depth - 2, 0))


def random_expr(rng: random.Random, depth: int) -> Expr:
    """Random AST over the full node and function set, depth-bounded."""
    if depth <= 0 or rng.random() < 0.2:
        return _leaf(rng)
    r = rng.random()
    if r < 0.16:
        return Add(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if r < 0.28:
        return Sub(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if r < 0.46:
        return Mul(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if r < 0.56:
        return Div(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if r < 0.66:
        return Pow(random_expr(rng, depth - 1), _exponent(rng, depth))
    if r < 0.76:
        return Neg(random_expr(rng, depth - 1))
    return Func(rng.choice(FUNCS), random_expr(rng, depth - 1))


def chain(n: int, wrap, leaf: Expr = X) -> Expr:
    """leaf wrapped n times by wrap, built without recursion."""
    for _ in range(n):
        leaf = wrap(leaf)
    return leaf


def substitute_var(e: Expr, replacement: Expr) -> Expr:
    """Replace every occurrence of the variable with another expression."""
    if isinstance(e, Variable):
        return replacement
    if isinstance(e, (Constant,)):
        return e
    if isinstance(e, Neg):
        return Neg(substitute_var(e.arg, replacement))
    if isinstance(e, Func):
        return Func(e.name, substitute_var(e.arg, replacement))
    if isinstance(e, Pow):
        return Pow(substitute_var(e.base, replacement), substitute_var(e.exponent, replacement))
    ctor = type(e)
    return ctor(substitute_var(e.left, replacement), substitute_var(e.right, replacement))


def eval_defined(e: Expr, x: float) -> float | None:
    out = evaluate(e, x)
    return out.value if out.is_defined else None


def central_diff(e: Expr, x: float, h: float) -> float | None:
    hi = eval_defined(e, x + h)
    lo = eval_defined(e, x - h)
    if hi is None or lo is None:
        return None
    return (hi - lo) / (2.0 * h)


def second_diff(e: Expr, x: float, h: float) -> float | None:
    hi = eval_defined(e, x + h)
    mid = eval_defined(e, x)
    lo = eval_defined(e, x - h)
    if hi is None or mid is None or lo is None:
        return None
    return (hi - 2.0 * mid + lo) / (h * h)


def fd_regular_point(e: Expr, d: Expr, rng: random.Random, tries: int = 40) -> float | None:
    """A point where e and its derivative are defined, values are moderate,
    and central differences at three step sizes already agree; there the
    finite-difference oracle is trustworthy at the test tolerance."""
    for _ in range(tries):
        x = rng.uniform(-3.0, 3.0)
        vals = [eval_defined(e, x + off)
                for off in (0.0, 1e-6, -1e-6, 5e-4, -5e-4, 1e-3, -1e-3)]
        if any(v is None or abs(v) > 1e4 for v in vals):
            continue
        dv = eval_defined(d, x)
        if dv is None or abs(dv) > 1e4:
            continue
        if eval_defined(d, x + 1e-3) is None or eval_defined(d, x - 1e-3) is None:
            continue
        fd6 = central_diff(e, x, 1e-6)
        fd5 = central_diff(e, x, 1e-5)
        fd4 = central_diff(e, x, 1e-4)
        if fd6 is None or fd5 is None or fd4 is None:
            continue
        tol = max(1e-5, 1e-5 * abs(fd6))
        if abs(fd4 - fd6) > 0.25 * tol or abs(fd5 - fd6) > 0.1 * tol:
            continue
        return x
    return None


def max_intermediate(e: Expr, x: float) -> float | None:
    """Largest magnitude taken by any subexpression of e at x.

    The cancellation floor of a difference quotient scales with the absolute
    rounding error of f, i.e. with the biggest intermediate value (a huge
    addend or trig argument), not with f's output."""
    values = lower(e).run(x)
    if None in values:
        return None
    return max(abs(v) for v in values)


def probe_regular_point(f: Expr, d: Expr, rng: random.Random, tries: int = 40) -> float | None:
    """A dyadic point where f is smooth and modest across the whole quotient
    window, so the difference-quotient classifier is inside its asymptotics."""
    for _ in range(tries):
        x0 = rng.randint(-128, 128) / 64.0
        fv = eval_defined(f, x0)
        if fv is None or abs(fv) > 10.0:
            continue
        dv = eval_defined(d, x0)
        if dv is None or abs(dv) > 100.0:
            continue
        ok = True
        for off in (0.1, 0.05, 0.025, 0.0125, 1e-4, 1e-6, 0.0):
            for s in (off, -off):
                m = max_intermediate(f, x0 + s)
                if m is None or m > 30.0:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for off in (-0.1, -0.05, 0.0, 0.05, 0.1):
            c = second_diff(f, x0 + off, 1e-4)
            if c is None or abs(c) > 10.0:
                ok = False
                break
        if not ok:
            continue
        fd4 = central_diff(f, x0, 1e-4)
        fd5 = central_diff(f, x0, 1e-5)
        if fd4 is None or fd5 is None or abs(fd4 - fd5) > 1e-5 * max(1.0, abs(fd4)):
            continue
        return x0
    return None


def reference_evaluate(e: Expr, x: float) -> EvalOutcome:
    """The recursive evaluator the lowered Tape replaced, kept as the
    oracle the Tape is tested against.

    Evaluate e at x.  Total: undefinedness is reported, never raised.

    When several subexpressions are undefined at x, the reported reason
    belongs to the shallowest violating node, ties broken left to right.
    """
    violations: list[tuple[int, int, UndefinedReason]] = []
    counter = 0

    def visit(node: Expr, depth: int) -> float | None:
        nonlocal counter
        counter += 1
        order = counter

        if isinstance(node, Constant):
            return node.value
        if isinstance(node, Variable):
            return x
        if isinstance(node, Neg):
            v = visit(node.arg, depth + 1)
            return None if v is None else -v
        if isinstance(node, Add):
            l = visit(node.left, depth + 1)
            r = visit(node.right, depth + 1)
            return None if l is None or r is None else _sat(l + r)
        if isinstance(node, Sub):
            l = visit(node.left, depth + 1)
            r = visit(node.right, depth + 1)
            return None if l is None or r is None else _sat(l - r)
        if isinstance(node, Mul):
            l = visit(node.left, depth + 1)
            r = visit(node.right, depth + 1)
            return None if l is None or r is None else _sat(l * r)
        if isinstance(node, Div):
            l = visit(node.left, depth + 1)
            r = visit(node.right, depth + 1)
            if r == 0.0:
                violations.append((depth, order, UndefinedReason.DIV_BY_ZERO))
                return None
            return None if l is None or r is None else _sat(l / r)
        if isinstance(node, Pow):
            a = visit(node.base, depth + 1)
            b = visit(node.exponent, depth + 1)
            if a is None or b is None:
                return None
            if a == 0.0 and b <= 0.0:  # 0**0 and 0**negative
                violations.append((depth, order, UndefinedReason.DIV_BY_ZERO))
                return None
            if a < 0.0 and b != round(b):
                violations.append((depth, order, UndefinedReason.POW_NEGATIVE_BASE))
                return None
            return _pow_value(a, b)
        assert isinstance(node, Func)
        u = visit(node.arg, depth + 1)
        if u is None:
            return None
        name = node.name
        if name == "sin":
            return math.sin(u)
        if name == "cos":
            return math.cos(u)
        if name == "tan":
            # Undefined only when the argument hits a pole exactly in floats.
            if math.cos(u) == 0.0:
                violations.append((depth, order, UndefinedReason.TAN_POLE))
                return None
            return _sat(math.tan(u))
        if name == "exp":
            try:
                return math.exp(u)
            except OverflowError:
                return HUGE
        if name == "ln":
            if u <= 0.0:
                violations.append((depth, order, UndefinedReason.LOG_NON_POSITIVE))
                return None
            return math.log(u)
        if name == "sqrt":
            if u < 0.0:
                violations.append((depth, order, UndefinedReason.EVEN_ROOT_OF_NEGATIVE))
                return None
            return math.sqrt(u)
        if name == "cbrt":
            return cbrt(u)
        assert name == "abs"
        return abs(u)

    value = visit(e, 0)
    if value is not None:
        return EvalOutcome(value)
    violations.sort(key=lambda t: (t[0], t[1]))
    return EvalOutcome(reason=violations[0][2])


def reference_events(col: list[float]) -> tuple[list[int], ...]:
    """The per-element rules the grid scans applied before column events,
    kept as the oracle `tangents.column_events` (the first three lists) and
    the pruned grid's small values (the fourth) are tested against.  NaN
    marks an undefined value; each list holds ascending indices i:
    definedness flips between i and i+1, exact zeros, sign changes between
    adjacent defined values, and defined values with 0 < |v| < band."""
    undefined = [v != v for v in col]
    flips = [i for i in range(len(col) - 1) if undefined[i] != undefined[i + 1]]
    zeros = [i for i, v in enumerate(col) if v == 0.0]
    changes = [
        i for i, (a, b) in enumerate(zip(col, col[1:]))
        if a == a and b == b and (a > 0.0 > b or a < 0.0 < b)
    ]
    small = [i for i, v in enumerate(col)
             if v == v and v != 0.0 and abs(v) < UNCONFIRMED_BAND]
    return flips, zeros, changes, small


def reference_bisect_boundary(tape, a: float, b: float, tol: float) -> float:
    """The point-by-point boundary bisection that `scan._bisect_boundary`
    runs as one column first, kept as the oracle it is tested against:
    from a defined point a and an undefined point b to the undefined-side
    point within tol of the definedness flip."""
    while abs(b - a) > tol:
        mid = 0.5 * a + 0.5 * b
        if mid == a or mid == b:
            break
        if tape.value(mid) is not None:
            a = mid
        else:
            b = mid
    return b


ROOT_WIDTH_TOL = 1e-12


def reference_bisect_root(value_at, lo: float, hi: float, flo: float,
                          fhi: float) -> tuple[float, float] | None:
    """The root bisection that `tangents.column_roots` now runs through
    `tangents.refine`, kept as the oracle it is tested against.

    Shrink a sign-change bracket, with the values flo and fhi at its
    ends, to ROOT_WIDTH_TOL; the root and the value that confirmed it, or
    None on a hole inside."""
    while hi - lo > ROOT_WIDTH_TOL:
        mid = 0.5 * lo + 0.5 * hi  # lo + hi can overflow near the largest float
        if mid <= lo or mid >= hi:
            break
        v = value_at(mid)
        if v is None:
            return None
        if v == 0.0:
            return mid, v
        if (v > 0.0) == (flo > 0.0):
            lo, flo = mid, v
        else:
            hi, fhi = mid, v
    mid = 0.5 * lo + 0.5 * hi
    for r, v in ((mid, value_at(mid)), (lo, flo), (hi, fhi)):
        if v is not None and abs(v) <= ROOT_RESIDUAL_TOL:
            return r, v
    return None


_MAX_PASSES = 64


def reference_simplify(e: Expr) -> Expr:
    """The fixpoint simplify that the one-pass `derivative.simplify`
    replaced, kept as the oracle it is tested against.  Each pass rebuilds
    the whole tree recursively, and a tree-wide == ends the loop.

    Apply the domain-preserving rewrite passes to a fixpoint."""
    for _ in range(_MAX_PASSES):
        reduced = _simplify_once(e)
        if reduced == e:
            return reduced
        e = reduced
    return e


def _simplify_once(e: Expr) -> Expr:
    if isinstance(e, (Constant, Variable)):
        return e
    if isinstance(e, (Neg, Func)):
        kids = [_simplify_once(e.arg)]
    elif isinstance(e, Pow):
        kids = [_simplify_once(e.base), _simplify_once(e.exponent)]
    else:
        kids = [_simplify_once(e.left), _simplify_once(e.right)]  # type: ignore[union-attr]
    folded = _fold_constant(e, kids)
    if folded is not None:
        return folded
    return _rewrite(Func(e.name, *kids) if isinstance(e, Func) else type(e)(*kids))


def reference_parse(text: str) -> Expr:
    """The recursive-descent parser that the stack parser `expr.parse`
    replaced, kept as the oracle it is tested against."""
    return _Parser(text).parse()


class _Parser:
    """Recursive descent over:

    expr  := term (("+"|"-") term)*
    term  := unary (("*"|"/") unary)*
    unary := "-" unary | power
    power := atom ("^" unary)?
    atom  := number | variable | funcname "(" expr ")" | "(" expr ")"
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.variable_name: str | None = None

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.pos)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"expected end of input, found {tok.text!r}", tok.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return Pow(base, self.unary())  # right-associative via unary
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            if not math.isfinite(float(tok.text)):
                raise ParseError(f"number {tok.text!r} is too large", tok.pos)
            return Constant(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            follows_paren = self.peek().kind == "op" and self.peek().text == "("
            if follows_paren:
                if tok.text not in FUNCTION_NAMES:
                    raise ParseError(f"unknown function name {tok.text!r}", tok.pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Func(tok.text, arg)
            if tok.text in FUNCTION_NAMES:
                raise ParseError(f"expected '(' after function name {tok.text!r}", self.peek().pos)
            if self.variable_name is None:
                self.variable_name = tok.text
            elif tok.text != self.variable_name:
                raise ParseError(
                    f"multiple distinct variable names: {self.variable_name!r} and {tok.text!r}",
                    tok.pos,
                )
            return X
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(
            f"expected a number, variable, function call or '(', found {tok.text or 'end of input'!r}",
            tok.pos,
        )


def reference_d(e: Expr) -> Expr:
    """The unsimplified rule tree, built by recursion: the oracle that
    `differentiate`'s one pass over post_order, which settles each node as
    it builds it, is tested against as `simplify(reference_d(e))`."""
    if isinstance(e, Constant):
        return Constant(0)
    if isinstance(e, Variable):
        return Constant(1)
    if isinstance(e, Neg):
        return Neg(reference_d(e.arg))
    if isinstance(e, Add):
        return Add(reference_d(e.left), reference_d(e.right))
    if isinstance(e, Sub):
        return Sub(reference_d(e.left), reference_d(e.right))
    if isinstance(e, Mul):
        return Add(Mul(reference_d(e.left), e.right), Mul(e.left, reference_d(e.right)))
    if isinstance(e, Div):
        num = Sub(Mul(reference_d(e.left), e.right), Mul(e.left, reference_d(e.right)))
        return Div(num, Pow(e.right, Constant(2)))
    if isinstance(e, Pow):
        u, v = e.base, e.exponent
        if isinstance(v, Constant):
            return Mul(Mul(v, Pow(u, Constant(v.value - 1.0))), reference_d(u))
        # general exponent: u^v * (v' ln u + v u'/u)
        return Mul(e, Add(Mul(reference_d(v), Func("ln", u)), Mul(v, Div(reference_d(u), u))))
    assert isinstance(e, Func)
    u = e.arg
    du = reference_d(u)
    if e.name == "sin":
        return Mul(Func("cos", u), du)
    if e.name == "cos":
        return Mul(Neg(Func("sin", u)), du)
    if e.name == "tan":
        return Div(du, Pow(Func("cos", u), Constant(2)))
    if e.name == "exp":
        return Mul(Func("exp", u), du)
    if e.name == "ln":
        return Div(du, u)
    if e.name == "sqrt":
        return Div(du, Mul(Constant(2), Func("sqrt", u)))
    if e.name == "cbrt":
        # denominator form on purpose: the hole at u = 0 must surface as a
        # division by zero, not hide inside a fractional power
        return Div(du, Mul(Constant(3), Func("cbrt", Pow(u, Constant(2)))))
    assert e.name == "abs"
    # u/abs(u) rather than sign(u): the corner at u = 0 stays visible
    return Div(Mul(du, u), Func("abs", u))


def reference_repr(e: Expr) -> str:
    """The recursive field-by-field repr that `Expr.__repr__`'s loop over
    post_order replaced, kept as the oracle it is tested against."""
    args = ", ".join(
        f"{name}={reference_repr(v) if isinstance(v, Expr) else repr(v)}"
        for name, v in zip(e._fields, e)
    )
    return f"{type(e).__qualname__}({args})"


def reference_format(e: Expr) -> str:
    """The recursive formatter that `expr.format_expr`'s loop over
    post_order replaced, kept as the oracle it is tested against."""
    return _fmt(e, _LEVEL_ADD)


# Binding levels: 1 add/sub, 2 mul/div, 3 unary minus, 4 power, 5 atoms.
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _LEVEL_ADD
    if isinstance(e, (Mul, Div)):
        return _LEVEL_MUL
    if isinstance(e, Neg):
        return _LEVEL_UNARY
    if isinstance(e, Pow):
        return _LEVEL_POW
    if isinstance(e, Constant) and e.value < 0:
        # no negative literals in the grammar: "-3" re-parses as a negation
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def _fmt(e: Expr, min_level: int) -> str:
    if isinstance(e, Constant):
        text = format_number(e.value)
    elif isinstance(e, Variable):
        text = "x"
    elif isinstance(e, Func):
        text = f"{e.name}({_fmt(e.arg, _LEVEL_ADD)})"
    elif isinstance(e, Neg):
        text = "-" + _fmt(e.arg, _LEVEL_UNARY)
    elif isinstance(e, Add):
        text = _fmt(e.left, _LEVEL_ADD) + "+" + _fmt(e.right, _LEVEL_MUL)
    elif isinstance(e, Sub):
        text = _fmt(e.left, _LEVEL_ADD) + "-" + _fmt(e.right, _LEVEL_MUL)
    elif isinstance(e, Mul):
        text = _fmt(e.left, _LEVEL_MUL) + "*" + _fmt(e.right, _LEVEL_UNARY)
    elif isinstance(e, Div):
        text = _fmt(e.left, _LEVEL_MUL) + "/" + _fmt(e.right, _LEVEL_UNARY)
    else:
        assert isinstance(e, Pow)
        text = _fmt(e.base, _LEVEL_ATOM) + "^" + _fmt(e.exponent, _LEVEL_UNARY)
    if _level(e) < min_level:
        return f"({text})"
    return text

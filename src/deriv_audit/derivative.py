"""Rule-based symbolic differentiation and domain-preserving simplification.

The derivative is the *formal* rule output: where a factor is not
differentiable the expression simply comes out undefined there, even if the
function itself has a derivative.  Exposing that gap is the point, so
simplification is deliberately conservative: no rewrite may add or remove an
undefined point.  In particular there is no rational normalization or GCD
cancellation, and a product with a zero factor only folds away when the
other factor is total.
"""

from __future__ import annotations

from .expr import (
    OPS, Add, Constant, Div, Expr, Func, Mul, Neg, Pow, Sub, Variable,
    _is_exact_integer, children, op_of, post_order, record,
)

__all__ = ["DerivativeResult", "differentiate", "simplify"]


@record
class DerivativeResult:
    raw: Expr
    simplified: Expr


def differentiate(e: Expr) -> DerivativeResult:
    """The rule output for e, and its simplification.  One loop over
    post_order(e) gives each distinct node its derivative from its
    operands' (`_d`), so depth is unbounded and a shared subtree is
    differentiated once."""
    d: dict[int, Expr] = {}  # by id: e holds every node, so ids stay unique
    for node, kids in post_order(e):
        d[id(node)] = _d(node, *[d[id(k)] for k in kids])
    raw = d[id(e)]
    return DerivativeResult(raw=raw, simplified=simplify(raw))


def _d(e: Expr, da: Expr | None = None, db: Expr | None = None) -> Expr:
    """The derivative of e by its rule, given the derivatives da and db of
    its operands, in children(e) order."""
    if isinstance(e, Constant):
        return Constant(0)
    if isinstance(e, Variable):
        return Constant(1)
    if isinstance(e, Neg):
        return Neg(da)
    if isinstance(e, Add):
        return Add(da, db)
    if isinstance(e, Sub):
        return Sub(da, db)
    if isinstance(e, Mul):
        return Add(Mul(da, e.right), Mul(e.left, db))
    if isinstance(e, Div):
        num = Sub(Mul(da, e.right), Mul(e.left, db))
        return Div(num, Pow(e.right, Constant(2)))
    if isinstance(e, Pow):
        u, v = e.base, e.exponent
        if isinstance(v, Constant):
            return Mul(Mul(v, Pow(u, Constant(v.value - 1.0))), da)
        # general exponent: u^v * (v' ln u + v u'/u)
        return Mul(e, Add(Mul(db, Func("ln", u)), Mul(v, Div(da, u))))
    assert isinstance(e, Func)
    u, du = e.arg, da
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


# --------------------------------------------------------------------------
# simplification

def simplify(e: Expr) -> Expr:
    """Apply the domain-preserving rewrites until none applies, in one loop
    over post_order(e), so depth is unbounded.  Each distinct node is
    rebuilt from its simplified operands, then settled (`_settle`); a shared
    subtree is simplified once."""
    done: dict[int, Expr] = {}  # by id: e holds every node, so ids stay unique
    for node, kids in post_order(e):
        key = id(node)
        if kids:
            a, b = kids[0], kids[-1]  # b is a for a unary node
            a2, b2 = done[id(a)], done[id(b)]
            if a2 is not a or b2 is not b:
                kids = (a2, b2)[:len(kids)]
                node = Func(node.name, a2) if isinstance(node, Func) else type(node)(*kids)
            node = _settle(node, kids)
        done[key] = node
    return done[id(e)]


def is_everywhere_defined(e: Expr) -> bool:
    """Conservative syntactic check that e is defined for every real x: each
    operation is total, or a power with a positive integer constant exponent."""
    stack = [e]
    while stack:
        node = stack.pop()
        if OPS[op_of(node)].reason is not None and _positive_int_exponent(node) is None:
            return False
        stack.extend(children(node))
    return True


def _positive_int_exponent(e: Expr) -> float | None:
    if isinstance(e, Pow) and isinstance(e.exponent, Constant):
        c = e.exponent.value
        if _is_exact_integer(c) and c >= 1.0:
            return c
    return None


def _fold_constant(e: Expr, kids: tuple[Expr, ...]) -> Expr | None:
    """Fold e's operation on its simplified operands `kids` when they are
    all constants and the operation is defined there."""
    for k in kids:
        if not isinstance(k, Constant):
            return None
    v = OPS[op_of(e)].value(*[k.value for k in kids])  # type: ignore[attr-defined]
    return None if v is None else Constant(v)


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Constant) and e.value == v


def _rewrite(e: Expr) -> Expr:
    if isinstance(e, Neg) and isinstance(e.arg, Neg):
        return e.arg.arg
    if isinstance(e, Add):
        if _is_const(e.right, 0.0):
            return e.left
        if _is_const(e.left, 0.0):
            return e.right
    if isinstance(e, Sub):
        if _is_const(e.right, 0.0):
            return e.left
        if _is_const(e.left, 0.0):
            return Neg(e.right)
    if isinstance(e, Mul):
        if _is_const(e.right, 1.0):
            return e.left
        if _is_const(e.left, 1.0):
            return e.right
        # 0 * u == 0 only when u cannot be undefined anywhere
        if _is_const(e.right, 0.0) and is_everywhere_defined(e.left):
            return Constant(0)
        if _is_const(e.left, 0.0) and is_everywhere_defined(e.right):
            return Constant(0)
        # u^a * u^b -> u^(a+b) for positive integer exponents
        a = _positive_int_exponent(e.left)
        b = _positive_int_exponent(e.right)
        if a is not None and b is not None and e.left.base == e.right.base:  # type: ignore[union-attr]
            return Pow(e.left.base, Constant(a + b))  # type: ignore[union-attr]
    if isinstance(e, Div) and _is_const(e.right, 1.0):
        return e.left
    if isinstance(e, Pow):
        if _is_const(e.exponent, 1.0):
            return e.base
        # (u^a)^b -> u^(a*b) for positive integer exponents
        b = _positive_int_exponent(e)
        if b is not None:
            a = _positive_int_exponent(e.base)
            if a is not None:
                return Pow(e.base.base, Constant(a * b))  # type: ignore[union-attr]
    return e


def _settle(e: Expr, kids: tuple[Expr, ...]) -> Expr:
    """Fold or rewrite e, whose operands `kids` are simplified, until no
    rule applies.  A rewrite keeps only simplified subtrees, or wraps them
    in one new node, so only the top needs another look."""
    while kids:
        folded = _fold_constant(e, kids)
        if folded is not None:
            return folded
        rewritten = _rewrite(e)
        if rewritten is e:
            return e
        e = rewritten
        kids = children(e)
    return e

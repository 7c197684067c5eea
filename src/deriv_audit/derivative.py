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
    simplified: Expr


def differentiate(e: Expr) -> DerivativeResult:
    """The rule output for e, simplified as it is built: one loop over
    post_order(e) settles each distinct node (`_rebuilt`) and derives it
    from its operands (`_d`), so no unsimplified rule tree is built, depth
    is unbounded and a shared subtree is differentiated once."""
    s: dict[int, Expr] = {}  # by id: e holds every node, so ids stay unique
    d: dict[int, Expr] = {}
    for node, kids in post_order(e):
        s[id(node)] = _rebuilt(node, kids, s)
        d[id(node)] = _d(node, kids, s, d)
    return DerivativeResult(d[id(e)])


def _d(e: Expr, kids: tuple[Expr, ...], s: dict[int, Expr], d: dict[int, Expr]) -> Expr:
    """The derivative of e by its rule, each node settled as it is built
    from settled parts: e and its operands `kids` as simplified in `s`,
    their derivatives in `d` (both by id).  The rule is picked by e's shape,
    not its settled one: `x^(1+1)` keeps the general rule and ln(x)'s hole."""
    if not kids:
        return Constant(1 if isinstance(e, Variable) else 0)
    a, da = s[id(kids[0])], d[id(kids[0])]
    b, db = s[id(kids[-1])], d[id(kids[-1])]  # b is a for a unary node
    if isinstance(e, Neg):
        return _settle(Neg(da))
    if isinstance(e, Add):
        return _settle(Add(da, db))
    if isinstance(e, Sub):
        return _settle(Sub(da, db))
    if isinstance(e, Mul):
        return _settle(Add(_settle(Mul(da, b)), _settle(Mul(a, db))))
    if isinstance(e, Div):
        num = _settle(Sub(_settle(Mul(da, b)), _settle(Mul(a, db))))
        return _settle(Div(num, _settle(Pow(b, Constant(2)))))
    if isinstance(e, Pow):
        if isinstance(e.exponent, Constant):
            return _settle(Mul(_settle(Mul(b, _settle(Pow(a, Constant(b.value - 1.0))))), da))
        # general exponent: u^v * (v' ln u + v u'/u)
        ln_term = _settle(Mul(db, _settle(Func("ln", a))))
        return _settle(Mul(s[id(e)], _settle(Add(ln_term, _settle(Mul(b, _settle(Div(da, a))))))))
    assert isinstance(e, Func)
    u, du = a, da
    if e.name == "sin":
        return _settle(Mul(_settle(Func("cos", u)), du))
    if e.name == "cos":
        return _settle(Mul(_settle(Neg(_settle(Func("sin", u)))), du))
    if e.name == "tan":
        return _settle(Div(du, _settle(Pow(_settle(Func("cos", u)), Constant(2)))))
    if e.name == "exp":
        return _settle(Mul(_settle(Func("exp", u)), du))
    if e.name == "ln":
        return _settle(Div(du, u))
    if e.name == "sqrt":
        return _settle(Div(du, _settle(Mul(Constant(2), _settle(Func("sqrt", u))))))
    if e.name == "cbrt":
        # denominator form on purpose: the hole at u = 0 must surface as a
        # division by zero, not hide inside a fractional power
        root = _settle(Func("cbrt", _settle(Pow(u, Constant(2)))))
        return _settle(Div(du, _settle(Mul(Constant(3), root))))
    assert e.name == "abs"
    # u/abs(u) rather than sign(u): the corner at u = 0 stays visible
    return _settle(Div(_settle(Mul(du, u)), _settle(Func("abs", u))))


# --------------------------------------------------------------------------
# simplification

def simplify(e: Expr) -> Expr:
    """Apply the domain-preserving rewrites until none applies, in one loop
    over post_order(e), so depth is unbounded.  Each distinct node is
    rebuilt from its simplified operands and settled (`_rebuilt`); a shared
    subtree is simplified once."""
    done: dict[int, Expr] = {}  # by id: e holds every node, so ids stay unique
    for node, kids in post_order(e):
        done[id(node)] = _rebuilt(node, kids, done)
    return done[id(e)]


def _rebuilt(node: Expr, kids: tuple[Expr, ...], done: dict[int, Expr]) -> Expr:
    """node rebuilt from its operands `kids` as simplified in `done` (by
    id), then settled.  A node whose operands are unchanged is kept."""
    if not kids:
        return node
    a, b = done[id(kids[0])], done[id(kids[-1])]  # b is a for a unary node
    if a is not kids[0] or b is not kids[-1]:
        node = Func(node.name, a) if isinstance(node, Func) else type(node)(*(a, b)[:len(kids)])
    return _settle(node)


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
    return None if v != v else Constant(v)


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Constant) and e.value == v


def _rewrite(e: Expr) -> Expr:
    if isinstance(e, Neg) and isinstance(e.arg, Neg):
        return e.arg.arg
    if isinstance(e, (Add, Sub)) and _is_const(e.right, 0.0):
        return e.left
    if isinstance(e, Add) and _is_const(e.left, 0.0):
        return e.right
    if isinstance(e, Sub) and _is_const(e.left, 0.0):
        return Neg(e.right)
    if isinstance(e, (Mul, Div)) and _is_const(e.right, 1.0):
        return e.left
    if isinstance(e, Mul):
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


def _settle(e: Expr) -> Expr:
    """Fold or rewrite e, whose operands are simplified, until no rule
    applies.  A rewrite keeps only simplified subtrees, or wraps them in
    one new node, so only the top needs another look."""
    while kids := children(e):
        folded = _fold_constant(e, kids)
        if folded is not None:
            return folded
        rewritten = _rewrite(e)
        if rewritten is e:
            return e
        e = rewritten
    return e

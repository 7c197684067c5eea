"""Expression trees over a single real variable, with a parser, a formatter
and a total evaluator that reports *why* a value is undefined instead of
raising.

Definedness follows real-number semantics: cbrt is total and odd, sqrt needs
a nonnegative argument, ln a positive one, division a nonzero denominator,
and a negative base may only be raised to an exact integer power.  Floating
overflow is saturated to a huge finite value; it never masquerades as an
undefined point.
"""

from __future__ import annotations

import enum
import math
import operator
import re
from collections import namedtuple
from collections.abc import Callable
from itertools import repeat

__all__ = [
    "Expr", "Constant", "Variable", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
    "Func", "FUNCTION_NAMES", "X",
    "UndefinedReason", "EvalOutcome", "Interval", "ParseError",
    "parse", "format_expr", "evaluate", "format_number", "Tape", "lower",
    "Op", "OPS", "op_of", "post_order", "record",
]

FUNCTION_NAMES = frozenset({"sin", "cos", "tan", "exp", "ln", "sqrt", "cbrt", "abs"})

# Overflow saturates here; definedness is a domain property, never a
# magnitude artifact.
HUGE = 1.7976931348623157e308
NAN = math.nan


class _Record:
    """What a record adds to its tuple: it equals only a record of its own
    type with equal fields, hashes as its fields, and is always true."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:  # else tuple.__ne__ would win
        return not self == other

    __hash__ = tuple.__hash__

    def __bool__(self) -> bool:
        return True


def record(cls: type) -> type:
    """The one way to declare a record: cls rebuilt as an immutable
    subclass of a collections.namedtuple of its annotated fields, with
    their defaults, and of its own base class, so its methods are kept.
    The repr is `Name(field=value, ...)`.  A `__new__` that validates
    builds the instance with `tuple.__new__(cls, fields)`: zero-argument
    super() does not reach the rebuilt class.  As in a dataclass, a field
    without a default may not follow one with a default."""
    ns = dict(vars(cls))
    names = tuple(cls.__annotations__)
    defaulted = tuple(name for name in names if name in ns)
    if names[len(names) - len(defaulted):] != defaulted:
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    defaults = [ns.pop(name) for name in defaulted]
    del ns["__dict__"], ns["__weakref__"]
    ns["__slots__"] = ()
    bases = [b for b in cls.__bases__ if b is not object]
    return type(cls.__name__, (*bases, _Record, namedtuple(cls.__name__, names, defaults=defaults)), ns)


class Expr:
    """Base class for immutable expression tree nodes.  Equality, the hash
    and the repr are structural, and each walks the tree without recursion."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_expr(self)

    def __repr__(self) -> str:
        """The record repr, as in `Add(left=Variable(), right=Constant(value=1.0))`."""
        return _emit(self, _repr_pieces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            return False  # not NotImplemented: tuple.__eq__ would compare fields
        pairs = [(self, other)]
        seen = set()  # by id: self and other hold every node, so ids stay unique
        while pairs:
            a, b = pairs.pop()
            if a is b or (key := (id(a), id(b))) in seen:
                continue
            seen.add(key)
            if op_of(a) != op_of(b) or isinstance(a, Constant) and a.value != b.value:
                return False
            pairs += zip(children(a), children(b))
        return True

    def __hash__(self) -> int:
        h: dict[int, int] = {}  # by id: self holds every node, so ids stay unique
        for node, kids in post_order(self):
            leaf = node.value if isinstance(node, Constant) else None
            h[id(node)] = hash((op_of(node), leaf, *[h[id(k)] for k in kids]))
        return h[id(self)]


@record
class Constant(Expr):
    value: float

    def __new__(cls, value):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"constant must be finite, got {value!r}")
        return tuple.__new__(cls, (v,))


@record
class Variable(Expr):
    pass


@record
class Neg(Expr):
    arg: Expr


@record
class Add(Expr):
    left: Expr
    right: Expr


@record
class Sub(Expr):
    left: Expr
    right: Expr


@record
class Mul(Expr):
    left: Expr
    right: Expr


@record
class Div(Expr):
    left: Expr
    right: Expr


@record
class Pow(Expr):
    base: Expr
    exponent: Expr


@record
class Func(Expr):
    name: str
    arg: Expr

    def __new__(cls, name, arg):
        if name not in FUNCTION_NAMES:
            raise ValueError(f"unknown function name {name!r}")
        return tuple.__new__(cls, (name, arg))


#: The single free variable.
X = Variable()


def children(e: Expr) -> tuple[Expr, ...]:
    t = type(e)
    if t is Constant or t is Variable:
        return ()
    if t is Neg or t is Func:
        return (e.arg,)  # type: ignore[attr-defined]
    if t is Pow:
        return (e.base, e.exponent)  # type: ignore[attr-defined]
    return (e.left, e.right)  # type: ignore[attr-defined]


def post_order(e: Expr) -> list[tuple[Expr, tuple[Expr, ...]]]:
    """(node, operands) for each distinct node of e, leaves included, each
    after its operands, left to right: the one walk over a tree, for
    lowering, differentiating, simplifying and hashing, on an
    explicit stack, so depth is unbounded."""
    order = []
    seen = set()
    stack: list = [e]
    while stack:
        node = stack.pop()
        if node is None:  # the entry below has all its operands in order
            order.append(stack.pop())
        elif (i := id(node)) not in seen:
            seen.add(i)
            kids = children(node)
            if kids:
                stack += ((node, kids), None, *reversed(kids))
            else:
                order.append((node, kids))
    return order


class UndefinedReason(enum.Enum):
    DIV_BY_ZERO = "division by zero"
    EVEN_ROOT_OF_NEGATIVE = "even root of a negative number"
    LOG_NON_POSITIVE = "logarithm of a non-positive number"
    POW_NEGATIVE_BASE = "non-integer power of a negative base"
    TAN_POLE = "tangent pole"


@record
class EvalOutcome:
    """Either a finite real value or the reason the expression has none."""

    value: float | None = None
    reason: UndefinedReason | None = None

    @property
    def is_defined(self) -> bool:
        return self.reason is None


@record
class Interval:
    lo: float
    hi: float

    def __new__(cls, lo, hi):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if lo > hi:
            raise ValueError(f"interval requires lo <= hi, got [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))


# --------------------------------------------------------------------------
# evaluation


def cbrt(v: float) -> float:
    # math.cbrt only exists from 3.11 on; copysign keeps this exactly odd.
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _sat(v: float) -> float:
    return math.copysign(HUGE, v) if math.isinf(v) else v


def _is_exact_integer(v: float) -> bool:
    return v == round(v)


def _pow_value(a: float, b: float) -> float | None:
    """Real power a**b, or None where it is undefined: 0**0 and 0**negative
    (a division by zero) and a non-integer power of a negative base."""
    if a > 0.0:
        try:
            return _sat(math.pow(a, b))
        except OverflowError:
            return HUGE
    if a == 0.0:
        return 0.0 if b > 0.0 else None
    if not _is_exact_integer(b):
        return None
    try:
        return _sat(math.pow(a, b))
    except OverflowError:
        return -HUGE if b % 2.0 == 1.0 else HUGE


def _exp(u: float) -> float:
    try:
        return math.exp(u)
    except OverflowError:
        return HUGE


@record
class Op:
    value: Callable | None  # at defined operands; None where undefined
    reason: UndefinedReason | None  # why it can be undefined; None if total
    column: Callable | None  # see _column; None where only `value` is exact
    interval: Callable | None  # see Tape.enclose


# Column forms.  Inside a Tape.columns sweep NaN marks an undefined value:
# constants and points are finite and every op saturates, so no defined value
# is NaN.  A column form maps C-level builtins over whole operand columns,
# which carries NaN through.  Where it could differ from `value` it raises
# (OverflowError from exp and ^, ValueError from a domain error in sqrt, ln
# and ^) or returns None (an inf to saturate, a ^ whose exponent is not a
# positive constant); `value` then computes that column point by point, as
# it does every column of tan.  A zero denominator is made NaN first.


def _no_inf(col: list[float]) -> list[float] | None:
    """col, or None if an entry overflowed to +-inf and must saturate."""
    return col if math.isfinite(sum(col)) or not any(map(math.isinf, col)) else None


def _div_column(u: list[float], v: list[float]) -> list[float] | None:
    if 0.0 in v:  # u/0 is undefined: NaN instead of ZeroDivisionError
        v = [NAN if d == 0.0 else d for d in v]
    return _no_inf(list(map(operator.truediv, u, v)))


def _pow_column(u: list[float], v: list[float]) -> list[float] | None:
    # Only a positive constant exponent: math.pow(nan, 0), math.pow(1, nan)
    # and math.pow(0, 0) are 1.0 where the tape is undefined.
    p = v[0] if v else 0.0
    if not p > 0.0 or v.count(p) != len(v):
        return None
    col = list(map(math.pow, u, repeat(p)))
    if p % 2.0 == 1.0 and 0.0 in u:  # math.pow(-0.0, odd) is -0.0; 0^p is +0.0
        col = [0.0 if a == 0.0 else r for a, r in zip(u, col)]
    return col


# Interval forms.  Each maps operand enclosures (lo, hi) to an enclosure of
# every value `value` gives at operands inside them, or to None where it may
# be undefined or saturate there.  IEEE arithmetic and sqrt round
# monotonically, so the results at the ends bound every result between them.
# libm is only faithful, so its results are widened outward by two ulps.
# No bound is infinite or NaN: where one would be, the form gives None.

_INF = math.inf
# Beyond this |x|, sin, cos and tan are bounded without locating their
# extrema and poles: the rounding of x/pi is then too coarse to trust.
_TRIG_REACH = 2.0 ** 20
_TAU = 2.0 * math.pi


def _bounded(lo: float, hi: float) -> tuple[float, float] | None:
    return (lo, hi) if -HUGE <= lo and hi <= HUGE else None


def _widened(lo: float, hi: float) -> tuple[float, float] | None:
    return _bounded(math.nextafter(math.nextafter(lo, -_INF), -_INF),
                    math.nextafter(math.nextafter(hi, _INF), _INF))


def _monotone(fn: Callable) -> Callable:
    """The interval form of an increasing libm function; None where it
    overflows or meets a domain error (ln of a non-positive number)."""
    def form(u):
        try:
            return _widened(fn(u[0]), fn(u[1]))
        except (OverflowError, ValueError):
            return None
    return form


def _may_hold(a: float, b: float, c: float, period: float) -> bool:
    """Whether [a, b] may hold a point c + k*period: k is bracketed with a
    margin far wider than the rounding of (a - c)/period below _TRIG_REACH."""
    return math.floor((b - c) / period + 1e-9) >= math.ceil((a - c) / period - 1e-9)


def _periodic(fn: Callable, peak: float) -> Callable:
    """The interval form of sin or cos, whose maxima are at peak + 2k*pi
    and minima at peak + pi + 2k*pi."""
    def form(u):
        a, b = u
        if b - a >= _TAU or max(-a, b) > _TRIG_REACH:
            return _widened(-1.0, 1.0)
        lo, hi = sorted((fn(a), fn(b)))
        if _may_hold(a, b, peak, _TAU):
            hi = 1.0
        if _may_hold(a, b, peak + math.pi, _TAU):
            lo = -1.0
        return _widened(lo, hi)
    return form


def _tan_interval(u):
    a, b = u  # increasing between poles, which sit at pi/2 + k*pi
    if b - a >= math.pi or max(-a, b) > _TRIG_REACH or _may_hold(a, b, 0.5 * math.pi, math.pi):
        return None
    return _widened(math.tan(a), math.tan(b))


def _mul_interval(u, v):
    ends = (u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1])
    return _bounded(min(ends), max(ends))


def _div_interval(u, v):
    if v[0] <= 0.0 <= v[1]:
        return None
    ends = (u[0] / v[0], u[0] / v[1], u[1] / v[0], u[1] / v[1])
    return _bounded(min(ends), max(ends))


def _pow_interval(u, v):
    # See _pow_value.  Over a base above 0, a ^ b is monotone in each
    # operand, so the corner powers bound it.  A constant exponent p also
    # allows other bases: a ^ p is monotone on each side of 0, and an even
    # power has its least value 0 at 0.
    a, b = u
    p, q = v
    if p != q and a <= 0.0 or a <= 0.0 <= b and p <= 0.0 or a < 0.0 and not _is_exact_integer(p):
        return None
    try:
        ends = [math.pow(a, p), math.pow(a, q), math.pow(b, p), math.pow(b, q)]
    except OverflowError:
        return None
    lo, hi = min(ends), max(ends)
    if a < 0.0 < b and p % 2.0 == 0.0:
        lo = 0.0
    return _widened(lo, hi)


def _abs_interval(u):
    a, b = u
    if a >= 0.0:
        return u
    return (-b, -a) if b <= 0.0 else (0.0, max(-a, b))


#: The single definition of each operation, read by the tape, the undefined
#: reason and the simplifier.  A leaf ("c" a constant, "x" the variable) has
#: no value function.  A power's reason depends on its base, see
#: _pow_value and Tape.reason: 0^0 and 0^negative are a division by zero.
OPS: dict[str, Op] = {
    "c": Op(None, None, None, None), "x": Op(None, None, None, None),
    "neg": Op(operator.neg, None, lambda u: list(map(operator.neg, u)), lambda u: (-u[1], -u[0])),
    "+": Op(lambda u, v: _sat(u + v), None, lambda u, v: _no_inf(list(map(operator.add, u, v))),
            lambda u, v: _bounded(u[0] + v[0], u[1] + v[1])),
    "-": Op(lambda u, v: _sat(u - v), None, lambda u, v: _no_inf(list(map(operator.sub, u, v))),
            lambda u, v: _bounded(u[0] - v[1], u[1] - v[0])),
    "*": Op(lambda u, v: _sat(u * v), None, lambda u, v: _no_inf(list(map(operator.mul, u, v))),
            _mul_interval),
    "/": Op(lambda u, v: None if v == 0.0 else _sat(u / v), UndefinedReason.DIV_BY_ZERO,
            _div_column, _div_interval),
    "^": Op(_pow_value, UndefinedReason.POW_NEGATIVE_BASE, _pow_column, _pow_interval),
    "sin": Op(math.sin, None, lambda u: list(map(math.sin, u)), _periodic(math.sin, 0.5 * math.pi)),
    "cos": Op(math.cos, None, lambda u: list(map(math.cos, u)), _periodic(math.cos, 0.0)),
    "exp": Op(_exp, None, lambda u: list(map(math.exp, u)), _monotone(math.exp)),
    "cbrt": Op(cbrt, None,  # pow(a, b) is a ** b, as in cbrt
               lambda u: list(map(math.copysign, map(pow, map(abs, u), repeat(1.0 / 3.0)), u)),
               _monotone(cbrt)),
    "abs": Op(abs, None, lambda u: list(map(abs, u)), _abs_interval),
    # tan is undefined only where the argument hits a pole exactly in floats
    "tan": Op(lambda u: None if math.cos(u) == 0.0 else _sat(math.tan(u)),
              UndefinedReason.TAN_POLE, None, _tan_interval),
    "ln": Op(lambda u: None if u <= 0.0 else math.log(u), UndefinedReason.LOG_NON_POSITIVE,
             lambda u: list(map(math.log, u)), _monotone(math.log)),
    "sqrt": Op(lambda u: None if u < 0.0 else math.sqrt(u),
               UndefinedReason.EVEN_ROOT_OF_NEGATIVE, lambda u: list(map(math.sqrt, u)),
               lambda u: None if u[0] < 0.0 else (math.sqrt(u[0]), math.sqrt(u[1]))),
}


def _column(op: str, args: tuple[list[float], ...]) -> list[float]:
    """op over the operand columns args, NaN where it is undefined: its
    column form where that is exact, else its value at each point."""
    fn, _, form, _ = OPS[op]
    if form is not None:
        try:
            col = form(*args)
        except (OverflowError, ValueError):
            col = None
        if col is not None:
            return col
    if len(args) == 1:
        return [NAN if u != u or (r := fn(u)) is None else r for u in args[0]]
    return [NAN if u != u or v != v or (r := fn(u, v)) is None else r for u, v in zip(*args)]


_OP_OF_CLASS = {Constant: "c", Variable: "x", Neg: "neg", Add: "+", Sub: "-", Mul: "*",
                Div: "/", Pow: "^"}


def op_of(e: Expr) -> str:
    """The key in OPS of e's operation."""
    return e.name if isinstance(e, Func) else _OP_OF_CLASS[type(e)]


class Tape:
    """An expression lowered to a post-order sequence of slots.  Slot i,
    `code[i] = (op, fn, a, b)`, applies fn, `OPS[op].value`, to the values of
    earlier slots a and b (b is None for a unary op; a leaf has no fn, and a
    constant holds its value in a), so one forward sweep evaluates the
    expression and the last slot is the root.  Equal subtrees share a slot,
    `nodes[i]` is slot i's subtree, and a value is a float or None where it
    is undefined (NaN in a column).
    """

    __slots__ = ("code", "nodes", "root")

    def __init__(self, code: list[tuple], nodes: list[Expr]):
        self.code, self.nodes, self.root = code, nodes, len(code) - 1

    def operands(self, i: int) -> tuple[int, ...]:
        op, _, a, b = self.code[i]
        return () if op == "c" or op == "x" else (a,) if b is None else (a, b)

    def run(self, x: float) -> list[float | None]:
        """Every slot's value at x."""
        vals: list[float | None] = []
        push = vals.append
        for op, fn, a, b in self.code:
            if fn is None:  # a leaf
                push(x if op == "x" else a)
            elif b is None:
                u = vals[a]
                push(None if u is None else fn(u))
            else:
                u, v = vals[a], vals[b]
                push(None if u is None or v is None else fn(u, v))
        return vals

    def value(self, x: float) -> float | None:
        return self.run(x)[-1]

    def outcome(self, x: float) -> EvalOutcome:
        vals = self.run(x)
        return EvalOutcome(vals[-1], self.reason(vals, self.root))

    def reason(self, vals: list[float | None], slot: int) -> UndefinedReason | None:
        """Why `slot` is undefined in a run: the violation at the shallowest
        node of its subtree, leftmost on a tie; None if it is defined.
        Undefinedness reaches every ancestor, so a breadth-first walk over
        undefined slots, left to right, meets the violations in that order;
        a shared slot is walked at its first, shallowest occurrence only."""
        level = [slot] if vals[slot] is None else []
        seen = set(level)
        while level:
            deeper = []
            for i in level:
                op, _, a, b = self.code[i]
                u, v = vals[a], None if b is None else vals[b]
                if op == "/" and v == 0.0:
                    return UndefinedReason.DIV_BY_ZERO
                if u is not None and (b is None or v is not None):  # the op's own domain
                    return UndefinedReason.DIV_BY_ZERO if op == "^" and u == 0.0 else OPS[op].reason
                for k in self.operands(i):
                    if vals[k] is None and k not in seen:
                        seen.add(k)
                        deeper.append(k)
            level = deeper
        return None

    def culprit(self, vals: list[float | None]) -> tuple[Expr, UndefinedReason | None]:
        """Smallest undefined subexpression in a run (leftmost if tied), and why."""
        i = self.root
        while (k := next((k for k in self.operands(i) if vals[k] is None), None)) is not None:
            i = k
        return self.nodes[i], self.reason(vals, i)

    def columns(self, xs: list[float], keep=()) -> list[list | None]:
        """Each slot's values at the finite points xs, in one sweep, a
        column at a time (see _column).  Only the root's column and those of
        the slots in `keep` are returned, with NaN where undefined (no
        defined value is NaN, so `v != v` tests it); every other one is
        dropped (None) after its last reader, so few are alive."""
        keep = {*keep, self.root}
        last_read = {k: i for i in range(len(self.code)) for k in self.operands(i)}
        cols: list[list | None] = []
        for i, (op, fn, a, b) in enumerate(self.code):
            if fn is None:
                cols.append(xs if op == "x" else [a] * len(xs))
            else:
                cols.append(_column(op, (cols[a],) if b is None else (cols[a], cols[b])))
            for k in self.operands(i):
                if last_read[k] == i and k not in keep:
                    cols[k] = None
        return cols

    def enclose(self, lo: float, hi: float) -> list[tuple[float, float] | None]:
        """Each slot's enclosure (l, h) of every value it takes at the
        points of [lo, hi], in one sweep of the operations' interval forms
        (see OPS), or None where the slot is uncertified: it may be
        undefined or saturate somewhere there, or it is a ^ whose exponent
        varies over a base that reaches 0 or below, or it reads an
        uncertified slot.  An enclosure also holds each value that `columns`
        and `run` compute there."""
        encs: list[tuple[float, float] | None] = []
        push = encs.append
        for op, fn, a, b in self.code:
            if fn is None:  # a leaf
                push((lo, hi) if op == "x" else (a, a))
            elif b is None:
                u = encs[a]
                push(None if u is None else OPS[op].interval(u))
            else:
                u, v = encs[a], encs[b]
                push(None if u is None or v is None else OPS[op].interval(u, v))
        return encs

    def domain_slots(self) -> list[int]:
        """Slots whose zeros or sign can make the expression undefined:
        denominators and the arguments of sqrt and ln."""
        return list({b if op == "/" else a: None
                     for op, _, a, b in self.code if op in ("/", "sqrt", "ln")})


def lower(e: Expr) -> Tape:
    """Lower e to a Tape over post_order(e); equal subtrees share a slot."""
    code: list[tuple] = []
    nodes: list[Expr] = []
    slot_of_id: dict[int, int] = {}  # e holds every node, so ids stay unique
    slot_of_key: dict[tuple, int] = {}
    for node, kids in post_order(e):
        op = op_of(node)
        if op == "c":
            entry = ("c", None, node.value, None)
            key = ("c", node.value, math.copysign(1.0, node.value))  # keeps -0.0 apart
        else:
            slots = [slot_of_id[id(k)] for k in kids] + [None, None]
            entry = key = (op, OPS[op].value, slots[0], slots[1])
        slot = slot_of_key.setdefault(key, len(code))
        if slot == len(code):
            code.append(entry)
            nodes.append(node)
        slot_of_id[id(node)] = slot
    return Tape(code, nodes)


def evaluate(e: Expr, x: float) -> EvalOutcome:
    """Evaluate e at x.  Total: undefinedness is reported, never raised.

    When several subexpressions are undefined at x, the reported reason
    belongs to the shallowest violating node, ties broken left to right.
    """
    return lower(e).outcome(x)


# --------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """Syntax error carrying the byte offset of the offending input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


@record
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


#: Each binary operator's node class and binding level, and the least levels
#: its left and right operands need without parentheses.  Levels: 1 add/sub,
#: 2 mul/div, 3 unary minus, 4 power, 5 atoms; so ^ is right-associative and
#: its exponent may be a unary minus.
_BINARY = {"+": (Add, 1, 1, 2), "-": (Sub, 1, 1, 2), "*": (Mul, 2, 2, 3),
           "/": (Div, 2, 2, 3), "^": (Pow, 4, 5, 3)}
_LEVEL_UNARY, _LEVEL_ATOM = 3, 5
#: The least levels of each operator's operands; a call's argument has none.
_LEAST = {"neg": (_LEVEL_UNARY,), **{op: row[2:] for op, row in _BINARY.items()}}


def parse(text: str) -> Expr:
    """Precedence climbing on an explicit operand and operator stack, so
    depth is unbounded.  The grammar:

    expr  := term (("+"|"-") term)*
    term  := unary (("*"|"/") unary)*
    unary := "-" unary | power
    power := atom ("^" unary)?
    atom  := number | variable | funcname "(" expr ")" | "(" expr ")"
    """
    tokens = _tokenize(text)
    operands: list[Expr] = []
    # (level, Neg or a binary node class), or (0, the token opening a group);
    # the whole text is the group opened by None
    pending: list[tuple[int, object]] = [(0, None)]
    variable = None
    i = 0
    while True:
        # an operand: unary minuses and group openings, then an atom
        tok = tokens[i]
        i += 1
        if tok.text == "-":
            pending.append((_LEVEL_UNARY, Neg))
            continue
        if tok.text == "(" or tok.kind == "ident" and tokens[i].text == "(":
            if tok.kind == "ident":
                if tok.text not in FUNCTION_NAMES:
                    raise ParseError(f"unknown function name {tok.text!r}", tok.pos)
                i += 1
            pending.append((0, tok))
            continue
        if tok.kind == "number":
            if not math.isfinite(float(tok.text)):
                raise ParseError(f"number {tok.text!r} is too large", tok.pos)
            operands.append(Constant(float(tok.text)))
        elif tok.kind == "ident":
            if tok.text in FUNCTION_NAMES:
                raise ParseError(f"expected '(' after function name {tok.text!r}", tokens[i].pos)
            if variable is None:
                variable = tok.text
            elif tok.text != variable:
                raise ParseError(
                    f"multiple distinct variable names: {variable!r} and {tok.text!r}", tok.pos)
            operands.append(X)
        else:
            raise ParseError(
                f"expected a number, variable, function call or '(', found {tok.text or 'end of input'!r}",
                tok.pos,
            )
        # group closings, up to a binary operator or the end
        while True:
            tok = tokens[i]
            i += 1
            cls, level, least, _ = _BINARY.get(tok.text, (None, 0, 1, 0))
            while pending[-1][0] >= least:  # complete what binds tighter
                _, op = pending.pop()
                b = operands.pop()
                operands.append(Neg(b) if op is Neg else op(operands.pop(), b))
            if cls is not None:
                pending.append((level, cls))
                break
            _, opener = pending.pop()
            if opener is None:
                if tok.kind != "end":
                    raise ParseError(f"expected end of input, found {tok.text!r}", tok.pos)
                return operands[0]
            if tok.text != ")":
                raise ParseError(f"expected ')', found {tok.text or 'end of input'!r}", tok.pos)
            if opener.kind == "ident":
                operands.append(Func(opener.text, operands.pop()))


# --------------------------------------------------------------------------
# formatting

def format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _level(e: Expr) -> int:
    """The binding level of e's text; see _BINARY."""
    op = op_of(e)
    if op in _BINARY:
        return _BINARY[op][1]
    # no negative literals in the grammar: "-3" re-parses as a negation
    return _LEVEL_UNARY if op == "neg" or op == "c" and e.value < 0 else _LEVEL_ATOM


def _format_pieces(e: Expr) -> list:
    op = op_of(e)
    if op == "c":
        return [format_number(e.value)]
    if op == "x":
        return ["x"]
    # each operand, in parentheses where it binds looser than its place allows
    kids, least = children(e), _LEAST.get(op, (0,))
    a = ["(", kids[0], ")"] if _level(kids[0]) < least[0] else [kids[0]]
    if op == "neg":
        return ["-", *a]
    if op not in _BINARY:
        return [op + "(", *a, ")"]
    b = ["(", kids[1], ")"] if _level(kids[1]) < least[1] else [kids[1]]
    return [*a, op, *b]


def _repr_pieces(e: Expr) -> list:
    text: list = [type(e).__qualname__, "("]
    for k, (name, v) in enumerate(zip(e._fields, e)):
        text += [", " * (k > 0), name, "=", v if isinstance(v, Expr) else repr(v)]
    return [*text, ")"]


def _emit(e: Expr, pieces: Callable[[Expr], list]) -> str:
    """e's text, written left to right from one stack; pieces(node) is a
    node's text as strings and operand nodes.  A node's first text is kept
    as a span of the output, which its later parents take, joined once,
    without walking it again: linear in the text's length at any depth."""
    out: list[str] = []
    spans: dict[int, tuple[int, int] | str] = {}  # by id: e holds every node
    stack: list = [e]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif type(item) is tuple:  # (id, start): the end of a node's text
            spans[item[0]] = item[1], len(out)
        elif (span := spans.get(i := id(item))) is None:
            stack.append((i, len(out)))
            stack += reversed(pieces(item))
        else:
            if type(span) is tuple:
                span = spans[i] = "".join(out[span[0]:span[1]])
            out.append(span)
    return "".join(out)


def format_expr(e: Expr) -> str:
    """Render e with minimal parentheses; parse(format_expr(e)) == e."""
    return _emit(e, _format_pieces)

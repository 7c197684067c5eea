"""Workload inputs, generated from a seed.

The program receives only what this module produces: expression text,
interval endpoints, grid sizes and points.  The random-tree generator is the
benchmark's own copy of the test suite's grammar (``tests/helpers.py``), so
an edit to the tests cannot shift a workload.  Which trees a seed keeps is
decided from the tree itself, never from the program's output, so the same
seed gives the same inputs on every version of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from deriv_audit.expr import (
    Add, Constant, Div, Expr, Func, Mul, Neg, Pow, Sub, Variable, X, evaluate,
)

import expected
from nodes import tree_nodes

FUNCS = sorted(("sin", "cos", "tan", "exp", "ln", "sqrt", "cbrt", "abs"))
_NICE_CONSTANTS = [0.0, 1.0, 2.0, 3.0, 4.0, 0.5, 1.5, 0.25]

# large-trees: `deriv-audit analyze` through the CLI with JSON and CSV output.
LARGE_INTERVAL = (-2.0, 2.0)
LARGE_GRID = 256
LARGE_PLOT_N = 200
LARGE_DEPTH = 6
MIN_DOMAIN_NODES = 3
# The cost of a large tree varies by an order of magnitude in ways its shape
# does not predict, so a seed's own trees are only part of the input: the
# rest is the same on every seed.  About a third of all trees hold a
# subexpression in x that is constant on the interval (x-x, abs(c)^3, ...);
# the scan then reports a point per grid node (ROADMAP item 4) and the call
# costs several times a normal one.  Those are measured through a fixed set.
LARGE_TREES = 48
LARGE_FIXED_TREES = 24
LARGE_FLAT_TREES = 8
FLAT_SAMPLES = tuple(-2.0 + 4.0 * (i + 0.5) / 9 for i in range(9))

# point-audit: `deriv-audit classify` through the CLI with JSON output.
POINT_DEPTH = 7
POINT_TREES = 400

# How many trees a seed draws per tree it keeps.  The kept trees are spread
# evenly over the pool's size ranking, so every seed gets the same mix of
# small and large trees and only the trees themselves change.
POOL_FACTOR = 4

# Seeded shifts per hole family.  Three makes 21 paper-corpus inputs, so the
# median call falls inside one input's cluster of latencies rather than
# between two, where noise would move it from one to the other.
CORPUS_SHIFTS = 3
POINT_SHIFTS = 2


# --------------------------------------------------------------------------
# random trees (same grammar as tests/helpers.py::random_expr)


def _leaf(rng: random.Random) -> Expr:
    r = rng.random()
    if r < 0.55:
        return X
    if r < 0.8:
        return Constant(rng.choice(_NICE_CONSTANTS))
    return Constant(rng.uniform(0.0, 3.0))


def _exponent(rng: random.Random, depth: int) -> Expr:
    r = rng.random()
    if r < 0.7:
        return Constant(float(rng.randint(1, 4)))
    if r < 0.85:
        return Constant(rng.choice([0.5, 1.5, 2.0, 3.0]))
    return random_expr(rng, max(depth - 2, 0))


def random_expr(rng: random.Random, depth: int) -> Expr:
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


def to_text(e: Expr) -> str:
    """Expression text with every compound operand parenthesised.

    The benchmark's own renderer, so the input text does not change when the
    program's formatter does."""
    if isinstance(e, Constant):
        return repr(e.value)
    if isinstance(e, Variable):
        return "x"
    if isinstance(e, Func):
        return f"{e.name}({to_text(e.arg)})"
    if isinstance(e, Neg):
        return "-" + _operand(e.arg)
    if isinstance(e, Pow):
        return _operand(e.base) + "^" + _operand(e.exponent)
    op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(e)]
    return _operand(e.left) + op + _operand(e.right)


def _operand(e: Expr) -> str:
    text = to_text(e)
    return text if isinstance(e, (Constant, Variable, Func)) else f"({text})"


def domain_introducing(e: Expr) -> int:
    """Nodes of f whose derivative rule puts a denominator or a sqrt/ln
    argument into f': a structural count of f's domain-sensitive nodes."""
    n = 0
    for node in tree_nodes(e):
        if isinstance(node, Div):
            n += 1
        elif isinstance(node, Func) and node.name in ("ln", "sqrt", "cbrt", "abs", "tan"):
            n += 1
        elif isinstance(node, Pow) and not isinstance(node.exponent, Constant):
            n += 1
    return n


def _spread_pick(pool: list, size, count: int) -> list:
    """`count` items evenly spaced over the pool ranked by `size`."""
    ranked = sorted(pool, key=size)
    step = len(ranked) / count
    return [ranked[int((i + 0.5) * step)] for i in range(count)]


def _draw_trees(rng: random.Random, depth: int, count: int, keep, size) -> list[Expr]:
    pool: list[Expr] = []
    while len(pool) < POOL_FACTOR * count:
        e = random_expr(rng, depth)
        if keep(e):
            pool.append(e)
    return _spread_pick(pool, size, count)


# --------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class AnalyzeInput:
    """One library `analyze(text, Interval(lo, hi))` call."""

    name: str
    text: str
    lo: float
    hi: float
    case: expected.Case


@dataclass(frozen=True)
class CliInput:
    """One in-process `cli.main(argv)` call.  An empty argument after
    `--plot` marks where the CSV path goes."""

    name: str
    text: str
    argv: tuple[str, ...]
    tree: Expr | None = None
    x0: float | None = None
    point: expected.PointCase | None = None
    lo: float = 0.0
    hi: float = 0.0
    plot_n: int = 0


def _shifts(rng: random.Random, count: int) -> list[float]:
    """Distinct dyadic shifts a = k/64, 1/8 <= |a| <= 3/2."""
    ks: list[int] = []
    while len(ks) < count:
        k = rng.randint(8, 96) * rng.choice((-1, 1))
        if k not in ks:
            ks.append(k)
    return [k / 64.0 for k in ks]


def paper_corpus(seed: int) -> list[AnalyzeInput]:
    rng = random.Random(f"paper-corpus/{seed}")
    cases = list(expected.CORPUS)
    for family in expected.FAMILIES:
        cases.extend(family(a) for a in _shifts(rng, CORPUS_SHIFTS))
    return [AnalyzeInput(c.text, c.text, c.lo, c.hi, c) for c in cases]


def _large_keep(e: Expr) -> bool:
    return domain_introducing(e) >= MIN_DOMAIN_NODES


def has_flat_subexpression(e: Expr) -> bool:
    """Some subexpression in x has one outcome (one value, or undefined for
    one reason) at every sample point of the large-trees interval."""
    for sub in tree_nodes(e):
        if isinstance(sub, Variable) or not any(isinstance(n, Variable) for n in tree_nodes(sub)):
            continue
        outcomes = {evaluate(sub, x) for x in FLAT_SAMPLES}
        if len(outcomes) == 1:
            return True
    return False


def _large_size(e: Expr) -> int:
    return len(tree_nodes(e)) * (1 + domain_introducing(e))


def _large_input(tree: Expr, name: str) -> CliInput:
    lo, hi = LARGE_INTERVAL
    text = to_text(tree)
    argv = (
        "analyze", "--interval", repr(lo), repr(hi), "--grid", str(LARGE_GRID),
        "--json", "--plot", "", "--plot-n", str(LARGE_PLOT_N), "--", text,
    )
    return CliInput(name, text, argv, tree=tree, lo=lo, hi=hi, plot_n=LARGE_PLOT_N)


def large_trees(seed: int) -> list[CliInput]:
    def plain(e):
        return _large_keep(e) and not has_flat_subexpression(e)

    def flat(e):
        return _large_keep(e) and has_flat_subexpression(e)

    # The first input is the same on every seed: it is the set-up call.
    fixed = random.Random("large-trees/fixed")
    anchor = _draw_trees(fixed, LARGE_DEPTH, 1, plain, _large_size)[0]
    base = _draw_trees(fixed, LARGE_DEPTH, LARGE_FIXED_TREES, plain, _large_size)
    flats = _draw_trees(fixed, LARGE_DEPTH, LARGE_FLAT_TREES, flat, _large_size)
    rng = random.Random(f"large-trees/{seed}")
    trees = _draw_trees(rng, LARGE_DEPTH, LARGE_TREES, plain, _large_size)
    return ([_large_input(anchor, "anchor")]
            + [_large_input(t, f"fixed{i}") for i, t in enumerate(base)]
            + [_large_input(t, f"flat{i}") for i, t in enumerate(flats)]
            + [_large_input(t, f"tree{i}") for i, t in enumerate(trees)])


def _classify_input(name: str, text: str, x0: float, tree=None, point=None) -> CliInput:
    argv = ("classify", "--at", repr(x0), "--json", "--", text)
    return CliInput(name, text, argv, tree=tree, x0=x0, point=point)


def point_audit(seed: int) -> list[CliInput]:
    rng = random.Random(f"point-audit/{seed}")
    points = list(expected.CORPUS_POINTS)
    for family in expected.FAMILY_POINTS:
        points.extend(family(a) for a in _shifts(rng, POINT_SHIFTS))
    inputs = [_classify_input(p.text, p.text, p.x0, point=p) for p in points]
    trees = _draw_trees(rng, POINT_DEPTH, POINT_TREES, lambda e: True,
                        lambda e: len(tree_nodes(e)))
    for i, tree in enumerate(trees):
        x0 = expected.regular_dyadic_point(tree, rng)
        inputs.append(_classify_input(f"tree{i}", to_text(tree), x0, tree=tree))
    return inputs


WORKLOADS = {
    "paper-corpus": paper_corpus,
    "large-trees": large_trees,
    "point-audit": point_audit,
}

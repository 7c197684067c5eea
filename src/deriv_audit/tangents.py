"""Horizontal tangent points on an interval.

The naive route collects sign-change roots of the derivative expression; the
corrected route, in `report.analyze`, adds candidate points where the
expression is undefined but the limit definition still yields a (near-)zero
derivative.  Both sets are kept so a report can show the gap between them.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence

from .expr import Expr, Interval, Tape, lower, record

__all__ = [
    "Provenance", "TangentPoint", "RootScan", "Events", "Grid",
    "grid_points", "column_events", "clusters", "refine", "column_roots", "scan_roots",
    "DEFAULT_GRID_N", "BRACKET_TOL", "DEDUP_TOL",
]

DEFAULT_GRID_N = 4096

# Every bracket, of a root or of a definedness boundary, is refined to this width.
BRACKET_TOL = 1e-12
DEDUP_TOL = 1e-9
# A localized sign change only counts as a root if the expression is defined
# and small there; a pole crossing fails this and is discarded.
ROOT_RESIDUAL_TOL = 1e-6
UNCONFIRMED_BAND = 1e-10


class Provenance(enum.Enum):
    SYMBOLIC_EXPRESSION_ROOT = "symbolic_expression_root"
    REPAIRED_BY_DEFINITION = "repaired_by_definition"


@record
class TangentPoint:
    x: float
    provenance: Provenance
    residual: float


@record
class RootScan:
    roots: tuple[TangentPoint, ...]
    unconfirmed: tuple[float, ...]  # |value| < band at a grid point, no sign change


def grid_points(iv: Interval, n: int, nodes: Sequence[int] | None = None) -> list[float]:
    """The x of each grid node k in `nodes` (ascending, all n+1 by default)
    of n equal steps over iv; for even n the midpoint lands exactly."""
    if nodes is None:
        nodes = range(n + 1)
    span = iv.hi - iv.lo
    if math.isfinite(n * span):
        xs = [iv.lo + (i * span) / n for i in nodes]
    else:
        # The span overflows: weigh the endpoints instead, which cannot.
        xs = [iv.lo * ((n - i) / n) + iv.hi * (i / n) for i in nodes]
    if xs and nodes[-1] == n:
        xs[-1] = iv.hi
    return xs


@record
class Events:
    """What a scan can find in a column, as ascending indices i into it."""

    flips: list[int]    # defined at one of i and i+1, NaN at the other
    zeros: list[int]    # an exact zero at i
    changes: list[int]  # strictly opposite signs at i and i+1


def column_events(col: list[float]) -> Events:
    """The events of a column with NaN where undefined, in one walk that
    compares each value with the one before it."""
    flips: list[int] = []
    zeros: list[int] = []
    changes: list[int] = []
    u = col[0] if col else 0.0  # the first value has no cell before it
    for i, v in enumerate(col):
        if (u != u) != (v != v):
            flips.append(i - 1)
        elif u > 0.0 > v or u < 0.0 < v:  # false where either is NaN
            changes.append(i - 1)
        if v == 0.0:
            zeros.append(i)
        u = v
    return Events(flips, zeros, changes)


class Grid:
    """fp lowered once and sampled in one pass at the grid nodes no
    enclosure certifies (see _kept_nodes): of grid_n steps over iv, or lo
    alone if iv is a point.  `nodes` are their ascending indices into
    grid_points(iv, grid_n), `xs` their points, and `columns` the columns of
    fp (slot `tape.root`) and of its domain-sensitive nodes at them.  Two
    consecutive nodes that are not neighbours on the grid are the inner
    end nodes a+1 and b-1 of one pruned range, whose enclosure certifies
    both, and every point between them, to be defined with the same strict
    sign in every scanned column: so the pair i, i+1 of a flip or a sign
    change found over a whole column is always one cell of the grid.  Over
    the paper corpus a 4,097-node grid evaluates 21.2 nodes and takes 6.05
    enclosures on average.  fp's `events` are found once; the grid scans
    read only these."""

    __slots__ = ("tape", "iv", "nodes", "xs", "columns", "events")

    def __init__(self, fp: Expr, iv: Interval, grid_n: int):
        if grid_n < 2:
            raise ValueError("grid_n must be at least 2")
        self.tape = tape = lower(fp)
        self.iv = iv
        if iv.lo == iv.hi:
            self.nodes, self.xs = [0], [iv.lo]
        else:
            self.nodes = _kept_nodes(tape, iv, grid_n)
            self.xs = grid_points(iv, grid_n, self.nodes)
        self.columns = tape.columns(self.xs, tape.domain_slots())
        self.events = column_events(self.columns[tape.root])


# The fewest grid cells whose enclosure is worth its cost.  One enclosure of
# a tape costs as much as its dense columns at 10 to 25 nodes (15 in the
# median over the paper corpus' derivatives), so a range is enclosed from 32
# cells up, and a grid gets at most grid_n / 32 enclosures: where nothing
# certifies, they cost about 0.85 of the dense pass they fail to prune.
MIN_RANGE = 32


def _kept_nodes(tape: Tape, iv: Interval, n: int) -> list[int]:
    """The ascending indices of the nodes of n steps over iv that must be
    evaluated, found by dyadic recursion over ranges of cells, level by
    level.  A range (a, b) is enclosed over its inner nodes a+1 ... b-1
    alone, so no end node, where a hole may sit, can block it.  It is
    pruned where the enclosure certifies that fp is defined with one strict
    sign and |fp| >= UNCONFIRMED_BAND, and that every domain slot is
    defined with one strict sign: then only its two end cells, (a, a+1)
    and (b-1, b), are kept, and no node or cell between a+1 and b-1 can
    hold an event of a scanned column.  A range that is not pruned is split
    at its middle node.  Ranges under MIN_RANGE cells, and all ranges once
    the grid has had n // MIN_RANGE enclosures, are kept whole.  A ^ whose
    exponent varies is certified only over a base above 0, so a range where
    its base reaches 0 or below is split, not pruned."""
    if not math.isfinite(n * (iv.hi - iv.lo)):
        # Weighed endpoints need not ascend, so no range is bounded by its ends.
        return list(range(n + 1))
    root, domain = tape.root, tape.domain_slots()
    budget = n // MIN_RANGE
    kept: list[tuple[int, int]] = []
    level = [(0, n)]
    while level:
        deeper = []
        for a, b in level:
            if b - a < MIN_RANGE or not budget:
                kept.append((a, b))
                continue
            budget -= 1
            encs = tape.enclose(*grid_points(iv, n, (a + 1, b - 1)))
            f = encs[root]
            if (f is None or f[0] < UNCONFIRMED_BAND and f[1] > -UNCONFIRMED_BAND
                    or any(encs[k] is None or encs[k][0] <= 0.0 <= encs[k][1] for k in domain)):
                m = (a + b) // 2
                deeper += [(a, m), (m, b)]
            else:
                kept += [(a, a + 1), (b - 1, b)]
        level = deeper
    return sorted({k for a, b in kept for k in range(a, b + 1)})


def clusters(items, x) -> list[list]:
    """The items sorted by x(item), grouped where the gap to the previous
    item is at most DEDUP_TOL; each caller picks a group's representative."""
    groups: list[list] = []
    for item in sorted(items, key=x):
        if groups and x(item) - x(groups[-1][-1]) <= DEDUP_TOL:
            groups[-1].append(item)
        else:
            groups.append([item])
    return groups


def refine(value_at, lo: float, hi: float, f_lo: float,
           f_hi: float) -> tuple[float, float, float, float]:
    """The one bisection of a bracket: halve (lo, hi), whose end values
    f_lo and f_hi have strictly opposite signs, down to BRACKET_TOL, by
    `value_at` at each midpoint.  The final (lo, hi, f_lo, f_hi), or the
    midpoint as both ends where `value_at` gives 0.0 or NaN there."""
    while hi - lo > BRACKET_TOL:
        mid = 0.5 * lo + 0.5 * hi  # lo + hi can overflow near the largest float
        if mid <= lo or mid >= hi:
            break
        v = value_at(mid)
        if v == 0.0 or v != v:
            return mid, mid, v, v
        if (v > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, v
        else:
            hi, f_hi = mid, v
    return lo, hi, f_lo, f_hi


def column_roots(xs: list[float], col: list[float], events: Events,
                 value_at) -> list[tuple[float, float]]:
    """Zeros of an expression from its column at xs and the column's
    events, each with its value: exact grid zeros, plus each sign change
    refined with `value_at` (the value at one point, NaN where undefined;
    None if no sign change) and kept where the midpoint of its bracket, else
    an end, has |value| <= ROOT_RESIDUAL_TOL; sorted and deduplicated."""
    roots = [(xs[i], col[i]) for i in events.zeros]
    for i in events.changes:
        lo, hi, f_lo, f_hi = refine(value_at, xs[i], xs[i + 1], col[i], col[i + 1])
        # a bracket that ends at one point holds an exact zero or a hole
        mid = 0.5 * lo + 0.5 * hi
        tries = [(lo, f_lo)] if lo == hi else [(mid, value_at(mid)), (lo, f_lo), (hi, f_hi)]
        roots += [(r, v) for r, v in tries if abs(v) <= ROOT_RESIDUAL_TOL][:1]
    return [group[0] for group in clusters(roots, lambda r: r[0])]


def scan_roots(grid: Grid) -> RootScan:
    """Locate the zeros of the grid's fp by grid sampling plus bisection,
    each with |fp| there as its residual.

    Grid points where 0 < |fp| < UNCONFIRMED_BAND without a neighboring
    sign change are reported as unconfirmed (a touching zero the sign scan
    cannot certify).
    """
    xs, events, col = grid.xs, grid.events, grid.columns[grid.tape.root]
    roots = column_roots(xs, col, events, grid.tape.value)
    points = tuple(TangentPoint(x, Provenance.SYMBOLIC_EXPRESSION_ROOT, abs(v)) for x, v in roots)
    if len(xs) == 1:
        return RootScan(roots=points, unconfirmed=())
    changes = set(events.changes)
    unconfirmed = clusters([
        x for i, (x, v) in enumerate(zip(xs, col))
        if 0.0 < abs(v) < UNCONFIRMED_BAND and i - 1 not in changes and i not in changes
        and not any(abs(x - r) <= DEDUP_TOL for r, _ in roots)
    ], float)
    return RootScan(roots=points, unconfirmed=tuple(group[0] for group in unconfirmed))

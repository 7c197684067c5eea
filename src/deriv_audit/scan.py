"""Locate points where a function is defined but its derivative expression
is not.

Detection is numeric: grid sampling of the derivative expression's
definedness, bisection of every defined/undefined boundary, plus a root scan
of each domain-sensitive subexpression (denominators, sqrt and ln
arguments).  Isolated holes are split by step 1, whether f is defined there;
undefined regions are reported as interval notes at their boundary rather
than as holes.
"""

from __future__ import annotations

import math

from .expr import Tape, UndefinedReason, lower, record
from .tangents import DEDUP_TOL, Grid, clusters, column_events, column_roots, refine

__all__ = ["IntervalNote", "ScanResult", "scan_detailed"]


@record
class IntervalNote:
    """Boundary of a region where the derivative expression is undefined."""

    x: float
    undefined_side: str  # "left" | "right" | "both"
    reason: UndefinedReason


@record
class ScanResult:
    """Isolated holes, ascending, split by step 1: f defined there
    (candidates) or not (dismissed); and the undefined regions' notes."""

    candidates: tuple[float, ...]
    interval_notes: tuple[IntervalNote, ...]
    dismissed: tuple[float, ...]


def _snaps(seeds: list[float]) -> dict[tuple[float, float], float]:
    """Each distinct snap of the seeds once, keyed by (value, sign): the
    decimal-representable values within DEDUP_TOL of a seed, where a hole
    usually sits, and the seed itself.  A deep nest has thousands of seeds
    at 0, and nearby seeds share snaps; the sign keeps -0.0, whose snaps
    differ, apart."""
    snaps = {}
    for r in {(r, math.copysign(1.0, r)): r for r in seeds}.values():
        values = {r, *(round(r, digits) for digits in range(6, 13))}
        if abs(r) < DEDUP_TOL:
            values.add(0.0)
        snaps.update({(s, math.copysign(1.0, s)): s for s in values if abs(s - r) <= DEDUP_TOL})
    return snaps


def _bisect_boundary(tape: Tape, a: float, b: float) -> float:
    """Undefined-side point within BRACKET_TOL of the definedness flip
    between a defined point a and an undefined point b, by `refine` of
    definedness: +1 where fp is defined, -1 where not.  The midpoints it
    takes while each is defined, as on the way to an undefined grid node,
    come from `refine` fed +1 at every step and are evaluated in one
    column; `refine` goes on point by point from the first undefined one."""
    def bracket(a, b):
        return (a, b, 1.0, -1.0) if a < b else (b, a, -1.0, 1.0)

    mids: list[float] = []
    refine(lambda mid: mids.append(mid) or 1.0, *bracket(a, b))  # each taken as defined
    col = tape.columns(mids)[tape.root]
    k = next((k for k, v in enumerate(col) if v != v), None)
    if k is None:
        return b
    lo, hi, f_lo, _ = refine(lambda mid: 1.0 if tape.value(mid) is not None else -1.0,
                             *bracket(mids[k - 1] if k else a, mids[k]))
    return lo if f_lo < 0.0 else hi


def scan_detailed(f_tape: Tape, grid: Grid) -> ScanResult:
    """Holes of the grid's fp, the derivative expression of f (lowered to
    `f_tape`), classified."""
    tape, iv, xs = grid.tape, grid.iv, grid.xs

    # A single point is a hole where fp is undefined.  On a grid, each
    # defined/undefined flip between adjacent samples gives a seed: the
    # undefined run's boundary, bisected.  The flip's undefined node adds
    # nothing: where it is the boundary, bisection ends on it; elsewhere it
    # lies inside the undefined region, which only its boundary describes.
    col = grid.columns[tape.root]
    holes = [iv.lo] if len(xs) == 1 and col[0] != col[0] else []
    boundaries = []
    for i in grid.events.flips:
        undefined_next = col[i + 1] != col[i + 1]
        defined_x, undefined_x = (xs[i], xs[i + 1]) if undefined_next else (xs[i + 1], xs[i])
        boundaries.append(_bisect_boundary(tape, defined_x, undefined_x))

    # Exact zeros of denominators and of sqrt/ln arguments are seeds too:
    # holes the grid can sail straight past without a definedness flip.
    # Only a sign change is bisected, so only it needs the slot's subtree.
    roots = []
    for slot in tape.domain_slots():
        events = column_events(grid.columns[slot])
        value_at = lower(tape.nodes[slot]).value if events.changes else None
        roots += [r for r, _ in column_roots(xs, grid.columns[slot], events, value_at)]

    # A boundary is a hole as it stands: bisection ends it on a point
    # already found undefined.  Only the other snaps are run.
    known = {(s, math.copysign(1.0, s)) for s in boundaries}
    holes += [s for key, s in _snaps(boundaries + roots).items()
              if iv.lo <= s <= iv.hi and (key in known or tape.value(s) is None)]

    candidates: list[float] = []
    notes: list[IntervalNote] = []
    dismissed: list[float] = []

    # One hole per cluster: the shortest decimal representative, a grid or
    # snapped hit over bisection residue.  Its neighbours are at least an
    # ulp away: from |h| >= 2^24, h +- DEDUP_TOL rounds to h itself.  A
    # note's reason is read from the run of its first undefined neighbour.
    for group in clusters(holes, float):
        h = min(group, key=lambda v: (len(repr(v)), v))
        step = max(DEDUP_TOL, math.ulp(h))
        runs = {side: tape.run(x) for side, x in (("left", h - step), ("right", h + step))
                if iv.lo <= x <= iv.hi}
        undefined = [side for side, vals in runs.items() if vals[-1] is None]

        if undefined:
            side = "both" if len(undefined) == 2 else undefined[0]
            reason = tape.reason(runs[undefined[0]], tape.root)
            notes.append(IntervalNote(x=h, undefined_side=side, reason=reason))
        elif f_tape.value(h) is not None:
            candidates.append(h)
        else:
            dismissed.append(h)

    return ScanResult(
        candidates=tuple(candidates),
        interval_notes=tuple(notes),
        dismissed=tuple(dismissed),
    )

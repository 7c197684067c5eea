"""Differentiability at a point, decided from the limit definition.

One-sided difference quotients are sampled over a geometric step schedule
and each side is classified as convergent (with an extrapolated limit) or
cleanly divergent.  The combination gives the verdict: a finite derivative,
a vertical tangent, a cusp, a corner, or inconclusive.  Oscillatory
non-existence is deliberately left inconclusive rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import EvalOutcome, Expr, Tape, _sat, lower

__all__ = [
    "QuotientProbe", "Verdict", "Differentiable", "VerticalTangent", "Cusp",
    "Corner", "Inconclusive", "probe", "classify",
]

# Step schedule: h_k = H0 * RATIO**k.
H0 = 0.1
RATIO = 0.5
STEPS = 40

# Quotients with h below this floor lose too many digits to cancellation to
# judge convergence; they still feed the divergence magnitude check, where
# cancellation is not the limiting factor.
WINDOW_MIN_H = 1e-8
MIN_WINDOW = 6

CONVERGENCE_TOL = 1e-6
SHRINK_FACTOR_MAX = 0.75
EXTRAPOLATION_DISTRUST = 10.0

DIVERGENCE_SLOPE_MAX = -0.2
DIVERGENCE_RESIDUAL_MAX = 0.5
DIVERGENCE_MAGNITUDE_MIN = 1e4

SIDE_MERGE_TOL = 1e-4


@dataclass(frozen=True, slots=True)
class QuotientProbe:
    """One-sided difference quotients (f(x0±h) - f(x0)) / (±h) per step."""

    x0: float
    schedule: tuple[float, ...]
    right: tuple[EvalOutcome, ...]
    left: tuple[EvalOutcome, ...]

    def __post_init__(self):
        if len(self.right) != len(self.schedule) or len(self.left) != len(self.schedule):
            raise ValueError("side lists must match the schedule length")
        if any(h <= 0 for h in self.schedule) or any(
            b >= a for a, b in zip(self.schedule, self.schedule[1:])
        ):
            raise ValueError("schedule must be strictly decreasing and positive")


class Verdict:
    """Base class for differentiability classifications."""

    __slots__ = ()
    kind = "verdict"


@dataclass(frozen=True, slots=True)
class Differentiable(Verdict):
    value: float
    kind = "differentiable"


@dataclass(frozen=True, slots=True)
class VerticalTangent(Verdict):
    sign: int
    kind = "vertical_tangent"


@dataclass(frozen=True, slots=True)
class Cusp(Verdict):
    kind = "cusp"


@dataclass(frozen=True, slots=True)
class Corner(Verdict):
    left_slope: float
    right_slope: float
    kind = "corner"


@dataclass(frozen=True, slots=True)
class Inconclusive(Verdict):
    diagnostic: str
    kind = "inconclusive"


def probe(f: Expr | Tape, x0: float) -> QuotientProbe:
    """Sample both one-sided quotient sequences of f, or of f's tape, at x0.

    Requires f to be defined at the finite x0 (the scanner guarantees
    this); steps where f(x0±h) is undefined are recorded as such, with
    their reason, not skipped.
    """
    if not math.isfinite(x0):
        raise ValueError(f"probe requires a finite x0, got {x0!r}")
    tape = f if isinstance(f, Tape) else lower(f)
    f0 = tape.outcome(x0)
    if not f0.is_defined:
        raise ValueError(f"probe requires the function to be defined at x0={x0!r}")
    schedule = tuple(H0 * RATIO**k for k in range(STEPS))
    steps = schedule + tuple(-h for h in schedule)  # the right side, then the left
    values = tape.columns([x0 + h for h in steps])[tape.root]
    quotients = tuple(
        tape.outcome(x0 + h) if fh != fh else EvalOutcome.of(_sat((fh - f0.value) / h))
        for h, fh in zip(steps, values)
    )
    return QuotientProbe(x0=x0, schedule=schedule, right=quotients[:STEPS],
                         left=quotients[STEPS:])


@dataclass(frozen=True, slots=True)
class _Side:
    status: str  # "converged" | "diverged" | "failed"
    limit: float | None = None
    sign: int | None = None
    diagnostic: str | None = None


def _window(schedule, outcomes):
    """Trailing run of defined quotients among steps with h >= WINDOW_MIN_H."""
    hs: list[float] = []
    qs: list[float] = []
    for h, out in zip(schedule, outcomes):
        if h < WINDOW_MIN_H:
            break
        if out.is_defined:
            hs.append(h)
            qs.append(out.value)
        else:
            hs.clear()
            qs.clear()
    return hs, qs


def _extrapolate(qs: list[float]) -> float:
    # One geometric-sequence extrapolation level, then one more on top of it.
    e_prev = qs[-2] + (qs[-2] - qs[-3]) * RATIO / (1.0 - RATIO)
    e_last = qs[-1] + (qs[-1] - qs[-2]) * RATIO / (1.0 - RATIO)
    r2 = RATIO * RATIO
    return e_last + (e_last - e_prev) * r2 / (1.0 - r2)


def _loglog_fit(hs, qs):
    xs = [math.log(h) for h in hs]
    ys = [math.log(abs(q)) for q in qs]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    residual = math.sqrt(sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / n)
    return slope, residual


def _last_defined_value(outcomes) -> float | None:
    for out in reversed(outcomes):
        if out.is_defined:
            return out.value
    return None


def _analyze_side(schedule, outcomes, label: str) -> _Side:
    hs, qs = _window(schedule, outcomes)
    if len(qs) < MIN_WINDOW:
        return _Side("failed", diagnostic=f"{label} side: insufficient samples")

    deltas = [abs(b - a) for a, b in zip(qs, qs[1:])]
    final_delta = deltas[-1]
    tol = max(CONVERGENCE_TOL, CONVERGENCE_TOL * abs(qs[-1]))

    # Average shrink factor, measured geometrically from the peak delta down
    # to the smallest delta after it.  Deltas below the tolerance are
    # cancellation noise with no rate information: the peak anchor skips a
    # pre-asymptotic hump, the floor anchor skips the noise bounce at the
    # smallest steps.  A peak sitting at the very end means growth, not decay;
    # a growing sequence also always fails the final-delta gate below.
    significant = [(i, d) for i, d in enumerate(deltas) if d > tol]
    if not significant:
        shrink = 0.0
    else:
        i_max, d_max = max(significant, key=lambda t: t[1])
        if i_max == len(deltas) - 1:
            shrink = 1.0
        else:
            tail = deltas[i_max + 1:]
            d_min = min(tail)
            i_min = i_max + 1 + tail.index(d_min)
            shrink = (d_min / d_max) ** (1.0 / (i_min - i_max))

    if shrink <= SHRINK_FACTOR_MAX and final_delta <= tol:
        limit = _extrapolate(qs)
        if abs(limit - qs[-1]) > EXTRAPOLATION_DISTRUST * tol:
            limit = qs[-1]  # extrapolation assumed the wrong error model
        return _Side("converged", limit=limit)

    if all(q > 0.0 for q in qs) or all(q < 0.0 for q in qs):
        slope, residual = _loglog_fit(hs, qs)
        # Magnitude is read at the tail of the full schedule: divergence keeps
        # growing below the convergence window's h floor.
        tail = _last_defined_value(outcomes)
        if (
            slope <= DIVERGENCE_SLOPE_MAX
            and residual <= DIVERGENCE_RESIDUAL_MAX
            and tail is not None
            and abs(tail) >= DIVERGENCE_MAGNITUDE_MIN
            and (tail > 0.0) == (qs[-1] > 0.0)
        ):
            return _Side("diverged", sign=1 if qs[-1] > 0.0 else -1)

    return _Side("failed", diagnostic=f"{label} side: neither convergent nor cleanly divergent")


def classify(p: QuotientProbe) -> Verdict:
    """Combine the two side classifications into a verdict."""
    left = _analyze_side(p.schedule, p.left, "left")
    right = _analyze_side(p.schedule, p.right, "right")

    if left.status == "converged" and right.status == "converged":
        merge_tol = max(SIDE_MERGE_TOL, SIDE_MERGE_TOL * max(abs(left.limit), abs(right.limit)))
        if abs(left.limit - right.limit) <= merge_tol:
            return Differentiable(0.5 * (left.limit + right.limit))
        return Corner(left_slope=left.limit, right_slope=right.limit)

    if left.status == "diverged" and right.status == "diverged":
        if left.sign == right.sign:
            return VerticalTangent(sign=left.sign)
        return Cusp()

    parts = [s.diagnostic for s in (left, right) if s.diagnostic]
    if not parts:
        parts = [f"sides disagree: left {left.status}, right {right.status}"]
    return Inconclusive("; ".join(parts))

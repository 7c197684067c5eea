"""Differentiability at a point, decided from the limit definition.

One-sided difference quotients are sampled over a geometric step schedule.
One model classifies each side: q_k = L + c*r**k, whose rate r is the
least-squares fit of ln|q_{k+1} - q_k| against k, of order p = -log2(r).  A
side converges (with an extrapolated limit) at p >= P_MIN or once its
deltas settle, and diverges cleanly at p <= -P_MIN.  The combination gives
the verdict: a finite derivative, a vertical tangent, a cusp, a corner, or
inconclusive.  Oscillatory non-existence and orders between -P_MIN and
P_MIN are deliberately left inconclusive rather than guessed.
"""

from __future__ import annotations

import math

from .expr import EvalOutcome, Expr, Tape, _sat, lower, record

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
# A side needs this many quotients; the rate is fitted to the last this many.
MIN_WINDOW = 6

# Deltas within this (relative above 1) are settled noise.
CONVERGENCE_TOL = 1e-6
EXTRAPOLATION_DISTRUST = 10.0

# A side converges at order p >= P_MIN and diverges at order p <= -P_MIN,
# where q(h) - L = O(h^p); oscillation and slower orders stay undecided.
P_MIN = 0.25
DIVERGENCE_MAGNITUDE_MIN = 1e4

SIDE_MERGE_TOL = 1e-4


@record
class QuotientProbe:
    """One-sided difference quotients (f(x0±h) - f(x0)) / (±h) per step."""

    x0: float
    schedule: tuple[float, ...]
    right: tuple[EvalOutcome, ...]
    left: tuple[EvalOutcome, ...]

    def __new__(cls, x0, schedule, right, left):
        if len(right) != len(schedule) or len(left) != len(schedule):
            raise ValueError("side lists must match the schedule length")
        if any(h <= 0 for h in schedule) or any(b >= a for a, b in zip(schedule, schedule[1:])):
            raise ValueError("schedule must be strictly decreasing and positive")
        return tuple.__new__(cls, (x0, schedule, right, left))


class Verdict:
    """Base class for differentiability classifications."""

    __slots__ = ()
    kind = "verdict"


@record
class Differentiable(Verdict):
    value: float
    kind = "differentiable"


@record
class VerticalTangent(Verdict):
    sign: int
    kind = "vertical_tangent"


@record
class Cusp(Verdict):
    kind = "cusp"


@record
class Corner(Verdict):
    left_slope: float
    right_slope: float
    kind = "corner"


@record
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
    schedule = tuple(H0 * RATIO**k for k in range(STEPS))
    steps = schedule + tuple(-h for h in schedule)  # the right side, then the left
    f0, *values = tape.columns([x0, *(x0 + h for h in steps)])[tape.root]
    if f0 != f0:
        raise ValueError(f"probe requires the function to be defined at x0={x0!r}")
    quotients = tuple(
        tape.outcome(x0 + h) if fh != fh else EvalOutcome(_sat((fh - f0) / h))
        for h, fh in zip(steps, values)
    )
    return QuotientProbe(x0=x0, schedule=schedule, right=quotients[:STEPS],
                         left=quotients[STEPS:])


@record
class _Side:
    status: str  # "converged" | "diverged" | "failed"
    limit: float | None = None
    sign: int | None = None
    diagnostic: str | None = None


def _window(schedule, outcomes, floor: float) -> list[float]:
    """Trailing run of defined quotients among steps with h >= floor."""
    qs: list[float] = []
    for h, out in zip(schedule, outcomes):
        if h < floor:
            break
        if out.is_defined:
            qs.append(out.value)
        else:
            qs.clear()
    return qs


def _extrapolate(qs: list[float]) -> float:
    # One geometric-sequence extrapolation level, then one more on top of it.
    e_prev = qs[-2] + (qs[-2] - qs[-3]) * RATIO / (1.0 - RATIO)
    e_last = qs[-1] + (qs[-1] - qs[-2]) * RATIO / (1.0 - RATIO)
    r2 = RATIO * RATIO
    return e_last + (e_last - e_prev) * r2 / (1.0 - r2)


def _rate(run: list[float]) -> float:
    """ln r of deltas d_k ~ c*r**k: the least-squares slope of ln|d_k| on k."""
    mk = 0.5 * (len(run) - 1)
    sxx = sum((k - mk) ** 2 for k in range(len(run)))
    return sum((k - mk) * math.log(abs(d)) for k, d in enumerate(run)) / sxx


def _last_defined_value(outcomes) -> float | None:
    for out in reversed(outcomes):
        if out.is_defined:
            return out.value
    return None


def _analyze_side(schedule, outcomes, label: str, floor: float) -> _Side:
    qs = _window(schedule, outcomes, floor)
    if len(qs) < MIN_WINDOW:
        return _Side("failed", diagnostic=f"{label} side: insufficient samples")

    # One model decides both ways: q_k = L + c*r**k, of order p = -log2(r).
    # The rate r is fitted to the last MIN_WINDOW - 1 deltas before the
    # window's settled tail of deltas within the noise floor tol, if they are
    # one-signed and above tol.
    tol = max(CONVERGENCE_TOL, CONVERGENCE_TOL * abs(qs[-1]))
    deltas = [b - a for a, b in zip(qs, qs[1:])]
    end = len(deltas)
    while end and abs(deltas[end - 1]) <= tol:
        end -= 1
    run = deltas[max(end - MIN_WINDOW + 1, 0):end]
    fitted = len(run) == MIN_WINDOW - 1 and all(
        abs(d) > tol and (d > 0.0) == (run[0] > 0.0) for d in run)
    log_r = _rate(run) if fitted else None

    if end < len(deltas):
        # Settled within tol: converged, unless a full run before it grew.
        if log_r is None or log_r < 0.0:
            limit = _extrapolate(qs)
            if abs(limit - qs[-1]) > EXTRAPOLATION_DISTRUST * tol:
                limit = qs[-1]  # extrapolation assumed the wrong error model
            return _Side("converged", limit=limit)
    elif log_r is not None:
        p = log_r / math.log(RATIO)
        r = math.exp(log_r)
        ratios = [b / a for a, b in zip(run, run[1:])]
        # Sum the geometric tail.  A change dr of the rate moves the sum by
        # |d|*dr/(1-r)^2: the fit is clean when the spread of the run's own
        # step ratios moves it by at most tol.
        if p >= P_MIN and abs(deltas[-1]) * (max(ratios) - min(ratios)) <= tol * (1.0 - r) ** 2:
            return _Side("converged", limit=qs[-1] + deltas[-1] * r / (1.0 - r))
        # Magnitude is read at the tail of the full schedule: divergence keeps
        # growing below the convergence window's h floor.
        tail = _last_defined_value(outcomes)
        if (
            p <= -P_MIN
            and (all(q > 0.0 for q in qs) or all(q < 0.0 for q in qs))
            and tail is not None
            and abs(tail) >= DIVERGENCE_MAGNITUDE_MIN
            and (tail > 0.0) == (qs[-1] > 0.0)
        ):
            return _Side("diverged", sign=1 if qs[-1] > 0.0 else -1)

    return _Side("failed", diagnostic=f"{label} side: neither convergent nor cleanly divergent")


def classify(p: QuotientProbe) -> Verdict:
    """Combine the two side classifications into a verdict."""
    # x0 ± h rounds by up to ulp(x0): judge only steps h it moves by at most CONVERGENCE_TOL*h
    floor = max(WINDOW_MIN_H, math.ulp(p.x0) / CONVERGENCE_TOL)
    left = _analyze_side(p.schedule, p.left, "left", floor)
    right = _analyze_side(p.schedule, p.right, "right", floor)

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

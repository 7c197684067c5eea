"""End-to-end analysis pipeline and its text/JSON/CSV renderings.

The pipeline: parse, differentiate, scan for expression holes, probe each
candidate with the limit definition, then assemble the horizontal-tangent
answer.  The naive answer (expression roots only) is always reported next to
the corrected one; the difference is exactly the repaired points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .derivative import differentiate
from .expr import (
    EvalOutcome, Interval, Tape, format_expr, format_number, lower, parse,
)
from .probe import (
    Corner, Cusp, Differentiable, Inconclusive, Verdict, VerticalTangent,
    classify, probe,
)
from .scan import CandidatePoint, IntervalNote, scan_detailed
from .tangents import (
    DEFAULT_GRID_N, Grid, Provenance, TangentPoint, combine_tangent_points,
    grid_points, scan_roots,
)

__all__ = [
    "DerivativePiece", "TraceRecord", "AnalysisReport", "PointAudit",
    "analyze", "audit_point", "emit_plot_data",
    "render_text", "render_point_text", "to_json_dict", "point_json_dict",
]


@dataclass(frozen=True, slots=True)
class DerivativePiece:
    condition: str
    expression: str | None = None  # the default piece
    at: float | None = None        # a repaired point ...
    value: float | None = None     # ... and the derivative there


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One candidate walked through the three audit steps."""

    x0: float
    function_defined: bool
    function_value: float | None = None
    function_reason: str | None = None
    culprit: str | None = None
    reason: str | None = None
    verdict: Verdict | None = None


@dataclass(frozen=True, slots=True)
class AnalysisReport:
    input_text: str
    interval: Interval
    derivative_text: str
    corrected_derivative: tuple[DerivativePiece, ...]
    candidates: tuple[tuple[CandidatePoint, Verdict], ...]
    tangents: tuple[TangentPoint, ...]
    naive_tangents: tuple[float, ...]
    methodology_trace: tuple[TraceRecord, ...]
    unconfirmed_roots: tuple[float, ...]
    interval_notes: tuple[IntervalNote, ...]
    # the lowered input and the grid's tape of its simplified derivative
    # (`fp_tape.nodes[fp_tape.root]`), for emit_plot_data; neither is
    # rendered, and both, which input_text and derivative_text spell out,
    # are left out of == and repr
    f_tape: Tape = field(compare=False, repr=False)
    fp_tape: Tape = field(compare=False, repr=False)


def analyze(input_text: str, iv: Interval, grid_n: int = DEFAULT_GRID_N) -> AnalysisReport:
    f = parse(input_text)
    fp = differentiate(f).simplified
    derivative_text = format_expr(fp)

    f_tape = lower(f)
    grid = Grid(fp, iv, grid_n)  # the one grid pass both scans read
    root_scan = scan_roots(grid)
    scanned = scan_detailed(f_tape, grid)
    candidate_verdicts = tuple(
        (cand, classify(probe(f_tape, cand.x0))) for cand in scanned.candidates
    )
    tangents = tuple(combine_tangent_points(grid.tape, root_scan.roots, candidate_verdicts))

    pieces = _corrected_pieces(derivative_text, candidate_verdicts)
    trace = _methodology_trace(candidate_verdicts, scanned.dismissed)

    return AnalysisReport(
        input_text=input_text,
        interval=iv,
        derivative_text=derivative_text,
        corrected_derivative=pieces,
        candidates=candidate_verdicts,
        tangents=tangents,
        naive_tangents=root_scan.roots,
        methodology_trace=trace,
        unconfirmed_roots=root_scan.unconfirmed,
        interval_notes=scanned.interval_notes,
        f_tape=f_tape,
        fp_tape=grid.tape,
    )


def _corrected_pieces(derivative_text, candidate_verdicts) -> tuple[DerivativePiece, ...]:
    repaired = [
        (cand, verdict)
        for cand, verdict in candidate_verdicts
        if isinstance(verdict, Differentiable)
    ]
    if repaired:
        condition = " and ".join(f"x != {format_number(c.x0)}" for c, _ in repaired)
    else:
        condition = "for all x"
    pieces = [DerivativePiece(condition=condition, expression=derivative_text)]
    for cand, verdict in repaired:
        pieces.append(DerivativePiece(
            condition=f"x = {format_number(cand.x0)}",
            at=cand.x0,
            value=verdict.value,
        ))
    return tuple(pieces)


def _methodology_trace(candidate_verdicts, dismissed) -> tuple[TraceRecord, ...]:
    records = [
        TraceRecord(
            x0=cand.x0,
            function_defined=True,
            function_value=cand.function_value,
            culprit=format_expr(cand.culprit),
            reason=cand.reason.value,
            verdict=verdict,
        )
        for cand, verdict in candidate_verdicts
    ]
    records.extend(
        TraceRecord(
            x0=d.x0,
            function_defined=False,
            function_reason=d.function_reason.value,
            reason=d.derivative_reason.value,
        )
        for d in dismissed
    )
    records.sort(key=lambda r: r.x0)
    return tuple(records)


# --------------------------------------------------------------------------
# point audit (the classify command: the three steps at one location)


@dataclass(frozen=True, slots=True)
class PointAudit:
    input_text: str
    x0: float
    function_outcome: EvalOutcome
    derivative_text: str
    derivative_outcome: EvalOutcome
    culprit: str | None
    verdict: Verdict | None  # None when step 1 already dismissed the point


def audit_point(input_text: str, x0: float) -> PointAudit:
    f = parse(input_text)
    fp = differentiate(f).simplified
    f_tape = lower(f)
    f_out = f_tape.outcome(x0)
    fp_tape = lower(fp)
    fp_out = fp_tape.outcome(x0)
    culprit = None
    if not fp_out.is_defined:
        culprit = format_expr(fp_tape.culprit(x0)[0])
    verdict = classify(probe(f_tape, x0)) if f_out.is_defined else None
    return PointAudit(
        input_text=input_text,
        x0=x0,
        function_outcome=f_out,
        derivative_text=format_expr(fp),
        derivative_outcome=fp_out,
        culprit=culprit,
        verdict=verdict,
    )


# --------------------------------------------------------------------------
# plot data


def emit_plot_data(f_tape: Tape, fp_tape: Tape, iv: Interval, n: int, path) -> None:
    """Write `x,f,fprime` CSV rows for f and its derivative expression,
    lowered to `f_tape` and `fp_tape`, at n+1 uniform points; cells are left
    empty where the value is undefined."""
    if n < 2:
        raise ValueError("n must be at least 2")
    xs = grid_points(iv, n)
    lines = ["x,f,fprime"]
    for x, fv, fpv in zip(xs, f_tape.columns(xs)[-1], fp_tape.columns(xs)[-1]):
        f_cell = "" if fv != fv else format_number(fv)
        fp_cell = "" if fpv != fpv else format_number(fpv)
        lines.append(f"{format_number(x)},{f_cell},{fp_cell}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# machine-readable rendering


def _verdict_dict(v: Verdict) -> dict:
    if isinstance(v, Differentiable):
        return {"kind": v.kind, "value": v.value}
    if isinstance(v, VerticalTangent):
        return {"kind": v.kind, "sign": v.sign}
    if isinstance(v, Corner):
        return {"kind": v.kind, "left_slope": v.left_slope, "right_slope": v.right_slope}
    if isinstance(v, Cusp):
        return {"kind": v.kind}
    assert isinstance(v, Inconclusive)
    return {"kind": v.kind, "diagnostic": v.diagnostic}


def to_json_dict(report: AnalysisReport) -> dict:
    return {
        "input": report.input_text,
        "interval": {"lo": report.interval.lo, "hi": report.interval.hi},
        "derivative": report.derivative_text,
        "naive_tangents": list(report.naive_tangents),
        "tangents": [
            {"x": t.x, "provenance": t.provenance.value, "residual": t.residual}
            for t in report.tangents
        ],
        "candidates": [
            {
                "x": cand.x0,
                "function_value": cand.function_value,
                "reason": cand.reason.value,
                "culprit": format_expr(cand.culprit),
                "verdict": _verdict_dict(verdict),
            }
            for cand, verdict in report.candidates
        ],
        "corrected_derivative": [
            {
                "condition": p.condition,
                **({"expression": p.expression} if p.expression is not None else {}),
                **({"x": p.at, "value": p.value} if p.at is not None else {}),
            }
            for p in report.corrected_derivative
        ],
        "methodology_trace": [
            {
                "x": r.x0,
                "step1": {
                    "defined": r.function_defined,
                    **({"value": r.function_value} if r.function_defined else {"reason": r.function_reason}),
                },
                "step2": {"culprit": r.culprit, "reason": r.reason},
                "step3": _verdict_dict(r.verdict) if r.verdict is not None else None,
            }
            for r in report.methodology_trace
        ],
        "unconfirmed_roots": list(report.unconfirmed_roots),
        "interval_notes": [
            {"x": n.x, "undefined_side": n.undefined_side, "reason": n.reason.value}
            for n in report.interval_notes
        ],
    }


def point_json_dict(audit: PointAudit) -> dict:
    step1 = {"defined": audit.function_outcome.is_defined}
    if audit.function_outcome.is_defined:
        step1["value"] = audit.function_outcome.value
    else:
        step1["reason"] = audit.function_outcome.reason.value
    step2 = {
        "derivative": audit.derivative_text,
        "defined": audit.derivative_outcome.is_defined,
    }
    if audit.derivative_outcome.is_defined:
        step2["value"] = audit.derivative_outcome.value
    else:
        step2["reason"] = audit.derivative_outcome.reason.value
        step2["culprit"] = audit.culprit
    return {
        "input": audit.input_text,
        "x": audit.x0,
        "step1": step1,
        "step2": step2,
        "step3": _verdict_dict(audit.verdict) if audit.verdict is not None else None,
    }


# --------------------------------------------------------------------------
# human-readable rendering


def _describe_verdict(v: Verdict) -> str:
    if isinstance(v, Differentiable):
        return f"differentiable, derivative {_short(v.value)}"
    if isinstance(v, VerticalTangent):
        return f"vertical tangent ({'+' if v.sign > 0 else '-'}infinity on both sides)"
    if isinstance(v, Cusp):
        return "cusp (one-sided quotients diverge with opposite signs)"
    if isinstance(v, Corner):
        return f"corner (left slope {_short(v.left_slope)}, right slope {_short(v.right_slope)})"
    assert isinstance(v, Inconclusive)
    return f"inconclusive ({v.diagnostic})"


def _short(v: float) -> str:
    return format_number(v) if v == int(v) and abs(v) < 1e16 else f"{v:.6g}"


def _fmt_points(xs) -> str:
    if not xs:
        return "(none)"
    return ", ".join(f"x = {_short(x)}" for x in xs)


def render_text(report: AnalysisReport) -> str:
    lines = []
    lines.append(f"function    f(x) = {report.input_text}")
    lines.append(
        f"interval    [{format_number(report.interval.lo)}, {format_number(report.interval.hi)}]"
    )
    lines.append(f"derivative  f'(x) = {report.derivative_text}")
    lines.append("")
    lines.append("naive horizontal tangents (zeros of the derivative expression):")
    lines.append(f"  {_fmt_points(report.naive_tangents)}")
    lines.append("")
    if report.methodology_trace:
        lines.append("points where the derivative expression is undefined:")
        for r in report.methodology_trace:
            lines.append(f"  x = {_short(r.x0)}")
            if r.function_defined:
                lines.append(f"    step 1: f({_short(r.x0)}) = {_short(r.function_value)} (defined)")
                lines.append(f"    step 2: culprit {r.culprit} ({r.reason})")
                lines.append(f"    step 3: by definition of the derivative: {_describe_verdict(r.verdict)}")
            else:
                lines.append(f"    step 1: f undefined ({r.function_reason}); not differentiable")
    else:
        lines.append("points where the derivative expression is undefined: (none)")
    lines.append("")
    lines.append("corrected derivative:")
    for piece in report.corrected_derivative:
        if piece.expression is not None:
            lines.append(f"  f'(x) = {piece.expression}    if {piece.condition}")
        else:
            lines.append(f"  f'(x) = {_short(piece.value)}    if {piece.condition}")
    lines.append("")
    lines.append("horizontal tangents (corrected):")
    if report.tangents:
        for t in report.tangents:
            label = (
                "zero of the expression"
                if t.provenance is Provenance.SYMBOLIC_EXPRESSION_ROOT
                else "repaired by definition"
            )
            lines.append(f"  x = {_short(t.x)}  [{label}, residual {t.residual:.3g}]")
    else:
        lines.append("  (none)")
    if report.unconfirmed_roots:
        lines.append("")
        lines.append("warning: near-zero derivative without a sign change (unconfirmed roots):")
        lines.append(f"  {_fmt_points(report.unconfirmed_roots)}")
    if report.interval_notes:
        lines.append("")
        lines.append("notes: derivative expression undefined on a region, not a point:")
        for n in report.interval_notes:
            lines.append(
                f"  boundary x = {_short(n.x)}, undefined side: {n.undefined_side} ({n.reason.value})"
            )
    return "\n".join(lines) + "\n"


def render_point_text(audit: PointAudit) -> str:
    lines = [f"f(x) = {audit.input_text}   at x = {_short(audit.x0)}"]
    if audit.function_outcome.is_defined:
        lines.append(f"step 1: f({_short(audit.x0)}) = {_short(audit.function_outcome.value)} (defined)")
    else:
        lines.append(
            f"step 1: f undefined at x = {_short(audit.x0)}"
            f" ({audit.function_outcome.reason.value}); not differentiable"
        )
    lines.append(f"step 2: f'(x) = {audit.derivative_text}")
    if audit.derivative_outcome.is_defined:
        lines.append(f"        defined here, value {_short(audit.derivative_outcome.value)}")
    else:
        lines.append(
            f"        undefined here ({audit.derivative_outcome.reason.value});"
            f" culprit {audit.culprit}"
        )
    if audit.verdict is not None:
        lines.append(f"step 3: by definition of the derivative: {_describe_verdict(audit.verdict)}")
    return "\n".join(lines) + "\n"

"""End-to-end analysis pipeline and its text/JSON/CSV renderings.

The pipeline: parse, differentiate, scan for expression holes, audit each
hole in the three steps (the classify command audits one point the same
way), then assemble the horizontal-tangent answer.  The naive answer (expression roots only) is always reported next to
the corrected one; the difference is exactly the repaired points.
"""

from __future__ import annotations

from .derivative import differentiate
from .expr import (
    EvalOutcome, Interval, Tape, format_expr, format_number, lower, parse, record,
)
from .probe import (
    Corner, Cusp, Differentiable, Inconclusive, Verdict, VerticalTangent,
    classify, probe,
)
from .scan import IntervalNote, scan_detailed
from .tangents import (
    DEFAULT_GRID_N, Grid, Provenance, TangentPoint, clusters, grid_points, scan_roots,
)

__all__ = [
    "DerivativePiece", "AnalysisReport", "PointAudit",
    "analyze", "audit_point", "emit_plot_data",
    "render_text", "render_point_text", "to_json_dict", "point_json_dict",
]

REPAIR_TOL = 1e-6


@record
class DerivativePiece:
    condition: str
    expression: str | None = None  # the default piece
    at: float | None = None        # a repaired point ...
    value: float | None = None     # ... and the derivative there


@record
class PointAudit:
    """The three audit steps at x0.  Step 1: f's outcome there.  Step 2: f''s
    outcome there; where it is undefined, its culprit, the smallest undefined
    subexpression, whose own reason the outcome carries.  Step 3: the verdict
    of the limit definition, None when step 1 already dismissed the point."""

    input_text: str
    x0: float
    function_outcome: EvalOutcome
    derivative_text: str
    derivative_outcome: EvalOutcome
    culprit: str | None
    verdict: Verdict | None


def _audit(input_text: str, derivative_text: str, f_tape: Tape, fp_tape: Tape,
           x0: float) -> PointAudit:
    """The three steps at x0 for f and f', lowered to f_tape and fp_tape."""
    f_out = f_tape.outcome(x0)
    fp_vals, culprit, reason = fp_tape.run(x0), None, None
    if fp_vals[-1] is None:
        node, reason = fp_tape.culprit(fp_vals)
        culprit = format_expr(node)
    verdict = classify(probe(f_tape, x0)) if f_out.is_defined else None
    return PointAudit(input_text, x0, f_out, derivative_text,
                      EvalOutcome(fp_vals[-1], reason), culprit, verdict)


def audit_point(input_text: str, x0: float) -> PointAudit:
    """The three audit steps at x0 (the classify command)."""
    f = parse(input_text)
    fp = differentiate(f).simplified
    return _audit(input_text, format_expr(fp), lower(f), lower(fp), x0)


@record
class AnalysisReport:
    input_text: str
    interval: Interval
    derivative_text: str
    corrected_derivative: tuple[DerivativePiece, ...]
    candidates: tuple[tuple[PointAudit, Verdict], ...]
    tangents: tuple[TangentPoint, ...]
    naive_tangents: tuple[float, ...]
    methodology_trace: tuple[PointAudit, ...]
    unconfirmed_roots: tuple[float, ...]
    interval_notes: tuple[IntervalNote, ...]
    # the lowered input and the grid's tape of its simplified derivative
    # (`fp_tape.nodes[fp_tape.root]`), for emit_plot_data; neither is
    # rendered, and both, which input_text and derivative_text spell out,
    # are left out of ==, hash and repr by [:-2], so they stay the last two
    f_tape: Tape
    fp_tape: Tape

    def __eq__(self, other) -> bool:
        return type(other) is AnalysisReport and self[:-2] == other[:-2]

    def __hash__(self) -> int:
        return hash(self[:-2])

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={v!r}" for name, v in zip(self._fields[:-2], self))
        return f"AnalysisReport({shown})"


def analyze(input_text: str, iv: Interval, grid_n: int = DEFAULT_GRID_N) -> AnalysisReport:
    f = parse(input_text)
    fp = differentiate(f).simplified
    derivative_text = format_expr(fp)

    f_tape = lower(f)
    grid = Grid(fp, iv, grid_n)  # the one grid pass both scans read
    root_scan = scan_roots(grid)
    scanned = scan_detailed(f_tape, grid)
    # every isolated hole, ascending, audited; those past step 1 are candidates
    trace = tuple(
        _audit(input_text, derivative_text, f_tape, grid.tape, x0)
        for x0 in sorted(scanned.candidates + scanned.dismissed)
    )
    candidate_verdicts = tuple((a, a.verdict) for a in trace if a.verdict is not None)
    # a hole the limit definition repairs is a tangent too where the
    # derivative it gives is within REPAIR_TOL of 0
    repaired = [(a, v) for a, v in candidate_verdicts if isinstance(v, Differentiable)]
    points = [*root_scan.roots, *(TangentPoint(a.x0, Provenance.REPAIRED_BY_DEFINITION, abs(v.value))
                                  for a, v in repaired if abs(v.value) <= REPAIR_TOL)]

    return AnalysisReport(
        input_text=input_text,
        interval=iv,
        derivative_text=derivative_text,
        corrected_derivative=_corrected_pieces(derivative_text, repaired),
        candidates=candidate_verdicts,
        tangents=tuple(group[0] for group in clusters(points, lambda p: p.x)),
        naive_tangents=tuple(p.x for p in root_scan.roots),
        methodology_trace=trace,
        unconfirmed_roots=root_scan.unconfirmed,
        interval_notes=scanned.interval_notes,
        f_tape=f_tape,
        fp_tape=grid.tape,
    )


def _corrected_pieces(derivative_text, repaired) -> tuple[DerivativePiece, ...]:
    """f' as pieces: the expression off the repaired holes, (audit,
    Differentiable) pairs, and each one's derivative at its point."""
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
    return {"kind": v.kind, **v._asdict()}


def _step1_dict(a: PointAudit) -> dict:
    out = a.function_outcome
    if out.is_defined:
        return {"defined": True, "value": out.value}
    return {"defined": False, "reason": out.reason.value}


def _step3_dict(a: PointAudit) -> dict | None:
    return _verdict_dict(a.verdict) if a.verdict is not None else None


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
                "x": a.x0,
                "function_value": a.function_outcome.value,
                "reason": a.derivative_outcome.reason.value,
                "culprit": a.culprit,
                "verdict": _verdict_dict(verdict),
            }
            for a, verdict in report.candidates
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
                "x": a.x0,
                "step1": _step1_dict(a),
                # past step 1 only is a culprit to blame
                "step2": {"culprit": a.culprit if a.function_outcome.is_defined else None,
                          "reason": a.derivative_outcome.reason.value},
                "step3": _step3_dict(a),
            }
            for a in report.methodology_trace
        ],
        "unconfirmed_roots": list(report.unconfirmed_roots),
        "interval_notes": [
            {"x": n.x, "undefined_side": n.undefined_side, "reason": n.reason.value}
            for n in report.interval_notes
        ],
    }


def point_json_dict(audit: PointAudit) -> dict:
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
        "step1": _step1_dict(audit),
        "step2": step2,
        "step3": _step3_dict(audit),
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


def _step1_text(a: PointAudit, where: str = "") -> str:
    out = a.function_outcome
    if out.is_defined:
        return f"step 1: f({_short(a.x0)}) = {_short(out.value)} (defined)"
    return f"step 1: f undefined{where} ({out.reason.value}); not differentiable"


def _step3_text(a: PointAudit) -> str:
    return f"step 3: by definition of the derivative: {_describe_verdict(a.verdict)}"


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
        for a in report.methodology_trace:
            lines.append(f"  x = {_short(a.x0)}")
            lines.append(f"    {_step1_text(a)}")
            if a.verdict is not None:
                lines.append(f"    step 2: culprit {a.culprit} ({a.derivative_outcome.reason.value})")
                lines.append(f"    {_step3_text(a)}")
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
    lines = [
        f"f(x) = {audit.input_text}   at x = {_short(audit.x0)}",
        _step1_text(audit, f" at x = {_short(audit.x0)}"),
        f"step 2: f'(x) = {audit.derivative_text}",
    ]
    if audit.derivative_outcome.is_defined:
        lines.append(f"        defined here, value {_short(audit.derivative_outcome.value)}")
    else:
        lines.append(
            f"        undefined here ({audit.derivative_outcome.reason.value});"
            f" culprit {audit.culprit}"
        )
    if audit.verdict is not None:
        lines.append(_step3_text(audit))
    return "\n".join(lines) + "\n"

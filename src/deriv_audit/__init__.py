"""Derivative auditing: symbolic differentiation plus a definition-of-the-
derivative check at the points the derivative expression cannot reach."""

from .expr import (
    Add, Constant, Div, EvalOutcome, Expr, Func, Interval, Mul, Neg,
    ParseError, Pow, Sub, UndefinedReason, Variable, X, evaluate, format_expr,
    parse,
)
from .derivative import DerivativeResult, differentiate, simplify
from .scan import ScanResult, scan_detailed
from .probe import (
    Corner, Cusp, Differentiable, Inconclusive, QuotientProbe, Verdict,
    VerticalTangent, classify, probe,
)
from .tangents import Provenance, TangentPoint
from .report import AnalysisReport, PointAudit, analyze, audit_point, emit_plot_data

__all__ = [
    "Add", "Constant", "Div", "EvalOutcome", "Expr", "Func", "Interval",
    "Mul", "Neg", "ParseError", "Pow", "Sub", "UndefinedReason", "Variable",
    "X", "evaluate", "format_expr", "parse",
    "DerivativeResult", "differentiate", "simplify",
    "ScanResult", "scan_detailed",
    "Corner", "Cusp", "Differentiable", "Inconclusive", "QuotientProbe",
    "Verdict", "VerticalTangent", "classify", "probe",
    "Provenance", "TangentPoint",
    "AnalysisReport", "PointAudit", "analyze", "audit_point", "emit_plot_data",
]

__version__ = "0.1.0"

"""Expected answers and independent oracles.

Every expected answer is written by hand from the mathematics, or computed
here from a hand-derived formula.  The oracles may evaluate f with
`expr.evaluate`; they never call `differentiate`, `probe` or `classify`, and
no expected answer is captured from the program's own output.

A case the program is known to get wrong keeps its true expected answer and
carries a one-line note naming the ROADMAP item that should fix it.  The
benchmark lists such cases by name, so a wrong answer at the seed is
explained rather than hidden.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from deriv_audit.expr import Expr, evaluate

from nodes import tree_nodes

ROOT_TOL = 1e-9      # tangent and candidate locations
VALUE_TOL = 1e-6     # a repaired derivative value
# Acceptance criterion 6: symbolic vs central difference.
FD_ABS_TOL = 1e-5
FD_REL_TOL = 1e-5
FD_INTERMEDIATE_MAX = 1e4
FD_ROOTS_CHECKED = 32
CSV_ROW_STRIDE = 10

ITEM3 = "ROADMAP item 3: the probe rejects slow O(h^p), p < 1, convergence as Inconclusive"
ITEM4 = "ROADMAP item 4: an even-order denominator zero off the grid is not found as a hole"
SATURATION = ("ROADMAP aim 3, no open item yet: a value of f overflows, saturates to the "
              "largest float, and f' is computed from the saturated value")


@dataclass(frozen=True)
class Problem:
    """One disagreement with the expected answer.  `defect` names the ROADMAP
    item a known defect waits for; None marks an unexpected wrong answer."""

    message: str
    defect: str | None = None


@dataclass(frozen=True)
class Case:
    """An `analyze` input with its true tangent set and candidate verdicts."""

    text: str
    lo: float
    hi: float
    tangents: tuple[float, ...]
    candidates: tuple[tuple[float, str, float | None], ...]  # (x, kind, value)
    defect: str | None = None


@dataclass(frozen=True)
class PointCase:
    """A `classify --at` input with its true verdict.  `derivative` is the
    true f'(x0) where the rules' f' is defined; None marks a hole of f'."""

    text: str
    x0: float
    kind: str
    value: float | None = None
    defect: str | None = None
    derivative: float | None = None


def _bisect(g, lo: float, hi: float) -> float:
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (g(mid) > 0.0) == (glo > 0.0):
            lo, glo = mid, g(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


# cbrt(x)*cos(x^2): f' = (cos(x^2) - 6x^2 sin(x^2)) / (3 cbrt(x^2)), so the
# roots are x = ±sqrt(t) with cos(t) = 6t sin(t), one t in (0, 1).
_T = _bisect(lambda t: math.cos(t) - 6.0 * t * math.sin(t), 0.1, 1.0)
_COS_ROOT = math.sqrt(_T)

# tan(x/2)+ln(x^2+1)+sqrt(x^4): f' = 1/(2cos(x/2)^2) + 2x/(x^2+1) + 2x is
# increasing on [-1, 1], negative at -1 and 1/2 at 0: one root in (-1, 0).
# f' written by the rules is undefined at 0 (from sqrt(x^4)); the true value
# there is 1/2.
MIX = "tan(x/2)+ln(x^2+1)+sqrt(x^4)"
_MIX_ROOT = _bisect(
    lambda x: 0.5 / math.cos(0.5 * x) ** 2 + 2.0 * x / (x * x + 1.0) + 2.0 * x, -1.0, 0.0
)

CORPUS: tuple[Case, ...] = (
    # README worked example: no expression root; 0 is repaired.
    Case("cbrt(x)*sin(x^2)", -1, 1, (0.0,), ((0.0, "differentiable", 0.0),)),
    # README counterexample: vertical tangent at 0, two expression roots.
    Case("cbrt(x)*cos(x^2)", -1, 1, (-_COS_ROOT, _COS_ROOT), ((0.0, "vertical_tangent", None),)),
    Case("x^3", -1, 1, (0.0,), ()),
    Case("x^2", -1, 1, (0.0,), ()),
    Case("abs(x)", -1, 1, (), ((0.0, "corner", None),)),
    Case("cbrt(x)", -1, 1, (), ((0.0, "vertical_tangent", None),)),
    Case("cbrt(x^2)", -1, 1, (), ((0.0, "cusp", None),)),
    Case(MIX, -1, 1, (_MIX_ROOT,), ((0.0, "differentiable", 0.5),)),
    # f = |x|^(4/3), f' = (4/3) cbrt(x): zero only at 0.
    Case("cbrt(x^4)", -1, 1, (0.0,), ((0.0, "differentiable", 0.0),), ITEM3),
    Case("x*cbrt(x)", -1, 1, (0.0,), ((0.0, "differentiable", 0.0),), ITEM3),
    # f' = 1.5 sqrt(|x|) sign(x): zero only at 0.
    Case("abs(x)^1.5", -1, 1, (0.0,), ((0.0, "differentiable", 0.0),), ITEM3),
    # f = |x-0.3|^(8/3): f' = 0 only at 0.3, where f' as written divides by 0.
    Case("(x-0.3)^2*cbrt((x-0.3)^2)", -1, 1, (0.3,), ((0.3, "differentiable", 0.0),), ITEM4),
)


def _shifted(a: float) -> str:
    return f"x-{a!r}" if a > 0 else f"x+{-a!r}"


def _family_worked(a: float) -> Case:
    s = _shifted(a)
    return Case(f"cbrt({s})*sin(({s})^2)", a - 1, a + 1, (a,), ((a, "differentiable", 0.0),))


def _family_abs(a: float) -> Case:
    return Case(f"abs({_shifted(a)})", a - 1, a + 1, (), ((a, "corner", None),))


def _family_cusp(a: float) -> Case:
    return Case(f"cbrt(({_shifted(a)})^2)", a - 1, a + 1, (), ((a, "cusp", None),))


FAMILIES = (_family_worked, _family_abs, _family_cusp)


def _point(case: Case) -> PointCase:
    x0, kind, value = case.candidates[0]
    return PointCase(case.text, x0, kind, value, case.defect)


# f = exp(-x^32): at 2 the true f' = -32 x^31 exp(-x^32) is below 1e-300 in
# size, but exp(2^32) saturates and f' is computed from the saturated value.
SATURATED = PointCase("1/exp(x^32)", 2.0, "differentiable", 0.0, SATURATION, derivative=0.0)

CORPUS_POINTS: tuple[PointCase, ...] = tuple(
    _point(c) for c in CORPUS if c.candidates) + (SATURATED,)
FAMILY_POINTS = tuple((lambda a, fam=fam: _point(fam(a))) for fam in FAMILIES)


# --------------------------------------------------------------------------
# finite-difference oracle


def _value(f: Expr, x: float) -> float | None:
    out = evaluate(f, x)
    return out.value if out.is_defined else None


def _central(f: Expr, x: float, h: float) -> float | None:
    hi, lo = _value(f, x + h), _value(f, x - h)
    if hi is None or lo is None:
        return None
    return (hi - lo) / (2.0 * h)


def trusted_fd(f: Expr, x: float) -> float | None:
    """Central difference of f at x, or None where it cannot be trusted:
    f undefined or large nearby, or the steps 1e-4, 1e-5, 1e-6 disagree."""
    for off in (0.0, 1e-6, -1e-6, 5e-4, -5e-4, 1e-3, -1e-3):
        v = _value(f, x + off)
        if v is None or abs(v) > 1e4:
            return None
    fd6, fd5, fd4 = (_central(f, x, h) for h in (1e-6, 1e-5, 1e-4))
    if fd6 is None or fd5 is None or fd4 is None:
        return None
    tol = max(FD_ABS_TOL, FD_REL_TOL * abs(fd6))
    if abs(fd4 - fd6) > 0.25 * tol or abs(fd5 - fd6) > 0.1 * tol:
        return None
    # The rounding error of f, and so of the quotient, scales with its
    # largest intermediate value (a huge addend or trig argument), not with
    # f itself.  A saturated intermediate is the program's overflow value
    # and takes no part in the cancellation.
    if max(_intermediates(f, x)) > FD_INTERMEDIATE_MAX:
        return None
    return fd6


def _intermediates(f: Expr, x: float):
    yield 0.0
    for node in tree_nodes(f):
        v = abs(_value(node, x))
        if v != sys.float_info.max:
            yield v


def fd_disagrees(f: Expr, x: float, derivative: float) -> bool:
    """True when a trusted central difference contradicts f'(x)."""
    fd = trusted_fd(f, x)
    if fd is None:
        return False
    return abs(derivative - fd) > max(FD_ABS_TOL, FD_REL_TOL * abs(derivative))


def saturates(f: Expr, x: float) -> bool:
    """Some subexpression of f reaches the overflow bound at x."""
    return any(abs(_value(node, x)) == sys.float_info.max for node in tree_nodes(f))


def _fd_problem(f: Expr, x: float, message: str, defect: str | None) -> Problem:
    return Problem(message, defect or (SATURATION if saturates(f, x) else None))


def regular_dyadic_point(f: Expr, rng, tries: int = 20) -> float:
    """A dyadic point in [-2, 2] where the FD oracle can be trusted, if the
    draw finds one; otherwise the last point drawn."""
    for _ in range(tries):
        x0 = rng.randint(-128, 128) / 64.0
        if trusted_fd(f, x0) is not None:
            return x0
    return x0


def _spread(xs: list, count: int) -> list:
    if len(xs) <= count:
        return xs
    step = len(xs) / count
    return [xs[int(i * step)] for i in range(count)]


# --------------------------------------------------------------------------
# checks: each returns the list of disagreements, empty when right


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_analysis(case: Case, f: Expr, report) -> list[Problem]:
    """A library AnalysisReport against the case's hand-written answer."""
    problems = []
    got = [t.x for t in report.tangents]
    if len(got) != len(case.tangents) or not all(
        _close(g, e, ROOT_TOL) for g, e in zip(got, case.tangents)
    ):
        problems.append(Problem(f"tangents {got} != {list(case.tangents)}", case.defect))
    cands = [(c.x0, v.kind, getattr(v, "value", None)) for c, v in report.candidates]
    ok = len(cands) == len(case.candidates)
    for (gx, gk, gv), (ex, ek, ev) in zip(cands, case.candidates):
        ok = ok and _close(gx, ex, ROOT_TOL) and gk == ek
        ok = ok and (ev is None or (gv is not None and _close(gv, ev, VALUE_TOL)))
    if not ok:
        problems.append(Problem(f"candidates {[(x, k) for x, k, _ in cands]} != "
                                f"{[(x, k) for x, k, _ in case.candidates]}", case.defect))
    roots = [t for t in report.tangents if t.provenance.value == "symbolic_expression_root"]
    problems.extend(_root_fd(f, [(t.x, t.residual) for t in roots], case.defect))
    return problems


def _root_fd(f: Expr, roots: list[tuple[float, float]], defect=None) -> list[Problem]:
    """f' ~ 0 at each reported expression root: |FD| against |f'| = residual."""
    bad = []
    for x, residual in _spread(roots, FD_ROOTS_CHECKED):
        fd = trusted_fd(f, x)
        if fd is not None and abs(abs(fd) - residual) > max(FD_ABS_TOL, FD_REL_TOL * residual):
            bad.append(_fd_problem(
                f, x, f"root {x!r}: |f'| = {residual!r} but central difference {fd!r}", defect))
    return bad


def check_cli_analyze(inp, stdout: str, csv_text: str) -> list[Problem]:
    """`analyze --json --plot` output: JSON report and CSV plot data."""
    f = inp.tree
    try:
        data = json.loads(stdout)
    except ValueError:
        return [Problem("stdout is not one JSON object")]
    problems = []
    if data["interval"] != {"lo": inp.lo, "hi": inp.hi}:
        problems.append(Problem(f"interval {data['interval']}"))
    xs = [t["x"] for t in data["tangents"]]
    if xs != sorted(xs) or any(not inp.lo <= x <= inp.hi for x in xs):
        problems.append(Problem("tangents unsorted or outside the interval"))
    for c in data["candidates"]:
        if _value(f, c["x"]) != c["function_value"]:
            problems.append(Problem(f"candidate {c['x']!r}: f value {c['function_value']!r}"))
    problems.extend(_root_fd(f, [
        (t["x"], t["residual"]) for t in data["tangents"]
        if t["provenance"] == "symbolic_expression_root"
    ]))
    problems.extend(_check_csv(inp, csv_text))
    return problems


def _check_csv(inp, csv_text: str) -> list[Problem]:
    f, n = inp.tree, inp.plot_n
    lines = csv_text.split("\n")
    if lines[0] != "x,f,fprime" or lines[-1] != "" or len(lines) != n + 3:
        return [Problem(f"CSV shape: header {lines[0]!r}, {len(lines) - 2} rows for n = {n}")]
    span = inp.hi - inp.lo
    for i, line in enumerate(lines[1:-1]):
        xc, fc, fpc = line.split(",")
        x = float(xc)
        want_x = inp.lo + i * span / n
        if abs(x - want_x) > 1e-12 * max(1.0, abs(want_x)):
            return [Problem(f"CSV row {i}: x = {xc}, expected {want_x!r}")]
        fv = _value(f, x)
        if (fv is None) != (fc == "") or (fv is not None and float(fc) != fv):
            return [Problem(f"CSV row {i}: f = {fc!r}, evaluate gives {fv!r}")]
        if i % CSV_ROW_STRIDE == 0 and fpc and fd_disagrees(f, x, float(fpc)):
            return [_fd_problem(
                f, x, f"CSV row {i}: fprime = {fpc} disagrees with a central difference", None)]
    return []


def check_point(inp, stdout: str) -> list[Problem]:
    """`classify --at X0 --json` output."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return [Problem("stdout is not one JSON object")]
    problems = []
    if data["x"] != inp.x0:
        problems.append(Problem(f"x {data['x']!r} != {inp.x0!r}"))
    if inp.point is not None:
        p = inp.point
        step3 = data["step3"] or {}
        if step3.get("kind") != p.kind or (
            p.value is not None and not _close(step3.get("value", math.inf), p.value, VALUE_TOL)
        ):
            problems.append(Problem(f"verdict {step3} != {p.kind} "
                                    f"{p.value if p.value is not None else ''}", p.defect))
        step2 = data["step2"]
        if p.derivative is None and step2["defined"]:
            problems.append(Problem("f' expression defined at a hole point"))
        if p.derivative is not None and not (step2["defined"] and _close(
                step2["value"], p.derivative, max(FD_ABS_TOL, FD_REL_TOL * abs(p.derivative)))):
            problems.append(Problem(f"f'({p.x0!r}) = {step2.get('value')!r}, "
                                    f"true value {p.derivative!r}", p.defect))
        return problems
    f = inp.tree
    fv = _value(f, inp.x0)
    step1 = data["step1"]
    if step1["defined"] != (fv is not None) or (fv is not None and step1["value"] != fv):
        problems.append(Problem(f"step1 {step1} but evaluate gives {fv!r}"))
    step2 = data["step2"]
    if step2["defined"] and fd_disagrees(f, inp.x0, step2["value"]):
        problems.append(_fd_problem(
            f, inp.x0, f"f'({inp.x0!r}) = {step2['value']!r} disagrees with a central difference",
            None))
    return problems

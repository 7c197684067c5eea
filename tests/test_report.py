import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from deriv_audit.cli import _build_parser, main
from deriv_audit.derivative import differentiate
from deriv_audit.expr import Interval, ParseError, UndefinedReason, format_expr, lower, parse
from deriv_audit.probe import (
    Corner, Cusp, Differentiable, Inconclusive, VerticalTangent,
)
from deriv_audit.report import (
    AnalysisReport, _verdict_dict, analyze, audit_point, emit_plot_data, point_json_dict,
    render_point_text, render_text, to_json_dict,
)
from deriv_audit.tangents import Provenance
from helpers import random_expr
from test_golden import CASES

IV = Interval(-1, 1)


class TestAnalyze:
    def test_worked_example(self):
        rep = analyze("cbrt(x)*sin(x^2)", IV)
        assert rep.naive_tangents == ()
        assert len(rep.tangents) == 1
        assert rep.tangents[0].x == pytest.approx(0.0, abs=1e-9)
        assert rep.tangents[0].provenance is Provenance.REPAIRED_BY_DEFINITION
        pieces = rep.corrected_derivative
        assert len(pieces) == 2
        assert pieces[0].expression == rep.derivative_text
        assert pieces[0].condition == "x != 0"
        assert pieces[1].at == pytest.approx(0.0, abs=1e-9)
        assert abs(pieces[1].value) <= 1e-6
        assert pieces[1].condition == "x = 0"

    def test_cubic(self):
        rep = analyze("x^3", IV)
        assert list(rep.naive_tangents) == [0.0]
        assert [t.x for t in rep.tangents] == [0.0]
        assert rep.candidates == ()
        assert len(rep.corrected_derivative) == 1
        assert rep.corrected_derivative[0].condition == "for all x"

    def test_counterexample(self):
        rep = analyze("cbrt(x)*cos(x^2)", IV)
        assert len(rep.candidates) == 1
        cand, verdict = rep.candidates[0]
        assert cand.x0 == pytest.approx(0.0, abs=1e-9)
        assert verdict == VerticalTangent(sign=1)
        assert len(rep.tangents) == 2
        assert all(t.provenance is Provenance.SYMBOLIC_EXPRESSION_ROOT for t in rep.tangents)
        # corrected derivative has no extra piece: the hole is not repaired
        assert len(rep.corrected_derivative) == 1

    def test_equal_inputs_give_equal_reports(self):
        for text in ["cbrt(x)*sin(x^2)", "x^3", "1/x+sqrt(x)"]:
            first, second = analyze(text, IV), analyze(text, IV)
            assert AnalysisReport._fields[-2:] == ("f_tape", "fp_tape")  # what [:-2] leaves out
            assert first.f_tape is not second.f_tape  # the tapes are left out of ==
            assert first == second and not first != second and hash(first) == hash(second)
            assert repr(first) == repr(second)
            assert repr(first).startswith("AnalysisReport(input_text=")
            assert "tape" not in repr(first).lower()

    def test_naive_subset_of_corrected(self):
        for text in ["cbrt(x)*sin(x^2)", "x^3", "cbrt(x)*cos(x^2)", "x^2-x^4"]:
            rep = analyze(text, IV)
            tangent_xs = [t.x for t in rep.tangents]
            for nx in rep.naive_tangents:
                assert any(abs(nx - tx) <= 1e-9 for tx in tangent_xs)
            repaired = [t.x for t in rep.tangents
                        if t.provenance is Provenance.REPAIRED_BY_DEFINITION]
            assert len(rep.tangents) == len(rep.naive_tangents) + len(repaired)

    def test_methodology_trace(self):
        rep = analyze("cbrt(x)*sin(x^2)", IV)
        assert len(rep.methodology_trace) == 1
        r = rep.methodology_trace[0]
        assert r.function_outcome.is_defined and r.function_outcome.value == 0.0
        assert "cbrt" in r.culprit
        assert isinstance(r.verdict, Differentiable)

    def test_trace_records_step_one_dismissal(self):
        rep = analyze("1/x", IV)
        assert len(rep.methodology_trace) == 1
        r = rep.methodology_trace[0]
        assert not r.function_outcome.is_defined
        assert r.function_outcome.reason is UndefinedReason.DIV_BY_ZERO
        assert r.verdict is None
        # the JSON blames no culprit past a failed step 1, as the text does
        step = to_json_dict(rep)["methodology_trace"][0]
        assert step["step1"] == {"defined": False, "reason": "division by zero"}
        assert step["step2"] == {"culprit": None, "reason": "division by zero"}
        assert step["step3"] is None
        assert "step 2" not in render_text(rep)

    def test_parse_error_propagates(self):
        with pytest.raises(ParseError):
            analyze("1 +", IV)

    def test_pipeline_fuzz(self):
        import random

        from deriv_audit.expr import evaluate
        from helpers import random_expr

        rng = random.Random(60701)
        ran = 0
        while ran < 80:
            e = random_expr(rng, depth=5)
            from deriv_audit.expr import format_expr
            text = format_expr(e)
            rep = analyze(text, IV, grid_n=512)
            tangent_xs = [t.x for t in rep.tangents]
            for nx in rep.naive_tangents:
                assert any(abs(nx - tx) <= 1e-9 for tx in tangent_xs)
            for t in rep.tangents:
                assert t.residual <= 1e-6
            for cand, _ in rep.candidates:
                assert evaluate(parse(text), cand.x0).is_defined
            json.dumps(to_json_dict(rep))  # always serializable
            render_text(rep)
            ran += 1


class TestPointAudit:
    def test_counterexample_point(self):
        audit = audit_point("cbrt(x)*cos(x^2)", 0.0)
        assert audit.function_outcome.value == 0.0
        assert not audit.derivative_outcome.is_defined
        assert audit.culprit == "1/(3*cbrt(x^2))"
        assert audit.verdict == VerticalTangent(sign=1)

    def test_regular_point(self):
        audit = audit_point("x^2", 1.0)
        assert audit.derivative_outcome.value == 2.0
        assert isinstance(audit.verdict, Differentiable)

    def test_step_one_dismissal(self):
        audit = audit_point("ln(x)", -1.0)
        assert not audit.function_outcome.is_defined
        assert audit.verdict is None
        d = point_json_dict(audit)
        assert d["step1"]["defined"] is False
        assert d["step3"] is None

    def test_step_two_reason_is_the_culprits_own(self):
        # the shallowest violation of f' at -1 is ln(x); the culprit, the
        # leftmost smallest undefined subexpression, is sqrt(x)
        audit = audit_point("x*sqrt(sqrt(x))+x*ln(x)", -1.0)
        assert audit.culprit == "sqrt(x)"
        assert audit.derivative_outcome.reason is UndefinedReason.EVEN_ROOT_OF_NEGATIVE
        step2 = point_json_dict(audit)["step2"]
        assert (step2["culprit"], step2["reason"]) == ("sqrt(x)", "even root of a negative number")
        assert "undefined here (even root of a negative number); culprit sqrt(x)" in (
            render_point_text(audit))


def _same_steps(text, iv, grid_n=None):
    """Each trace record of analyze is the audit_point of its x0: the same
    step 1, culprit, step-2 reason and verdict."""
    rep = analyze(text, iv) if grid_n is None else analyze(text, iv, grid_n=grid_n)
    for r in rep.methodology_trace:
        a = audit_point(text, r.x0)
        assert (r.function_outcome, r.culprit, r.derivative_outcome, r.verdict) == (
            a.function_outcome, a.culprit, a.derivative_outcome, a.verdict), (text, r.x0)
    return len(rep.methodology_trace)


def test_trace_records_are_point_audits_on_golden_inputs():
    audited = sum(_same_steps(text, Interval(lo, hi)) for _, text, lo, hi in CASES)
    assert audited >= len(CASES) // 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 6))
def test_trace_records_are_point_audits(seed, depth):
    _same_steps(format_expr(random_expr(random.Random(seed), depth)), IV, grid_n=512)


@pytest.mark.parametrize("verdict,expected", [
    (Differentiable(value=0.5), {"kind": "differentiable", "value": 0.5}),
    (VerticalTangent(sign=-1), {"kind": "vertical_tangent", "sign": -1}),
    (Corner(left_slope=-1.0, right_slope=1.0),
     {"kind": "corner", "left_slope": -1.0, "right_slope": 1.0}),
    (Cusp(), {"kind": "cusp"}),
    (Inconclusive(diagnostic="why"), {"kind": "inconclusive", "diagnostic": "why"}),
])
def test_verdict_json_keys_in_order(verdict, expected):
    got = _verdict_dict(verdict)
    assert list(got.items()) == list(expected.items())


def _plot(text, n, path):
    f = parse(text)
    emit_plot_data(lower(f), lower(differentiate(f).simplified), IV, n, path)


class TestPlotData:
    def test_hole_leaves_cell_empty(self, tmp_path):
        path = tmp_path / "plot.csv"
        _plot("cbrt(x)*cos(x^2)", 4, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,f,fprime"
        assert len(lines) == 6
        mid = lines[3].split(",")
        assert mid[0] == "0" and mid[1] == "0" and mid[2] == ""

    def test_linear_rows(self, tmp_path):
        path = tmp_path / "plot.csv"
        _plot("x", 2, path)
        assert path.read_text(encoding="utf-8") == "x,f,fprime\n-1,-1,1\n0,0,1\n1,1,1\n"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _plot("cbrt(x)*sin(x^2)", 100, a)
        _plot("cbrt(x)*sin(x^2)", 100, b)
        assert a.read_bytes() == b.read_bytes()


class TestJson:
    def test_report_round_trips_through_json(self):
        rep = analyze("cbrt(x)*sin(x^2)", IV)
        blob = json.dumps(to_json_dict(rep), indent=2)
        data = json.loads(blob)
        assert data["input"] == "cbrt(x)*sin(x^2)"
        assert data["naive_tangents"] == []
        assert data["tangents"][0]["provenance"] == "repaired_by_definition"
        assert data["candidates"][0]["verdict"]["kind"] == "differentiable"
        assert len(data["corrected_derivative"]) == 2
        assert data["methodology_trace"][0]["step1"]["defined"] is True

    def test_text_and_json_share_content(self):
        rep = analyze("cbrt(x)*cos(x^2)", IV)
        text = render_text(rep)
        data = to_json_dict(rep)
        assert rep.derivative_text in text
        assert data["derivative"] == rep.derivative_text
        assert "vertical tangent" in text
        assert data["candidates"][0]["verdict"]["kind"] == "vertical_tangent"


class TestCli:
    def test_analyze_exit_zero(self, capsys):
        assert main(["analyze", "cbrt(x)*sin(x^2)", "--interval", "-1", "1"]) == 0
        out = capsys.readouterr().out
        assert "naive horizontal tangents" in out
        assert "(none)" in out
        assert "repaired by definition" in out

    def test_analyze_json(self, capsys):
        assert main(["analyze", "x^3", "--interval", "-1", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["naive_tangents"] == [0.0]

    def test_classify(self, capsys):
        assert main(["classify", "cbrt(x)*cos(x^2)", "--at", "0"]) == 0
        out = capsys.readouterr().out
        assert "vertical tangent" in out

    def test_diff(self, capsys):
        assert main(["diff", "x^2"]) == 0
        assert capsys.readouterr().out.strip() == "2*x"

    def test_parse_error_exit_two(self, capsys):
        assert main(["analyze", "x +", "--interval", "0", "1"]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,fragment", [
        (["analyze", "x", "--interval", "1", "0"], "--interval"),
        (["analyze", "x", "--interval", "nan", "1"], "--interval"),
        (["analyze", "x", "--interval", "0", "inf"], "--interval"),
        (["analyze", "x", "--interval", "-1", "1", "--grid", "1"], "--grid"),
        (["analyze", "x", "--interval", "-1", "1", "--plot", "p.csv", "--plot-n", "1"], "--plot-n"),
        (["classify", "x", "--at", "nan"], "--at"),
        (["classify", "x", "--at", "inf"], "--at"),
        (["classify", "x", "--at=-inf"], "--at"),
        (["analyze", "x+1e999", "--interval", "0", "1"], "parse error"),
        (["classify", "1e999*x", "--at", "0"], "parse error"),
    ])
    def test_bad_input_exits_two_with_one_line(self, capsys, argv, fragment, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("deriv-audit: ") and captured.err.count("\n") == 1
        assert fragment in captured.err
        assert not list(tmp_path.iterdir())  # nothing written

    def test_negative_exponent_form_interval(self, capsys):
        assert main(["analyze", "x^2", "--interval", "-1e308", "1e308", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [t["x"] for t in data["tangents"]] == [0.0]

    def test_negative_exponent_form_point(self, capsys):
        assert main(["classify", "x", "--at", "-1e-3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["x"] == -1e-3

    @staticmethod
    def _count_calls(monkeypatch):
        """Count parse and differentiate calls, and record lower's argument,
        wherever the package refers to them."""
        calls = {"parse": 0, "differentiate": 0}
        lowered = []
        for name, original in (("parse", parse), ("differentiate", differentiate),
                               ("lower", lower)):
            def counted(*args, _name=name, _original=original):
                if _name == "lower":
                    lowered.append(args[0])
                else:
                    calls[_name] += 1
                return _original(*args)
            for key, module in list(sys.modules.items()):
                if key.startswith("deriv_audit") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return calls, lowered

    def test_plot_parses_and_differentiates_once(self, capsys, tmp_path, monkeypatch):
        candidates = len(analyze("cbrt(x)*sin(x^2)", IV).candidates)
        calls, lowered = self._count_calls(monkeypatch)
        argv = ["analyze", "cbrt(x)*sin(x^2)", "--interval", "-1", "1",
                "--plot", str(tmp_path / "plot.csv")]
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == {"parse": 1, "differentiate": 1}
        # f' is lowered once, for the grid; the plot reads that tape
        fp = differentiate(parse("cbrt(x)*sin(x^2)")).simplified
        assert sum(e == fp for e in lowered) == 1
        # f is lowered once by analyze, for the scan, each candidate's probe
        # and the plot
        assert candidates == 1
        assert sum(e == parse("cbrt(x)*sin(x^2)") for e in lowered) == 1

    def test_classify_lowers_f_once(self, capsys, monkeypatch):
        calls, lowered = self._count_calls(monkeypatch)
        assert main(["classify", "cbrt(x)*sin(x^2)", "--at", "0"]) == 0
        assert "step 3" in capsys.readouterr().out  # f is defined there, so it is probed
        assert calls == {"parse": 1, "differentiate": 1}
        f = parse("cbrt(x)*sin(x^2)")
        fp = differentiate(f).simplified
        # f once, for step 1 and the probe; f' once, for step 2 and its culprit
        assert sum(e == f for e in lowered) == 1
        assert sum(e == fp for e in lowered) == 1
        assert len(lowered) == 2

    @pytest.mark.parametrize("argv", [
        ["diff", "(" * 300 + "x" + ")" * 300],
        ["analyze", "--interval", "-1", "1", "--plot", "p.csv", "--", "(" * 300 + "x" + ")" * 300],
        ["classify", "--at", "0", "--", "(" * 300 + "x" + ")" * 300],
        ["diff", "--", "-" * 3000 + "x"],
        ["analyze", "--interval", "-1", "1", "--", "-" * 3000 + "x"],
        ["classify", "--at", "0", "--", "-" * 3000 + "x"],
    ], ids=["diff-parens", "analyze-parens", "classify-parens", "diff-minus", "analyze-minus",
            "classify-minus"])
    def test_deep_nesting_exits_zero(self, argv, tmp_path, monkeypatch):
        # each input is x, nested: it prints what x prints, with its own text
        # as f, and writes the same plot
        monkeypatch.chdir(tmp_path)
        out, err, code = _run_cli([*argv[:-1], "x"])
        assert (err, code) == ("", 0)
        plots = [p.read_bytes() for p in tmp_path.iterdir()]
        for p in tmp_path.iterdir():
            p.unlink()
        assert _run_cli(argv) == (out.replace("f(x) = x", f"f(x) = {argv[-1]}", 1), "", 0)
        assert [p.read_bytes() for p in tmp_path.iterdir()] == plots
        if argv[0] == "diff":
            assert out == "1\n"

    def test_deep_equal_bases_merge(self):
        # u^3*u^2 -> u^5 compares two equal but distinct 3,000-deep bases
        n = 3000
        u = "sin(" * n + "x" + ")" * n
        out, err, code = _run_cli(["diff", f"({u})^3*({u})^2/({u})"])
        assert (err, code) == ("", 0)
        # u' = cos(sin(...(x)))*(...*(cos(sin(x))*cos(x)))
        du = "*(".join(f"cos({'sin(' * k}x{')' * k})" for k in range(n - 1, 0, -1))
        du += "*cos(x)" + ")" * (n - 2)
        expected = f"((3*{u}^2*({du})*{u}^2+{u}^3*(2*{u}*({du})))*{u}-{u}^5*({du}))/{u}^2\n"
        same = out == expected  # not in the assert: no diff of 68 MB texts
        assert same

    def test_io_error_exit_three(self, capsys, tmp_path):
        missing = tmp_path / "no" / "dir" / "plot.csv"
        code = main(["analyze", "x", "--interval", "0", "1", "--plot", str(missing)])
        assert code == 3
        err = capsys.readouterr().err
        assert "cannot write" in err and str(missing) in err

    def test_plot_written(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        code = main([
            "analyze", "cbrt(x)*sin(x^2)", "--interval", "-1", "1",
            "--plot", str(path), "--plot-n", "10",
        ])
        assert code == 0
        capsys.readouterr()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,f,fprime"
        assert len(lines) == 12


def _run_cli(argv):
    """main's stdout, stderr and exit code; argparse's SystemExit counts."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


# In this order: a usage error, --help, an option check, then valid calls.
_PARSER_STATE_ARGVS = [
    (["analyze", "x", "--interval", "-1"], 2),
    (["--help"], 0),
    (["analyze", "x", "--interval", "-1", "1", "--grid", "1"], 2),
    (["analyze", "cbrt(x)*sin(x^2)", "--interval", "-1", "1", "--json"], 0),
    (["classify", "cbrt(x)*cos(x^2)", "--at", "0"], 0),
    (["diff", "x^2*sin(x)"], 0),
]


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site from loading them first; src/ comes first on sys.path
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import deriv_audit, deriv_audit.cli; "
            "print(deriv_audit.__file__); print(*{'dataclasses', 'inspect', 'typing'} & set(sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True,
                          check=True)
    where, loaded = done.stdout.split("\n")[:2]
    assert where.startswith(src) and loaded == ""


def test_cached_parser_is_stateless():
    parser = _build_parser()
    cached = [_run_cli(argv) for argv, _ in _PARSER_STATE_ARGVS]
    assert _build_parser() is parser  # every call above reused it
    for (argv, code), got in zip(_PARSER_STATE_ARGVS, cached):
        _build_parser.cache_clear()
        assert got == _run_cli(argv), argv
        assert got[2] == code, argv


# Property: whatever the arguments, main ends in a documented exit code.
# argparse's own usage errors end in SystemExit(2), which counts as exit 2.
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 5e-324]),
)
_EXPRESSIONS = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: format_expr(random_expr(random.Random(seed), 4))),
    st.text(alphabet="x()+-*/^.0123456789e sincotaqrlb", max_size=30),
    st.text(max_size=12),
    st.tuples(st.sampled_from(["(", "-", "sqrt(", "sin(", "x^"]), st.integers(1, 5000)).map(
        lambda t: t[0] * t[1] + "x" + ")" * (t[1] if t[0].endswith("(") else 0)),
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["analyze", "classify", "diff"]))
    options = []
    if command == "analyze":
        options += ["--interval", *(repr(draw(_NUMBERS)) for _ in range(2)),
                    "--grid", str(draw(st.integers(-2, 40)))]
        if draw(st.booleans()):
            options += ["--plot", draw(st.sampled_from(["{tmp}/plot.csv", "{tmp}/no/plot.csv"])),
                        "--plot-n", str(draw(st.integers(-1, 20)))]
        if draw(st.booleans()):
            options.append("--json")
    elif command == "classify":
        at = repr(draw(_NUMBERS))
        options += draw(st.sampled_from([["--at", at], [f"--at={at}"]]))
        if draw(st.booleans()):
            options.append("--json")
    text = draw(_EXPRESSIONS)
    return [command, *options, "--", text]


@settings(max_examples=100, deadline=None)
@given(argv=_argvs())
def test_cli_exits_only_with_documented_codes(argv):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main([a.replace("{tmp}", tmp) for a in argv])
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 2, 3), (argv, err.getvalue()[-500:])
        assert bool(code) == bool(err.getvalue())  # a failure says why, success is silent

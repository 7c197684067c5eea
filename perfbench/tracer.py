"""Spans around the program's public functions, installed from outside.

`Tracer.install` replaces each named function, in every `deriv_audit`
module that holds it, with a wrapper that records a span: name, start, end,
parent span and call id, kept in memory until `write`.  `evaluate` runs
about 12,000 times per `analyze`, so it gets no span: its calls, time and
evaluated nodes are summed, and each call is charged to the innermost open
span.  A name the program no longer has is reported as null.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import types

from nodes import domain_nodes, node_count

# (module, function) pairs that get a span.  find_expression_roots, scan,
# find_horizontal_tangents and check_function_defined are thin wrappers the
# ROADMAP plans to remove; they are wrapped so their time is charged to their
# own layer while they exist.
SPAN_TARGETS = (
    ("expr", "parse"), ("expr", "format_expr"),
    ("derivative", "differentiate"),
    ("tangents", "scan_roots"), ("tangents", "find_expression_roots"),
    ("tangents", "find_horizontal_tangents"),
    ("scan", "scan_detailed"), ("scan", "scan"), ("scan", "check_function_defined"),
    ("probe", "probe"), ("probe", "classify"),
    ("report", "analyze"), ("report", "audit_point"), ("report", "emit_plot_data"),
    ("report", "to_json_dict"), ("report", "point_json_dict"),
    ("report", "render_text"), ("report", "render_point_text"),
    ("cli", "main"),
)
COUNT_TARGET = ("expr", "evaluate")
# `cli.main` serialises with the `json` module it imported; its `dumps` is
# part of rendering.
CLI_DUMPS = "cli.json.dumps"

RENDER = ("report.to_json_dict", "report.point_json_dict", "report.render_text",
          "report.render_point_text", CLI_DUMPS)


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "evals", "info")

    def __init__(self, name, parent, call):
        self.name, self.parent, self.call = name, parent, call
        self.start = self.end = 0
        self.evals = 0
        self.info = None


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "deriv_audit" or k.startswith("deriv_audit."))]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.call = 0
        self.eval_calls = 0
        self.eval_ns = 0
        self.eval_nodes = 0
        self._sizes: dict[int, tuple[object, int]] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, bool] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod_name, fn_name in SPAN_TARGETS:
            orig = self._lookup(mod_name, fn_name)
            if orig is not None:
                self._replace(orig, self._span_wrapper(f"{mod_name}.{fn_name}", orig))
        orig = self._lookup(*COUNT_TARGET)
        if orig is not None:
            self._replace(orig, self._count_wrapper(orig))
        cli = sys.modules.get("deriv_audit.cli")
        dumps = getattr(getattr(cli, "json", None), "dumps", None)
        self.wrapped[CLI_DUMPS] = dumps is not None
        if dumps is not None:
            proxy = types.SimpleNamespace(**vars(cli.json))
            proxy.dumps = self._span_wrapper(CLI_DUMPS, dumps)
            self._patched.append((cli, "json", cli.json))
            cli.json = proxy

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def _lookup(self, mod_name: str, fn_name: str):
        # Through importlib: the package attributes `deriv_audit.scan` and
        # `deriv_audit.probe` are functions that shadow the submodules.
        key = f"{mod_name}.{fn_name}"
        try:
            module = importlib.import_module(f"deriv_audit.{mod_name}")
        except ImportError:
            module = None
        fn = getattr(module, fn_name, None)
        self.wrapped[key] = callable(fn)
        return fn if callable(fn) else None

    def _replace(self, orig, wrapper) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patched.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    # -- recording ---------------------------------------------------------

    def begin_call(self) -> None:
        self.call += 1
        self._sizes.clear()

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.call)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.info = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn):
        spans, stack, sizes, clock = self.spans, self.stack, self._sizes, time.perf_counter_ns

        def counted(e, x):
            entry = sizes.get(id(e))
            if entry is None or entry[0] is not e:
                entry = sizes[id(e)] = (e, node_count(e))
            t0 = clock()
            result = fn(e, x)
            self.eval_ns += clock() - t0
            self.eval_calls += 1
            self.eval_nodes += entry[1]
            if stack:
                spans[stack[-1]].evals += 1
            return result

        counted.__wrapped__ = fn
        return counted

    # -- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "parent": s.parent, "call": s.call, "evals": s.evals, "info": s.info,
                }) + "\n")

    def metrics(self, calls: int) -> dict:
        """Per-layer figures; times and counts are per top-level call."""
        self_ns: dict[str, int] = {}
        incl_ns: dict[str, int] = {}
        count: dict[str, int] = {}
        evals: dict[str, int] = {}
        info: dict[str, list] = {}
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end - s.start
        for s, kids in zip(self.spans, child_ns):
            dur = s.end - s.start
            self_ns[s.name] = self_ns.get(s.name, 0) + dur - kids
            incl_ns[s.name] = incl_ns.get(s.name, 0) + dur
            count[s.name] = count.get(s.name, 0) + 1
            evals[s.name] = evals.get(s.name, 0) + s.evals
            if s.info is not None:
                info.setdefault(s.name, []).append(s.info)

        have = self.wrapped

        def need(*names):
            return all(have.get(n) for n in names)

        def per_call(v, scale=1.0):
            return v / calls / scale

        def ratio(a, b):
            return a / b if b else 0.0

        def mean_info(name, key):
            vals = [i[key] for i in info.get(name, ())]
            return sum(vals) / len(vals) if vals else 0.0

        def sum_info(name, key):
            return sum(i[key] for i in info.get(name, ()))

        scan_names = [n for n in ("scan.scan_detailed", "scan.scan", "scan.check_function_defined")
                      if have.get(n)]
        passes = count.get("tangents.scan_roots", 0) + count.get("scan.scan_detailed", 0)
        findings = sum(sum_info("scan.scan_detailed", k) for k in ("candidates", "notes", "dismissed"))
        grid_ns = self_ns.get("tangents.scan_roots", 0) + self_ns.get(
            "tangents.find_expression_roots", 0) + sum(self_ns.get(n, 0) for n in scan_names)
        us, ms = 1e3, 1e6

        table = {
            "expr.parse_us": (("expr.parse",), lambda: per_call(self_ns.get("expr.parse", 0), us)),
            "expr.format_us": (("expr.format_expr",),
                               lambda: per_call(self_ns.get("expr.format_expr", 0), us)),
            "expr.evaluate_calls": (("expr.evaluate",), lambda: per_call(self.eval_calls)),
            "expr.evaluate_ns_per_node": (("expr.evaluate",),
                                          lambda: ratio(self.eval_ns, self.eval_nodes)),
            "derivative.differentiate_us": (
                ("derivative.differentiate",),
                lambda: per_call(self_ns.get("derivative.differentiate", 0), us)),
            "derivative.fp_nodes": (("derivative.differentiate",),
                                    lambda: mean_info("derivative.differentiate", "fp_nodes")),
            "derivative.fp_domain_nodes": (
                ("derivative.differentiate",),
                lambda: mean_info("derivative.differentiate", "fp_domain_nodes")),
            "tangents.scan_roots_ms": (("tangents.scan_roots",),
                                       lambda: per_call(self_ns.get("tangents.scan_roots", 0), ms)),
            "tangents.scan_roots_evals": (("tangents.scan_roots",),
                                          lambda: per_call(evals.get("tangents.scan_roots", 0))),
            "tangents.grid_passes": (("tangents.scan_roots", "scan.scan_detailed"),
                                     lambda: per_call(passes)),
            "tangents.roots": (("tangents.scan_roots",),
                               lambda: per_call(sum_info("tangents.scan_roots", "roots"))),
            "tangents.unconfirmed": (
                ("tangents.scan_roots",),
                lambda: per_call(sum_info("tangents.scan_roots", "unconfirmed"))),
            "scan.scan_detailed_ms": (("scan.scan_detailed",),
                                      lambda: per_call(sum(self_ns.get(n, 0) for n in scan_names), ms)),
            "scan.evals": (("scan.scan_detailed",),
                           lambda: per_call(sum(evals.get(n, 0) for n in scan_names))),
            "scan.candidates": (("scan.scan_detailed",),
                                lambda: per_call(sum_info("scan.scan_detailed", "candidates"))),
            "scan.notes": (("scan.scan_detailed",),
                           lambda: per_call(sum_info("scan.scan_detailed", "notes"))),
            "scan.dismissed": (("scan.scan_detailed",),
                               lambda: per_call(sum_info("scan.scan_detailed", "dismissed"))),
            "scan.findings_per_pass": (("tangents.scan_roots", "scan.scan_detailed"),
                                       lambda: ratio(findings, passes)),
            "scan.grid_share_of_analyze": (
                ("tangents.scan_roots", "scan.scan_detailed", "report.analyze"),
                lambda: ratio(grid_ns, incl_ns.get("report.analyze", 0))),
            "probe.probe_us": (("probe.probe",), lambda: per_call(self_ns.get("probe.probe", 0), us)),
            "probe.classify_us": (("probe.classify",),
                                  lambda: per_call(self_ns.get("probe.classify", 0), us)),
            "probe.evals_per_probe": (("probe.probe",), lambda: ratio(
                evals.get("probe.probe", 0), count.get("probe.probe", 0))),
            "probe.conclusive_ratio": (("probe.classify",), lambda: ratio(
                sum_info("probe.classify", "conclusive"), count.get("probe.classify", 0))),
            "report.analyze_self_ms": (("report.analyze",),
                                       lambda: per_call(self_ns.get("report.analyze", 0), ms)),
            "report.audit_point_self_us": (
                ("report.audit_point",),
                lambda: per_call(self_ns.get("report.audit_point", 0), us)),
            "report.render_ms": ((), lambda: per_call(sum(self_ns.get(n, 0) for n in RENDER), ms)),
            "report.plot_ms": (("report.emit_plot_data",),
                               lambda: per_call(self_ns.get("report.emit_plot_data", 0), ms)),
            "report.plot_bytes": (("report.emit_plot_data",),
                                  lambda: per_call(sum_info("report.emit_plot_data", "bytes"))),
            "cli.main_self_us": (("cli.main",), lambda: per_call(self_ns.get("cli.main", 0), us)),
        }
        return {name: (fn() if need(*names) else None) for name, (names, fn) in table.items()}


def _differentiate_note(args, kwargs, result):
    fp = getattr(result, "simplified", result)
    return {"fp_nodes": node_count(fp), "fp_domain_nodes": domain_nodes(fp)}


def _scan_roots_note(args, kwargs, result):
    return {"roots": len(result.roots), "unconfirmed": len(result.unconfirmed)}


def _scan_detailed_note(args, kwargs, result):
    return {"candidates": len(result.candidates), "notes": len(result.interval_notes),
            "dismissed": len(result.dismissed)}


def _classify_note(args, kwargs, result):
    return {"conclusive": int(result.kind != "inconclusive")}


def _plot_note(args, kwargs, result):
    path = kwargs.get("path", args[3] if len(args) > 3 else None)
    return {"bytes": os.path.getsize(path)}


_NOTES = {
    "derivative.differentiate": _differentiate_note,
    "tangents.scan_roots": _scan_roots_note,
    "scan.scan_detailed": _scan_detailed_note,
    "probe.classify": _classify_note,
    "report.emit_plot_data": _plot_note,
}

"""deriv-audit benchmark.

    python3 perfbench/run.py --workload paper-corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  One
process, one closed-loop caller, no threads: each call starts when the
previous one has returned.  The inputs of a run come from `--seed` alone
(see gen.py); every output is checked against a hand-written answer or an
independent oracle (see expected.py).

`--trace 0` prints the end-to-end metrics.  `--trace 1` first runs a third
of `--seconds` untraced, then the rest with spans installed around the
program's public functions (see tracer.py), and prints the per-layer
metrics and the tracing overhead; the spans are written to
`.perfbench-out/`.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("paper-corpus", "large-trees", "point-audit")
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60
UNTRACED_SHARE = 1.0 / 3.0


@dataclass(frozen=True)
class Failure:
    """A call that raised or exited non-zero."""

    message: str


class Run:
    """Latencies and outputs of whole passes over the input set."""

    def __init__(self, inputs, reference=None):
        self.inputs = inputs
        self.latencies: list[float] = []
        self.first = list(reference) if reference is not None else [None] * len(inputs)
        self.compare_first_pass = reference is not None
        self.failed_calls = 0
        self.mismatch = [0] * len(inputs)
        self.passes = 0
        self.pass_seconds = 0.0

    @property
    def calls(self) -> int:
        return self.passes * len(self.inputs)

    def calls_per_s(self) -> float:
        return self.calls / self.pass_seconds


def timed_loop(call, finish, inputs, seconds, tracer=None, reference=None) -> Run:
    run = Run(inputs, reference)
    clock = time.perf_counter
    start = clock()
    while True:
        pass_start = clock()
        for i, inp in enumerate(inputs):
            if tracer is not None:
                tracer.begin_call()
            t0 = clock()
            try:
                out = call(inp)
            except (Exception, SystemExit) as exc:
                out = Failure(f"{type(exc).__name__}: {exc}")
            run.latencies.append(clock() - t0)
            if isinstance(out, Failure):
                run.failed_calls += 1
            else:
                out = finish(inp, out)
            if run.passes == 0 and not run.compare_first_pass:
                run.first[i] = out
            elif out != run.first[i]:
                run.mismatch[i] += 1
        run.pass_seconds += clock() - pass_start
        run.passes += 1
        if clock() - start >= seconds:
            return run


# --------------------------------------------------------------------------
# calls into the program


def make_caller(workload, plot_path):
    """(call, finish, setup_spec): `call` is the timed top-level call,
    `finish` collects what it left outside the timed region."""
    import importlib

    expr_mod = importlib.import_module("deriv_audit.expr")
    report_mod = importlib.import_module("deriv_audit.report")
    cli_mod = importlib.import_module("deriv_audit.cli")

    if workload == "paper-corpus":
        def call(inp):
            return report_mod.analyze(inp.text, expr_mod.Interval(inp.lo, inp.hi))

        def spec(inp):
            return {"mode": "analyze", "text": inp.text, "lo": inp.lo, "hi": inp.hi}

        return call, lambda inp, out: out, spec

    def argv_of(inp):
        # `--plot ""` in gen.py marks the slot for the CSV path.
        return [plot_path if a == "" else a for a in inp.argv]

    argvs: dict[int, list[str]] = {}

    def call(inp):
        argv = argvs.get(id(inp))
        if argv is None:
            argv = argvs[id(inp)] = argv_of(inp)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_mod.main(argv)
        if rc != 0:
            return Failure(f"exit {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    def finish(inp, out):
        if not inp.plot_n:
            return out
        with open(plot_path, encoding="utf-8") as handle:
            return out, handle.read()

    def spec(inp):
        return {"mode": "cli", "argv": argv_of(inp)}

    return call, finish, spec


def measure_setup(spec: dict) -> float:
    """Median over SETUP_RUNS fresh interpreters of import + first call.
    One unmeasured run first, so every measured one finds compiled
    bytecode as an installed package would."""
    cmd = [sys.executable, os.path.join(HERE, "setup_child.py"), json.dumps(spec)]
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up call failed: {done.stderr.strip()[-500:]}")
        if k:
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


# --------------------------------------------------------------------------
# correctness


def check_outputs(workload, inputs, first):
    """Per input, its disagreements with the expected answer; plus problems
    with the generated inputs themselves."""
    import expected
    from deriv_audit.expr import format_expr, parse

    input_problems = []
    for inp in inputs:
        tree = getattr(inp, "tree", None)
        if tree is None:
            continue
        if parse(inp.text) != tree:
            input_problems.append(f"{inp.name}: parse(text) differs from the generated tree")
        if parse(format_expr(tree)) != tree:
            input_problems.append(f"{inp.name}: parse(format_expr(e)) != e")

    problems = []
    for inp, out in zip(inputs, first):
        if isinstance(out, Failure):
            problems.append([expected.Problem(out.message)])
        elif workload == "paper-corpus":
            problems.append(expected.check_analysis(inp.case, parse(inp.text), out))
        elif workload == "large-trees":
            problems.append(expected.check_cli_analyze(inp, *out))
        else:
            problems.append(expected.check_point(inp, out))
    return problems, input_problems


def input_properties(inputs) -> dict:
    """Mean size and domain-sensitive nodes of f' over the distinct inputs."""
    from deriv_audit.derivative import differentiate
    from deriv_audit.expr import parse
    from nodes import domain_nodes, node_count

    seen = {}
    for inp in inputs:
        if inp.text not in seen:
            fp = differentiate(parse(inp.text)).simplified
            seen[inp.text] = (node_count(fp), domain_nodes(fp))
    sizes = list(seen.values())
    return {
        "inputs": len(sizes),
        "fp_nodes_mean": statistics.mean(s for s, _ in sizes),
        "fp_domain_nodes_mean": statistics.mean(d for _, d in sizes),
        "share_domain_nodes_ge3": sum(d >= 3 for _, d in sizes) / len(sizes),
    }


def latency_summary(latencies: list[float]) -> tuple[float, float, int]:
    ordered = sorted(latencies)
    p50 = statistics.median(ordered)
    p90 = statistics.quantiles(ordered, n=10, method="inclusive")[8]
    return p50, p90, sum(1 for v in ordered if v > p90)


# --------------------------------------------------------------------------


def run(args, tmp: str) -> int:
    import gen
    from tracer import Tracer

    inputs = gen.WORKLOADS[args.workload](args.seed)
    plot_path = os.path.join(tmp, "plot.csv")
    call, finish, spec = make_caller(args.workload, plot_path)
    setup_s = measure_setup(spec(inputs[0]))

    # The first call of a process pays for lazy set-up; it is part of
    # setup_s and not timed again.
    call(inputs[0])
    # The benchmark's own objects (inputs, discarded tree pools) would
    # otherwise be traversed by every full collection during the timed loop.
    gc.collect()
    gc.freeze()

    tracer = None
    if args.trace:
        plain = timed_loop(call, finish, inputs, args.seconds * UNTRACED_SHARE)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_loop(call, finish, inputs, args.seconds * (1 - UNTRACED_SHARE),
                                tracer=tracer, reference=plain.first)
        finally:
            tracer.uninstall()
        runs = [plain, traced]
    else:
        plain = timed_loop(call, finish, inputs, args.seconds)
        runs = [plain]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, input_problems = check_outputs(args.workload, inputs, plain.first)
    attempted = sum(r.calls for r in runs)
    failed = sum(r.failed_calls for r in runs)
    right = 0
    for i, inp in enumerate(inputs):
        if not problems[i]:
            right += sum(r.passes - r.mismatch[i] for r in runs)
    unexpected = [f"WRONG input: {p}" for p in input_problems]
    for i, inp in enumerate(inputs):
        for p in problems[i]:
            if p.defect:
                print(f"known wrong: {inp.name}: {p.message}  [{p.defect}]")
            else:
                unexpected.append(f"WRONG: {inp.name}: {p.message}")
        if not problems[i] and any(r.mismatch[i] for r in runs):
            unexpected.append(f"WRONG: {inp.name}: output changed between passes")
    correct = not unexpected

    props = input_properties(inputs)
    p50, p90, beyond = latency_summary(plain.latencies)
    print(f"workload {args.workload}, seed {args.seed}: {len(inputs)} inputs, "
          f"{plain.passes} whole passes, {plain.calls} timed calls")
    print(f"latency samples {len(plain.latencies)}, {beyond} beyond p90")
    print("input properties " + json.dumps(props))
    for line in unexpected:
        print(line)

    if args.trace:
        layer = tracer.metrics(traced.calls)
        layer["trace.overhead_frac"] = 1.0 - traced.calls_per_s() / plain.calls_per_s()
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"traced calls_per_s {traced.calls_per_s()!r}, untraced {plain.calls_per_s()!r}; "
              f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
        print("wrapped " + json.dumps({k: (v or None) and True for k, v in tracer.wrapped.items()}))
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    else:
        layer = {
            "calls_per_s": plain.calls_per_s(),
            "latency_p50_ms": p50 * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
            "right_frac": right / attempted,
        }
        units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


BENCHMARK: dict = {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="deriv-audit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "deriv_audit", "__init__.py")):
        print(f"perfbench: {os.path.join('src', 'deriv_audit')} not found; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import deriv_audit

    if not os.path.abspath(deriv_audit.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported deriv_audit from {deriv_audit.__file__}, not from src/",
              file=sys.stderr)
        return 2
    BENCHMARK.update(_load_benchmark())

    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

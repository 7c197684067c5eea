"""Golden bytes: `analyze --json` stdout and the `--plot` CSV of a fixed set
of cases must stay byte-identical across refactors of the evaluator and the
scans.  The files under tests/golden/ were written by the version of the
program that predates the lowered evaluator.

Regenerate (only when an output change is intended and reviewed):

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import os
import random
import sys

import pytest

from deriv_audit.cli import main
from deriv_audit.expr import format_expr
from helpers import random_expr

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
PLOT_N = "200"


def _tree(seed):
    return format_expr(random_expr(random.Random(seed), 6))


CASES = [
    ("readme_example", "cbrt(x)*sin(x^2)", -1, 1),
    ("readme_counterexample", "cbrt(x)*cos(x^2)", -1, 1),
    ("x_cubed", "x^3", -1, 1),
    ("x_squared", "x^2", -1, 1),
    ("abs", "abs(x)", -1, 1),
    ("cbrt", "cbrt(x)", -1, 1),
    ("cbrt_x_squared", "cbrt(x^2)", -1, 1),
    ("tan_ln_sqrt", "tan(x/2)+ln(x^2+1)+sqrt(x^4)", -1, 1),
    ("tree_seed4", _tree(4), -2, 2),
    ("tree_seed9", _tree(9), -2, 2),
    ("tree_seed15", _tree(15), -2, 2),
]


def _run(text, lo, hi, plot_path, capsys):
    argv = ["analyze", "--interval", str(lo), str(hi), "--json",
            "--plot", str(plot_path), "--plot-n", PLOT_N, "--", text]
    assert main(argv) == 0
    with open(plot_path, "rb") as handle:
        return capsys.readouterr().out.encode("utf-8"), handle.read()


@pytest.mark.parametrize("name,text,lo,hi", CASES, ids=[c[0] for c in CASES])
def test_golden_bytes(name, text, lo, hi, capsys, tmp_path):
    stdout, csv = _run(text, lo, hi, tmp_path / "plot.csv", capsys)
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as handle:
        assert stdout == handle.read()
    with open(os.path.join(GOLDEN, f"{name}.csv"), "rb") as handle:
        assert csv == handle.read()


if __name__ == "__main__":
    import contextlib
    import io

    for name, text, lo, hi in CASES:
        out = io.StringIO()
        csv_path = os.path.join(GOLDEN, f"{name}.csv")
        argv = ["analyze", "--interval", str(lo), str(hi), "--json",
                "--plot", csv_path, "--plot-n", PLOT_N, "--", text]
        with contextlib.redirect_stdout(out):
            rc = main(argv)
        if rc != 0:
            sys.exit(f"{name}: exit {rc}")
        with open(os.path.join(GOLDEN, f"{name}.json"), "w", encoding="utf-8", newline="") as handle:
            handle.write(out.getvalue())

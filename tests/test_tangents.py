import math
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from deriv_audit.derivative import differentiate
from deriv_audit.expr import HUGE, Interval, Tape, evaluate, lower, parse
from deriv_audit.probe import classify, probe
from deriv_audit.report import analyze
from deriv_audit.tangents import (
    DEFAULT_GRID_N, MIN_RANGE, UNCONFIRMED_BAND, Grid, Provenance, TangentPoint,
    clusters, column_events, column_roots, grid_points, scan_roots,
)
from helpers import random_expr, reference_bisect_root, reference_events

IV = Interval(-1, 1)

# Root of cos(t) - 6 t sin(t) on (0, 1), located by a million-point sign scan
# plus bisection; the tangent locations of the counterexample are +-sqrt(t).
T_STAR = 0.39724806421917946
X_STAR = 0.6302761809073697


def test_frozen_root_against_oracle():
    num = lambda t: math.cos(t) - 6.0 * t * math.sin(t)
    a, b = 0.397248, 0.397249  # bracket from the pre-build sign scan
    assert num(a) > 0 > num(b)
    for _ in range(100):
        m = 0.5 * (a + b)
        if num(a) * num(m) <= 0:
            b = m
        else:
            a = m
    assert 0.5 * (a + b) == pytest.approx(T_STAR, abs=1e-12)
    assert math.sqrt(T_STAR) == pytest.approx(X_STAR, abs=1e-15)


def _root_xs(fp, iv=IV):
    return tuple(p.x for p in scan_roots(Grid(fp, iv, 4096)).roots)


class TestExpressionRoots:
    def test_worked_example_has_no_expression_roots(self):
        fp = differentiate(parse("cbrt(x)*sin(x^2)")).simplified
        assert _root_xs(fp) == ()

    def test_linear(self):
        assert _root_xs(parse("2*x")) == (0.0,)

    def test_counterexample_roots(self):
        fp = parse("(cos(x^2)-6*x^2*sin(x^2))/(3*cbrt(x^2))")
        roots = _root_xs(fp)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(-X_STAR, abs=1e-9)
        assert roots[1] == pytest.approx(X_STAR, abs=1e-9)

    def test_exact_grid_zero_without_sign_change(self):
        # 3x^2 touches zero at a grid node; the sign scan alone cannot see it
        assert _root_xs(parse("3*x^2")) == (0.0,)

    def test_pole_crossing_rejected(self):
        # 1/x changes sign across 0 but has no root there
        assert _root_xs(parse("1/x"), Interval(-1, 1.0001)) == ()
        assert _root_xs(parse("1/x")) == ()

    def test_a_failed_bracket_runs_each_point_once(self, monkeypatch):
        # the bracket of 1/x's pole: the final residual test runs only the
        # midpoint and reads the values its ends already hold
        grid = Grid(parse("1/x"), Interval(-1, 1.0001), 4096)
        xs, run = [], Tape.run

        def recorded(self, x):
            xs.append(x)
            return run(self, x)

        monkeypatch.setattr(Tape, "run", recorded)
        assert scan_roots(grid).roots == ()
        assert len(grid.events.changes) == 1 and len(xs) > 1
        assert len(set(xs)) == len(xs)

    def test_unconfirmed_touching_zero_flagged(self):
        rs = scan_roots(Grid(parse("(x-0.25)^2+1e-11"), IV, 4096))
        assert rs.roots == ()
        assert len(rs.unconfirmed) == 1
        assert rs.unconfirmed[0] == pytest.approx(0.25, abs=1e-9)

    def test_roots_sorted_dedup(self):
        roots = _root_xs(parse("sin(4*x)"))
        assert list(roots) == sorted(roots)
        expected = [-math.pi / 4, 0.0, math.pi / 4]
        assert roots == pytest.approx(expected, abs=1e-9)


class TestHorizontalTangents:
    def test_worked_example_repaired_point(self):
        pts = analyze("cbrt(x)*sin(x^2)", IV).tangents
        assert len(pts) == 1
        assert pts[0].x == pytest.approx(0.0, abs=1e-9)
        assert pts[0].provenance is Provenance.REPAIRED_BY_DEFINITION
        assert pts[0].residual <= 1e-6

    def test_parabola(self):
        pts = analyze("x^2", IV).tangents
        assert [(p.x, p.provenance) for p in pts] == [(0.0, Provenance.SYMBOLIC_EXPRESSION_ROOT)]

    def test_counterexample_excludes_vertical_tangent(self):
        pts = analyze("cbrt(x)*cos(x^2)", IV).tangents
        assert len(pts) == 2
        assert [p.x for p in pts] == pytest.approx([-X_STAR, X_STAR], abs=1e-9)
        assert all(p.provenance is Provenance.SYMBOLIC_EXPRESSION_ROOT for p in pts)

    def test_reverification_invariant(self):
        corpus = ["cbrt(x)*sin(x^2)", "cbrt(x)*cos(x^2)", "x^2", "x^3",
                  "sin(x)", "x*abs(x)", "cbrt(x^2)", "x^3-x"]
        for text in corpus:
            f = parse(text)
            fp = differentiate(f).simplified
            for p in analyze(text, IV).tangents:
                assert p.residual <= 1e-6
                out = evaluate(fp, p.x)
                if p.provenance is Provenance.SYMBOLIC_EXPRESSION_ROOT:
                    assert out.is_defined and p.residual == abs(out.value)
                else:
                    assert not out.is_defined
                    verdict = classify(probe(f, p.x))
                    assert abs(verdict.value) <= 1e-6

    def test_a_residual_is_the_value_that_confirmed_its_root(self, monkeypatch):
        # the root of x^2 is the grid zero of f' = 2*x, read from its column;
        # nothing else in this analysis runs a tape
        runs, run = [0], Tape.run

        def counted(self, x):
            runs[0] += 1
            return run(self, x)

        monkeypatch.setattr(Tape, "run", counted)
        assert analyze("x^2", IV).tangents == (
            TangentPoint(0.0, Provenance.SYMBOLIC_EXPRESSION_ROOT, 0.0),)
        assert runs[0] == 0

    def test_no_point_carries_both_provenances(self):
        for text in ["cbrt(x)*sin(x^2)", "x^2", "x*abs(x)"]:
            pts = analyze(text, IV).tangents
            xs = [p.x for p in pts]
            assert len(xs) == len(set(xs))

    def test_symmetry_for_odd_functions(self):
        for text in ["cbrt(x)*sin(x^2)", "cbrt(x)*cos(x^2)", "x^3-x", "sin(x)"]:
            xs = [p.x for p in analyze(text, IV).tangents]
            mirrored = sorted(-x for x in xs)
            assert xs == pytest.approx(mirrored, abs=1e-9)


BAND = UNCONFIRMED_BAND
INSIDE = math.nextafter(BAND, 0.0)  # the largest magnitude that is small
NAN = math.nan
MIN_NORMAL = 2.2250738585072014e-308
SPECIAL = [NAN, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, MIN_NORMAL, -MIN_NORMAL,
           BAND, -BAND, INSIDE, -INSIDE, HUGE, -HUGE, 1.0, -1.0]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-2 * BAND, 2 * BAND))
# Runs of repeated values, so NaN runs and single-signed stretches of any
# length sit anywhere, the ends included.
COLUMNS = st.lists(st.tuples(VALUES, st.integers(1, 5)), max_size=30).map(
    lambda runs: [v for v, k in runs for _ in range(k)])


class TestColumnEvents:
    @settings(max_examples=600, deadline=None)
    @given(col=COLUMNS)
    @example(col=[])
    @example(col=[NAN])
    @example(col=[NAN, NAN, NAN])
    @example(col=[0.0])
    @example(col=[-0.0, NAN])
    @example(col=[NAN, INSIDE])
    @example(col=[BAND, -BAND])
    @example(col=[INSIDE, -INSIDE])
    @example(col=[1.0, -1.0, NAN, 0.0, 2.0])
    @example(col=[NAN, 1.0, 0.0, NAN, -5e-324, 5e-324, NAN])
    @example(col=[HUGE, HUGE, 3e-11, -1.0])  # the sum overflows to inf
    @example(col=[-HUGE, -HUGE, 0.0, 2.0, -1e-310])  # ... and to -inf
    @example(col=[HUGE, HUGE, -HUGE, -HUGE, NAN, INSIDE])
    def test_matches_the_per_element_rules(self, col):
        assert tuple(column_events(col)) == reference_events(col)[:3]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 6))
    def test_matches_the_per_element_rules_on_grid_columns(self, seed, depth):
        # the dense columns of f' and its domain slots over a whole grid
        tape = lower(differentiate(random_expr(random.Random(seed), depth)).simplified)
        columns = tape.columns(grid_points(Interval(-2, 2), 64), tape.domain_slots())
        for slot in [tape.root, *tape.domain_slots()]:
            assert tuple(column_events(columns[slot])) == reference_events(columns[slot])[:3]


def _reference_roots(xs, col, value_at):
    """column_roots' (x, value) pairs, each sign change bisected by the
    oracle, packed so that -0.0 and 0.0 differ."""
    _, zeros, changes, _ = reference_events(col)
    roots = [(xs[i], col[i]) for i in zeros]
    for i in changes:
        r = reference_bisect_root(value_at, xs[i], xs[i + 1], col[i], col[i + 1])
        roots += [r] if r is not None else []
    return [struct.pack("<dd", *group[0]) for group in clusters(roots, lambda r: r[0])]


def _roots(xs, col, value_at):
    return [struct.pack("<dd", *r) for r in column_roots(xs, col, column_events(col), value_at)]


class TestRefine:
    """column_roots, through refine, ends where the point-by-point root
    bisection ends, bit for bit."""

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 6))
    def test_matches_the_root_bisection(self, seed, depth):
        # f' and its domain slots; every other tree is f of a hole family
        rng = random.Random(seed)
        f = random_expr(rng, depth) if seed % 2 else parse(rng.choice(
            ["sqrt(x-{a})", "x*ln({a}-x)", "cbrt(x-{a})", "abs(x-{a})*sqrt(x^2-{a})"]
        ).format(a=rng.uniform(-2, 2)))
        tape = lower(differentiate(f).simplified)
        xs = grid_points(Interval(-2, 2), 64)
        columns = tape.columns(xs, tape.domain_slots())
        for slot in [tape.root, *tape.domain_slots()]:
            value_at = lower(tape.nodes[slot]).value
            assert _roots(xs, columns[slot], value_at) == _reference_roots(xs, columns[slot], value_at)

    @pytest.mark.parametrize("fp, iv, n, roots", [
        ("1/x", Interval(-1, 1.0001), 4096, []),  # a pole's bracket: no root
        ("2*x", IV, 65, [(0.0, 0.0)]),  # the first midpoint of (-1/65, 1/65) is 0
    ])
    def test_pinned_brackets(self, fp, iv, n, roots):
        tape = lower(parse(fp))
        xs = grid_points(iv, n)
        col = tape.columns(xs)[tape.root]
        assert _roots(xs, col, tape.value) == _reference_roots(xs, col, tape.value)
        assert column_roots(xs, col, column_events(col), tape.value) == roots


def _bits(v):
    return struct.pack("<d", v)


def _assert_matches_dense(grid, n):
    """The pruned grid against the dense oracle, `Tape.columns` at every
    node of grid_points plus reference_events: the same points and values
    at the nodes it keeps, every flip, zero and sign change of f' and of
    each domain slot, and every small value of f', at the same nodes; and
    each flip or sign change is one cell of the grid.  The nodes ascend
    strictly, and two consecutive ones that are not neighbours on the grid
    hold f' defined with one strict sign and |f'| >= UNCONFIRMED_BAND, and
    each domain slot defined with one strict sign: the gap between them can
    hold no event, so events over a whole column are those of the dense
    grid."""
    tape, iv = grid.tape, grid.iv
    xs = grid_points(iv, n)
    dense = tape.columns(xs, tape.domain_slots())
    assert grid.nodes == sorted(set(grid.nodes))
    gaps = [p for p, (i, j) in enumerate(zip(grid.nodes, grid.nodes[1:])) if j > i + 1]
    for p in gaps:
        u, v = grid.columns[tape.root][p:p + 2]
        assert u > 0.0 and v > 0.0 or u < 0.0 and v < 0.0
        assert abs(u) >= UNCONFIRMED_BAND and abs(v) >= UNCONFIRMED_BAND
        for slot in tape.domain_slots():
            u, v = grid.columns[slot][p:p + 2]
            assert u > 0.0 and v > 0.0 or u < 0.0 and v < 0.0
    assert [_bits(x) for x in grid.xs] == [_bits(xs[k]) for k in grid.nodes]
    for slot in [tape.root, *tape.domain_slots()]:
        assert [_bits(v) for v in grid.columns[slot]] == [_bits(dense[slot][k]) for k in grid.nodes]

    def at_nodes(events):
        for i in [*events[0], *events[2]]:
            assert grid.nodes[i + 1] == grid.nodes[i] + 1
        return tuple([grid.nodes[i] for i in found] for found in events)

    assert at_nodes(grid.events) == reference_events(dense[tape.root])[:3]
    small = reference_events(grid.columns[tape.root])[3]
    assert [grid.nodes[i] for i in small] == reference_events(dense[tape.root])[3]
    for slot in tape.domain_slots():
        events = column_events(grid.columns[slot])
        assert at_nodes(events)[:3] == reference_events(dense[slot])[:3]


# Hole families shifted by a: the paper corpus' three, a pole, tan's poles
# and a logarithm whose argument may reach 0.
FAMILIES = ["cbrt(x-{a})*sin((x-{a})^2)", "abs(x-{a})", "cbrt((x-{a})^2)", "sqrt((x-{a})^2+1)/x",
            "tan(x-{a})", "ln(x^2-{a}*x+1)"]


@pytest.fixture
def enclosures(monkeypatch):
    """The count of Tape.enclose calls made while the test runs."""
    calls = [0]
    enclose = Tape.enclose

    def counted(self, lo, hi):
        calls[0] += 1
        return enclose(self, lo, hi)

    monkeypatch.setattr(Tape, "enclose", counted)
    return calls


def _default_grid(text, iv=IV):
    return Grid(differentiate(parse(text)).simplified, iv, DEFAULT_GRID_N)


class TestPrunedGrid:
    """Grid evaluates only the nodes no enclosure certifies; its events are
    those of the dense grid."""

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 6),
           n=st.sampled_from([64, 512, 4096]))
    def test_random_derivatives_match_the_dense_grid(self, seed, depth, n):
        fp = differentiate(random_expr(random.Random(seed), depth)).simplified
        _assert_matches_dense(Grid(fp, Interval(-2, 2), n), n)

    @settings(deadline=None)
    @given(family=st.sampled_from(FAMILIES), a=st.floats(-1.5, 1.5),
           k=st.integers(-2048, 2048), n=st.sampled_from([64, 512, 4096]))
    @example(family=FAMILIES[0], a=0.0, k=0, n=4096)
    def test_hole_families_match_the_dense_grid(self, family, a, k, n):
        # a on a grid node (a dyadic k/1024) or anywhere; and a at node 0
        for shift in (a, k / 1024):
            fp = differentiate(parse(family.format(a=repr(shift)))).simplified
            for iv in (Interval(shift - 1, shift + 1), Interval(shift, shift + 1)):
                _assert_matches_dense(Grid(fp, iv, n), n)

    @pytest.mark.parametrize("fp", [
        "1e-12*(x^2+1)",  # one strict sign, but every node small
        "sqrt(abs(x))+1",  # f' certified, its sqrt argument 0 at the node 0
        "1/(x+0.5)^2+ln(x+2)",  # a pole, with a domain slot that never changes sign
        "x^2*cbrt(x)^2-1e-11",  # small values and two sign changes beside 0
    ])
    def test_named_derivatives_match_the_dense_grid(self, fp):
        for n in (64, DEFAULT_GRID_N):
            _assert_matches_dense(Grid(parse(fp), IV, n), n)

    def test_worked_example_evaluates_few_nodes(self):
        # the hole at the middle node and its neighbours, and the two end
        # cells of each pruned half
        grid = _default_grid("cbrt(x)*sin(x^2)")
        _assert_matches_dense(grid, DEFAULT_GRID_N)
        assert len(grid.nodes) <= 7

    @pytest.mark.parametrize("family", FAMILIES)
    def test_an_event_on_the_middle_node_is_isolated_in_one_split(self, family, enclosures):
        # [a-1, a+1] has its middle node at a.  For any a, the paper
        # corpus' three families have their hole there and tan(x-a) has no
        # event; the pole at 0 and the root at a/2 of the other two are
        # there only for a = 0.
        only_zero = family in ("sqrt((x-{a})^2+1)/x", "ln(x^2-{a}*x+1)")
        for a in [0.0] if only_zero else [0.0, 0.5, -0.75, 1.25, 7 / 1024]:
            enclosures[0] = 0
            grid = _default_grid(family.format(a=repr(a)), Interval(a - 1, a + 1))
            assert enclosures[0] <= 3 and len(grid.nodes) <= 7
            _assert_matches_dense(grid, DEFAULT_GRID_N)

    @pytest.mark.parametrize("fp", [
        "1/x",  # f' undefined at the middle node
        "x-1e-12",  # f' defined but small there
        "sqrt(abs(x))+1",  # f' certified, its sqrt argument 0 there
    ])
    def test_each_kind_of_middle_node_event_is_isolated(self, fp, enclosures):
        grid = Grid(parse(fp), IV, DEFAULT_GRID_N)
        assert enclosures[0] <= 3 and len(grid.nodes) <= 7
        _assert_matches_dense(grid, DEFAULT_GRID_N)

    @pytest.mark.parametrize("c, level", [(0.0, 0), (0.5, 1), (-0.5, 1), (0.25, 2), (-0.75, 2),
                                          (0.125, 3)])
    def test_a_hole_on_a_split_node_costs_two_enclosures_a_level(self, c, level, enclosures):
        # c is first a split node at `level`, 0 for the middle node: each
        # level above it has one range with c inside to split, and at its
        # level the two halves beside it are pruned over their inner nodes.
        # Each pruned range keeps its two end cells.
        grid = _default_grid(f"cbrt(x-{c!r})")
        assert enclosures[0] <= 2 * level + 3 and len(grid.nodes) <= 3 * level + 7
        _assert_matches_dense(grid, DEFAULT_GRID_N)

    @pytest.mark.parametrize("c", ["0.3", "1/3"])
    def test_a_hole_between_nodes_costs_no_more_than_before(self, c, enclosures):
        grid = _default_grid(f"cbrt(x-{c})")
        assert enclosures[0] <= 15 and len(grid.nodes) <= 54
        _assert_matches_dense(grid, DEFAULT_GRID_N)

    def test_overlapping_kept_ranges_merge(self):
        # The half before the hole at the middle node 2048 is pruned and
        # keeps its end cells (0, 1) and (2047, 2048).  The half after it is
        # split down to (2048, 2080), which the hole at 0.004 keeps whole;
        # the pruned ranges beyond, from (2080, 2112) to (3072, 4096), each
        # keep their two end cells.
        grid = _default_grid("cbrt(x)*cbrt(x-0.004)")
        assert grid.nodes == [0, 1, *range(2047, 2082), 2111, 2112, 2113, 2175, 2176, 2177,
                              2303, 2304, 2305, 2559, 2560, 2561, 3071, 3072, 3073, 4095, 4096]
        _assert_matches_dense(grid, DEFAULT_GRID_N)

    @pytest.mark.parametrize("fp, iv, nodes, count", [
        ("(1.27+x)^x", IV, 4, 1),  # the base is above 0: certified whole
        ("2^sin(x)", IV, 4, 1),
        ("x^x*(ln(x)+x*(1/x))", Interval(0.1, 2), 107, 31),  # f' of x^x, zero at 1/e
        ("x^x", IV, 2052, 128),  # the base is at or below 0 on half the grid
    ], ids=["(1.27+x)^x", "2^sin(x)", "d(x^x)", "x^x"])
    def test_an_exponent_in_x_is_enclosed(self, fp, iv, nodes, count, enclosures):
        # over the ranges where the power's base stays above 0
        grid = Grid(parse(fp), iv, DEFAULT_GRID_N)
        assert (len(grid.nodes), enclosures[0]) == (nodes, count)
        _assert_matches_dense(grid, DEFAULT_GRID_N)

    def test_a_constant_exponent_not_yet_folded_is_enclosed(self, enclosures):
        grid = Grid(parse("x^(1+1)"), IV, DEFAULT_GRID_N)
        assert enclosures[0] > 0 and len(grid.nodes) <= 7
        _assert_matches_dense(grid, DEFAULT_GRID_N)

    def test_a_range_certified_whole_evaluates_its_two_end_cells(self, enclosures):
        # f' = 2 is certified over the whole grid by its first enclosure:
        # only its two end cells are evaluated
        grid = Grid(parse("2*x+3"), IV, DEFAULT_GRID_N)
        assert grid.nodes == [0, 1, 4095, 4096] and enclosures[0] == 1
        assert tuple(grid.events) == ([], [], [])
        _assert_matches_dense(grid, DEFAULT_GRID_N)
        report = analyze("x^2+3*x", IV)
        assert report.tangents == () and report.candidates == () and report.interval_notes == ()

    @pytest.mark.parametrize("text, iv", [
        ("cbrt(x)*sin(x^2)", Interval(0, 1)), ("sqrt(x)", Interval(0, 1)),
        ("cbrt(x)", Interval(-1, 0)),
    ])
    def test_a_hole_at_an_end_of_the_interval_costs_one_enclosure(self, text, iv, enclosures):
        # the whole range is enclosed without its end nodes, and pruned
        grid = _default_grid(text, iv)
        assert enclosures[0] == 1 and grid.nodes == [0, 1, 4095, 4096]
        _assert_matches_dense(grid, DEFAULT_GRID_N)

    @pytest.mark.parametrize("text", [*(family.format(a=a) for family in FAMILIES
                                        for a in ("0.0", "0.3")),
                                      "3", "x^2/x^2", "tan(10*x)"])
    def test_a_grid_makes_no_scalar_run(self, text, monkeypatch):
        # every evaluated node is in the one Tape.columns call
        runs = [0]
        run = Tape.run

        def counted(self, x):
            runs[0] += 1
            return run(self, x)

        monkeypatch.setattr(Tape, "run", counted)
        _default_grid(text)
        assert runs[0] == 0

    def test_point_interval_is_its_one_node(self):
        grid = Grid(parse("1/x"), Interval(-0.0, -0.0), DEFAULT_GRID_N)
        assert grid.nodes == [0] and _bits(grid.xs[0]) == _bits(-0.0)
        value = grid.columns[grid.tape.root][0]
        assert grid.events.flips == [] and value != value  # undefined there

    @pytest.mark.parametrize("text", ["3", "x^2/x^2", "tan(10*x)"])
    def test_enclosures_stay_within_the_cap(self, text, enclosures):
        grid = _default_grid(text)
        assert 0 < enclosures[0] <= DEFAULT_GRID_N // MIN_RANGE
        _assert_matches_dense(grid, DEFAULT_GRID_N)

import copy
import ctypes
import gc
import math
import pickle
import re
import shlex
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from stableflow import (
    Init,
    Instance,
    Method,
    ObjectiveForm,
    PseudoFlow,
    SolverConfig,
    StabilityReport,
    VerdictKind,
    classify,
    desk_scale_batch,
    generate_random_instance,
    objective,
    optimal_slack,
    parse_instance,
    projected_gradient_residual,
    serialize_instance,
    solve,
    solve_coordinate,
    solve_pgd,
    stability_report,
)
from stableflow import _kernel, solvers

import reference
from stableflow.pseudoflow import (
    _USE_FRACTION,
    _excess_matrix,
    _slack_objective,
    _stability_residuals,
)

PGD = SolverConfig(method=Method.PGD)
COORD = SolverConfig(method=Method.COORDINATE)


def assert_trace_nonincreasing(trace):
    for prev, cur in zip(trace, trace[1:]):
        assert cur.objective <= prev.objective + 1e-12 * (1 + abs(prev.objective))


class TestOptimalSlack:
    def test_zero_flow_fills_capacity(self):
        assert optimal_slack(0.0, 1.0) == 1.0

    def test_over_capacity_clamps_to_zero(self):
        assert optimal_slack(2.0, 1.0) == 0.0

    def test_interior_stationary_point(self):
        assert optimal_slack(0.5, 1.0) == 0.5


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1e-9},
            {"max_iters": 0},
            {"tol": math.inf},
            {"tol": math.nan},
            {"max_iters": 10.5},
            {"max_iters": 2.0},
            {"max_iters": math.nan},
            {"method": "pgd"},
            {"init": "zero"},
            {"max_iters": True},
            {"seed": -1},
            {"seed": 1.0},
            {"seed": True},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_solve_dispatches_on_method(self, one_arc):
        inst = one_arc(1.0, 1.0)
        assert solve(inst, PGD).config.method is Method.PGD
        assert solve(inst, COORD).config.method is Method.COORDINATE


def _zero_state(inst):
    """(flows, slacks, totals, excesses) of the zero flow, slacks at capacity."""
    flows = np.zeros((inst.commodity_count, inst.arc_count))
    return [flows, inst.capacities.copy(), flows.sum(axis=0), _excess_matrix(inst, flows)]


class TestPgd:
    def test_routes_unit_demand(self, one_arc):
        inst = one_arc(1.0, 1.0)
        result = solve_pgd(inst)
        assert result.converged
        assert result.flow.flows[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert result.report.objective <= 1e-12
        assert result.report.max_residual <= result.config.tol

    def test_one_arc_overloaded_fixed_point(self, one_arc):
        inst = one_arc(1.0, 2.0)
        result = solve_pgd(inst)
        assert result.converged
        assert result.report.objective == pytest.approx(1 / 3, abs=1e-8)
        assert result.flow.flows[0, 0] == pytest.approx(5 / 3, abs=1e-6)

    def test_zero_demand_converges_immediately(self):
        inst = Instance(3, [(0, 1, 1.0), (1, 2, 2.0)], [])
        result = solve_pgd(inst)
        assert result.converged
        assert result.iterations == 0
        assert np.all(result.flow.flows == 0.0)
        assert result.report.objective == 0.0

    def test_first_step_hand_simulation(self, one_arc):
        # From the zero state the gap is 0 and the excesses are +1 and -1,
        # so g = -2 and d = 2 on the flow, 0 on the slack. Along d the gap
        # and both excesses change by 2: slope -4, curvature 4 + 8 = 12, and
        # the exact step t = 4/12 moves the flow to 2/3.
        inst = one_arc(1.0, 1.0)
        caps = inst.capacities
        state = _zero_state(inst)
        reference._pgd_step(inst, *state)
        flows, slacks, totals, excesses = state
        assert flows[0, 0] == 2 / 3
        assert slacks[0] == 1.0
        assert _slack_objective(totals, slacks, caps, excesses) == pytest.approx(1 / 3, abs=1e-15)
        # Each step stops at the minimum along its direction, so it takes
        # many steps to reach the flow of 1.0 a full step would land on:
        # 35 plain steps, 34 with the extrapolation that starts after
        # step 32.
        result = solve_pgd(inst)
        assert result.converged and result.iterations == 34


class TestCoordinate:
    def test_first_sweep_hand_simulation(self, one_arc):
        # Plain Gauss-Seidel, omega = 1. From zero state: slack fills
        # capacity, then the flow coordinate moves to max(0, 0 - (-2)/3) = 2/3.
        inst = one_arc(1.0, 1.0)
        caps, tails, heads = inst.capacities, inst.tails, inst.heads
        state = _zero_state(inst)
        before = _slack_objective(state[2], state[1], caps, state[3])
        reference._python_sweep(*state, caps, tails, heads, omega=1.0)
        flows, slacks, totals, excesses = state
        assert flows[0, 0] == pytest.approx(2 / 3, abs=1e-15)
        assert _slack_objective(totals, slacks, caps, excesses) < before
        residuals = _stability_residuals(flows, totals, excesses, caps, tails, heads, 0.0)
        assert max(residuals[:2]) > SolverConfig().tol

    def test_first_sweep_over_relaxed(self, one_arc):
        # The default omega = 1.5 overshoots the coordinate minimizer 2/3 to
        # max(0, 0 - 1.5 * (-2/3)) = 1.0, which routes the whole demand.
        inst = one_arc(1.0, 1.0)
        result = solve_coordinate(inst, SolverConfig(max_iters=1))
        assert solvers._OMEGA == 1.5
        assert result.iterations == 1
        assert result.converged
        assert result.flow.flows[0, 0] == 1.0
        assert result.trace[1].objective < result.trace[0].objective

    def test_one_arc_overloaded_fixed_point(self, one_arc):
        inst = one_arc(1.0, 2.0)
        result = solve_coordinate(inst)
        assert result.converged
        assert result.report.objective == pytest.approx(1 / 3, abs=1e-8)
        assert result.flow.flows[0, 0] == pytest.approx(5 / 3, abs=1e-6)

    def test_already_stable_warm_start(self, one_arc):
        inst = one_arc(1.0, 2.0)
        first = solve_coordinate(inst)
        again = solve_coordinate(inst, warm_start=first.flow)
        assert again.converged
        assert again.iterations == 0
        assert np.array_equal(again.flow.flows, first.flow.flows)


@pytest.fixture(scope="module")
def batch():
    return desk_scale_batch(15, seed=2)


@pytest.fixture(scope="module")
def coord_results(batch):
    return [solve_coordinate(inst) for inst in batch]


@pytest.fixture(scope="module")
def pgd_results(batch):
    return [solve_pgd(inst) for inst in batch]


class TestSolverProperties:
    def test_descent_both_solvers(self, coord_results, pgd_results):
        for result in coord_results + pgd_results:
            assert_trace_nonincreasing(result.trace)

    def test_converged_means_stable(self, batch, coord_results, pgd_results):
        for inst, result in zip(batch + batch, coord_results + pgd_results):
            assert result.converged
            assert result.report.max_residual <= result.config.tol * inst.scale

    def test_solver_agreement(self, coord_results, pgd_results):
        for rc, rp in zip(coord_results, pgd_results):
            assert abs(rc.report.objective - rp.report.objective) <= 1e-6

    def test_init_independence(self, batch, coord_results):
        for inst, base in zip(batch, coord_results):
            random_init = solve_coordinate(
                inst, SolverConfig(init=Init.RANDOM, seed=13)
            )
            assert random_init.converged
            assert abs(base.report.objective - random_init.report.objective) <= 1e-6

    def test_fixed_point_iff_stable(self, batch, coord_results):
        for inst, result in zip(batch, coord_results):
            resumed = solve_coordinate(inst, warm_start=result.flow)
            assert resumed.iterations == 0
            unstable = PseudoFlow.zeros(inst)
            if stability_report(inst, unstable).max_residual > 1e-8:
                moved = solve_coordinate(
                    inst, SolverConfig(max_iters=1), warm_start=unstable
                )
                assert not np.array_equal(moved.flow.flows, unstable.flows)

    def test_stability_matches_projected_residual(self, coord_results, pgd_results, batch):
        # The two optimality measures agree on which side of the tolerance
        # a state falls: both tiny at solver output, both large after a kick.
        rng = np.random.default_rng(31)
        for inst, result in zip(batch + batch, coord_results + pgd_results):
            tol = result.config.tol * inst.scale
            stable = result.report.max_residual <= tol
            projected = projected_gradient_residual(inst, result.flow) <= tol
            assert stable and projected
            kicked = result.flow.copy()
            kicked.flows += rng.uniform(0.5, 1.0, size=kicked.flows.shape)
            report = stability_report(inst, kicked)
            if inst.total_demand > 0:
                assert report.max_residual > tol
                assert projected_gradient_residual(inst, kicked) > tol

    def test_coordinate_curvature(self, batch):
        # Slack-form objective restricted to one coordinate is a parabola:
        # second difference 3 for flows, 1 for slacks.
        rng = np.random.default_rng(37)
        eps = 1e-3
        for inst in batch[:5]:
            caps = np.array([a.capacity for a in inst.arcs])
            flows = rng.uniform(1.0, 3.0, size=(inst.commodity_count, inst.arc_count))
            slacks = np.clip(rng.uniform(0.0, 1.0, size=inst.arc_count) * caps, eps, None)
            for k in range(inst.commodity_count):
                for a in range(inst.arc_count):
                    values = []
                    for delta in (-eps, 0.0, eps):
                        shifted = flows.copy()
                        shifted[k, a] += delta
                        values.append(
                            objective(
                                inst,
                                PseudoFlow(shifted, slacks),
                                form=ObjectiveForm.SLACK,
                            )
                        )
                    second = (values[0] - 2 * values[1] + values[2]) / eps**2
                    assert second == pytest.approx(3.0, rel=1e-6)
            for a in range(inst.arc_count):
                values = []
                for delta in (-eps, 0.0, eps):
                    shifted = slacks.copy()
                    shifted[a] += delta
                    values.append(
                        objective(
                            inst, PseudoFlow(flows, shifted), form=ObjectiveForm.SLACK
                        )
                    )
                second = (values[0] - 2 * values[1] + values[2]) / eps**2
                assert second == pytest.approx(1.0, rel=1e-6)


def test_solvers_scale_past_desk_size():
    # Well beyond what the oracle accepts; both solvers must still converge
    # to the same optimum.
    inst = generate_random_instance(50, 300, 5, (1, 8), (1, 6), seed=42, integer_values=True)
    coord = solve_coordinate(inst)
    pgd = solve_pgd(inst)
    assert coord.converged and pgd.converged
    assert abs(coord.report.objective - pgd.report.objective) <= 1e-6


@pytest.mark.parametrize("method", [Method.COORDINATE, Method.PGD])
@pytest.mark.parametrize("residuals", [(1.0, math.nan), (math.nan, 1.0)])
def test_nan_residual_stops_at_once(one_arc, monkeypatch, method, residuals):
    # Python's max(1.0, nan) is 1.0: a NaN in the second slot used to read
    # as a finite residual and the loop ran on to max_iters. Row 0 carries
    # the NaN, in the library's loop and in the reference's.
    monkeypatch.setattr(_kernel.Kernel, "derive", lambda self: [1.0, *residuals])
    monkeypatch.setattr(reference, "_stability_residuals", lambda *args: (*residuals, None))
    cfg = SolverConfig(method=method, max_iters=50)
    for run in (solve, reference.solve):
        result = run(one_arc(1.0, 2.0), cfg)
        assert result.iterations == 0 and len(result.trace) == 1
        assert not result.converged


class TestTrace:
    def test_trace_rows_and_csv(self, one_arc):
        result = solve_coordinate(one_arc(1.0, 2.0))
        assert [row.iteration for row in result.trace] == list(
            range(result.iterations + 1)
        )
        csv = result.trace_csv()
        lines = csv.splitlines()
        assert lines[0] == "iteration,objective,used_residual,unused_residual"
        assert len(lines) == len(result.trace) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == result.trace[0].objective


# --- Compiled sweep kernel against the Python reference loop ---


def _tight_instance(seed):
    # The benchmark's tight family: integer caps 1-3, demands 2-8.
    rng = np.random.default_rng(seed)
    return generate_random_instance(
        int(rng.integers(20, 51)),
        int(rng.integers(60, 301)),
        int(rng.integers(2, 6)),
        (1.0, 3.0),
        (2.0, 8.0),
        seed=int(rng.integers(0, 2**31)),
        integer_values=True,
    )


def _with_pgd(cases):
    """The (name, instance, config) cases, then each again with PGD as "pgd-<name>"."""
    pgd = [(f"pgd-{name}", inst, replace(cfg, method=Method.PGD)) for name, inst, cfg in cases]
    return cases + pgd


def assert_bitwise_same(compiled, reference):
    assert compiled.flow.flows.tobytes() == reference.flow.flows.tobytes()
    assert compiled.flow.slacks.tobytes() == reference.flow.slacks.tobytes()
    assert compiled.iterations == reference.iterations
    assert compiled.converged == reference.converged
    assert compiled.trace == reference.trace
    assert compiled.trace_csv() == reference.trace_csv()
    assert_reports_bitwise_same(compiled.report, reference.report)


def assert_reports_bitwise_same(report, reference):
    """Every field equal bit for bit: NaN payloads and signed zeros count."""
    for name, value, expected in zip(StabilityReport._fields, report, reference):
        if isinstance(expected, np.ndarray):
            assert isinstance(value, np.ndarray), name
            assert (value.dtype, value.shape) == (expected.dtype, expected.shape), name
            assert value.tobytes() == expected.tobytes(), name
        else:
            assert type(value) is type(expected) is float, name
            assert struct.pack("<d", value) == struct.pack("<d", expected), name


def _identity_cases():
    cases = [(f"desk{i}", inst, COORD) for i, inst in enumerate(desk_scale_batch(40, seed=11))]
    # Capped sweeps keep the Python side quick; every row up to the cap counts.
    cases += [(f"tight{s}", _tight_instance(s), SolverConfig(max_iters=40)) for s in range(3)]
    random_init = SolverConfig(init=Init.RANDOM, seed=5)
    cases += [(f"random{i}", inst, random_init) for i, inst in enumerate(desk_scale_batch(8, 3))]
    cases += [
        ("no-arcs", Instance(3, [], [(0, 2, 1.0)]), COORD),
        ("no-commodities", Instance(3, [(0, 1, 1.0), (1, 2, 2.0)], []), COORD),
        ("zero-demand", Instance(3, [(0, 1, 1.0)], [(0, 2, 0.0), (1, 2, 0.0)]), COORD),
        ("zero-capacity", Instance(3, [(0, 1, 0.0), (1, 2, 2.0)], [(0, 2, 2.0)]), COORD),
    ]
    return [pytest.param(inst, cfg, id=name) for name, inst, cfg in _with_pgd(cases)]


# Residuals are >= 0, so no row meets this tolerance and no run stops early.
NEVER_STABLE = -1.0


def _loop_sum_of_squares(values):
    total = 0.0
    for value in values:
        total += value * value
    return total


def _c_struct_fields(name):
    """(name, ctypes type) of each field of the typedef ``name`` in the kernel source."""
    with open(_kernel.SOURCE, encoding="utf-8") as fh:
        body = re.search(r"typedef struct \{([^}]*)\} " + name + ";", fh.read()).group(1)
    c_types = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
    fields = []
    for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        match = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s*(\*?)\s*(\w+)\s*", decl)
        assert match, decl
        c_type, pointer, field = match.groups()
        if pointer:
            fields.append((field, ctypes.c_char_p if c_type == "char" else ctypes.c_void_p))
        else:
            fields.append((field, c_types[c_type]))
    return fields


# Two components: commodity 0 routes 0 -> 1 -> 2, and arcs 2 and 3
# (3 -> 4 -> 5) carry none of its flow. Each case gives commodity 1's flows
# and puts a NaN on one (commodity, arc) flow. "apart": on arc 2, whose
# endpoints no used pair of commodity 0 touches and which commodity 1 does
# not use, so only unused pairs get a NaN gap. "excess": on arc 1 of
# commodity 0, whose NaN excess at vertex 1 reaches its used arc 0.
# "congestion": on arc 2 of commodity 0, which commodity 1 uses, so the NaN
# total reaches a used pair.
NAN_FLAG_CASES = {
    "apart": ((0, 2), [0.0, 0.0, 0.0, 0.0], False),
    "excess": ((0, 1), [0.5, 0.0, 0.0, 0.0], True),
    "congestion": ((0, 2), [0.5, 0.0, 0.75, 0.0], True),
}


def _nan_flag_case(name):
    (k, a), other, used_is_nan = NAN_FLAG_CASES[name]
    inst = Instance(
        6,
        [(0, 1, 1.25), (1, 2, 2.0), (3, 4, 1.0), (4, 5, 1.0)],
        [(0, 2, 1.5), (0, 1, 0.5)],
    )
    flows = np.array([[1.5, 1.0, 0.0, 0.0], other])
    flows[k, a] = math.nan
    return inst, flows, used_is_nan


class TestCompiledKernel:
    @pytest.mark.parametrize("inst,cfg", _identity_cases())
    def test_matches_python_loop(self, inst, cfg):
        assert_bitwise_same(solve(inst, cfg), reference.solve(inst, cfg))

    @pytest.mark.parametrize(
        "copy_of", [lambda inst: pickle.loads(pickle.dumps(inst)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    @pytest.mark.parametrize("cfg", [COORD, PGD], ids=["coordinate", "pgd"])
    def test_copy_of_a_solved_instance_reads_its_own_arrays(self, copy_of, cfg):
        # A copy taken after a solve carries the instance's cached arrays.
        # Once the original is gone and its memory reused, the copy must
        # still solve and classify as a fresh parse of the same text does.
        original = desk_scale_batch(1, seed=5)[0]
        classify(original, solve(original, cfg))
        copied = copy_of(original)
        fresh = parse_instance(serialize_instance(original))
        sizes = [array.shape for array in original._arrays]
        del original
        gc.collect()
        filler = [np.full(shape, np.nan) for shape in sizes for _ in range(8)]
        result = solve(copied, cfg)
        expected = solve(fresh, cfg)
        assert_bitwise_same(result, expected)
        verdict, expected_verdict = classify(copied, result), classify(fresh, expected)
        assert verdict.kind is expected_verdict.kind is VerdictKind.FEASIBLE
        assert verdict.flow.flows.tobytes() == expected_verdict.flow.flows.tobytes()
        assert verdict.flow.slacks.tobytes() == expected_verdict.flow.slacks.tobytes()
        del filler

    @pytest.mark.parametrize("method", list(Method))
    def test_solves_own_their_arrays(self, method):
        # The kernel reads the instance's arrays and a warm start's in place
        # and writes only its own buffer, a new one per solve.
        inst = _tight_instance(6)
        names = ("tails", "heads", "capacities", "injection")
        before = [getattr(inst, name).tobytes() for name in names]
        cfg = SolverConfig(method=method, max_iters=200)

        def arrays(result):
            report = [field for field in result.report if isinstance(field, np.ndarray)]
            return [result.flow.flows, result.flow.slacks, *report]

        first, second = solve(inst, cfg), solve(inst, cfg)
        kept = [array.tobytes() for array in arrays(first)]
        warm = solve(inst, cfg, warm_start=first.flow)
        assert [getattr(inst, name).tobytes() for name in names] == before
        assert [array.tobytes() for array in arrays(first)] == kept
        assert_bitwise_same(first, second)
        for one, other in [(first, second), (first, warm), (second, warm)]:
            for a in arrays(one):
                for b in arrays(other):
                    assert not np.shares_memory(a, b)

    def test_warm_start_matches_python_loop(self):
        for inst in desk_scale_batch(10, seed=17) + [_tight_instance(7)]:
            start = reference.solve(inst, SolverConfig(max_iters=3)).flow
            for method in Method:
                cfg = SolverConfig(method=method, max_iters=60)
                assert_bitwise_same(
                    solve(inst, cfg, warm_start=start),
                    reference.solve(inst, cfg, warm_start=start),
                )

    def test_integer_warm_start_matches_python_loop(self):
        # PseudoFlow makes its arrays float, but its fields can be reassigned;
        # both paths then move a float copy of the integer flows.
        inst = Instance(3, [(0, 1, 3.0), (1, 2, 3.0)], [(0, 2, 2.5)])
        start = PseudoFlow(np.zeros((1, 2)), np.full(2, 3.0))
        start.flows = np.array([[1, 1]])
        compiled = solve(inst, warm_start=start)
        assert compiled.converged
        assert_bitwise_same(compiled, reference.solve(inst, COORD, warm_start=start))

    # (vertices, arcs, commodities). The objective sums A gap terms and K*V
    # excess terms left to right. The shapes run each count from none
    # through one term to thousands; from eight terms on, numpy's pairwise
    # order groups terms differently, and the explicit loop tells them apart.
    @pytest.mark.parametrize(
        "shape",
        [
            (5, 12, 3),
            (4, 0, 2),
            (4, 6, 0),
            (2, 1, 1),
            (6, 16, 20),
            (3, 130, 2),
            (67, 301, 3),
            (8200, 8200, 1),
            (300, 3000, 20),
        ],
    )
    def test_sweep_and_residuals_match_reference(self, shape):
        lib = _kernel.load()
        n_vertices, n_arcs, n_commodities = shape
        rng = np.random.default_rng(sum(shape))
        tails = rng.integers(0, n_vertices, n_arcs)
        heads = (tails + rng.integers(1, n_vertices, n_arcs)) % n_vertices
        caps = rng.uniform(0.0, 3.0, n_arcs)
        flows = rng.uniform(0.0, 2.0, (n_commodities, n_arcs))
        flows[rng.random(flows.shape) < 0.3] = 0.0
        slacks = rng.uniform(0.0, 1.0, n_arcs) * caps
        excesses = rng.normal(0.0, 2.0, (n_commodities, n_vertices))
        # A sweep reads no demand; the excesses are random, not derived.
        arcs = list(zip(tails.tolist(), heads.tolist(), caps.tolist()))
        inst = Instance(n_vertices, arcs, [(0, 1, 1.0)] * n_commodities)
        caps, tails, heads = inst.capacities, inst.tails, inst.heads

        def bind():
            kernel = _kernel.Kernel(
                lib, inst, flows, slacks, False, 0.5, solvers._OMEGA, solvers._MOMENTUM_GATE
            )
            kernel.totals[...] = flows.sum(axis=0)
            kernel.excesses[...] = excesses
            return kernel, _kernel_state(kernel)

        kernel, state = bind()
        mirror = [array.copy() for array in state]
        rows = []
        for _ in range(3):
            ((objective, used, unused),) = kernel.run(NEVER_STABLE, 1)
            rows.append([objective, used, unused])
            reference._python_sweep(*mirror, caps, tails, heads)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(state, mirror))
            flows_ref, slacks_ref, totals_ref, excesses_ref = mirror
            assert objective == _slack_objective(totals_ref, slacks_ref, caps, excesses_ref)
            gaps = (totals_ref + slacks_ref - caps).tolist()
            excess_list = excesses_ref.ravel().tolist()
            assert objective == (
                0.5 * _loop_sum_of_squares(gaps) + 0.5 * _loop_sum_of_squares(excess_list)
            )
            expected = _stability_residuals(
                flows_ref, totals_ref, excesses_ref, caps, tails, heads, 0.5
            )[:2]
            assert (used, unused) == expected
        # One call of three sweeps gives the same rows and state.
        segment, start = bind()
        assert segment.run(NEVER_STABLE, 3) == rows
        assert all(a.tobytes() == b.tobytes() for a, b in zip(start, mirror))

    @pytest.mark.parametrize("case", list(NAN_FLAG_CASES))
    def test_nan_residual_only_where_a_nan_gap_is_covered(self, case):
        # The kernel's residual pass skips a NaN gap in its maxima and flags
        # it instead: the used residual is NaN only when a used pair's gap
        # is, and otherwise keeps the finite maximum that numpy finds.
        lib = _kernel.load()
        inst, flows, used_is_nan = _nan_flag_case(case)
        caps, tails, heads = inst.capacities, inst.tails, inst.heads
        threshold = _USE_FRACTION * inst.scale
        with np.errstate(all="ignore"):
            used, unused, multipliers = _stability_residuals(
                flows, flows.sum(axis=0), _excess_matrix(inst, flows), caps, tails, heads, threshold
            )
        assert math.isnan(used) is used_is_nan
        assert math.isnan(unused)
        assert used_is_nan or used > 0.0
        kernel = _kernel.Kernel(
            lib, inst, flows, caps, False, threshold, solvers._OMEGA, solvers._MOMENTUM_GATE
        )
        _, derived_used, derived_unused = kernel.derive()
        *_, report_multipliers, report_used, report_unused = kernel.report()
        for got_used, got_unused in [(derived_used, derived_unused), (report_used, report_unused)]:
            assert math.isnan(got_unused)
            if used_is_nan:
                assert math.isnan(got_used)
            else:
                assert struct.pack("<d", got_used) == struct.pack("<d", used)
        assert np.array_equal(report_multipliers, multipliers, equal_nan=True)

    @pytest.mark.parametrize("shape", [(5, 12, 3), (4, 0, 2), (4, 6, 0), (2, 1, 1), (67, 301, 3)])
    def test_pgd_step_matches_reference(self, shape):
        n_vertices, n_arcs, n_commodities = shape
        rng = np.random.default_rng(sum(shape))
        tails = rng.integers(0, n_vertices, n_arcs)
        heads = (tails + rng.integers(1, n_vertices, n_arcs)) % n_vertices
        sources = rng.integers(0, n_vertices, n_commodities)
        sinks = (sources + rng.integers(1, n_vertices, n_commodities)) % n_vertices
        inst = Instance(
            n_vertices,
            list(zip(tails.tolist(), heads.tolist(), rng.uniform(0.0, 3.0, n_arcs).tolist())),
            list(zip(sources.tolist(), sinks.tolist(), rng.uniform(0.0, 4.0, n_commodities))),
        )
        flows = rng.uniform(0.0, 2.0, (n_commodities, n_arcs))
        flows[rng.random(flows.shape) < 0.3] = 0.0
        _assert_pgd_steps_match(inst, flows, rng.uniform(0.0, 1.0, n_arcs) * inst.capacities)

    def test_pgd_step_turns_negative_zeros_positive(self):
        # A warm start may hold -0.0. Where the gradient is 0, x - g is
        # -0.0 - 0.0 = -0.0, and numpy's maximum and clip project it to +0.0:
        # here the flows of the zero-demand commodity and the slack of arc 1.
        inst = Instance(3, [(0, 1, 2.0), (1, 2, 1.0)], [(0, 2, 2.0), (0, 2, 0.0)])
        flows = np.array([[0.0, 1.0], [-0.0, -0.0]])
        _assert_pgd_steps_match(inst, flows, np.array([2.0, -0.0]), steps=1)


def _kernel_state(kernel):
    """The kernel's (flows, slacks, totals, excesses) views."""
    return [kernel.flows, kernel.slacks, kernel.totals, kernel.excesses]


def _assert_pgd_steps_match(inst, flows, slacks, steps=3):
    """Single compiled PGD steps from (flows, slacks) match ``_pgd_step`` bitwise."""
    lib = _kernel.load()
    caps, tails, heads = inst.capacities, inst.tails, inst.heads
    kernel = _kernel.Kernel(
        lib, inst, flows, slacks, True, 0.5, solvers._OMEGA, solvers._MOMENTUM_GATE
    )
    kernel.totals[...] = flows.sum(axis=0)
    kernel.excesses[...] = _excess_matrix(inst, flows)
    state = _kernel_state(kernel)
    mirror = [array.copy() for array in state]
    for _ in range(steps):
        ((objective, used, unused),) = kernel.run(NEVER_STABLE, 1)
        reference._pgd_step(inst, *mirror)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(state, mirror))
        assert objective == _slack_objective(mirror[2], mirror[1], caps, mirror[3])
        residuals = _stability_residuals(*mirror[:1], *mirror[2:], caps, tails, heads, 0.5)
        assert (used, unused) == residuals[:2]


# The 1e308 instance: five commodities overflow the arc totals in the first
# iteration, and a residual turns NaN at the second.
OVERFLOW = Instance(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [(0, 2, 1e308)] * 5)
# A zero-demand commodity beside a routed one; warm starts below hold -0.0.
SIGNED_ZERO = Instance(3, [(0, 1, 2.0), (1, 2, 1.0)], [(0, 2, 2.0), (0, 2, 0.0)])


def _report_cases():
    desk = desk_scale_batch(6, seed=23)[1]
    warm = PseudoFlow(np.array([[0.0, 1.0], [-0.0, -0.0]]), np.array([2.0, -0.0]))
    cases = [
        ("tol", desk, SolverConfig(), None),
        ("max-iters", desk, SolverConfig(tol=1e-300, max_iters=70), None),
        ("nan-row", OVERFLOW, SolverConfig(max_iters=50), None),
        ("warm-signed-zero", SIGNED_ZERO, SolverConfig(), warm),
        ("warm-signed-zero-max-iters", SIGNED_ZERO, SolverConfig(max_iters=1), warm),
    ]
    return [
        pytest.param(inst, replace(cfg, method=method), warm_start, id=f"{method.value}-{name}")
        for name, inst, cfg, warm_start in cases
        for method in Method
    ]


class TestFinalReport:
    @pytest.mark.parametrize("inst,cfg,warm_start", _report_cases())
    def test_report_is_stability_report_of_flow(self, inst, cfg, warm_start):
        with np.errstate(all="ignore"):
            compiled = solve(inst, cfg, warm_start=warm_start)
            python = reference.solve(inst, cfg, warm_start=warm_start)
            for result in (compiled, python):
                assert_reports_bitwise_same(result.report, stability_report(inst, result.flow))
        assert_reports_bitwise_same(compiled.report, python.report)
        # Not assert_bitwise_same: a NaN row is unequal to itself.
        assert compiled.trace_csv() == python.trace_csv()
        assert compiled.flow.flows.tobytes() == python.flow.flows.tobytes()
        assert compiled.flow.slacks.tobytes() == python.flow.slacks.tobytes()
        last = compiled.trace[-1]
        if cfg.tol == 1e-300:
            assert compiled.iterations == cfg.max_iters and not compiled.converged
        elif inst is OVERFLOW:
            assert math.isnan(last.used_residual) or math.isnan(last.unused_residual)
            assert not compiled.converged
        elif cfg.max_iters > 1:
            assert compiled.converged
        if warm_start is not None:
            # The warm start's -0.0 flows come out +0.0, as numpy's maximum
            # makes them; the multipliers keep numpy's -0.0.
            assert not np.signbit(compiled.flow.flows).any()
            assert np.signbit(compiled.report.implied_multipliers).any()

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
    @pytest.mark.parametrize("method", list(Method))
    def test_stopping_row_is_the_reports(self, method, compiled):
        # The row that stops the loop is re-derived from the flows, so its
        # residuals are the report's, bit for bit; the incrementally updated
        # totals and excesses drift from them.
        cfg = SolverConfig(method=method)
        for inst in desk_scale_batch(30, seed=5) + [_tight_instance(3)]:
            result = solve(inst, cfg) if compiled else reference.solve(inst, cfg)
            assert result.converged
            last = result.trace[-1]
            report = result.report
            assert last.used_residual == report.used_arc_residual
            assert last.unused_residual == report.unused_arc_residual


def _segment_cases():
    # max_iters 9 and 41 end partway through segments of 2 and 7; the
    # uncapped desk solves stop on a converged row inside a segment. The
    # tight cases and desk4 (both methods), desk0, desk2 and desk5 (PGD) run
    # past the gate, and desk4 restarts its extrapolation there.
    desk = desk_scale_batch(6, seed=23)
    cases = [(f"desk{i}", inst, COORD) for i, inst in enumerate(desk)]
    cases += [(f"desk{i}-cap9", inst, SolverConfig(max_iters=9)) for i, inst in enumerate(desk)]
    cases += [(f"tight{s}-cap41", _tight_instance(s), SolverConfig(max_iters=41)) for s in (4, 5)]
    return [pytest.param(inst, cfg, id=name) for name, inst, cfg in _with_pgd(cases)]


class TestSegments:
    @pytest.mark.parametrize("inst,cfg", _segment_cases())
    @pytest.mark.parametrize("segment", [1, 2, 7])
    def test_segment_boundaries_match_python_loop(self, monkeypatch, segment, inst, cfg):
        monkeypatch.setattr(_kernel, "SEGMENT", segment)
        assert_bitwise_same(solve(inst, cfg), reference.solve(inst, cfg))

    @pytest.mark.parametrize("segment", [7, _kernel.SEGMENT])
    def test_nan_residual_stops_inside_segment(self, monkeypatch, segment):
        # Five commodities of demand 1e308 overflow the arc totals in the
        # first sweep; the unused residual turns NaN at the second.
        monkeypatch.setattr(_kernel, "SEGMENT", segment)
        inst = Instance(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [(0, 2, 1e308)] * 5)
        cfg = SolverConfig(max_iters=50)
        with np.errstate(all="ignore"):
            compiled = solve_coordinate(inst, cfg)
            python = reference.solve(inst, cfg)
        assert compiled.iterations == 2 and len(compiled.trace) == 3
        assert not any(math.isnan(v) for row in compiled.trace[:2] for v in row[2:])
        assert math.isnan(compiled.trace[2].unused_residual)
        assert not compiled.converged
        assert compiled.trace_csv() == python.trace_csv()
        assert compiled.flow.flows.tobytes() == python.flow.flows.tobytes()

    @pytest.mark.parametrize("segment", [7, _kernel.SEGMENT])
    @pytest.mark.parametrize(
        "demand,commodities,iterations,converged", [(1e308, 5, 2, False), (1e307, 2, 1, True)]
    )
    def test_pgd_overflow_matches_python_loop(
        self, monkeypatch, segment, demand, commodities, iterations, converged
    ):
        # The objective is inf from row 0 on. On the 1e308 instance the
        # flows overflow and the loop stops on a NaN row at iteration 2; at
        # 1e307 one step meets tol. Both stop inside the segment.
        monkeypatch.setattr(_kernel, "SEGMENT", segment)
        inst = Instance(
            3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [(0, 2, demand)] * commodities
        )
        cfg = SolverConfig(method=Method.PGD, max_iters=50)
        with np.errstate(all="ignore"):
            compiled = solve(inst, cfg)
            python = reference.solve(inst, cfg)
        assert compiled.iterations == iterations
        assert compiled.converged == converged
        assert math.isinf(compiled.trace[0].objective)
        assert math.isnan(compiled.trace[-1].used_residual) != converged
        assert compiled.trace_csv() == python.trace_csv()
        assert compiled.flow.flows.tobytes() == python.flow.flows.tobytes()
        assert compiled.flow.slacks.tobytes() == python.flow.slacks.tobytes()

    @pytest.mark.parametrize("segment", [7, _kernel.SEGMENT])
    @pytest.mark.parametrize("index", [0, 1])
    def test_pgd_unreachable_tol_runs_to_max_iters(self, monkeypatch, segment, index):
        # No state meets a relative tol of 1e-300 and PGD has no other exit,
        # so it runs to max_iters; 150 ends partway through segments of 7
        # and 64.
        monkeypatch.setattr(_kernel, "SEGMENT", segment)
        inst = desk_scale_batch(6, seed=23)[index]
        cfg = SolverConfig(method=Method.PGD, tol=1e-300, max_iters=150)
        compiled = solve(inst, cfg)
        assert compiled.iterations == 150 and not compiled.converged
        assert_bitwise_same(compiled, reference.solve(inst, cfg))


# --- Extrapolation with adaptive restart, past the gate ---


def _path(n, demand):
    """A path of n vertices with two-way arcs of capacity 1, forward arcs
    first, and one commodity from end to end."""
    forward = [(i, i + 1, 1.0) for i in range(n - 1)]
    return Instance(n, forward + [(j, i, c) for i, j, c in forward], [(0, n - 1, demand)])


def _plain_rows(inst, method, iterations):
    """Rows 0..iterations and the final (flows, slacks, totals, excesses) of
    plain sweeps or PGD steps from the zero state, without extrapolation."""
    caps, tails, heads = inst.capacities, inst.tails, inst.heads
    state = _zero_state(inst)
    flows, slacks, totals, excesses = state

    def row():
        used, unused, _ = _stability_residuals(
            flows, totals, excesses, caps, tails, heads, solvers._USE_FRACTION * inst.scale
        )
        return [_slack_objective(totals, slacks, caps, excesses), used, unused]

    rows = [row()]
    for _ in range(iterations):
        if method is Method.PGD:
            reference._pgd_step(inst, *state)
        else:
            reference._python_sweep(*state, caps, tails, heads)
        rows.append(row())
    return rows, state


class TestMomentum:
    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize(
        "demand,kind", [(0.5, VerdictKind.FEASIBLE), (1.5, VerdictKind.INFEASIBLE)]
    )
    def test_long_path_converges(self, method, demand, kind):
        # Each update moves information one arc, so plain iterations need
        # about n² of them on a path: 2200 and 827 coordinate sweeps here,
        # and 7663 and 2809 PGD steps. Extrapolation takes 173 to 341.
        inst = _path(40, demand)
        result = solve(inst, SolverConfig(method=method))
        assert result.converged and result.iterations <= 600
        assert classify(inst, result).kind is kind

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
    @pytest.mark.parametrize("method", list(Method))
    def test_plain_until_gate(self, method, compiled):
        # The first _MOMENTUM_GATE iterations are plain: rows and state. The
        # next one extrapolates, and its first try (beta 0) only sets the
        # slacks to their optimum, which lowers the objective here.
        gate = solvers._MOMENTUM_GATE
        inst = _tight_instance(4)
        rows, (flows, _, _, _) = _plain_rows(inst, method, gate)
        plain_next = _plain_rows(inst, method, gate + 1)[0][-1]
        run = solve if compiled else reference.solve
        at_gate = run(inst, SolverConfig(method=method, tol=1e-300, max_iters=gate))
        assert at_gate.rows == rows
        past = run(inst, SolverConfig(method=method, tol=1e-300, max_iters=gate + 1))
        assert past.rows[:-1] == rows
        assert past.rows[-1][0] < plain_next[0]
        # The state after the gate's iteration, made final as solve makes it.
        assert at_gate.flow.flows.tobytes() == np.maximum(flows, 0.0).tobytes()
        expected_slacks = reference._optimal_slacks(flows.sum(axis=0), inst.capacities)
        assert at_gate.flow.slacks.tobytes() == expected_slacks.tobytes()

    @pytest.mark.parametrize("segment", [1, 2, 7, _kernel.SEGMENT])
    @pytest.mark.parametrize("method", list(Method))
    def test_extrapolation_matches_python_loop(self, monkeypatch, method, segment):
        # Past the gate some extrapolations are kept and some restart; the
        # compiled path agrees bit for bit across segment boundaries, and
        # where the gate falls inside a segment.
        inst = _path(20, 1.5)
        cfg = SolverConfig(method=method)
        thetas = []
        extrapolate = reference._extrapolate

        def recording(*args):
            thetas.append(extrapolate(*args))
            return thetas[-1]

        monkeypatch.setattr(reference, "_extrapolate", recording)
        python = reference.solve(inst, cfg)
        assert 1.0 in thetas and any(theta > 1.0 for theta in thetas)
        assert python.converged and python.iterations > _kernel.SEGMENT
        monkeypatch.setattr(_kernel, "SEGMENT", segment)
        assert_bitwise_same(solve(inst, cfg), python)

    @pytest.mark.parametrize("method", list(Method))
    def test_segment_runs_across_gate(self, method):
        # sf_run counts the gate itself: one segment from a fresh bind runs
        # the plain iterations and the extrapolated ones past the gate, as
        # the Python loop runs them one at a time.
        lib = _kernel.load()
        assert solvers._MOMENTUM_GATE < _kernel.SEGMENT
        inst = _path(20, 1.5)
        flows = np.zeros((inst.commodity_count, inst.arc_count))
        threshold = solvers._USE_FRACTION * inst.scale
        kernel = _kernel.Kernel(
            lib, inst, flows, inst.capacities, method is Method.PGD, threshold,
            solvers._OMEGA, solvers._MOMENTUM_GATE,
        )
        kernel.derive()
        rows = kernel.run(NEVER_STABLE, _kernel.SEGMENT)
        cfg = SolverConfig(method=method, tol=1e-300, max_iters=_kernel.SEGMENT)
        assert rows == reference.solve(inst, cfg).rows[1:]
        assert len(rows) == _kernel.SEGMENT


class TestKernelLoading:
    @pytest.mark.parametrize(
        "failure", ["no-compiler", "compile-error", "cache-not-a-dir", "not-loadable"]
    )
    def test_loader_failure_falls_back(self, failure, monkeypatch, tmp_path, fresh_load):
        # Each failure raises one OSError, on one line, that names the
        # compiler command and the source; so does every solve and parse.
        compiler = _kernel._compiler()
        monkeypatch.setattr(_kernel, "CACHE_DIR", str(tmp_path))
        if failure == "no-compiler":
            compiler = [str(tmp_path / "no-such-cc")]
        elif failure == "compile-error":
            compiler = [sys.executable, "-c", "exit(1)"]
        elif failure == "not-loadable":
            # A "compiler" that writes junk where the library should go.
            junk = "import sys; open(sys.argv[sys.argv.index('-o') + 1], 'wb').write(b'junk')"
            compiler = [sys.executable, "-c", junk]
        else:
            (tmp_path / "file").write_text("")
            monkeypatch.setattr(_kernel, "CACHE_DIR", str(tmp_path / "file" / "cache"))
        monkeypatch.setattr(_kernel, "_compiler", lambda: compiler)
        named = re.escape(f"{_kernel.SOURCE} with the C compiler {shlex.join(compiler)!r}")
        for call in (_kernel.load, lambda: solve(_tight_instance(1)), lambda: parse_instance("")):
            with pytest.raises(OSError, match=named) as info:
                call()
            assert "\n" not in str(info.value)

    def test_state_mirrors_the_c_struct(self):
        # ctypes lays _State over sf_state by position, so a field out of
        # step with the C struct reads or writes the wrong memory silently.
        assert _c_struct_fields("sf_state") == _kernel._State._fields_

    def test_routing_mirrors_the_c_struct(self):
        assert _c_struct_fields("sf_routing") == _kernel._Routing._fields_

    def test_text_mirrors_the_c_struct(self):
        assert _c_struct_fields("sf_text") == _kernel._Text._fields_

    def test_source_compiles_without_warnings(self, tmp_path):
        strict = ("-std=c99", "-Wall", "-Wextra", "-Werror")
        command = [*_kernel._compiler(), *strict, *_kernel.FLAGS, "-o", str(tmp_path / "k.so")]
        built = subprocess.run([*command, _kernel.SOURCE], capture_output=True, text=True)
        assert built.returncode == 0, built.stderr

    def test_build_is_keyed_and_atomic(self, monkeypatch, tmp_path, fresh_load):
        monkeypatch.setattr(_kernel, "CACHE_DIR", str(tmp_path))
        _kernel.load()
        (built,) = tmp_path.iterdir()  # no temporary file left behind
        assert built.name.startswith("_sweep-") and built.suffix == ".so"
        _kernel.load.cache_clear()
        monkeypatch.setattr(_kernel, "FLAGS", (*_kernel.FLAGS, "-DSTABLEFLOW_TEST_KEY"))
        _kernel.load()
        assert len(list(tmp_path.iterdir())) == 2


class TestKernelArrayGuard:
    @staticmethod
    def bind(lib, n_vertices=4, n_arcs=5, n_commodities=3):
        inst = Instance(n_vertices, [(0, 1, 1.0)] * n_arcs, [(0, 1, 1.0)] * n_commodities)
        flows = np.zeros((n_commodities, n_arcs))
        return _kernel.Kernel(
            lib, inst, flows, np.zeros(n_arcs), False, 0.0, solvers._OMEGA, solvers._MOMENTUM_GATE
        )

    def test_valid_arrays_bind(self):
        lib = _kernel.load()
        kernel = self.bind(lib)
        kernel.derive()
        kernel.run(1e-8, 1)

    def test_zero_arcs_bind(self):
        lib = _kernel.load()
        kernel = self.bind(lib, n_arcs=0)
        # Three commodities each hold +1 and -1 excess: objective 3.
        assert kernel.derive() == [3.0, 0.0, 0.0]
        assert kernel.excesses.tobytes() == np.array([[1.0, -1.0, 0.0, 0.0]] * 3).tobytes()
        assert kernel.run(1e-8, 1) == [[3.0, 0.0, 0.0]]

    @pytest.mark.parametrize("n", [0, -1, _kernel.SEGMENT + 1])
    def test_run_length_outside_buffer_rejected(self, n):
        lib = _kernel.load()
        kernel = self.bind(lib)
        with pytest.raises(ValueError, match="n must lie in"):
            kernel.run(1e-8, n)

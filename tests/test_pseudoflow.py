import math

import numpy as np
import pytest

from stableflow import (
    FlowDumpError,
    Instance,
    ObjectiveForm,
    PseudoFlow,
    check_feasible,
    congestion,
    desk_scale_batch,
    excess,
    gradient,
    objective,
    optimal_slack,
    parse_flow_dump,
    solve_coordinate,
    solve_pgd,
    stability_report,
    write_flow_dump,
)
from stableflow import _kernel
from stableflow.pseudoflow import _excess_matrix

from reference import _crossover


def random_point(inst, rng, low=0.01):
    """A strictly interior pseudo-flow, safe for central differences."""
    shape = (inst.commodity_count, inst.arc_count)
    caps = np.array([a.capacity for a in inst.arcs])
    flows = rng.uniform(low, 4.0, size=shape)
    slacks = rng.uniform(0.0, 1.0, size=inst.arc_count) * caps
    return PseudoFlow(flows, slacks)


def relative_error(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def fd_flow_gradient(inst, pf, form, step=1e-6):
    grad = np.zeros_like(pf.flows)
    for k in range(pf.flows.shape[0]):
        for a in range(pf.flows.shape[1]):
            up = pf.flows.copy()
            up[k, a] += step
            down = pf.flows.copy()
            down[k, a] -= step
            z_up = objective(inst, PseudoFlow(up, pf.slacks), form)
            z_down = objective(inst, PseudoFlow(down, pf.slacks), form)
            grad[k, a] = (z_up - z_down) / (2 * step)
    return grad


def fd_slack_gradient(inst, pf, step=1e-6):
    grad = np.zeros_like(pf.slacks)
    for a in range(pf.slacks.shape[0]):
        up = pf.slacks.copy()
        up[a] += step
        down = pf.slacks.copy()
        down[a] -= step
        z_up = objective(inst, PseudoFlow(pf.flows, up), ObjectiveForm.SLACK)
        z_down = objective(inst, PseudoFlow(pf.flows, down), ObjectiveForm.SLACK)
        grad[a] = (z_up - z_down) / (2 * step)
    return grad


def dense_excesses(inst, flows):
    """Reference excesses: demand injection plus flows times the (A, V) incidence."""
    incidence = np.zeros((inst.arc_count, inst.vertex_count))
    for a, arc in enumerate(inst.arcs):
        incidence[a, arc.head] += 1.0
        incidence[a, arc.tail] -= 1.0
    injection = np.zeros((inst.commodity_count, inst.vertex_count))
    for k, com in enumerate(inst.commodities):
        injection[k, com.source] += com.demand
        injection[k, com.sink] -= com.demand
    return injection + flows @ incidence


def _excess_cases():
    cases = [(f"desk{i}", inst) for i, inst in enumerate(desk_scale_batch(20, seed=8))]
    parallel_arcs = [(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0), (1, 0, 3.0)]
    cases += [
        ("parallel", Instance(3, parallel_arcs, [(0, 2, 2.0), (2, 0, 1.0)])),
        ("no-arcs", Instance(3, [], [(0, 2, 1.0), (1, 0, 2.0)])),
        ("no-commodities", Instance(3, [(0, 1, 1.0), (1, 2, 2.0)], [])),
    ]
    return [pytest.param(inst, id=name) for name, inst in cases]


class TestExcess:
    @pytest.mark.parametrize("inst", _excess_cases())
    def test_scatter_matches_dense_incidence(self, inst):
        rng = np.random.default_rng(inst.arc_count)
        flows = rng.uniform(0.0, 4.0, size=(inst.commodity_count, inst.arc_count))
        flows[rng.random(flows.shape) < 0.3] = 0.0
        scattered = _excess_matrix(inst, flows)
        assert scattered.shape == (inst.commodity_count, inst.vertex_count)
        # The two sum in different orders; values stay below 50 here.
        np.testing.assert_allclose(scattered, dense_excesses(inst, flows), rtol=0, atol=1e-12)

    def test_scatter_rejects_transposed_flows(self):
        # Same element count as (K, A) = (2, 3), so only the shape check catches it.
        inst = Instance(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], [(0, 2, 1.0), (1, 0, 1.0)])
        with pytest.raises(ValueError):
            _excess_matrix(inst, np.ones((3, 2)))

    def test_zero_flow_at_source(self, one_arc):
        inst = one_arc(2.0, 1.0)
        pf = PseudoFlow.zeros(inst)
        assert excess(inst, pf, vertex=0, commodity=0) == 1.0

    def test_balanced_transit_vertex(self):
        inst = Instance(3, [(0, 1, 5.0), (1, 2, 5.0)], [(0, 2, 2.0)])
        pf = PseudoFlow(np.array([[2.0, 2.0]]), np.zeros(2))
        assert excess(inst, pf, vertex=1, commodity=0) == 0.0

    def test_one_arc_minimizer_excesses(self, one_arc):
        inst = one_arc(1.0, 2.0)
        pf = PseudoFlow(np.array([[5.0 / 3.0]]), np.zeros(1))
        assert excess(inst, pf, 0, 0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert excess(inst, pf, 1, 0) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_out_of_range_ids(self, one_arc):
        inst = one_arc(1.0, 1.0)
        pf = PseudoFlow.zeros(inst)
        with pytest.raises(ValueError):
            excess(inst, pf, 2, 0)
        with pytest.raises(ValueError):
            excess(inst, pf, 0, 1)


class TestCongestion:
    def test_under_capacity(self):
        assert congestion(0.5, 1.0) == 0.0

    def test_over_capacity(self):
        assert congestion(2.0, 1.0) == 1.0

    def test_boundary_is_uncongested(self):
        assert congestion(1.0, 1.0) == 0.0

    def test_nan_total_stays_nan(self):
        assert math.isnan(congestion(math.nan, 1.0))


class TestPseudoFlow:
    def test_zeros_fills_slack_to_capacity(self, one_arc):
        pf = PseudoFlow.zeros(one_arc(3.0, 1.0))
        assert pf.slacks.tolist() == [3.0]
        assert pf.flows.tolist() == [[0.0]]

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PseudoFlow(np.array([[-0.1]]), np.zeros(1))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="arcs"):
            PseudoFlow(np.zeros((1, 2)), np.zeros(3))

    def test_validate_against_instance(self, one_arc):
        inst = one_arc(1.0, 1.0)
        with pytest.raises(ValueError, match="exceed"):
            PseudoFlow(np.zeros((1, 1)), np.array([1.5])).validate(inst)
        with pytest.raises(ValueError, match="shape"):
            PseudoFlow(np.zeros((2, 1)), np.zeros(1)).validate(inst)
        # Construction checks the slacks, but the field can be reassigned;
        # a 0-d array would broadcast against the capacities.
        replaced = PseudoFlow(np.zeros((1, 1)), np.zeros(1))
        for slacks, message in [(np.array(0.5), "slacks shape"), (np.array([-0.5]), "nonneg")]:
            replaced.slacks = slacks
            with pytest.raises(ValueError, match=message):
                replaced.validate(inst)

    @pytest.mark.parametrize("solver", [solve_coordinate, solve_pgd])
    @pytest.mark.parametrize(
        "flow,slack,message",
        [
            (math.nan, 0.0, "finite"),
            (math.inf, 0.0, "finite"),
            (0.0, math.nan, "NaN"),
            (0.0, math.inf, "exceed"),
        ],
    )
    def test_warm_start_rejects_non_finite_state(self, one_arc, solver, flow, slack, message):
        # Construction lets these through; the warm-start gate must not.
        start = PseudoFlow(np.array([[flow]]), np.array([slack]))
        with pytest.raises(ValueError, match=message):
            solver(one_arc(1.0, 1.0), warm_start=start)


class TestObjective:
    def test_zero_flow_zero_demand(self):
        inst = Instance(2, [(0, 1, 1.0)], [])
        pf = PseudoFlow.zeros(inst)
        assert objective(inst, pf, form=ObjectiveForm.INTEGRAL) == 0.0
        assert objective(inst, pf, form=ObjectiveForm.SLACK) == 0.0

    def test_feasible_flow_has_zero_objective(self):
        inst = Instance(3, [(0, 1, 2.0), (1, 2, 2.0)], [(0, 2, 2.0)])
        pf = PseudoFlow(np.array([[2.0, 2.0]]), np.zeros(2))
        assert objective(inst, pf, form=ObjectiveForm.INTEGRAL) == 0.0

    def test_one_arc_overloaded_value_both_forms(self, one_arc):
        # Overload penalty 0.5*(2/3)^2 plus two excess terms 0.5*(1/3)^2.
        inst = one_arc(1.0, 2.0)
        pf = PseudoFlow(np.array([[5.0 / 3.0]]), np.zeros(1))
        expected = 0.5 * (2 / 3) ** 2 + (1 / 3) ** 2
        assert objective(inst, pf, form=ObjectiveForm.INTEGRAL) == pytest.approx(
            expected, abs=1e-15
        )
        assert objective(inst, pf, form=ObjectiveForm.SLACK) == pytest.approx(
            expected, abs=1e-15
        )
        assert expected == pytest.approx(1 / 3, abs=1e-15)

    def test_forms_agree_after_optimal_slack(self):
        rng = np.random.default_rng(11)
        for inst in desk_scale_batch(20, seed=5):
            pf = random_point(inst, rng)
            caps = np.array([a.capacity for a in inst.arcs])
            totals = pf.arc_totals()
            slacks = np.array([optimal_slack(t, c) for t, c in zip(totals, caps)])
            pf_opt = PseudoFlow(pf.flows, slacks)
            z_int = objective(inst, pf_opt, form=ObjectiveForm.INTEGRAL)
            z_slack = objective(inst, pf_opt, form=ObjectiveForm.SLACK)
            assert abs(z_int - z_slack) <= 1e-12 * (1 + abs(z_int))

    def test_integral_form_is_min_over_slacks(self, one_arc):
        inst = one_arc(2.0, 1.0)
        flows = np.array([[1.5]])
        z_int = objective(inst, PseudoFlow(flows, np.zeros(1)), form=ObjectiveForm.INTEGRAL)
        grid = [
            objective(
                inst, PseudoFlow(flows, np.array([r])), form=ObjectiveForm.SLACK
            )
            for r in np.linspace(0.0, 2.0, 2001)
        ]
        assert min(grid) == pytest.approx(z_int, abs=1e-7)
        assert all(z >= z_int - 1e-12 for z in grid)

    def test_convexity(self):
        rng = np.random.default_rng(23)
        for inst in desk_scale_batch(10, seed=6):
            a, b = random_point(inst, rng), random_point(inst, rng)
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                mid = PseudoFlow(
                    lam * a.flows + (1 - lam) * b.flows,
                    lam * a.slacks + (1 - lam) * b.slacks,
                )
                for form in ObjectiveForm:
                    z_mid = objective(inst, mid, form=form)
                    z_mix = lam * objective(inst, a, form=form) + (1 - lam) * objective(
                        inst, b, form=form
                    )
                    assert z_mid <= z_mix + 1e-9


class TestGradient:
    def test_one_arc_hand_value(self, one_arc):
        inst = one_arc(2.0, 1.0)
        pf = PseudoFlow(np.zeros((1, 1)), np.zeros(1))
        grad = gradient(inst, pf, form=ObjectiveForm.INTEGRAL)
        assert grad.tolist() == [[-2.0]]

    def test_matches_finite_differences_integral(self):
        rng = np.random.default_rng(17)
        for inst in desk_scale_batch(20, seed=8):
            pf = random_point(inst, rng)
            analytic = gradient(inst, pf, form=ObjectiveForm.INTEGRAL)
            numeric = fd_flow_gradient(inst, pf, ObjectiveForm.INTEGRAL)
            assert relative_error(analytic, numeric).max() <= 1e-6

    def test_matches_finite_differences_slack(self):
        rng = np.random.default_rng(19)
        for inst in desk_scale_batch(10, seed=9):
            pf = random_point(inst, rng)
            flow_grad, slack_grad = gradient(inst, pf, form=ObjectiveForm.SLACK)
            fd_flow = fd_flow_gradient(inst, pf, ObjectiveForm.SLACK)
            fd_slack = fd_slack_gradient(inst, pf)
            assert relative_error(flow_grad, fd_flow).max() <= 1e-6
            assert relative_error(slack_grad, fd_slack).max() <= 1e-6


class TestStabilityReport:
    def test_feasible_one_arc_all_zero(self, one_arc):
        inst = one_arc(1.0, 1.0)
        pf = PseudoFlow(np.array([[1.0]]), np.zeros(1))
        report = stability_report(inst, pf)
        assert report.heights.shape == (2, 1)
        assert np.all(report.heights == 0.0)
        assert np.all(report.congestions == 0.0)
        assert report.used_arc_residual == 0.0
        assert report.unused_arc_residual == 0.0
        assert report.objective == 0.0

    def test_overloaded_one_arc_is_stable_nonzero(self, one_arc):
        inst = one_arc(1.0, 2.0)
        pf = PseudoFlow(np.array([[5.0 / 3.0]]), np.zeros(1))
        report = stability_report(inst, pf)
        assert report.congestions[0] == pytest.approx(2 / 3, abs=1e-15)
        assert report.heights[0, 0] - report.heights[1, 0] == pytest.approx(
            2 / 3, abs=1e-15
        )
        assert report.used_arc_residual <= 1e-15
        assert report.unused_arc_residual <= 1e-15
        assert report.objective == pytest.approx(1 / 3, abs=1e-15)

    def test_unused_arc_violation(self, one_arc):
        inst = one_arc(1.0, 1.0)
        pf = PseudoFlow(np.zeros((1, 1)), np.zeros(1))
        report = stability_report(inst, pf)
        assert report.used_arc_residual == 0.0
        assert report.unused_arc_residual == 2.0

    @pytest.mark.parametrize("used,unused", [(0.0, math.nan), (math.nan, 0.0)])
    def test_nan_residual_in_either_slot_makes_max_nan(self, one_arc, used, unused):
        report = stability_report(one_arc(1.0, 1.0), PseudoFlow(np.array([[1.0]]), np.zeros(1)))
        report = report._replace(used_arc_residual=used, unused_arc_residual=unused)
        assert math.isnan(report.max_residual)

    def test_multipliers_match_definition(self, one_arc):
        inst = one_arc(1.0, 1.0)
        pf = PseudoFlow(np.zeros((1, 1)), np.zeros(1))
        report = stability_report(inst, pf)
        # congestion - (height drop) = 0 - (1 - (-1)) = -2
        assert report.implied_multipliers.tolist() == [[-2.0]]

    def test_use_threshold_boundary(self, one_arc):
        # A flow counts as used above 1e-9 * inst.scale, not at it.
        inst = one_arc(1.0, 3.0)
        threshold = 1e-9 * inst.scale
        at = PseudoFlow(np.array([[threshold]]), np.zeros(1))
        above = PseudoFlow(np.array([[np.nextafter(threshold, 1.0)]]), np.zeros(1))
        assert stability_report(inst, at).used_arc_residual == 0.0
        assert stability_report(inst, above).used_arc_residual > 0.0


class TestCheckFeasible:
    def test_exact_route(self, one_arc):
        result = check_feasible(one_arc(1.0, 1.0), np.array([[1.0]]), tol=0.0)
        assert result.ok
        assert result.max_capacity_violation == 0.0
        assert result.max_conservation_violation == 0.0
        assert result.min_flow == 1.0

    def test_capacity_violation(self, one_arc):
        result = check_feasible(one_arc(1.0, 2.0), np.array([[2.0]]), tol=1e-9)
        assert not result.ok
        assert result.max_capacity_violation == pytest.approx(1.0)
        assert result.max_conservation_violation == 0.0

    def test_conservation_violation(self, one_arc):
        result = check_feasible(one_arc(1.0, 1.0), np.array([[0.5]]), tol=1e-9)
        assert not result.ok
        assert result.max_conservation_violation == pytest.approx(0.5)

    def test_exact_feasible_flow_has_zero_objective(self):
        # Conservation at tol 0 forces the integral objective to exactly 0.
        inst = Instance(4, [(0, 1, 3.0), (1, 3, 2.0), (1, 2, 1.0), (2, 3, 1.0)], [(0, 3, 3.0)])
        flows = np.array([[3.0, 2.0, 1.0, 1.0]])
        assert check_feasible(inst, flows, tol=0.0).ok
        pf = PseudoFlow(flows, np.zeros(4))
        assert objective(inst, pf, form=ObjectiveForm.INTEGRAL) == 0.0

    def test_near_zero_objective_implies_feasible(self, one_arc):
        inst = one_arc(1.0, 1.0)
        flows = np.array([[1.0 + 4e-7]])
        pf = PseudoFlow(flows, np.zeros(1))
        assert objective(inst, pf, form=ObjectiveForm.INTEGRAL) <= 1e-12
        assert check_feasible(inst, flows, tol=1e-6).ok


class TestFlowDump:
    def test_round_trip(self, one_arc):
        inst = Instance(3, [(0, 1, 2.0), (1, 2, 2.0), (0, 2, 1.0)], [(0, 2, 2.0), (2, 0, 1.0)])
        flows = np.array([[1.5, 1.5, 0.5], [0.0, 0.0, 0.0]])
        text = write_flow_dump(inst, flows, 0.0, 0.0, 0.0)
        assert text.splitlines()[0].startswith("s ")
        parsed = parse_flow_dump(inst, text)
        assert np.array_equal(parsed, flows)

    def test_only_nonzero_entries_emitted(self, one_arc):
        inst = one_arc(1.0, 1.0)
        text = write_flow_dump(inst, np.array([[0.0]]), 0.5, 0.0, 0.0)
        assert text.splitlines() == ["s 0.5 0.0 0.0"]

    def test_lines_by_commodity_then_arc_nan_kept_negative_zero_skipped(self):
        inst = Instance(3, [(0, 1, 2.0), (1, 2, 2.0), (0, 2, 1.0)], [(0, 2, 2.0), (2, 0, 1.0)])
        flows = np.array([[-0.0, np.nan, 0.25], [1e-300, 0.0, 1.0 / 3.0]])
        assert write_flow_dump(inst, flows, 0.0, 0.0, 0.0).splitlines() == [
            "s 0.0 0.0 0.0",
            "f 1 2 3 2 nan",
            "f 1 1 3 3 0.25",
            "f 2 1 2 1 1e-300",
            "f 2 1 3 3 0.3333333333333333",
        ]

    def test_endpoint_mismatch_rejected(self, one_arc):
        inst = one_arc(1.0, 1.0)
        with pytest.raises(FlowDumpError, match="do not match"):
            parse_flow_dump(inst, "f 1 2 1 1 1.0\n")

    def test_bad_arc_id_rejected(self, one_arc):
        inst = one_arc(1.0, 1.0)
        with pytest.raises(FlowDumpError, match="arc id 2 out of range"):
            parse_flow_dump(inst, "f 1 1 2 2 1.0\n")

    def test_malformed_line_rejected(self, one_arc):
        inst = one_arc(1.0, 1.0)
        with pytest.raises(FlowDumpError, match="expected"):
            parse_flow_dump(inst, "f 1 1 2\n")

    def test_repeated_pair_rejected_at_second_line(self, one_arc):
        inst = one_arc(1.0, 1.0)
        with pytest.raises(FlowDumpError, match="line 3: commodity 1 on arc 1 repeats line 2"):
            parse_flow_dump(inst, "s 0.0 0.0 0.0\nf 1 1 2 1 9.0\nf 1 1 2 1 1.0\n")


THRESHOLD = 1e-9  # the use threshold at scale 1.0, a largest demand in [1, 2)


def _route_both_ways(inst, flows):
    """The Python reference's routing; the compiled one must be bitwise equal."""
    reference = _crossover(inst, flows, THRESHOLD)
    compiled = _kernel.crossover(inst, flows, THRESHOLD)
    assert compiled.flows.tobytes() == reference.tobytes()
    caps = inst.capacities
    assert compiled.slacks.tobytes() == np.clip(caps - reference.sum(axis=0), 0, caps).tobytes()
    return reference


class TestCancelCycles:
    """The crossover to a basic routing, which cancels each commodity's
    undirected cycles of free arcs."""

    @pytest.mark.parametrize(
        "arcs,commodity,flows,expected",
        [
            pytest.param(
                [(0, 1, 5.0), (1, 0, 5.0)], (0, 1, 1.0), [1.5, 0.5], [1.0, 0.0], id="antiparallel"
            ),
            # The path 0-1-2-3 carries 1.0, and the cycle 1-2-4-1 0.25 on top.
            pytest.param(
                [(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0), (2, 4, 2.0), (4, 1, 2.0)],
                (0, 3, 1.0),
                [1.0, 1.25, 1.0, 0.25, 0.25],
                [1.0, 1.0, 1.0, 0.0, 0.0],
                id="cycle-on-path",
            ),
            # The paths 0-1-3 and 0-2-3 close an undirected cycle; both ways
            # empty a path by 0.75, and the tie goes to the way that lowers
            # the entering arc, 2-3.
            pytest.param(
                [(0, 1, 2.0), (1, 3, 2.0), (0, 2, 2.0), (2, 3, 2.0)],
                (0, 3, 1.5),
                [0.75, 0.75, 0.75, 0.75],
                [1.5, 1.5, 0.0, 0.0],
                id="parallel",
            ),
            # Either way fills an arc by 0.25 before it empties one, so arc 1
            # lands exactly on its capacity and arc 2 stays free.
            pytest.param(
                [(0, 1, 1.0), (0, 1, 1.0)],
                (0, 1, 1.5),
                [0.75, 0.75],
                [1.0, 0.5],
                id="fill-to-room",
            ),
            # The cycle 0-1-2-0 has its smallest flow, 0.5, on two arcs.
            pytest.param(
                [(0, 1, 2.0), (1, 2, 2.0), (2, 0, 2.0)],
                (0, 1, 1.0),
                [1.5, 0.5, 0.5],
                [1.0, 0.0, 0.0],
                id="tied-minima",
            ),
            # A flow at the threshold is not free, so closes no cycle; it is
            # dust, and zeroed.
            pytest.param(
                [(0, 1, 2.0), (1, 0, 2.0)],
                (0, 1, 1.0),
                [1.0 + THRESHOLD, THRESHOLD],
                [1.0 + THRESHOLD, 0.0],
                id="at-threshold",
            ),
            pytest.param(
                [(0, 1, 2.0), (1, 0, 2.0)],
                (0, 1, 1.0),
                [1.0 + 2 * THRESHOLD, np.nextafter(THRESHOLD, 1.0)],
                [1.0 + 2 * THRESHOLD - np.nextafter(THRESHOLD, 1.0), 0.0],
                id="above-threshold",
            ),
            # The push around 0-1-2-0 leaves arc 1 at exactly the threshold
            # (2.5e-9 - 1.5e-9), so it is cut, and zeroed; arc 3 then links
            # 1 and 2 rather than closing a cycle with arc 1, and arc 4
            # closes one with arc 3.
            pytest.param(
                [(0, 1, 2.0), (1, 2, 2.0), (2, 0, 2.0), (1, 2, 2.0), (2, 1, 2.0)],
                (0, 1, 1.0),
                [1.0 + 1.5e-9, 2.5e-9, 1.5e-9, 0.25, 0.25 + 1e-9],
                [(1.0 + 1.5e-9) - 1.5e-9, 0.0, 0.0, 0.0, (0.25 + 1e-9) - 0.25],
                id="cut-at-threshold",
            ),
        ],
    )
    def test_hand_built(self, arcs, commodity, flows, expected, assert_basic_routing):
        vertex_count = 1 + max(max(tail, head) for tail, head, _ in arcs)
        inst = Instance(vertex_count, arcs, [commodity])
        before = np.array([flows])
        kept = before.copy()
        after = _route_both_ways(inst, before)
        assert after.tolist() == [expected]
        assert after is not before and before.tobytes() == kept.tobytes()
        assert_basic_routing(inst, before, after, THRESHOLD)
        assert check_feasible(inst, after, 1e-6).ok

    def test_commodities_cancel_apart(self, assert_basic_routing):
        # Both commodities use the 2-cycle; each loses only its own loop.
        inst = Instance(3, [(0, 1, 4.0), (1, 0, 4.0), (1, 2, 4.0)], [(0, 2, 1.0), (1, 0, 1.0)])
        before = np.array([[1.5, 0.5, 1.0], [0.25, 1.25, 0.0]])
        after = _route_both_ways(inst, before)
        assert after.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        assert_basic_routing(inst, before, after, THRESHOLD)

    def test_commodities_share_a_tight_arc(self, assert_basic_routing):
        # The first commodity fills arc 1 to its capacity, so the second
        # finds no room left there and keeps its flows. Read against the
        # totals before the first moved, arc 1 would have had 0.5 of room
        # for the second, and the routing would overload it by 0.5.
        inst = Instance(2, [(0, 1, 2.0), (0, 1, 2.0)], [(0, 1, 1.0), (0, 1, 1.5)])
        before = np.array([[0.5, 0.5], [1.0, 0.5]])
        after = _route_both_ways(inst, before)
        assert after.tolist() == [[1.0, 0.0], [1.0, 0.5]]
        assert_basic_routing(inst, before, after, THRESHOLD)
        assert check_feasible(inst, after, 0.0).ok

    def test_random_supports(self, assert_basic_routing):
        # Dense random flows on desk networks hold many nested cycles.
        rng = np.random.default_rng(3)
        for inst in desk_scale_batch(50, seed=11):
            before = rng.uniform(0.0, 2.0, (inst.commodity_count, inst.arc_count))
            before[rng.random(before.shape) < 0.2] = 0.0
            after = _route_both_ways(inst, before)
            assert_basic_routing(inst, before, after, THRESHOLD)

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableflow import (
    Instance,
    Method,
    OracleSizeError,
    SolverConfig,
    VerdictKind,
    check_feasible,
    classify,
    desk_scale_batch,
    generate_random_instance,
    oracle_feasibility,
    render_verdict_report,
    solve,
    solve_coordinate,
    solve_pgd,
    stability_report,
)


def scaled(inst, factor):
    """The same network with every capacity and demand multiplied by ``factor``."""
    return Instance(
        inst.vertex_count,
        [(a.tail, a.head, a.capacity * factor) for a in inst.arcs],
        [(c.source, c.sink, c.demand * factor) for c in inst.commodities],
    )


class TestOracle:
    def test_unit_demand_routable(self, one_arc):
        assert oracle_feasibility(one_arc(1.0, 1.0)) is True

    def test_cut_capacity_below_demand(self, one_arc):
        assert oracle_feasibility(one_arc(1.0, 2.0)) is False

    def test_parallel_arcs_split_demand(self):
        inst = Instance(2, [(0, 1, 1.0), (0, 1, 1.0)], [(0, 1, 2.0)])
        assert oracle_feasibility(inst) is True

    def test_no_route_at_all(self):
        inst = Instance(3, [(1, 2, 5.0)], [(0, 2, 1.0)])
        assert oracle_feasibility(inst) is False

    def test_disjoint_cycles_are_infeasible(self):
        # Cycles at the source and at the sink with no path between them;
        # plenty of arc capacity but none of it useful.
        inst = Instance(
            4,
            [(0, 1, 2.0), (1, 0, 2.0), (2, 3, 2.0), (3, 2, 2.0)],
            [(0, 2, 2.0)],
        )
        assert oracle_feasibility(inst) is False

    def test_two_commodities_share_capacity(self):
        inst = Instance(2, [(0, 1, 3.0)], [(0, 1, 2.0), (0, 1, 2.0)])
        assert oracle_feasibility(inst) is False
        relaxed = Instance(2, [(0, 1, 4.0)], [(0, 1, 2.0), (0, 1, 2.0)])
        assert oracle_feasibility(relaxed) is True

    def test_opposite_direction_demand(self):
        inst = Instance(2, [(0, 1, 5.0)], [(1, 0, 1.0)])
        assert oracle_feasibility(inst) is False

    def test_zero_demand_always_feasible(self):
        inst = Instance(3, [(0, 1, 0.0)], [(0, 2, 0.0)])
        assert oracle_feasibility(inst) is True

    def test_huge_capacity_does_not_loosen_tolerance(self):
        # Demand 1 cannot pass the 0.5 cut; the 1e9 arc leads into the
        # source and never binds, but it once set the phase-one tolerance.
        inst = Instance(4, [(0, 1, 0.5), (1, 2, 0.5), (3, 0, 1e9)], [(0, 2, 1.0)])
        assert oracle_feasibility(inst) is False

    def test_multi_hop_with_bottleneck(self):
        inst = Instance(
            4,
            [(0, 1, 3.0), (1, 2, 1.0), (1, 3, 2.0), (3, 2, 2.0)],
            [(0, 2, 3.0)],
        )
        assert oracle_feasibility(inst) is True
        tighter = Instance(
            4,
            [(0, 1, 3.0), (1, 2, 1.0), (1, 3, 2.0), (3, 2, 1.5)],
            [(0, 2, 3.0)],
        )
        assert oracle_feasibility(tighter) is False

    @pytest.mark.parametrize(
        "shape",
        [(9, 1, 1), (4, 13, 1), (4, 4, 4)],
    )
    def test_size_guard(self, shape):
        v, a, k = shape
        arcs = [(0, 1, 1.0)] * a
        commodities = [(0, 1, 0.0)] * k
        inst = Instance(v, arcs, commodities)
        with pytest.raises(OracleSizeError):
            oracle_feasibility(inst)


class TestClassify:
    def test_feasible_one_arc(self, one_arc):
        inst = one_arc(1.0, 1.0)
        result = solve_coordinate(inst)
        verdict = classify(inst, result)
        assert verdict.kind is VerdictKind.FEASIBLE
        assert verdict.flow is not None and verdict.certificate is None
        assert check_feasible(inst, verdict.flow.flows, 1e-6).ok

    def test_infeasible_one_arc_with_certificate(self, one_arc):
        inst = one_arc(1.0, 2.0)
        result = solve_coordinate(inst)
        verdict = classify(inst, result)
        assert verdict.kind is VerdictKind.INFEASIBLE
        assert verdict.flow is None and verdict.certificate is not None
        assert verdict.certificate.objective == pytest.approx(1 / 3, abs=1e-8)

    def test_unconverged_is_undecided(self, one_arc):
        inst = one_arc(1.0, 2.0)
        result = solve_coordinate(inst, SolverConfig(max_iters=1))
        assert not result.converged
        verdict = classify(inst, result)
        assert verdict.kind is VerdictKind.UNDECIDED
        assert verdict.flow is None and verdict.certificate is None

    def test_gray_zone_is_undecided(self, one_arc):
        inst = one_arc(1.0, 2.0)
        result = solve_coordinate(inst)
        assert classify(inst, result).kind is VerdictKind.INFEASIBLE
        # An objective above the zero cutoff 1e-9 * scale² but not above
        # ten times it: neither branch may fire.
        zero_tol = 1e-9 * inst.scale * inst.scale
        result.report = result.report._replace(objective=5 * zero_tol)
        assert classify(inst, result).kind is VerdictKind.UNDECIDED

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tiny_magnitudes_not_passed_as_feasible(self, seed):
        # Shrunk by 1e-6, the verdict is the unscaled one: every tolerance is
        # relative to the data, none is absolute.
        base = generate_random_instance(8, 12, 3, (1, 5), (1, 5), seed=seed, integer_values=True)
        assert oracle_feasibility(base) is False
        tiny = scaled(base, 1e-6)
        result = solve_coordinate(tiny)
        assert result.converged
        assert classify(tiny, result).kind is VerdictKind.INFEASIBLE

    def test_huge_magnitudes_converged_agrees_with_report(self):
        # Grown by 1e6, the solver's incrementally kept totals and excesses
        # drift from its flows: the in-loop check once passed while the final
        # report stayed above tol, and the verdict came back UNDECIDED.
        base = generate_random_instance(8, 12, 3, (1, 5), (1, 5), seed=4, integer_values=True)
        assert oracle_feasibility(base) is False
        huge = scaled(base, 1e6)
        result = solve_coordinate(huge)
        assert result.converged
        assert result.report.max_residual <= result.config.tol * huge.scale
        assert classify(huge, result).kind is VerdictKind.INFEASIBLE

    def test_zero_tolerance_overflows_to_inf(self):
        # The zero cutoff 1e-9 * scale² overflows to inf here, and so does
        # the objective. Both methods converge, and the flow, ~1e200 over
        # capacity, fails the FEASIBLE re-check.
        inst = Instance(
            3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [(0, 2, 1e200), (0, 2, 1e200)]
        )
        with np.errstate(over="ignore"):
            for method in (Method.COORDINATE, Method.PGD):
                result = solve(inst, SolverConfig(method=method))
                assert result.converged
                assert result.report.objective == math.inf
                assert classify(inst, result).kind is VerdictKind.UNDECIDED

    @pytest.mark.parametrize("method", [Method.COORDINATE, Method.PGD])
    def test_huge_capacity_does_not_loosen_tolerances(self, method):
        # Scaled by its 1e9 capacity, the stop tolerance would be 5.4: the
        # solve stopped at sweep 0 and this infeasible instance was called
        # FEASIBLE. The scale comes from the demands alone.
        inst = Instance(4, [(0, 1, 0.5), (1, 2, 0.5), (3, 0, 1e9)], [(0, 2, 1.0)])
        assert inst.scale == 1.0
        result = solve(inst, SolverConfig(method=method))
        assert result.converged
        assert classify(inst, result).kind is VerdictKind.INFEASIBLE

    @pytest.mark.parametrize("slot", ["used_arc_residual", "unused_arc_residual"])
    def test_nan_residual_is_undecided(self, one_arc, slot):
        # max(0.0, nan) is 0.0 in Python: a NaN unused residual read as
        # stable and this flow was classified FEASIBLE.
        inst = one_arc(1.0, 1.0)
        result = solve_coordinate(inst)
        result.report = result.report._replace(**{slot: math.nan})
        assert classify(inst, result).kind is VerdictKind.UNDECIDED

    def test_certificate_revalidates_from_scratch(self, one_arc):
        inst = one_arc(1.0, 2.0)
        result = solve_coordinate(inst)
        verdict = classify(inst, result)
        assert verdict.kind is VerdictKind.INFEASIBLE
        fresh = stability_report(inst, result.flow)
        assert fresh.max_residual <= result.config.tol * inst.scale
        assert fresh.objective > 10 * 1e-9 * inst.scale * inst.scale

    def test_feasible_demoted_when_flow_fails_recheck(self, one_arc):
        # A result whose report claims near-zero objective but whose flow
        # does not actually route the demand must not be called FEASIBLE.
        inst = one_arc(1.0, 1.0)
        result = solve_coordinate(inst)
        result.flow.flows[0, 0] = 0.5
        verdict = classify(inst, result)
        assert verdict.kind is VerdictKind.UNDECIDED


class TestAgreement:
    @pytest.mark.parametrize("method", [Method.COORDINATE, Method.PGD])
    def test_solver_agrees_with_oracle(self, method):
        batch = desk_scale_batch(20, seed=4)
        undecided = 0
        for inst in batch:
            verdict = classify(inst, solve(inst, SolverConfig(method=method)))
            truth = oracle_feasibility(inst)
            if verdict.kind is VerdictKind.UNDECIDED:
                undecided += 1
            else:
                assert (verdict.kind is VerdictKind.FEASIBLE) == truth
        assert undecided <= 2

    def test_disjoint_cycles_classified_infeasible(self):
        inst = Instance(
            4,
            [(0, 1, 2.0), (1, 0, 2.0), (2, 3, 2.0), (3, 2, 2.0)],
            [(0, 2, 2.0)],
        )
        verdict = classify(inst, solve_coordinate(inst))
        assert verdict.kind is VerdictKind.INFEASIBLE
        assert oracle_feasibility(inst) is False

    def test_no_commodities_is_feasible(self):
        inst = Instance(3, [(0, 1, 1.0), (1, 2, 1.0)], [])
        verdict = classify(inst, solve_coordinate(inst))
        assert verdict.kind is VerdictKind.FEASIBLE
        assert oracle_feasibility(inst) is True

    def test_no_arcs_with_demand_is_infeasible(self):
        inst = Instance(2, [], [(0, 1, 1.0)])
        result = solve_coordinate(inst)
        assert result.converged and result.iterations == 0
        assert classify(inst, result).kind is VerdictKind.INFEASIBLE
        assert oracle_feasibility(inst) is False

    def test_no_arcs_no_demand_is_feasible(self):
        inst = Instance(2, [], [(0, 1, 0.0)])
        assert classify(inst, solve_coordinate(inst)).kind is VerdictKind.FEASIBLE
        assert oracle_feasibility(inst) is True


@given(seed=st.integers(0, 2**31 - 1), data=st.data())
@settings(max_examples=30, deadline=None)
def test_permuting_arcs_and_commodities_keeps_verdict(seed, data):
    inst = desk_scale_batch(1, seed)[0]
    arc_order = data.draw(st.permutations(range(inst.arc_count)))
    com_order = data.draw(st.permutations(range(inst.commodity_count)))
    permuted = Instance(
        inst.vertex_count,
        [inst.arcs[a] for a in arc_order],
        [inst.commodities[k] for k in com_order],
    )
    for solver in (solve_coordinate, solve_pgd):
        base, moved = solver(inst), solver(permuted)
        for result in (base, moved):
            tol = result.config.tol * inst.scale
            assert result.converged == (result.report.max_residual <= tol)
        verdict = classify(permuted, moved)
        assert verdict.kind is classify(inst, base).kind
        if verdict.flow is not None:
            routed = np.empty_like(verdict.flow.flows)
            routed[np.ix_(com_order, arc_order)] = verdict.flow.flows
            assert check_feasible(inst, routed, 1e-6).ok
    # PGD takes the same steps on the permuted problem, up to rounding.
    np.testing.assert_allclose(
        moved.flow.flows, base.flow.flows[np.ix_(com_order, arc_order)], rtol=0, atol=1e-6
    )


@given(
    seed=st.integers(0, 2**31 - 1),
    decimal=st.integers(-6, 6),
    binary=st.integers(-20, 20),
)
@settings(max_examples=25, deadline=None)
def test_scaling_capacities_and_demands_keeps_verdict(seed, decimal, binary):
    # Every tolerance is relative to Instance.scale, a power of two, so a
    # power-of-two factor changes no rounding: the same sweeps, the same
    # flows bit for bit. Any other factor keeps at least the verdict.
    inst = desk_scale_batch(1, seed)[0]
    factor = 2.0**binary
    for method in (Method.COORDINATE, Method.PGD):
        cfg = SolverConfig(method=method)
        base = solve(inst, cfg)
        kind = classify(inst, base).kind
        assert kind is not VerdictKind.UNDECIDED
        by_ten = scaled(inst, 10.0**decimal)
        assert classify(by_ten, solve(by_ten, cfg)).kind is kind
        by_two = scaled(inst, factor)
        moved = solve(by_two, cfg)
        assert moved.iterations == base.iterations
        assert np.array_equal(moved.flow.flows / factor, base.flow.flows)
        assert classify(by_two, moved).kind is kind


# Distinct instances per method: a cache keyed by value would otherwise pin
# only the first of two equal instances.
@pytest.mark.parametrize("method,seed", [(Method.COORDINATE, 3), (Method.PGD, 5)])
def test_instance_freed_after_solve_and_classify(method, seed):
    inst = desk_scale_batch(1, seed)[0]
    ref = weakref.ref(inst)
    classify(inst, solve(inst, SolverConfig(method=method)))
    del inst
    gc.collect()
    assert ref() is None


class TestRender:
    def test_feasible_report_includes_flow_dump(self, one_arc):
        inst = one_arc(1.0, 1.0)
        result = solve_coordinate(inst)
        verdict = classify(inst, result)
        text = render_verdict_report(
            inst, verdict, iterations=result.iterations, converged=result.converged
        )
        lines = text.splitlines()
        assert lines[0] == "verdict FEASIBLE"
        assert lines[1].startswith("objective ")
        assert lines[2].startswith("used_residual ")
        assert lines[3].startswith("unused_residual ")
        assert f"iterations {result.iterations}" in lines
        assert "converged true" in lines
        assert any(line.startswith("s ") for line in lines)
        assert any(line.startswith("f 1 1 2 1 ") for line in lines)

    def test_infeasible_report_has_no_dump(self, one_arc):
        inst = one_arc(1.0, 2.0)
        verdict = classify(inst, solve_coordinate(inst))
        text = render_verdict_report(inst, verdict)
        assert text.splitlines()[0] == "verdict INFEASIBLE"
        assert "\nf " not in text
        assert "iterations" not in text

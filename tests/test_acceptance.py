"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion N (<name>): PASS|FAIL` line (run pytest with
-s to see them on success). The shared pipeline solves a fixed batch of 50
small random instances with both solvers, classifies the results, and asks
the independent phase-one oracle for ground truth.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from stableflow import (
    Instance,
    Method,
    ObjectiveForm,
    PseudoFlow,
    SolveResult,
    SolverConfig,
    Verdict,
    VerdictKind,
    check_feasible,
    classify,
    desk_scale_batch,
    gradient,
    objective,
    optimal_slack,
    oracle_feasibility,
    solve_coordinate,
    solve_pgd,
)

BATCH_SIZE = 50
BATCH_SEED = 1


@dataclass
class Pipeline:
    instances: list[Instance]
    results: list[SolveResult]
    verdicts: list[Verdict]
    truths: list[bool]
    elapsed: float


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"criterion {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def pipeline():
    start = time.perf_counter()
    instances = desk_scale_batch(BATCH_SIZE, BATCH_SEED)
    results = [solve_coordinate(inst) for inst in instances]
    verdicts = [classify(inst, res) for inst, res in zip(instances, results)]
    truths = [oracle_feasibility(inst) for inst in instances]
    elapsed = time.perf_counter() - start
    return Pipeline(instances, results, verdicts, truths, elapsed)


@pytest.fixture(scope="module")
def pgd_results(pipeline):
    cfg = SolverConfig(method=Method.PGD)
    return [solve_pgd(inst, cfg) for inst in pipeline.instances]


def test_criterion_1_oracle_agreement(pipeline):
    disagreements = 0
    undecided = 0
    for verdict, truth in zip(pipeline.verdicts, pipeline.truths):
        if verdict.kind is VerdictKind.UNDECIDED:
            undecided += 1
        elif (verdict.kind is VerdictKind.FEASIBLE) != truth:
            disagreements += 1
    ok = (
        disagreements == 0
        and undecided <= BATCH_SIZE // 10
        and pipeline.elapsed < 60.0
    )
    report(
        1,
        "oracle agreement",
        ok,
        f"{BATCH_SIZE} instances, {disagreements} disagreements, "
        f"{undecided} undecided, {pipeline.elapsed:.2f}s",
    )


def test_criterion_2_one_arc_closed_form():
    inst = Instance(2, [(0, 1, 1.0)], [(0, 1, 2.0)])

    # Independent oracle: minimize the one-dimensional reduced objective
    # 0.5*(f-1)^2 + (2-f)^2 on a fine grid, refined from the grid argmin.
    grid = np.linspace(1.0, 3.0, 2_000_001)
    values = 0.5 * (grid - 1.0) ** 2 + (2.0 - grid) ** 2
    best = int(values.argmin())
    expected_flow = float(grid[best])
    expected_objective = float(values[best])

    ok = True
    details = []
    for name, solver in (("coordinate", solve_coordinate), ("pgd", solve_pgd)):
        result = solver(inst)
        flow = float(result.flow.flows[0, 0])
        obj = result.report.objective
        verdict = classify(inst, result)
        ok = (
            ok
            and result.converged
            and abs(obj - expected_objective) <= 1e-8
            and abs(flow - expected_flow) <= 1e-6
            and verdict.kind is VerdictKind.INFEASIBLE
        )
        details.append(f"{name}: f={flow:.9f} z={obj:.9f} {verdict.kind.value}")
    report(2, "one-arc closed form", ok, "; ".join(details))


def test_criterion_3_feasible_flows_check_out(pipeline):
    ok = True
    feasible_count = 0
    for inst, verdict in zip(pipeline.instances, pipeline.verdicts):
        if verdict.kind is VerdictKind.FEASIBLE:
            feasible_count += 1
            ok = ok and check_feasible(inst, verdict.flow.flows, 1e-6).ok

    hand_cases = [
        (
            Instance(2, [(0, 1, 1.0)], [(0, 1, 1.0)]),
            np.array([[1.0]]),
        ),
        (
            Instance(2, [(0, 1, 1.0), (0, 1, 1.0)], [(0, 1, 2.0)]),
            np.array([[1.0, 1.0]]),
        ),
        (
            Instance(
                4,
                [(0, 1, 3.0), (1, 3, 2.0), (1, 2, 1.0), (2, 3, 1.0)],
                [(0, 3, 3.0), (1, 3, 0.0)],
            ),
            np.array([[3.0, 2.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]]),
        ),
    ]
    max_hand = 0.0
    for inst, flows in hand_cases:
        assert check_feasible(inst, flows, 0.0).ok
        slacks = np.array(
            [optimal_slack(t, a.capacity) for t, a in zip(flows.sum(axis=0), inst.arcs)]
        )
        z = objective(inst, PseudoFlow(flows, slacks), form=ObjectiveForm.INTEGRAL)
        max_hand = max(max_hand, z)
        ok = ok and z <= 1e-12
    report(
        3,
        "zero-stable iff feasible",
        ok,
        f"{feasible_count} FEASIBLE verdicts re-checked, "
        f"max hand-built objective {max_hand:.2e}",
    )


def test_criterion_4_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    instances = desk_scale_batch(20, seed=77)
    step = 1e-6
    worst = 0.0
    for inst in instances:
        caps = np.array([a.capacity for a in inst.arcs])
        flows = rng.uniform(0.01, 4.0, size=(inst.commodity_count, inst.arc_count))
        slacks = rng.uniform(0.0, 1.0, size=inst.arc_count) * caps
        pf = PseudoFlow(flows, slacks)
        analytic = gradient(inst, pf, form=ObjectiveForm.INTEGRAL)
        for k in range(inst.commodity_count):
            for a in range(inst.arc_count):
                up = flows.copy()
                up[k, a] += step
                down = flows.copy()
                down[k, a] -= step
                z_up = objective(inst, PseudoFlow(up, slacks), form=ObjectiveForm.INTEGRAL)
                z_down = objective(
                    inst, PseudoFlow(down, slacks), form=ObjectiveForm.INTEGRAL
                )
                numeric = (z_up - z_down) / (2 * step)
                rel = abs(analytic[k, a] - numeric) / max(
                    1.0, abs(analytic[k, a]), abs(numeric)
                )
                worst = max(worst, rel)
    ok = worst <= 1e-6
    report(4, "gradient vs finite differences", ok, f"worst relative error {worst:.2e}")


def test_criterion_5_stability_at_convergence(pipeline, pgd_results):
    ok = True
    perturbed = 0
    for inst, result in zip(
        pipeline.instances + pipeline.instances, pipeline.results + pgd_results
    ):
        if not result.converged:
            ok = False
            continue
        tol = result.config.tol * inst.scale
        ok = ok and result.report.used_arc_residual <= tol
        ok = ok and result.report.unused_arc_residual <= tol
        base = objective(inst, result.flow, form=ObjectiveForm.INTEGRAL)
        threshold = 1e-9 * inst.scale
        used = np.argwhere(result.flow.flows > threshold)
        for k, a in used:
            bumped = result.flow.flows.copy()
            bumped[k, a] += 1e-3
            z = objective(
                inst, PseudoFlow(bumped, result.flow.slacks), form=ObjectiveForm.INTEGRAL
            )
            ok = ok and z > base
            perturbed += 1
    report(
        5,
        "stability and local optimality at convergence",
        ok,
        f"{perturbed} used-arc perturbations all increased the objective",
    )


def test_criterion_6_monotone_descent(pipeline, pgd_results):
    ok = True
    rows = 0
    for result in pipeline.results + pgd_results:
        for prev, cur in zip(result.trace, result.trace[1:]):
            rows += 1
            if cur.objective > prev.objective + 1e-12 * (1 + abs(prev.objective)):
                ok = False
    report(6, "monotone descent", ok, f"{rows} consecutive trace pairs checked")


def test_criterion_7_objective_form_consistency():
    rng = np.random.default_rng(4096)
    instances = desk_scale_batch(20, seed=99)
    worst = 0.0
    for inst in instances:
        caps = np.array([a.capacity for a in inst.arcs])
        flows = rng.uniform(0.0, 4.0, size=(inst.commodity_count, inst.arc_count))
        totals = flows.sum(axis=0)
        slacks = np.array([optimal_slack(t, c) for t, c in zip(totals, caps)])
        pf = PseudoFlow(flows, slacks)
        z_int = objective(inst, pf, form=ObjectiveForm.INTEGRAL)
        z_slack = objective(inst, pf, form=ObjectiveForm.SLACK)
        worst = max(worst, abs(z_int - z_slack) / (1 + abs(z_int)))
    ok = worst <= 1e-12
    report(7, "objective form consistency", ok, f"worst relative gap {worst:.2e}")


def test_criterion_8_solver_cross_agreement(pipeline, pgd_results):
    worst = 0.0
    for coord, pgd in zip(pipeline.results, pgd_results):
        worst = max(worst, abs(coord.report.objective - pgd.report.objective))
    ok = worst <= 1e-6
    report(8, "solver cross-agreement", ok, f"worst objective gap {worst:.2e}")

"""Turn solver output into a feasibility verdict, plus an independent oracle.

``classify`` applies the decision rule: a converged state with (near-)zero
objective is a feasible flow; a converged state with a clearly positive
objective is a certificate that no feasible flow exists; everything else,
including the gray zone between the two thresholds, is UNDECIDED. Each
threshold is a constant times ``Instance.scale``, the largest power of two
not above the largest demand, so scaling capacities and demands together
leaves the verdict unchanged; reports and flows stay in the caller's units.

``oracle_feasibility`` answers the same question for desk-scale instances by
a textbook route that shares no code with the pseudo-flow machinery: a
phase-one simplex on the raw capacity/conservation/nonnegativity system.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .model import Instance, generate_random_instance
from .pseudoflow import PseudoFlow, StabilityReport, check_feasible, write_flow_dump
from .solvers import SolveResult

ORACLE_MAX_VERTICES = 8
ORACLE_MAX_ARCS = 12
ORACLE_MAX_COMMODITIES = 3


class OracleSizeError(ValueError):
    """Instance exceeds the size the oracle is trusted for."""


class VerdictKind(Enum):
    FEASIBLE = "FEASIBLE"
    INFEASIBLE = "INFEASIBLE"
    UNDECIDED = "UNDECIDED"


class ResidualSummary(NamedTuple):
    objective: float
    used_residual: float
    unused_residual: float


@dataclass(eq=False)
class Verdict:
    """Outcome of classification.

    ``flow`` is present exactly for FEASIBLE verdicts; ``certificate`` (the
    stability report of the converged nonzero state: heights, congestions,
    objective) exactly for INFEASIBLE ones.
    """

    kind: VerdictKind
    flow: PseudoFlow | None
    certificate: StabilityReport | None
    residual_summary: ResidualSummary


def classify(inst: Instance, result: SolveResult) -> Verdict:
    """Classify a solve result as FEASIBLE, INFEASIBLE, or UNDECIDED.

    Every threshold is a constant times ``s = inst.scale``. With both
    residuals within the solver's ``result.config.tol * s``: objective <=
    1e-9 * s² (the objective is quadratic in the data) means FEASIBLE,
    objective > 10 times that means INFEASIBLE with the state as
    certificate. Anything else, including unconverged results and the gray
    zone between the thresholds, is UNDECIDED. A FEASIBLE flow is re-checked
    directly at 1e-6 * s before being returned; a flow that fails that
    check demotes the verdict to UNDECIDED.
    """
    scale = inst.scale
    zero_tol = 1e-9 * scale * scale  # not ``** 2``: that raises OverflowError past ~1e154
    report = result.report
    summary = ResidualSummary(
        report.objective, report.used_arc_residual, report.unused_arc_residual
    )
    stable = report.max_residual <= result.config.tol * scale
    if stable and report.objective <= zero_tol:
        if check_feasible(inst, result.flow.flows, 1e-6 * scale).ok:
            return Verdict(VerdictKind.FEASIBLE, result.flow, None, summary)
        return Verdict(VerdictKind.UNDECIDED, None, None, summary)
    if stable and report.objective > 10.0 * zero_tol:
        return Verdict(VerdictKind.INFEASIBLE, None, report, summary)
    return Verdict(VerdictKind.UNDECIDED, None, None, summary)


def render_verdict_report(
    inst: Instance,
    verdict: Verdict,
    *,
    iterations: int | None = None,
    converged: bool | None = None,
) -> str:
    """Structured text report: kind, objective, residuals, flow dump if any."""
    summary = verdict.residual_summary
    lines = [
        f"verdict {verdict.kind.value}",
        f"objective {summary.objective!r}",
        f"used_residual {summary.used_residual!r}",
        f"unused_residual {summary.unused_residual!r}",
    ]
    if iterations is not None:
        lines.append(f"iterations {iterations}")
    if converged is not None:
        lines.append(f"converged {'true' if converged else 'false'}")
    text = "\n".join(lines) + "\n"
    if verdict.kind is VerdictKind.FEASIBLE and verdict.flow is not None:
        text += write_flow_dump(
            inst,
            verdict.flow.flows,
            summary.objective,
            summary.used_residual,
            summary.unused_residual,
        )
    return text


# --- Independent desk-scale oracle: phase-one simplex on the raw system ---


def _phase_one_feasible(rows: np.ndarray, rhs: np.ndarray, n_slack: int) -> bool:
    """Phase-one simplex: does {rows @ x = rhs, x >= 0} have a solution?

    The first ``n_slack`` rows arrive with an identity slack block and a
    nonnegative right-hand side, so only the remaining rows get artificial
    variables. Bland's rule (smallest eligible index, for both the entering
    column and the leaving basic variable) guarantees termination.
    """
    m, n = rows.shape
    n_art = m - n_slack
    tableau = np.zeros((m, n + n_art + 1))
    tableau[:, :n] = rows
    tableau[:, -1] = rhs
    basis = np.empty(m, dtype=int)

    # Slack rows are basic as-is; the rest are made nonnegative and get an
    # artificial basic column each.
    for i in range(n_slack):
        basis[i] = n - n_slack + i
    for j, i in enumerate(range(n_slack, m)):
        if tableau[i, -1] < 0:
            tableau[i, :] *= -1.0
        tableau[i, n + j] = 1.0
        basis[i] = n + j

    # Reduced-cost row for minimizing the artificial sum.
    cost = np.zeros(n + n_art + 1)
    for i in range(n_slack, m):
        cost -= tableau[i, :]
    cost[n:-1] = 0.0

    pivot_tol = 1e-9
    for _ in range(20_000):
        entering = -1
        for j in range(n):  # artificials never re-enter
            if cost[j] < -pivot_tol:
                entering = j
                break
        if entering < 0:
            break

        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            coef = tableau[i, entering]
            if coef > pivot_tol:
                ratio = tableau[i, -1] / coef
                if ratio < best_ratio - 1e-12 or (
                    ratio < best_ratio + 1e-12
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            # Unbounded column cannot happen for a sum-of-artificials
            # objective bounded below by zero; treat defensively.
            break

        pivot = tableau[leaving, entering]
        tableau[leaving, :] /= pivot
        for i in range(m):
            if i != leaving and tableau[i, entering] != 0.0:
                tableau[i, :] -= tableau[i, entering] * tableau[leaving, :]
        cost -= cost[entering] * tableau[leaving, :]
        basis[leaving] = entering

    artificial_sum = -cost[-1]
    scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
    return bool(artificial_sum <= 1e-7 * scale)


def oracle_feasibility(inst: Instance) -> bool:
    """Exact feasibility of a desk-scale instance, decided independently.

    Builds the raw linear system (capacity rows with slack variables,
    per-commodity conservation rows) and runs phase-one simplex on it. Uses
    nothing from the pseudo-flow or solver modules.

    Raises:
        OracleSizeError: If the instance exceeds the desk-scale guideline.
    """
    if (
        inst.vertex_count > ORACLE_MAX_VERTICES
        or inst.arc_count > ORACLE_MAX_ARCS
        or inst.commodity_count > ORACLE_MAX_COMMODITIES
    ):
        raise OracleSizeError(
            f"oracle accepts at most {ORACLE_MAX_VERTICES} vertices, "
            f"{ORACLE_MAX_ARCS} arcs, {ORACLE_MAX_COMMODITIES} commodities; "
            f"got ({inst.vertex_count}, {inst.arc_count}, {inst.commodity_count})"
        )

    n_vertices, n_arcs, n_commodities = (
        inst.vertex_count,
        inst.arc_count,
        inst.commodity_count,
    )
    n_flow = n_commodities * n_arcs
    n_cols = n_flow + n_arcs  # flow variables then capacity slacks
    n_rows = n_arcs + n_commodities * n_vertices
    rows = np.zeros((n_rows, n_cols))
    rhs = np.zeros(n_rows)

    # A cycle-free feasible flow puts at most the total demand on an arc, so
    # clipping capacities there keeps feasibility and keeps the right-hand
    # side, hence the phase-one tolerance, at the scale of the demands.
    total_demand = inst.total_demand
    for a, arc in enumerate(inst.arcs):
        for k in range(n_commodities):
            rows[a, k * n_arcs + a] = 1.0
        rows[a, n_flow + a] = 1.0
        rhs[a] = min(arc.capacity, total_demand)

    for k, com in enumerate(inst.commodities):
        base = n_arcs + k * n_vertices
        for a, arc in enumerate(inst.arcs):
            rows[base + arc.tail, k * n_arcs + a] += 1.0
            rows[base + arc.head, k * n_arcs + a] -= 1.0
        rhs[base + com.source] = com.demand
        rhs[base + com.sink] = -com.demand

    return _phase_one_feasible(rows, rhs, n_slack=n_arcs)


def desk_scale_batch(count: int, seed: int) -> list[Instance]:
    """Deterministic batch of small random instances with integer data.

    Sizes stay within the oracle guideline: 2..6 vertices, 1..10 arcs,
    1..3 commodities, capacities and demands integers in [1, 5].
    """
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(count):
        n_vertices = int(rng.integers(2, 7))
        n_arcs = int(rng.integers(1, 11))
        n_commodities = int(rng.integers(1, 4))
        sub_seed = int(rng.integers(0, 2**31))
        batch.append(
            generate_random_instance(
                n_vertices,
                n_arcs,
                n_commodities,
                (1.0, 5.0),
                (1.0, 5.0),
                seed=sub_seed,
                integer_values=True,
            )
        )
    return batch


__all__ = [
    "ORACLE_MAX_ARCS",
    "ORACLE_MAX_COMMODITIES",
    "ORACLE_MAX_VERTICES",
    "OracleSizeError",
    "ResidualSummary",
    "Verdict",
    "VerdictKind",
    "classify",
    "desk_scale_batch",
    "oracle_feasibility",
    "render_verdict_report",
]

"""Turn solver output into a feasibility verdict, plus an independent oracle.

``classify`` applies the decision rule: a converged state with (near-)zero
objective is a feasible flow; a converged state with a clearly positive
objective is a certificate that no feasible flow exists; everything else,
including the gray zone between the two thresholds, is UNDECIDED. The
objective is read in units of ``Instance.scale`` squared, and the other
thresholds are constants times the scale: the scale is the largest power of
two not above the largest demand, so scaling capacities and demands
together leaves the verdict unchanged; reports and flows stay in the
caller's units.

``oracle_feasibility`` answers the same question for desk-scale instances by
a textbook route that shares no code with the pseudo-flow machinery: a
phase-one simplex on the raw capacity/conservation/nonnegativity system.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from . import _kernel
from .model import GenerationError, Instance, generate_random_instance
from .pseudoflow import (
    PseudoFlow,
    StabilityReport,
    _USE_FRACTION,
    _scaled_objective,
    check_feasible,
    write_flow_dump,
)
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


@dataclass(eq=False)
class Verdict:
    """Outcome of classification.

    ``flow`` is present exactly for FEASIBLE verdicts: a basic routing of
    the solve's flow (``_sweep.c:sf_crossover``), in which each commodity's
    free arcs form a forest and flows at or below ``1e-9 * scale`` are
    zeroed; it is the routing that was re-checked and is dumped, and the
    ``SolveResult`` keeps the solve's own. ``certificate`` (the stability
    report of the converged nonzero state: heights, congestions, objective)
    is present exactly for INFEASIBLE verdicts. ``report`` is the solve's
    stability report, whatever the kind.
    """

    kind: VerdictKind
    flow: PseudoFlow | None
    certificate: StabilityReport | None
    report: StabilityReport


def classify(inst: Instance, result: SolveResult) -> Verdict:
    """Classify a solve result as FEASIBLE, INFEASIBLE, or UNDECIDED.

    The objective is read in units of ``s = inst.scale`` squared, as
    0.5 * sum((congestion/s)²) + 0.5 * sum((height/s)²); read raw, it
    underflows below demands of ~1e-154 and overflows above ~1e154. With
    both residuals within the solver's ``result.config.tol * s``: a scaled
    objective <= 1e-9 means FEASIBLE, one > 10 times that means INFEASIBLE
    with the state as certificate. Anything else, including unconverged
    results and the gray zone between the thresholds, is UNDECIDED. A
    FEASIBLE flow is crossed over to a basic routing, on a copy, and that
    routing is re-checked directly at 1e-6 * s before being returned; a
    routing that fails that check demotes the verdict to UNDECIDED.
    """
    scale = inst.scale
    zero_tol = 1e-9
    report = result.report
    objective = _scaled_objective(report.congestions, report.heights, scale)
    stable = report.max_residual <= result.config.tol * scale
    if stable and objective <= zero_tol:
        flow = _basic(inst, result.flow.flows)
        if check_feasible(inst, flow.flows, 1e-6 * scale).ok:
            return Verdict(VerdictKind.FEASIBLE, flow, None, report)
        return Verdict(VerdictKind.UNDECIDED, None, None, report)
    if stable and objective > 10.0 * zero_tol:
        return Verdict(VerdictKind.INFEASIBLE, None, report, report)
    return Verdict(VerdictKind.UNDECIDED, None, None, report)


def _basic(inst: Instance, flows: np.ndarray) -> PseudoFlow:
    """A basic routing of ``flows``, a copy, and the slacks' optimum for it:
    ``_sweep.c:sf_crossover`` in one call, which takes empty flows too."""
    shape = (inst.commodity_count, inst.arc_count)
    if flows.shape != shape or flows.dtype.char != "d":
        raise ValueError(f"flows must be a float64 array of shape {shape}")
    flows = np.ascontiguousarray(flows, dtype=float)
    return _kernel.crossover(inst, flows, _USE_FRACTION * inst.scale)


def render_verdict_report(
    inst: Instance,
    verdict: Verdict,
    *,
    iterations: int | None = None,
    converged: bool | None = None,
) -> str:
    """Structured text report: kind, objective, residuals, flow dump if any."""
    report = verdict.report
    lines = [
        f"verdict {verdict.kind.value}",
        f"objective {report.objective!r}",
        f"used_residual {report.used_arc_residual!r}",
        f"unused_residual {report.unused_arc_residual!r}",
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
            report.objective,
            report.used_arc_residual,
            report.unused_arc_residual,
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

    # Relative to the right-hand side alone, so the answer does not depend
    # on units; an all-zero right-hand side leaves no artificial sum.
    artificial_sum = -cost[-1]
    return bool(artificial_sum <= 1e-7 * float(np.abs(rhs).max(initial=0.0)))


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

    Raises:
        GenerationError: If ``count`` or ``seed`` is negative.
    """
    if count < 0:
        raise GenerationError(f"count must be nonnegative, got {count}")
    if seed < 0:
        raise GenerationError(f"seed must be nonnegative, got {seed}")
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
    "Verdict",
    "VerdictKind",
    "classify",
    "desk_scale_batch",
    "oracle_feasibility",
    "render_verdict_report",
]

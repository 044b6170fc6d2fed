"""Solvers that drive a pseudo-flow to stability.

Both solvers minimize the slack-form objective (a convex box-constrained
quadratic: flows >= 0, slacks in [0, capacity]) and stop when the stability
residuals fall below the configured tolerance:

* PGD: projected gradient descent with Armijo backtracking from step 1.
* COORDINATE: deterministic, projected over-relaxed Gauss-Seidel sweeps
  (projected SOR); per arc, the slack is set to its exact minimizer, then
  each commodity's flow on the arc moves to max(0, x - omega * (g/3)). The
  objective restricted to one flow is a parabola with curvature 3 (one unit
  from the arc term and one from each endpoint's excess term), so g/3 is
  the step to its exact minimizer and omega = 1 is plain Gauss-Seidel.
  A step d changes the objective by g*d + 1.5*d**2, which is <= 0 for any
  d between 0 and -2g/3. For any omega in (0, 2) the unprojected step
  -omega*g/3 lies there, and projecting onto x >= 0 only shortens it, so
  no update raises the objective and every trace is monotone. The fixed
  points are those of omega = 1: x = max(0, x - omega*g/3) holds exactly
  when x = max(0, x - g/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernel
from .model import Instance
from .pseudoflow import (
    ObjectiveForm,
    PseudoFlow,
    StabilityReport,
    _USE_FRACTION,
    _excess_matrix,
    _max_residual,
    _slack_objective,
    _stability_residuals,
    gradient,
    stability_report,
)

# PGD backtracking: shrink factor of the step and sufficient-decrease fraction.
ARMIJO_BETA = 0.5
ARMIJO_SIGMA = 1e-4
# Over-relaxation factor of the coordinate flow step; any value in (0, 2)
# descends. 1.5 takes a quarter to a third fewer sweeps than 1 on the bench
# corpora (median desk 27 -> 18, tight 136 -> 100, large 42 -> 29).
_OMEGA = 1.5


class Method(Enum):
    PGD = "pgd"
    COORDINATE = "coordinate"


class Init(Enum):
    ZERO = "zero"
    RANDOM = "random"


@dataclass(frozen=True)
class SolverConfig:
    """Solver selection and stopping control.

    ``tol`` bounds both stability residuals at convergence, relative to the
    largest demand: a solve converges when both are within
    ``tol * inst.scale`` (see :attr:`Instance.scale`).
    """

    method: Method = Method.COORDINATE
    tol: float = 1e-8
    max_iters: int = 100_000
    seed: int = 0
    init: Init = Init.ZERO

    def __post_init__(self) -> None:
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


class TraceRow(NamedTuple):
    iteration: int
    objective: float
    used_residual: float
    unused_residual: float


@dataclass(eq=False)
class SolveResult:
    flow: PseudoFlow
    report: StabilityReport
    iterations: int
    converged: bool
    trace: list[TraceRow]
    config: SolverConfig

    @property
    def objective_trace(self) -> list[tuple[int, float]]:
        return [(row.iteration, row.objective) for row in self.trace]

    def trace_csv(self) -> str:
        lines = ["iteration,objective,used_residual,unused_residual"]
        for row in self.trace:
            lines.append(
                f"{row.iteration},{row.objective!r},{row.used_residual!r},{row.unused_residual!r}"
            )
        return "\n".join(lines) + "\n"


def optimal_slack(flow_total: float, capacity: float) -> float:
    """Exact minimizer of the arc slack term over [0, capacity]."""
    return min(max(capacity - flow_total, 0.0), capacity)


def _optimal_slacks(totals: np.ndarray, caps: np.ndarray) -> np.ndarray:
    return np.clip(caps - totals, 0.0, caps)


def _initial_state(
    inst: Instance, cfg: SolverConfig, warm_start: PseudoFlow | None
) -> tuple[np.ndarray, np.ndarray]:
    if warm_start is not None:
        warm_start.validate(inst)
        return warm_start.flows.copy(), warm_start.slacks.copy()
    shape = (inst.commodity_count, inst.arc_count)
    if cfg.init is Init.ZERO:
        flows = np.zeros(shape)
    else:
        rng = np.random.default_rng(cfg.seed)
        max_demand = max((c.demand for c in inst.commodities), default=0.0)
        flows = rng.uniform(0.0, max_demand, size=shape) if max_demand > 0 else np.zeros(shape)
    return flows, _optimal_slacks(flows.sum(axis=0), inst.capacities)


def solve(
    inst: Instance,
    cfg: SolverConfig | None = None,
    warm_start: PseudoFlow | None = None,
) -> SolveResult:
    """Run the method selected by ``cfg.method`` to stability.

    One loop serves both methods, each supplying only its in-place step,
    which returns a list of trace rows (objective, used residual, unused
    residual), one per iteration it ran. It stops when both stability
    residuals are within ``cfg.tol * inst.scale``, at once when either is
    NaN, after ``cfg.max_iters`` iterations, or when PGD finds no descent
    step; ``converged`` is read off the final report, so the two always
    agree. Flows, report and trace are in the instance's own units.

    When the compiled kernel (``_sweep.c``) can be built and loaded, one
    call runs a segment of up to ``_kernel.SEGMENT`` coordinate sweeps, each
    with its objective and residual check, and returns early on a row that
    stops the loop (PGD uses the kernel for the residual check only).
    Otherwise one sweep at a time runs in :func:`_python_sweep` and the rest
    in numpy. Both give bitwise the same result; both sum the objective
    sequentially, left to right.
    """
    cfg = cfg or SolverConfig()

    tails, heads, caps = inst.tails, inst.heads, inst.capacities
    tol = cfg.tol * inst.scale
    threshold = _USE_FRACTION * inst.scale
    flows, slacks = _initial_state(inst, cfg, warm_start)
    totals = flows.sum(axis=0)
    excesses = _excess_matrix(inst, flows)
    state = (flows, slacks, totals, excesses, caps, tails, heads)
    lib = _kernel.load()
    kernel = None if lib is None else _kernel.Sweep(lib, *state, threshold, _OMEGA)

    def residuals() -> tuple[float, float]:
        if kernel is not None:
            return kernel.residuals()
        return _stability_residuals(flows, totals, excesses, caps, tails, heads, threshold)[:2]

    # Each step runs at most n iterations and returns their trace rows; an
    # empty list means PGD found no descent step.
    if cfg.method is Method.PGD:
        def step(value: float, n: int) -> list[Sequence[float]]:
            new_value = _pgd_step(inst, flows, slacks, totals, excesses, value)
            return [] if new_value is None else [(new_value, *residuals())]
    elif kernel is not None:
        def step(value: float, n: int) -> list[Sequence[float]]:
            return kernel.run(tol, n)
    else:
        def step(value: float, n: int) -> list[Sequence[float]]:
            _python_sweep(*state)
            return [(_slack_objective(totals, slacks, caps, excesses), *residuals())]

    value = _slack_objective(totals, slacks, caps, excesses)
    used_res, unused_res = residuals()
    trace = [TraceRow(0, value, used_res, unused_res)]
    iterations = 0
    while _max_residual(used_res, unused_res) > tol and iterations < cfg.max_iters:
        rows = step(value, min(_kernel.SEGMENT, cfg.max_iters - iterations))
        if not rows:
            break
        # Only the last row can stop the loop; the kernel returns on it.
        *passed, (value, used_res, unused_res) = rows
        for row in passed:
            iterations += 1
            trace.append(TraceRow(iterations, *row))
        iterations += 1
        if _max_residual(used_res, unused_res) <= tol:
            # Totals and excesses are updated incrementally and drift from
            # the flows; re-derive them so the stop agrees with the report.
            np.sum(flows, axis=0, out=totals)
            excesses[...] = _excess_matrix(inst, flows)
            used_res, unused_res = residuals()
        trace.append(TraceRow(iterations, value, used_res, unused_res))

    # Final exact slack refresh; leaves flows (hence residuals) untouched.
    pf = PseudoFlow(np.maximum(flows, 0.0), _optimal_slacks(flows.sum(axis=0), caps))
    report = stability_report(inst, pf)
    return SolveResult(pf, report, iterations, report.max_residual <= tol, trace, cfg)


def solve_pgd(
    inst: Instance,
    cfg: SolverConfig | None = None,
    warm_start: PseudoFlow | None = None,
) -> SolveResult:
    """Projected gradient descent with Armijo backtracking (see :func:`solve`)."""
    return solve(inst, replace(cfg or SolverConfig(), method=Method.PGD), warm_start)


def solve_coordinate(
    inst: Instance,
    cfg: SolverConfig | None = None,
    warm_start: PseudoFlow | None = None,
) -> SolveResult:
    """Projected over-relaxed Gauss-Seidel coordinate descent (see :func:`solve`)."""
    return solve(inst, replace(cfg or SolverConfig(), method=Method.COORDINATE), warm_start)


def _pgd_step(
    inst: Instance,
    flows: np.ndarray,
    slacks: np.ndarray,
    totals: np.ndarray,
    excesses: np.ndarray,
    value: float,
) -> float | None:
    """One projected gradient step with Armijo backtracking from step 1, in place.

    Returns the new objective value, or None when no step decreases the
    objective strictly: the point is then stationary to working precision.
    """
    tails, heads, caps = inst.tails, inst.heads, inst.capacities
    gap = totals + slacks - caps
    flow_grad = gap[None, :] + excesses[:, heads] - excesses[:, tails]
    step = 1.0
    for _ in range(80):
        new_flows = np.maximum(flows - step * flow_grad, 0.0)
        new_slacks = np.clip(slacks - step * gap, 0.0, caps)
        flow_move = new_flows - flows
        slack_move = new_slacks - slacks
        inner = float(np.sum(flow_grad * flow_move)) + float(np.sum(gap * slack_move))
        new_totals = new_flows.sum(axis=0)
        new_excesses = _excess_matrix(inst, new_flows)
        # The objective is quadratic, so the exact change along the move is
        # the trapezoid of the two endpoint gradients. Evaluating the Armijo
        # test on this change avoids the cancellation that sets in when
        # candidate objective values differ by less than one ulp.
        new_gap = new_totals + new_slacks - caps
        new_flow_grad = new_gap[None, :] + new_excesses[:, heads] - new_excesses[:, tails]
        change = 0.5 * (
            float(np.sum((flow_grad + new_flow_grad) * flow_move))
            + float(np.sum((gap + new_gap) * slack_move))
        )
        if change <= ARMIJO_SIGMA * inner and change < 0.0:
            flows[...] = new_flows
            slacks[...] = new_slacks
            totals[...] = new_totals
            excesses[...] = new_excesses
            return value + change
        step *= ARMIJO_BETA
    return None


def _python_sweep(
    flows: np.ndarray,
    slacks: np.ndarray,
    totals: np.ndarray,
    excesses: np.ndarray,
    caps: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    omega: float = _OMEGA,
) -> None:
    """One over-relaxed Gauss-Seidel sweep in place; the reference for ``_sweep.c``.

    Arcs ascending, the arc's slack first, then commodities ascending; each
    flow moves to max(0, flow - omega * (g/3)), g its slack-form gradient
    component.
    """
    tail_list = tails.tolist()
    head_list = heads.tolist()
    n_commodities = flows.shape[0]
    for a in range(len(tail_list)):
        cap = caps[a]
        tail, head = tail_list[a], head_list[a]
        total = float(totals[a])
        slack = min(max(cap - total, 0.0), cap)
        slacks[a] = slack
        for k in range(n_commodities):
            grad = (total + slack - cap) + excesses[k, head] - excesses[k, tail]
            current = flows[k, a]
            target = current - omega * (grad / 3.0)
            new = target if target > 0.0 else 0.0
            delta = new - current
            if delta != 0.0:
                flows[k, a] = new
                total += delta
                excesses[k, tail] -= delta
                excesses[k, head] += delta
        totals[a] = total


def projected_gradient_residual(inst: Instance, pf: PseudoFlow) -> float:
    """Optimality residual of the slack-form problem at ``pf``.

    Infinity norm of x - project(x - grad) over the box (flows >= 0,
    slacks in [0, capacity]); zero exactly at minimizers.
    """
    flow_grad, slack_grad = gradient(inst, pf, ObjectiveForm.SLACK)
    flow_disp = pf.flows - np.maximum(pf.flows - flow_grad, 0.0)
    slack_disp = pf.slacks - np.clip(pf.slacks - slack_grad, 0.0, inst.capacities)
    return max(
        float(np.abs(flow_disp).max(initial=0.0)),
        float(np.abs(slack_disp).max(initial=0.0)),
    )


__all__ = [
    "Init",
    "Method",
    "SolveResult",
    "SolverConfig",
    "TraceRow",
    "optimal_slack",
    "projected_gradient_residual",
    "solve",
    "solve_coordinate",
    "solve_pgd",
]

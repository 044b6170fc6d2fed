"""Solvers that drive a pseudo-flow to stability.

Both solvers minimize the slack-form objective (a convex box-constrained
quadratic: flows >= 0, slacks in [0, capacity]) and stop when the stability
residuals fall below the configured tolerance:

* PGD: projected gradient descent with the exact step. From the gradient g
  it takes the direction d = P(x - g) - x, P the projection onto the box.
  The objective along d is a parabola, so the step t in [0, 1] that
  minimizes it has a closed form (the limited-minimization rule of gradient
  projection, Bertsekas 1976). Both ends of the move lie in the box, and the
  box is convex, so every t <= 1 stays inside it.
* COORDINATE: deterministic, projected over-relaxed Gauss-Seidel sweeps
  (projected SOR); per arc, the slack is set to its exact minimizer, then
  each commodity's flow on the arc moves to max(0, x - step * g), with
  step = omega / 3 computed once per sweep. The objective restricted to one
  flow is a parabola with curvature 3 (one unit from the arc term and one
  from each endpoint's excess term), so g/3 is the step to its exact
  minimizer and omega = 1 is plain Gauss-Seidel, up to the rounding of 1/3.
  With the default omega = 1.5, step is exactly 0.5 and the subtraction is
  the move's only rounding. A step d changes the objective by
  g*d + 1.5*d**2, which is <= 0 for any d between 0 and -2g/3. For any
  omega in (0, 2) the unprojected step -omega*g/3 lies there, and
  projecting onto x >= 0 only shortens it, so no update raises the
  objective and every trace is monotone. The fixed points are those of
  omega = 1: in exact arithmetic, x = max(0, x - omega*g/3) holds if and
  only if x = max(0, x - g/3).

Neither method has a stall exit: a solve stops on tol, on a NaN residual or
at ``max_iters``. A PGD step at a point where the slope along d is not
negative has t = 0 and leaves the point where it is.

Both methods are local, so information crosses the graph one arc per
iteration. Once a solve has run ``_MOMENTUM_GATE`` iterations, each further
iteration is followed by :func:`_extrapolate`: FISTA's extrapolation from
the last two results (Beck-Teboulle 2009), kept only if it does not raise
the objective read in units of ``inst.scale``, and otherwise dropped with
the momentum reset (adaptive restart, O'Donoghue-Candes 2015). The kept
state never has a larger objective than the iteration's result, so traces
stay monotone.

Both methods run their iterations in the compiled kernel (``_sweep.c``,
loaded by ``_kernel``) when it can be built. :func:`_python_sweep`,
:func:`_pgd_step` and :func:`_extrapolate` are the bitwise reference for it
and the fallback without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _kernel
from .model import Instance
from .pseudoflow import (
    ObjectiveForm,
    PseudoFlow,
    StabilityReport,
    _USE_FRACTION,
    _excess_matrix,
    _flow_scatter,
    _integral_objective,
    _max_residual,
    _scaled_objective,
    _sequential_sum,
    _slack_objective,
    _stability_residuals,
    gradient,
    stability_report,
)

# Over-relaxation factor of the coordinate flow step; any value in (0, 2)
# descends, and 1.5 makes the step omega / 3 exactly 0.5. With momentum, 1.5
# takes fewer sweeps than 1 on the bench corpora (median desk 25 -> 17,
# tight 55 -> 47, large 36 -> 27; one relabeling each).
_OMEGA = 1.5
# Iterations a solve runs before it starts to extrapolate (see _extrapolate).
# The bench's large instance converges in 27, so its solve never pays for it.
_MOMENTUM_GATE = 32


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
        if not isinstance(self.method, Method):
            raise ValueError(f"method must be a Method, got {self.method!r}")
        if not isinstance(self.init, Init):
            raise ValueError(f"init must be an Init, got {self.init!r}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not (type(self.max_iters) is int and self.max_iters >= 1):  # bool is not int
            raise ValueError(f"max_iters must be an int >= 1, got {self.max_iters!r}")
        if not (type(self.seed) is int and self.seed >= 0):
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")


class TraceRow(NamedTuple):
    iteration: int
    objective: float
    used_residual: float
    unused_residual: float


@dataclass(eq=False)
class SolveResult:
    """A solve's final flow and report, and the way there.

    ``rows[i]`` is the (objective, used residual, unused residual) of the
    state after iteration i, from 0; :attr:`trace` numbers them, built on
    first read.
    """

    flow: PseudoFlow
    report: StabilityReport
    iterations: int
    converged: bool
    rows: list[list[float]]
    config: SolverConfig

    @cached_property
    def trace(self) -> list[TraceRow]:
        return [TraceRow(i, *row) for i, row in enumerate(self.rows)]

    def trace_csv(self) -> str:
        lines = ["iteration,objective,used_residual,unused_residual"]
        for i, (objective, used, unused) in enumerate(self.rows):
            lines.append(f"{i},{objective!r},{used!r},{unused!r}")
        return "\n".join(lines) + "\n"


def optimal_slack(flow_total: float, capacity: float) -> float:
    """Exact minimizer of the arc slack term over [0, capacity]."""
    return min(max(capacity - flow_total, 0.0), capacity)


def _optimal_slacks(totals: np.ndarray, caps: np.ndarray) -> np.ndarray:
    return np.clip(caps - totals, 0.0, caps)


def _initial_state(
    inst: Instance, cfg: SolverConfig, warm_start: PseudoFlow | None
) -> tuple[np.ndarray, np.ndarray]:
    """The starting flows and slacks, not copied: the caller copies them once."""
    if warm_start is not None:
        warm_start.validate(inst)
        return warm_start.flows, warm_start.slacks
    shape = (inst.commodity_count, inst.arc_count)
    if cfg.init is Init.ZERO:
        # The optimal slacks of zero flows fill each arc's capacity.
        return np.zeros(shape), inst.capacities
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

    One loop serves both methods. Each supplies three steps: ``derive``
    re-derives totals and excesses from the flows and returns the trace row
    (objective, used residual, unused residual) of that state; ``step``
    runs iterations in place and returns one row per iteration; ``finish``
    makes the final flow and its report. Past ``_MOMENTUM_GATE``
    iterations, each iteration also extrapolates and keeps or restarts (see
    :func:`_extrapolate`), and its row is the kept state's; the first
    ``_MOMENTUM_GATE`` iterations are plain. The loop stops when both
    stability residuals are within ``cfg.tol * inst.scale``, at once when
    either is NaN, or after ``cfg.max_iters`` iterations; neither method
    has another exit. ``converged`` is read off the final report, so the
    two always agree. Flows, report and trace are in the instance's own
    units. The trace rows are plain lists; :attr:`SolveResult.trace` numbers
    them on first read.

    When the compiled kernel (``_sweep.c``) can be built and loaded, all
    three steps run in C on the state that :class:`_kernel.Kernel` holds in
    its one buffer, the result's arrays included, and in the extrapolation's
    arrays, both made when it binds: row 0 and the re-check at a stop,
    segments of up to ``_kernel.SEGMENT`` iterations of either method that
    return early only on a row that stops the loop (``sf_run`` counts the
    gate), and the final flows, slacks, heights, congestions, multipliers
    and residuals. Only the report's objective is summed in numpy, as
    :func:`stability_report` sums it; a report with a NaN residual is
    :func:`stability_report`'s own. Otherwise one iteration at a time runs
    in :func:`_python_sweep` or :func:`_pgd_step` and :func:`_extrapolate`,
    the rest in numpy, and the report is :func:`stability_report`'s. Either
    path copies the starting state once. Both give bitwise the same result;
    both sum sequentially, left to right, and scatter excesses one commodity
    at a time.
    """
    cfg = cfg or SolverConfig()

    tol = cfg.tol * inst.scale
    threshold = _USE_FRACTION * inst.scale
    start = _initial_state(inst, cfg, warm_start)
    lib = _kernel.load()
    if lib is not None:
        kernel = _kernel.Kernel(
            lib, inst, *start, cfg.method is Method.PGD, threshold, _OMEGA, _MOMENTUM_GATE
        )
        derive, step, segment = kernel.derive, kernel.run, _kernel.SEGMENT

        def finish() -> tuple[PseudoFlow, StabilityReport]:
            heights, congestions, multipliers, used, unused = kernel.report()
            # The kernel left flows >= 0 (or NaN) and slacks in [0, caps].
            pf = PseudoFlow._adopt(kernel.flows, kernel.slacks)
            if math.isnan(used) or math.isnan(unused):
                # Which NaN numpy's max returns (sign, payload) depends on its
                # vector path; take the report as stability_report takes it.
                return pf, stability_report(inst, pf)
            objective = _integral_objective(congestions, kernel.excesses)
            return pf, StabilityReport(heights, congestions, used, unused, multipliers, objective)
    else:
        tails, heads, caps = inst.tails, inst.heads, inst.capacities
        flows, slacks = (np.array(array, dtype=float) for array in start)
        totals = np.empty(inst.arc_count)
        excesses = np.empty((inst.commodity_count, inst.vertex_count))

        def row() -> list[float]:
            used, unused, _ = _stability_residuals(
                flows, totals, excesses, caps, tails, heads, threshold
            )
            return [_slack_objective(totals, slacks, caps, excesses), used, unused]

        def derive() -> list[float]:
            np.sum(flows, axis=0, out=totals)
            excesses[...] = _excess_matrix(inst, flows)
            return row()

        if cfg.method is Method.PGD:
            def advance() -> None:
                _pgd_step(inst, flows, slacks, totals, excesses)
        else:
            def advance() -> None:
                _python_sweep(flows, slacks, totals, excesses, caps, tails, heads)

        segment = 1  # the Python steps run one iteration
        done, prev, theta = 0, None, 1.0

        def step(tol: float, n: int) -> list[list[float]]:
            nonlocal done, prev, theta
            advance()
            done += 1
            if prev is not None:
                theta = _extrapolate(inst, flows, slacks, totals, excesses, prev, theta)
            elif done == _MOMENTUM_GATE:
                prev = flows.copy()
            return [row()]

        def finish() -> tuple[PseudoFlow, StabilityReport]:
            pf = PseudoFlow(np.maximum(flows, 0.0), _optimal_slacks(flows.sum(axis=0), caps))
            return pf, stability_report(inst, pf)

    rows = [derive()]
    iterations = 0
    while _max_residual(*rows[-1][1:]) > tol and iterations < cfg.max_iters:
        rows += step(tol, min(segment, cfg.max_iters - iterations))
        iterations = len(rows) - 1
        # Only the last row can stop the loop; the kernel returns on it.
        if _max_residual(*rows[-1][1:]) <= tol:
            # Totals and excesses are updated incrementally and drift from
            # the flows; re-derive them so the stop agrees with the report.
            rows[-1][1:] = derive()[1:]

    pf, report = finish()
    return SolveResult(pf, report, iterations, report.max_residual <= tol, rows, cfg)


def solve_pgd(
    inst: Instance,
    cfg: SolverConfig | None = None,
    warm_start: PseudoFlow | None = None,
) -> SolveResult:
    """Projected gradient descent with the exact step (see :func:`solve`)."""
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
) -> None:
    """One projected gradient step with the exact step length, in place.

    The reference for the PGD step of ``_sweep.c``. With g the slack-form
    gradient and d = P(x - g) - x, the objective at x + t*d is
    f(x) + t*slope + t**2 * curvature / 2, where slope = g.d and curvature
    = |change of the gaps|**2 + |change of the excesses|**2 along d. The
    step takes t = -slope / curvature, cut to [0, 1]: 0 when the slope is
    not negative, 1 when curvature <= -slope. Slope and curvature are read
    with every factor divided by ``inst.scale``, a power of two, so the
    division is exact. Unscaled, g.d and |change|**2 overflow to -inf and
    inf near demands of 1e200, and t would read 1 at every step.
    The move re-clips the slacks against rounding, re-sums the totals and
    moves the excesses by a scatter of the realized flow change, as a sweep
    does. Every sum is sequential, left to right, as the kernel sums.
    """
    tails, heads, caps, scale = inst.tails, inst.heads, inst.capacities, inst.scale
    gap = totals + slacks - caps
    flow_grad = gap[None, :] + excesses[:, heads] - excesses[:, tails]
    flow_move = np.maximum(flows - flow_grad, 0.0) - flows
    slack_move = np.clip(slacks - gap, 0.0, caps) - slacks
    slope = _sequential_sum((flow_grad / scale) * (flow_move / scale)) + _sequential_sum(
        (gap / scale) * (slack_move / scale)
    )
    gap_change = (flow_move.sum(axis=0) + slack_move) / scale
    excess_change = _flow_scatter(inst, flow_move) / scale
    curvature = _sequential_sum(gap_change * gap_change) + _sequential_sum(
        excess_change * excess_change
    )
    if not slope < 0.0:
        t = 0.0
    elif curvature <= -slope:
        t = 1.0
    else:
        t = -slope / curvature
    moved = flows + t * flow_move
    excesses += _flow_scatter(inst, moved - flows)
    flows[...] = moved
    np.clip(slacks + t * slack_move, 0.0, caps, out=slacks)
    np.sum(flows, axis=0, out=totals)


def _extrapolate(
    inst: Instance,
    flows: np.ndarray,
    slacks: np.ndarray,
    totals: np.ndarray,
    excesses: np.ndarray,
    prev: np.ndarray,
    theta: float,
) -> float:
    """One extrapolation with adaptive restart, in place; the reference for ``_sweep.c``.

    The state x+ is an iteration's result and ``prev`` the last one's flows.
    y = max(0, x+ + beta * (x+ - prev)), with FISTA's beta = (theta - 1) /
    theta' and theta' = (1 + sqrt(1 + 4 theta**2)) / 2 (Beck-Teboulle
    2009); y's slacks are the optimum for its totals. The state becomes y if
    y's objective in units of ``inst.scale`` is <= x+'s, and the call
    returns theta'; otherwise the state stays x+ and it returns 1, a restart
    (O'Donoghue-Candes 2015). Either way ``prev`` becomes x+'s flows.
    """
    caps, scale = inst.capacities, inst.scale
    kept = _scaled_objective(totals + slacks - caps, excesses, scale)
    theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
    beta = (theta - 1.0) / theta_next
    moved = np.maximum(flows + beta * (flows - prev), 0.0)
    prev[...] = flows
    moved_totals = moved.sum(axis=0)
    moved_excesses = _excess_matrix(inst, moved)
    moved_slacks = _optimal_slacks(moved_totals, caps)
    if not _scaled_objective(moved_totals + moved_slacks - caps, moved_excesses, scale) <= kept:
        return 1.0
    flows[...] = moved
    slacks[...] = moved_slacks
    totals[...] = moved_totals
    excesses[...] = moved_excesses
    return theta_next


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
    flow moves to max(0, flow - step * g), g its slack-form gradient
    component and step = omega / 3, computed once per sweep as the kernel
    computes it: a multiply, not a divide, on the chain through the total.
    """
    tail_list = tails.tolist()
    head_list = heads.tolist()
    n_commodities = flows.shape[0]
    step = omega / 3.0
    for a in range(len(tail_list)):
        cap = caps[a]
        tail, head = tail_list[a], head_list[a]
        total = float(totals[a])
        slack = min(max(cap - total, 0.0), cap)
        slacks[a] = slack
        for k in range(n_commodities):
            grad = (total + slack - cap) + excesses[k, head] - excesses[k, tail]
            current = flows[k, a]
            target = current - step * grad
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

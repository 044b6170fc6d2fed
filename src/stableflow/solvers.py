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
iteration is followed by an extrapolation (``_sweep.c:extrapolate``):
FISTA's extrapolation from the last two results (Beck-Teboulle 2009), kept
only if it does not raise the objective read in units of ``inst.scale``,
and otherwise dropped with the momentum reset (adaptive restart,
O'Donoghue-Candes 2015). The kept state never has a larger objective than
the iteration's result, so traces stay monotone.

Both methods run their iterations in the compiled kernel (``_sweep.c``,
built and loaded by ``_kernel``), which every solve requires.
``tests/reference.py`` holds a Python copy of the sweep, the PGD step, the
extrapolation and this driver loop; the tests compare the kernel with it
bit for bit.
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
    _integral_objective,
    _max_residual,
    gradient,
    stability_report,
)

# Over-relaxation factor of the coordinate flow step; any value in (0, 2)
# descends, and 1.5 makes the step omega / 3 exactly 0.5. With momentum, 1.5
# takes fewer sweeps than 1 on the bench corpora (median desk 25 -> 17,
# tight 55 -> 47, large 36 -> 27; one relabeling each).
_OMEGA = 1.5
# Iterations a solve runs before it starts to extrapolate (_sweep.c:extrapolate).
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
    caps = inst.capacities
    return flows, np.clip(caps - flows.sum(axis=0), 0.0, caps)


def solve(
    inst: Instance,
    cfg: SolverConfig | None = None,
    warm_start: PseudoFlow | None = None,
) -> SolveResult:
    """Run the method selected by ``cfg.method`` to stability.

    :class:`_kernel.Kernel` binds the instance and the starting state, and
    holds the solve's state, the result's arrays included, in its one
    buffer, beside the extrapolation's arrays. ``derive`` re-derives totals
    and excesses from the flows and returns the trace row (objective, used
    residual, unused residual) of that state; it gives row 0 and the
    re-check at a stop. ``run`` runs a segment of up to
    ``_kernel.SEGMENT`` iterations in place, one row per iteration, and
    returns early only on a row that stops the loop; past
    ``_MOMENTUM_GATE`` iterations, each iteration also extrapolates and
    keeps or restarts, and its row is the kept state's. ``report`` makes
    the final flows, slacks, heights, congestions, multipliers and
    residuals. The loop stops when both stability residuals are within
    ``cfg.tol * inst.scale``, at once when either is NaN, or after
    ``cfg.max_iters`` iterations; neither method has another exit.
    ``converged`` is read off the final report, so the two always agree.
    Only the report's objective is summed in numpy, as
    :func:`stability_report` sums it; a report with a NaN residual is
    :func:`stability_report`'s own. Flows, report and trace are in the
    instance's own units. The trace rows are plain lists;
    :attr:`SolveResult.trace` numbers them on first read.

    Raises:
        OSError: The compiled kernel cannot be built or loaded.
    """
    cfg = cfg or SolverConfig()

    tol = cfg.tol * inst.scale
    start = _initial_state(inst, cfg, warm_start)
    kernel = _kernel.Kernel(
        _kernel.load(), inst, *start, cfg.method is Method.PGD,
        _USE_FRACTION * inst.scale, _OMEGA, _MOMENTUM_GATE,
    )
    rows = [kernel.derive()]
    iterations = 0
    while _max_residual(*rows[-1][1:]) > tol and iterations < cfg.max_iters:
        rows += kernel.run(tol, min(_kernel.SEGMENT, cfg.max_iters - iterations))
        iterations = len(rows) - 1
        # Only the last row can stop the loop; the kernel returns on it.
        if _max_residual(*rows[-1][1:]) <= tol:
            # Totals and excesses are updated incrementally and drift from
            # the flows; re-derive them so the stop agrees with the report.
            rows[-1][1:] = kernel.derive()[1:]

    heights, congestions, multipliers, used, unused = kernel.report()
    # The kernel left flows >= 0 (or NaN) and slacks in [0, caps].
    pf = PseudoFlow._adopt(kernel.flows, kernel.slacks)
    if math.isnan(used) or math.isnan(unused):
        # Which NaN numpy's max returns (sign, payload) depends on its
        # vector path; take the report as stability_report takes it.
        report = stability_report(inst, pf)
    else:
        objective = _integral_objective(congestions, kernel.excesses)
        report = StabilityReport(heights, congestions, used, unused, multipliers, objective)
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

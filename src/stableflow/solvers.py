"""Solvers that drive a pseudo-flow to stability.

Both solvers minimize the slack-form objective (a convex box-constrained
quadratic: flows >= 0, slacks in [0, capacity]) and stop when the stability
residuals fall below the configured tolerance:

* PGD: projected gradient descent with Armijo backtracking from step 1.
* COORDINATE: deterministic Gauss-Seidel sweeps; per arc, the slack is set
  to its exact minimizer, then each commodity's flow on the arc takes its
  exact single-coordinate minimizer (the restricted objective is a parabola
  with curvature 3: one unit from the arc term and one from each endpoint's
  excess term).

Identity profiles only; the slack-form rewrite does not exist for general
profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import _kernel
from .model import Instance
from .pseudoflow import (
    IDENTITY_PROFILES,
    ObjectiveForm,
    Profiles,
    PseudoFlow,
    StabilityReport,
    UnsupportedProfilesError,
    _arc_arrays,
    _excess_matrix,
    _slack_objective,
    _stability_residuals,
    default_use_threshold,
    gradient,
    stability_report,
)


class Method(Enum):
    PGD = "pgd"
    COORDINATE = "coordinate"


class Init(Enum):
    ZERO = "zero"
    RANDOM = "random"


@dataclass(frozen=True)
class SolverConfig:
    """Solver selection and stopping control.

    ``tol`` bounds both stability residuals at convergence. ``armijo_beta``
    and ``armijo_sigma`` are the backtracking shrink factor and sufficient
    decrease fraction for PGD.
    """

    method: Method = Method.COORDINATE
    tol: float = 1e-8
    max_iters: int = 100_000
    seed: int = 0
    init: Init = Init.ZERO
    armijo_beta: float = 0.5
    armijo_sigma: float = 1e-4

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.armijo_beta < 1:
            raise ValueError(f"armijo_beta must be in (0, 1), got {self.armijo_beta}")
        if not 0 < self.armijo_sigma < 1:
            raise ValueError(f"armijo_sigma must be in (0, 1), got {self.armijo_sigma}")


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


def _require_identity(profiles: Profiles) -> None:
    if not profiles.is_identity:
        raise UnsupportedProfilesError(
            "solvers require identity profiles; evaluate general profiles "
            "through the integral-form objective instead"
        )


def _initial_state(
    inst: Instance, cfg: SolverConfig, warm_start: PseudoFlow | None
) -> tuple[np.ndarray, np.ndarray]:
    caps = _arc_arrays(inst)[2]
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
    return flows, _optimal_slacks(flows.sum(axis=0), caps)


def _finish(
    inst: Instance,
    flows: np.ndarray,
    caps: np.ndarray,
    iterations: int,
    converged: bool,
    trace: list[TraceRow],
    cfg: SolverConfig,
) -> SolveResult:
    # Final exact slack refresh; leaves flows (hence residuals) untouched.
    pf = PseudoFlow(np.maximum(flows, 0.0), _optimal_slacks(flows.sum(axis=0), caps))
    report = stability_report(inst, pf, IDENTITY_PROFILES)
    return SolveResult(pf, report, iterations, converged, trace, cfg)


def solve(
    inst: Instance,
    cfg: SolverConfig | None = None,
    profiles: Profiles | None = None,
    warm_start: PseudoFlow | None = None,
) -> SolveResult:
    """Run the solver selected by ``cfg.method``."""
    cfg = cfg or SolverConfig()
    if cfg.method is Method.PGD:
        return solve_pgd(inst, cfg, profiles, warm_start)
    return solve_coordinate(inst, cfg, profiles, warm_start)


def solve_pgd(
    inst: Instance,
    cfg: SolverConfig | None = None,
    profiles: Profiles | None = None,
    warm_start: PseudoFlow | None = None,
) -> SolveResult:
    """Projected gradient descent with Armijo backtracking."""
    cfg = cfg or SolverConfig(method=Method.PGD)
    profiles = profiles or IDENTITY_PROFILES
    _require_identity(profiles)

    tails, heads, caps = _arc_arrays(inst)
    threshold = default_use_threshold(inst)
    flows, slacks = _initial_state(inst, cfg, warm_start)
    totals = flows.sum(axis=0)
    excesses = _excess_matrix(inst, flows)
    value = _slack_objective(totals, slacks, caps, excesses)

    used_res, unused_res, _ = _stability_residuals(
        flows, totals, excesses, caps, tails, heads, threshold, profiles
    )
    trace = [TraceRow(0, value, used_res, unused_res)]
    if max(used_res, unused_res) <= cfg.tol:
        return _finish(inst, flows, caps, 0, True, trace, cfg)

    converged = False
    iterations = 0
    for iteration in range(1, cfg.max_iters + 1):
        gap = totals + slacks - caps
        flow_grad = gap[None, :] + excesses[:, heads] - excesses[:, tails]
        slack_grad = gap

        step = 1.0
        accepted = False
        for _ in range(80):
            new_flows = np.maximum(flows - step * flow_grad, 0.0)
            new_slacks = np.clip(slacks - step * slack_grad, 0.0, caps)
            flow_move = new_flows - flows
            slack_move = new_slacks - slacks
            inner = float(np.sum(flow_grad * flow_move)) + float(
                np.sum(slack_grad * slack_move)
            )
            new_totals = new_flows.sum(axis=0)
            new_excesses = _excess_matrix(inst, new_flows)
            # The objective is quadratic, so the exact change along the move
            # is the trapezoid of the two endpoint gradients. Evaluating the
            # Armijo test on this change avoids the cancellation that sets in
            # when candidate objective values differ by less than one ulp.
            new_gap = new_totals + new_slacks - caps
            new_flow_grad = (
                new_gap[None, :] + new_excesses[:, heads] - new_excesses[:, tails]
            )
            change = 0.5 * (
                float(np.sum((flow_grad + new_flow_grad) * flow_move))
                + float(np.sum((slack_grad + new_gap) * slack_move))
            )
            if change <= cfg.armijo_sigma * inner and change < 0.0:
                accepted = True
                break
            step *= cfg.armijo_beta
        if not accepted:
            # No strictly decreasing step exists; the point is stationary to
            # working precision and the last residual check stands.
            break

        flows, slacks = new_flows, new_slacks
        totals, excesses = new_totals, new_excesses
        value += change
        iterations = iteration
        used_res, unused_res, _ = _stability_residuals(
            flows, totals, excesses, caps, tails, heads, threshold, profiles
        )
        trace.append(TraceRow(iteration, value, used_res, unused_res))
        if max(used_res, unused_res) <= cfg.tol:
            converged = True
            break

    return _finish(inst, flows, caps, iterations, converged, trace, cfg)


def _python_sweep(
    flows: np.ndarray,
    slacks: np.ndarray,
    totals: np.ndarray,
    excesses: np.ndarray,
    caps: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
) -> None:
    """One Gauss-Seidel sweep in place; the reference for ``_sweep.c``."""
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
            target = current - grad / 3.0
            new = target if target > 0.0 else 0.0
            delta = new - current
            if delta != 0.0:
                flows[k, a] = new
                total += delta
                excesses[k, tail] -= delta
                excesses[k, head] += delta
        totals[a] = total


def solve_coordinate(
    inst: Instance,
    cfg: SolverConfig | None = None,
    profiles: Profiles | None = None,
    warm_start: PseudoFlow | None = None,
) -> SolveResult:
    """Exact Gauss-Seidel coordinate descent.

    Sweep order is deterministic: arcs ascending, the arc's slack first,
    then commodities ascending. Each flow update moves to the exact
    minimizer max(0, flow - g/3) of its restricted parabola, where g is the
    current slack-form gradient component.

    Sweeps and the per-sweep residual check run in the compiled kernel
    (``_sweep.c``) when it can be built and loaded, and otherwise in
    :func:`_python_sweep` and numpy; both give bitwise the same result.
    """
    cfg = cfg or SolverConfig(method=Method.COORDINATE)
    profiles = profiles or IDENTITY_PROFILES
    _require_identity(profiles)

    tails, heads, caps = _arc_arrays(inst)
    threshold = default_use_threshold(inst)

    flows, slacks = _initial_state(inst, cfg, warm_start)
    totals = flows.sum(axis=0)
    excesses = _excess_matrix(inst, flows)

    used_res, unused_res, _ = _stability_residuals(
        flows, totals, excesses, caps, tails, heads, threshold, profiles
    )
    value = _slack_objective(totals, slacks, caps, excesses)
    trace = [TraceRow(0, value, used_res, unused_res)]
    if max(used_res, unused_res) <= cfg.tol:
        return _finish(inst, flows, caps, 0, True, trace, cfg)

    lib = _kernel.load()
    kernel = (
        None
        if lib is None
        else _kernel.Sweep(lib, flows, slacks, totals, excesses, caps, tails, heads, threshold)
    )
    converged = False
    sweeps = 0
    for sweep in range(1, cfg.max_iters + 1):
        if kernel is None:
            _python_sweep(flows, slacks, totals, excesses, caps, tails, heads)
            used_res, unused_res, _ = _stability_residuals(
                flows, totals, excesses, caps, tails, heads, threshold, profiles
            )
        else:
            kernel.sweep()
            used_res, unused_res = kernel.residuals()
        sweeps = sweep
        value = _slack_objective(totals, slacks, caps, excesses)
        trace.append(TraceRow(sweep, value, used_res, unused_res))
        if max(used_res, unused_res) <= cfg.tol:
            converged = True
            break

    return _finish(inst, flows, caps, sweeps, converged, trace, cfg)


def projected_gradient_residual(inst: Instance, pf: PseudoFlow) -> float:
    """Optimality residual of the slack-form problem at ``pf``.

    Infinity norm of x - project(x - grad) over the box (flows >= 0,
    slacks in [0, capacity]); zero exactly at minimizers.
    """
    caps = _arc_arrays(inst)[2]
    flow_grad, slack_grad = gradient(inst, pf, IDENTITY_PROFILES, ObjectiveForm.SLACK)
    flow_disp = pf.flows - np.maximum(pf.flows - flow_grad, 0.0)
    slack_disp = pf.slacks - np.clip(pf.slacks - slack_grad, 0.0, caps)
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

"""Python copies of the compiled kernel's work, which the tests compare
with ``src/stableflow/_sweep.c`` bit for bit.

- :func:`solve`: the driver loop of ``solvers.solve`` in numpy, one
  iteration per step: :func:`_python_sweep` or :func:`_pgd_step`, then past
  the gate :func:`_extrapolate`, with row 0, the re-check at a stop and the
  report from ``pseudoflow``.
- :func:`basic`: ``certify._basic`` through :func:`_crossover`.

Every sum of the loop is sequential, left to right, and excesses are
scattered one commodity at a time, as the kernel does both. The Python
sweep is about 100 times slower per update than the kernel.
"""

from __future__ import annotations

import math

import numpy as np

from stableflow import Instance, PseudoFlow, SolveResult, SolverConfig
from stableflow.pseudoflow import (
    _USE_FRACTION,
    _excess_matrix,
    _flow_scatter,
    _max_residual,
    _scaled_objective,
    _sequential_sum,
    _slack_objective,
    _stability_residuals,
    stability_report,
)
from stableflow.solvers import _MOMENTUM_GATE, _OMEGA, Method, _initial_state


def solve(
    inst: Instance, cfg: SolverConfig | None = None, warm_start: PseudoFlow | None = None
) -> SolveResult:
    """``solvers.solve`` without the kernel: bitwise the same result."""
    cfg = cfg or SolverConfig()
    tol = cfg.tol * inst.scale
    threshold = _USE_FRACTION * inst.scale
    tails, heads, caps = inst.tails, inst.heads, inst.capacities
    start = _initial_state(inst, cfg, warm_start)
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

    rows = [derive()]
    prev, theta = None, 1.0
    while _max_residual(*rows[-1][1:]) > tol and len(rows) - 1 < cfg.max_iters:
        if cfg.method is Method.PGD:
            _pgd_step(inst, flows, slacks, totals, excesses)
        else:
            _python_sweep(flows, slacks, totals, excesses, caps, tails, heads)
        if prev is not None:
            theta = _extrapolate(inst, flows, slacks, totals, excesses, prev, theta)
        elif len(rows) == _MOMENTUM_GATE:
            prev = flows.copy()
        rows.append(row())
        if _max_residual(*rows[-1][1:]) <= tol:
            # Totals and excesses drift from the flows; the stop re-derives them.
            rows[-1][1:] = derive()[1:]

    pf = PseudoFlow(np.maximum(flows, 0.0), _optimal_slacks(flows.sum(axis=0), caps))
    report = stability_report(inst, pf)
    return SolveResult(pf, report, len(rows) - 1, report.max_residual <= tol, rows, cfg)


def basic(inst: Instance, flows: np.ndarray) -> PseudoFlow:
    """``certify._basic`` without the kernel: a basic routing of ``flows``,
    a copy, and the slacks' optimum for it."""
    routed = _crossover(inst, flows, _USE_FRACTION * inst.scale)
    return PseudoFlow._adopt(routed, _optimal_slacks(routed.sum(axis=0), inst.capacities))


def _optimal_slacks(totals: np.ndarray, caps: np.ndarray) -> np.ndarray:
    return np.clip(caps - totals, 0.0, caps)


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




def _crossover(inst: Instance, flows: np.ndarray, threshold: float) -> np.ndarray:
    """A basic routing: a copy of ``flows`` in which each commodity's free
    arcs form a forest, with every flow at or below ``threshold`` zeroed.

    The reference for ``_sweep.c:sf_crossover``, bitwise; its comment
    gives the rules. Pushing flow around a cycle keeps every excess,
    and an arc the scan has passed is in the forest, or not free and never
    moved again, so the free arcs end as a forest: a cycle-free solution in
    the sense of the network simplex method (Ahuja-Magnanti-Orlin 1993). No
    arc is raised above its room, so no overload rises. An arc closes at
    most one cycle with a forest, so the forest's shape does not change the
    routing: this code walks whole root paths and re-roots at the head,
    where the C code walks both ends in turn and re-roots the shallower one.
    """
    tails, heads = inst.tails.tolist(), inst.heads.tolist()
    routed = np.array(flows, dtype=float)
    totals = routed.sum(axis=0)
    for k in range(inst.commodity_count):
        before = routed[k].copy()
        room = np.maximum(inst.capacities - (totals - before), before).tolist()
        flow = before.tolist()

        def free(a: int) -> bool:
            return threshold < flow[a] < room[a] - threshold

        parent = [-1] * inst.vertex_count  # v's parent in the forest, -1 at a root
        up = [0] * inst.vertex_count  # the arc joining v and parent[v]
        for a in range(inst.arc_count):
            if not flow[a] > threshold:
                continue
            at_room = not free(a)
            tail, head = tails[a], heads[a]
            to_tail, to_head = _root_path(parent, tail), _root_path(parent, head)
            if to_tail[-1] == to_head[-1]:
                while len(to_tail) > 1 and len(to_head) > 1 and to_tail[-2] == to_head[-2]:
                    to_tail.pop()
                    to_head.pop()
                # along: raised by a push that raises a, which runs tail to head.
                cycle = [(a, True)]
                cycle += [(up[v], heads[up[v]] == v) for v in to_tail[:-1]]
                cycle += [(up[v], tails[up[v]] == v) for v in to_head[:-1]]
                if not _push(cycle, flow, room, at_room):
                    continue
                for v in to_tail[:-1] + to_head[:-1]:
                    if not free(up[v]):
                        parent[v] = -1
            if free(a):
                _link(parent, up, a, tail, head)
        routed[k] = flow
        totals += routed[k] - before
    routed[routed <= threshold] = 0.0
    return routed


def _root_path(parent: list[int], v: int) -> list[int]:
    path = [v]
    while parent[v] >= 0:
        v = parent[v]
        path.append(v)
    return path


def _push(
    cycle: list[tuple[int, bool]], flow: list[float], room: list[float], at_room: bool
) -> bool:
    """Pushes flow around ``cycle``, (arc, along) pairs, as far as it goes.

    One way raises the along arcs and lowers the others; the other way the
    reverse. A way's bottleneck is its least amount: the flow of an arc it
    lowers, or the room left on an arc it raises. The push goes the way
    whose bottleneck empties an arc; if both or neither do, the way with the
    smaller bottleneck; on a tie, the way that lowers the entering arc. An
    entering arc ``at_room`` is only lowered, and only when that empties an
    arc; otherwise nothing moves and this returns False. Each arc whose
    amount is the bottleneck lands exactly on 0.0 or its room.
    """
    keys = []
    for raise_along in (False, True):
        lowered = min((flow[b] for b, along in cycle if along != raise_along), default=math.inf)
        raised = min(
            (room[b] - flow[b] for b, along in cycle if along == raise_along), default=math.inf
        )
        keys.append((raised < lowered, raised if raised < lowered else lowered))
    if at_room and keys[0][0]:
        return False
    raise_along = not at_room and keys[1] < keys[0]
    delta = keys[raise_along][1]
    for b, along in cycle:
        if along == raise_along:
            flow[b] = room[b] if room[b] - flow[b] == delta else flow[b] + delta
        else:
            flow[b] = 0.0 if flow[b] == delta else flow[b] - delta
    return True


def _link(parent: list[int], up: list[int], a: int, tail: int, head: int) -> None:
    """Joins head's tree to tail's by arc ``a``, re-rooting it at head."""
    v, to, arc = head, tail, a
    while v >= 0:
        next_v, next_arc = parent[v], up[v]
        parent[v], up[v] = to, arc
        v, to, arc = next_v, v, next_arc

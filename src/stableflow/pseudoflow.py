"""Pseudo-flow state and the congestion / height calculus built on it.

A pseudo-flow assigns a nonnegative flow to every (commodity, arc) pair with
no conservation or capacity requirement, plus one box-constrained slack per
arc. Two derived quantities drive everything else:

* the excess of a commodity at a vertex: inflow minus outflow, with the
  commodity's demand injected at its source and withdrawn at its sink;
* the congestion of an arc: zero while total flow is within capacity, then
  the overload above it.

The height of a commodity at a vertex is its excess there. This module
evaluates the convex objective that penalizes congestion and imbalance, its
gradient, and the stability residuals that characterize a minimizer: on arcs
carrying a commodity the height drop across the arc equals the congestion,
and on every arc it is at most the congestion. A state where both residuals
vanish together with the objective is a feasible flow; a nonzero stable
state certifies that no feasible flow exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .model import Instance


class FlowDumpError(ValueError):
    """Malformed or inconsistent flow dump text."""


class ObjectiveForm(Enum):
    """How the objective is evaluated.

    INTEGRAL evaluates the exact penalties from the flows alone: half the
    squared overload of each arc plus half the squared excess of each
    (commodity, vertex). SLACK replaces the overload term with half the
    square of (flow total + slack - capacity) using the stored slacks, which
    makes the whole objective a box-constrained quadratic.
    """

    INTEGRAL = "integral"
    SLACK = "slack"


@dataclass(eq=False)
class PseudoFlow:
    """Dense per-commodity arc flows plus per-arc slacks.

    ``flows`` has shape (commodities, arcs) and must be nonnegative;
    ``slacks`` has shape (arcs,) and must lie in [0, capacity] for the
    owning instance (checked by :meth:`validate`).
    """

    flows: np.ndarray
    slacks: np.ndarray

    def __post_init__(self) -> None:
        self.flows = np.array(self.flows, dtype=float)
        self.slacks = np.array(self.slacks, dtype=float)
        if self.flows.ndim != 2 or self.slacks.ndim != 1:
            raise ValueError("flows must be 2-d (commodity, arc) and slacks 1-d (arc)")
        if self.flows.shape[1] != self.slacks.shape[0]:
            raise ValueError(
                f"flows cover {self.flows.shape[1]} arcs but slacks cover {self.slacks.shape[0]}"
            )
        if self.flows.size and float(self.flows.min()) < 0:
            raise ValueError("flows must be nonnegative")
        if self.slacks.size and float(self.slacks.min()) < 0:
            raise ValueError("slacks must be nonnegative")

    @classmethod
    def zeros(cls, inst: Instance) -> "PseudoFlow":
        """All-zero flows with slacks filling each arc's capacity."""
        return cls(np.zeros((inst.commodity_count, inst.arc_count)), inst.capacities)

    def validate(self, inst: Instance) -> None:
        """Check dimensions against ``inst``, finite flows and slacks in [0, capacity].

        Construction lets NaN through (``NaN < 0`` is false) and allows
        ``inf``, so a state built from overflowed solver arrays still
        exists; this is the gate a warm start must pass.
        """
        expected = (inst.commodity_count, inst.arc_count)
        if self.flows.shape != expected:
            raise ValueError(f"flows shape {self.flows.shape} does not match {expected}")
        if self.slacks.shape != expected[1:]:
            raise ValueError(f"slacks shape {self.slacks.shape} does not match {expected[1:]}")
        if not np.isfinite(self.flows).all():
            raise ValueError("flows must be finite")
        if not (self.slacks <= inst.capacities).all():
            raise ValueError("slacks exceed arc capacities or are NaN")
        if not (self.slacks >= 0).all():
            raise ValueError("slacks must be nonnegative")

    @classmethod
    def _adopt(cls, flows: np.ndarray, slacks: np.ndarray) -> "PseudoFlow":
        """A pseudo-flow holding ``flows`` and ``slacks`` themselves.

        For float arrays the caller hands over that already meet the
        construction checks: no copy, and no check.
        """
        pf = cls.__new__(cls)
        pf.flows, pf.slacks = flows, slacks
        return pf

    def copy(self) -> "PseudoFlow":
        return PseudoFlow(self.flows.copy(), self.slacks.copy())

    def arc_totals(self) -> np.ndarray:
        """Per-arc flow summed over commodities."""
        return self.flows.sum(axis=0)


class StabilityReport(NamedTuple):
    """Stability diagnostics of a pseudo-flow.

    heights[v, k] is the height of vertex v for commodity k; congestions[a]
    the congestion of arc a. used_arc_residual is the largest absolute gap
    between height drop and congestion over arcs carrying a commodity;
    unused_arc_residual the largest positive gap over all (commodity, arc)
    pairs. implied_multipliers[k, a] is the nonnegativity multiplier implied
    by stationarity (congestion minus height drop); objective is the
    integral-form objective value.
    """

    heights: np.ndarray
    congestions: np.ndarray
    used_arc_residual: float
    unused_arc_residual: float
    implied_multipliers: np.ndarray
    objective: float

    @property
    def max_residual(self) -> float:
        return _max_residual(self.used_arc_residual, self.unused_arc_residual)


# An arc flow counts as used above this fraction of ``Instance.scale``.
_USE_FRACTION = 1e-9


def _max_residual(used: float, unused: float) -> float:
    """The larger of two residuals, NaN when either is NaN.

    Python's ``max`` keeps its first argument when the second is NaN, which
    would read a NaN state as stable.
    """
    return math.nan if math.isnan(used) or math.isnan(unused) else max(used, unused)


class FeasibilityCheck(NamedTuple):
    ok: bool
    max_capacity_violation: float
    max_conservation_violation: float
    min_flow: float


def _excess_matrix(inst: Instance, flows: np.ndarray) -> np.ndarray:
    """(K, V) excesses: demand injection + inflow - outflow, per commodity.

    Scatters each commodity's flows onto the arcs' heads and tails: O(K·A)
    work, and no (A, V) incidence matrix.
    """
    if flows.shape != (inst.commodity_count, inst.arc_count):
        raise ValueError(
            f"flows shape {flows.shape} does not match "
            f"{(inst.commodity_count, inst.arc_count)}"
        )
    return inst.injection + _flow_scatter(inst, flows)


def _flow_scatter(inst: Instance, flows: np.ndarray) -> np.ndarray:
    """(K, V) inflow - outflow of (K, A) flows, one commodity at a time, as
    ``_sweep.c:scatter``: each a bincount started at 0.0, arcs in order."""
    heads, tails, n_vertices = inst.heads, inst.tails, inst.vertex_count
    scatter = np.empty((len(flows), n_vertices))
    for k, flow in enumerate(flows):
        scatter[k] = np.bincount(heads, flow, n_vertices) - np.bincount(tails, flow, n_vertices)
    return scatter


def excess(inst: Instance, pf: PseudoFlow, vertex: int, commodity: int) -> float:
    """Excess of one commodity at one vertex.

    Inflow minus outflow of the commodity at the vertex, plus its demand if
    the vertex is the commodity's source and minus its demand if it is the
    sink. Zero everywhere exactly when the flow satisfies conservation.
    """
    if not 0 <= vertex < inst.vertex_count:
        raise ValueError(f"vertex {vertex} out of range")
    if not 0 <= commodity < inst.commodity_count:
        raise ValueError(f"commodity {commodity} out of range")
    return float(_excess_matrix(inst, pf.flows)[commodity, vertex])


def congestion(flow_total: float, capacity: float) -> float:
    """Congestion of an arc: 0 up to capacity, the overload above it."""
    overload = flow_total - capacity
    if overload <= 0:  # not ``max(0, ...)``: NaN stays NaN
        return 0.0
    return float(overload)


def _integral_objective(congestions: np.ndarray, excesses: np.ndarray) -> float:
    # ndarray.sum is np.sum's reduction without its Python-level dispatch.
    return 0.5 * float((congestions * congestions).sum()) + 0.5 * float(
        (excesses * excesses).sum()
    )


def _slack_objective(
    totals: np.ndarray, slacks: np.ndarray, caps: np.ndarray, excesses: np.ndarray
) -> float:
    gap = totals + slacks - caps
    return 0.5 * _sequential_sum(gap * gap) + 0.5 * _sequential_sum(excesses * excesses)


def _scaled_objective(gaps: np.ndarray, excesses: np.ndarray, scale: float) -> float:
    """0.5 * sum((gap/s)**2) + 0.5 * sum((excess/s)**2): the objective in units of s**2.

    ``s`` is ``Instance.scale``, a power of two, so each division is exact.
    Raw, the objective overflows to inf near demands of 1e200 and underflows
    to 0 below 1e-154. Each sum is the loop ``_sweep.c`` runs, over Python
    floats: on desk-sized arrays numpy's per-call cost would be most of the
    time ``classify`` takes.
    """
    return 0.5 * _scaled_sum_of_squares(gaps, scale) + 0.5 * _scaled_sum_of_squares(
        excesses, scale
    )


def _scaled_sum_of_squares(values: np.ndarray, scale: float) -> float:
    total = 0.0
    for value in values.ravel().tolist():
        value /= scale
        total += value * value
    return total


def _sequential_sum(values: np.ndarray) -> float:
    """Sum of ``values`` in C order, added left to right, as ``_sweep.c`` sums."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def objective(
    inst: Instance, pf: PseudoFlow, form: ObjectiveForm = ObjectiveForm.INTEGRAL
) -> float:
    """Convex congestion + imbalance objective of a pseudo-flow.

    The integral form is exact in the flows alone; the slack form uses the
    stored slacks and equals the integral form once slacks are optimal.
    """
    totals = pf.arc_totals()
    caps = inst.capacities
    excesses = _excess_matrix(inst, pf.flows)
    if form is ObjectiveForm.INTEGRAL:
        return _integral_objective(np.maximum(totals - caps, 0.0), excesses)
    return _slack_objective(totals, pf.slacks, caps, excesses)


def gradient(
    inst: Instance, pf: PseudoFlow, form: ObjectiveForm = ObjectiveForm.INTEGRAL
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Gradient of :func:`objective`.

    Integral form: returns the (commodity, arc) array whose (k, a) entry is
    congestion(a) + excess(head) - excess(tail). Slack form: returns (flow
    gradient, slack gradient) with the congestion replaced by the slack gap
    (flow total + slack - capacity).
    """
    tails, heads, caps = inst.tails, inst.heads, inst.capacities
    totals = pf.arc_totals()
    excesses = _excess_matrix(inst, pf.flows)
    if form is ObjectiveForm.INTEGRAL:
        psi = np.maximum(totals - caps, 0.0)
        return psi[None, :] + excesses[:, heads] - excesses[:, tails]
    gap = totals + pf.slacks - caps
    flow_grad = gap[None, :] + excesses[:, heads] - excesses[:, tails]
    return flow_grad, gap.copy()


def _stability_residuals(
    flows: np.ndarray,
    totals: np.ndarray,
    heights: np.ndarray,
    caps: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    use_threshold: float,
) -> tuple[float, float, np.ndarray]:
    """(used residual, unused residual, multipliers) from array state."""
    psi = np.maximum(totals - caps, 0.0)
    drop_minus_psi = heights[:, tails] - heights[:, heads] - psi[None, :]
    used = flows > use_threshold
    used_res = float(np.abs(drop_minus_psi[used]).max()) if used.any() else 0.0
    unused_res = float(np.maximum(drop_minus_psi, 0.0).max(initial=0.0))
    return used_res, unused_res, -drop_minus_psi


def stability_report(inst: Instance, pf: PseudoFlow) -> StabilityReport:
    """Evaluate the stability conditions of a pseudo-flow.

    An arc is used by a commodity when its flow exceeds 1e-9 times
    ``inst.scale``. Both residuals are zero exactly at a stable
    pseudo-flow; the implied multipliers are then zero on used arcs and
    nonnegative everywhere.
    """
    tails, heads, caps = inst.tails, inst.heads, inst.capacities
    totals = pf.arc_totals()
    excesses = _excess_matrix(inst, pf.flows)
    used_res, unused_res, multipliers = _stability_residuals(
        pf.flows, totals, excesses, caps, tails, heads, _USE_FRACTION * inst.scale
    )
    congestions = np.maximum(totals - caps, 0.0)
    return StabilityReport(
        heights=excesses.T.copy(),
        congestions=congestions,
        used_arc_residual=used_res,
        unused_arc_residual=unused_res,
        implied_multipliers=multipliers,
        objective=_integral_objective(congestions, excesses),
    )


def check_feasible(inst: Instance, flows: np.ndarray, tol: float) -> FeasibilityCheck:
    """Direct feasibility check of a per-commodity flow array.

    ok iff, within ``tol``: every arc total is at most its capacity, every
    commodity is conserved at every vertex (demand leaves the source and
    reaches the sink), and all flows are nonnegative.
    """
    flows = np.asarray(flows, dtype=float)
    conservation = float(np.abs(_excess_matrix(inst, flows)).max(initial=0.0))
    cap_violation = float(np.maximum(flows.sum(axis=0) - inst.capacities, 0.0).max(initial=0.0))
    min_flow = float(flows.min()) if flows.size else 0.0
    ok = cap_violation <= tol and conservation <= tol and min_flow >= -tol
    return FeasibilityCheck(ok, cap_violation, conservation, min_flow)


def write_flow_dump(
    inst: Instance,
    flows: np.ndarray,
    objective_value: float,
    used_residual: float,
    unused_residual: float,
) -> str:
    """Render a flow in the dump format.

    Header line ``s <objective> <used_residual> <unused_residual>`` followed
    by one ``f <k> <tail> <head> <arc_id> <value>`` line per (commodity,
    arc) pair with nonzero flow; ids are 1-based.
    """
    flows = np.asarray(flows, dtype=float)
    header = f"s {float(objective_value)!r} {float(used_residual)!r} {float(unused_residual)!r}"
    lines = [header]
    # One commodity row at a time: nonzero selection over the whole (K, A)
    # array at once holds index and value lists for every pair in memory.
    for k in range(inst.commodity_count):
        row = flows[k]
        # NaN counts as nonzero, -0.0 does not; row.nonzero() is the cheapest
        # way to list a row's nonzeros.
        arcs = row.nonzero()[0]
        for a, value in zip(arcs.tolist(), row[arcs].tolist()):
            tail, head, _ = inst.arcs[a]
            lines.append(f"f {k + 1} {tail + 1} {head + 1} {a + 1} {value!r}")
    return "\n".join(lines) + "\n"


def parse_flow_dump(inst: Instance, text: str) -> np.ndarray:
    """Parse a flow dump back into a (commodity, arc) array for ``inst``.

    Raises:
        FlowDumpError: On malformed lines, ids out of range, endpoint
            mismatches against the instance's arcs, or a second line for
            the same (commodity, arc) pair.
    """
    flows = np.zeros((inst.commodity_count, inst.arc_count))
    first_lines: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "s":  # solver header, informational only
            continue
        if tokens[0] != "f":
            raise FlowDumpError(f"line {lineno}: unknown line type {tokens[0]!r}")
        if len(tokens) != 6:
            raise FlowDumpError(
                f"line {lineno}: expected 'f <k> <tail> <head> <arc_id> <value>'"
            )
        try:
            k = int(tokens[1])
            tail = int(tokens[2])
            head = int(tokens[3])
            arc_id = int(tokens[4])
            value = float(tokens[5])
        except ValueError:
            raise FlowDumpError(f"line {lineno}: malformed numeric field") from None
        if not 1 <= k <= inst.commodity_count:
            raise FlowDumpError(
                f"line {lineno}: commodity {k} out of range [1, {inst.commodity_count}]"
            )
        if not 1 <= arc_id <= inst.arc_count:
            raise FlowDumpError(
                f"line {lineno}: arc id {arc_id} out of range [1, {inst.arc_count}]"
            )
        arc = inst.arcs[arc_id - 1]
        if (arc.tail + 1, arc.head + 1) != (tail, head):
            raise FlowDumpError(
                f"line {lineno}: arc {arc_id} endpoints ({tail}, {head}) do not match "
                f"the instance's ({arc.tail + 1}, {arc.head + 1})"
            )
        first = first_lines.setdefault((k, arc_id), lineno)
        if first != lineno:
            raise FlowDumpError(
                f"line {lineno}: commodity {k} on arc {arc_id} repeats line {first}"
            )
        flows[k - 1, arc_id - 1] = value
    return flows


__all__ = [
    "FeasibilityCheck",
    "FlowDumpError",
    "ObjectiveForm",
    "PseudoFlow",
    "StabilityReport",
    "check_feasible",
    "congestion",
    "excess",
    "gradient",
    "objective",
    "parse_flow_dump",
    "stability_report",
    "write_flow_dump",
]

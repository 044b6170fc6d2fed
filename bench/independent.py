"""Verdict checks that share no code with the solver.

Everything here reads the instance text and the rendered verdict report
itself and re-derives feasibility facts with plain numpy and heapq:

* a FEASIBLE report's flow dump must satisfy capacity, conservation and
  nonnegativity within an absolute tolerance;
* an INFEASIBLE certificate's congestions psi must pass the length-function
  test  sum_k d_k * dist_psi(s_k, t_k) > sum_a c_a * psi_a.  For any feasible
  flow x the right side is at least sum_a psi_a * x_a, which is at least the
  left side, so a positive margin proves that no feasible flow exists.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

import numpy as np

FLOW_TOL = 1e-6


class Network(NamedTuple):
    """Arrays read from instance text; vertex ids are 0-based."""

    vertex_count: int
    tails: np.ndarray
    heads: np.ndarray
    caps: np.ndarray
    sources: np.ndarray
    sinks: np.ndarray
    demands: np.ndarray


def read_network(text: str) -> Network:
    """Read the 'p mcf' / 'a' / 'c' instance text format."""
    vertex_count = 0
    arcs: list[tuple[int, int, float]] = []
    commodities: list[tuple[int, int, float]] = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "p":
            vertex_count = int(tokens[2])
        elif tokens[0] == "a":
            arcs.append((int(tokens[1]) - 1, int(tokens[2]) - 1, float(tokens[3])))
        elif tokens[0] == "c":
            commodities.append((int(tokens[1]) - 1, int(tokens[2]) - 1, float(tokens[3])))
        else:
            raise ValueError(f"unknown instance line {line!r}")
    a = np.array(arcs, dtype=float).reshape(-1, 3)
    c = np.array(commodities, dtype=float).reshape(-1, 3)
    return Network(
        vertex_count,
        a[:, 0].astype(int),
        a[:, 1].astype(int),
        a[:, 2],
        c[:, 0].astype(int),
        c[:, 1].astype(int),
        c[:, 2],
    )


def read_report(net: Network, text: str) -> tuple[str, np.ndarray]:
    """Verdict word and the flows (K, A) of the report's flow dump, zero if none."""
    kind = ""
    flows = np.zeros((len(net.demands), len(net.caps)))
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "verdict":
            kind = tokens[1]
        elif tokens[0] == "f":
            k, tail, head, arc = (int(t) - 1 for t in tokens[1:5])
            if (tail, head) != (int(net.tails[arc]), int(net.heads[arc])):
                raise ValueError(f"flow line {line!r} names the wrong endpoints")
            flows[k, arc] = float(tokens[5])
    return kind, flows


def flow_violation(net: Network, flows: np.ndarray, tol: float = FLOW_TOL) -> str | None:
    """Why ``flows`` is not a feasible routing within ``tol``, or None if it is."""
    over = float(np.max(flows.sum(axis=0) - net.caps, initial=0.0))
    if over > tol:
        return f"capacity exceeded by {over!r}"
    low = float(np.min(flows, initial=0.0))
    if low < -tol:
        return f"negative flow {low!r}"
    # Net outflow of commodity k at each vertex must be +d_k at its source,
    # -d_k at its sink and 0 elsewhere.
    k_count = len(net.demands)
    net_out = np.zeros((k_count, net.vertex_count))
    for k in range(k_count):
        np.add.at(net_out[k], net.tails, flows[k])
        np.subtract.at(net_out[k], net.heads, flows[k])
        net_out[k, net.sources[k]] -= net.demands[k]
        net_out[k, net.sinks[k]] += net.demands[k]
    imbalance = float(np.max(np.abs(net_out), initial=0.0))
    if imbalance > tol:
        return f"conservation violated by {imbalance!r}"
    return None


def _distances(
    out_arcs: list[list[int]], heads: np.ndarray, psi: np.ndarray, source: int
) -> list[float]:
    dist = [math.inf] * len(out_arcs)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for a in out_arcs[v]:
            w = int(heads[a])
            nd = d + float(psi[a])
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def length_margin(net: Network, psi: np.ndarray) -> float:
    """sum_k d_k * dist_psi(s_k, t_k) - sum_a c_a * psi_a.

    Positive proves infeasibility. Infinite when some commodity with
    positive demand cannot reach its sink at all.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != net.caps.shape or not np.all(np.isfinite(psi)) or np.any(psi < 0):
        raise ValueError("psi must be finite, nonnegative and one entry per arc")
    out_arcs: list[list[int]] = [[] for _ in range(net.vertex_count)]
    for a, tail in enumerate(net.tails):
        out_arcs[tail].append(a)
    by_source: dict[int, list[float]] = {}
    routed = 0.0
    for k, demand in enumerate(net.demands):
        if demand == 0.0:
            continue
        source = int(net.sources[k])
        if source not in by_source:
            by_source[source] = _distances(out_arcs, net.heads, psi, source)
        routed += float(demand) * by_source[source][int(net.sinks[k])]
    return routed - float(np.dot(net.caps, psi))


def certificate_holds(margin: float, net: Network, psi: np.ndarray) -> bool:
    """A margin above rounding noise of the capacity sum."""
    return margin > 1e-12 * max(1.0, float(np.dot(net.caps, psi)))

import numpy as np
import pytest

from stableflow import Instance
from stableflow.pseudoflow import _excess_matrix


@pytest.fixture
def one_arc():
    """Builder for the single-arc instance family used across suites."""

    def build(capacity: float, demand: float) -> Instance:
        return Instance(2, [(0, 1, capacity)], [(0, 1, demand)])

    return build


@pytest.fixture
def assert_cycles_cancelled():
    """Checker that ``after`` is ``before`` with each commodity's cycles cancelled.

    Each commodity's support above ``threshold`` is acyclic (a topological
    sort), no flow and no arc total rises, and every excess moves by at
    most a few ulps of the largest flow or the scale, whichever is larger.
    """

    def check(inst: Instance, before: np.ndarray, after: np.ndarray, threshold: float) -> None:
        for k in range(inst.commodity_count):
            indegree = [0] * inst.vertex_count
            out = [[] for _ in range(inst.vertex_count)]
            for a in np.flatnonzero(after[k] > threshold).tolist():
                out[inst.arcs[a].tail].append(inst.arcs[a].head)
                indegree[inst.arcs[a].head] += 1
            ready = [v for v in range(inst.vertex_count) if indegree[v] == 0]
            sorted_count = 0
            while ready:
                sorted_count += 1
                for w in out[ready.pop()]:
                    indegree[w] -= 1
                    if indegree[w] == 0:
                        ready.append(w)
            assert sorted_count == inst.vertex_count, f"commodity {k} keeps a cycle"
        assert (after <= before).all()
        assert (after.sum(axis=0) <= before.sum(axis=0)).all()
        change = np.abs(_excess_matrix(inst, after) - _excess_matrix(inst, before))
        ulp = np.spacing(max(float(before.max(initial=0.0)), inst.scale))
        assert float(change.max(initial=0.0)) <= 4 * ulp

    return check

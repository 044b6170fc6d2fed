import numpy as np
import pytest

from stableflow import Instance, _kernel
from stableflow.pseudoflow import _excess_matrix, check_feasible


@pytest.fixture
def fresh_load():
    """``_kernel.load`` uncached for the test, a failure too, and again after it."""
    _kernel._open.cache_clear()
    yield
    _kernel._open.cache_clear()


@pytest.fixture
def one_arc():
    """Builder for the single-arc instance family used across suites."""

    def build(capacity: float, demand: float) -> Instance:
        return Instance(2, [(0, 1, capacity)], [(0, 1, demand)])

    return build


@pytest.fixture
def assert_basic_routing():
    """Checker that ``after`` is a basic routing of ``before``.

    - Each commodity's free arcs form a forest, by a union-find. The rooms
      are rebuilt as the crossover builds them, each commodity against the
      totals the ones before it left; an arc counts as free only with a
      margin of (k + 1) thresholds, since the dust zeroed in the k
      commodities before it moves the rebuilt totals by at most k of them.
    - No flow lies in (0, threshold] or below 0.
    - No arc's overload rises beyond the rounding of its total, which K
      additions build: K ulps of the largest of its capacity and totals.
    - Each excess moves by at most the dust zeroed at its vertex, at most
      one threshold per incident arc left at 0.0, plus 8 ulps of the
      largest flow or the scale, whichever is larger.
    - A routing of a flow that passes ``check_feasible`` at 1e-6 * scale
      passes it too.
    """

    def check(inst: Instance, before: np.ndarray, after: np.ndarray, threshold: float) -> None:
        caps, tails, heads = inst.capacities, inst.tails, inst.heads
        totals = before.sum(axis=0)
        for k in range(inst.commodity_count):
            room = np.maximum(caps - (totals - before[k]), before[k])
            margin = (k + 1) * threshold
            free = (after[k] > threshold) & (after[k] < room - threshold - margin)
            root = list(range(inst.vertex_count))

            def find(v: int) -> int:
                while root[v] != v:
                    root[v] = root[root[v]]
                    v = root[v]
                return v

            for a in np.flatnonzero(free).tolist():
                ends = find(int(tails[a])), find(int(heads[a]))
                assert ends[0] != ends[1], f"commodity {k}'s free arcs close a cycle at arc {a}"
                root[ends[0]] = ends[1]
            totals += after[k] - before[k]
        assert not ((after < 0.0) | ((after > 0.0) & (after <= threshold))).any()
        before_totals, after_totals = before.sum(axis=0), after.sum(axis=0)
        rounding = inst.commodity_count * np.spacing(
            np.maximum(caps, np.maximum(before_totals, after_totals))
        )
        overload = np.maximum(after_totals - caps, 0.0)
        assert (overload <= np.maximum(before_totals - caps, 0.0) + rounding).all()
        ulp = np.spacing(max(float(before.max(initial=0.0)), inst.scale))
        change = np.abs(_excess_matrix(inst, after) - _excess_matrix(inst, before))
        zeroed = (after == 0.0).astype(float)
        for k in range(inst.commodity_count):
            dust = threshold * (
                np.bincount(heads, zeroed[k], inst.vertex_count)
                + np.bincount(tails, zeroed[k], inst.vertex_count)
            )
            assert (change[k] <= dust + 8 * ulp).all(), f"commodity {k}'s excess moved"
        tol = 1e-6 * inst.scale
        if check_feasible(inst, before, tol).ok:
            assert check_feasible(inst, after, tol).ok

    return check

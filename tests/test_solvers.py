import math
import shlex
import shutil
import sys
import sysconfig

import numpy as np
import pytest

from stableflow import (
    Init,
    Instance,
    Method,
    ObjectiveForm,
    PseudoFlow,
    SolverConfig,
    desk_scale_batch,
    generate_random_instance,
    objective,
    optimal_slack,
    projected_gradient_residual,
    solve,
    solve_coordinate,
    solve_pgd,
    stability_report,
)
from stableflow import _kernel, solvers
from stableflow.pseudoflow import (
    _excess_matrix,
    _slack_objective,
    _stability_residuals,
)

PGD = SolverConfig(method=Method.PGD)
COORD = SolverConfig(method=Method.COORDINATE)


def assert_trace_nonincreasing(trace):
    for prev, cur in zip(trace, trace[1:]):
        assert cur.objective <= prev.objective + 1e-12 * (1 + abs(prev.objective))


class TestOptimalSlack:
    def test_zero_flow_fills_capacity(self):
        assert optimal_slack(0.0, 1.0) == 1.0

    def test_over_capacity_clamps_to_zero(self):
        assert optimal_slack(2.0, 1.0) == 0.0

    def test_interior_stationary_point(self):
        assert optimal_slack(0.5, 1.0) == 0.5


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1e-9},
            {"max_iters": 0},
            {"tol": math.inf},
            {"tol": math.nan},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_solve_dispatches_on_method(self, one_arc):
        inst = one_arc(1.0, 1.0)
        assert solve(inst, PGD).config.method is Method.PGD
        assert solve(inst, COORD).config.method is Method.COORDINATE


class TestPgd:
    def test_routes_unit_demand(self, one_arc):
        inst = one_arc(1.0, 1.0)
        result = solve_pgd(inst)
        assert result.converged
        assert result.flow.flows[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert result.report.objective <= 1e-12
        assert result.report.max_residual <= result.config.tol

    def test_one_arc_overloaded_fixed_point(self, one_arc):
        inst = one_arc(1.0, 2.0)
        result = solve_pgd(inst)
        assert result.converged
        assert result.report.objective == pytest.approx(1 / 3, abs=1e-8)
        assert result.flow.flows[0, 0] == pytest.approx(5 / 3, abs=1e-6)

    def test_zero_demand_converges_immediately(self):
        inst = Instance(3, [(0, 1, 1.0), (1, 2, 2.0)], [])
        result = solve_pgd(inst)
        assert result.converged
        assert result.iterations == 0
        assert np.all(result.flow.flows == 0.0)
        assert result.report.objective == 0.0


def _zero_state(inst):
    """(flows, slacks, totals, excesses) of the zero flow, slacks at capacity."""
    flows = np.zeros((inst.commodity_count, inst.arc_count))
    return [flows, inst.capacities.copy(), flows.sum(axis=0), _excess_matrix(inst, flows)]


class TestCoordinate:
    def test_first_sweep_hand_simulation(self, one_arc):
        # Plain Gauss-Seidel, omega = 1. From zero state: slack fills
        # capacity, then the flow coordinate moves to max(0, 0 - (-2)/3) = 2/3.
        inst = one_arc(1.0, 1.0)
        caps, tails, heads = inst.capacities, inst.tails, inst.heads
        state = _zero_state(inst)
        before = _slack_objective(state[2], state[1], caps, state[3])
        solvers._python_sweep(*state, caps, tails, heads, omega=1.0)
        flows, slacks, totals, excesses = state
        assert flows[0, 0] == pytest.approx(2 / 3, abs=1e-15)
        assert _slack_objective(totals, slacks, caps, excesses) < before
        residuals = _stability_residuals(flows, totals, excesses, caps, tails, heads, 0.0)
        assert max(residuals[:2]) > SolverConfig().tol

    def test_first_sweep_over_relaxed(self, one_arc):
        # The default omega = 1.5 overshoots the coordinate minimizer 2/3 to
        # max(0, 0 - 1.5 * (-2/3)) = 1.0, which routes the whole demand.
        inst = one_arc(1.0, 1.0)
        result = solve_coordinate(inst, SolverConfig(max_iters=1))
        assert solvers._OMEGA == 1.5
        assert result.iterations == 1
        assert result.converged
        assert result.flow.flows[0, 0] == 1.0
        assert result.trace[1].objective < result.trace[0].objective

    def test_one_arc_overloaded_fixed_point(self, one_arc):
        inst = one_arc(1.0, 2.0)
        result = solve_coordinate(inst)
        assert result.converged
        assert result.report.objective == pytest.approx(1 / 3, abs=1e-8)
        assert result.flow.flows[0, 0] == pytest.approx(5 / 3, abs=1e-6)

    def test_already_stable_warm_start(self, one_arc):
        inst = one_arc(1.0, 2.0)
        first = solve_coordinate(inst)
        again = solve_coordinate(inst, warm_start=first.flow)
        assert again.converged
        assert again.iterations == 0
        assert np.array_equal(again.flow.flows, first.flow.flows)


@pytest.fixture(scope="module")
def batch():
    return desk_scale_batch(15, seed=2)


@pytest.fixture(scope="module")
def coord_results(batch):
    return [solve_coordinate(inst) for inst in batch]


@pytest.fixture(scope="module")
def pgd_results(batch):
    return [solve_pgd(inst) for inst in batch]


class TestSolverProperties:
    def test_descent_both_solvers(self, coord_results, pgd_results):
        for result in coord_results + pgd_results:
            assert_trace_nonincreasing(result.trace)

    def test_converged_means_stable(self, batch, coord_results, pgd_results):
        for inst, result in zip(batch + batch, coord_results + pgd_results):
            assert result.converged
            assert result.report.max_residual <= result.config.tol * inst.scale

    def test_solver_agreement(self, coord_results, pgd_results):
        for rc, rp in zip(coord_results, pgd_results):
            assert abs(rc.report.objective - rp.report.objective) <= 1e-6

    def test_init_independence(self, batch, coord_results):
        for inst, base in zip(batch, coord_results):
            random_init = solve_coordinate(
                inst, SolverConfig(init=Init.RANDOM, seed=13)
            )
            assert random_init.converged
            assert abs(base.report.objective - random_init.report.objective) <= 1e-6

    def test_fixed_point_iff_stable(self, batch, coord_results):
        for inst, result in zip(batch, coord_results):
            resumed = solve_coordinate(inst, warm_start=result.flow)
            assert resumed.iterations == 0
            unstable = PseudoFlow.zeros(inst)
            if stability_report(inst, unstable).max_residual > 1e-8:
                moved = solve_coordinate(
                    inst, SolverConfig(max_iters=1), warm_start=unstable
                )
                assert not np.array_equal(moved.flow.flows, unstable.flows)

    def test_stability_matches_projected_residual(self, coord_results, pgd_results, batch):
        # The two optimality measures agree on which side of the tolerance
        # a state falls: both tiny at solver output, both large after a kick.
        rng = np.random.default_rng(31)
        for inst, result in zip(batch + batch, coord_results + pgd_results):
            tol = result.config.tol * inst.scale
            stable = result.report.max_residual <= tol
            projected = projected_gradient_residual(inst, result.flow) <= tol
            assert stable and projected
            kicked = result.flow.copy()
            kicked.flows += rng.uniform(0.5, 1.0, size=kicked.flows.shape)
            report = stability_report(inst, kicked)
            if inst.total_demand > 0:
                assert report.max_residual > tol
                assert projected_gradient_residual(inst, kicked) > tol

    def test_coordinate_curvature(self, batch):
        # Slack-form objective restricted to one coordinate is a parabola:
        # second difference 3 for flows, 1 for slacks.
        rng = np.random.default_rng(37)
        eps = 1e-3
        for inst in batch[:5]:
            caps = np.array([a.capacity for a in inst.arcs])
            flows = rng.uniform(1.0, 3.0, size=(inst.commodity_count, inst.arc_count))
            slacks = np.clip(rng.uniform(0.0, 1.0, size=inst.arc_count) * caps, eps, None)
            for k in range(inst.commodity_count):
                for a in range(inst.arc_count):
                    values = []
                    for delta in (-eps, 0.0, eps):
                        shifted = flows.copy()
                        shifted[k, a] += delta
                        values.append(
                            objective(
                                inst,
                                PseudoFlow(shifted, slacks),
                                form=ObjectiveForm.SLACK,
                            )
                        )
                    second = (values[0] - 2 * values[1] + values[2]) / eps**2
                    assert second == pytest.approx(3.0, rel=1e-6)
            for a in range(inst.arc_count):
                values = []
                for delta in (-eps, 0.0, eps):
                    shifted = slacks.copy()
                    shifted[a] += delta
                    values.append(
                        objective(
                            inst, PseudoFlow(flows, shifted), form=ObjectiveForm.SLACK
                        )
                    )
                second = (values[0] - 2 * values[1] + values[2]) / eps**2
                assert second == pytest.approx(1.0, rel=1e-6)


def test_solvers_scale_past_desk_size():
    # Well beyond what the oracle accepts; both solvers must still converge
    # to the same optimum.
    inst = generate_random_instance(50, 300, 5, (1, 8), (1, 6), seed=42, integer_values=True)
    coord = solve_coordinate(inst)
    pgd = solve_pgd(inst)
    assert coord.converged and pgd.converged
    assert abs(coord.report.objective - pgd.report.objective) <= 1e-6


@pytest.mark.parametrize("method", [Method.COORDINATE, Method.PGD])
@pytest.mark.parametrize("residuals", [(1.0, math.nan), (math.nan, 1.0)])
def test_nan_residual_stops_at_once(one_arc, monkeypatch, method, residuals):
    # Python's max(1.0, nan) is 1.0: a NaN in the second slot used to read
    # as a finite residual and the loop ran on to max_iters.
    monkeypatch.setattr(_kernel, "load", lambda: None)
    monkeypatch.setattr(solvers, "_stability_residuals", lambda *args: (*residuals, None))
    result = solve(one_arc(1.0, 2.0), SolverConfig(method=method, max_iters=50))
    assert result.iterations == 0 and len(result.trace) == 1
    assert not result.converged


class TestTrace:
    def test_trace_rows_and_csv(self, one_arc):
        result = solve_coordinate(one_arc(1.0, 2.0))
        assert [row.iteration for row in result.trace] == list(
            range(result.iterations + 1)
        )
        csv = result.trace_csv()
        lines = csv.splitlines()
        assert lines[0] == "iteration,objective,used_residual,unused_residual"
        assert len(lines) == len(result.trace) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == result.trace[0].objective

    def test_objective_trace_pairs(self, one_arc):
        result = solve_pgd(one_arc(1.0, 1.0))
        pairs = result.objective_trace
        assert pairs[0][0] == 0
        assert [p[1] for p in pairs] == [row.objective for row in result.trace]


# --- Compiled sweep kernel against the Python reference loop ---


def _tight_instance(seed):
    # The benchmark's tight family: integer caps 1-3, demands 2-8.
    rng = np.random.default_rng(seed)
    return generate_random_instance(
        int(rng.integers(20, 51)),
        int(rng.integers(60, 301)),
        int(rng.integers(2, 6)),
        (1.0, 3.0),
        (2.0, 8.0),
        seed=int(rng.integers(0, 2**31)),
        integer_values=True,
    )


def _python_only_solve(inst, cfg, warm_start=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: None)
        return solve_coordinate(inst, cfg, warm_start=warm_start)


def assert_bitwise_same(compiled, reference):
    assert compiled.flow.flows.tobytes() == reference.flow.flows.tobytes()
    assert compiled.flow.slacks.tobytes() == reference.flow.slacks.tobytes()
    assert compiled.iterations == reference.iterations
    assert compiled.converged == reference.converged
    assert compiled.trace == reference.trace
    assert compiled.trace_csv() == reference.trace_csv()


def _identity_cases():
    cases = [(f"desk{i}", inst, COORD) for i, inst in enumerate(desk_scale_batch(40, seed=11))]
    # Capped sweeps keep the Python side quick; every row up to the cap counts.
    cases += [(f"tight{s}", _tight_instance(s), SolverConfig(max_iters=40)) for s in range(3)]
    random_init = SolverConfig(init=Init.RANDOM, seed=5)
    cases += [(f"random{i}", inst, random_init) for i, inst in enumerate(desk_scale_batch(8, 3))]
    cases += [
        ("no-arcs", Instance(3, [], [(0, 2, 1.0)]), COORD),
        ("no-commodities", Instance(3, [(0, 1, 1.0), (1, 2, 2.0)], []), COORD),
        ("zero-demand", Instance(3, [(0, 1, 1.0)], [(0, 2, 0.0), (1, 2, 0.0)]), COORD),
        ("zero-capacity", Instance(3, [(0, 1, 0.0), (1, 2, 2.0)], [(0, 2, 2.0)]), COORD),
    ]
    return [pytest.param(inst, cfg, id=name) for name, inst, cfg in cases]


# Residuals are >= 0, so no row meets this tolerance and no run stops early.
NEVER_STABLE = -1.0


def _loop_sum_of_squares(values):
    total = 0.0
    for value in values:
        total += value * value
    return total


class TestCompiledKernel:
    @pytest.mark.parametrize("inst,cfg", _identity_cases())
    def test_matches_python_loop(self, inst, cfg):
        assert_bitwise_same(solve_coordinate(inst, cfg), _python_only_solve(inst, cfg))

    def test_warm_start_matches_python_loop(self):
        for inst in desk_scale_batch(10, seed=17) + [_tight_instance(7)]:
            start = _python_only_solve(inst, SolverConfig(max_iters=3)).flow
            cfg = SolverConfig(max_iters=60)
            assert_bitwise_same(
                solve_coordinate(inst, cfg, warm_start=start),
                _python_only_solve(inst, cfg, warm_start=start),
            )

    # (vertices, arcs, commodities). The objective sums A gap terms and K*V
    # excess terms left to right. The shapes run each count from none
    # through one term to thousands; from eight terms on, numpy's pairwise
    # order groups terms differently, and the explicit loop tells them apart.
    @pytest.mark.parametrize(
        "shape",
        [
            (5, 12, 3),
            (4, 0, 2),
            (4, 6, 0),
            (2, 1, 1),
            (6, 16, 20),
            (3, 130, 2),
            (67, 301, 3),
            (8200, 8200, 1),
        ],
    )
    def test_sweep_and_residuals_match_reference(self, shape):
        lib = _kernel.load()
        if lib is None:
            pytest.skip("no compiled kernel on this platform")
        n_vertices, n_arcs, n_commodities = shape
        rng = np.random.default_rng(sum(shape))
        tails = rng.integers(0, n_vertices, n_arcs)
        heads = (tails + rng.integers(1, n_vertices, n_arcs)) % n_vertices
        caps = rng.uniform(0.0, 3.0, n_arcs)
        flows = rng.uniform(0.0, 2.0, (n_commodities, n_arcs))
        flows[rng.random(flows.shape) < 0.3] = 0.0
        state = [
            flows,
            rng.uniform(0.0, 1.0, n_arcs) * caps,
            flows.sum(axis=0),
            rng.normal(0.0, 2.0, (n_commodities, n_vertices)),
        ]
        reference = [array.copy() for array in state]
        start = [array.copy() for array in state]
        kernel = _kernel.Sweep(lib, *state, caps, tails, heads, 0.5, solvers._OMEGA)
        rows = []
        for _ in range(3):
            ((objective, used, unused),) = kernel.run(NEVER_STABLE, 1)
            rows.append([objective, used, unused])
            solvers._python_sweep(*reference, caps, tails, heads)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(state, reference))
            flows_ref, slacks_ref, totals_ref, excesses_ref = reference
            assert objective == _slack_objective(totals_ref, slacks_ref, caps, excesses_ref)
            gaps = (totals_ref + slacks_ref - caps).tolist()
            excess_list = excesses_ref.ravel().tolist()
            assert objective == (
                0.5 * _loop_sum_of_squares(gaps) + 0.5 * _loop_sum_of_squares(excess_list)
            )
            expected = _stability_residuals(
                flows_ref, totals_ref, excesses_ref, caps, tails, heads, 0.5
            )[:2]
            assert (used, unused) == expected
            assert kernel.residuals() == expected
        # One call of three sweeps gives the same rows and state.
        segment = _kernel.Sweep(lib, *start, caps, tails, heads, 0.5, solvers._OMEGA)
        assert segment.run(NEVER_STABLE, 3) == rows
        assert all(a.tobytes() == b.tobytes() for a, b in zip(start, reference))


def _segment_cases():
    # max_iters 9 and 41 end partway through segments of 2 and 7; the
    # uncapped desk solves stop on a converged row inside a segment.
    desk = desk_scale_batch(6, seed=23)
    cases = [(f"desk{i}", inst, COORD) for i, inst in enumerate(desk)]
    cases += [(f"desk{i}-cap9", inst, SolverConfig(max_iters=9)) for i, inst in enumerate(desk)]
    cases += [(f"tight{s}-cap41", _tight_instance(s), SolverConfig(max_iters=41)) for s in (4, 5)]
    return [pytest.param(inst, cfg, id=name) for name, inst, cfg in cases]


class TestSegments:
    @pytest.mark.parametrize("inst,cfg", _segment_cases())
    @pytest.mark.parametrize("segment", [1, 2, 7])
    def test_segment_boundaries_match_python_loop(self, monkeypatch, segment, inst, cfg):
        monkeypatch.setattr(_kernel, "SEGMENT", segment)
        assert_bitwise_same(solve_coordinate(inst, cfg), _python_only_solve(inst, cfg))

    @pytest.mark.parametrize("segment", [7, _kernel.SEGMENT])
    def test_nan_residual_stops_inside_segment(self, monkeypatch, segment):
        # Five commodities of demand 1e308 overflow the arc totals in the
        # first sweep; the unused residual turns NaN at the second.
        monkeypatch.setattr(_kernel, "SEGMENT", segment)
        inst = Instance(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [(0, 2, 1e308)] * 5)
        cfg = SolverConfig(max_iters=50)
        with np.errstate(all="ignore"):
            compiled = solve_coordinate(inst, cfg)
            reference = _python_only_solve(inst, cfg)
        assert compiled.iterations == 2 and len(compiled.trace) == 3
        assert not any(math.isnan(v) for row in compiled.trace[:2] for v in row[2:])
        assert math.isnan(compiled.trace[2].unused_residual)
        assert not compiled.converged
        assert compiled.trace_csv() == reference.trace_csv()
        assert compiled.flow.flows.tobytes() == reference.flow.flows.tobytes()


@pytest.fixture
def fresh_load():
    _kernel.load.cache_clear()
    yield
    _kernel.load.cache_clear()


def _system_compiler():
    return shutil.which(shlex.split(sysconfig.get_config_var("CC") or "cc")[0])


class TestKernelLoading:
    @pytest.mark.parametrize(
        "failure", ["no-compiler", "compile-error", "cache-not-a-dir", "not-loadable"]
    )
    def test_loader_failure_falls_back(self, failure, monkeypatch, tmp_path, fresh_load):
        inst = _tight_instance(1)
        cfg = SolverConfig(max_iters=30)
        expected = solve_coordinate(inst, cfg)
        _kernel.load.cache_clear()
        monkeypatch.setattr(_kernel, "CACHE_DIR", str(tmp_path))
        if failure == "no-compiler":
            monkeypatch.setattr(_kernel, "_compiler", lambda: [str(tmp_path / "no-such-cc")])
        elif failure == "compile-error":
            monkeypatch.setattr(_kernel, "_compiler", lambda: [sys.executable, "-c", "exit(1)"])
        elif failure == "not-loadable":
            # A "compiler" that writes junk where the library should go.
            junk = "import sys; open(sys.argv[sys.argv.index('-o') + 1], 'wb').write(b'junk')"
            monkeypatch.setattr(_kernel, "_compiler", lambda: [sys.executable, "-c", junk])
        else:
            (tmp_path / "file").write_text("")
            monkeypatch.setattr(_kernel, "CACHE_DIR", str(tmp_path / "file" / "cache"))
        assert _kernel.load() is None
        assert_bitwise_same(solve_coordinate(inst, cfg), expected)

    def test_compiled_kernel_in_use_when_compiler_present(self, monkeypatch):
        if _system_compiler() is None:
            pytest.skip("no C compiler on PATH")
        assert _kernel.load() is not None

        def python_loop_called(*args):
            raise AssertionError("solve fell back to the Python loop")

        monkeypatch.setattr(solvers, "_python_sweep", python_loop_called)
        assert solve_coordinate(_tight_instance(2), SolverConfig(max_iters=5)).iterations == 5

    def test_build_is_keyed_and_atomic(self, monkeypatch, tmp_path, fresh_load):
        if _system_compiler() is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setattr(_kernel, "CACHE_DIR", str(tmp_path))
        assert _kernel.load() is not None
        (built,) = tmp_path.iterdir()  # no temporary file left behind
        assert built.name.startswith("_sweep-") and built.suffix == ".so"
        _kernel.load.cache_clear()
        monkeypatch.setattr(_kernel, "FLAGS", (*_kernel.FLAGS, "-DSTABLEFLOW_TEST_KEY"))
        assert _kernel.load() is not None
        assert len(list(tmp_path.iterdir())) == 2


class TestKernelArrayGuard:
    @staticmethod
    def arrays(n_vertices=4, n_arcs=5, n_commodities=3):
        return {
            "flows": np.zeros((n_commodities, n_arcs)),
            "slacks": np.zeros(n_arcs),
            "totals": np.zeros(n_arcs),
            "excesses": np.zeros((n_commodities, n_vertices)),
            "caps": np.ones(n_arcs),
            "tails": np.zeros(n_arcs, dtype=np.int64),
            "heads": np.ones(n_arcs, dtype=np.int64),
        }

    def test_valid_arrays_bind(self):
        lib = _kernel.load()
        if lib is None:
            pytest.skip("no compiled kernel on this platform")
        kernel = _kernel.Sweep(lib, **self.arrays(), use_threshold=0.0, omega=solvers._OMEGA)
        kernel.run(1e-8, 1)

    @pytest.mark.parametrize(
        "name,bad",
        [
            ("flows", lambda a: np.asfortranarray(a)),
            ("flows", lambda a: a.astype(np.float32)),
            ("slacks", lambda a: np.zeros(2 * a.size)[::2]),
            ("totals", lambda a: a[:-1]),
            ("excesses", lambda a: a.T.copy()),
            ("caps", lambda a: a.tolist()),
            ("tails", lambda a: a.astype(np.int32)),
            ("heads", lambda a: a.astype(np.float64)),
            ("heads", lambda a: a + 10),
            ("tails", lambda a: a - 1),
        ],
    )
    def test_bad_array_rejected(self, name, bad):
        lib = _kernel.load()
        if lib is None:
            pytest.skip("no compiled kernel on this platform")
        arrays = self.arrays()
        arrays[name] = bad(arrays[name])
        with pytest.raises(ValueError):
            _kernel.Sweep(lib, **arrays, use_threshold=0.0, omega=solvers._OMEGA)

    @pytest.mark.parametrize("n", [0, -1, _kernel.SEGMENT + 1])
    def test_run_length_outside_buffer_rejected(self, n):
        lib = _kernel.load()
        if lib is None:
            pytest.skip("no compiled kernel on this platform")
        kernel = _kernel.Sweep(lib, **self.arrays(), use_threshold=0.0, omega=solvers._OMEGA)
        with pytest.raises(ValueError, match="n must lie in"):
            kernel.run(1e-8, n)

    def test_read_only_output_rejected(self):
        lib = _kernel.load()
        if lib is None:
            pytest.skip("no compiled kernel on this platform")
        arrays = self.arrays()
        arrays["flows"].setflags(write=False)
        with pytest.raises(ValueError, match="writable"):
            _kernel.Sweep(lib, **arrays, use_threshold=0.0, omega=solvers._OMEGA)

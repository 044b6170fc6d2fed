import io

import numpy as np
import pytest

from stableflow import _kernel, parse_instance, serialize_instance, solve, write_flow_dump
from stableflow.cli import main

FEASIBLE = "p mcf 2 1 1\na 1 2 1.0\nc 1 2 1.0\n"
INFEASIBLE = "p mcf 2 1 1\na 1 2 1.0\nc 1 2 2.0\n"
CYCLIC = "p mcf 3 4 1\na 3 1 2.0\na 1 3 1.0\na 3 2 3.0\na 2 3 4.0\nc 2 3 4.0\n"
# The feasible instance with a Latin-1 comment line, which is not UTF-8.
NOT_UTF8 = b"# caf\xe9\n" + FEASIBLE.encode()


def assert_one_error_line(captured):
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.fixture
def instance_file(tmp_path):
    def write(text, name="instance.mcf"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestSolve:
    def test_feasible_exit_zero(self, instance_file, capsys):
        code = main(["solve", instance_file(FEASIBLE)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "verdict FEASIBLE"
        assert float(out.splitlines()[1].split()[1]) <= 1e-9

    def test_infeasible_exit_one(self, instance_file, capsys):
        code = main(["solve", instance_file(INFEASIBLE)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[0] == "verdict INFEASIBLE"
        assert float(out.splitlines()[1].split()[1]) == pytest.approx(1 / 3, abs=1e-6)

    def test_undecided_exit_two(self, instance_file, capsys):
        code = main(["solve", "--max-iters", "1", instance_file(INFEASIBLE)])
        assert code == 2
        assert capsys.readouterr().out.splitlines()[0] == "verdict UNDECIDED"

    def test_huge_demand_infeasible_not_crash(self, instance_file, capsys):
        # The raw objective overflows to inf; classify reads it in units of
        # scale², where a demand of 2e200 across a cut of 3 is plainly
        # infeasible.
        huge = "p mcf 3 3 2\na 1 2 1\na 2 3 1\na 1 3 1\nc 1 3 1e200\nc 1 3 1e200\n"
        with np.errstate(over="ignore"):
            code = main(["solve", "--max-iters", "50", instance_file(huge)])
        assert code == 1
        assert capsys.readouterr().out.splitlines()[0] == "verdict INFEASIBLE"

    def test_parse_error_exit_ten(self, instance_file, capsys):
        code = main(["solve", instance_file("p mcf 2 1 0\na 1 1 1.0\n")])
        err = capsys.readouterr().err
        assert code == 10
        assert "line 2" in err

    def test_missing_file_exit_ten(self, capsys):
        assert main(["solve", "/nonexistent/path.mcf"]) == 10

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(FEASIBLE))
        assert main(["solve", "-"]) == 0
        assert "verdict FEASIBLE" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p mcf 99999999999999999 0 1\nc 1 2 1\n", "line 1: vertex_count"),
            ("# c\np mcf 999999999999999999999999 0 1\nc 1 2 1\n", "line 2: vertex_count"),
            ("p mcf 99999999999999999 0 0\n", "the solve does not fit in memory"),
        ],
        ids=["parse-no-memory", "parse-beyond-numpy-shape", "solve-no-memory"],
    )
    def test_vertex_count_beyond_memory_exit_ten(self, instance_file, capsys, text, message):
        assert main(["solve", instance_file(text)]) == 10
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert message in captured.err

    def test_not_utf8_exit_ten(self, tmp_path, capsys):
        path = tmp_path / "binary.mcf"
        path.write_bytes(NOT_UTF8)
        assert main(["solve", str(path)]) == 10
        assert_one_error_line(capsys.readouterr())

    def test_not_utf8_stdin_exit_ten(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), "utf-8"))
        assert main(["solve", "-"]) == 10
        assert_one_error_line(capsys.readouterr())

    def test_pgd_method_flag(self, instance_file, capsys):
        code = main(["solve", "--method", "pgd", instance_file(INFEASIBLE)])
        assert code == 1
        assert "verdict INFEASIBLE" in capsys.readouterr().out

    def test_random_init_flag(self, instance_file, capsys):
        code = main(["solve", "--init", "random", "--seed", "5", instance_file(FEASIBLE)])
        assert code == 0
        assert "verdict FEASIBLE" in capsys.readouterr().out

    def test_trace_csv_written(self, instance_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        main(["solve", "--trace", str(trace), instance_file(INFEASIBLE)])
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,objective,used_residual,unused_residual"
        objectives = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_unwritable_trace_exit_ten(self, instance_file, tmp_path, capsys):
        # A feasible instance, so exit 1 (INFEASIBLE) cannot pass for the error.
        trace = tmp_path / "missing" / "trace.csv"
        code = main(["solve", "--trace", str(trace), instance_file(FEASIBLE)])
        captured = capsys.readouterr()
        assert code == 10
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not trace.parent.exists()

    def test_usage_error_exit_ten(self, capsys):
        assert main(["solve", "--method", "nope", "-"]) == 10

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tol", "0"],
            ["--tol", "-1"],
            ["--tol", "inf"],
            ["--tol", "nan"],
            ["--max-iters", "0"],
            ["--init", "random", "--seed", "-1"],
        ],
    )
    def test_invalid_solver_flag_exit_ten(self, instance_file, capsys, flags):
        # A feasible instance: without the check, --tol inf reads INFEASIBLE.
        instance = "p mcf 2 1 1\na 1 2 5.0\nc 1 2 1.0\n"
        code = main(["solve", *flags, instance_file(instance)])
        captured = capsys.readouterr()
        assert code == 10
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestCheck:
    def test_feasible_dump(self, instance_file, tmp_path, capsys):
        inst_path = instance_file(FEASIBLE)
        dump = tmp_path / "flow.dump"
        dump.write_text("s 0.0 0.0 0.0\nf 1 1 2 1 1.0\n", encoding="utf-8")
        code = main(["check", inst_path, "--flow", str(dump)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok true" in out

    def test_over_capacity_dump(self, instance_file, tmp_path, capsys):
        inst_path = instance_file(FEASIBLE)
        dump = tmp_path / "flow.dump"
        dump.write_text("f 1 1 2 1 2.0\n", encoding="utf-8")
        code = main(["check", inst_path, "--flow", str(dump)])
        out = capsys.readouterr().out
        assert code == 1
        assert "ok false" in out
        assert "max_capacity_violation 1.0" in out

    def test_missing_flow_file(self, instance_file, capsys):
        code = main(["check", instance_file(FEASIBLE), "--flow", "/nonexistent.dump"])
        assert code == 11

    def test_not_utf8_flow_file_exit_eleven(self, instance_file, tmp_path, capsys):
        dump = tmp_path / "binary.dump"
        dump.write_bytes(NOT_UTF8)
        assert main(["check", instance_file(FEASIBLE), "--flow", str(dump)]) == 11
        assert_one_error_line(capsys.readouterr())

    def test_not_utf8_instance_exit_ten(self, tmp_path, capsys):
        inst_path, dump = tmp_path / "binary.mcf", tmp_path / "flow.dump"
        inst_path.write_bytes(NOT_UTF8)
        dump.write_text("f 1 1 2 1 1.0\n", encoding="utf-8")
        assert main(["check", str(inst_path), "--flow", str(dump)]) == 10
        assert_one_error_line(capsys.readouterr())

    def test_mismatched_dump(self, instance_file, tmp_path, capsys):
        inst_path = instance_file(FEASIBLE)
        dump = tmp_path / "flow.dump"
        dump.write_text("f 1 1 2 7 1.0\n", encoding="utf-8")
        assert main(["check", inst_path, "--flow", str(dump)]) == 11

    def test_repeated_pair_rejected(self, instance_file, tmp_path, capsys):
        # The first line overloads the capacity-5 arc; the repeat would hide it.
        inst_path = instance_file("p mcf 2 1 1\na 1 2 5.0\nc 1 2 1.0\n")
        dump = tmp_path / "flow.dump"
        dump.write_text("f 1 1 2 1 9.0\nf 1 1 2 1 1.0\n", encoding="utf-8")
        assert main(["check", inst_path, "--flow", str(dump)]) == 11
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_invalid_tol_exit_ten(self, instance_file, tmp_path, capsys, tol):
        # An exact feasible dump: without the check, nan and -1 print
        # "ok false" and inf passes any dump.
        inst_path = instance_file("p mcf 2 1 1\na 1 2 5.0\nc 1 2 1.0\n")
        dump = tmp_path / "flow.dump"
        dump.write_text("f 1 1 2 1 1.0\n", encoding="utf-8")
        assert main(["check", inst_path, "--flow", str(dump), "--tol", tol]) == 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_solve_output_checks_clean(self, instance_file, tmp_path, capsys):
        # End to end: the dump printed for a FEASIBLE verdict passes check.
        inst_path = instance_file(FEASIBLE)
        assert main(["solve", inst_path]) == 0
        out = capsys.readouterr().out
        dump_lines = [ln for ln in out.splitlines() if ln[:2] in ("s ", "f ")]
        dump = tmp_path / "solved.dump"
        dump.write_text("\n".join(dump_lines) + "\n", encoding="utf-8")
        assert main(["check", inst_path, "--flow", str(dump)]) == 0

    def test_solve_dump_is_basic_routing(self, instance_file, tmp_path, capsys):
        # The solve routes this commodity around both 2-cycles; the dump is
        # a basic routing, without those loops, and still passes check.
        inst_path = instance_file(CYCLIC)
        assert main(["solve", inst_path]) == 0
        out = capsys.readouterr().out
        dump_lines = [ln for ln in out.splitlines() if ln[:2] in ("s ", "f ")]
        dump = tmp_path / "solved.dump"
        dump.write_text("\n".join(dump_lines) + "\n", encoding="utf-8")
        assert main(["check", inst_path, "--flow", str(dump)]) == 0
        inst = parse_instance(CYCLIC)
        solved = write_flow_dump(inst, solve(inst).flow.flows, 0.0, 0.0, 0.0)
        f_lines = sum(ln.startswith("f ") for ln in dump_lines)
        assert f_lines < sum(ln.startswith("f ") for ln in solved.splitlines())


class TestGenerate:
    ARGS = [
        "generate",
        "--vertices", "6",
        "--arcs", "10",
        "--commodities", "3",
        "--seed", "7",
    ]

    def test_output_parses(self, capsys):
        assert main(self.ARGS) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert inst.vertex_count == 6
        assert inst.arc_count == 10
        assert inst.commodity_count == 3

    def test_deterministic_output(self, capsys):
        main(self.ARGS)
        first = capsys.readouterr().out
        main(self.ARGS)
        second = capsys.readouterr().out
        assert first == second

    def test_too_few_vertices(self, capsys):
        code = main(["generate", "--vertices", "1", "--arcs", "0", "--commodities", "0"])
        assert code == 10

    def test_negative_seed_exit_ten(self, capsys):
        assert main([*self.ARGS[:-1], "-1"]) == 10
        assert_one_error_line(capsys.readouterr())

    def test_integer_flag(self, capsys):
        assert main(self.ARGS + ["--integer"]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert all(a.capacity == int(a.capacity) for a in inst.arcs)


class TestVerify:
    def test_random_batch_agrees(self, capsys):
        code = main(["verify", "--random", "12", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "disagreements 0" in out
        assert out.splitlines()[0] == "idx verdict oracle agree"

    def test_single_instances_agree(self, instance_file, capsys):
        assert main(["verify", instance_file(FEASIBLE)]) == 0
        assert "FEASIBLE feasible yes" in capsys.readouterr().out
        assert main(["verify", instance_file(INFEASIBLE, "inf.mcf")]) == 0
        assert "INFEASIBLE infeasible yes" in capsys.readouterr().out

    def test_oversized_instance_refused(self, instance_file, capsys):
        big = serialize_instance(
            parse_instance("p mcf 9 1 1\na 1 2 1.0\nc 1 2 1.0\n")
        )
        assert main(["verify", instance_file(big, "big.mcf")]) == 12

    def test_requires_exactly_one_input(self, instance_file, capsys):
        assert main(["verify"]) == 10
        assert main(["verify", instance_file(FEASIBLE), "--random", "5"]) == 10

    @pytest.mark.parametrize(
        "flags", [["--tol", "-1"], ["--tol", "nan"], ["--max-iters", "0"], ["--seed", "-1"]]
    )
    def test_invalid_solver_flag_exit_ten(self, capsys, flags):
        assert main(["verify", "--random", "2", *flags]) == 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 10


@pytest.mark.parametrize("command", ["solve", "check", "verify"])
def test_kernel_build_failure_exit_ten(
    command, instance_file, capsys, monkeypatch, tmp_path, fresh_load
):
    # solve and check parse in the kernel and verify solves in it; without
    # it each ends with one error line naming the compiler, not a traceback.
    path = instance_file(FEASIBLE)
    argv = {
        "solve": ["solve", path],
        "check": ["check", path, "--flow", instance_file("s 0 0 0\n", name="flow.dump")],
        "verify": ["verify", "--random", "1"],
    }[command]
    monkeypatch.setattr(_kernel, "CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(_kernel, "_compiler", lambda: [str(tmp_path / "no-such-cc")])
    assert main(argv) == 10
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "no-such-cc" in captured.err and "_sweep.c" in captured.err

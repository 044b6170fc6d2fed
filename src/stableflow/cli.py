"""Command-line front end.

Commands: solve (verdict + optional trace CSV), check (verify a flow dump
against an instance), generate (random instance to stdout), verify (solver
vs oracle agreement). Instance input is a file path or '-' for stdin.

Exit codes: 0 FEASIBLE / ok, 1 INFEASIBLE / check failed, 2 UNDECIDED,
10 usage or parse errors, 11 flow-dump errors, 12 oracle size refusal.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .certify import (
    OracleSizeError,
    VerdictKind,
    classify,
    desk_scale_batch,
    oracle_feasibility,
    render_verdict_report,
)
from .model import (
    GenerationError,
    InstanceError,
    generate_random_instance,
    parse_instance,
    serialize_instance,
)
from .pseudoflow import FlowDumpError, check_feasible, parse_flow_dump
from .solvers import Init, Method, SolverConfig, solve

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 10
EXIT_FLOW_DUMP = 11
EXIT_ORACLE_SIZE = 12

_VERDICT_EXIT = {
    VerdictKind.FEASIBLE: EXIT_FEASIBLE,
    VerdictKind.INFEASIBLE: EXIT_INFEASIBLE,
    VerdictKind.UNDECIDED: EXIT_UNDECIDED,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 10 instead of argparse's default 2
        raise _UsageError(message)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=["pgd", "coord"], default="coord")
    parser.add_argument("--tol", type=float, default=1e-8, help="relative to the largest demand")
    parser.add_argument("--max-iters", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--init", choices=["zero", "random"], default="zero")


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    try:
        return SolverConfig(
            method=Method.PGD if args.method == "pgd" else Method.COORDINATE,
            tol=args.tol,
            max_iters=args.max_iters,
            seed=args.seed,
            init=Init.ZERO if args.init == "zero" else Init.RANDOM,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="stableflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance and print the verdict")
    p_solve.add_argument("instance", nargs="?", default="-")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--trace", metavar="PATH", help="write convergence trace CSV")

    p_check = sub.add_parser("check", help="check a flow dump against an instance")
    p_check.add_argument("instance", nargs="?", default="-")
    p_check.add_argument("--flow", metavar="PATH", required=True)
    p_check.add_argument("--tol", type=float, default=1e-6)

    p_gen = sub.add_parser("generate", help="emit a random instance on stdout")
    p_gen.add_argument("--vertices", type=int, required=True)
    p_gen.add_argument("--arcs", type=int, required=True)
    p_gen.add_argument("--commodities", type=int, required=True)
    p_gen.add_argument("--cap-min", type=float, default=1.0)
    p_gen.add_argument("--cap-max", type=float, default=5.0)
    p_gen.add_argument("--demand-min", type=float, default=1.0)
    p_gen.add_argument("--demand-max", type=float, default=5.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--integer", action="store_true", help="integer capacities/demands")

    p_verify = sub.add_parser("verify", help="compare solver verdicts with the oracle")
    p_verify.add_argument("instance", nargs="?", default=None)
    p_verify.add_argument("--random", type=int, metavar="N", default=None)
    _add_solver_flags(p_verify)

    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _solver_config(args)
    try:
        inst = parse_instance(_read_input(args.instance))
    except (InstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = solve(inst, cfg)
    verdict = classify(inst, result)
    if args.trace:
        Path(args.trace).write_text(result.trace_csv(), encoding="utf-8")
    sys.stdout.write(
        render_verdict_report(
            inst, verdict, iterations=result.iterations, converged=result.converged
        )
    )
    return _VERDICT_EXIT[verdict.kind]


def _cmd_check(args: argparse.Namespace) -> int:
    if not 0 < args.tol < math.inf:
        raise _UsageError(f"tol must be positive and finite, got {args.tol}")
    try:
        inst = parse_instance(_read_input(args.instance))
    except (InstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        flows = parse_flow_dump(inst, Path(args.flow).read_text(encoding="utf-8"))
    except (FlowDumpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLOW_DUMP
    result = check_feasible(inst, flows, args.tol)
    print(f"ok {'true' if result.ok else 'false'}")
    print(f"max_capacity_violation {result.max_capacity_violation!r}")
    print(f"max_conservation_violation {result.max_conservation_violation!r}")
    print(f"min_flow {result.min_flow!r}")
    return EXIT_FEASIBLE if result.ok else EXIT_INFEASIBLE


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        inst = generate_random_instance(
            args.vertices,
            args.arcs,
            args.commodities,
            (args.cap_min, args.cap_max),
            (args.demand_min, args.demand_max),
            seed=args.seed,
            integer_values=args.integer,
        )
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(serialize_instance(inst))
    return EXIT_FEASIBLE


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _solver_config(args)
    if (args.instance is None) == (args.random is None):
        print("error: verify needs an instance path or --random N", file=sys.stderr)
        return EXIT_USAGE
    if args.random is not None:
        if args.random < 1:
            print("error: --random must be >= 1", file=sys.stderr)
            return EXIT_USAGE
        instances = desk_scale_batch(args.random, args.seed)
    else:
        try:
            instances = [parse_instance(_read_input(args.instance))]
        except (InstanceError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    disagreements = 0
    undecided = 0
    print("idx verdict oracle agree")
    for idx, inst in enumerate(instances, start=1):
        try:
            truth = oracle_feasibility(inst)
        except OracleSizeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ORACLE_SIZE
        verdict = classify(inst, solve(inst, cfg))
        oracle_word = "feasible" if truth else "infeasible"
        if verdict.kind is VerdictKind.UNDECIDED:
            undecided += 1
            agree = "undecided"
        elif (verdict.kind is VerdictKind.FEASIBLE) == truth:
            agree = "yes"
        else:
            disagreements += 1
            agree = "NO"
        print(f"{idx} {verdict.kind.value} {oracle_word} {agree}")
    decided = len(instances) - undecided
    print(
        f"summary instances {len(instances)} decided {decided} "
        f"undecided {undecided} disagreements {disagreements}"
    )
    return EXIT_FEASIBLE if disagreements == 0 else EXIT_INFEASIBLE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    handlers = {
        "solve": _cmd_solve,
        "check": _cmd_check,
        "generate": _cmd_generate,
        "verify": _cmd_verify,
    }
    try:
        args = parser.parse_args(argv)
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

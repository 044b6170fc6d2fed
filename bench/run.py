"""stableflow benchmark: one workload, one seed, one JSON line of metrics.

Run from the repository root:

    python3 bench/run.py --workload desk --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics from a run whose passes alternate
untraced and traced; the spans go to bench/out/. The last stdout line is
the JSON result; lines before it name the machine and every failed
instance with its seed. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"
SETUP_REPEATS = 7

# Fresh interpreter to ready: import plus the first solve and classify.
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import stableflow as sf
inst = sf.parse_instance("p mcf 2 1 1\\na 1 2 1\\nc 1 2 1\\n")
sf.classify(inst, sf.solve(inst))
"""


def setup_seconds(repeats: int) -> float:
    """Median wall time of fresh interpreters reaching a first verdict.

    One discarded run first, so byte-compiling the package is not counted.
    """
    samples = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC)], check=True, cwd=ROOT, timeout=60
        )
        if i:
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def machine() -> dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_nonnegative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stableflow" / "__init__.py").is_file():
        print(f"error: no stableflow sources under {SRC}", file=sys.stderr)
        return 2
    # Single-threaded BLAS before numpy is first imported, here and in children.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))

    setup_s = None if args.trace else setup_seconds(SETUP_REPEATS)
    run = harness.measure(workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        values = harness.per_layer(run)
        run.tracer.write_csv(OUT_DIR / f"spans-{workload.name}-{args.seed}.csv")
    else:
        values = {"setup_s": setup_s, **harness.end_to_end(run)}
    if set(values) != set(units):
        missing = sorted(set(units) ^ set(values))
        print(f"error: measured and BENCHMARK.json metrics differ: {missing}", file=sys.stderr)
        return 3

    records = run.warmup + run.records
    failures = run.failures
    print("machine " + json.dumps(machine()))
    print(
        f"workload {workload.name} seed {args.seed} instances {len(run.records)} "
        f"passes {len(run.passes)} corpus {workload.corpus} failed {len(failures)}"
    )
    for rec in failures:
        print(f"failure base_seed {rec.base_seed} pass {rec.pass_no} {rec.kind}: {rec.failure}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

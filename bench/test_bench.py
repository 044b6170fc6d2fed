"""Tests of the benchmark itself: its independent checks and a smoke run.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import independent
import run
import stableflow as sf

ROOT = Path(__file__).resolve().parent.parent


def _decide(inst: sf.Instance) -> tuple[str, harness.Decision]:
    text = sf.serialize_instance(inst)
    return text, harness.decide(text, sf.SolverConfig())


def test_corrupted_flow_fails_recheck():
    # Two parallel unit arcs carry a demand of 2 between vertices 0 and 1.
    text, decision = _decide(sf.Instance(2, [(0, 1, 1.0), (0, 1, 1.0)], [(0, 1, 2.0)]))
    assert decision.verdict.kind is sf.VerdictKind.FEASIBLE
    net = independent.read_network(text)
    kind, flows = independent.read_report(net, decision.report)
    assert kind == "FEASIBLE"
    assert independent.flow_violation(net, flows) is None

    over = flows.copy()
    over[0, 0] += 1e-3
    assert "capacity" in independent.flow_violation(net, over)
    short = flows.copy()
    short[0, 0] -= 1e-3
    assert "conservation" in independent.flow_violation(net, short)
    negative = flows.copy()
    negative[0, 0] = -1e-3
    assert "negative" in independent.flow_violation(net, negative)


def test_zeroed_psi_fails_length_check():
    # Demand 3 over a single arc of capacity 1.
    text, decision = _decide(sf.Instance(2, [(0, 1, 1.0)], [(0, 1, 3.0)]))
    assert decision.verdict.kind is sf.VerdictKind.INFEASIBLE
    net = independent.read_network(text)
    psi = decision.verdict.certificate.congestions
    margin = independent.length_margin(net, psi)
    assert independent.certificate_holds(margin, net, psi)
    assert margin == pytest.approx(2.0 * decision.verdict.certificate.objective, rel=1e-6)

    zero = np.zeros_like(psi)
    assert not independent.certificate_holds(independent.length_margin(net, zero), net, zero)


def test_relabelling_keeps_oracle_verdict():
    for seed in range(20):
        inst = sf.desk_scale_batch(1, seed)[0]
        moved = harness.relabel(inst, np.random.default_rng(seed))
        assert sf.oracle_feasibility(moved) == sf.oracle_feasibility(inst)


def _tiny_large(seed: int) -> sf.Instance:
    return sf.generate_random_instance(8, 20, 2, (1.0, 5.0), (1.0, 5.0), seed=seed)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_smoke_run_prints_every_metric(name, trace, monkeypatch, tmp_path, capsys):
    tiny = dataclasses.replace(harness.WORKLOADS[name], corpus=2)
    if name == "large":
        tiny = dataclasses.replace(tiny, make=_tiny_large, warmup=_tiny_large)
    monkeypatch.setitem(harness.WORKLOADS, name, tiny)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")

    args = ["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (5 if trace else 3)  # warm-up plus the passes
    if trace:
        assert result["metrics"]["trace.coverage_frac"]["value"] > 0.5
        assert (tmp_path / f"spans-{name}-5.csv").is_file()


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=skip)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""Workloads, the timed decide path, spans and metrics of the benchmark.

One instance is decided exactly as ``stableflow solve`` decides it:
parse_instance -> solve -> classify -> render_verdict_report, starting from
the instance text. Generation, the independent checks and the probes run
outside the timed region.

Each workload is a fixed corpus of instances drawn once from its family.
A run decides the whole corpus pass after pass while the next pass fits in
its time budget; ``wall_s`` is the median time of one pass. The run seed
renames the vertices of every instance in every pass, so the same seed
gives the same inputs and consecutive decisions never see equal instances
(the library caches per-instance arrays by value, in 128-entry caches, and
a CLI user never decides the same instance twice in one process). Renaming
leaves the arithmetic of both solvers unchanged, so which problems are
solved, and how much work they take, is fixed: run-to-run differences
measure the program and the machine, not the luck of the draw.
"""

from __future__ import annotations

import csv
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import independent
import stableflow as sf

CORPUS, WARMUP = 0, 1
LAYER_SPANS = (
    "model.parse_instance",
    "solvers.solve",
    "certify.classify",
    "certify.render_verdict_report",
)


def base_seed(stream: int, index: int) -> int:
    """Seed of corpus (or warm-up) instance ``index``; independent of the run seed."""
    return int(np.random.SeedSequence([stream, index]).generate_state(1)[0])


def relabel(inst: sf.Instance, rng: np.random.Generator) -> sf.Instance:
    """The same network with its vertex ids permuted; arc and commodity order kept."""
    vertex = rng.permutation(inst.vertex_count)
    return sf.Instance(
        inst.vertex_count,
        [(vertex[a.tail], vertex[a.head], a.capacity) for a in inst.arcs],
        [(vertex[c.source], vertex[c.sink], c.demand) for c in inst.commodities],
    )


def _desk(seed: int) -> sf.Instance:
    return sf.desk_scale_batch(1, seed)[0]


def _tight(seed: int) -> sf.Instance:
    rng = np.random.default_rng(seed)
    n_vertices = int(rng.integers(20, 51))
    n_arcs = int(rng.integers(60, 301))
    n_commodities = int(rng.integers(2, 6))
    return sf.generate_random_instance(
        n_vertices,
        n_arcs,
        n_commodities,
        (1.0, 3.0),
        (2.0, 8.0),
        seed=int(rng.integers(0, 2**31)),
        integer_values=True,
    )


def _large(seed: int) -> sf.Instance:
    return sf.generate_random_instance(300, 3000, 20, (1.0, 5.0), (1.0, 5.0), seed=seed)


def _large_warmup(seed: int) -> sf.Instance:
    # Same generator at a tenth of the size: warms every code path without
    # spending a full large solve outside the timed set.
    return sf.generate_random_instance(30, 300, 5, (1.0, 5.0), (1.0, 5.0), seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    method: sf.Method
    corpus: int  # instances per pass; wall_s is the time of one pass
    make: Callable[[int], sf.Instance]  # base seed -> instance
    warmup: Callable[[int], sf.Instance]

    @property
    def config(self) -> sf.SolverConfig:
        return sf.SolverConfig(method=self.method, tol=1e-8)


WORKLOADS = {
    "desk": Workload("desk", sf.Method.COORDINATE, 1000, _desk, _desk),
    "desk-pgd": Workload("desk-pgd", sf.Method.PGD, 200, _desk, _desk),
    "tight": Workload("tight", sf.Method.COORDINATE, 13, _tight, _tight),
    "large": Workload("large", sf.Method.COORDINATE, 1, _large, _large_warmup),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    instance: int  # ordinal of the decided instance in the run


class Tracer:
    """Spans around the benchmark's calls into each layer, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, instance: int) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, instance))
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx] = self.spans[idx]._replace(end=time.perf_counter())
        self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's."""
        totals: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        for span, children in zip(self.spans, child_time):
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start - children
        return totals

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent", "instance"])
            for idx, span in enumerate(self.spans):
                out.writerow(
                    [idx, span.name, repr(span.start), repr(span.end), span.parent, span.instance]
                )


class Decision(NamedTuple):
    seconds: float
    inst: sf.Instance
    result: sf.SolveResult
    verdict: sf.Verdict
    report: str


def decide(text: str, cfg: sf.SolverConfig) -> Decision:
    """The untraced path of ``stableflow solve`` on one instance text."""
    start = time.perf_counter()
    inst = sf.parse_instance(text)
    result = sf.solve(inst, cfg)
    verdict = sf.classify(inst, result)
    report = sf.render_verdict_report(
        inst, verdict, iterations=result.iterations, converged=result.converged
    )
    return Decision(time.perf_counter() - start, inst, result, verdict, report)


def decide_traced(text: str, cfg: sf.SolverConfig, tracer: Tracer, ordinal: int) -> Decision:
    """``decide`` with one span per layer under a root 'decide' span."""
    start = time.perf_counter()
    root = tracer.begin("decide", ordinal)
    span = tracer.begin("model.parse_instance", ordinal)
    inst = sf.parse_instance(text)
    tracer.end(span)
    span = tracer.begin("solvers.solve", ordinal)
    result = sf.solve(inst, cfg)
    tracer.end(span)
    span = tracer.begin("certify.classify", ordinal)
    verdict = sf.classify(inst, result)
    tracer.end(span)
    span = tracer.begin("certify.render_verdict_report", ordinal)
    report = sf.render_verdict_report(
        inst, verdict, iterations=result.iterations, converged=result.converged
    )
    tracer.end(span)
    tracer.end(root)
    return Decision(time.perf_counter() - start, inst, result, verdict, report)


@dataclass
class Record:
    """One decided instance: where it came from, its timing, counts and check."""

    base_seed: int  # corpus instance before relabelling
    pass_no: int  # vertices renamed by default_rng([run seed, pass_no, corpus index])
    decide_s: float
    kind: str
    sweeps: int = 0
    updates: int = 0
    converged: bool = False
    render_bytes: int = 0
    incidence_bytes: int = 0
    margin_ratio: float | None = None
    failure: str | None = None


def check(
    text: str, decision: Decision, tracer: Tracer | None, ordinal: int
) -> tuple[str | None, float | None]:
    """Independent checks of one decision: (failure or None, margin ratio)."""
    net = independent.read_network(text)
    kind, flows = independent.read_report(net, decision.report)
    verdict = decision.verdict
    if kind != verdict.kind.value:
        return f"report says {kind!r}, verdict is {verdict.kind.value}", None

    span = tracer.begin("certify.oracle_feasibility", ordinal) if tracer else -1
    try:
        truth: bool | None = sf.oracle_feasibility(decision.inst)
    except sf.OracleSizeError:
        truth = None  # beyond the oracle's size guideline: no ground truth
    if tracer:
        tracer.end(span)
    if truth is not None and kind != "UNDECIDED" and (kind == "FEASIBLE") != truth:
        return f"verdict {kind} but the oracle says {'feasible' if truth else 'infeasible'}", None

    if kind == "FEASIBLE":
        bad = independent.flow_violation(net, flows)
        return (f"flow re-check: {bad}" if bad else None), None
    if kind == "INFEASIBLE":
        psi = verdict.certificate.congestions
        margin = independent.length_margin(net, psi)
        if not independent.certificate_holds(margin, net, psi):
            return f"length check margin {margin!r} is not positive", None
        return None, margin / (2.0 * verdict.certificate.objective)
    return None, None


def probe(decision: Decision, tracer: Tracer, ordinal: int) -> None:
    """Time single public pseudoflow calls on the final state."""
    span = tracer.begin("pseudoflow.stability_report", ordinal)
    sf.stability_report(decision.inst, decision.result.flow)
    tracer.end(span)
    if decision.verdict.kind is sf.VerdictKind.FEASIBLE:
        span = tracer.begin("pseudoflow.check_feasible", ordinal)
        sf.check_feasible(decision.inst, decision.verdict.flow.flows, 1e-6)
        tracer.end(span)


def run_instance(
    text: str, cfg: sf.SolverConfig, tracer: Tracer | None, ordinal: int, base: int, pass_no: int
) -> Record:
    """Decide one instance text, then check it (and probe it when traced)."""
    try:
        if tracer is None:
            decision = decide(text, cfg)
        else:
            decision = decide_traced(text, cfg, tracer, ordinal)
        failure, ratio = check(text, decision, tracer, ordinal)
        if tracer is not None:
            probe(decision, tracer, ordinal)
    except Exception as exc:  # a crash counts as a failed operation, not a stop
        return Record(base, pass_no, 0.0, "ERROR", failure=repr(exc))
    inst, result = decision.inst, decision.result
    return Record(
        base_seed=base,
        pass_no=pass_no,
        decide_s=decision.seconds,
        kind=decision.verdict.kind.value,
        sweeps=result.iterations,
        updates=result.iterations * inst.arc_count * inst.commodity_count,
        converged=result.converged,
        render_bytes=len(decision.report.encode()),
        incidence_bytes=inst.arc_count * inst.vertex_count * 8,
        margin_ratio=ratio,
        failure=failure,
    )


@dataclass
class Run:
    """Everything one run measured."""

    workload: Workload
    passes: list[list[Record]] = field(default_factory=list)
    warmup: list[Record] = field(default_factory=list)
    tracer: Tracer = field(default_factory=Tracer)
    # ru_maxrss after the first pass: the library's per-instance caches keep
    # growing with every further pass, and how many passes fit varies.
    peak_rss_mb: float = 0.0

    @property
    def records(self) -> list[Record]:
        return [r for records in self.passes for r in records]

    @property
    def failures(self) -> list[Record]:
        return [r for r in self.warmup + self.records if r.failure]


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Run:
    """Decide passes over the corpus while the next one fits in ``seconds``.

    At least one pass; with ``trace``, passes alternate untraced and traced
    and there are at least one of each.
    """
    cfg = workload.config
    run = Run(workload)
    bases = [base_seed(CORPUS, i) for i in range(workload.corpus)]
    corpus = [(base, workload.make(base)) for base in bases]
    warm = base_seed(WARMUP, 0)
    warm_text = sf.serialize_instance(workload.warmup(warm))
    run.warmup.append(run_instance(warm_text, cfg, None, -1, warm, -1))
    ordinal = 0

    min_passes = 2 if trace else 1
    start = time.perf_counter()
    last = 0.0
    while len(run.passes) < min_passes or time.perf_counter() - start + last <= seconds:
        pass_start = time.perf_counter()
        pass_no = len(run.passes)
        tracer = run.tracer if trace and pass_no % 2 == 1 else None
        records = []
        for i, (base, inst) in enumerate(corpus):
            text = sf.serialize_instance(relabel(inst, np.random.default_rng([seed, pass_no, i])))
            records.append(run_instance(text, cfg, tracer, ordinal, base, pass_no))
            ordinal += 1
        run.passes.append(records)
        last = time.perf_counter() - pass_start
        if pass_no == 0:
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return run


def _pass_wall(passes: list[list[Record]]) -> float:
    return statistics.median(sum(r.decide_s for r in records) for records in passes)


def end_to_end(run: Run) -> dict[str, float]:
    """Untraced user-facing metrics (setup_s is measured by the caller)."""
    records = run.records
    times = [r.decide_s for r in records]
    undecided = sum(r.kind == "UNDECIDED" for r in records)
    return {
        "wall_s": _pass_wall(run.passes),
        "decide_s.p50": float(np.percentile(times, 50)),
        "decide_s.p90": float(np.percentile(times, 90)),
        "decided_rate": 1.0 - undecided / len(records),
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run) -> dict[str, float]:
    """Layer metrics from the traced passes of a trace run."""
    traced = run.passes[1::2]
    records = [r for records in traced for r in records]
    n = len(records)
    spans = run.tracer.spans
    self_s = run.tracer.self_times()
    calls: dict[str, int] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1

    def per_call(name: str) -> float:
        return self_s.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    decide_total = sum(s.end - s.start for s in spans if s.name == "decide")
    layer_total = sum(s.end - s.start for s in spans if s.name in LAYER_SPANS)
    sweeps = [r.sweeps for r in records]
    updates = sum(r.updates for r in records)
    solve_s = self_s.get("solvers.solve", 0.0)
    # A sink its source cannot reach gives an infinite margin; skip those.
    ratios = [r.margin_ratio for r in records if r.margin_ratio is not None]
    ratios = [x for x in ratios if np.isfinite(x)]
    kinds = [r.kind for r in records]
    return {
        "model.parse_s": per_call("model.parse_instance"),
        "solvers.solve_s": per_call("solvers.solve"),
        "solvers.updates": updates / n,
        "solvers.update_ns": 1e9 * solve_s / updates if updates else 0.0,
        "solvers.sweep_us": 1e6 * solve_s / sum(sweeps) if sum(sweeps) else 0.0,
        "solvers.sweeps": float(statistics.median(sweeps)),
        "solvers.sweeps.max": float(max(sweeps)),
        "solvers.unconverged": float(sum(not r.converged for r in records)),
        "pseudoflow.stability_report_s": per_call("pseudoflow.stability_report"),
        "pseudoflow.check_feasible_s": per_call("pseudoflow.check_feasible"),
        "pseudoflow.incidence_bytes": float(max(r.incidence_bytes for r in records)),
        "certify.classify_s": per_call("certify.classify"),
        "certify.render_s": per_call("certify.render_verdict_report"),
        "certify.render_bytes": sum(r.render_bytes for r in records) / n,
        "certify.oracle_s": per_call("certify.oracle_feasibility"),
        "certify.verdict.feasible": float(kinds.count("FEASIBLE")),
        "certify.verdict.infeasible": float(kinds.count("INFEASIBLE")),
        "certify.verdict.undecided": float(kinds.count("UNDECIDED")),
        "certify.margin_ratio.min": min(ratios) if ratios else 0.0,
        "undecided_rate": kinds.count("UNDECIDED") / n,
        "failed_rate": sum(r.failure is not None for r in records) / n,
        "trace.overhead_frac": _pass_wall(traced) / _pass_wall(run.passes[0::2]) - 1.0,
        "trace.coverage_frac": layer_total / decide_total,
    }

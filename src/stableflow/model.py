"""Multi-commodity flow instances: data model, text format, random generation.

Instance text format (UTF-8, line oriented, whitespace-separated tokens):

    # comment                     ignored
    p mcf <V> <A> <K>             exactly one problem line, first non-comment line
    a <tail> <head> <capacity>    A arc lines; file order defines arc ids 1..A
    c <source> <sink> <demand>    K commodity lines; file order defines ids 1..K

Vertex ids are 1-based in the text format and 0-based in memory. Parallel
arcs are allowed and are distinguished by their position (the arc id).
Self-loops are rejected: their inflow and outflow contributions cancel, so
such an arc could never do anything. Commodities whose source equals their
sink are rejected as well.

A canonical text (``_sweep.c:sf_parse`` says which) is read by the compiled
kernel, any other by the Python parser, with identical results.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np


class InstanceError(ValueError):
    """Base class for errors raised while building or reading instances."""


class ParseError(InstanceError):
    """Malformed instance text. Carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(InstanceError):
    """A structurally well-formed instance violates a model invariant.

    ``arc`` or ``commodity`` is the index of the offending item, when the
    violation belongs to one.
    """

    def __init__(self, message: str, *, arc: int | None = None, commodity: int | None = None):
        super().__init__(message)
        self.arc = arc
        self.commodity = commodity


class GenerationError(InstanceError):
    """Random-instance parameters are inconsistent or unsatisfiable."""


class Arc(NamedTuple):
    tail: int
    head: int
    capacity: float


class Commodity(NamedTuple):
    source: int
    sink: int
    demand: float


@dataclass(frozen=True)
class Instance:
    """An immutable multi-commodity flow instance.

    Attributes:
        vertex_count: Number of vertices; ids are 0 .. vertex_count-1.
        arcs: Directed arcs (tail, head, capacity); position is the arc id.
        commodities: (source, sink, demand) triples; position is the id.

    The constructor accepts any iterables of 3-tuples and normalizes them to
    ``Arc`` / ``Commodity`` tuples, so tests and callers can write
    ``Instance(2, [(0, 1, 1.0)], [(0, 1, 1.0)])``.

    Construction also sets, outside the fields that equality and hashing
    see, ``scale``, the largest power of two <= the largest demand (1.0 if
    none is positive; tolerances are multiples of it, so verdicts do not
    depend on units), and read-only views ``tails``, ``heads`` (A,) int64,
    ``capacities`` (A,) and ``injection`` (K, V), +demand at each source and
    -demand at each sink, of ``_arrays``, which the compiled kernel reads.
    """

    vertex_count: int
    arcs: tuple[Arc, ...]
    commodities: tuple[Commodity, ...]

    def __post_init__(self) -> None:
        try:
            vertex_count = operator.index(self.vertex_count)
        except TypeError:
            what = f"vertex_count ({self.vertex_count!r})"
            raise ValidationError(f"{what} must be of integer type") from None
        arcs = tuple(
            Arc(*_vertex_ids("arc", i, t, h), float(c)) for i, (t, h, c) in enumerate(self.arcs)
        )
        commodities = tuple(
            Commodity(*_vertex_ids("commodity", i, s, t), float(d))
            for i, (s, t, d) in enumerate(self.commodities)
        )
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "commodities", commodities)
        firsts, seconds, values = tuple(zip(*arcs, *commodities)) or ((), (), ())
        self._validate(firsts, seconds, values)
        n_arcs = len(arcs)
        self._bind(
            np.array(values[:n_arcs], dtype=float),
            np.array(firsts[:n_arcs], dtype=np.int64),
            np.array(seconds[:n_arcs], dtype=np.int64),
        )

    @classmethod
    def _from_columns(
        cls, vertex_count: int, n_arcs: int, ids: np.ndarray, values: np.ndarray
    ) -> Instance:
        """The instance of ``_sweep.c:sf_parse``'s (2, A + K) ``ids`` and
        (A + K,) ``values``, validated as the constructor does."""
        firsts, seconds = ids.tolist()
        reals = values.tolist()
        inst = object.__new__(cls)
        vars(inst).update(
            vertex_count=vertex_count,
            arcs=_rows(Arc, firsts[:n_arcs], seconds[:n_arcs], reals[:n_arcs]),
            commodities=_rows(Commodity, firsts[n_arcs:], seconds[n_arcs:], reals[n_arcs:]),
        )
        inst._validate(firsts, seconds, reals)
        inst._bind(values[:n_arcs], ids[0, :n_arcs], ids[1, :n_arcs])
        return inst

    def _validate(self, firsts: Sequence, seconds: Sequence, values: Sequence) -> None:
        """Raises ValidationError at the first arc, then commodity, that
        violates a model invariant; the columns are its ends and value."""
        n = self.vertex_count
        ids = [*firsts, *seconds]
        if (
            min(ids, default=0) >= 0
            and max(ids, default=0) < n
            and not any(map(operator.eq, firsts, seconds))
            # A finite sum rules out NaN and inf, so min compares them all.
            and math.isfinite(sum(values))
            and min(values, default=0.0) >= 0
        ):
            return
        if n < 1:
            raise ValidationError(f"vertex_count must be positive, got {n}")
        for idx, arc in enumerate(self.arcs):
            if not (0 <= arc.tail < n and 0 <= arc.head < n):
                problem = f"endpoints ({arc.tail}, {arc.head}) out of range [0, {n})"
            elif arc.tail == arc.head:
                problem = f"is a self-loop at vertex {arc.tail}"
            elif not (math.isfinite(arc.capacity) and arc.capacity >= 0):
                problem = f"capacity must be >= 0 and finite, got {arc.capacity}"
            else:
                continue
            raise ValidationError(f"arc {idx} {problem}", arc=idx)
        for idx, com in enumerate(self.commodities):
            if not (0 <= com.source < n and 0 <= com.sink < n):
                problem = f"endpoints ({com.source}, {com.sink}) out of range [0, {n})"
            elif com.source == com.sink:
                problem = (
                    f"source equals sink (vertex {com.source}); source and sink must differ"
                )
            elif not (math.isfinite(com.demand) and com.demand >= 0):
                problem = f"demand must be >= 0 and finite, got {com.demand}"
            else:
                continue
            raise ValidationError(f"commodity {idx} {problem}", commodity=idx)

    def _bind(self, caps: np.ndarray, tails: np.ndarray, heads: np.ndarray) -> None:
        """Sets the scale and the arrays from the validated arc arrays."""
        try:
            injection = np.zeros((len(self.commodities), self.vertex_count))
        except (MemoryError, ValueError):  # ValueError: beyond numpy's largest shape
            raise ValidationError(
                f"vertex_count {self.vertex_count} is too large: a "
                f"({len(self.commodities)}, {self.vertex_count}) demand injection does not fit"
            ) from None
        for k, com in enumerate(self.commodities):
            injection[k, com.source] = com.demand
            injection[k, com.sink] = -com.demand
        largest = max((c.demand for c in self.commodities), default=0.0)
        vars(self).update(
            scale=math.ldexp(0.5, math.frexp(largest)[1]) if largest > 0 else 1.0,
            _arrays=(caps, tails, heads, injection),
            capacities=_read_only(caps.view()),
            tails=_read_only(tails.view()),
            heads=_read_only(heads.view()),
            injection=_read_only(injection.view()),
        )

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @property
    def commodity_count(self) -> int:
        return len(self.commodities)

    @property
    def total_demand(self) -> float:
        return sum(c.demand for c in self.commodities)


def _rows(kind: type[tuple], *columns: list) -> tuple:
    # kind(*row) per row, at ~40% of the cost of the named tuple's __new__.
    return tuple(map(tuple.__new__, repeat(kind), zip(*columns)))


def _vertex_ids(kind: str, idx: int, u: object, v: object) -> tuple[int, int]:
    """The endpoints of arc or commodity ``idx`` as ints."""
    # operator.index takes numpy integers and refuses what int() would
    # truncate or parse, such as 1.9 or "3".
    try:
        return operator.index(u), operator.index(v)
    except TypeError:
        what = f"{kind} {idx} endpoints ({u!r}, {v!r})"
        raise ValidationError(f"{what} must be of integer type", **{kind: idx}) from None


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _parse_int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line, f"expected integer {what}, got {token!r}") from None


def _parse_real(token: str, line: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(line, f"expected number {what}, got {token!r}") from None


def parse_instance(text: str) -> Instance:
    """Parse instance text into an :class:`Instance`.

    The compiled kernel reads a canonical text, and :func:`_parse_python`
    any other and every invalid one, so errors carry their line.

    Raises:
        ParseError: On malformed lines, count mismatches with the problem
            line, or an instance that violates a model invariant or whose
            arrays do not fit in memory. The error message carries the line
            number.
        OSError: The text is ASCII and the compiled kernel cannot be built
            or loaded.
    """
    from . import _kernel  # imports this module

    if text.isascii():
        try:
            inst = _kernel.parse(text)
        except ValidationError:
            inst = None  # read again below, so the error gets its line
        if inst is not None:
            return inst
    return _parse_python(text)


def _parse_python(text: str) -> Instance:
    """:func:`parse_instance` in Python, for every text the compiled reader
    defers; the only source of ``ParseError`` messages.

    The parser checks token syntax and counts; :class:`Instance` checks the
    model invariants (vertex ranges, self-loops, source equal to sink,
    sign and finiteness), and its error is reported at the offending line.
    """
    vertex_count = arc_count = commodity_count = -1
    problem_line = 1
    arcs: list[Arc] = []
    commodities: list[Commodity] = []
    arc_lines: list[int] = []
    commodity_lines: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]

        if kind == "p":
            if vertex_count >= 0:
                raise ParseError(lineno, "duplicate problem line")
            if len(tokens) != 5 or tokens[1] != "mcf":
                raise ParseError(lineno, f"expected 'p mcf <V> <A> <K>', got {line!r}")
            vertex_count = _parse_int(tokens[2], lineno, "vertex count")
            arc_count = _parse_int(tokens[3], lineno, "arc count")
            commodity_count = _parse_int(tokens[4], lineno, "commodity count")
            if vertex_count < 0 or arc_count < 0 or commodity_count < 0:
                raise ParseError(lineno, "vertex, arc and commodity counts must be nonnegative")
            problem_line = lineno
            continue

        if vertex_count < 0:
            raise ParseError(lineno, f"{kind!r} line before the problem line")

        if kind == "a":
            if len(tokens) != 4:
                raise ParseError(lineno, f"expected 'a <tail> <head> <capacity>', got {line!r}")
            tail = _parse_int(tokens[1], lineno, "arc tail")
            head = _parse_int(tokens[2], lineno, "arc head")
            arcs.append(Arc(tail - 1, head - 1, _parse_real(tokens[3], lineno, "capacity")))
            arc_lines.append(lineno)
        elif kind == "c":
            if len(tokens) != 4:
                raise ParseError(lineno, f"expected 'c <source> <sink> <demand>', got {line!r}")
            source = _parse_int(tokens[1], lineno, "commodity source")
            sink = _parse_int(tokens[2], lineno, "commodity sink")
            commodities.append(
                Commodity(source - 1, sink - 1, _parse_real(tokens[3], lineno, "demand"))
            )
            commodity_lines.append(lineno)
        else:
            raise ParseError(lineno, f"unknown line type {kind!r}")

    if vertex_count < 0:
        raise ParseError(1, "missing problem line 'p mcf <V> <A> <K>'")
    if len(arcs) != arc_count:
        raise ParseError(1, f"problem line declares {arc_count} arcs, found {len(arcs)}")
    if len(commodities) != commodity_count:
        raise ParseError(
            1, f"problem line declares {commodity_count} commodities, found {len(commodities)}"
        )
    try:
        return Instance(vertex_count, tuple(arcs), tuple(commodities))
    except ValidationError as exc:
        # Vertex ids in the message are the instance's, one less than the file's.
        if exc.arc is not None:
            lineno = arc_lines[exc.arc]
        elif exc.commodity is not None:
            lineno = commodity_lines[exc.commodity]
        else:
            lineno = problem_line
        raise ParseError(lineno, str(exc)) from exc


def serialize_instance(inst: Instance) -> str:
    """Render an instance in the text format; parse_instance round-trips it."""
    lines = [f"p mcf {inst.vertex_count} {inst.arc_count} {inst.commodity_count}"]
    for arc in inst.arcs:
        lines.append(f"a {arc.tail + 1} {arc.head + 1} {arc.capacity!r}")
    for com in inst.commodities:
        lines.append(f"c {com.source + 1} {com.sink + 1} {com.demand!r}")
    return "\n".join(lines) + "\n"


def _check_range(name: str, rng: tuple[float, float]) -> tuple[float, float]:
    lo, hi = float(rng[0]), float(rng[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0 or hi < lo:
        raise GenerationError(f"{name} must satisfy 0 <= lo <= hi, got ({lo}, {hi})")
    return lo, hi


def _sample_values(
    rng: np.random.Generator, n: int, lo: float, hi: float, integer_values: bool
) -> np.ndarray:
    if not integer_values:
        return rng.uniform(lo, hi, size=n)
    lo_i, hi_i = math.ceil(lo), math.floor(hi)
    if lo_i > hi_i:
        raise GenerationError(f"no integers in value range [{lo}, {hi}]")
    return rng.integers(lo_i, hi_i + 1, size=n).astype(float)


def _sample_distinct_pairs(rng: np.random.Generator, n_vertices: int, n: int) -> np.ndarray:
    # Uniform over ordered pairs (i, j), i != j: offset trick avoids rejection.
    tails = rng.integers(0, n_vertices, size=n)
    heads = (tails + rng.integers(1, n_vertices, size=n)) % n_vertices
    return np.stack([tails, heads], axis=1)


def generate_random_instance(
    n_vertices: int,
    n_arcs: int,
    n_commodities: int,
    cap_range: tuple[float, float],
    demand_range: tuple[float, float],
    seed: int,
    *,
    integer_values: bool = False,
) -> Instance:
    """Generate a random valid instance, deterministically for a fixed seed.

    Arcs are sampled uniformly over ordered vertex pairs (no self-loops);
    commodity endpoints likewise. With ``integer_values`` the capacities and
    demands are integers drawn uniformly from the given ranges.

    Raises:
        GenerationError: If ``n_vertices < 2``, a count or the seed is
            negative or a range is invalid.
    """
    if n_vertices < 2:
        raise GenerationError(f"need at least 2 vertices, got {n_vertices}")
    if n_arcs < 0 or n_commodities < 0:
        raise GenerationError("arc and commodity counts must be nonnegative")
    if seed < 0:
        raise GenerationError(f"seed must be nonnegative, got {seed}")
    cap_lo, cap_hi = _check_range("cap_range", cap_range)
    dem_lo, dem_hi = _check_range("demand_range", demand_range)

    rng = np.random.default_rng(seed)

    pairs = _sample_distinct_pairs(rng, n_vertices, n_arcs)
    capacities = _sample_values(rng, n_arcs, cap_lo, cap_hi, integer_values)

    endpoints = _sample_distinct_pairs(rng, n_vertices, n_commodities)
    demands = _sample_values(rng, n_commodities, dem_lo, dem_hi, integer_values)

    arcs = tuple(Arc(int(t), int(h), float(c)) for (t, h), c in zip(pairs, capacities))
    commodities = tuple(
        Commodity(int(s), int(t), float(d)) for (s, t), d in zip(endpoints, demands)
    )
    return Instance(n_vertices, arcs, commodities)


__all__ = [
    "Arc",
    "Commodity",
    "GenerationError",
    "Instance",
    "InstanceError",
    "ParseError",
    "ValidationError",
    "generate_random_instance",
    "parse_instance",
    "serialize_instance",
]

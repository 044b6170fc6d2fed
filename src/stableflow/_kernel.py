"""The compiled per-solve work of both solvers, the crossover of a
FEASIBLE flow to a basic routing and the reader of canonical instance
texts, built on first use.

``_sweep.c`` is compiled once with the interpreter's C compiler into the
package's ``__pycache__`` and loaded through ctypes. The library's file name
carries a CRC of the source, the flags and the platform, so an edited source
or another machine gets its own build. The library is required: there is
no other solver, and :func:`load` raises ``OSError`` when it cannot be built
or loaded.

A cache hit imports nothing beyond what numpy already has loaded; the
compiler is looked up and run only on a miss. The first load's outcome is
kept for the process, a failure too: each later call raises its message
again without running the compiler.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import platform
import sys
import zlib

import numpy as np

from .model import Instance
from .pseudoflow import PseudoFlow

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(_HERE, "_sweep.c")
CACHE_DIR = os.path.join(_HERE, "__pycache__")
# No -ffast-math or -march=native: either lets the compiler reassociate or
# fuse the arithmetic, which breaks bitwise agreement with tests/reference.py.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
COMPILE_TIMEOUT_S = 120
# The trace rows one sf_solve call may write, row 0 included: a solve of up
# to SEGMENT - 1 iterations takes one call.
SEGMENT = 64


class _State(ctypes.Structure):
    """Mirror of ``sf_state`` in ``_sweep.c``."""

    _fields_ = [
        ("flows", ctypes.c_void_p),
        ("slacks", ctypes.c_void_p),
        ("totals", ctypes.c_void_p),
        ("excesses", ctypes.c_void_p),
        ("caps", ctypes.c_void_p),
        ("tails", ctypes.c_void_p),
        ("heads", ctypes.c_void_p),
        ("injection", ctypes.c_void_p),
        ("work", ctypes.c_void_p),
        ("momentum", ctypes.c_void_p),
        ("n_vertices", ctypes.c_int64),
        ("n_arcs", ctypes.c_int64),
        ("n_commodities", ctypes.c_int64),
        ("pgd", ctypes.c_int64),
        ("iterations", ctypes.c_int64),
        ("done", ctypes.c_int64),
        ("gate", ctypes.c_int64),
        ("use_threshold", ctypes.c_double),
        ("omega", ctypes.c_double),
        ("scale", ctypes.c_double),
        ("theta", ctypes.c_double),
    ]


class _Routing(ctypes.Structure):
    """Mirror of ``sf_routing`` in ``_sweep.c``."""

    _fields_ = [
        ("flows", ctypes.c_void_p),
        ("out", ctypes.c_void_p),
        ("caps", ctypes.c_void_p),
        ("tails", ctypes.c_void_p),
        ("heads", ctypes.c_void_p),
        ("n_vertices", ctypes.c_int64),
        ("n_arcs", ctypes.c_int64),
        ("n_commodities", ctypes.c_int64),
        ("threshold", ctypes.c_double),
    ]


class _Text(ctypes.Structure):
    """Mirror of ``sf_text`` in ``_sweep.c``."""

    _fields_ = [
        ("text", ctypes.c_char_p),
        ("length", ctypes.c_int64),
        ("ids", ctypes.c_void_p),
        ("values", ctypes.c_void_p),
        ("capacity", ctypes.c_int64),
        ("n_vertices", ctypes.c_int64),
        ("n_arcs", ctypes.c_int64),
        ("n_commodities", ctypes.c_int64),
    ]


def _compiler() -> list[str]:
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _build(path: str) -> None:
    """Compile the source to ``path`` through a temporary file in its directory.

    The final ``os.replace`` is atomic, so concurrent processes either find
    no library or a complete one.
    """
    import subprocess
    import tempfile

    os.makedirs(CACHE_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=CACHE_DIR)
    os.close(fd)
    try:
        subprocess.run(
            [*_compiler(), *FLAGS, "-o", tmp, SOURCE],
            check=True,
            capture_output=True,
            timeout=COMPILE_TIMEOUT_S,
        )
        os.chmod(tmp, 0o755)  # mkstemp made it private; other users load it too
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"the compiler failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# The restype and argtypes of each function the library exports.
_SIGNATURES = {
    "sf_solve": (ctypes.c_int64, ctypes.POINTER(_State), ctypes.c_double, ctypes.c_int64,
                 ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p),
    "sf_crossover": (ctypes.c_int64, ctypes.POINTER(_Routing)),
    "sf_parse": (ctypes.c_int64, ctypes.POINTER(_Text)),
}


@functools.cache
def _open() -> ctypes.CDLL | str:
    """The library, built if missing, or the message of why it failed."""
    try:
        with open(SOURCE, "rb") as fh:
            source = fh.read()
        key = zlib.crc32(
            "\0".join([*FLAGS, sys.platform, platform.machine()]).encode(), zlib.crc32(source)
        )
        path = os.path.join(CACHE_DIR, f"_sweep-{key:08x}.so")
        if not os.path.exists(path):
            _build(path)
        lib = ctypes.CDLL(path)
        for name, (restype, *argtypes) in _SIGNATURES.items():
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (OSError, AttributeError) as exc:
        import shlex

        return (
            f"stableflow needs its compiled kernel, and building {SOURCE} with the C "
            f"compiler {shlex.join(_compiler())!r} or loading it failed: {exc}"
        )
    return lib


def load() -> ctypes.CDLL:
    """The compiled kernel library, built if missing.

    Raises:
        OSError: The library cannot be built or loaded. The message names
            the compiler command and the source, on one line.
    """
    lib = _open()
    if isinstance(lib, str):
        raise OSError(lib)
    return lib


class Kernel:
    """The compiled solve of :func:`solvers.solve` on ``inst``.

    It owns the solve's state: ``flows``, ``slacks``, ``totals`` and
    ``excesses`` are views of one buffer, which also holds one call's trace
    rows, the report and the work arrays. The extrapolation's arrays are a
    second array, so a result, whose arrays are views of the buffer, does
    not keep them alive. Both are made here, and the report's views are
    sliced here once. The starting flows and slacks are copied in, and
    :meth:`solve` derives the rest. The instance's arrays are read in place
    and not checked again: the instance validated them, and a warm start has
    passed ``PseudoFlow.validate``. Each iteration is a PGD step with the
    exact step length when ``pgd`` is true, slope and curvature read in
    units of ``inst.scale``; otherwise an over-relaxed sweep with factor
    ``omega``. Each iteration past the first ``gate`` also tries an
    extrapolated point (``_sweep.c:extrapolate``).

    Raises:
        OSError: The compiled kernel cannot be built or loaded.
    """

    def __init__(
        self,
        inst: Instance,
        flows: np.ndarray,
        slacks: np.ndarray,
        pgd: bool,
        use_threshold: float,
        omega: float,
        gate: int,
    ) -> None:
        self._sf_solve = load().sf_solve
        n_vertices, n_arcs = inst.vertex_count, inst.arc_count
        n_commodities = inst.commodity_count
        size = n_commodities * n_arcs
        # The buffer's parts, in order: flows, slacks, totals and excesses;
        # the trace rows; the report: heights, congestions, multipliers and
        # both residuals; work: inflow and outflow of one commodity, then for
        # PGD the flow moves, the gaps and the slack moves.
        lengths = (
            size, n_arcs, n_arcs, n_commodities * n_vertices,
            3 * SEGMENT,
            n_vertices * n_commodities, n_arcs, size, 2,
            2 * n_vertices + (size + 2 * n_arcs if pgd else 0),
        )
        offsets = list(itertools.accumulate(lengths, initial=0))
        self._buffer = np.empty(offsets[-1])
        (
            flows_view, self.slacks, self.totals, excesses, rows,
            heights, self._congestions, multipliers, self._residuals, _,
        ) = (self._buffer[start:end] for start, end in zip(offsets, offsets[1:]))
        self.flows = flows_view.reshape(n_commodities, n_arcs)
        self.excesses = excesses.reshape(n_commodities, n_vertices)
        self._rows = rows.reshape(SEGMENT, 3)
        self._heights = heights.reshape(n_vertices, n_commodities)
        self._multipliers = multipliers.reshape(n_commodities, n_arcs)
        self.flows[...] = flows
        self.slacks[...] = slacks
        # The last result's flows, then a copy of the kept slacks, totals and
        # excesses to restore on a restart.
        self._momentum = np.empty(size + 2 * n_arcs + n_commodities * n_vertices)
        base = _address(self._buffer)
        pointers = [base + 8 * offset for offset in offsets]
        self._rows_ptr, self._report_ptr = pointers[4:6]
        self._state = _State(
            *pointers[:4],
            *map(_address, inst._arrays),
            pointers[9],
            _address(self._momentum),
            n_vertices,
            n_arcs,
            n_commodities,
            pgd,
            -1,
            0,
            gate,
            use_threshold,
            omega,
            inst.scale,
            1.0,
        )
        self._ref = ctypes.byref(self._state)
        self._inst = inst  # holds the arrays the state reads in place

    def solve(
        self, tol: float, max_iters: int
    ) -> tuple[list[list[float]], tuple[np.ndarray, np.ndarray, np.ndarray, float, float]]:
        """Runs ``_sweep.c:sf_solve`` to its stop, one call per ``SEGMENT`` rows.

        Returns the trace rows, (slack-form objective, used residual, unused
        residual) after iteration i, from 0, and the report on the final
        state as ``stability_report`` makes it: heights (vertex,
        commodity), congestions, implied multipliers (commodity, arc), and
        the used and unused residuals, the arrays views of the buffer. In
        place, ``flows`` end as ``max(flows, 0)``, ``totals`` and
        ``excesses`` are derived from them and each slack is at its optimum.
        """
        max_iters = min(max_iters, 2**63 - 1)  # ctypes would wrap a larger int
        rows: list[list[float]] = []
        while not self._state.done:
            written = self._sf_solve(
                self._ref, tol, max_iters, self._rows_ptr, len(self._rows), self._report_ptr
            )
            rows += self._rows[:written].tolist()
        report = (self._heights, self._congestions, self._multipliers, *self._residuals.tolist())
        return rows, report


def crossover(inst: Instance, flows: np.ndarray, threshold: float) -> PseudoFlow:
    """A basic routing of ``flows`` and the slacks' optimum for its totals:
    copy, crossover and slacks in one call to ``_sweep.c:sf_crossover``,
    into one (K + 1, A) buffer. ``flows`` is a C-contiguous, native float64
    array of the instance's (K, A) shape, which may be empty."""
    n_commodities, n_arcs = inst.commodity_count, inst.arc_count
    buffer = np.empty((n_commodities + 1, n_arcs))
    caps, tails, heads, _ = inst._arrays
    routing = _Routing(
        _address(flows), _address(buffer), _address(caps), _address(tails), _address(heads),
        inst.vertex_count, n_arcs, n_commodities, threshold,
    )
    if load().sf_crossover(ctypes.byref(routing)):
        raise MemoryError("sf_crossover could not allocate its scratch")
    return PseudoFlow._adopt(buffer[:n_commodities], buffer[n_commodities])


def parse(text: str) -> Instance | None:
    """The instance of an ASCII ``text`` that ``_sweep.c:sf_parse`` reads,
    else None; ValidationError if it violates a model invariant."""
    data = text.encode()
    # The problem line takes at least 11 bytes and each further line 8, so
    # the text, not the counts it declares, sizes the buffers.
    capacity = len(data) // 8
    ids, values = np.empty(2 * capacity, dtype=np.int64), np.empty(capacity)
    parsed = _Text(data, len(data), _address(ids), _address(values), capacity)
    if load().sf_parse(ctypes.byref(parsed)):
        return None
    size = parsed.n_arcs + parsed.n_commodities
    return Instance._from_columns(
        parsed.n_vertices, parsed.n_arcs, ids[: 2 * size].reshape(2, size), values[:size]
    )


def _address(array: np.ndarray) -> int:
    """The data address of a C-contiguous array; 0 for an empty one.

    ctypes ``from_buffer`` reads a writable array's in a third of the time
    ``ndarray.ctypes.data`` takes, but refuses a read-only one.
    """
    if not array.size:
        return 0
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except TypeError:
        return array.ctypes.data

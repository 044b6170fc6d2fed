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
compiler is looked up and run only on a miss.
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
# Most iterations one Kernel.run call may run: the rows of its trace buffer.
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


@functools.cache
def load() -> ctypes.CDLL:
    """The compiled kernel library, built if missing.

    Raises:
        OSError: The library cannot be built or loaded. The message names
            the compiler command and the source, on one line.
    """
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
        state = ctypes.POINTER(_State)
        lib.sf_derive.argtypes = [state, ctypes.c_void_p]
        lib.sf_derive.restype = None
        lib.sf_run.argtypes = [state, ctypes.c_double, ctypes.c_int64, ctypes.c_void_p]
        lib.sf_run.restype = ctypes.c_int64
        lib.sf_report.argtypes = [state, ctypes.c_void_p]
        lib.sf_report.restype = None
        lib.sf_crossover.argtypes = [ctypes.POINTER(_Routing)]
        lib.sf_crossover.restype = ctypes.c_int64
        lib.sf_parse.argtypes = [ctypes.POINTER(_Text)]
        lib.sf_parse.restype = ctypes.c_int64
    except (OSError, AttributeError) as exc:
        import shlex

        raise OSError(
            f"stableflow needs its compiled kernel, and building {SOURCE} with the C "
            f"compiler {shlex.join(_compiler())!r} or loading it failed: {exc}"
        ) from exc
    return lib


class Kernel:
    """The compiled per-solve work of :func:`solvers.solve` on ``inst``.

    It owns the solve's state: ``flows``, ``slacks``, ``totals`` and
    ``excesses`` are views of one buffer, which also holds a segment's trace
    rows, the report and the work arrays. The extrapolation's arrays are a
    second array, so a result, whose arrays are views of the buffer, does
    not keep them alive. Both are made here, and the report's views are
    sliced here once. The starting flows and slacks are copied in, and
    :meth:`derive` fills the rest. The instance's arrays are read in place
    and not checked again: the instance validated them, and a warm start has
    passed ``PseudoFlow.validate``. Each iteration is a PGD step with the
    exact step length when ``pgd`` is true, slope and curvature read in
    units of ``inst.scale``; otherwise an over-relaxed sweep with factor
    ``omega``. ``sf_run`` counts the iterations, and each one past the
    first ``gate`` also tries an extrapolated point
    (``_sweep.c:extrapolate``).
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        inst: Instance,
        flows: np.ndarray,
        slacks: np.ndarray,
        pgd: bool,
        use_threshold: float,
        omega: float,
        gate: int,
    ) -> None:
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
            0,
            gate,
            use_threshold,
            omega,
            inst.scale,
            1.0,
        )
        self._ref = ctypes.byref(self._state)
        self._inst = inst  # holds the arrays the state reads in place
        self._lib = lib

    def derive(self) -> list[float]:
        """Derives totals and excesses from the flows, in place.

        Returns the (slack-form objective, used residual, unused residual)
        row of the derived state. Call it before the first :meth:`run`: the
        buffer starts uninitialised.
        """
        self._lib.sf_derive(self._ref, self._rows_ptr)
        return self._rows[0].tolist()

    def run(self, tol: float, n: int) -> list[list[float]]:
        """Up to ``n`` iterations, in place; 1 <= n <= SEGMENT.

        Returns one (slack-form objective, used residual, unused residual)
        row per iteration run, each of the state that iteration keeps. The
        run stops early only after the first row whose larger residual is
        <= ``tol`` or NaN; a segment runs across the gate.
        """
        if not 1 <= n <= len(self._rows):
            raise ValueError(f"n must lie in [1, {len(self._rows)}], got {n}")
        done = self._lib.sf_run(self._ref, tol, n, self._rows_ptr)
        return self._rows[:done].tolist()

    def report(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
        """Makes the state final and reports on it, as ``stability_report`` does.

        In place, ``flows`` become ``max(flows, 0)``, ``totals`` and
        ``excesses`` are re-derived and each slack is set to its optimum.
        Returns heights (vertex, commodity), congestions, implied
        multipliers (commodity, arc), and the used and unused residuals. The
        arrays are views of this kernel's buffer, which the next call
        overwrites.
        """
        self._lib.sf_report(self._ref, self._report_ptr)
        return (self._heights, self._congestions, self._multipliers, *self._residuals.tolist())


def crossover(
    lib: ctypes.CDLL, inst: Instance, flows: np.ndarray, threshold: float
) -> PseudoFlow:
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
    if lib.sf_crossover(ctypes.byref(routing)):
        raise MemoryError("sf_crossover could not allocate its scratch")
    return PseudoFlow._adopt(buffer[:n_commodities], buffer[n_commodities])


def parse(lib: ctypes.CDLL, text: str) -> Instance | None:
    """The instance of an ASCII ``text`` that ``_sweep.c:sf_parse`` reads,
    else None; ValidationError if it violates a model invariant."""
    data = text.encode()
    # The problem line takes at least 11 bytes and each further line 8, so
    # the text, not the counts it declares, sizes the buffers.
    capacity = len(data) // 8
    ids, values = np.empty(2 * capacity, dtype=np.int64), np.empty(capacity)
    parsed = _Text(data, len(data), _address(ids), _address(values), capacity)
    if lib.sf_parse(ctypes.byref(parsed)):
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

"""The compiled per-solve work of both solvers, built on first use.

``_sweep.c`` is compiled once with the interpreter's C compiler into the
package's ``__pycache__`` and loaded through ctypes. The library's file name
carries a CRC of the source, the flags and the platform, so an edited source
or another machine gets its own build. :func:`load` returns None when the
library cannot be built or loaded, and callers then run the Python loop,
which gives bitwise the same results.

A cache hit imports nothing beyond what numpy already has loaded; the
compiler is looked up and run only on a miss.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import sys
import zlib

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(_HERE, "_sweep.c")
CACHE_DIR = os.path.join(_HERE, "__pycache__")
# No -ffast-math or -march=native: either lets the compiler reassociate or
# fuse the arithmetic, which breaks bitwise agreement with the Python loop.
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
        ("n_vertices", ctypes.c_int64),
        ("n_arcs", ctypes.c_int64),
        ("n_commodities", ctypes.c_int64),
        ("pgd", ctypes.c_int64),
        ("use_threshold", ctypes.c_double),
        ("omega", ctypes.c_double),
        ("scale", ctypes.c_double),
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
        raise OSError(f"compiling {SOURCE} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def load() -> ctypes.CDLL | None:
    """The compiled kernel library, built if missing; None when unavailable."""
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
        lib.sf_check.argtypes = [state]
        lib.sf_check.restype = ctypes.c_int64
        lib.sf_derive.argtypes = [state, ctypes.c_void_p]
        lib.sf_derive.restype = None
        lib.sf_run.argtypes = [state, ctypes.c_double, ctypes.c_int64, ctypes.c_void_p]
        lib.sf_run.restype = ctypes.c_int64
        lib.sf_report.argtypes = [state, ctypes.c_void_p]
        lib.sf_report.restype = None
    except (OSError, AttributeError):
        return None
    return lib


def _require(
    array: object, dtype: type, shape: tuple[int, ...], name: str, writable: bool
) -> None:
    if not (
        isinstance(array, np.ndarray)
        and array.dtype == dtype
        and array.shape == shape
        and array.flags.c_contiguous
        and array.flags.aligned
        and (array.flags.writeable or not writable)
    ):
        raise ValueError(
            f"{name} must be a C-contiguous{' writable' if writable else ''} "
            f"{np.dtype(dtype).name} array of shape {shape}"
        )


class Kernel:
    """The compiled per-solve work of :func:`solvers.solve`, bound to its arrays.

    Every array is checked once here, the arc endpoints in C, and its
    pointer stored, so a call converts nothing. ``flows``, ``slacks``,
    ``totals`` and ``excesses`` are updated in place and must outlive this
    object, which keeps references to them. Each iteration is an
    over-relaxed sweep with factor ``omega``, or, given ``scale`` (the
    instance's power-of-two scale, the unit in which the step reads slope
    and curvature), a PGD step with the exact step length. ``injection``
    is the (commodity, vertex) demand injection that :meth:`derive` and
    :meth:`report` add to the flows' excesses; without it there is none.

    One buffer, allocated here, holds the trace rows of a segment, the
    report and the work arrays.
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        flows: np.ndarray,
        slacks: np.ndarray,
        totals: np.ndarray,
        excesses: np.ndarray,
        caps: np.ndarray,
        tails: np.ndarray,
        heads: np.ndarray,
        use_threshold: float,
        omega: float,
        scale: float | None = None,
        injection: np.ndarray | None = None,
    ) -> None:
        if not (isinstance(flows, np.ndarray) and flows.ndim == 2):
            raise ValueError("flows must be a 2-d (commodity, arc) array")
        if not (isinstance(excesses, np.ndarray) and excesses.ndim == 2):
            raise ValueError("excesses must be a 2-d (commodity, vertex) array")
        n_commodities, n_arcs = flows.shape
        n_vertices = excesses.shape[1]
        _require(flows, np.float64, (n_commodities, n_arcs), "flows", True)
        _require(slacks, np.float64, (n_arcs,), "slacks", True)
        _require(totals, np.float64, (n_arcs,), "totals", True)
        _require(excesses, np.float64, (n_commodities, n_vertices), "excesses", True)
        _require(caps, np.float64, (n_arcs,), "caps", False)
        _require(tails, np.int64, (n_arcs,), "tails", False)
        _require(heads, np.int64, (n_arcs,), "heads", False)
        if injection is not None:
            _require(injection, np.float64, (n_commodities, n_vertices), "injection", False)
        # Trace rows; report (heights, congestions, multipliers, residuals);
        # work: inflow and outflow of one commodity, then for PGD the flow
        # moves, the gaps and the slack moves.
        self._shape = (n_vertices, n_arcs, n_commodities)
        rows = 3 * SEGMENT
        report = n_vertices * n_commodities + n_arcs + flows.size + 2
        work = 2 * n_vertices + (flows.size + 2 * n_arcs if scale is not None else 0)
        self._buffer = np.empty(rows + report + work)
        base = self._buffer.ctypes.data
        self._arrays = (flows, slacks, totals, excesses, caps, tails, heads, injection)
        self._state = _State(
            *(None if array is None else array.ctypes.data for array in self._arrays),
            base + 8 * (rows + report),
            n_vertices,
            n_arcs,
            n_commodities,
            scale is not None,
            use_threshold,
            omega,
            scale or 0.0,
        )
        self._ref = ctypes.byref(self._state)
        if not lib.sf_check(self._ref):
            raise ValueError(f"arc endpoints must lie in [0, {n_vertices})")
        self._rows = self._buffer[:rows].reshape(SEGMENT, 3)
        self._rows_ptr = base
        self._report = self._buffer[rows : rows + report]
        self._report_ptr = base + 8 * rows
        self._lib = lib

    def derive(self) -> list[float]:
        """Re-derives totals and excesses from the flows, in place.

        Returns the (slack-form objective, used residual, unused residual)
        row of the derived state.
        """
        self._lib.sf_derive(self._ref, self._rows_ptr)
        return self._rows[0].tolist()

    def run(self, tol: float, n: int) -> list[list[float]]:
        """Up to ``n`` iterations, in place; 1 <= n <= SEGMENT.

        Returns one (slack-form objective, used residual, unused residual)
        row per iteration run, each of the state that iteration leaves. The
        run stops early only after the first row whose larger residual is
        <= ``tol`` or NaN.
        """
        if not 1 <= n <= len(self._rows):
            raise ValueError(f"n must lie in [1, {len(self._rows)}], got {n}")
        done = self._lib.sf_run(self._ref, tol, n, self._rows_ptr)
        return self._rows[:done].tolist()

    def report(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
        """Makes the state final and reports on it, as ``stability_report`` does.

        In place, flows become ``max(flows, 0)``, totals and excesses are
        re-derived and each slack is set to its optimum. Returns heights
        (vertex, commodity), congestions, implied multipliers (commodity,
        arc), and the used and unused residuals. The arrays are views of
        this kernel's buffer, which the next call overwrites.
        """
        self._lib.sf_report(self._ref, self._report_ptr)
        n_vertices, n_arcs, n_commodities = self._shape
        congestions_at = n_vertices * n_commodities
        multipliers_at = congestions_at + n_arcs
        used, unused = self._report[-2:].tolist()
        return (
            self._report[:congestions_at].reshape(n_vertices, n_commodities),
            self._report[congestions_at:multipliers_at],
            self._report[multipliers_at:-2].reshape(n_commodities, n_arcs),
            used,
            unused,
        )

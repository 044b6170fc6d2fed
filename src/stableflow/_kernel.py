"""The compiled solver iterations and residual check, built on first use.

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
        lib.sf_residuals.argtypes = [state, ctypes.POINTER(ctypes.c_double)]
        lib.sf_residuals.restype = None
        lib.sf_run.argtypes = [state, ctypes.c_double, ctypes.c_int64, ctypes.c_void_p]
        lib.sf_run.restype = ctypes.c_int64
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
    """The compiled iterations and residual check bound to one solve's arrays.

    Every array is checked once here and its pointer stored, so a call
    converts nothing. ``flows``, ``slacks``, ``totals`` and ``excesses`` are
    updated in place by :meth:`run` and must outlive this object, which
    keeps references to them. Each iteration is an over-relaxed sweep with
    factor ``omega``, or, given ``scale`` (the instance's power-of-two
    scale, the unit in which the step reads slope and curvature), a PGD
    step with the exact step length.
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
        if n_arcs and not (
            min(tails.min(), heads.min()) >= 0 and max(tails.max(), heads.max()) < n_vertices
        ):
            raise ValueError(f"arc endpoints must lie in [0, {n_vertices})")
        work = None
        if scale is not None:
            # Flow moves; gap and slack moves; inflow and outflow of one
            # commodity.
            work = np.empty(flows.size + 2 * n_arcs + 2 * n_vertices)
        self._arrays = (flows, slacks, totals, excesses, caps, tails, heads, work)
        self._state = _State(
            *(None if array is None else array.ctypes.data for array in self._arrays),
            n_vertices,
            n_arcs,
            n_commodities,
            scale is not None,
            use_threshold,
            omega,
            scale or 0.0,
        )
        self._ref = ctypes.byref(self._state)
        self._rows = np.empty((SEGMENT, 3))
        self._rows_ptr = self._rows.ctypes.data
        self._out = (ctypes.c_double * 2)()
        self._lib = lib

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

    def residuals(self) -> tuple[float, float]:
        """(used residual, unused residual) of the current state."""
        self._lib.sf_residuals(self._ref, self._out)
        return self._out[0], self._out[1]


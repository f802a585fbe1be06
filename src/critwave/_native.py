"""One shared library of the package's C kernels, built at import: the
stepper of ``evolve`` (``_verlet.c``, one cache-blocked sweep per
velocity-Verlet step), the spline evaluation of ``fields.UniformSpline``
(``_spline.c``), the sums of ``RadialField.cross_derivs`` (``_cross.c``,
the cross term with W_sigma and its two sigma-derivatives in one pass) and
the box fit's full-grid passes (``_box.c``: the mode integrals of
``modulation.box_mode_integrals``, ``Box3DGrid.h1_sq`` and the ||v||_H cross
term ``modulation._box_cross``, each bitwise the numpy code it replaced);
and the checked addresses of the arrays they take.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCES = tuple(Path(__file__).with_name(name)
                for name in ("_verlet.c", "_spline.c", "_cross.c", "_box.c"))
# -march=native builds for the host's vectors; -ffp-contract=off keeps
# every multiply and add separately rounded, as numpy rounds them, so each
# kernel is bitwise the numpy code it replaced on any instruction set;
# -fno-math-errno lets sqrt vectorize (no kernel reads errno), which leaves
# every value as it is
_CFLAGS = ("-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off",
           "-fno-math-errno")


class Stride(ctypes.Structure):
    """The step account of a run (``cw_stride``), which each advance()
    stride adds to: ``steps``, the ``capped`` steps whose nonlinear dt cap
    was below dt0, and the smallest dt ``min_dt`` (inf before the first)."""

    _fields_ = [("min_dt", ctypes.c_double), ("steps", ctypes.c_longlong),
                ("capped", ctypes.c_longlong)]

    def __init__(self):
        super().__init__(min_dt=math.inf)


def _query(cc: str, *args) -> bytes:
    """The standard output of ``cc args``, with no input."""
    return subprocess.run([cc, *args], capture_output=True, check=True,
                          stdin=subprocess.DEVNULL).stdout


def build_library(sources, cc: str, cache_dir: Path) -> Path:
    """The shared library of the C files ``sources``, built by the compiler
    command ``cc`` into ``cache_dir`` unless it is there already, named by
    a hash of every source, the flags, ``cc --version`` and the macros that
    ``cc`` defines under the flags' -m options (``-dM -E``), which name the
    instruction set that -march=native picks on this host: a tree shared
    between machines never loads a library built for another CPU.  The
    compiler writes a temporary file that is renamed into place, so
    processes may build into one directory at once; a new build deletes
    every other library there (of another key, or of an older name).
    ImportError when ``cc`` cannot be run or fails."""
    try:
        version = _query(cc, "--version")
        isa = _query(cc, *(f for f in _CFLAGS if f.startswith("-m")),
                     "-dM", "-E", "-")
    except (OSError, subprocess.CalledProcessError) as exc:
        raise ImportError(f"critwave compiles its kernels with the C "
                          f"compiler command {cc!r}, which could not be run "
                          f"({exc}); install a C compiler") from exc
    key = hashlib.sha256(b"\0".join([*(s.read_bytes() for s in sources),
                                     " ".join(_CFLAGS).encode(), version,
                                     isa])).hexdigest()[:16]
    lib = cache_dir / f"_native-{key}.so"
    if lib.exists():
        return lib
    tmp = None
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_native-", suffix=".tmp",
                                   dir=cache_dir)
        os.close(fd)
        subprocess.run([cc, *_CFLAGS, "-o", tmp, *map(str, sources), "-lm"],
                       capture_output=True, check=True, text=True)
        os.replace(tmp, lib)
        for old in cache_dir.glob("*.so"):
            if old != lib:
                old.unlink(missing_ok=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        raise ImportError(f"could not build {', '.join(map(str, sources))} "
                          f"with {cc!r} into {cache_dir}: {detail}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def load_library(path: Path) -> ctypes.CDLL:
    """The library at ``path`` with every function's signature; arrays go
    in as raw addresses, each checked first by :func:`address`."""
    lib = ctypes.CDLL(str(path))
    ptr, n, real = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    lib.cw_steps.argtypes = [n, ptr, ptr, ptr, ptr, ptr, real, real,
                             ctypes.c_longlong, real]
    lib.cw_steps.restype = None
    lib.cw_advance.argtypes = [n, ptr, ptr, ptr, ptr, ptr, real, real, real,
                               real, real, ctypes.POINTER(real), real,
                               ctypes.POINTER(Stride)]
    lib.cw_spline.argtypes = [n, ptr, n, ptr, n, ptr, real, ptr]
    lib.cw_spline.restype = None
    lib.cw_cross_sums.argtypes = [n, ptr, ptr, real, ctypes.c_int, ptr]
    lib.cw_cross_sums.restype = None
    lib.cw_box_mode_sums.argtypes = [n, ptr, ptr, ptr, ptr, ptr, real, real,
                                     real, real, real, real, n, ptr, n, ptr,
                                     real, n, ptr]
    lib.cw_box_mode_sums.restype = None
    lib.cw_box_h1_sq.argtypes = [n, ptr, ptr, ptr, real]
    lib.cw_box_h1_sq.restype = real
    lib.cw_box_cross.argtypes = [n, ptr, ptr, ptr, real, ptr, real, real,
                                 real, real, real]
    lib.cw_box_cross.restype = real
    return lib


def address(x, n, dtype=np.float64) -> int:
    """The address of x for a kernel, which the caller holds until the
    kernel returns; n is the length of a 1-D array or the shape of an
    array of more axes (a box cube, an edge-row table).  TypeError unless
    x is a C-contiguous ndarray of dtype (float64 samples, or the box
    fit's int16 node indices) with that many axes (numpy's ``ndpointer``
    checks), ValueError unless it has that shape: no array is copied on
    its way to a kernel."""
    shape = n if isinstance(n, tuple) else (n,)
    if (isinstance(x, np.ndarray) and x.dtype == dtype and x.shape == shape
            and x.flags.c_contiguous):
        return x.ctypes.data
    dtype = np.dtype(dtype)
    if not (isinstance(x, np.ndarray) and x.dtype == dtype
            and x.ndim == len(shape) and x.flags.c_contiguous):
        what = (f"{x.dtype} {x.shape}, C-contiguous {x.flags.c_contiguous}"
                if isinstance(x, np.ndarray) else type(x).__name__)
        raise TypeError(f"a kernel takes a {len(shape)}-D C-contiguous "
                        f"{dtype} ndarray, not {what}")
    raise ValueError(f"a kernel expected shape {shape}, got {x.shape}")


# built once per compiler and set of sources, at import: no run pays for it
LIB = load_library(build_library(SOURCES, "cc", SOURCES[0].parent
                                 / "__pycache__"))

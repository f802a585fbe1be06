"""Repository tooling: the benchmark's tracer and the package's own code."""

import ast
import ctypes
import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from critwave import _native, evolve, fields, modulation
from critwave.experiments import assemble_box_exact, random_box_closure
from critwave.grids import BLOCK_POINTS, Box3DGrid, RadialGrid
from critwave.modulation import fit_modulation
from critwave.spectral import build_spectral_data

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "critwave"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracing_targets_resolve():
    tracing = _load_tracing()
    assert tracing.TARGETS
    for _, module, path, _ in tracing.TARGETS:
        # raises when the module, class or function is gone
        _, _, original = tracing._resolve(module, path)
        assert callable(original), f"critwave.{module}.{path}"


def test_default_spectral_build_factorizes_three_times(lapack_calls):
    # one banded Cholesky for the fixed shift and one banded LU for each of
    # the two Rayleigh-quotient shifts
    build_spectral_data(cross_check=False)
    assert lapack_calls == {"cholesky_banded": 1, "cho_solve_banded": 8,
                            "solve_banded": 2}


def _logging_cc(tmp_path):
    """A compiler command that appends its arguments to a log and runs cc."""
    log = tmp_path / "cc.log"
    cc = tmp_path / "logging-cc"
    cc.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\nexec cc "$@"\n')
    cc.chmod(0o755)
    return str(cc), log


# the key's queries of the compiler: its version and the host's ISA
_KEY_QUERIES = ["--version", "-march=native -dM -E -"]


def test_warm_kernel_cache_compiles_nothing(tmp_path):
    cc, log = _logging_cc(tmp_path)
    cache = tmp_path / "cache"
    lib = _native.build_library(_native.SOURCES, cc, cache)
    first = log.read_text().splitlines()
    assert first[:2] == _KEY_QUERIES and len(first) == 3  # key, then build
    # one build of every source into one library, for the host's ISA
    assert all(str(s) in first[2].split() for s in _native.SOURCES)
    assert "-march=native" in first[2].split()
    assert _native.build_library(_native.SOURCES, cc, cache) == lib
    # the key still asks for the version and the ISA; no second build
    assert log.read_text().splitlines()[3:] == _KEY_QUERIES
    assert list(cache.iterdir()) == [lib]


def test_another_host_isa_builds_under_a_new_key(tmp_path):
    # a compiler that names one more instruction-set macro stands for
    # another CPU: its key differs, so the tree's library is rebuilt
    cache = tmp_path / "cache"
    cc, log = _logging_cc(tmp_path)
    here = _native.build_library(_native.SOURCES, cc, cache)
    other = tmp_path / "other-cpu-cc"
    other.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\n'
                     'case " $* " in *" -dM "*) cc "$@" || exit 1; '
                     'echo "#define __CRITWAVE_OTHER_CPU__ 1";; '
                     '*) exec cc "$@";; esac\n')
    other.chmod(0o755)
    there = _native.build_library(_native.SOURCES, str(other), cache)
    assert there != here and not here.exists()
    calls = log.read_text().splitlines()
    # the second key's queries, then a build
    assert calls[3:5] == _KEY_QUERIES and len(calls) == 6
    assert all(str(s) in calls[5].split() for s in _native.SOURCES)
    assert list(cache.iterdir()) == [there]


def _stride(lib, ev, w, v, t, t_target):
    """One cw_advance stride of ``lib`` on ``ev``'s grid from copies of
    (w, v): (w, v, t, stop code, step account)."""
    w, v = np.array(w, dtype=float), np.array(v, dtype=float)
    t = ctypes.c_double(t)
    account = _native.Stride()
    stop = ev._call(lib.cw_advance, w, v, np.empty(ev.grid.n), ev.dt0,
                    ev.dt0 / evolve.DT_FLOOR_FACTOR, evolve._MAX_SAFE_AMP,
                    ctypes.byref(t), t_target, ctypes.byref(account))
    return w, v, t.value, stop, account


def _spline(lib, spline, r):
    """cw_spline of ``lib`` on the pieces of a fields.UniformSpline."""
    x, k, n = spline._x, spline._k, r.size
    out = np.empty(k * n)
    lib.cw_spline(n, _native.address(r, n), len(x),
                  _native.address(x, len(x)), k,
                  _native.address(spline._coef, (len(x) - 1) * k * 4),
                  spline._inv_h, _native.address(out, k * n))
    return out


def _cross_sums(lib, fld, sigma):
    """cw_cross_sums of ``lib`` for the field ``fld`` at sigma."""
    g, out = fld.grid, np.empty(3)
    lib.cw_cross_sums(g.n, _native.address(fld._du_meas, g.n),
                      _native.address(g.r, g.n),
                      math.exp(2.0 * sigma) / (g.d * (g.d - 2.0)), g.d,
                      _native.address(out, 3))
    return out


def test_host_and_portable_builds_bitwise(tmp_path, monkeypatch, spectral):
    # the kernels built with and without -march=native: with
    # -ffp-contract=off neither fuses a multiply and an add, and the cross
    # term's sums are taken in node order in both, so every result is
    # byte-equal, NaN bits included
    host = _native.load_library(_native.build_library(
        _native.SOURCES, "cc", tmp_path / "host"))
    monkeypatch.setattr(_native, "_CFLAGS", tuple(
        f for f in _native._CFLAGS if f != "-march=native"))
    portable = _native.load_library(_native.build_library(
        _native.SOURCES, "cc", tmp_path / "portable"))

    def same(*args):
        a, b = (_stride(lib, *args) for lib in (host, portable))
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()
        assert a[2:4] == b[2:4] and bytes(a[4]) == bytes(b[4])
        return a

    # an odd grid, past the last full vector of any width
    grid = RadialGrid(3, 16.0, 1024, "uniform").head(1023)
    ev = evolve.RadialWaveEvolver(grid, 0.45)
    # a focusing pulse: the cap engages mid-stride, then the floor stops it
    w = np.exp(-((grid.r - 4.0) / 0.5) ** 2)
    v, t, stops, capped = np.gradient(w, grid.r), 0.0, [], 0
    while not stops or stops[-1] == 0:
        w, v, t, stop, account = same(ev, w, v, t, t + 0.5)
        stops.append(stop)
        capped += account.capped if stop == 0 else 0
    assert stops[-1] == 1 and capped > 0
    # overflow at entry, and a NaN velocity that overflows w in one step
    assert same(ev, 1e160 * w, v, 0.0, 1.0)[3] == 2
    nan_v = np.zeros(grid.n)
    nan_v[100] = math.nan
    out = same(ev, 0.1 * w, nan_v, 1.5, 2.0)
    assert out[3] == 2 and out[4].steps == 1
    # the spline at random points, beyond its last node and non-finite
    g = RadialGrid(3, 8.0, 257, "uniform")
    rng = np.random.default_rng(3)
    spline = fields.UniformSpline(g, rng.standard_normal((g.n, 3)),
                                  np.array([1.0, -1.0, 1.0]))
    r = np.concatenate([rng.uniform(-9.0, 9.0, 4001),
                        [0.0, g.r[-1], math.inf, -math.inf, math.nan]])
    assert (_spline(host, spline, r).tobytes()
            == _spline(portable, spline, r).tobytes())
    # the cross term's sums over an odd grid, and the d_0 minimizer that
    # the search finds from them, unseeded and seeded
    g = RadialGrid(3, 64.0, 8192, "uniform").head(4097)
    u1 = (np.asarray(fields.eval_W(3, (0.8 * g.r) ** 2))
          + 0.05 * np.exp(-((g.r - 20.0) / 4.0) ** 2))
    fld = fields.RadialField(g, u1)
    for sigma in (-8.0, -2.8, 0.0, 3.5):
        assert (_cross_sums(host, fld, sigma).tobytes()
                == _cross_sums(portable, fld, sigma).tobytes())
    found = []
    for lib in (host, portable):
        monkeypatch.setattr(_native, "LIB", lib)
        for seed in (None, 0.5):
            s = fields.State(fields.RadialField(g, u1),
                             fields.RadialField(g, np.zeros(g.n)))
            found.append(modulation.manifold_distance(spectral, s, seed))
    assert repr(found[:2]) == repr(found[2:])
    # the box passes on an odd grid, whose z rows straddle the summation
    # leaves, with samples over twelve orders of magnitude and c on no node
    g = Box3DGrid(5.0, 17)
    f = (rng.standard_normal((17, 17, 17))
         * 10.0 ** rng.uniform(-6.0, 6.0, (17, 17, 17)))
    n = BLOCK_POINTS + 129
    nodes = tuple(rng.integers(0, 17, n).astype(np.int16) for _ in range(3))
    u, c = rng.standard_normal(n), np.array([0.13, -0.27, 0.05])
    box = []
    for lib in (host, portable):
        monkeypatch.setattr(_native, "LIB", lib)
        box.append([g.h1_sq(f).hex(), modulation._box_cross(g, f, 0.3, c).hex(),
                    modulation.box_mode_integrals(spectral, g, -0.3, c, nodes,
                                                  u, 1.0).tobytes()])
    assert box[0] == box[1]


def _copied_sources(tmp_path):
    sources = [tmp_path / s.name for s in _native.SOURCES]
    for copy, source in zip(sources, _native.SOURCES):
        copy.write_bytes(source.read_bytes())
    return sources


def test_changed_kernel_source_builds_under_a_new_key(tmp_path):
    sources = _copied_sources(tmp_path)
    cache = tmp_path / "cache"
    old = _native.build_library(sources, "cc", cache)
    # a concurrent build's temporary file
    pending = cache / "_native-concurrent.tmp"
    pending.write_bytes(b"")
    # a library left under the stepper's former name
    former = cache / "_verlet-0123456789abcdef.so"
    former.write_bytes(b"")
    sources[0].write_bytes(sources[0].read_bytes() + b"\n/* changed */\n")
    new = _native.build_library(sources, "cc", cache)
    assert new != old
    # only the new library remains beside the temporary file
    assert sorted(cache.iterdir()) == sorted([new, pending])


@pytest.mark.parametrize("edited", range(len(_native.SOURCES)))
def test_editing_any_source_rekeys_the_one_library(tmp_path, edited):
    sources = _copied_sources(tmp_path)
    cache = tmp_path / "cache"
    old = _native.build_library(sources, "cc", cache)
    sources[edited].write_bytes(sources[edited].read_bytes() + b"\n")
    new = _native.build_library(sources, "cc", cache)
    assert new != old and not old.exists()
    assert list(cache.iterdir()) == [new]
    lib = _native.load_library(new)
    # every kernel of the package is in it
    assert all(hasattr(lib, f) for f in ("cw_steps", "cw_advance",
                                         "cw_spline", "cw_cross_sums"))


_BUILD_AND_RUN = """
import sys
from pathlib import Path
import numpy as np
from critwave import _native, evolve, fields
from critwave.grids import RadialGrid
lib = _native.load_library(_native.build_library(_native.SOURCES, "cc",
                                                 Path(sys.argv[1])))
ev = evolve.RadialWaveEvolver(RadialGrid(3, 8.0, 64, "uniform"), 0.45)
w, v = ev.r * np.exp(-ev.r_sq), np.zeros(64)
a = np.empty(64)
ev._call(lib.cw_steps, w, v, a, 0, 0.0)
print(a.tobytes().hex())
"""


def test_two_processes_build_into_one_cold_cache(tmp_path):
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(
            os.pathsep)))
    procs = [subprocess.Popen([sys.executable, "-c", _BUILD_AND_RUN,
                               str(cache)], stdout=subprocess.PIPE, env=env,
                              text=True)
             for _ in range(2)]
    outs = [p.communicate(timeout=120)[0].strip() for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    ev = evolve.RadialWaveEvolver(RadialGrid(3, 8.0, 64, "uniform"), 0.45)
    want = ev.force(ev.r * np.exp(-ev.r_sq), np.zeros(64)).tobytes().hex()
    assert outs == [want, want]
    # one library, no temporary file left behind
    assert [p.suffix for p in cache.iterdir()] == [".so"]


def test_missing_compiler_raises_import_error(tmp_path):
    with pytest.raises(ImportError, match="critwave-no-such-cc"):
        _native.build_library(_native.SOURCES, "critwave-no-such-cc",
                              tmp_path)
    assert not list(tmp_path.iterdir())


def test_failed_build_raises_import_error_and_leaves_no_file(tmp_path):
    source = tmp_path / "broken.c"
    source.write_text("int cw_steps(void) { return }\n")
    cache = tmp_path / "cache"
    with pytest.raises(ImportError, match="could not build"):
        _native.build_library([*_native.SOURCES, source], "cc", cache)
    assert not list(cache.iterdir())


class TestKernelArguments:
    """Every array goes to a kernel as a raw address, checked first."""

    @pytest.mark.parametrize("bad, error", [
        (np.zeros(8, dtype=np.float32), TypeError),
        (np.zeros(16)[::2], TypeError),
        (np.zeros((2, 4)), TypeError),
        ([0.0] * 8, TypeError),
        (np.zeros(7), ValueError),
        (np.zeros(9), ValueError)], ids=["float32", "strided", "2-D",
                                         "list", "short", "long"])
    def test_bad_array_raises(self, bad, error):
        with pytest.raises(error):
            _native.address(bad, 8)

    @pytest.mark.parametrize("bad", [np.zeros(64, dtype=np.float32),
                                     np.zeros(128)[::2], np.zeros(63)],
                             ids=["float32", "strided", "short"])
    @pytest.mark.parametrize("slot", range(3))
    def test_stepper_arguments_checked_before_the_call(self, bad, slot):
        ev = evolve.RadialWaveEvolver(RadialGrid(3, 8.0, 64, "uniform"), 0.45)
        arrays = [np.zeros(64), np.zeros(64), np.zeros(64)]
        arrays[slot] = bad
        calls = []
        with pytest.raises((TypeError, ValueError)):
            ev._call(lambda *args: calls.append(args), *arrays, 0, 0.0)
        assert calls == []
        # the same arrays, checked, reach the kernel
        arrays[slot] = np.zeros(64)
        ev._call(lambda *args: calls.append(args), *arrays, 0, 0.0)
        assert len(calls) == 1


# package definitions kept without a caller in src/, each with its reason
ALLOWED_UNCALLED = {
    "save_state": "the documented writer of the file recipe's format",
    "region_predicates": "the energy-band evidence of the quadrant rows, "
                         "whose caller is still open on the roadmap",
    "error": "the CLI parser's override, which argparse calls on a usage "
             "error",
}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_names(fn) -> set:
    """Names bound in fn's own scope: its parameters and every assignment,
    loop or comprehension target outside its nested functions."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a}
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _references(node, scopes=(), called=False):
    """(name, line, kind) of each attribute (kind "call" when it is called,
    "attribute" otherwise), and of each name load that no enclosing
    function binds locally (kind "name")."""
    if isinstance(node, _SCOPES):
        scopes = scopes + (_local_names(node),)
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if not any(node.id in names for names in scopes):
            yield node.id, node.lineno, "name"
    elif isinstance(node, ast.Attribute):
        yield node.attr, node.lineno, "call" if called else "attribute"
    for child in ast.iter_child_nodes(node):
        yield from _references(child, scopes, isinstance(node, ast.Call)
                               and child is node.func)


_PROPERTIES = {"property", "cached_property"}


def _data_attributes(tree) -> set:
    """Names that a module stores or reads as data on an object: attribute
    assignments, object.__setattr__ names, class-level fields and
    assignments, ctypes _fields_ names and properties."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__setattr__" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                targets = (item.targets if isinstance(item, ast.Assign)
                           else [item.target] if isinstance(item, ast.AnnAssign)
                           else [])
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
                if any(isinstance(t, ast.Name) and t.id == "_fields_"
                       for t in targets):
                    names |= {e.elts[0].value for e in item.value.elts}
                if _is_property(item):
                    names.add(item.name)
    return names


def _is_property(node) -> bool:
    return isinstance(node, ast.FunctionDef) and any(
        getattr(d, "id", getattr(d, "attr", None)) in _PROPERTIES
        for d in node.decorator_list)


def _uncalled(package: Path) -> list:
    """(name, "file:line") of each function or class of the package that
    nothing in it references outside its own definition.  A method (a
    function in a class body, not a property) whose name is also a data
    attribute in the package is referenced only by a call of that name or
    a bare name: a read of the data attribute is not a reference to it."""
    definitions, references, data = [], [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(item) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for item in cls.body
                   if isinstance(item, ast.FunctionDef)
                   and not _is_property(item)}
        definitions += [(node.name, path, node.lineno, node.end_lineno,
                         id(node) in methods)
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        references += [(name, path, line, kind)
                       for name, line, kind in _references(tree)]
        data |= _data_attributes(tree)
    return [(name, f"{path.name}:{first}")
            for name, path, first, last, method in definitions
            if not any(ref == name
                       and (where != path or not first <= line <= last)
                       and not (method and name in data
                                and kind == "attribute")
                       for ref, where, line, kind in references)]


def test_every_definition_has_a_caller():
    # a function or class of the package must be referenced in src/ outside
    # its own definition (an import, so an export in __init__, is not a
    # reference; nor is a local variable or parameter of the same name, or
    # a read of a data attribute named like a method), be wrapped by the
    # benchmark's tracer or be allow-listed above; dunders are called by
    # Python
    traced = {name for _, _, path, _ in _load_tracing().TARGETS
              for name in path.split(".")}
    uncalled = _uncalled(PACKAGE)
    assert [f"{where} {name}" for name, where in uncalled
            if not (name.startswith("__") and name.endswith("__"))
            and name not in traced and name not in ALLOWED_UNCALLED] == []
    # the allow-list cannot go stale: each name is defined and still uncalled
    assert sorted(name for name, _ in uncalled
                  if name in ALLOWED_UNCALLED) == sorted(ALLOWED_UNCALLED)


def test_a_method_named_like_a_data_attribute_needs_a_call(tmp_path):
    # an uncalled method "grid" on BoostParams, beside the grid attributes
    # that src/ reads everywhere, which a match by name alone took for its
    # callers; "scale_of", named like nothing, shows that the edit took
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    fields_py = tmp_path / "fields.py"
    anchor = "    @property\n    def p_norm(self)"
    assert fields_py.read_text().count(anchor) == 1
    fields_py.write_text(fields_py.read_text().replace(anchor, (
        "    def grid(self):\n        return self.sigma\n\n"
        "    def scale_of(self):\n        return self.sigma\n\n" + anchor)))
    uncalled = {name for name, _ in _uncalled(tmp_path)}
    assert {"grid", "scale_of"} <= uncalled
    assert not {"grid", "scale_of"} & {name for name, _ in _uncalled(PACKAGE)}


# methods that change a list, dict or set in place
_MUTATORS = {"append", "extend", "insert", "remove", "pop", "clear", "update",
             "setdefault", "popitem", "add", "discard", "sort", "reverse"}


def _module_stores(node, module_names, scopes=()):
    """(name, line) of each subscript store into, or mutating method call
    on, a module-level name inside a function that does not bind it."""
    if isinstance(node, _SCOPES):
        scopes = scopes + (_local_names(node),)
    elif scopes:
        target = None
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            target = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS):
            target = node.func.value
        if (isinstance(target, ast.Name) and target.id in module_names
                and not any(target.id in names for names in scopes)):
            yield target.id, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _module_stores(child, module_names, scopes)


def test_no_function_stores_into_module_state():
    # a cache belongs to the object it describes: no package function
    # writes into a container assigned at module level
    stores = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        module_names = {target.id for node in tree.body
                        if isinstance(node, (ast.Assign, ast.AnnAssign))
                        for target in (node.targets if isinstance(
                            node, ast.Assign) else [node.target])
                        if isinstance(target, ast.Name)}
        stores += [f"{path.name}:{line} {name}"
                   for name, line in _module_stores(tree, module_names)]
    assert stores == []


def test_every_parameter_is_read():
    # a parameter of a package function must be read in its body (nested
    # functions included); self, cls and _-prefixed names are exempt
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {node.name}({p})"
                       for p in params
                       if p not in ("self", "cls") and not p.startswith("_")
                       and p not in read]
    assert unread == []


def _nbytes(obj) -> int:
    """Bytes of the numpy arrays an object holds, through dicts, sequences
    and instance attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(v) for v in vars(obj).values())
    return 0


def test_box_round_trip_memory_budget(spectral):
    # tracemalloc sees numpy's array buffers.  The closure, the assembly and
    # the fit each allocate at most two (m, m, m) cubes beyond what they
    # keep (their outputs and the spectrum's box caches), plus the arrays of
    # one slab pass; the fit's share includes the first build of the fit
    # references.  The box caches hold at most two cubes (Lambda_0 rho and
    # the mode slope) plus the lattices: int16 axis indices of the ball and
    # coarse nodes, and W on the coarse lattice.  Measured at m = 100:
    # 2.09, 0.13 and 1.59 cubes (the W cube of the first build is now
    # transient, and the compiled gradient passes allocate nothing; 2.18,
    # 0.13 and 2.18 with them in numpy), and 2.0004 cubes plus the
    # lattices (0.61 cubes); with
    # float64 point sets and W and ball cubes the caches held 3.0004 cubes
    # plus the point sets, and the whole-cube layer took 8.0, 6.0 and 5.0
    # and held 5.0.
    spec = dataclasses.replace(spectral)      # an empty cache
    g = Box3DGrid(20.0, 100)
    cube = 8 * g.m ** 3
    slab = 8 * g.m ** 2 * max(BLOCK_POINTS // g.m ** 2, 1)
    x, y, z = g.open_mesh
    n_ball = int(np.count_nonzero(np.sqrt(x * x + y * y + z * z)
                                  <= g.half_width))
    n_coarse = -(-g.m // 2) ** 3
    lattices = 3 * 2 * (n_ball + n_coarse) + 8 * n_coarse
    rng = np.random.default_rng(7)

    def transient(fn):
        tracemalloc.reset_peak()
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
        return out, peak - current

    tracemalloc.start()
    try:
        closure, closure_extra = transient(
            lambda: random_box_closure(spec, g, rng))
        u, assembly_extra = transient(
            lambda: assemble_box_exact(g, 1, 0.1, (0.2, -0.1, 0.0), closure))
        fit, fit_extra = transient(lambda: fit_modulation(u, spec))
    finally:
        tracemalloc.stop()
    assert fit.converged
    budget = 2 * cube + 8 * slab
    assert closure_extra <= budget, closure_extra / cube
    assert assembly_extra <= budget, assembly_extra / cube
    assert fit_extra <= budget, fit_extra / cube
    held = (_nbytes(spec._per_grid[("box_modes", g)])
            + _nbytes(spec._per_grid[("box_fit_refs", g)]))
    assert held <= 2 * cube + lattices + cube // 100, (held - lattices) / cube

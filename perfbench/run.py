#!/usr/bin/env python3
"""critwave benchmark: one workload per process.

    python3 perfbench/run.py --workload quadrant --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory, and the run stops with exit code 2 when it
is not there.  The run sets up the workload once untimed (the first
set-ups of a process run on a cold allocator and are up to four times
slower), then seven times timed (``setup_s`` is the median), then repeats
the workload's unit of timed work until ``--seconds`` have passed (always
at least one whole unit).  Every operation's output is
checked; a failed check is counted, not raised.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` times one
untraced unit, then sets up and runs one unit again with the layer wrappers
of ``tracing.py`` installed, removes them, and reports the per-layer
metrics and the tracing overhead; the spans go to a trace file.

The human-readable summary goes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A result file with provenance, every check and the result fingerprints is
written under ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

N_SETUP = 7
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"


def _import_program():
    """Import critwave from the checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "critwave" / "__init__.py").is_file():
        sys.stderr.write(f"critwave sources not found under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import critwave
    if Path(critwave.__file__).resolve().parent != (src / "critwave").resolve():
        sys.stderr.write(f"imported critwave from {critwave.__file__}, not {src}\n")
        sys.exit(2)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads(cap: int) -> list[dict]:
    """OpenBLAS thread count of each loaded BLAS, capped at ``cap``."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return []
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get is None:
                continue
            get.restype = ctypes.c_int
            default = get()
            if default > cap:
                getattr(lib, f"{prefix}_set_num_threads{suffix}")(ctypes.c_int(cap))
            found.append({"library": os.path.basename(path), "default": default,
                          "threads": get()})
            break
    return found


def provenance(seed: int, nproc: int, blas: list) -> dict:
    import numpy as np
    import scipy
    blas_build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"commit": _git_commit(), "nproc": nproc,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_build": {k: blas_build.get(k) for k in
                           ("name", "version", "openblas configuration")},
            "blas_threads": blas, "seed": seed, "machine": platform.machine()}


def _median(values):
    return statistics.median(values) if values else 0.0


def _run_units(workload, ctx, size, seed, seconds):
    """Whole units of timed work until ``seconds`` have passed."""
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        res = workload.unit(ctx, size, seed, str(OUT_DIR))
        units.append((time.perf_counter() - t0, res))
    return units


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size_name: str = "full") -> dict:
    """Run one workload and return its result document; ``size_name`` is
    "full" for the benchmark and "toy" for the harness self-test."""
    import workloads
    import tracing

    workload = workloads.WORKLOADS[name]
    size = workloads.SIZES[name][size_name]
    OUT_DIR.mkdir(exist_ok=True)
    started = _now()
    # every context stays alive: critwave caches per-spectrum values under
    # id(spectral data), and a recycled id would hand a later set-up a
    # warm cache
    contexts, setup_times = [workload.setup(size)], []
    for _ in range(N_SETUP):
        t0 = time.perf_counter()
        contexts.append(workload.setup(size))
        setup_times.append(time.perf_counter() - t0)
    units = _run_units(workload, contexts[-1], size, seed,
                       0.0 if trace else seconds)
    doc = {"workload": name, "size": size_name, "seed": seed, "trace": trace,
           "started": started, "setup_s": setup_times,
           "unit_s": [dt for dt, _ in units]}
    results = [res for _, res in units]

    harness_checks = {}
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.root():
                with tracer.phase("bench.setup"):
                    contexts.append(workload.setup(size))
                t0 = time.perf_counter()
                with tracer.phase("bench.unit"):
                    traced = workload.unit(contexts[-1], size, seed, str(OUT_DIR))
                wall_traced = time.perf_counter() - t0
        finally:
            harness_checks["originals restored"] = tracer.uninstall()
        gap = tracer.partition_gap()
        harness_checks["self times partition the workload span"] = (
            abs(gap) <= 1e-6 * max(tracer.root_total, 1.0))
        harness_checks["traced results equal untraced"] = (
            traced.fingerprint == results[0].fingerprint)
        results.append(traced)
        metrics = tracer.layer_metrics(units[0][0], wall_traced)
        trace_path = OUT_DIR / f"trace-{name}-seed{seed}-{os.getpid()}.json"
        with open(trace_path, "w") as fh:
            json.dump(tracer.dump(), fh)
        doc["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": _median(setup_times), "unit": "s"},
            "wall_s": {"value": _median(doc["unit_s"]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }

    checks = [c for res in results for c in res.checks]
    kinds = sorted({kind for res in results for kind, _ in res.ops})
    doc.update({
        "finished": _now(),
        "attempted": len(checks),
        "failed": sum(not c["passed"] for c in checks),
        "metrics": metrics,
        "op_medians_s": {kind: _median([dt for res in results
                                        for k, dt in res.ops if k == kind])
                         for kind in kinds},
        "op_counts": {kind: sum(k == kind for res in results for k, _ in res.ops)
                      for kind in kinds},
        "artifact_bytes": [res.artifact_bytes for res in results],
        "harness_checks": harness_checks,
        "checks": checks,
        "fingerprints": [res.fingerprint for res in results],
    })
    doc["correct"] = doc["failed"] == 0 and all(harness_checks.values())
    return doc


OP_LABELS = {"blowup": "dir_blowup_s", "scatter": "dir_scatter_s",
             "horizon": "dir_horizon_s", "undetermined": "dir_undetermined_s",
             "box_fit": "box_fit_s", "radial_fit": "radial_fit_s",
             "spectral_build": "crosscheck_build_s"}


def summary(doc: dict) -> str:
    lines = [f"workload {doc['workload']} ({doc['size']}), seed {doc['seed']}, "
             f"trace {int(doc['trace'])}, {len(doc['unit_s'])} unit(s)"]
    for name, m in doc["metrics"].items():
        lines.append(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for kind, value in doc["op_medians_s"].items():
        lines.append(f"  {OP_LABELS.get(kind, kind):36s} {value:.6g} s "
                     f"(median of {doc['op_counts'][kind]})")
    lines.append(f"  {'failed_frac':36s} {doc['failed'] / max(doc['attempted'], 1):.6g} "
                 f"fraction ({doc['failed']} of {doc['attempted']} checked operations)")
    for c in doc["checks"]:
        if not c["passed"]:
            lines.append(f"  FAILED {c['name']}: {'; '.join(c['reasons'])}")
    for name, ok in doc["harness_checks"].items():
        lines.append(f"  {'ok' if ok else 'FAILED'} {name}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("quadrant", "ejection", "static"))
    ap.add_argument("--seed", type=int, default=20240801)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    nproc = len(os.sched_getaffinity(0))
    blas = _blas_threads(nproc)
    doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    doc["provenance"] = provenance(args.seed, nproc, blas)
    path = OUT_DIR / (f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
    print(summary(doc))
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer tracing for the benchmark's traced pass.

For the length of one traced pass, wrappers replace critwave's functions
and methods; afterwards every original is put back.  The library itself is
not edited.  A function is patched wherever it is looked up: ``from .x
import f`` copies ``f`` into other critwave modules, so every module
attribute that *is* the original is replaced, not only the defining one.

There are two kinds of wrapper:

* span wrappers record ``(id, name, start, end, parent, group)`` for calls
  at the level of a modulation fit and above (``group`` is the direction-run
  id, or the static suite's check group);
* aggregate wrappers only count calls and sum inclusive and self time, for
  calls made once per time step or per grid sweep, where a record per call
  would cost more than the call.

Both keep one stack of open frames, so a frame's self time is its duration
minus the wrapped calls it made, and the self times of all frames plus the
root's own partition the root span exactly.

``fields.eval_W`` is deliberately not wrapped: the shooting cross-check
calls it once per ODE right-hand side (about 10^6 times per build).
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

SPAN, AGGREGATE = "span", "aggregate"

# (node key, defining module, attribute path, kind).  A dotted attribute
# path names a method, patched on its class.
TARGETS = [
    ("experiments.run_quadrant_sweep", "experiments", "run_quadrant_sweep", SPAN),
    ("experiments.run_experiment", "experiments", "run_experiment", SPAN),
    ("experiments.run_static_suite", "experiments", "run_static_suite", SPAN),
    ("experiments.initial_state", "experiments", "build_initial_state", SPAN),
    ("experiments.postprocess", "experiments", "linearized_lambda_deviation", SPAN),
    ("experiments.postprocess", "evolve", "one_pass_check", SPAN),
    ("experiments.round_trip_input", "experiments", "random_orthogonal_residual", SPAN),
    ("experiments.round_trip_input", "experiments", "random_box_closure", SPAN),
    ("experiments.round_trip_input", "experiments", "assemble_box_exact", SPAN),
    ("experiments.artifact_write", "evolve", "TrajectoryRecord.to_csv", SPAN),
    ("experiments.artifact_write", "evolve", "TrajectoryRecord.to_extended_csv", SPAN),
    ("experiments.artifact_write", "evolve", "TrajectoryRecord.save_verdict", SPAN),
    ("experiments.artifact_write", "experiments", "QuadrantTable.to_csv", SPAN),
    ("experiments.artifact_write", "experiments", "QuadrantTable.to_json", SPAN),
    ("evolve.evolve_with_monitors", "evolve", "evolve_with_monitors", SPAN),
    ("evolve.direction", "evolve", "evolve_direction", SPAN),
    ("evolve.monitor", "evolve", "_monitor_row", SPAN),
    ("evolve.confirm", "evolve", "_confirm_blowup", SPAN),
    ("evolve.fit_ejection_rate", "evolve", "fit_ejection_rate", SPAN),
    ("modulation.fit", "modulation", "fit_modulation", SPAN),
    ("modulation.distance_dW", "modulation", "distance_dW", SPAN),
    ("modulation.split_modes", "modulation", "split_modes", SPAN),
    ("modulation.manifold_distance", "modulation", "manifold_distance", SPAN),
    ("modulation.proxy", "modulation", "_manifold_distance_sq", SPAN),
    ("modulation.assemble_state", "modulation", "assemble_state", SPAN),
    ("spectral.build", "spectral", "build_spectral_data", SPAN),
    ("spectral.shooting", "spectral", "shooting_rate", SPAN),
    ("spectral.coercivity", "spectral", "coercivity_probe", SPAN),
    ("functionals.boost", "functionals", "boost_energy_momentum", SPAN),
    ("evolve.force", "evolve", "RadialWaveEvolver.force", AGGREGATE),
    ("evolve.steps", "evolve", "RadialWaveEvolver.steps", AGGREGATE),
    ("fields.eval_W_dr", "fields", "eval_W_dr", AGGREGATE),
    ("fields.profile_eval", "fields", "RadialProfile.__call__", AGGREGATE),
    ("grids.tail_fit", "grids", "RadialGrid.tail_fit", AGGREGATE),
    ("grids.deriv", "grids", "RadialGrid.deriv", AGGREGATE),
    ("grids.box_gradient", "grids", "Box3DGrid.gradient", AGGREGATE),
    ("functionals", "functionals", "energy_E", AGGREGATE),
    ("functionals", "functionals", "functional_K", AGGREGATE),
    ("functionals", "functionals", "norm_H", AGGREGATE),
    ("functionals", "functionals", "crit_norm", AGGREGATE),
    ("functionals", "functionals", "h1_seminorm_sq", AGGREGATE),
    ("functionals", "functionals", "l2_norm_sq", AGGREGATE),
]

# check groups of the static suite, keyed by the first call of each group
# made directly by run_static_suite; earlier calls form "identities"
STATIC_GROUPS = {
    "spectral.coercivity": "coercivity",
    "experiments.round_trip_input": "round_trip",
    "modulation.distance_dW": "distance",
    "functionals.boost": "boost",
}

# per-layer metrics, in the order BENCHMARK.json lists them: (name, unit)
LAYER_METRICS = [
    ("evolve.steps", "count"), ("evolve.steps_s", "s"), ("evolve.step_us", "us"),
    ("evolve.force_calls", "count"), ("evolve.force_us", "us"),
    ("evolve.confirm_runs", "count"), ("evolve.confirm_steps", "count"),
    ("evolve.confirm_s", "s"),
    ("evolve.monitor_rows", "count"), ("evolve.monitor_s", "s"),
    ("modulation.fit_calls", "count"), ("modulation.fit_converged", "count"),
    ("modulation.fit_errors", "count"), ("modulation.newton_iters", "count"),
    ("modulation.proxy_skips", "count"),
    ("modulation.fit_radial_s", "s"), ("modulation.distance_dW_s", "s"),
    ("modulation.split_modes_s", "s"),
    ("modulation.manifold_distance_calls", "count"),
    ("modulation.manifold_distance_s", "s"),
    ("modulation.fit_box_calls", "count"), ("modulation.fit_box_s", "s"),
    ("fields.eval_W_dr_calls", "count"), ("fields.eval_W_dr_s", "s"),
    ("fields.profile_eval_calls", "count"), ("fields.profile_eval_s", "s"),
    ("grids.tail_fit_calls", "count"), ("grids.tail_fit_s", "s"),
    ("grids.deriv_calls", "count"), ("grids.deriv_s", "s"),
    ("grids.box_gradient_calls", "count"), ("grids.box_gradient_s", "s"),
    ("functionals.calls", "count"), ("functionals.s", "s"),
    ("spectral.matrix_build_s", "s"), ("spectral.shooting_s", "s"),
    ("experiments.initial_state_s", "s"), ("experiments.postprocess_s", "s"),
    ("experiments.artifact_write_s", "s"), ("experiments.artifact_bytes", "B"),
    ("trace.wall_untraced_s", "s"), ("trace.wall_traced_s", "s"),
    ("trace.overhead_pct", "%"),
]


class Node:
    """Call count, inclusive time and self time of one node key."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


def _critwave_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "critwave" or name.startswith("critwave."))]


def _resolve(module: str, path: str):
    """(owner, attribute name, original) for a function or a method."""
    owner = importlib.import_module(f"critwave.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Installs the wrappers, collects nodes, spans and counters, and
    removes the wrappers again."""

    def __init__(self):
        self.nodes: dict[str, Node] = defaultdict(Node)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.group = "setup"
        self._stack: list[list] = []       # open frames: [child_time, span id, key]
        self._patches: list[tuple] = []    # (owner, attribute, original)
        self._confirm_depth = 0
        self._directions = 0
        self.root_total = 0.0
        self.root_self = 0.0

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, key: str, kind: str, fn):
        stack, nodes, spans = self._stack, self.nodes, self.spans
        clock = time.perf_counter
        before = getattr(self, "_before_" + key.replace(".", "_"), None)
        if key in STATIC_GROUPS:
            def before(args, parent, label=STATIC_GROUPS[key]):
                if parent[2] == "experiments.run_static_suite":
                    self.group = label
        after = getattr(self, "_after_" + key.replace(".", "_"), None)
        key_of = getattr(self, "_key_" + key.replace(".", "_"), None)
        record_span = kind == SPAN

        def wrapper(*args, **kwargs):
            k = key_of(args) if key_of is not None else key
            parent = stack[-1]
            if before is not None:
                before(args, parent)
            group = self.group
            sid = len(spans) if record_span else parent[1]
            frame = [0.0, sid, k]
            if record_span:
                spans.append(None)
            stack.append(frame)
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                node = nodes[k]
                node.calls += 1
                node.total += dt
                node.self_time += dt - frame[0]
                parent[0] += dt
                if record_span:
                    spans[sid] = (sid, k, t0, t1, parent[1], group)
                if after is not None:
                    after(args, kwargs, result, error, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    # per-key hooks: direction-run and check-group ids, refined-grid steps,
    # fit outcomes, artifact sizes

    def _before_evolve_direction(self, args, parent):
        self._directions += 1
        self.group = f"direction-{self._directions}"

    def _before_evolve_confirm(self, args, parent):
        self._confirm_depth += 1

    def _after_evolve_confirm(self, args, kwargs, result, error, parent):
        self._confirm_depth -= 1

    def _key_evolve_steps(self, args):
        return "evolve.confirm_steps" if self._confirm_depth else "evolve.steps"

    def _after_evolve_steps(self, args, kwargs, result, error, parent):
        n = kwargs.get("n", args[3] if len(args) > 3 else 0)
        name = "confirm_steps" if self._confirm_depth else "steps"
        self.counters[name] += n

    def _key_modulation_fit(self, args):
        state = args[0]
        return ("modulation.fit_radial" if state.representation == "radial"
                else "modulation.fit_box")

    def _after_modulation_fit(self, args, kwargs, result, error, parent):
        if error is not None:
            self.counters["fit_errors"] += 1
            return
        self.counters["fit_converged"] += bool(result.converged)
        self.counters["newton_iters"] += result.newton_iters
        if parent[2] == "evolve.monitor":
            self.counters["monitor_fits"] += 1

    def _after_experiments_artifact_write(self, args, kwargs, result, error,
                                          parent):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        if error is None and path is not None and os.path.isfile(path):
            self.counters["artifact_bytes"] += os.path.getsize(path)

    def _before_experiments_run_static_suite(self, args, parent):
        self.group = "identities"

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _critwave_modules()
        for key, module, path, kind in TARGETS:
            owner, attr, original = _resolve(module, path)
            wrapper = self._wrap(key, kind, original)
            if "." in path:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> bool:
        """Put every original back; True when all of them are in place."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(owner.__dict__[attr] is original
                       for owner, attr, original in self._patches)
        self._patches = []
        return restored

    @contextmanager
    def root(self, name: str = "workload"):
        """The root span; every wrapped call must happen inside it."""
        frame = [0.0, 0, name]
        self.spans.append(None)
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[0] = (0, name, t0, t1, None, None)
            self.root_total = t1 - t0
            self.root_self = self.root_total - frame[0]

    @contextmanager
    def phase(self, name: str):
        """A span of the benchmark's own (set-up or timed phase)."""
        parent = self._stack[-1]
        sid = len(self.spans)
        self.spans.append(None)
        frame = [0.0, sid, name]
        self._stack.append(frame)
        self.group = name
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dt = t1 - t0
            node = self.nodes[name]
            node.calls += 1
            node.total += dt
            node.self_time += dt - frame[0]
            parent[0] += dt
            self.spans[sid] = (sid, name, t0, t1, parent[1], name)

    # -- results ------------------------------------------------------------

    def partition_gap(self) -> float:
        """Root span minus the sum of all self times (0 up to rounding)."""
        total_self = self.root_self + sum(n.self_time for n in self.nodes.values())
        return self.root_total - total_self

    def layer_metrics(self, wall_untraced: float, wall_traced: float) -> dict:
        n, c = self.nodes, self.counters

        def tot(key):
            return n[key].total if key in n else 0.0

        def calls(key):
            return n[key].calls if key in n else 0

        steps = int(c["steps"])
        fit_calls = calls("modulation.fit_radial") + calls("modulation.fit_box")
        values = {
            "evolve.steps": steps,
            "evolve.steps_s": tot("evolve.steps"),
            "evolve.step_us": 1e6 * tot("evolve.steps") / steps if steps else 0.0,
            "evolve.force_calls": calls("evolve.force"),
            "evolve.force_us": (1e6 * tot("evolve.force") / calls("evolve.force")
                                if calls("evolve.force") else 0.0),
            "evolve.confirm_runs": calls("evolve.confirm"),
            "evolve.confirm_steps": int(c["confirm_steps"]),
            "evolve.confirm_s": tot("evolve.confirm"),
            "evolve.monitor_rows": calls("evolve.monitor"),
            "evolve.monitor_s": tot("evolve.monitor"),
            "modulation.fit_calls": fit_calls,
            "modulation.fit_converged": int(c["fit_converged"]),
            "modulation.fit_errors": int(c["fit_errors"]),
            "modulation.newton_iters": int(c["newton_iters"]),
            "modulation.proxy_skips": calls("evolve.monitor") - int(c["monitor_fits"]),
            "modulation.fit_radial_s": tot("modulation.fit_radial"),
            "modulation.distance_dW_s": tot("modulation.distance_dW"),
            "modulation.split_modes_s": tot("modulation.split_modes"),
            "modulation.manifold_distance_calls": calls("modulation.manifold_distance"),
            "modulation.manifold_distance_s": tot("modulation.manifold_distance"),
            "modulation.fit_box_calls": calls("modulation.fit_box"),
            "modulation.fit_box_s": tot("modulation.fit_box"),
            "fields.eval_W_dr_calls": calls("fields.eval_W_dr"),
            "fields.eval_W_dr_s": tot("fields.eval_W_dr"),
            "fields.profile_eval_calls": calls("fields.profile_eval"),
            "fields.profile_eval_s": tot("fields.profile_eval"),
            "grids.tail_fit_calls": calls("grids.tail_fit"),
            "grids.tail_fit_s": tot("grids.tail_fit"),
            "grids.deriv_calls": calls("grids.deriv"),
            "grids.deriv_s": tot("grids.deriv"),
            "grids.box_gradient_calls": calls("grids.box_gradient"),
            "grids.box_gradient_s": tot("grids.box_gradient"),
            "functionals.calls": calls("functionals"),
            "functionals.s": n["functionals"].self_time if "functionals" in n else 0.0,
            "spectral.matrix_build_s": tot("spectral.build") - tot("spectral.shooting"),
            "spectral.shooting_s": tot("spectral.shooting"),
            "experiments.initial_state_s": tot("experiments.initial_state"),
            "experiments.postprocess_s": tot("experiments.postprocess"),
            "experiments.artifact_write_s": tot("experiments.artifact_write"),
            "experiments.artifact_bytes": int(c["artifact_bytes"]),
            "trace.wall_untraced_s": wall_untraced,
            "trace.wall_traced_s": wall_traced,
            "trace.overhead_pct": 100.0 * (wall_traced / wall_untraced - 1.0),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in LAYER_METRICS}

    def dump(self) -> dict:
        """Everything recorded, with span times relative to the root start."""
        t_root = self.spans[0][2] if self.spans and self.spans[0] else 0.0
        return {
            "root_s": self.root_total,
            "root_self_s": self.root_self,
            "partition_gap_s": self.partition_gap(),
            "nodes": {k: {"calls": v.calls, "total_s": v.total,
                          "self_s": v.self_time}
                      for k, v in sorted(self.nodes.items())},
            "counters": dict(self.counters),
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "group"],
            "spans": [[s[0], s[1], s[2] - t_root, s[3] - t_root, s[4], s[5]]
                      for s in self.spans if s is not None],
        }

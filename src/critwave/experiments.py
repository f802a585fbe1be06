"""Experiment orchestration: initial-data recipes, single runs, the
four-quadrant sweep, and the static verification suite.

Every run is deterministic given (spec, constants file, seed); randomness
enters only through seeded generators whose seeds are recorded in the
outputs.  Sweeps run each distinct one-direction problem once, in this
process, and merge results in a fixed order.
"""

from __future__ import annotations

import math
import os
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import SWEEP_EVOLUTION, EvolutionConfig, Thresholds
from .fields import (BoostParams, Field3D, RadialField, State,
                     _w_sigma_field, eval_W, eval_W_dr, load_state,
                     save_json)
from .functionals import (boost_energy_momentum, functional_J,
                          functional_K, h1_seminorm_sq, l2_inner,
                          l2_norm_sq, norm_H, symplectic_omega)
from .grids import Box3DGrid, RadialGrid
from .modulation import (assemble_state, box_mode_parts, box_modes,
                         distance_dW, fit_modulation)
from .evolve import (BLOWUP, SCATTER, UNDETERMINED, DirectionRun,
                     TrajectoryRecord, evolve_directions,
                     evolve_with_monitors, one_pass_check)
from .spectral import (BW_TOL, CONSTANTS_TOL, SHOOT_TOL, SpectralData,
                       build_spectral_data, coercivity_probe, static_grid)

# the [experiment] keys that each recipe reads
RECIPES = {"quadrant": ("a", "eps", "perturb_norm"),
           "bump": ("amplitude", "width", "center", "velocity",
                    "perturb_norm"),
           "file": ("path",)}
QUADRANT_DIRECTIONS = {"+1,0": (1, 0), "-1,0": (-1, 0),
                       "0,+1": (0, 1), "0,-1": (0, -1)}
# verdict pairs (backward, forward) predicted by the linearized phase portrait
QUADRANT_EXPECTED = {"+1,0": (BLOWUP, BLOWUP), "-1,0": (SCATTER, SCATTER),
                     "0,+1": (SCATTER, BLOWUP), "0,-1": (BLOWUP, SCATTER)}
# energy-norm size of a perturbed sweep variant's bump, relative to eps
PERTURB_FRACTION = 0.10


# ---------------------------------------------------------------------------
# experiment specification and initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    recipe: str                      # one of RECIPES
    params: dict = field(default_factory=dict)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    out_dir: str | None = None
    seed: int = 20240801

    def __post_init__(self):
        check_seed(self.seed)

    def validate(self, thresholds: Thresholds) -> State | None:
        """ValueError on an invalid spec; returns the ``file`` recipe's
        state, read here once for the run to take (None for the other
        recipes)."""
        if self.recipe not in RECIPES:
            raise ValueError(f"unknown recipe {self.recipe!r}, expected one "
                             f"of {', '.join(RECIPES)}")
        keys = RECIPES[self.recipe]
        unknown = sorted(set(self.params) - set(keys))
        if unknown:
            raise ValueError(f"unknown keys for the {self.recipe} recipe: "
                             f"{unknown}; it reads {', '.join(keys)}")
        if self.recipe == "quadrant":
            a = self.params.get("a")
            if tuple(a) not in QUADRANT_DIRECTIONS.values():
                raise ValueError(f"quadrant direction must be one of "
                                 f"{sorted(QUADRANT_DIRECTIONS)}, got {a}")
            eps = float(self.params.get("eps", 0.0))
            if not 0.0 < eps <= thresholds.eps_star:
                raise ValueError(
                    f"eps = {eps} outside (0, eps_star = {thresholds.eps_star}]")
        elif self.recipe == "file":
            return _load_file_state(self.params.get("path"))
        return None


def _load_file_state(path) -> State:
    """The ``file`` recipe's state, as written by ``fields.save_state``;
    ValueError when it cannot be read or does not live on a uniform d = 3
    grid, the only grids the evolution takes."""
    if path is None:
        raise ValueError("the file recipe needs a path")
    try:
        state = load_state(path)
    except OSError as exc:
        raise ValueError(f"cannot read the file state: {exc}") from exc
    g = state.grid
    if g.d != 3 or g.spacing != "uniform":
        raise ValueError(f"the file state {path} lives on {g!r}; evolution "
                         "needs a uniform d = 3 grid")
    return state


def build_initial_state(spec_exp: ExperimentSpec,
                        spectral: SpectralData) -> State:
    p = spec_exp.params
    if spec_exp.recipe == "file":
        return _load_file_state(p.get("path"))
    cfg = spec_exp.evolution
    grid = RadialGrid(3, cfg.r_max, cfg.n, "uniform")
    if spec_exp.recipe == "quadrant":
        a1, a2 = p["a"]
        eps = float(p["eps"])
        rho = spectral.rho_on(grid)
        u1 = np.asarray(eval_W(3, grid.r ** 2)) + eps * a1 * rho
        u2 = eps * a2 * rho
    elif spec_exp.recipe == "bump":
        amp = float(p.get("amplitude", 0.1))
        width = float(p.get("width", 4.0))
        center = float(p.get("center", 0.0))
        u1 = amp * np.exp(-((grid.r - center) / width) ** 2)
        u2 = np.zeros(grid.n)
        if p.get("velocity"):
            u2 = float(p["velocity"]) * np.exp(-((grid.r - center) / width) ** 2)
    else:
        raise ValueError(f"unknown recipe {spec_exp.recipe!r}")
    state = State(RadialField(grid, u1), RadialField(grid, u2))
    pert = float(p.get("perturb_norm", 0.0))
    if pert > 0.0:
        rng = np.random.default_rng(derive_seed(spec_exp.seed, spec_exp.name))
        state = perturb_state(state, pert, rng)
    return state


def perturb_state(s: State, target_norm: float,
                  rng: np.random.Generator) -> State:
    """Add a generic smooth bump of prescribed energy-space norm."""
    g = s.grid
    f1 = np.zeros(g.n)
    f2 = np.zeros(g.n)
    for _ in range(2):
        c, wd = rng.uniform(1.0, 10.0), rng.uniform(1.0, 4.0)
        f1 += rng.normal() * np.exp(-((g.r - c) / wd) ** 2)
        c, wd = rng.uniform(1.0, 10.0), rng.uniform(1.0, 4.0)
        f2 += rng.normal() * np.exp(-((g.r - c) / wd) ** 2)
    nrm = math.sqrt(h1_seminorm_sq(RadialField(g, f1))
                    + l2_norm_sq(RadialField(g, f2)))
    scale = target_norm / nrm
    return State(RadialField(g, s.u1.values + scale * f1),
                 RadialField(g, s.u2.values + scale * f2))


def check_seed(seed: int) -> None:
    """ValueError unless 0 <= seed < 2^31: derive_seed keeps 31 bits."""
    if not 0 <= seed <= 0x7FFFFFFF:
        raise ValueError(f"seed must be an integer in [0, 2^31 - 1], "
                         f"got {seed}")


def derive_seed(seed: int, name: str) -> int:
    return (seed ^ zlib.crc32(name.encode())) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# single experiment
# ---------------------------------------------------------------------------

def run_experiment(spec_exp: ExperimentSpec, spectral: SpectralData,
                   thresholds: Thresholds | None = None,
                   state0: State | None = None) -> TrajectoryRecord:
    """Evolve one experiment in both time directions and emit artifacts.

    ``state0`` is the initial state of an already validated spec, such as
    the file state that ``validate`` returned; without it the spec is
    validated and its initial state built here.
    """
    th = thresholds or Thresholds()
    if state0 is None:
        state0 = spec_exp.validate(th)
    if state0 is None:
        state0 = build_initial_state(spec_exp, spectral)
    record = evolve_with_monitors(state0, spec_exp.evolution, spectral, th)
    _write_artifacts(spec_exp, record)
    return record


def _write_artifacts(spec_exp: ExperimentSpec, record: TrajectoryRecord) -> None:
    """The run's CSV, extended CSV and verdict sidecar, when it has an
    output directory."""
    if spec_exp.out_dir:
        os.makedirs(spec_exp.out_dir, exist_ok=True)
        base = os.path.join(spec_exp.out_dir, spec_exp.name)
        record.to_csv(base + ".csv")
        record.to_extended_csv(base + "_ext.csv")
        record.save_verdict(base + "_verdict.json")


def exit_code_for(records: list[TrajectoryRecord]) -> int:
    verdicts = [v for r in records for v in (r.verdict_forward, r.verdict_backward)]
    return 2 if UNDETERMINED in verdicts else 0


# ---------------------------------------------------------------------------
# linearized-mode comparison
# ---------------------------------------------------------------------------

def linearized_lambda_deviation(record: TrajectoryRecord, spectral: SpectralData,
                                thresholds: Thresholds | None = None) -> float:
    """Max relative deviation of lambda_1(tau) from the linearized solution.

    The linearized flow through (lambda_1, lambda_2)(0) is
    lambda_1^0(tau) = lambda_1(0) cosh(k tau) + lambda_2(0) sinh(k tau)/k,
    compared per time direction while the trajectory is still well inside
    the ejection scale (d_W <= delta_H / 2) and above the transient floor.
    """
    th = thresholds or Thresholds()
    k = spectral.k
    t = record.column("t")
    tau = record.column("tau")
    lam1 = record.column("lambda1")
    lam2 = record.column("lambda2")
    dw = record.column("dW")
    i0 = int(np.argmin(np.abs(t)))
    l10, l20 = lam1[i0], lam2[i0]
    eps_scale = max(abs(l10), abs(l20) / k, 1e-12)
    dev = 0.0
    ok = np.isfinite(tau) & np.isfinite(lam1) & (dw <= 0.5 * th.delta_H)
    for i in np.nonzero(ok)[0]:
        model = l10 * math.cosh(k * tau[i]) + l20 * math.sinh(k * tau[i]) / k
        if abs(model) < 1.5 * eps_scale:
            continue
        dev = max(dev, abs(lam1[i] - model) / abs(model))
    return dev


# ---------------------------------------------------------------------------
# the four-quadrant sweep
# ---------------------------------------------------------------------------

@dataclass
class QuadrantRow:
    """One sweep case; ``runtime`` is the sum of the wall times of its
    forward and backward runs, each run timed once (a run shared by two
    directions or two cases counts in each)."""

    a: str
    eps: float
    variant: str
    verdict_backward: str
    verdict_forward: str
    ejection_rate: float
    runtime: float
    lambda_form_dev: float
    one_pass_ok: bool
    expected: tuple[str, str]

    @property
    def matches_expected(self) -> bool:
        return (self.verdict_backward, self.verdict_forward) == self.expected


@dataclass
class QuadrantTable:
    rows: list[QuadrantRow]
    seed: int

    def any_undetermined(self) -> bool:
        return any(UNDETERMINED in (r.verdict_backward, r.verdict_forward)
                   for r in self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("a,eps,verdict_backward,verdict_forward,ejection_rate,runtime\n")
            for r in self.rows:
                if r.variant != "base":
                    continue
                rate = "nan" if math.isnan(r.ejection_rate) else repr(r.ejection_rate)
                fh.write(f"{r.a},{r.eps!r},{r.verdict_backward},"
                         f"{r.verdict_forward},{rate},{r.runtime:.3f}\n")

    def to_json(self, path) -> None:
        save_json(path, {"seed": self.seed, "rows": [
            {**asdict(r), "matches_expected": r.matches_expected}
            for r in self.rows]})


def _sweep_cases(eps_list, cfg: EvolutionConfig, n_perturbed: int, seed: int,
                 out_dir: str | None) -> list[tuple]:
    """(a_key, variant, ExperimentSpec) of every sweep case, in table order."""
    cases = []
    for a_key, a in QUADRANT_DIRECTIONS.items():
        for eps in eps_list:
            exp = ExperimentSpec(f"quadrant_a{a_key}_eps{eps:g}", "quadrant",
                                 {"a": a, "eps": float(eps)}, evolution=cfg,
                                 out_dir=out_dir, seed=seed)
            cases.append((a_key, "base", exp))
    for idx in range(n_perturbed):
        a_key = sorted(QUADRANT_DIRECTIONS)[idx % 4]
        eps = float(eps_list[(idx // 4) % len(eps_list)])
        name = f"quadrant_a{a_key}_eps{eps:g}_pert{idx}"
        exp = ExperimentSpec(name, "quadrant",
                             {"a": QUADRANT_DIRECTIONS[a_key], "eps": eps,
                              "perturb_norm": PERTURB_FRACTION * eps},
                             evolution=cfg, out_dir=out_dir, seed=seed)
        cases.append((a_key, f"pert{idx}", exp))
    return cases


def _quadrant_row(case: tuple, fwd: DirectionRun, bwd: DirectionRun,
                  spectral: SpectralData, th: Thresholds) -> QuadrantRow:
    """One sweep case from its two runs: the record, its artifacts and the
    post-processing."""
    a_key, variant, exp = case
    record = TrajectoryRecord.from_runs(fwd, bwd)
    _write_artifacts(exp, record)
    dev = linearized_lambda_deviation(record, spectral, th)
    check = one_pass_check(record, th)
    rate = record.ejection_rate_forward
    if math.isnan(rate):
        rate = record.ejection_rate_backward
    return QuadrantRow(a=a_key, eps=exp.params["eps"], variant=variant,
                       verdict_backward=record.verdict_backward,
                       verdict_forward=record.verdict_forward,
                       ejection_rate=rate, runtime=fwd.wall_s + bwd.wall_s,
                       lambda_form_dev=dev, one_pass_ok=bool(check["ok"]),
                       expected=QUADRANT_EXPECTED[a_key])


def run_quadrant_sweep(eps_list=(1e-3, 3e-3, 1e-2),
                       spectral: SpectralData | None = None,
                       thresholds: Thresholds | None = None,
                       evolution: EvolutionConfig | None = None,
                       n_perturbed: int = 0,
                       seed: int = 20240801,
                       threads: int = 1,
                       out_dir: str | None = None) -> QuadrantTable:
    """All four directions for each amplitude, plus perturbed-variant probes.

    Perturbed variants add a generic bump of PERTURB_FRACTION * eps in the
    energy norm; their verdicts probe the open-set (interior) claim and
    must match the base run.  Every case needs the forward runs of its data
    and of its time reversal; :func:`evolve_directions` runs each distinct
    one, so the backward run of a = (a1, a2) is the forward run of
    (a1, -a2), and a = (+-1, 0) runs once.  The runs go in turn, each
    stepping on one thread beside the one that builds its monitor rows.

    ``threads`` must be 1 (ValueError before any case or spectrum is built
    otherwise); the parameter goes when the benchmark harness stops
    passing it.
    """
    if threads != 1:
        raise ValueError(f"threads = {threads!r}: a sweep runs in one "
                         f"process; its process pool was removed")
    th = thresholds or Thresholds()
    cfg = evolution or SWEEP_EVOLUTION
    cases = _sweep_cases(eps_list, cfg, n_perturbed, seed, out_dir)
    if spectral is None:
        spectral = build_spectral_data(cross_check=False)
    states = []
    for _, _, exp in cases:
        exp.validate(th)
        s = build_initial_state(exp, spectral)
        states += [s, s.time_reversed()]
    runs = evolve_directions(states, cfg, spectral, th)
    rows = [_quadrant_row(case, runs[2 * i], runs[2 * i + 1], spectral, th)
            for i, case in enumerate(cases)]
    table = QuadrantTable(rows=rows, seed=seed)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        table.to_csv(os.path.join(out_dir, "quadrant_table.csv"))
        table.to_json(os.path.join(out_dir, "quadrant_table.json"))
    return table


# ---------------------------------------------------------------------------
# random orthogonal residuals (round-trip material)
# ---------------------------------------------------------------------------

class BoxResidualClosure:
    """An exactly evaluable 3-D residual v = (v1, v2).

    v1 is a Gaussian sum with the mode components (Lambda_0 rho and grad rho)
    projected out under the box quadrature; v2 is a Gaussian sum.  Because
    every term has a closed form (or a spline profile evaluable anywhere),
    assembled family members T^c S^sigma (s W + v) can be sampled without
    interpolating grid data, which keeps round-trip errors at quadrature
    level.
    """

    def __init__(self, spectral: SpectralData, gaussians1, gaussians2,
                 mode_coefs):
        self.spectral = spectral
        self.g1 = gaussians1          # list of (amp, center(3,), width)
        self.g2 = gaussians2
        self.mode_coefs = np.asarray(mode_coefs, dtype=float)  # (4,)

    @staticmethod
    def _gauss_sum(terms, x, y, z):
        """sum amp e^(-|(x, y, z) - c|^2 / w^2), each term taken as the
        product of its three axis factors: on an open mesh the exps are
        1-D and only the last product and the running sum are full-size."""
        out = 0.0
        for amp, c, wd in terms:
            s = 1.0 / wd ** 2
            out = out + (amp * np.exp(-(x - c[0]) ** 2 * s)
                         * np.exp(-(y - c[1]) ** 2 * s)
                         * np.exp(-(z - c[2]) ** 2 * s))
        return out

    def v1(self, x, y, z):
        lam0, slope = box_mode_parts(self.spectral, 0.0, (x, y, z))
        out = self._gauss_sum(self.g1, x, y, z)
        out = out - self.mode_coefs[0] * lam0
        out = out - slope * (self.mode_coefs[1] * x + self.mode_coefs[2] * y
                             + self.mode_coefs[3] * z)
        return out

    def v2(self, x, y, z):
        return (self._gauss_sum(self.g2, x, y, z)
                + np.zeros(np.broadcast(x, y, z).shape))


def random_box_closure(spectral: SpectralData, grid: Box3DGrid,
                       rng: np.random.Generator,
                       amplitude: float = 0.02) -> BoxResidualClosure:
    """Random residual closure satisfying the box-quadrature orthogonality."""
    def draw(n):
        return [(rng.normal(), rng.uniform(-3.0, 3.0, size=3),
                 rng.uniform(1.2, 3.0)) for _ in range(n)]

    g1, g2 = draw(3), draw(3)
    modes = box_modes(spectral, grid)
    # v1 starts as the Gaussian sum f1 and has its mode components removed
    # in place
    v1 = grid.by_slabs(
        lambda sl: BoxResidualClosure._gauss_sum(g1, *grid.slab_mesh(sl)))
    rhs = np.array([
        grid.quad(grid.by_slabs(lambda sl: v1[sl] * modes.mode(j, sl)))
        for j in range(4)])
    coef = np.linalg.solve(modes.gram, rhs)
    for sl in grid.slabs:
        v1[sl] -= sum(cf * modes.mode(j, sl) for j, cf in enumerate(coef))

    def f2_sq(sl):
        f2 = BoxResidualClosure._gauss_sum(g2, *grid.slab_mesh(sl))
        return f2 * f2
    nrm = math.sqrt(grid.h1_sq(v1) + grid.quad(grid.by_slabs(f2_sq)))
    scale = amplitude / max(nrm, 1e-300)
    g1s = [(a * scale, c, w) for a, c, w in g1]
    g2s = [(a * scale, c, w) for a, c, w in g2]
    return BoxResidualClosure(spectral, g1s, g2s, coef * scale)


def assemble_box_exact(grid: Box3DGrid, sgn: int, sigma: float, c,
                       closure: BoxResidualClosure) -> State:
    """u = T^c S^sigma (sgn W_vec + v) with every term sampled exactly,
    slab by slab."""
    c = np.asarray(c, dtype=float)
    es = math.exp(sigma)
    amp1 = math.exp(sigma / 2.0)

    def transported(sl):
        x, y, z = grid.slab_mesh(sl)
        return es * (x - c[0]), es * (y - c[1]), es * (z - c[2])

    def u1(sl):
        xs, ys, zs = transported(sl)
        rr2 = xs * xs + ys * ys + zs * zs
        return (sgn * amp1 * np.asarray(eval_W(3, rr2))
                + amp1 * closure.v1(xs, ys, zs))

    def u2(sl):
        return math.exp(1.5 * sigma) * closure.v2(*transported(sl))

    return State(Field3D(grid, grid.by_slabs(u1)),
                 Field3D(grid, grid.by_slabs(u2)))


def random_orthogonal_residual(spectral: SpectralData, grid: RadialGrid,
                               rng: np.random.Generator,
                               amplitude: float = 0.02) -> State:
    """A random smooth radial residual v with <v1|Lambda_0 rho> = 0.

    Built from Gaussian bumps with the mode component projected out, so
    assembled states S^sigma (s W + v) are exact members of the fitted
    family.  (Box residuals: :func:`random_box_closure`.)
    """
    r = grid.r
    f1 = np.zeros(grid.n)
    f2 = np.zeros(grid.n)
    for _ in range(3):
        c, wd = rng.uniform(0.0, 6.0), rng.uniform(0.8, 3.0)
        f1 += rng.normal() * np.exp(-((r - c) / wd) ** 2)
        c, wd = rng.uniform(0.0, 6.0), rng.uniform(0.8, 3.0)
        f2 += rng.normal() * np.exp(-((r - c) / wd) ** 2)
    lam0 = spectral.lambda0_rho_on(grid)
    coef = grid.quad_meas(f1 * lam0) / grid.quad_meas(lam0 * lam0)
    f1 = f1 - coef * lam0
    nrm = math.sqrt(h1_seminorm_sq(RadialField(grid, f1))
                    + l2_norm_sq(RadialField(grid, f2)))
    scale = amplitude / max(nrm, 1e-300)
    return State(RadialField(grid, scale * f1), RadialField(grid, scale * f2))


# ---------------------------------------------------------------------------
# static verification suite
# ---------------------------------------------------------------------------

def _check(name: str, value: float, tol: float, kind: str = "abs_le",
           detail: str = "") -> dict:
    if kind == "abs_le":
        passed = abs(value) <= tol
    elif kind == "gt":
        passed = value > tol
    else:
        raise ValueError(kind)
    return {"name": name, "value": float(value), "tolerance": tol,
            "kind": kind, "passed": bool(passed), "detail": detail}


def _box_round_trip_error(spectral: SpectralData, box: Box3DGrid,
                          rng: np.random.Generator, th: Thresholds,
                          evals: Counter) -> float:
    """One box round trip: a random closure assembled at a random
    (sigma >= 0, c) and fitted back.  Returns the larger error in sigma and
    c, or inf when the fit does not converge, and adds the fit's
    evaluation counts to evals; the state and the closure are released on
    return."""
    closure = random_box_closure(spectral, box, rng,
                                 amplitude=rng.uniform(0.002, 0.03))
    sigma = float(rng.uniform(0.0, 0.3))
    c = rng.uniform(-0.4, 0.4, size=3)
    fit = fit_modulation(assemble_box_exact(box, +1, sigma, c, closure),
                         spectral, th)
    evals.update(fit.evals)
    if not fit.converged:
        return math.inf
    return max(abs(fit.sigma - sigma), float(np.max(np.abs(fit.c - c))))


def run_static_suite(spectral: SpectralData | None = None,
                     thresholds: Thresholds | None = None,
                     grid: RadialGrid | None = None,
                     n_coercivity: int = 100,
                     n_roundtrip_radial: int = 60,
                     n_roundtrip_box: int = 8,
                     seed: int = 20240801,
                     reference_constants: dict | None = None) -> dict:
    """All static acceptance checks with measured values and tolerances.

    Deliberate under-resolution (a coarse or unstretched grid) makes the
    ground-state cancellation checks fail with an explicit convergence
    message in the report.
    """
    th = thresholds or Thresholds()
    grid = grid or static_grid()
    if spectral is None:
        spectral = build_spectral_data(grid)
    checks: list[dict] = []
    rng = np.random.default_rng(seed)

    # ground-state identities
    w_fld = RadialField(grid, spectral.W_on(grid))
    grad_sq = h1_seminorm_sq(w_fld)
    k_of_w = functional_K(w_fld)
    j_of_w = functional_J(w_fld)
    checks.append(_check("K(W)_over_gradW_sq", k_of_w / grad_sq, 1e-6,
                         detail="ground-state virial cancellation; fails when "
                                "the grid under-resolves W or its far field"))
    checks.append(_check("J_identity", (j_of_w - grad_sq / grid.d) / j_of_w, 1e-8,
                         detail="static energy vs gradient-norm identity"))

    # spectral consistency
    res = spectral.residuals
    checks.append(_check("eigen_residual", res["eig_residual_l2"], 1e-6))
    if "k_rel_diff" in res:
        checks.append(_check("k_matrix_vs_shooting", res["k_rel_diff"],
                             SHOOT_TOL))
        checks.append(_check("b_W_two_routes", res["b_W_rel_diff"], BW_TOL))
    checks.append(_check("a_W_positive", spectral.a_W, 0.0, kind="gt"))
    checks.append(_check("b_W_positive", spectral.b_W, 0.0, kind="gt"))
    gp, gm = spectral.mode_states(grid)
    checks.append(_check("omega_gp_gm_minus_1",
                         symplectic_omega(gp, gm) - 1.0, 1e-8))
    rho_f = spectral.rho_field(grid)
    wp = spectral.wprime_field(grid)
    checks.append(_check("wprime_orth_rho", l2_inner(wp, rho_f), 1e-6))
    lam0_f = RadialField(grid, spectral.lambda0_rho_on(grid))
    checks.append(_check("rho_orth_lambda0_rho", l2_inner(rho_f, lam0_f), 1e-8))
    wdr = RadialField(grid, np.asarray(eval_W_dr(grid.d, grid.r)))
    rdr = RadialField(grid, spectral.mode_pair(grid.r)[:, 1])
    grad_pair = grid.quad_meas(wdr.values * rdr.values) / grid.d
    checks.append(_check("grad_pair_identity",
                         (grad_pair - spectral.a_W) / spectral.a_W, 1e-4,
                         detail="<d_j W | d_k rho> = + delta_jk a_W"))

    # coercivity sampling
    co = coercivity_probe(spectral, grid, n_samples=n_coercivity, seed=seed)
    checks.append(_check("coercivity_c_low", co["c_low"], 0.0, kind="gt",
                         detail=f"range [{co['c_low']:.4f}, {co['c_high']:.4f}] "
                                f"over {co['n_samples']} probes"))

    # modulation round trips, up to the first that fails
    worst, n_radial, n_box = 0.0, 0, 0
    for _ in range(n_roundtrip_radial):
        n_radial += 1
        v = random_orthogonal_residual(spectral, grid, rng,
                                       amplitude=rng.uniform(0.002, 0.05))
        sgn = int(rng.choice([-1, 1]))
        sigma = float(rng.uniform(-0.5, 0.5))
        u = assemble_state(sgn, sigma, np.zeros(3), v)
        fit = fit_modulation(u, spectral, th)
        if not fit.converged or fit.sign_s != sgn:
            worst = math.inf
            break
        err = abs(fit.sigma - sigma)
        err = max(err, norm_H(fit.v - v))
        worst = max(worst, err)
    # the default m = 64 box aliases the mode quadrature at ~1e-3, displacing
    # the fit fixed point; the 1e-6 recovery check needs the finer probe box.
    # sigma stays nonnegative here (expanded modes hit the box edge); the
    # radial cases above cover sigma < 0 without truncation.
    box = Box3DGrid(20.0, 128)
    box_evals = Counter()
    while worst < math.inf and n_box < n_roundtrip_box:
        n_box += 1
        worst = max(worst, _box_round_trip_error(spectral, box, rng, th,
                                                 box_evals))

    def ran(done, n):
        return f"{n}" if done == n else f"{done} of {n}"
    # the box fits' full-grid evaluations, when any fit ran
    counts = (f"; box fits: {box_evals['coarse']} coarse + "
              f"{box_evals['ball']} ball residuals, {box_evals['v_norm']} "
              f"||v||_H" if box_evals else "")
    checks.append(_check("modulation_round_trip", worst, 1e-6,
                         detail=f"{ran(n_radial, n_roundtrip_radial)} radial "
                                f"+ {ran(n_box, n_roundtrip_box)} box "
                                f"assemblies{counts}"))

    # distance on and near the family (moderate scales: the sqrt of the
    # energy quadrature's sigma-drift floors d_W near 1e-6 past |sigma|~0.4)
    zero = RadialField(grid, np.zeros(grid.n))
    on_manifold = 0.0
    for sigma in (-0.4, 0.0, 0.2):
        st = State(RadialField(grid, _w_sigma_field(grid, sigma)), zero)
        on_manifold = max(on_manifold, distance_dW(st, spectral, th).dW)
        st_neg = State(RadialField(grid, -_w_sigma_field(grid, sigma)), zero)
        on_manifold = max(on_manifold, distance_dW(st_neg, spectral, th).dW)
    checks.append(_check("dW_on_manifold", on_manifold, 1e-6))
    dev = 0.0
    for eps in (1e-3, 3e-4):
        st = State(RadialField(grid, spectral.W_on(grid)
                               + eps * spectral.rho_on(grid)), zero)
        measured = distance_dW(st, spectral, th).dW ** 2
        expect = 0.5 * spectral.k ** 2 * eps ** 2
        dev = max(dev, abs(measured - expect) / expect)
    checks.append(_check("dW_sq_unstable_pair", dev, 0.02,
                         detail="d_W^2 vs k^2 eps^2 / 2 from the energy expansion"))

    # boost identity
    jref = j_of_w
    worst_boost = 0.0
    for pmag in (0.1, 0.2, 0.4):
        e_val, p_vec = boost_energy_momentum(BoostParams(0.0, (pmag, 0.0, 0.0)))
        worst_boost = max(worst_boost,
                          abs(e_val ** 2 - float(p_vec @ p_vec) - jref ** 2)
                          / jref ** 2)
    checks.append(_check("boost_energy_momentum_identity", worst_boost, 1e-3))

    # constants reproducibility
    if reference_constants is not None:
        checks.append(_check("constants_regeneration",
                             spectral.constants_drift(reference_constants),
                             CONSTANTS_TOL,
                             detail="k, a_W, b_W vs stored reference"))

    report = {"grid": grid.describe(), "seed": seed,
              "n_checks": len(checks),
              "n_failed": sum(0 if c["passed"] else 1 for c in checks),
              "checks": checks}
    report["all_passed"] = report["n_failed"] == 0
    return report

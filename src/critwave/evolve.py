"""Radial evolution of the critical wave equation in d = 3 with monitors.

The substitution w = r u turns the radial equation u_tt = Delta u + u^5
into w_tt = w_rr + w^5 / r^4 on the half-line with w(0) = 0, which is
discretized on a uniform cell-centered grid (odd-parity fold at the
origin, 4th-order five-point Laplacian inside, first-order outgoing
Sommerfeld closure at r_max) and stepped with velocity-Verlet at a fixed
CFL fraction, in the compiled kernel ``_verlet.c``.  Runs are sized so the
light cone of the perturbed region never returns reflections into the
monitored window.  A run steps its next stride on one extra thread while
it builds the monitor row of the state its last stride reached; a stride
that the row's stop tests drop is never counted, and the run is bitwise
that of stepping and monitoring in turn.

Monitors record conserved quantities, the distance to the soliton family,
the modulation parameters (sigma, lambda_1, lambda_2), the rescaled time
tau with d tau / dt = e^sigma, the exterior energy, and the localized
virial and equipartition brackets.  Classification of each time direction
(blow-up / scattering) is a numerical proxy: norm escape confirmed under
refinement for blow-up, sustained free-wave dominance for scattering, and
an honest Undetermined otherwise.
"""

from __future__ import annotations

import ctypes
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import _native
from .config import EvolutionConfig, Thresholds
from .fields import RadialField, State, save_json
from .functionals import (crit_norm, energy_E, functional_K, l2_norm_sq,
                          norm_H, smooth_cutoff)
from .grids import RadialGrid
from .modulation import (FitError, ModulationFit, _manifold_distance_sq,
                         distance_dW, fit_modulation, manifold_distance,
                         sign_functional)
from .spectral import SpectralData

BLOWUP = "Blowup"
SCATTER = "Scatter"
UNDETERMINED = "Undetermined"

_EXT_PAD = 2.0          # grid-speed allowance in the exterior-energy radius
_MAX_SAFE_AMP = 1e12    # amplitude at which the run is certainly diverging

# detector and stepper constants (calibrated at the default resolution)
BLOWUP_NORM_MULT = 6.0      # escape threshold = mult * max(||u(0)||_H, floor)
BLOWUP_NORM_FLOOR = 4.0
SCATTER_WINDOW = 8.0        # trailing window of sustained free-wave dominance
FREE_RATIO_THRESHOLD = 0.02
CONE_S = 25.0               # cutoff offset in w(t,r) = chi(r/(t+S))
SUPPORT_RADIUS = 30.0       # nominal data support for E_ext
DT_FLOOR_FACTOR = 4096.0    # give up once the dt cap is below dt0 / factor
CONFIRM_REFINE = 2          # grid refinement of the blow-up confirmation
CONFIRM_WINDOW = 3.0        # confirmation window around the last checkpoint
CONFIRM_MARGIN = 2.0        # the confirmation ball's radius beyond the |u| peak
# Verlet stability, dt^2 lambda_max < 4, with lambda_max = 16 / (3 h^2) the
# largest eigenvalue of the five-point -w_rr stencil: dt / h < sqrt(3) / 2
CFL_LIMIT = math.sqrt(3.0) / 2.0

_STOPS = ("target", "floor", "overflow")     # by the kernel's stop code


# ---------------------------------------------------------------------------
# the stepper
# ---------------------------------------------------------------------------

class RadialWaveEvolver:
    """Velocity-Verlet integrator for w_tt = w_rr + w^5 / r^4 (d = 3).

    The force and the steps run in the compiled kernel ``_verlet.c``, on
    copies: no method writes to the arrays it is given.  Each call starts
    from the force at its entry state, which the kernel computes.
    """

    def __init__(self, grid: RadialGrid, cfl: float):
        if grid.d != 3:
            raise ValueError("the evolution engine is d = 3 only")
        if grid.spacing != "uniform":
            raise ValueError("evolution requires a uniform grid")
        if grid.n < 5:
            raise ValueError(f"the five-point stencil needs at least 5 nodes, "
                             f"not {grid.n}")
        if not 0.0 < cfl < CFL_LIMIT:
            raise ValueError(f"cfl = {cfl!r} outside (0, sqrt(3)/2 = "
                             f"{CFL_LIMIT:.4f}), the Verlet limit of the "
                             "five-point stencil")
        self.grid = grid
        self.h = grid.r[1] - grid.r[0]
        self.r = grid.r
        self.r_sq = grid.r * grid.r
        self.dt0 = cfl * self.h
        self.inv12h2 = 1.0 / (12.0 * self.h * self.h)

    def _call(self, kernel, w, v, a, *rest):
        """kernel(n, w, v, a, q, r_sq, h, 1 / (12 h^2), *rest) with a new
        u^2 array q, every array checked by _native.address and held here."""
        n = self.grid.n
        q = np.empty(n)
        return kernel(n, *(_native.address(x, n)
                           for x in (w, v, a, q, self.r_sq)),
                      self.h, self.inv12h2, *rest)

    def force(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Acceleration w_rr + w^5 / r^4 with the origin fold and the
        outgoing closure."""
        a = np.empty(self.grid.n)
        self._call(_native.LIB.cw_steps, np.array(w, dtype=float),
                   np.array(v, dtype=float), a, 0, 0.0)
        return a

    def steps(self, w, v, n: int, dt: float):
        """n velocity-Verlet steps; returns (w, v) as new arrays.

        One force evaluation on entry and one per step; n calls of one step
        equal one call of n steps.
        """
        w, v = np.array(w, dtype=float), np.array(v, dtype=float)
        self._call(_native.LIB.cw_steps, w, v, np.empty(self.grid.n), n, dt)
        return w, v

    def advance(self, w, v, t: float, t_target: float,
                account: _native.Stride):
        """Step from t to t_target under the nonlinear dt cap.

        Before every step the amplitude sqrt(max u^2) over all nodes caps dt
        at 0.35 / (sqrt(5) amp^2).  Returns (w, v, t, stop), with (w, v)
        new arrays and ``stop`` one of "target" (t reached t_target),
        "floor" (the cap fell below dt0 / DT_FLOOR_FACTOR) or "overflow"
        (the amplitude is not finite or above _MAX_SAFE_AMP); on the last
        two stops, t is the time of the state returned.  The stride's steps
        are added to the run's step ``account``.
        """
        w, v = np.array(w, dtype=float), np.array(v, dtype=float)
        t = ctypes.c_double(t)
        stop = self._call(_native.LIB.cw_advance, w, v, np.empty(self.grid.n),
                          self.dt0, self.dt0 / DT_FLOOR_FACTOR, _MAX_SAFE_AMP,
                          ctypes.byref(t), t_target, ctypes.byref(account))
        return w, v, t.value, _STOPS[stop]

    def state_to_wv(self, s: State):
        if s.grid != self.grid:
            raise ValueError("state lives on a different grid")
        return self.r * s.u1.values, self.r * s.u2.values

    def wv_to_state(self, w, v) -> State:
        return State(RadialField(self.grid, w / self.r),
                     RadialField(self.grid, v / self.r))


# ---------------------------------------------------------------------------
# monitors and records
# ---------------------------------------------------------------------------

_SERIES_KEYS = ("t", "tau", "E", "K", "dW", "lambda1", "sigma", "Eext",
                "Vw", "equip")
_EXTRA_KEYS = ("lambda2", "norm_H", "free_ratio", "gamma_norm", "sign", "d0",
               "u2_sq")


@dataclass
class DirectionRun:
    """Monitor series and verdict of a single time direction; ``wall_s`` is
    the wall time of the run, set by :func:`evolve_directions`."""

    series: dict
    verdict: str
    detail: dict
    ejection_rate: float = math.nan
    wall_s: float = math.nan


@dataclass
class TrajectoryRecord:
    """Two-sided monitor series (t < 0 is the backward direction) plus
    per-direction verdicts; series carry the true solution's values."""

    series: dict
    verdict_forward: str
    verdict_backward: str
    detail_forward: dict
    detail_backward: dict
    ejection_rate_forward: float = math.nan
    ejection_rate_backward: float = math.nan

    @classmethod
    def from_runs(cls, fwd: DirectionRun,
                  bwd: DirectionRun) -> "TrajectoryRecord":
        """The two-sided record of a forward run and the forward run of the
        time-reversed data: odd quantities (t, tau, lambda2, Vw, equip) flip
        sign on the backward half."""
        series: dict = {}
        for key in _SERIES_KEYS + _EXTRA_KEYS:
            fb = np.asarray(bwd.series[key], dtype=float)[::-1]
            ff = np.asarray(fwd.series[key], dtype=float)
            if key in ("t", "tau", "lambda2", "Vw", "equip"):
                fb = -fb
            series[key] = np.concatenate([fb[:-1], ff]) if len(fb) else ff
        return cls(series=series,
                   verdict_forward=fwd.verdict, verdict_backward=bwd.verdict,
                   detail_forward=fwd.detail, detail_backward=bwd.detail,
                   ejection_rate_forward=fwd.ejection_rate,
                   ejection_rate_backward=bwd.ejection_rate)

    def column(self, key: str) -> np.ndarray:
        return np.asarray(self.series[key])

    def to_csv(self, path) -> None:
        self._write_csv(path, _SERIES_KEYS)

    def to_extended_csv(self, path) -> None:
        self._write_csv(path, _SERIES_KEYS + _EXTRA_KEYS)

    def _write_csv(self, path, keys) -> None:
        cols = [self.column(k) for k in keys]
        with open(path, "w") as fh:
            fh.write(",".join(keys) + "\n")
            for row in zip(*cols):
                fh.write(",".join(_fmt(x) for x in row) + "\n")

    def save_verdict(self, path) -> None:
        save_json(path, {
            "verdict_forward": self.verdict_forward,
            "verdict_backward": self.verdict_backward,
            "ejection_rate_forward": self.ejection_rate_forward,
            "ejection_rate_backward": self.ejection_rate_backward,
            "detail_forward": self.detail_forward,
            "detail_backward": self.detail_backward,
        })


def _fmt(x) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


def _attempt_fit(s: State, spec: SpectralData, th: Thresholds,
                 last_fit: ModulationFit | None):
    """The converged modulation fit of ``s``, seeded with the (sign, sigma)
    of the run's last converged fit ``last_fit`` ((None, 0) before the
    first); None when the state is clearly far from the family or the
    solve fails."""
    sign, sigma = ((last_fit.sign_s, last_fit.sigma) if last_fit is not None
                   else (None, 0.0))
    # cheap proximity proxy at the seeded (sign, sigma)
    signs = (sign,) if sign is not None else (+1, -1)
    prox = min(_manifold_distance_sq(spec, s, sg, sigma) for sg in signs)
    if math.sqrt(max(prox, 0.0)) * th.C_d0 > 1.5 * th.delta_A:
        return None
    try:
        fit = fit_modulation(s, spec, th, sign_hint=sign, sigma0=sigma)
    except FitError:
        return None
    return fit if fit.converged else None


@np.errstate(over="ignore")
def _monitor_row(s: State, t: float, spec: SpectralData, th: Thresholds,
                 last_fit: ModulationFit | None, last_d0_sigma: float | None):
    """All monitors of one state, and its converged fit (or None), seeded
    with the run's last converged fit ``last_fit``; without a fit, the d_0
    search starts from the last row's minimizer ``last_d0_sigma`` (None
    before the first row), which the row carries on as ``d0_sigma``.  The
    fit, the distances and the functionals share the pieces of the state's
    fields (u1', its far-field fit, the H^1, critical and L^2 norms and the
    cross terms with W_sigma), each computed once; ``sigma_evals`` counts
    the row's full-grid passes in sigma: each cross value (one W_sigma'
    evaluation) and each derivative pass of the d_0 search.  A state past
    the floating-point range gets an infinite norm, without an overflow
    warning.  The row carries no tau: :func:`_rescaled_time` builds it
    after the run."""
    g = s.grid
    row: dict = {"t": t}
    fit = _attempt_fit(s, spec, th, last_fit)
    rep = distance_dW(s, spec, th, fit=fit) if fit is not None else None
    if rep is None:
        d0, row["d0_sigma"] = manifold_distance(spec, s, last_d0_sigma)
        d0 *= th.C_d0
        row.update({"dW": d0, "d0": d0, "lambda1": math.nan,
                    "lambda2": math.nan, "sigma": math.nan,
                    "gamma_norm": math.nan})
    else:
        ms = rep.modes
        row.update({"dW": rep.dW, "d0": rep.d0, "d0_sigma": rep.d0_sigma,
                    "lambda1": ms.lambda1, "lambda2": ms.lambda2,
                    "sigma": fit.sigma, "gamma_norm": ms.gamma_norm})
    nham = norm_H(s)
    row.update({"E": energy_E(s), "K": functional_K(s.u1), "norm_H": nham,
                "u2_sq": l2_norm_sq(s.u2)})
    row["free_ratio"] = crit_norm(s.u1) / max(nham * nham, 1e-300)
    # exterior energy beyond the light cone of the nominal support
    r_cut = SUPPORT_RADIUS + abs(t) + _EXT_PAD
    row["Eext"] = exterior_energy(s, r_cut)
    # localized virial and equipartition brackets
    wcut = smooth_cutoff(g.r / (abs(t) + CONE_S))
    lam0_u = g.r * s.u1.du + 1.5 * s.u1.values
    row["Vw"] = g.quad_meas(wcut * s.u2.values * lam0_u)
    row["equip"] = g.quad_meas(wcut * s.u2.values * s.u1.values)
    row["sign"], row["sign_disagree"] = sign_functional(
        row["dW"], row["lambda1"], row["K"], th)
    row["sigma_evals"] = len(s.u1._cross)
    return row, fit


def _rescaled_time(t, sigma) -> np.ndarray:
    """tau with d tau / dt = e^sigma over a run's rows: the trapezoid of
    e^sigma between the rows with a fit (sigma not NaN), 0 at the first.
    NaN on the rows without a fit, and on every row once more than 5
    consecutive rows have none."""
    tau = np.full(len(t), math.nan)
    acc, gap, prev = 0.0, 0, None
    for i, (ti, si) in enumerate(zip(t.tolist(), sigma.tolist())):
        if math.isnan(si):
            gap += 1
            if gap > 5:
                break
            continue
        if prev is not None:
            acc += 0.5 * (math.exp(prev[1]) + math.exp(si)) * (ti - prev[0])
        tau[i], prev, gap = acc, (ti, si), 0
    return tau


def exterior_energy(s: State, r_cut: float) -> float:
    """||u_vec||^2 in the energy seminorm restricted to r > r_cut."""
    g = s.grid
    mask = g.r > r_cut
    if not np.any(mask):
        return 0.0
    du = s.u1.du
    return float(np.sum(g.w_meas[mask] * (du[mask] ** 2 + s.u2.values[mask] ** 2)))


# ---------------------------------------------------------------------------
# single-direction evolution
# ---------------------------------------------------------------------------

def evolve_direction(state0: State, cfg: EvolutionConfig, spec: SpectralData,
                     thresholds: Thresholds | None = None) -> DirectionRun:
    """Integrate forward in time with monitors and classify the outcome.

    The run steps the next stride on a thread of its own while it builds
    the monitor row of the state the last stride reached: one stride
    overlaps one row.  The stride adds its steps to ``nxt``, a copy of the
    run's step account.  When the row's stop tests go on, the run adopts
    the stride's state and ``nxt``; when they end the run, it waits for
    the stride and drops both, so a dropped stride is never counted.  No
    stride starts once t has reached t_max.  advance() never writes to its
    inputs and the kernel is deterministic, so the run is bitwise that of
    stepping and monitoring in turn.

    The detail splits the run's time, in seconds: ``wait_s``, this thread
    blocked on a stride, the one in flight when the run ends included;
    ``rows_s``, the rest of the loop on this thread (its monitor rows and
    their stop tests); ``strides_s``, every stride inside advance() on the
    stepper thread, a dropped one included; and ``confirm_s``, the
    classification, which holds the blow-up confirmation.  Rows, wait and
    confirmation make up the run's wall time but for its set-up and its
    series; strides minus wait is the time that the two threads
    overlapped.
    """
    th = thresholds or Thresholds()
    ev = RadialWaveEvolver(state0.grid, cfg.cfl)
    w, v = ev.state_to_wv(state0)
    last_fit, d0_sigma = None, None
    with np.errstate(over="ignore"):  # infinite for data past the float range
        norm0 = norm_H(state0)
    threshold = BLOWUP_NORM_MULT * max(norm0, BLOWUP_NORM_FLOOR)
    rows: list[dict] = []
    checkpoints: list[tuple[float, np.ndarray, np.ndarray]] = []
    t = 0.0
    account = _native.Stride()
    exceeded_at, stepper_floor = None, False
    clock = time.perf_counter
    rows_s = wait_s = 0.0
    strides_s: list[float] = []         # appended on the stepper thread

    def timed_advance(*args):
        start = clock()
        try:
            return ev.advance(*args)
        finally:
            strides_s.append(clock() - start)

    # leaving the block waits for a stride in flight; the result of a
    # dropped stride, an error included, is never read, since stepping in
    # turn would not have run it.  The clock is read around each wait, so
    # the loop's time is the rows' plus the waits'.
    start = clock()
    with ThreadPoolExecutor(max_workers=1) as stepper:
        while True:
            stride = None
            if t < cfg.t_max - 1e-9 * max(1.0, cfg.t_max):
                nxt = _native.Stride.from_buffer_copy(account)
                stride = stepper.submit(timed_advance, w, v, t, min(
                    t + cfg.monitor_stride, cfg.t_max), nxt)
            row, fit = _monitor_row(ev.wv_to_state(w, v), t, spec, th,
                                    last_fit, d0_sigma)
            rows.append(row)
            last_fit, d0_sigma = fit or last_fit, row["d0_sigma"]
            if not math.isfinite(row["norm_H"]):
                exceeded_at = t
                break
            checkpoints.append((t, w, v))      # advance() never writes to them
            if len(checkpoints) > 24:
                checkpoints.pop(0)
            if row["norm_H"] > threshold:
                exceeded_at = t
                break
            if stride is None:                 # t reached t_max
                break
            if t >= 1.5 * SCATTER_WINDOW and _scatters(rows, th):
                break
            end = clock()
            rows_s += end - start
            # a stride that stops on the floor or on overflow (amplitude
            # above _MAX_SAFE_AMP or not finite) ends the run: no row is
            # built from the state it returns
            (w, v, t, stop), account = stride.result(), nxt
            start = clock()
            wait_s += start - end
            if stop != "target":
                stepper_floor = stop == "floor"
                exceeded_at = t
                break
        end = clock()
        rows_s += end - start
    wait_s += clock() - end

    series = {k: np.array([r.get(k, math.nan) for r in rows])
              for k in _SERIES_KEYS + _EXTRA_KEYS}
    series["tau"] = _rescaled_time(series["t"], series["sigma"])
    start = clock()
    verdict, detail = _classify(rows, cfg, th, exceeded_at, stepper_floor,
                                checkpoints, ev, threshold)
    confirm_s = clock() - start
    detail.update(sign_disagreements=sum(r["sign_disagree"] for r in rows),
                  sigma_evals=sum(r["sigma_evals"] for r in rows),
                  steps=account.steps, capped_steps=account.capped,
                  min_dt=account.min_dt, rows_s=rows_s,
                  strides_s=math.fsum(strides_s), wait_s=wait_s,
                  confirm_s=confirm_s)
    run = DirectionRun(series=series, verdict=verdict, detail=detail)
    try:
        run.ejection_rate = fit_ejection_rate(series, spec, th)["rate"]
    except (ValueError, RuntimeError):
        run.ejection_rate = math.nan
    return run


def _scatters(rows: list[dict], th: Thresholds) -> bool:
    """Sustained free-wave dominance over the trailing scatter window."""
    window = [r for r in rows if r["t"] >= rows[-1]["t"] - SCATTER_WINDOW]
    norms = [r["norm_H"] for r in window]
    return (len(window) >= 4
            and all(r["K"] > 0 for r in window)
            and all(r["dW"] >= th.delta_star for r in window)
            and max(norms) <= 1.25 * max(min(norms), 1e-12)
            and all(r["free_ratio"] < FREE_RATIO_THRESHOLD for r in window))


def _classify(rows, cfg, th, exceeded_at, stepper_floor, checkpoints, ev,
              threshold):
    detail: dict = {"threshold": threshold,
                    "t_last": rows[-1]["t"]}
    if exceeded_at is not None:
        if checkpoints:
            confirmed, info = _confirm_blowup(checkpoints, ev, cfg, threshold)
        else:           # the first row's norm is not finite
            confirmed, info = False, {
                "confirmed": False,
                "reason": f"energy norm not finite at t = {exceeded_at:g}, "
                          f"before the first checkpoint"}
        detail.update(info, exceeded_at=exceeded_at,
                      stepper_floor=stepper_floor)
        return (BLOWUP if confirmed else UNDETERMINED), detail
    if _scatters(rows, th):
        detail["scatter_window_start"] = detail["t_last"] - SCATTER_WINDOW
        return SCATTER, detail
    detail["reason"] = "horizon reached without confirmed escape or dispersal"
    return UNDETERMINED, detail


def _confirm_blowup(checkpoints, ev: RadialWaveEvolver, cfg: EvolutionConfig,
                    threshold: float):
    """Re-run the tail window on a refined grid and a halved step.

    Norm escape must persist under refinement to count as blow-up; a
    refined run that stops (overflow or stepper floor) before its first step
    confirms nothing.

    The refined run covers [0, R] only (:func:`_confirm_grid`).  By finite
    speed of propagation its solution on the ball r <= R - (t - t0) - pad
    is that of the refined run over the whole domain, so the evidence is
    read there: the escape test uses the norm on the ball, which bounds the
    whole solution's norm from below, and a stop confirms only when max |u|
    lies inside the ball.  When R reaches r_max the rerun is the
    full-domain one, with the far-field norm and no ball.

    Unlike the main run, this loop steps and checks in turn: its per-stride
    check (:func:`_ball_norm`) is cheap, so a stride has nothing to overlap.
    """
    t_back = checkpoints[-1][0] - CONFIRM_WINDOW
    earlier = [cp for cp in checkpoints if cp[0] <= t_back]
    t0, w0, v0 = earlier[-1] if earlier else checkpoints[0]
    horizon = checkpoints[-1][0] + CONFIRM_WINDOW
    fine = _confirm_grid(ev.grid, w0, horizon - t0)
    fallback = fine.n == ev.grid.n * CONFIRM_REFINE
    ev2 = RadialWaveEvolver(fine, 0.5 * (ev.dt0 / ev.h))
    w = _resample_w(ev.grid.r, w0, fine.r)
    v = _resample_w(ev.grid.r, v0, fine.r)

    def ball(t):
        return fine.r_max if fallback else fine.r_max - (t - t0) - _EXT_PAD

    def result(confirmed, t, **info):
        return confirmed, {"confirmed": confirmed, **info,
                           "confirm_steps": account.steps,
                           "confirm_capped_steps": account.capped,
                           "confirm_min_dt": account.min_dt,
                           "confirm_radius": fine.r_max,
                           "confirm_nodes": fine.n,
                           "confirm_fallback": fallback,
                           "ball_radius": float(ball(t))}

    t = t0
    account = _native.Stride()
    peak, prev_norm = 0.0, math.inf
    while t < horizon - 1e-12:
        nrm = (norm_H(ev2.wv_to_state(w, v)) if fallback
               else _ball_norm(fine, w, v, ball(t)))
        peak = max(peak, nrm)
        if nrm > threshold and nrm > prev_norm:     # escaping and growing
            return result(True, t, mode="norm escape on refined grid",
                          t_confirm=t, refined_norm=nrm)
        prev_norm = nrm
        w, v, t, stop = ev2.advance(
            w, v, t, min(t + cfg.monitor_stride, horizon), account)
        if stop != "target":
            mode = ("overflow" if stop == "overflow" else "stepper floor") \
                + " on refined grid"
            if t == t0:
                return result(False, t, mode=mode,
                              reason="refined run stopped before its first "
                                     "step")
            r_amp = _peak_radius(fine.r, w)
            if r_amp > ball(t):
                return result(False, t, mode=mode,
                              reason=f"refined run stopped with max |u| at "
                                     f"r = {r_amp:.4g}, outside the ball "
                                     f"r <= {ball(t):.4g}")
            return result(True, t, mode=mode, t_confirm=t)
    return result(False, t, peak_refined_norm=peak,
                  reason="refined run did not sustain escape")


def _confirm_grid(grid: RadialGrid, w0, window: float) -> RadialGrid:
    """The refined grid of a confirmation over ``window`` from the state
    w0 on ``grid``: the first nodes of the grid refined CONFIRM_REFINE
    times, up to R = r_peak + window + pad + CONFIRM_MARGIN rounded up to
    whole cells, where r_peak is the node of max |u| = |w| / r; the whole
    refined grid once R reaches r_max."""
    full = RadialGrid(3, grid.r_max, grid.n * CONFIRM_REFINE, "uniform")
    reach = _peak_radius(grid.r, w0) + window + _EXT_PAD + CONFIRM_MARGIN
    m = max(16, math.ceil(reach / full.min_spacing))
    return full.head(m) if m < full.n else full


def _peak_radius(r, w) -> float:
    """The node of max |u| = |w| / r (of the first NaN when there is one)."""
    with np.errstate(over="ignore"):
        return float(r[np.argmax(np.abs(w) / r)])


def _ball_norm(grid: RadialGrid, w, v, radius: float) -> float:
    """Energy-space norm of (w / r, v / r) on the ball r <= radius: the
    plain quadrature of |d_r u|^2 + u_t^2 over its nodes."""
    k = int(np.searchsorted(grid.r, radius, side="right"))
    du = grid.deriv(w / grid.r)[:k]
    u2 = v[:k] / grid.r[:k]
    return math.sqrt(float(grid.w_meas[:k] @ (du * du + u2 * u2)))


def _resample_w(r_old, w_old, r_new):
    spl = CubicSpline(np.concatenate([[0.0], r_old]),
                      np.concatenate([[0.0], w_old]))
    return np.asarray(spl(np.clip(r_new, 0.0, r_old[-1])))


# ---------------------------------------------------------------------------
# two-sided evolution
# ---------------------------------------------------------------------------

def evolve_directions(states: list[State], cfg: EvolutionConfig,
                      spec: SpectralData,
                      thresholds: Thresholds | None = None
                      ) -> list[DirectionRun]:
    """The forward run of every state, each distinct state run once, in
    turn, in this process.

    Two states are the same when they share a grid and their values are
    equal: the key is the grid and the bytes of u1 + 0.0 and u2 + 0.0
    (adding 0.0 makes -0 and +0 equal, as == does).  Under the time
    reversal (u, u_t) -> (u, -u_t) this lets a backward run reuse a forward
    one: data with u2 = 0 is its own reversal, and the reversal of
    (u1, u2) is the data (u1, -u2) of another run.  Each run's wall time is
    measured once, into ``wall_s``.
    """
    th = thresholds or Thresholds()
    index: dict[tuple, int] = {}
    runs: list[DirectionRun] = []
    slots = []
    for s in states:
        key = (s.grid, (s.u1.values + 0.0).tobytes(),
               (s.u2.values + 0.0).tobytes())
        if key not in index:
            index[key] = len(runs)
            t0 = time.perf_counter()
            # looked up at call time, so that wrappers of evolve_direction
            # see every run
            run = evolve_direction(s, cfg, spec, th)
            run.wall_s = time.perf_counter() - t0
            runs.append(run)
        slots.append(index[key])
    return [runs[i] for i in slots]


def evolve_with_monitors(state0: State, cfg: EvolutionConfig,
                         spec: SpectralData,
                         thresholds: Thresholds | None = None) -> TrajectoryRecord:
    """Forward plus backward (time-reversed) evolution with monitors.

    The combined series carries the true solution's values at signed times
    (:meth:`TrajectoryRecord.from_runs`); data with u2 = 0 is its own time
    reversal and runs once.
    """
    fwd, bwd = evolve_directions([state0, state0.time_reversed()], cfg, spec,
                                 thresholds)
    return TrajectoryRecord.from_runs(fwd, bwd)


# ---------------------------------------------------------------------------
# post-processing: ejection fit, modulation residual, one-pass shadow
# ---------------------------------------------------------------------------

def fit_ejection_rate(series: dict, spec: SpectralData,
                      thresholds: Thresholds | None = None) -> dict:
    """Least-squares slope of log|lambda_1| against tau on the ejection window.

    The window keeps cosh/sinh transients out (|lambda_1| above a multiple
    of its initial size) and stops at delta_H / 2 where quadratic
    corrections set in; monotonicity of d_W and the scale-drift bound
    |sigma - sigma_0| <= C_sigma d_W are asserted alongside.
    """
    th = thresholds or Thresholds()
    tau = np.asarray(series["tau"], dtype=float)
    lam1 = np.asarray(series["lambda1"], dtype=float)
    lam2 = np.asarray(series["lambda2"], dtype=float)
    dw = np.asarray(series["dW"], dtype=float)
    sig = np.asarray(series["sigma"], dtype=float)
    ok = np.isfinite(tau) & np.isfinite(lam1) & np.isfinite(dw)
    # transient floor: 5x the linearized amplitude scale at tau = 0
    if np.any(ok):
        i0 = int(np.nonzero(ok)[0][0])
        scale0 = max(abs(lam1[i0]),
                     abs(lam2[i0]) / spec.k if math.isfinite(lam2[i0]) else 0.0)
    else:
        scale0 = math.nan
    lam_lo = max(5.0 * scale0, 1e-7)
    sel = ok & (np.abs(lam1) >= lam_lo) & (dw <= 0.5 * th.delta_H)
    if np.count_nonzero(sel) < 5:
        raise ValueError(f"ejection window too short ({np.count_nonzero(sel)} points)")
    x, y = tau[sel], np.log(np.abs(lam1[sel]))
    slope, intercept = np.polyfit(x, y, 1)
    dsel = dw[sel]
    monotone = bool(np.all(np.diff(dsel) > -1e-10))
    sig_sel = sig[sel]
    sigma_drift_ok = bool(np.all(np.abs(sig_sel - sig_sel[0])
                                 <= th.C_sigma * dsel + 1e-12))
    return {"rate": float(slope), "rate_over_k": float(slope / spec.k),
            "n_points": int(np.count_nonzero(sel)),
            "dW_monotone": monotone, "sigma_drift_ok": sigma_drift_ok,
            "tau_span": float(x[-1] - x[0])}


def modulation_ode_residual(series: dict) -> dict:
    """Residual of d lambda_1 / d tau = lambda_2 + sigma_tau lambda_1.

    Centered differences on the recorded monitor series; also verifies the
    drift bound |sigma_tau| <= C ||gamma||_H on the same segment.
    """
    tau = np.asarray(series["tau"], dtype=float)
    lam1 = np.asarray(series["lambda1"], dtype=float)
    lam2 = np.asarray(series["lambda2"], dtype=float)
    sig = np.asarray(series["sigma"], dtype=float)
    gam = np.asarray(series["gamma_norm"], dtype=float)
    ok = np.isfinite(tau) & np.isfinite(lam1) & np.isfinite(lam2) & np.isfinite(sig)
    idx = np.nonzero(ok)[0]
    resid, sigma_tau_vals, gamma_vals, lam2_scale = [], [], [], []
    for j in range(1, len(idx) - 1):
        i0, i1, i2 = idx[j - 1], idx[j], idx[j + 1]
        dtau = tau[i2] - tau[i0]
        if dtau <= 0:
            continue
        dl1 = (lam1[i2] - lam1[i0]) / dtau
        st = (sig[i2] - sig[i0]) / dtau
        resid.append(abs(dl1 - (lam2[i1] + st * lam1[i1])))
        sigma_tau_vals.append(abs(st))
        gamma_vals.append(gam[i1])
        lam2_scale.append(abs(lam2[i1]))
    if not resid:
        raise ValueError("no converged segment for the residual check")
    resid = np.asarray(resid)
    scale = np.maximum(np.asarray(lam2_scale), 1e-12)
    return {"max_abs_residual": float(np.max(resid)),
            "max_rel_residual": float(np.max(resid / scale)),
            "median_rel_residual": float(np.median(resid / scale)),
            "sigma_tau_max": float(np.max(sigma_tau_vals)),
            "sigma_tau_over_gamma": float(np.max(
                np.asarray(sigma_tau_vals)
                / np.maximum(np.asarray(gamma_vals), 1e-12)))}


def one_pass_check(record: TrajectoryRecord,
                   thresholds: Thresholds | None = None) -> dict:
    """Shadow of the one-pass property on a recorded trajectory.

    Violation: the d_W series exits above delta_*, re-enters below it, and
    the recorded fate sign differs across the excursion.
    """
    th = thresholds or Thresholds()
    dw = record.column("dW")
    sign = record.column("sign")
    ok = np.isfinite(dw)
    dw, sign = dw[ok], sign[ok]
    n_changes = violations = 0
    cur = sign_at_exit = 0
    exited = False
    for d, s in zip(dw, sign):
        if s != 0:
            if cur != 0 and s != cur:
                n_changes += 1
            cur = s
        if d > th.delta_star and not exited:
            exited = True
            sign_at_exit = cur
        elif d < th.delta_star and exited:
            if cur != 0 and sign_at_exit != 0 and cur != sign_at_exit:
                violations += 1
            exited = False
    return {"ok": violations == 0 and n_changes <= 1,
            "sign_changes": n_changes, "reentry_violations": violations}

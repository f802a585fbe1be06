import math
import re
import threading
import types
import warnings

import numpy as np
import pytest

from critwave import _native, evolve, modulation
from critwave.config import EvolutionConfig
from critwave.evolve import (_MAX_SAFE_AMP, BLOWUP, CONFIRM_REFINE,
                             CONFIRM_WINDOW, DT_FLOOR_FACTOR, SCATTER,
                             UNDETERMINED, RadialWaveEvolver,
                             _confirm_grid, _rescaled_time, _resample_w,
                             evolve_direction, evolve_with_monitors,
                             exterior_energy, fit_ejection_rate,
                             modulation_ode_residual, one_pass_check)
from critwave.fields import RadialField, State, eval_W
from critwave.functionals import energy_E, l2_norm_sq, norm_H
from critwave.grids import RadialGrid
from critwave.modulation import FitError, SignAmbiguityError
from conftest import TIMINGS, untimed


@pytest.fixture(scope="module")
def dyn_grid():
    return RadialGrid(3, 64.0, 8192, "uniform")


def zeros_on(grid):
    return RadialField(grid, np.zeros(grid.n))


def bump_state(grid, amp=0.1, center=8.0, width=4.0):
    return State(RadialField(grid, amp * np.exp(-((grid.r - center) / width) ** 2)),
                 zeros_on(grid))


class TestStepper:
    def test_zero_state_fixed(self, dyn_grid):
        ev = RadialWaveEvolver(dyn_grid, 0.45)
        w, v = ev.state_to_wv(State(zeros_on(dyn_grid), zeros_on(dyn_grid)))
        w, v = ev.steps(w, v, 25, 0.002)
        assert norm_H(ev.wv_to_state(w, v)) == 0.0

    def test_rejects_wrong_grids(self, static_grid):
        s = State(RadialField(static_grid, np.zeros(static_grid.n)),
                  RadialField(static_grid, np.zeros(static_grid.n)))
        with pytest.raises(ValueError):
            RadialWaveEvolver(static_grid, 0.45)  # stretched spacing
        g5 = RadialGrid(5, 64.0, 1024, "uniform")
        s5 = State(RadialField(g5, np.zeros(1024)), RadialField(g5, np.zeros(1024)))
        with pytest.raises(ValueError):
            RadialWaveEvolver(g5, 0.45)

    def test_ground_state_staticity(self, dyn_grid):
        # ||u_tt||_2 at t = 0 under the discrete interior operator; the two
        # outer closure rows encode the outgoing radiation condition, which
        # a static power-law tail does not satisfy exactly, and are excluded
        w = RadialField(dyn_grid, np.asarray(eval_W(3, dyn_grid.r ** 2)))
        ev = RadialWaveEvolver(dyn_grid, 0.45)
        w_, v_ = ev.state_to_wv(State(w, zeros_on(dyn_grid)))
        acc = ev.force(w_, v_) / ev.r
        acc[-2:] = 0.0
        res = math.sqrt(l2_norm_sq(RadialField(dyn_grid, acc)))
        assert res <= 1e-6

    def test_ground_state_short_drift(self, dyn_grid):
        # unperturbed (W, 0): no blow-up on short horizons; the deviation
        # grows only from discretization noise times the instability
        w = RadialField(dyn_grid, np.asarray(eval_W(3, dyn_grid.r ** 2)))
        s0 = State(w, zeros_on(dyn_grid))
        ev = RadialWaveEvolver(dyn_grid, 0.45)
        w_, v_ = ev.steps(*ev.state_to_wv(s0), 2000,
                          0.45 * dyn_grid.min_spacing)
        assert norm_H(ev.wv_to_state(w_, v_) - s0) <= 1e-3

    def test_energy_drift_small_and_second_order(self, dyn_grid):
        s = bump_state(dyn_grid, amp=0.05, width=6.0)
        e0 = energy_E(s)
        ev = RadialWaveEvolver(dyn_grid, 0.45)
        drifts = []
        for dt in (ev.dt0, 0.5 * ev.dt0):
            w, v = ev.state_to_wv(s)
            n = int(round(8.0 / dt))
            w, v = ev.steps(w, v, n, dt)
            drifts.append(abs(energy_E(ev.wv_to_state(w, v)) - e0) / abs(e0))
        assert drifts[0] < 1e-6
        assert drifts[1] <= drifts[0] / 3.0  # ~2nd order in dt

    def test_tiny_bump_1000_steps(self, dyn_grid):
        s = bump_state(dyn_grid, amp=1e-3, center=10.0, width=10.0)
        e0 = energy_E(s)
        ev = RadialWaveEvolver(dyn_grid, 0.45)
        w, v = ev.state_to_wv(s)
        worst = 0.0
        for _ in range(10):
            w, v = ev.steps(w, v, 100, 1e-3)
            worst = max(worst, abs(energy_E(ev.wv_to_state(w, v)) - e0) / abs(e0))
        assert worst < 1e-8

    def test_time_reversal_round_trip(self, dyn_grid):
        s = bump_state(dyn_grid, amp=0.2, center=10.0, width=3.0)
        ev = RadialWaveEvolver(dyn_grid, 0.45)
        w0, v0 = ev.state_to_wv(s)
        w1, v1 = ev.steps(w0.copy(), v0.copy(), 400, ev.dt0)
        w2, v2 = ev.steps(w1, -v1, 400, ev.dt0)
        assert np.max(np.abs(w2 - w0)) <= 1e-10
        assert np.max(np.abs(v2 + v0)) <= 1e-9

    def test_finite_propagation_speed(self, dyn_grid):
        s = bump_state(dyn_grid, amp=0.2, center=8.0, width=3.0)
        r0 = 26.0  # effective support at double precision
        ev = RadialWaveEvolver(dyn_grid, 0.45)
        w, v = ev.state_to_wv(s)
        t = 0.0
        for _ in range(4):
            n = int(round(6.0 / ev.dt0))
            w, v = ev.steps(w, v, n, ev.dt0)
            t += n * ev.dt0
            st = ev.wv_to_state(w, v)
            ext = exterior_energy(st, r0 + t + 2.0)
            assert math.sqrt(ext) <= 1e-8


def reference_force(ev, w, v):
    """The stepper's force as one vectorized expression."""
    h, c = ev.h, ev.inv12h2
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.empty_like(w)
        a[2:-2] = (-w[:-4] + 16.0 * w[1:-3] - 30.0 * w[2:-2]
                   + 16.0 * w[3:-1] - w[4:]) * c
        a[0] = (-46.0 * w[0] + 17.0 * w[1] - w[2]) * c
        a[1] = (17.0 * w[0] - 30.0 * w[1] + 16.0 * w[2] - w[3]) * c
        a[-2] = (w[-3] - 2.0 * w[-2] + w[-1]) / (h * h)
        a[-1] = (2.0 * w[-2] - 2.0 * w[-1] - 2.0 * h * v[-1]) / (h * h)
        u_sq = (w * w) / (ev.r * ev.r)
        a += w * u_sq * u_sq
    return a


def reference_verlet(ev, w, v, n, dt):
    """Velocity-Verlet with two force evaluations per call: the force at
    (w, v) on entry, then one per step at (w, v_half)."""
    a = reference_force(ev, w, v)
    half = 0.5 * dt
    for _ in range(n):
        vh = v + half * a
        w = w + dt * vh
        a = reference_force(ev, w, vh)
        v = vh + half * a
    return w, v, a


def reference_amplitude(ev, w):
    """max |u| = sqrt(max w^2 / r^2) over all nodes (nan when w is not
    finite)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return math.sqrt(float(np.max((w * w) / ev.r_sq)))


def reference_nl_dt_cap(amp, dt0):
    """Stability cap from the instantaneous nonlinear frequency sqrt(5) u^2
    at a finite amplitude."""
    omega = math.sqrt(5.0) * amp * amp
    return min(dt0, 0.35 / max(omega, 1e-300))


class ReferenceStepper:
    """The numpy stepper that the compiled kernel replaced: one force
    evaluation per step, the previous step's force carried with its outgoing
    row refreshed from the full-step velocity, and advance() under the
    nonlinear dt cap with max |u| over all nodes before every step.  Counts
    its force evaluations and records (dt, cap) of every step."""

    def __init__(self, ev):
        self.ev = ev
        self.force_calls = 0
        self.taken = []

    def force(self, w, v):
        self.force_calls += 1
        return reference_force(self.ev, w, v)

    def outgoing_row(self, w, v):
        h = float(self.ev.h)
        wl = float(w[-1])
        lin = ((2.0 * float(w[-2]) - 2.0 * wl - 2.0 * h * float(v[-1]))
               / (h * h))
        u_sq = (wl * wl) / float(self.ev.r_sq[-1])
        return lin + wl * u_sq * u_sq

    def step(self, w, v, a, dt, cap=math.nan):
        half = 0.5 * dt
        a = a.copy()
        a[-1] = self.outgoing_row(w, v)
        v = v + a * half
        w = w + v * dt
        a = self.force(w, v)
        self.taken.append((dt, cap))
        return w, v + a * half, a

    def steps(self, w, v, n, dt, a=None):
        a = self.force(w, v) if a is None else a
        for _ in range(n):
            w, v, a = self.step(w, v, a, dt)
        return w, v, a

    def advance(self, w, v, t, t_target, a=None):
        """(w, v, a, t, stop) as RadialWaveEvolver.advance, with (dt, cap)
        of each step appended to ``taken``."""
        dt0 = self.ev.dt0
        a = self.force(w, v) if a is None else a
        amp = reference_amplitude(self.ev, w)
        while True:
            if not amp <= _MAX_SAFE_AMP:
                stop = "overflow"
                break
            if t >= t_target - 1e-12:
                stop = "target"
                break
            dt_cap = reference_nl_dt_cap(amp, dt0)
            if dt_cap < dt0 / DT_FLOOR_FACTOR:
                stop = "floor"
                break
            dt = min(dt_cap, t_target - t)
            w, v, a = self.step(w, v, a, dt, dt_cap)
            t += dt
            amp = reference_amplitude(self.ev, w)
        return w, v, a, t, stop


def step_counts(taken, dt0):
    """(steps, capped steps, smallest dt) of the reference's steps
    ``taken``: the step account of the kernel."""
    return (len(taken), sum(cap < dt0 for _, cap in taken),
            min((dt for dt, _ in taken), default=math.inf))


def account_counts(account):
    """(steps, capped steps, smallest dt) of a kernel step account."""
    return account.steps, account.capped, account.min_dt


class TestForceReuse:
    @pytest.fixture()
    def outgoing(self, dyn_grid):
        # an outgoing pulse that reaches r_max within the run
        ev = RadialWaveEvolver(dyn_grid, 0.45)
        w = dyn_grid.r * 0.3 * np.exp(-((dyn_grid.r - 62.0) / 1.5) ** 2)
        return ev, w, -np.gradient(w, dyn_grid.r)

    def test_carried_force_bitwise_equal_to_two_force_verlet(self, outgoing):
        ev, w0, v0 = outgoing
        dts = [ev.dt0] * 150 + [0.7 * ev.dt0] * 149 + [0.1 * ev.dt0]
        ref = ReferenceStepper(ev)
        w, v = w0, v0
        wc, vc, ac = w0, v0, None
        for dt in dts:
            w, v = ev.steps(w, v, 1, dt)
            wc, vc, ac = ref.steps(wc, vc, 1, dt, ac)
        wr, vr = w0, v0
        for dt in dts:
            wr, vr, ar = reference_verlet(ev, wr, vr, 1, dt)
        assert abs(vr[-1]) > 1e-3          # the outgoing row is exercised
        for got in ((w, v), (wc, vc)):
            assert np.array_equal(got[0], wr)
            assert np.array_equal(got[1], vr)
        assert np.array_equal(ac, ar)
        assert ref.force_calls == len(dts) + 1  # one force per step
        # the force the kernel recomputes on entry equals the carried one
        # in every row that reads only w
        assert np.array_equal(ev.force(w, v)[:-1], ar[:-1])

    def test_multi_step_call_bitwise_equal(self, outgoing):
        # each step refreshes the outgoing row with the full-step v, so one
        # call of 300 steps equals 300 chained one-step calls
        ev, w0, v0 = outgoing
        want = (w0, v0)
        for _ in range(300):
            want = reference_verlet(ev, want[0], want[1], 1, 0.8 * ev.dt0)
        for got, ref in zip(ev.steps(w0, v0, 300, 0.8 * ev.dt0), want):
            assert np.array_equal(got, ref)

    def test_inputs_untouched(self, outgoing):
        ev, w0, v0 = outgoing
        w_in, v_in = w0.copy(), v0.copy()
        ev.force(w_in, v_in)
        ev.steps(w_in, v_in, 5, ev.dt0)
        ev.advance(w_in, v_in, 0.0, 5.5 * ev.dt0, _native.Stride())
        assert np.array_equal(w_in, w0)
        assert np.array_equal(v_in, v0)


def old_stride_loop(ev, w, v, t, t_target, floor_factor=4096.0):
    """The run loop's stride as it was before advance(): one-step steps()
    calls, the exact amplitude at the stride start and a w[::8] subsample
    after every step.  Returns (w, v, t, dts)."""
    amp = float(np.max(np.abs(w / ev.r)))
    dts = []
    while t < t_target - 1e-12:
        dt_cap = reference_nl_dt_cap(amp, ev.dt0)
        if dt_cap < ev.dt0 / floor_factor:
            break
        dt = min(dt_cap, t_target - t)
        w, v = ev.steps(w, v, 1, dt)
        t += dt
        dts.append(dt)
        amp = float(np.max(np.abs(w[::8] / ev.r[::8])))
        if not math.isfinite(amp) or amp > _MAX_SAFE_AMP:
            break
    return w, v, t, dts


class TestAdvance:
    def test_bitwise_equal_to_one_step_run_loop(self, dyn_grid):
        # a moderate pulse never engages the cap; strides end off the dt grid
        s = bump_state(dyn_grid, amp=0.3, center=6.0, width=2.0)
        ev = RadialWaveEvolver(dyn_grid, 0.45)
        w0, v0 = ev.state_to_wv(s)
        got = want = (w0, v0, 0.0)
        account = _native.Stride()
        for t_target in (0.25, 0.5, 0.75, 0.9, 1.15):
            *got, stop = ev.advance(*got, t_target, account)
            assert stop == "target"
            want = old_stride_loop(ev, *want, t_target)[:3]
            assert all(np.array_equal(x, y) for x, y in zip(got[:2], want[:2]))
            assert got[2] == want[2]

    def test_spike_between_subsample_nodes_engages_cap(self, dyn_grid):
        # |u| = 8 at one node off the w[::8] lattice: the cap is
        # 0.35 / (sqrt(5) 64) < dt0, which the subsample misses after step 1
        ev = RadialWaveEvolver(dyn_grid, 0.45)
        i = 8 * 160 + 4
        w = np.zeros(dyn_grid.n)
        w[i] = 8.0 * dyn_grid.r[i]
        v = np.zeros(dyn_grid.n)
        cap = 0.35 / (math.sqrt(5.0) * 64.0)
        assert cap < ev.dt0
        t_target = 4.0 * ev.dt0
        *_, t_old, old_dts = old_stride_loop(ev, w, v, 0.0, t_target)
        assert old_dts[0] < ev.dt0 and old_dts[1] == ev.dt0
        ref = ReferenceStepper(ev)
        account = _native.Stride()
        *_, t, stop = ev.advance(w, v, 0.0, t_target, account)
        assert ref.advance(w, v, 0.0, t_target)[3:] == (t, stop)
        assert account_counts(account) == step_counts(ref.taken, ev.dt0)
        assert stop == "target" and t == t_old
        assert ref.taken[0][0] == old_dts[0]
        # the exact amplitude still caps step 2
        assert account.capped == 2 and ref.taken[1][0] < ev.dt0

    def test_nan_returns_overflow(self, dyn_grid):
        ev = RadialWaveEvolver(dyn_grid, 0.45)
        w, v = ev.state_to_wv(bump_state(dyn_grid))
        w[100] = math.nan
        account = _native.Stride()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            *_, t, stop = ev.advance(w, v, 1.5, 2.0, account)
        assert stop == "overflow"
        assert t == 1.5
        assert account_counts(account) == (0, 0, math.inf)

    def test_cap_below_floor_returns_floor(self, dyn_grid):
        ev = RadialWaveEvolver(dyn_grid, 0.45)
        w, v = ev.state_to_wv(bump_state(dyn_grid, amp=1e3, width=1.0))
        assert reference_nl_dt_cap(1e3, ev.dt0) < ev.dt0 / DT_FLOOR_FACTOR
        account = _native.Stride()
        w1, v1, t, stop = ev.advance(w, v, 1.5, 2.0, account)
        assert stop == "floor"
        assert t == 1.5 and account_counts(account) == (0, 0, math.inf)
        assert np.array_equal(w1, w) and np.array_equal(v1, v)
        ref = ReferenceStepper(ev)
        assert ref.advance(w, v, 1.5, 2.0)[3:] == (t, stop)
        assert not ref.taken

    def test_run_detail_reads_one_account_of_all_strides(self, spectral,
                                                         thresholds):
        cfg = EvolutionConfig(n=1024, r_max=32.0, t_max=2.0,
                              monitor_stride=0.5)
        grid = RadialGrid(3, cfg.r_max, cfg.n, "uniform")
        s = bump_state(grid, amp=0.3, center=6.0, width=2.0)
        run = evolve_direction(s, cfg, spectral, thresholds)
        # the run's strides again, each with an account of its own
        ev = RadialWaveEvolver(grid, cfg.cfl)
        (w, v), t, per_stride = ev.state_to_wv(s), 0.0, []
        for _ in run.series["t"][1:]:
            account = _native.Stride()
            w, v, t, stop = ev.advance(
                w, v, t, min(t + cfg.monitor_stride, cfg.t_max), account)
            per_stride.append(account_counts(account))
        steps, capped, min_dt = zip(*per_stride)
        assert len(steps) == 4 and min(steps) > 0 and stop == "target"
        assert (run.detail["steps"], run.detail["capped_steps"],
                run.detail["min_dt"]) == (sum(steps), sum(capped),
                                          min(min_dt))


def bitwise_equal(x, y):
    """Equal bit patterns, except that any NaN equals any NaN."""
    nan = np.isnan(x)
    return (np.array_equal(nan, np.isnan(y))
            and x[~nan].tobytes() == y[~nan].tobytes())


def assert_strides_match_reference(ev, w, v, strides, t=0.0):
    """advance() over consecutive strides, up to the first stop that is not
    "target", bitwise equal to the reference stepper; returns the
    reference's (stop, taken) of each stride.  The reference carries its
    force from stride to stride, the kernel recomputes it on entry, so equal
    strides after the first show the two forces equal.  One step account
    takes every stride, so after each it counts the reference's steps so
    far."""
    ref = ReferenceStepper(ev)
    account = _native.Stride()
    got, want = (w, v, t), (w, v, None, t)
    out = []
    for t_target in strides:
        prev, kept = got, [x.copy() for x in got[:2]]
        *got, stop = ev.advance(*got, t_target, account)
        first = len(ref.taken)
        *want, ref_stop = ref.advance(want[0], want[1], want[3], t_target,
                                      want[2])
        assert all(bitwise_equal(x, y) for x, y in zip(got[:2], want[:2]))
        assert (got[2], stop) == (want[3], ref_stop)
        assert account_counts(account) == step_counts(ref.taken, ev.dt0)
        # the inputs are untouched
        assert all(bitwise_equal(x, y) for x, y in zip(prev[:2], kept))
        out.append((stop, ref.taken[first:]))
        if stop != "target":
            break
    return out


def focusing_pulse(grid, amp=1.0):
    """An incoming pulse of w at r = 4 whose |u| grows as it nears r = 0."""
    w = amp * np.exp(-((grid.r - 4.0) / 0.5) ** 2)
    return w, np.gradient(w, grid.r)


class TestKernelMatchesReference:
    """The compiled advance() against the numpy reference stepper, on the
    cases a fused loop could get wrong."""

    @pytest.mark.parametrize("n", [16, 1023, 2561])
    def test_node_counts_off_the_lane_width(self, n, spectral, dyn_grid):
        if n == 2561:
            # the head grid of a blow-up confirmation, at its halved CFL
            g = dyn_grid
            w = g.r * (np.asarray(eval_W(3, g.r ** 2))
                       + 1e-3 * spectral.rho_on(g))
            grid = _confirm_grid(g, w, 6.0)
            w, cfl = _resample_w(g.r, w, grid.r), 0.225
        else:
            grid = RadialGrid(3, 16.0, 1024, "uniform").head(n)
            w = grid.r * 0.5 * np.exp(-(grid.r - 0.5 * grid.r_max) ** 2)
            cfl = 0.45
        assert grid.n == n
        ev = RadialWaveEvolver(grid, cfl)
        strides = assert_strides_match_reference(
            ev, w, np.zeros(n), [0.25, 0.5, 0.75])
        assert [stop for stop, *_ in strides] == ["target"] * 3

    def test_peak_in_the_last_node(self, dyn_grid):
        # max |u| = 8 at node n - 1 of an odd grid, past the last full
        # pair: it caps the first step, and the force's maximum caps the
        # second
        grid = RadialGrid(3, 64.0, 8192, "uniform").head(2561)
        ev = RadialWaveEvolver(grid, 0.45)
        w = np.zeros(grid.n)
        w[-1] = 8.0 * grid.r[-1]
        (stop, taken), = assert_strides_match_reference(
            ev, w, np.zeros(grid.n), [4.0 * ev.dt0])
        assert stop == "target" and step_counts(taken, ev.dt0)[1] == 2
        assert taken[0][1] < ev.dt0 and taken[1][1] < ev.dt0

    def test_cap_engages_mid_stride(self):
        grid = RadialGrid(3, 16.0, 1024, "uniform").head(1023)
        ev = RadialWaveEvolver(grid, 0.45)
        strides = assert_strides_match_reference(
            ev, *focusing_pulse(grid), [0.5 * k for k in range(1, 12)])
        # one stride starts uncapped and ends capped, at its target; the
        # next is capped throughout and stops at the floor
        (stop, taken), (last_stop, last) = strides[-2:]
        steps, capped, _ = step_counts(taken, ev.dt0)
        assert stop == "target" and 0 < capped < steps
        assert taken[0][1] == ev.dt0 and taken[-2][1] < ev.dt0
        steps, capped, _ = step_counts(last, ev.dt0)
        assert last_stop == "floor" and capped == steps > 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("node", [100, -1])
    def test_non_finite_velocity_stops_after_one_step(self, bad, node):
        # w is finite, so the stride takes its first step; that step makes
        # w non-finite and the stride stops with "overflow" at t + dt0
        grid = RadialGrid(3, 64.0, 8192, "uniform").head(2561)
        ev = RadialWaveEvolver(grid, 0.45)
        w = grid.r * 0.1 * np.exp(-((grid.r - 4.0) / 2.0) ** 2)
        v = np.zeros(grid.n)
        v[node] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the reference's
            (stop, taken), = assert_strides_match_reference(
                ev, w, v, [2.0], t=1.5)
        assert stop == "overflow"
        assert step_counts(taken, ev.dt0) == (1, 0, ev.dt0)
        *_, t, _ = ev.advance(w, v, 1.5, 2.0, _native.Stride())
        assert t == 1.5 + ev.dt0

    def test_outgoing_row_exercised(self, dyn_grid):
        ev = RadialWaveEvolver(dyn_grid, 0.45)
        w = dyn_grid.r * 0.3 * np.exp(-((dyn_grid.r - 62.0) / 1.5) ** 2)
        v = -np.gradient(w, dyn_grid.r)
        assert_strides_match_reference(ev, w, v, [0.25, 0.5])
        w1, v1, *_ = ev.advance(w, v, 0.0, 0.5, _native.Stride())
        assert abs(v1[-1]) > 1e-3


# the nodes per chunk of the kernel's step, as its source declares them
CHUNK = int(re.search(r"enum \{ CHUNK = (\d+) \};",
                      _native.SOURCES[0].read_text()).group(1))


class TestBlockedStep:
    """The step's one sweep over chunks of CHUNK nodes against the numpy
    reference stepper: grids of one chunk or less down to the smallest,
    around a chunk's end and past two chunks, and the stops."""

    @staticmethod
    def evolver(n):
        """A stepper on n nodes of cells of 0.05, so that a pulse spans even
        the smallest grid.  RadialGrid takes 16 nodes at least: below that
        the stepper keeps the first n nodes of a 16-node grid, and a grid
        that is its node count alone, all that the kernel call reads."""
        m = max(n, 16)
        ev = RadialWaveEvolver(RadialGrid(3, 0.05 * m, m, "uniform"), 0.45)
        if n < m:
            ev.grid = types.SimpleNamespace(n=n)
            ev.r, ev.r_sq = ev.r[:n].copy(), ev.r_sq[:n].copy()
        return ev

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, CHUNK - 1, CHUNK,
                                   CHUNK + 1, 2 * CHUNK + 3])
    def test_bitwise_the_reference(self, n):
        ev = self.evolver(n)
        # an outgoing pulse of |u| up to 1.5 in the middle of the grid: the
        # nonlinearity and the outgoing row both act
        r_max = 0.05 * n
        w = ev.r * 1.5 * np.exp(-((ev.r - 0.5 * r_max) / (0.2 * r_max)) ** 2)
        strides = assert_strides_match_reference(
            ev, w, -np.gradient(w, ev.r), [5 * ev.dt0, 12.5 * ev.dt0])
        assert [stop for stop, _ in strides] == ["target"] * 2
        assert sum(len(taken) for _, taken in strides) == 13

    @pytest.mark.parametrize("node", [CHUNK - 3, CHUNK - 2, CHUNK - 1, CHUNK,
                                      2 * CHUNK + 2])
    def test_nan_velocity_at_a_chunk_edge(self, node):
        # the chunk of node and the force two nodes behind it see the NaN;
        # the stride stops on overflow after one step
        ev = self.evolver(2 * CHUNK + 3)
        grid = ev.grid
        w = grid.r * 0.1 * np.exp(-((grid.r - 20.0) / 5.0) ** 2)
        v = np.zeros(grid.n)
        v[node] = math.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the reference's
            (stop, taken), = assert_strides_match_reference(
                ev, w, v, [1.0])
        assert stop == "overflow" and len(taken) == 1

    def test_overflow_at_entry(self):
        ev = self.evolver(2 * CHUNK + 3)
        grid = ev.grid
        w = np.zeros(grid.n)
        w[CHUNK] = 1e160
        (stop, taken), = assert_strides_match_reference(
            ev, w, np.zeros(grid.n), [1.0])
        assert stop == "overflow" and not taken

    def test_floor_stop(self):
        # a focusing pulse across two chunks: capped steps, then the floor
        ev = self.evolver(2 * CHUNK + 3)
        grid = ev.grid
        w = 1.5 * np.exp(-((grid.r - 10.0) / 1.0) ** 2)
        strides = assert_strides_match_reference(
            ev, w, np.gradient(w, grid.r), [1.0 * k for k in range(1, 40)])
        stop, taken = strides[-1]
        assert stop == "floor" and step_counts(taken, ev.dt0)[1] > 0


class TestDetectors:
    def test_negative_energy_blowup(self, spectral, thresholds, dyn_grid):
        cfg = EvolutionConfig(n=dyn_grid.n, r_max=dyn_grid.r_max, t_max=10.0)
        w = np.asarray(eval_W(3, dyn_grid.r ** 2))
        s = State(RadialField(dyn_grid, 2.0 * w), zeros_on(dyn_grid))
        run = evolve_direction(s, cfg, spectral, thresholds)
        assert run.verdict == BLOWUP
        assert run.detail["exceeded_at"] < 5.0

    def test_small_bump_scatters(self, spectral, thresholds, dyn_grid):
        cfg = EvolutionConfig(n=dyn_grid.n, r_max=dyn_grid.r_max, t_max=40.0)
        run = evolve_direction(bump_state(dyn_grid, amp=0.05), cfg, spectral,
                               thresholds)
        assert run.verdict == SCATTER

    def test_half_W_scatters(self, spectral, thresholds, dyn_grid):
        # subcritical-energy positive-K data disperse
        cfg = EvolutionConfig(n=dyn_grid.n, r_max=dyn_grid.r_max, t_max=40.0)
        w = np.asarray(eval_W(3, dyn_grid.r ** 2))
        run = evolve_direction(State(RadialField(dyn_grid, 0.5 * w),
                                     zeros_on(dyn_grid)), cfg, spectral,
                               thresholds)
        assert run.verdict == SCATTER

    def test_refined_rerun_that_cannot_step_is_undetermined(self, spectral,
                                                            thresholds):
        # one node above _MAX_SAFE_AMP: the run stops at t = 0, and its
        # refined rerun overflows before its first step, which confirms
        # nothing
        g = RadialGrid(3, 32.0, 1024, "uniform")
        u1 = np.zeros(g.n)
        u1[100] = 1e13
        cfg = EvolutionConfig(n=g.n, r_max=g.r_max, t_max=2.0)
        run = evolve_direction(State(RadialField(g, u1), zeros_on(g)), cfg,
                               spectral, thresholds)
        assert 1e13 > _MAX_SAFE_AMP
        assert run.verdict == UNDETERMINED
        assert run.detail["exceeded_at"] == 0.0
        assert run.detail["confirmed"] is False
        assert run.detail["mode"] == "overflow on refined grid"
        assert run.detail["reason"] == "refined run stopped before its first step"

    def test_ground_state_undetermined_short(self, spectral, thresholds,
                                             dyn_grid):
        # (W, 0) on a short horizon: neither confirmed escape nor dispersal
        cfg = EvolutionConfig(n=dyn_grid.n, r_max=dyn_grid.r_max, t_max=4.0)
        w = np.asarray(eval_W(3, dyn_grid.r ** 2))
        run = evolve_direction(State(RadialField(dyn_grid, w),
                                     zeros_on(dyn_grid)), cfg, spectral,
                               thresholds)
        assert run.verdict == UNDETERMINED


def huge_velocity_state(grid, scale):
    """u1 a bump of height 0.1 at r = 4 and u2 ``scale`` times it."""
    bump = 0.1 * np.exp(-((grid.r - 4.0) / 2.0) ** 2)
    return State(RadialField(grid, bump), RadialField(grid, scale * bump))


class TestNonFiniteData:
    """A state that leaves the floating-point range ends the run in a
    verdict, with a strict-JSON sidecar and no RuntimeWarning."""

    GRID = RadialGrid(3, 32.0, 1024, "uniform")
    CFG = EvolutionConfig(n=1024, r_max=32.0, t_max=2.0, cfl=0.45,
                          monitor_stride=0.5)

    def test_overflow_stop_builds_no_row(self, spectral, thresholds):
        s = huge_velocity_state(self.GRID, 1e150)
        # the first stride stops on overflow with w finite and v not
        ev = RadialWaveEvolver(self.GRID, self.CFG.cfl)
        w, v, t, stop = ev.advance(*ev.state_to_wv(s), 0.0, 0.5,
                                   _native.Stride())
        assert stop == "overflow"
        assert np.all(np.isfinite(w)) and not np.all(np.isfinite(v))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run = evolve_direction(s, self.CFG, spectral, thresholds)
        assert run.series["t"].tolist() == [0.0]
        assert run.detail["exceeded_at"] == t
        assert run.detail["stepper_floor"] is False
        # the confirmation reruns from the checkpoint at t = 0
        assert run.verdict == BLOWUP
        assert run.detail["mode"] == "overflow on refined grid"
        assert run.detail["t_confirm"] > 0.0

    def test_infinite_norm_at_t0_is_undetermined(self, spectral,
                                                 thresholds):
        s = huge_velocity_state(self.GRID, 1e200)
        with np.errstate(over="ignore"):
            assert norm_H(s) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run = evolve_direction(s, self.CFG, spectral, thresholds)
        assert run.verdict == UNDETERMINED
        assert run.detail["reason"] == ("energy norm not finite at t = 0, "
                                        "before the first checkpoint")
        assert run.detail["exceeded_at"] == 0.0
        assert run.detail["threshold"] == math.inf

    @pytest.mark.parametrize("scale", [1e150, 1e200, 0.0])
    def test_sidecar_is_strict_json(self, scale, spectral, thresholds,
                                    tmp_path, strict_json):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = evolve_with_monitors(huge_velocity_state(self.GRID, scale),
                                       self.CFG, spectral, thresholds)
        rec.save_verdict(tmp_path / "run.json")
        side = strict_json(tmp_path / "run.json")
        assert side["verdict_forward"] in (BLOWUP, SCATTER, UNDETERMINED)


class TestFitFailureInRun:
    """A modulation fit that raises inside a run leaves its row without a
    fit: the row's distance is the proxy d0 and its fit columns are NaN."""

    @pytest.mark.parametrize("exc", [FitError, SignAmbiguityError])
    def test_raising_fit_gives_rows_without_fit(self, exc, spectral,
                                                thresholds, monkeypatch):
        calls = []

        def raising(*args, **kwargs):
            calls.append(args)
            raise exc("forced failure")

        monkeypatch.setattr(evolve, "fit_modulation", raising)
        cfg = EvolutionConfig(n=2048, r_max=32.0, t_max=1.0,
                              monitor_stride=0.25)
        g = RadialGrid(3, cfg.r_max, cfg.n, "uniform")
        w = np.asarray(eval_W(3, g.r ** 2))
        s = State(RadialField(g, w + 1e-3 * spectral.rho_on(g)), zeros_on(g))
        run = evolve_direction(s, cfg, spectral, thresholds)
        assert calls and len(run.series["t"]) > 1
        assert run.verdict in (BLOWUP, SCATTER, UNDETERMINED)
        for key in ("lambda1", "sigma", "tau"):
            assert np.all(np.isnan(run.series[key])), key
        assert run.series["dW"].tobytes() == run.series["d0"].tobytes()


def accumulated_tau(t, sigma):
    """The tau column as monitor rows once accumulated it, row by row: the
    trapezoid of e^sigma across converged stretches, invalid for good once
    more than 5 consecutive rows have no fit."""
    tau, tau_valid = 0.0, True
    last_fit_t = last_sigma = math.nan
    gap = 0
    out = []
    for ti, sigma_now in zip(t, sigma):
        if not math.isnan(sigma_now):
            if not math.isnan(last_sigma):
                if gap <= 5:
                    dt_gap = ti - last_fit_t
                    tau += 0.5 * (math.exp(last_sigma)
                                  + math.exp(sigma_now)) * dt_gap
                else:
                    tau_valid = False
            last_sigma = sigma_now
            last_fit_t = ti
            gap = 0
        else:
            gap += 1
            if gap > 5:
                tau_valid = False
        out.append(tau if tau_valid and not math.isnan(sigma_now)
                   else math.nan)
    return np.array(out)


class TestRescaledTime:
    """_rescaled_time equals the old per-row accumulation byte for byte."""

    @staticmethod
    def series(fit_mask, seed=0):
        # uneven times and scales of either sign; NaN sigma where no fit
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.uniform(0.01, 0.7, len(fit_mask)))
        sigma = np.where(fit_mask, rng.uniform(-2.0, 2.0, len(fit_mask)),
                         math.nan)
        return t, sigma

    @pytest.mark.parametrize("fit_mask, n_tau", [
        pytest.param([0] * 12, 0, id="no-fit"),
        pytest.param([0] * 5 + [1] * 7, 7, id="5-rows-before-first-fit"),
        pytest.param([0] * 6 + [1] * 7, 0, id="6-rows-before-first-fit"),
        pytest.param([1] * 4 + [0] * 5 + [1] * 4, 8, id="5-row-gap-bridged"),
        pytest.param([1] * 4 + [0] * 6 + [1] * 4, 4, id="6-row-gap-ends-tau"),
        pytest.param([1] * 20, 20, id="uneven-t"),
        pytest.param([1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1], 6, id="short-gaps"),
    ])
    def test_matches_row_accumulation(self, fit_mask, n_tau):
        t, sigma = self.series(np.array(fit_mask, dtype=bool))
        tau = _rescaled_time(t, sigma)
        assert tau.tobytes() == accumulated_tau(t, sigma).tobytes()
        assert np.count_nonzero(np.isfinite(tau)) == n_tau

    def test_run_column_matches_row_accumulation(self, spectral, thresholds):
        # a run near W: most rows fit, and tau grows along them
        cfg = EvolutionConfig(n=2048, r_max=32.0, t_max=2.0,
                              monitor_stride=0.25)
        g = RadialGrid(3, cfg.r_max, cfg.n, "uniform")
        w = np.asarray(eval_W(3, g.r ** 2))
        s = State(RadialField(g, w + 1e-3 * spectral.rho_on(g)), zeros_on(g))
        run = evolve_direction(s, cfg, spectral, thresholds)
        t, sigma, tau = (run.series[k] for k in ("t", "sigma", "tau"))
        assert np.count_nonzero(np.isfinite(tau)) > 1
        assert tau.tobytes() == accumulated_tau(t.tolist(),
                                                sigma.tolist()).tobytes()


class TestSignDisagreements:
    def test_detail_sums_the_row_flags(self, spectral, thresholds,
                                       monkeypatch):
        flags = []

        def flagging(dW, lambda1, K, th):
            flags.append(len(flags) % 3 == 0)
            return 1, flags[-1]

        monkeypatch.setattr(evolve, "sign_functional", flagging)
        cfg = EvolutionConfig(n=2048, r_max=32.0, t_max=2.0,
                              monitor_stride=0.25)
        g = RadialGrid(3, cfg.r_max, cfg.n, "uniform")
        run = evolve_direction(bump_state(g, amp=0.01), cfg, spectral,
                               thresholds)
        assert len(flags) == len(run.series["t"]) == 9
        assert run.detail["sign_disagreements"] == sum(flags) == 3
        assert "sign_disagree" not in run.series


def full_domain_confirmation(checkpoints, ev, cfg, threshold):
    """The blow-up confirmation over the whole refined domain: the tail
    window rerun on the grid refined CONFIRM_REFINE times over [0, r_max],
    with the far-field norm and no ball.  Returns (confirmed, detail)."""
    t_back = checkpoints[-1][0] - CONFIRM_WINDOW
    earlier = [cp for cp in checkpoints if cp[0] <= t_back]
    t0, w0, v0 = earlier[-1] if earlier else checkpoints[0]
    fine = RadialGrid(3, ev.grid.r_max, ev.grid.n * CONFIRM_REFINE, "uniform")
    ev2 = RadialWaveEvolver(fine, 0.5 * (ev.dt0 / ev.h))
    w = _resample_w(ev.grid.r, w0, fine.r)
    v = _resample_w(ev.grid.r, v0, fine.r)
    t = t0
    horizon = checkpoints[-1][0] + CONFIRM_WINDOW
    prev_norm = math.inf
    account = _native.Stride()
    while t < horizon - 1e-12:
        nrm = norm_H(ev2.wv_to_state(w, v))
        if nrm > threshold and nrm > prev_norm:
            return True, {"mode": "norm escape on refined grid",
                          "t_confirm": t}
        prev_norm = nrm
        w, v, t, stop = ev2.advance(
            w, v, t, min(t + cfg.monitor_stride, horizon), account)
        if stop != "target":
            mode = ("overflow" if stop == "overflow" else "stepper floor") \
                + " on refined grid"
            if t == t0:
                return False, {"mode": mode}
            return True, {"mode": mode, "t_confirm": t}
    return False, {}


@pytest.fixture()
def confirmations(monkeypatch):
    """The arguments and result of every blow-up confirmation made."""
    calls = []
    real = evolve._confirm_blowup

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(evolve, "_confirm_blowup", recording)
    return calls


class TestLightConeConfirmation:
    """The confirmation reruns only the ball its verdict depends on; the
    full-domain rerun is the oracle."""

    @pytest.mark.parametrize("case", ["2W", "W+1e-3rho", "W+1e-4rho"])
    def test_same_verdict_as_full_domain(self, case, spectral, thresholds,
                                         dyn_grid, confirmations):
        g = dyn_grid
        w = np.asarray(eval_W(3, g.r ** 2))
        stride, u1 = {"2W": (0.25, 2.0 * w),
                      "W+1e-3rho": (0.25, w + 1e-3 * spectral.rho_on(g)),
                      "W+1e-4rho": (0.125, w + 1e-4 * spectral.rho_on(g))}[case]
        cfg = EvolutionConfig(n=g.n, r_max=g.r_max, t_max=14.0,
                              monitor_stride=stride)
        run = evolve_direction(State(RadialField(g, u1), zeros_on(g)), cfg,
                               spectral, thresholds)
        assert run.verdict == BLOWUP
        (args, (confirmed, detail)), = confirmations
        want_confirmed, want = full_domain_confirmation(*args)
        assert confirmed is want_confirmed is True
        assert detail["mode"] == want["mode"]
        assert abs(detail["t_confirm"] - want["t_confirm"]) <= 1e-9
        assert detail["confirm_fallback"] is False
        assert detail["confirm_nodes"] < CONFIRM_REFINE * g.n
        assert detail["ball_radius"] < detail["confirm_radius"] < g.r_max

    def test_cut_grid_is_the_head_of_the_refined_grid(self, spectral,
                                                      dyn_grid):
        g = dyn_grid
        w = g.r * (np.asarray(eval_W(3, g.r ** 2)) + 1e-3 * spectral.rho_on(g))
        full = RadialGrid(3, g.r_max, CONFIRM_REFINE * g.n, "uniform")
        cut = _confirm_grid(g, w, 6.0)
        # |u| peaks at the first node: R = r_0 + 6 + pad + margin = 10.0039
        assert cut.n == 2561 < full.n
        assert cut.r_max == cut.n * full.min_spacing
        assert np.array_equal(cut.r, full.r[:cut.n])
        assert np.array_equal(_resample_w(g.r, w, cut.r),
                              _resample_w(g.r, w, full.r)[:cut.n])

    def test_peak_near_r_max_takes_the_full_domain(self, spectral, thresholds,
                                                   confirmations):
        # a bump at r = 28 of r_max = 32: the ball would pass r_max
        g = RadialGrid(3, 32.0, 1024, "uniform")
        cfg = EvolutionConfig(n=g.n, r_max=g.r_max, t_max=4.0)
        s = State(RadialField(g, 4.0 * np.exp(-(g.r - 28.0) ** 2)),
                  zeros_on(g))
        run = evolve_direction(s, cfg, spectral, thresholds)
        assert run.verdict == BLOWUP
        assert run.detail["confirm_fallback"] is True
        assert run.detail["confirm_radius"] == g.r_max
        assert run.detail["confirm_nodes"] == CONFIRM_REFINE * g.n
        (args, (_, detail)), = confirmations
        want_confirmed, want = full_domain_confirmation(*args)
        assert want_confirmed is True
        assert (detail["mode"], detail["t_confirm"]) == (want["mode"],
                                                         want["t_confirm"])

    def test_stop_outside_the_ball_is_undetermined(self, spectral,
                                                   thresholds):
        # u = 0 at t = 0 (so |u| peaks at the first node and the ball is
        # r <= 5.02 at t = 0), but a velocity hump at r = 6 blows up there
        g = RadialGrid(3, 32.0, 1024, "uniform")
        cfg = EvolutionConfig(n=g.n, r_max=g.r_max, t_max=4.0)
        s = State(zeros_on(g),
                  RadialField(g, 100.0 * np.exp(-((g.r - 6.0) / 0.3) ** 2)))
        run = evolve_direction(s, cfg, spectral, thresholds)
        assert run.verdict == UNDETERMINED
        d = run.detail
        assert d["confirmed"] is False
        assert d["mode"] == "stepper floor on refined grid"
        assert d["confirm_fallback"] is False
        assert d["confirm_radius"] < 7.1
        assert d["ball_radius"] < 5.02
        assert d["reason"].startswith("refined run stopped with max |u| at "
                                      "r = 5.99")
        assert "outside the ball" in d["reason"]


@pytest.fixture(scope="module")
def ejection_run(spectral, thresholds):
    cfg = EvolutionConfig(n=8192, r_max=64.0, t_max=14.0,
                          monitor_stride=0.125)
    g = RadialGrid(3, cfg.r_max, cfg.n, "uniform")
    w = np.asarray(eval_W(3, g.r ** 2))
    s = State(RadialField(g, w + 1e-3 * spectral.rho_on(g)),
              RadialField(g, np.zeros(g.n)))
    return evolve_direction(s, cfg, spectral, thresholds)


class TestEjection:
    def test_rate_matches_spectral_k(self, ejection_run, spectral, thresholds):
        fit = fit_ejection_rate(ejection_run.series, spectral, thresholds)
        assert 0.95 <= fit["rate"] / spectral.k <= 1.05
        assert fit["dW_monotone"]
        assert fit["sigma_drift_ok"]

    def test_monitor_rows_build_no_residual_state(self, spectral, thresholds,
                                                  monkeypatch):
        # the rows split the modes in adjoint form: a converged fit's
        # residual state v is never resampled
        def forbidden(*args):
            raise AssertionError("a monitor row built the residual state")

        monkeypatch.setattr(modulation, "_residual_state", forbidden)
        cfg = EvolutionConfig(n=4096, r_max=48.0, t_max=2.0,
                              monitor_stride=0.25)
        g = RadialGrid(3, cfg.r_max, cfg.n, "uniform")
        w = np.asarray(eval_W(3, g.r ** 2))
        s = State(RadialField(g, w + 1e-3 * spectral.rho_on(g)),
                  RadialField(g, np.zeros(g.n)))
        run = evolve_direction(s, cfg, spectral, thresholds)
        assert np.all(np.isfinite(run.series["lambda1"]))
        assert np.all(np.isfinite(run.series["gamma_norm"]))

    @pytest.mark.parametrize("eps", [1e-3, None])
    def test_monitor_row_takes_each_fields_pieces_once(
            self, spectral, thresholds, monkeypatch, eps):
        # a converged row (eps) and a row skipped by the proximity proxy
        # (None): u1' and the far-field fit are taken once per distinct
        # field, u1 and, after a fit, the remainder gamma's first component
        g = RadialGrid(3, 48.0, 4096, "uniform")
        w, rho = np.asarray(eval_W(3, g.r ** 2)), spectral.rho_on(g)

        def near(e):
            return State(RadialField(g, w + e * rho),
                         RadialField(g, 0.5 * e * rho))

        # fills the spectral caches on g, which take u1' of W and rho
        evolve._monitor_row(near(2e-3), 0.0, spectral, thresholds, None,
                            None)
        s = near(eps) if eps is not None else bump_state(g, amp=0.01)
        if eps is None:
            def forbidden(*args, **kwargs):
                raise AssertionError("the proxy did not skip the fit")
            monkeypatch.setattr(evolve, "fit_modulation", forbidden)
        taken = {"deriv": [], "tail_fit": []}
        for name, seen in taken.items():
            def counting(self, f, *args, _orig=getattr(RadialGrid, name),
                         _seen=seen):
                _seen.append(f)
                return _orig(self, f, *args)
            monkeypatch.setattr(RadialGrid, name, counting)
        _, fit = evolve._monitor_row(s, 0.0, spectral, thresholds, None,
                                     None)
        assert (fit is not None) == (eps is not None)
        for seen in taken.values():
            assert len(seen) == (2 if eps is not None else 1)
            assert seen[0] is s.u1.values
            assert len({id(f) for f in seen}) == len(seen)

    def test_window_too_short_raises(self, spectral, thresholds, dyn_grid):
        cfg = EvolutionConfig(n=dyn_grid.n, r_max=dyn_grid.r_max, t_max=2.0)
        run = evolve_direction(bump_state(dyn_grid, amp=0.01), cfg, spectral,
                               thresholds)
        with pytest.raises(ValueError):
            fit_ejection_rate(run.series, spectral, thresholds)

    def test_signs_agree_where_both_rules_apply(self, ejection_run,
                                                thresholds):
        series, th = ejection_run.series, thresholds
        overlap = (np.isfinite(series["lambda1"])
                   & (series["dW"] >= th.delta_S)
                   & (series["dW"] <= th.delta_E))
        assert np.count_nonzero(overlap) > 0
        assert ejection_run.detail["sign_disagreements"] == 0

    def test_ode_residual_small(self, ejection_run):
        out = modulation_ode_residual(ejection_run.series)
        assert out["max_rel_residual"] <= 0.10
        assert out["sigma_tau_over_gamma"] <= 5.0

    def test_stable_mode_decays_first(self, spectral, thresholds):
        # pure g- data: no ejection in the early window; |lambda_1| decays
        cfg = EvolutionConfig(n=8192, r_max=64.0, t_max=6.0,
                              monitor_stride=0.125)
        g = RadialGrid(3, cfg.r_max, cfg.n, "uniform")
        w = np.asarray(eval_W(3, g.r ** 2))
        _, gm = spectral.mode_states(g)
        eps = 1e-3
        s = State(RadialField(g, w + eps * gm.u1.values),
                  RadialField(g, eps * gm.u2.values))
        run = evolve_direction(s, cfg, spectral, thresholds)
        lam1 = run.series["lambda1"]
        tau = run.series["tau"]
        sel = np.isfinite(lam1) & np.isfinite(tau) & (tau <= 2.0)
        vals = np.abs(lam1[sel])
        assert vals[-1] < vals[0] * 0.3
        assert np.max(run.series["dW"][np.isfinite(run.series["dW"])]) \
            <= thresholds.delta_H

    def test_gplus_eigenrelation_early(self, spectral, thresholds):
        # pure g+ data: lambda_2 ~ k lambda_1 from the start
        cfg = EvolutionConfig(n=8192, r_max=64.0, t_max=2.0,
                              monitor_stride=0.1)
        g = RadialGrid(3, cfg.r_max, cfg.n, "uniform")
        w = np.asarray(eval_W(3, g.r ** 2))
        gp, _ = spectral.mode_states(g)
        eps = 1e-3
        s = State(RadialField(g, w + eps * gp.u1.values),
                  RadialField(g, eps * gp.u2.values))
        run = evolve_direction(s, cfg, spectral, thresholds)
        lam1, lam2 = run.series["lambda1"], run.series["lambda2"]
        ok = np.isfinite(lam1) & np.isfinite(lam2)
        ratio = lam2[ok][:8] / lam1[ok][:8]
        assert np.max(np.abs(ratio / spectral.k - 1.0)) <= 0.02


def assert_same_run(a, b):
    """Bitwise the same series, verdict, detail and ejection rate."""
    assert a.series.keys() == b.series.keys()
    for key in a.series:
        assert a.series[key].tobytes() == b.series[key].tobytes(), key
    assert a.verdict == b.verdict
    # repr spells every float exactly, and NaN as nan; the wall-time split
    # is the one part that two runs do not share
    assert repr(untimed(a.detail)) == repr(untimed(b.detail))
    assert repr(a.ejection_rate) == repr(b.ejection_rate)


class TestSigmaSearchInRuns:
    """A run's rows seed d_0's sigma search, and its detail counts the
    full-grid passes in sigma of its rows: one compiled cross-term pass
    per sigma that a row reads."""

    CFG = EvolutionConfig(n=1024, r_max=32.0, t_max=3.0, monitor_stride=0.5)

    @pytest.mark.parametrize("near", [True, False], ids=["fit", "no fit"])
    def test_sigma_evals_sum_the_rows_cross_terms(self, near, spectral,
                                                  thresholds, monkeypatch):
        g = RadialGrid(3, self.CFG.r_max, self.CFG.n, "uniform")
        s = (State(RadialField(g, np.asarray(eval_W(3, g.r ** 2))
                               + 1e-3 * spectral.rho_on(g)), zeros_on(g))
             if near else bump_state(g, amp=0.05))
        rows, passes = [], []
        row_of, sums = evolve._monitor_row, _native.LIB.cw_cross_sums

        def recording_row(state, *args):
            rows.append(state)
            return row_of(state, *args)

        def counting_sums(*args):
            passes.append(args[3])
            return sums(*args)

        monkeypatch.setattr(evolve, "_monitor_row", recording_row)
        monkeypatch.setattr(_native.LIB, "cw_cross_sums", counting_sums)
        run = evolve_direction(s, self.CFG, spectral, thresholds)
        assert len(rows) == len(run.series["t"]) > 1
        assert np.all(np.isfinite(run.series["sigma"])) == near
        assert run.detail["sigma_evals"] == sum(len(r.u1._cross)
                                                for r in rows)
        # every row's d_0 search makes at least one pass
        assert len(passes) >= len(rows)
        assert run.detail["sigma_evals"] == len(passes)

    def test_rows_without_a_fit_seed_the_next_search(self, spectral,
                                                      thresholds, monkeypatch):
        g = RadialGrid(3, self.CFG.r_max, self.CFG.n, "uniform")
        searches = []
        search = evolve.manifold_distance

        def recording(spec, s, seed=None):
            out = search(spec, s, seed)
            searches.append((seed, out[1]))
            return out

        monkeypatch.setattr(evolve, "manifold_distance", recording)
        run = evolve_direction(bump_state(g, amp=0.05), self.CFG, spectral,
                               thresholds)
        assert np.all(np.isnan(run.series["sigma"]))
        seeds, minimizers = zip(*searches)
        assert len(searches) == len(run.series["t"])
        assert seeds == (None, *minimizers[:-1])


class TestRunReuse:
    """The backward run of data (u1, u2) is the forward run of (u1, -u2),
    so a sweep or a two-sided run makes each distinct run once."""

    CFG = EvolutionConfig(n=8192, r_max=64.0, t_max=4.0, monitor_stride=0.5)

    @pytest.fixture(scope="class")
    def data(self, spectral, dyn_grid):
        g = dyn_grid
        w = np.asarray(eval_W(3, g.r ** 2))
        rho = spectral.rho_on(g)
        eps = 1e-3
        return {"still": State(RadialField(g, w + eps * rho),
                               RadialField(g, 0.0 * rho)),
                "up": State(RadialField(g, w), RadialField(g, eps * rho)),
                "down": State(RadialField(g, w), RadialField(g, -eps * rho))}

    @pytest.mark.parametrize("reversed_of, replacement",
                             [("still", "still"), ("up", "down")])
    def test_reversal_equals_the_run_that_replaces_it(
            self, data, spectral, thresholds, reversed_of, replacement):
        rev = data[reversed_of].time_reversed()
        # equal values (the reversal of still data has -0 where it has +0),
        # so evolve_directions runs the two once
        assert np.array_equal(rev.u2.values, data[replacement].u2.values)
        assert_same_run(evolve_direction(rev, self.CFG, spectral, thresholds),
                          evolve_direction(data[replacement], self.CFG,
                                           spectral, thresholds))

    def test_still_data_runs_once(self, data, spectral, thresholds,
                                  direction_calls, two_call_record, tmp_path,
                                  untimed_json):
        rec = evolve_with_monitors(data["still"], self.CFG, spectral,
                                   thresholds)
        assert len(direction_calls) == 1
        oracle = two_call_record(data["still"], self.CFG, spectral, thresholds)
        assert rec.series.keys() == oracle.series.keys()
        for key in rec.series:
            assert np.array_equal(rec.series[key], oracle.series[key],
                                  equal_nan=True), key
        rec.save_verdict(tmp_path / "run.json")
        oracle.save_verdict(tmp_path / "oracle.json")
        assert (untimed_json((tmp_path / "run.json").read_text())
                == untimed_json((tmp_path / "oracle.json").read_text()))


class TestTwoSided:
    def test_record_structure_and_io(self, spectral, thresholds, tmp_path):
        cfg = EvolutionConfig(n=4096, r_max=48.0, t_max=6.0,
                              monitor_stride=0.5)
        g = RadialGrid(3, cfg.r_max, cfg.n, "uniform")
        s = State(RadialField(g, 0.05 * np.exp(-((g.r - 8) / 4.0) ** 2)),
                  RadialField(g, 0.02 * np.exp(-((g.r - 6) / 4.0) ** 2)))
        rec = evolve_with_monitors(s, cfg, spectral, thresholds)
        t = rec.column("t")
        assert t[0] < 0.0 < t[-1]
        assert np.all(np.diff(t) > 0)
        # series parity under reversal: E even in t, equip odd at t = 0
        i0 = int(np.argmin(np.abs(t)))
        assert rec.column("E")[i0] == pytest.approx(rec.column("E")[0], rel=0.2)
        csv = tmp_path / "run.csv"
        rec.to_csv(csv)
        header = csv.read_text().splitlines()[0]
        assert header == "t,tau,E,K,dW,lambda1,sigma,Eext,Vw,equip"
        rec.save_verdict(tmp_path / "run.json")
        import json
        side = json.loads((tmp_path / "run.json").read_text())
        assert side["verdict_forward"] in (BLOWUP, SCATTER, UNDETERMINED)

    def test_one_pass_check_clean_run(self, spectral, thresholds):
        cfg = EvolutionConfig(n=8192, r_max=64.0, t_max=20.0)
        g = RadialGrid(3, cfg.r_max, cfg.n, "uniform")
        w = np.asarray(eval_W(3, g.r ** 2))
        s = State(RadialField(g, w + 1e-3 * spectral.rho_on(g)),
                  RadialField(g, np.zeros(g.n)))
        rec = evolve_with_monitors(s, cfg, spectral, thresholds)
        out = one_pass_check(rec, thresholds)
        assert out["ok"]
        assert out["reentry_violations"] == 0


class TestVirialShadows:
    def test_virial_and_equipartition(self, spectral, thresholds):
        # dV_w/dt = -K and d<w u_t|u>/dt = ||u_t||^2 - K up to exterior terms
        cfg = EvolutionConfig(n=8192, r_max=64.0, t_max=10.0,
                              monitor_stride=0.2)
        g = RadialGrid(3, cfg.r_max, cfg.n, "uniform")
        s = State(RadialField(g, 0.3 * np.exp(-((g.r - 4) / 3.0) ** 2)),
                  RadialField(g, np.zeros(g.n)))
        run = evolve_direction(s, cfg, spectral, thresholds)
        t = run.series["t"]
        vw = run.series["Vw"]
        eq = run.series["equip"]
        kk = run.series["K"]
        nh = run.series["norm_H"]
        u2_sq = run.series["u2_sq"]
        worst_v = worst_e = 0.0
        for i in range(1, len(t) - 1):
            dt2 = t[i + 1] - t[i - 1]
            dv = (vw[i + 1] - vw[i - 1]) / dt2
            de = (eq[i + 1] - eq[i - 1]) / dt2
            scale = 1.0 + nh[i] ** 2
            worst_v = max(worst_v, abs(dv + kk[i]) / scale)
            worst_e = max(worst_e, abs(de - (u2_sq[i] - kk[i])) / scale)
        assert worst_v <= 0.05
        assert worst_e <= 0.05


def sequential_direction(state0, cfg, spec, th):
    """evolve_direction as it ran before a stride overlapped a row: the row
    of each state, then the stride from it, in turn, every stride adding to
    the run's one account, each row's d_0 minimizer seeding the next row.
    Kept as the oracle of the pipelined run."""
    ev = RadialWaveEvolver(state0.grid, cfg.cfl)
    w, v = ev.state_to_wv(state0)
    last_fit, d0_sigma = None, None
    with np.errstate(over="ignore"):
        norm0 = norm_H(state0)
    threshold = evolve.BLOWUP_NORM_MULT * max(norm0, evolve.BLOWUP_NORM_FLOOR)
    rows, checkpoints = [], []
    t = 0.0
    account = _native.Stride()
    exceeded_at, stepper_floor = None, False
    while True:
        row, fit = evolve._monitor_row(ev.wv_to_state(w, v), t, spec, th,
                                       last_fit, d0_sigma)
        rows.append(row)
        last_fit, d0_sigma = fit or last_fit, row["d0_sigma"]
        if not math.isfinite(row["norm_H"]):
            exceeded_at = t
            break
        checkpoints.append((t, w, v))
        if len(checkpoints) > 24:
            checkpoints.pop(0)
        if row["norm_H"] > threshold:
            exceeded_at = t
            break
        if t >= cfg.t_max - 1e-9 * max(1.0, cfg.t_max):
            break
        if t >= 1.5 * evolve.SCATTER_WINDOW and evolve._scatters(rows, th):
            break
        w, v, t, stop = ev.advance(
            w, v, t, min(t + cfg.monitor_stride, cfg.t_max), account)
        if stop != "target":
            stepper_floor = stop == "floor"
            exceeded_at = t
            break
    series = {k: np.array([r.get(k, math.nan) for r in rows])
              for k in evolve._SERIES_KEYS + evolve._EXTRA_KEYS}
    series["tau"] = _rescaled_time(series["t"], series["sigma"])
    verdict, detail = evolve._classify(rows, cfg, th, exceeded_at,
                                       stepper_floor, checkpoints, ev,
                                       threshold)
    detail.update(sign_disagreements=sum(r["sign_disagree"] for r in rows),
                  sigma_evals=sum(r["sigma_evals"] for r in rows),
                  steps=account.steps, capped_steps=account.capped,
                  min_dt=account.min_dt)
    run = evolve.DirectionRun(series=series, verdict=verdict, detail=detail)
    try:
        run.ejection_rate = fit_ejection_rate(series, spec, th)["rate"]
    except (ValueError, RuntimeError):
        pass
    return run


def run_ending(run, cfg):
    """How a run ended, read from its series and detail."""
    d, s = run.detail, run.series
    if d.get("exceeded_at") is None:
        return ("horizon" if s["t"][-1] >= cfg.t_max - 1e-9 * cfg.t_max
                else "scatter window")
    if not math.isfinite(s["norm_H"][-1]):
        return "non-finite first row"
    if d["exceeded_at"] == s["t"][-1]:
        return "norm above threshold"
    return "floor stop" if d["stepper_floor"] else "overflow stop"


def main_strides(monkeypatch, grid):
    """The account (steps, capped, min_dt) of every advance() stride on
    ``grid`` once it returns, in order."""
    accounts = []
    original = RadialWaveEvolver.advance

    def recording(self, w, v, t, t_target, account):
        out = original(self, w, v, t, t_target, account)
        if self.grid == grid:
            accounts.append(account_counts(account))
        return out

    monkeypatch.setattr(RadialWaveEvolver, "advance", recording)
    return accounts


class TestPipelinedRun:
    """evolve_direction steps the next stride while it builds the row of
    the state the last stride reached, and is bitwise the sequential loop
    for every way a run can end; a stride that the row's stop tests drop
    never reaches the account."""

    GRID = RadialGrid(3, 32.0, 1024, "uniform")

    def case(self, ending, spectral):
        """(state, config, strides dropped) of a run that ends this way."""
        g = self.GRID
        w = np.asarray(eval_W(3, g.r ** 2))
        cfg = dict(n=g.n, r_max=g.r_max, monitor_stride=0.5)

        def still(u1, **kw):
            return (State(RadialField(g, u1), zeros_on(g)),
                    EvolutionConfig(**cfg, **kw))
        if ending == "scatter window":
            return (*still(bump_state(g, amp=0.05).u1.values, t_max=40.0), 1)
        if ending == "horizon":
            return (*still(w + 1e-3 * spectral.rho_on(g), t_max=2.0), 0)
        if ending == "norm above threshold":
            return (*still(1.05 * w, t_max=20.0), 1)
        if ending == "floor stop":
            return (*still(1.2 * w, t_max=10.0), 0)
        if ending == "overflow stop":
            return huge_velocity_state(g, 1e150), TestNonFiniteData.CFG, 0
        return huge_velocity_state(g, 1e200), TestNonFiniteData.CFG, 1

    @pytest.mark.parametrize("ending", [
        "scatter window", "horizon", "norm above threshold", "floor stop",
        "overflow stop", "non-finite first row"])
    def test_bitwise_the_sequential_loop(self, ending, spectral, thresholds,
                                         monkeypatch):
        state, cfg, dropped = self.case(ending, spectral)
        strides = main_strides(monkeypatch, state.grid)
        oracle = sequential_direction(state, cfg, spectral, thresholds)
        n = len(strides)
        run = evolve_direction(state, cfg, spectral, thresholds)
        assert run_ending(run, cfg) == run_ending(oracle, cfg) == ending
        assert {"steps", "capped_steps", "min_dt", *TIMINGS} <= run.detail.keys()
        if run.verdict == BLOWUP:
            assert "confirm_steps" in run.detail
        assert_same_run(run, oracle)
        # the run adopts the oracle's strides; a stride it drops did steps
        # that its account never sees
        adopted, rest = strides[n:2 * n], strides[2 * n:]
        assert adopted == strides[:n] and len(rest) == dropped
        assert (run.detail["steps"], run.detail["capped_steps"],
                run.detail["min_dt"]) == (adopted[-1] if adopted
                                          else (0, 0, math.inf))
        for steps, _, _ in rest:
            assert steps > run.detail["steps"]

    def test_raising_row_leaves_no_thread(self, spectral, thresholds,
                                          monkeypatch):
        state, cfg, _ = self.case("horizon", spectral)
        error = RuntimeError("row failed")
        original = evolve._monitor_row

        def raising(s, t, *args):
            if t > 0.0:         # a stride is in flight
                raise error
            return original(s, t, *args)

        monkeypatch.setattr(evolve, "_monitor_row", raising)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            evolve_direction(state, cfg, spectral, thresholds)
        assert info.value is error
        assert threading.active_count() == before

    def test_raising_stride_leaves_no_thread(self, spectral, thresholds,
                                             monkeypatch):
        state, cfg, _ = self.case("horizon", spectral)
        error = RuntimeError("stride failed")
        threads = []

        def raising(*args):
            threads.append(threading.current_thread())
            raise error

        monkeypatch.setattr(RadialWaveEvolver, "advance", raising)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            evolve_direction(state, cfg, spectral, thresholds)
        assert info.value is error
        assert threads and threading.main_thread() not in threads
        assert threading.active_count() == before


class TestWallTimeSplit:
    """A run's detail splits its wall time into the monitor rows, the
    waits for a stride and the confirmation, and times the stepper
    thread's strides beside them."""

    def test_rows_wait_and_confirmation_make_up_the_wall_time(
            self, spectral, thresholds, dyn_grid):
        # a blow-up: rows, strides, a dropped stride and a confirmation
        g = dyn_grid
        cfg = EvolutionConfig(n=g.n, r_max=g.r_max, t_max=12.0,
                              monitor_stride=0.5)
        state = State(RadialField(g, np.asarray(eval_W(3, g.r ** 2))
                                  + 1e-3 * spectral.rho_on(g)), zeros_on(g))
        run, = evolve.evolve_directions([state], cfg, spectral, thresholds)
        d = run.detail
        assert run.verdict == BLOWUP and d["confirm_steps"] > 0
        assert all(d[key] > 0.0 for key in TIMINGS)
        parts = d["rows_s"] + d["wait_s"] + d["confirm_s"]
        assert parts < run.wall_s
        assert parts == pytest.approx(run.wall_s, rel=0.05)

"""Gain optimizer checks: hand costs, Adam trace, projection, window gradient,
and a dense grid-search oracle on a linear stand-in surrogate."""

import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pinnpid import adam, gainopt, training
from pinnpid.adam import AdamConfig, AdamState, adam_step
from pinnpid.gainopt import (
    RHO_END,
    RHO_START,
    CostWeights,
    InfeasibleGainError,
    SegmentDiverged,
    Window,
    msd_stability_value,
    optimize_segment,
    regularizer,
    window_cost_and_grad,
)
from pinnpid.model import load_model
from pinnpid.pid import (
    ErrorState,
    GainBounds,
    GainMatrix,
    diagonal_gain_bounds,
    error_update,
    quadrature_nodes,
)
from pinnpid.plants import MsdParams, msd_state_space
from pinnpid.sampling import Box
from tests.reference_window import window_cost_and_grad as reference_window

MSD = MsdParams()
FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "msd_surrogate_seed0.txt"


class LinearSurrogate:
    """Exact-derivative stand-in: phi(tau, x, u) = x + tau (A x + B u).

    (A, B) is the MSD state space unless ``ab`` gives another pair.
    """

    def __init__(self, plant=MSD, dt=0.2, eps=0.05, ab=None):
        self.a, self.b = msd_state_space(plant) if ab is None else ab
        self.dt = dt
        self.eps = eps
        self.n = self.a.shape[0]
        self.m = self.b.shape[1]

    def predict(self, taus, x, u):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        rate = self.a @ x + self.b @ u
        return x[None, :] + taus[:, None] * rate[None, :]

    def predict_with_tape(self, taus, x, u):
        return self.predict(taus, x, u), np.atleast_1d(np.asarray(taus, dtype=float))

    def predict_vjp(self, tape, cotangents):
        c = np.asarray(cotangents, dtype=float)
        csum = c.sum(axis=0)
        ctau = tape @ c
        return csum + self.a.T @ ctau, self.b.T @ ctau

    def time_derivative(self, t, x, u):
        return self.a @ x + self.b @ u


class CliffSurrogate(LinearSurrogate):
    """Linear stand-in that returns NaN states once |u| drops below 0.2."""

    def predict_with_tape(self, taus, x, u):
        values, tape = super().predict_with_tape(taus, x, u)
        if np.any(np.abs(u) < 0.2):
            values = np.full_like(values, np.nan)
        return values, tape


class InputSpy:
    """Wraps a model, records the (clipped) input vector and the predictions of
    every window step and counts the reverse passes."""

    def __init__(self, model):
        self.model = model
        self.dt = model.dt
        self.inputs = []
        self.predictions = []
        self.vjp_calls = 0

    def predict_with_tape(self, taus, x, u):
        self.inputs.append(np.array(u, dtype=float))
        values, tape = self.model.predict_with_tape(taus, x, u)
        self.predictions.append(values.copy())
        return values, tape

    def predict_vjp(self, tape, cotangents):
        self.vjp_calls += 1
        return self.model.predict_vjp(tape, cotangents)


def msd_bounds(lo=0.0, hi=5.0):
    return diagonal_gain_bounds(2, 1, (lo, hi), (lo, hi), (lo, hi), coords=[0])


def regularized_window(model, x0, errors0, refs, f, weights, dt, n_quad, input_bounds=None,
                       kind="norm", plant=None, rho=None):
    """(plain cost, total cost, gradient of the total): the window's tracking cost and
    gradient with mu times the regularizer added the way ``optimize_segment`` adds it."""
    quad, grad = window_cost_and_grad(
        Window(model, x0, errors0, refs, weights, dt, n_quad, input_bounds), f)
    theta, theta_grad = regularizer(f, kind, plant=plant, rho=rho, n=errors0.e_prop.shape[0])
    return (quad + weights.mu * float((f * f).sum()), quad + weights.mu * theta,
            weights.mu * theta_grad + grad)


class TestStageCost:
    """Costs of a 1-step window: the stage-0 cost alone, with no surrogate step."""

    def test_zero(self):
        model = LinearSurrogate()
        w = CostWeights(q=np.eye(2), r=np.eye(1))
        zeros = ErrorState(np.zeros(2), np.zeros(2), np.zeros(2))
        cost, grad = window_cost_and_grad(
            Window(model, np.zeros(2), zeros, np.zeros((2, 2)), w, model.dt, 10), np.zeros((1, 6))
        )
        assert cost == 0.0
        assert np.array_equal(grad, np.zeros((1, 6)))

    def test_hand_value_plain(self):
        # u = 1.2 * 0.1 + 1.0 * 0.38 = 0.5;
        # J = 0.5 (1000 * 0.1^2 + 0.01 * 0.5^2) 0.2 + (1.2^2 + 1.0^2 + 1.2^2) = 4.88025
        model = LinearSurrogate()
        w = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.1, 0.0], [0.38, 0.0], [0.0, 0.0])
        f = np.array([[1.2, 0.0, 1.0, 0.0, 1.2, 0.0]])
        plain, total, _ = regularized_window(
            model, np.zeros(2), e0, np.zeros((2, 2)), f, w, model.dt, 10, kind="norm"
        )
        assert plain == pytest.approx(4.88025, abs=1e-12)
        assert total == plain

    def test_hand_value_barrier_theta(self):
        g = np.array([[1.2, 0.0, 1.0, 0.0, 1.2, 0.0]])
        theta, _ = regularizer(g, "barrier", plant=MSD, rho=1.0, n=2)
        assert theta == pytest.approx(3.88 - np.log(2.74), abs=1e-12)
        assert theta == pytest.approx(2.872, abs=5e-4)

    def test_barrier_rejects_nonpositive_g(self):
        g = np.array([[0.0, 0.0, 4.0, 0.0, 0.0, 0.0]])  # g = 0.5*1 - 4 = -3.5
        assert msd_stability_value(MSD, g, 2) == pytest.approx(-3.5)
        with pytest.raises(InfeasibleGainError):
            regularizer(g, "barrier", plant=MSD, rho=1.0, n=2)
        # so must the weight on the regularizer; NaN passed `mu <= 0`
        for mu in (0.0, np.nan):
            with pytest.raises(ValueError, match="mu"):
                CostWeights(q=np.eye(2), r=[[0.01]], mu=mu)

    @pytest.mark.parametrize("q, r", [
        ([[np.inf, 0.0], [0.0, 1.0]], [[0.01]]),
        (np.eye(2), [[np.inf]]),
        ([[np.nan, 0.0], [0.0, 1.0]], [[0.01]]),
    ], ids=["inf_q", "inf_r", "nan_q"])
    def test_cost_weights_reject_non_finite(self, q, r):
        with pytest.raises(ValueError, match="q and r must be finite"):
            CostWeights(q=q, r=r)


class TestAdam:
    def test_one_function_under_each_callers_name(self):
        assert training.adam_step is adam_step
        assert gainopt.adam_step is adam_step

    def test_zero_gradient_keeps_gains(self):
        f = np.array([[1.0, 2.0]])
        f2, state = adam_step(AdamState.zeros(f.shape), np.zeros_like(f), f, AdamConfig())
        assert np.array_equal(f2, f)
        assert state.iteration == 1

    def test_first_step_is_signed_learning_rate(self):
        f = np.array([[1.0]])
        grad = np.array([[0.37]])
        cfg = AdamConfig()
        f2, _ = adam_step(AdamState.zeros(f.shape), grad, f, cfg)
        expected = 1.0 - cfg.alpha * 0.37 / (0.37 + adam.EPS)
        assert f2[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_matches_independent_scripted_trace(self):
        # independent plain-float Adam on f(F) = F^2/2 from F = 1
        alpha, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-7
        f_ref, m, v = 1.0, 0.0, 0.0
        trace = []
        for it in range(1, 11):
            g = f_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            f_ref -= alpha * (m / (1 - b1**it)) / (np.sqrt(v / (1 - b2**it)) + eps)
            trace.append(f_ref)
        f = np.array([[1.0]])
        state = AdamState.zeros(f.shape)
        for it in range(10):
            f, state = adam_step(state, f.copy(), f, AdamConfig())
            assert f[0, 0] == pytest.approx(trace[it], abs=1e-12)

    def test_rejects_nonfinite_gradient(self):
        f = np.array([[1.0]])
        with pytest.raises(ValueError):
            adam_step(AdamState.zeros(f.shape), np.array([[np.nan]]), f, AdamConfig())

    @pytest.mark.parametrize("alpha", [0.0, -1e-2, np.nan, np.inf])
    def test_rejects_nonpositive_or_nonfinite_step_size(self, alpha):
        # a NaN alpha surfaced as a non-finite network input, a negative one climbed
        with pytest.raises(ValueError, match="alpha"):
            AdamConfig(alpha=alpha)


class TestProjection:
    def test_inside_unchanged(self):
        bounds = GainBounds(np.zeros((1, 3)), 5 * np.ones((1, 3)))
        g = GainMatrix.from_stacked([[1.0, 2.0, 3.0]])
        assert np.array_equal(gainopt._project(g.stacked(), bounds, None, 1), g.stacked())

    def test_clamps(self):
        bounds = GainBounds(np.zeros((1, 3)), 5 * np.ones((1, 3)))
        g = GainMatrix.from_stacked([[-1.0, 6.0, 2.0]])
        np.testing.assert_array_equal(gainopt._project(g.stacked(), bounds, None, 1),
                                      [[0.0, 5.0, 2.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        bounds = GainBounds(np.zeros((1, 3)), 5 * np.ones((1, 3)))
        g = GainMatrix.from_stacked(rng.uniform(-3, 8, (1, 3)))
        once = gainopt._project(g.stacked(), bounds, None, 1)
        twice = gainopt._project(once, bounds, None, 1)
        assert np.array_equal(once, twice)


class TestWindowGradient:
    def test_matches_finite_differences(self):
        model = LinearSurrogate()
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.5, -0.1], [0.2, 0.0], [-0.4, 0.1])
        x0 = np.array([-0.2, 0.1])
        refs = np.array([[0.3, 0.0]] * 4)
        f = np.array([[1.1, 0.2, 0.8, 0.1, 0.9, 0.05]])
        window = Window(model, x0, e0, refs, weights, model.dt, 10)
        cost, grad = window_cost_and_grad(window, f)
        fd = np.zeros_like(f)
        h = 1e-6
        for i in range(f.shape[1]):
            fp, fm = f.copy(), f.copy()
            fp[0, i] += h
            fm[0, i] -= h
            cp = window_cost_and_grad(window, fp)[0]
            cm = window_cost_and_grad(window, fm)[0]
            fd[0, i] = (cp - cm) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)

    def test_gradient_through_network_surrogate(self):
        from tests.test_pid import toy_model

        model = toy_model(seed=6)
        model.params = model.params * 0.5
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.3, 0.0], [0.1, 0.0], [0.2, -0.1])
        x0 = np.array([0.1, -0.2])
        refs = np.array([[0.2, 0.0]] * 3)
        f = np.array([[0.9, 0.1, 0.5, 0.0, 0.7, 0.2]])
        window = Window(model, x0, e0, refs, weights, model.dt, 10)
        cost, grad = window_cost_and_grad(window, f)
        h = 1e-6
        fd = np.zeros_like(f)
        for i in range(f.shape[1]):
            fp, fm = f.copy(), f.copy()
            fp[0, i] += h
            fm[0, i] -= h
            cp = window_cost_and_grad(window, fp)[0]
            cm = window_cost_and_grad(window, fm)[0]
            fd[0, i] = (cp - cm) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)

    def test_barrier_and_input_box_through_network_surrogate(self):
        # the closed loop's configuration: barrier regularizer, input box, H = 5
        from tests.test_pid import toy_model

        model = toy_model(seed=6)
        model.params = model.params * 0.5
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.6, 0.0], [0.1, 0.0], [0.2, -0.1])
        x0 = np.array([0.1, -0.2])
        refs = np.array([[0.7, 0.0]] * 3 + [[-0.3, 0.0]] * 3)
        f = np.array([[1.2, 0.0, 0.4, 0.0, 0.3, 0.0]])
        kw = dict(input_bounds=Box([-1.0], [1.0]), kind="barrier", plant=MSD, rho=0.5)
        spy = InputSpy(model)
        _, cost, grad = regularized_window(spy, x0, e0, refs, f, weights, model.dt, 10, **kw)
        saturated = [abs(u[0]) == 1.0 for u in spy.inputs]
        assert any(saturated) and not all(saturated)
        assert msd_stability_value(MSD, f, 2) > 0
        h = 1e-6
        fd = np.zeros_like(f)
        for i in range(f.shape[1]):
            fp, fm = f.copy(), f.copy()
            fp[0, i] += h
            fm[0, i] -= h
            cp = regularized_window(model, x0, e0, refs, fp, weights, model.dt, 10, **kw)[1]
            cm = regularized_window(model, x0, e0, refs, fm, weights, model.dt, 10, **kw)[1]
            fd[0, i] = (cp - cm) / (2 * h)
        # the cost is about 190, so rounding alone puts ~2e-8 into each difference
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("box", [None, Box([-0.8, -0.8], [0.8, 0.8])],
                             ids=["no_box", "box"])
    def test_two_inputs_match_finite_differences(self, box):
        # 4-state, 2-input linear stand-in with an arm-shaped F: channel i acts on coordinate i
        a = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                      [-2.0, 0.5, -0.4, 0.0], [0.3, -1.5, 0.0, -0.6]])
        b = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.2], [0.0, 0.8]])
        model = LinearSurrogate(ab=(a, b))
        weights = CostWeights(q=np.diag([100.0, 50.0, 1.0, 1.0]), r=np.diag([0.01, 0.02]),
                              mu=1.0)
        bounds = diagonal_gain_bounds(4, 2, (0.0, 5.0), (0.0, 5.0), (0.0, 5.0))
        f = np.zeros((2, 12))
        f[0, [0, 4, 8]] = [1.5, 0.3, 0.8]
        f[1, [1, 5, 9]] = [2.0, 0.4, 0.6]
        assert np.array_equal(gainopt._project(f, bounds, None, 4), f)
        e0 = ErrorState([0.4, -0.3, 0.0, 0.0], [0.1, 0.05, 0.0, 0.0], [0.2, -0.1, 0.0, 0.1])
        x0 = np.array([0.1, -0.2, 0.0, 0.1])
        refs = np.array([[0.5, -0.5, 0.0, 0.0]] * 3 + [[-0.2, 0.3, 0.0, 0.0]] * 3)
        spy = InputSpy(model)
        cost, grad = window_cost_and_grad(
            Window(spy, x0, e0, refs, weights, model.dt, 10, box), f)
        if box is not None:
            saturated = [np.any(np.abs(u) == 0.8) for u in spy.inputs]
            assert any(saturated) and not all(saturated)
        window = Window(model, x0, e0, refs, weights, model.dt, 10, box)
        h = 1e-6
        fd = np.zeros_like(f)
        for idx in np.ndindex(f.shape):
            fp, fm = f.copy(), f.copy()
            fp[idx] += h
            fm[idx] -= h
            cp = window_cost_and_grad(window, fp)[0]
            cm = window_cost_and_grad(window, fm)[0]
            fd[idx] = (cp - cm) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("width", [1, 3])
    def test_rejects_reference_of_another_width(self, width):
        # a (6, 1) reference would broadcast against the 2-state predictions
        model = load_model(FIXTURE)
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.6, 0.0], [0.1, 0.0], [0.2, -0.1])
        with pytest.raises(ValueError, match="width"):
            Window(model, np.array([0.1, -0.2]), e0, np.full((6, width), 0.5), weights,
                   model.dt, 10)

    @pytest.mark.parametrize("q, r, box, message", [
        (np.eye(3), [[0.01]], None, r"q has shape \(3, 3\), the state needs \(2, 2\)"),
        (np.eye(2), np.diag([0.01, 0.02]), Box([-1.0], [1.0]),
         "input box has width 1, r has 2 inputs"),
        (np.eye(2), [[0.01]], Box([-1.0, -1.0], [1.0, 1.0]),
         "input box has width 2, r has 1 inputs"),
    ], ids=["q", "narrow_box", "wide_box"])
    def test_rejects_weights_or_box_of_another_width(self, q, r, box, message):
        # a wrong q used to surface as a bare matmul error inside the first window, and a
        # 1-wide box clipped both inputs of a 2-input F by its one bound
        model = LinearSurrogate()
        e0 = ErrorState([0.6, 0.0], [0.1, 0.0], [0.2, -0.1])
        with pytest.raises(ValueError, match=message):
            Window(model, np.zeros(2), e0, np.full((4, 2), 0.5), CostWeights(q=q, r=r),
                   model.dt, 10, box)

    def test_saturated_channel_blocks_gradient(self):
        model = LinearSurrogate()
        weights = CostWeights(q=np.eye(2), r=[[0.01]], mu=1.0)
        e0 = ErrorState([5.0, 0.0], [0.0, 0.0], [0.0, 0.0])  # huge error saturates u
        refs = np.zeros((3, 2))
        f = np.array([[4.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        _, grad = window_cost_and_grad(
            Window(model, np.zeros(2), e0, refs, weights, model.dt, 10, Box([-1.0], [1.0])), f
        )
        # no tracking path reaches the saturated proportional entry
        assert grad[0, 0] == 0.0


class TestStackedWindow:
    """The stacked-state window against the frozen step-by-step one in reference_window.py."""

    def test_matches_step_by_step_window(self):
        # 2 models x H = 1..5 x 2 regularizers x with and without an input box x 5 draws;
        # the reference also takes a terminal weight on e_prop_H, here zero
        rng = np.random.default_rng(7)
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        ref_weights = SimpleNamespace(q=weights.q, r=weights.r, mu=weights.mu,
                                      q_terminal=np.zeros((2, 2)))
        cases = itertools.product((LinearSurrogate(), load_model(FIXTURE)), range(1, 6),
                                  ("norm", "barrier"), (None, Box([-1.0], [1.0])), range(5))
        checked = 0
        for model, horizon, kind, box, _ in cases:
            x0 = rng.uniform([-1.0, -0.5], [1.0, 0.5])
            e0 = ErrorState(rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5, 2),
                            rng.uniform(-2, 2, 2))
            refs = rng.uniform(-0.7, 0.7, (horizon + 1, 2))
            f = rng.uniform(0.0, 3.0, (1, 6))
            kp, ki, kd = f[0, 0], f[0, 2], f[0, 4]
            # keep the stability value g positive for the barrier
            f[0, 2] = min(ki, 0.9 * (kd + MSD.damping) * (kp + MSD.stiffness) / MSD.mass)
            plant, rho = (MSD, rng.uniform(0.01, 10.0)) if kind == "barrier" else (None, None)
            new = regularized_window(model, x0, e0, refs, f, weights, model.dt, 10,
                                     input_bounds=box, kind=kind, plant=plant, rho=rho)
            old = reference_window(model, x0, e0, refs, f, ref_weights, model.dt, 10,
                                   input_bounds=box, regularizer_kind=kind, plant=plant, rho=rho)
            for a, b in zip(new[:2], old[:2]):
                assert abs(a - b) <= 1e-12 * abs(b)
            assert np.max(np.abs(new[2] - old[2])) <= 1e-12 * np.max(np.abs(old[2]))
            checked += 1
        assert checked == 200

    def test_one_window_serves_every_gain_matrix(self):
        # a segment scores up to max_iters + 1 gain matrices on one Window: each result
        # equals a fresh Window's bit for bit, and no array the Window holds is written
        model = load_model(FIXTURE)
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.6, 0.0], [0.1, 0.0], [0.2, -0.1])
        x0 = np.array([0.1, -0.2])
        refs = np.array([[0.7, 0.0]] * 3 + [[-0.3, 0.0]] * 3)
        args = (model, x0, e0, refs, weights, model.dt, 10, Box([-1.0], [1.0]))
        window = Window(*args)
        held = {name: value.copy() for name, value in vars(window).items()
                if isinstance(value, np.ndarray)}
        assert {"taus", "a", "p", "c", "e0", "x0", "lower", "upper"} <= set(held)
        params = model.params.copy()
        rng = np.random.default_rng(3)
        for _ in range(6):
            f = np.zeros((1, 6))
            f[0, [0, 2, 4]] = rng.uniform(0.0, 5.0, 3)
            cost, grad = window_cost_and_grad(window, f)
            fresh_cost, fresh_grad = window_cost_and_grad(Window(*args), f)
            assert cost == fresh_cost
            assert np.array_equal(grad, fresh_grad)
            for name, value in held.items():
                assert np.array_equal(getattr(window, name), value), name
        assert np.array_equal(model.params, params)

    def test_error_recursion_matches_controller(self):
        # the inputs F E_j the window feeds the surrogate, with E_j from the fixed
        # linear error map, against F E_j with E_j from successive pid.error_update
        # calls along the same inputs; no box, so each input is F E_j itself
        rng = np.random.default_rng(11)
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        for model in (LinearSurrogate(), load_model(FIXTURE)):
            taus, _ = quadrature_nodes(model.dt, 10)
            for _ in range(50):
                horizon = int(rng.integers(1, 6))
                x = rng.uniform([-1.0, -0.5], [1.0, 0.5])
                errors = ErrorState(rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5, 2),
                                    rng.uniform(-2, 2, 2))
                refs = rng.uniform(-0.7, 0.7, (horizon + 1, 2))
                f = rng.uniform(-3.0, 3.0, (1, 6))
                spy = InputSpy(model)
                window_cost_and_grad(Window(spy, x, errors, refs, weights, model.dt, 10), f)
                assert len(spy.inputs) == horizon - 1
                for j, u in enumerate(spy.inputs):
                    e = errors.stacked()
                    # relative to the size of the terms of the product F E_j
                    assert np.max(np.abs(u - f @ e)) <= 1e-12 * np.max(np.abs(f) @ np.abs(e))
                    x_next = model.predict(taus, x, u)[-1]
                    errors = error_update(model, refs[j], refs[j + 1], x, u, errors,
                                          model.dt, 10, x_meas_next=x_next)
                    x = x_next

    @pytest.mark.parametrize("horizon", range(1, 6))
    def test_unrolls_one_surrogate_step_fewer_than_it_scores(self, horizon):
        # stages 0..H-1 need the H-1 steps that form E_1..E_{H-1}, each pulled back once;
        # no cost reads the state after the last scored stage
        model = load_model(FIXTURE)
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.6, 0.0], [0.1, 0.0], [0.2, -0.1])
        f = np.array([[1.2, 0.0, 0.4, 0.0, 0.3, 0.0]])
        spy = InputSpy(model)
        refs = np.full((horizon + 1, 2), 0.5)
        window_cost_and_grad(
            Window(spy, np.array([0.1, -0.2]), e0, refs, weights, model.dt, 10, Box([-1.0], [1.0])),
            f)
        assert len(spy.inputs) == horizon - 1
        assert spy.vjp_calls == horizon - 1


class TestNetworkWindowIsFinite:
    """Why the segment needs no recovery on a network surrogate: a tanh MLP with
    finite parameters bounds each output coordinate by sum_j |W_L[i, j]| + |b_L[i]|,
    so wherever the segment can put F the window's cost and gradient are finite."""

    def test_predictions_bounded_and_cost_and_gradient_finite(self):
        model = load_model(FIXTURE)
        w_last, b_last = model.net.unpack(model.params)[-1]
        bound = np.abs(w_last).sum(axis=1) + np.abs(b_last)
        lo, hi = model.net.scaling.lower[1:3], model.net.scaling.upper[1:3]
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        bounds = msd_bounds()
        corners = list(itertools.product((0.0, 5.0), repeat=3))
        rng = np.random.default_rng(0)
        configs = itertools.product(range(1, 6), (None, Box([-1.0], [1.0])), ("norm", "barrier"))
        for horizon, input_bounds, kind in configs:
            for trial in range(16):
                kp, ki, kd = corners[trial] if trial < 8 else rng.uniform(0.0, 5.0, 3)
                f = np.array([[kp, 0.0, ki, 0.0, kd, 0.0]])
                plant = rho = None
                if kind == "barrier":  # the K^i cut that every barrier iterate passes
                    plant, f = MSD, gainopt._project(f, bounds, MSD, 2)
                    rho = RHO_END if trial % 2 else rng.uniform(RHO_END, RHO_START)
                x0 = rng.uniform(lo, hi)
                refs = np.column_stack([rng.uniform(lo[0], hi[0], horizon + 1),
                                        np.zeros(horizon + 1)])
                e0 = ErrorState(refs[0] - x0, rng.uniform(-2.0, 2.0, 2),
                                rng.uniform(-10.0, 10.0, 2))
                spy = InputSpy(model)
                plain, total, grad = regularized_window(
                    spy, x0, e0, refs, f, weights, model.dt, 10, input_bounds=input_bounds,
                    kind=kind, plant=plant, rho=rho)
                assert np.isfinite(plain) and np.isfinite(total) and np.all(np.isfinite(grad))
                assert len(spy.predictions) == horizon - 1
                for values in spy.predictions:
                    assert np.all(np.abs(values) <= bound)


class TestOptimizeSegment:
    def test_regularizer_drives_gains_to_zero(self):
        model = LinearSurrogate()
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState(np.zeros(2), np.zeros(2), np.zeros(2))
        refs = np.zeros((6, 2))
        res = optimize_segment(
            model, np.zeros(2), e0, refs, weights, AdamConfig(), msd_bounds(),
            max_iters=3000, tol=1e-9,
        )
        assert np.max(np.abs(res.gains.stacked())) < 0.05

    def test_matches_dense_grid_search(self):
        # 3-step window: the input of stage 0 moves the velocity at stage 1 and so the
        # position at stage 2, which Q weights most, so the optimum is inside the box
        model = LinearSurrogate()
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.5, 0.0], [0.3, 0.0], [0.2, 0.0])
        x0 = np.array([-0.2, 0.0])
        ref = np.array([0.3, 0.0])
        refs = np.array([x0 + e0.e_prop, ref, ref, ref])  # stages 0, 1 and 2
        res = optimize_segment(
            model, x0, e0, refs, weights, AdamConfig(), msd_bounds(),
            max_iters=6000, tol=1e-10,
        )
        # independent oracle: closed-form cost on a 0.05 grid over the box
        grid = np.arange(0.0, 5.0 + 1e-9, 0.05)
        kp, ki, kd = np.meshgrid(grid, grid, grid, indexing="ij")
        cost = weights.mu * (kp**2 + ki**2 + kd**2)
        x, e_prop, e_int, e_deri = x0, e0.e_prop, e0.e_int, e0.e_deri
        for j in range(3):
            u = kp * e_prop[..., 0] + ki * e_int[..., 0] + kd * e_deri[..., 0]
            cost = cost + 0.5 * (np.einsum("...i,ij,...j->...", e_prop, weights.q, e_prop)
                                 + 0.01 * u**2) * model.dt
            # the next stage on the linear stand-in x(tau) = x + tau rate, whose
            # integral is exact
            rate = x @ model.a.T + u[..., None] * model.b[:, 0]
            x_next = x + model.dt * rate
            e_int = e_int + model.dt * (refs[j] - x) - 0.5 * model.dt**2 * rate
            e_next = refs[j + 1] - x_next
            x, e_prop, e_deri = x_next, e_next, (e_next - e_prop) / model.dt
        best = np.unravel_index(np.argmin(cost), cost.shape)
        best_gains = np.array([grid[best[0]], grid[best[1]], grid[best[2]]])
        assert np.all((best_gains > 0.0) & (best_gains < 5.0))
        f = res.gains.stacked()
        mine = np.array([f[0, 0], f[0, 2], f[0, 4]])
        assert np.max(np.abs(mine - best_gains)) <= 0.05 + 1e-9

    def test_barrier_keeps_stability_value_positive(self):
        model = LinearSurrogate()
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.8, 0.0], [2.0, 0.0], [0.0, 0.0])  # pushes ki hard
        refs = np.array([[0.8, 0.0]] * 6)
        res = optimize_segment(
            model, np.zeros(2), e0, refs, weights, AdamConfig(), msd_bounds(),
            regularizer_kind="barrier", plant=MSD, max_iters=400, tol=0.0,
        )
        assert msd_stability_value(MSD, res.gains.stacked(), 2) > 0

    def test_deterministic(self):
        model = LinearSurrogate()
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.4, 0.1], [0.0, 0.0], [0.1, 0.0])
        refs = np.array([[0.2, 0.0]] * 4)
        kw = dict(max_iters=500, tol=1e-8)
        a = optimize_segment(model, np.zeros(2), e0, refs, weights, AdamConfig(),
                             msd_bounds(), **kw)
        b = optimize_segment(model, np.zeros(2), e0, refs, weights, AdamConfig(),
                             msd_bounds(), **kw)
        assert np.array_equal(a.gains.stacked(), b.gains.stacked())

    def test_leaves_init_gains_unchanged(self):
        start = [[1.0, 0.0, 0.5, 0.0, 0.2, 0.0]]
        source = np.array(start)
        init = GainMatrix.from_stacked(source)
        e0 = ErrorState([0.4, 0.0], [0.1, 0.0], [0.0, 0.0])
        res = optimize_segment(LinearSurrogate(), np.zeros(2), e0, np.full((4, 2), 0.3),
                               CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]]), AdamConfig(),
                               msd_bounds(), regularizer_kind="barrier", plant=MSD,
                               max_iters=20, tol=0.0, init_gains=init)
        np.testing.assert_array_equal(init.stacked(), start)
        np.testing.assert_array_equal(source, start)
        assert not np.array_equal(res.gains.stacked(), start)  # the search did move
        assert not res.gains.stacked().flags.writeable

    def test_convergence_before_max_iters(self):
        model = LinearSurrogate()
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.4, 0.0], [0.0, 0.0], [0.0, 0.0])
        refs = np.array([[0.2, 0.0]] * 4)
        res = optimize_segment(model, np.zeros(2), e0, refs, weights, AdamConfig(),
                               msd_bounds(), max_iters=20000, tol=1e-6)
        assert res.converged and res.iterations < 20000

    @pytest.mark.parametrize("stop", ["converged", "max_iters"])
    def test_final_iterate_scored_by_one_more_window(self, stop, monkeypatch):
        # every iteration makes one window call, and one more scores the final iterate;
        # the returned cost is the plain window cost of the returned gains, bit for bit
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        if stop == "converged":
            model, x0 = LinearSurrogate(), np.zeros(2)
            e0 = ErrorState([0.4, 0.0], [0.0, 0.0], [0.0, 0.0])
            refs = np.array([[0.2, 0.0]] * 4)
            kw = dict(max_iters=20000, tol=1e-6)
        else:
            model, x0 = load_model(FIXTURE), np.array([0.1, -0.2])
            e0 = ErrorState([0.6, 0.0], [0.1, 0.0], [0.2, -0.1])
            refs = np.array([[0.7, 0.0]] * 3 + [[-0.3, 0.0]] * 3)
            kw = dict(regularizer_kind="barrier", plant=MSD, input_bounds=Box([-1.0], [1.0]),
                      max_iters=30, tol=0.0)
        window = gainopt.window_cost_and_grad
        windows = []

        def counting(shared, f):
            windows.append(shared)
            return window(shared, f)

        monkeypatch.setattr(gainopt, "window_cost_and_grad", counting)
        res = optimize_segment(model, x0, e0, refs, weights, AdamConfig(), msd_bounds(), **kw)
        assert res.converged == (stop == "converged")
        if stop == "max_iters":
            assert res.iterations == 30
        # every call scores the one Window that the segment built
        assert len(windows) == res.iterations + 1
        assert all(w is windows[0] for w in windows)
        f = res.gains.stacked()
        quad, _ = window(Window(model, x0, e0, refs, weights, model.dt, 10,
                                kw.get("input_bounds")), f)
        assert res.cost == quad + weights.mu * float((f * f).sum())

    def test_non_finite_step_raises(self):
        # 2-step window: the start (u = 0.25) is finite, Adam walks K^p over the cliff;
        # the segment names the first iterate with a non-finite window and does not recover
        model = CliffSurrogate()
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.1, 0.0], [0.0, 0.0], [0.0, 0.0])
        refs = np.array([[0.1, 0.0]] * 3)
        with pytest.raises(SegmentDiverged, match=r"at iteration [1-9]\d*, gains \[\[") as info:
            optimize_segment(model, np.zeros(2), e0, refs, weights, AdamConfig(alpha=0.5),
                             msd_bounds(), max_iters=200, tol=0.0)
        f = np.array(json.loads(str(info.value).split("gains ")[1]))
        assert abs(f[0] @ e0.stacked()) < 0.2

    def test_non_finite_start_raises(self):
        # 5-step window: u falls below 0.2 inside the window already at the box centre
        model = CliffSurrogate()
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.1, 0.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(SegmentDiverged, match="at iteration 0,"):
            optimize_segment(model, np.zeros(2), e0, np.zeros((6, 2)), weights,
                             AdamConfig(alpha=0.5), msd_bounds(), max_iters=200, tol=0.0)

    def test_negative_max_iters_rejected(self):
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.4, 0.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="max_iters"):
            optimize_segment(LinearSurrogate(), np.zeros(2), e0, np.zeros((4, 2)), weights,
                             AdamConfig(), msd_bounds(), max_iters=-1)

    @pytest.mark.parametrize("bad", ["init_gains", "x_k", "errors_k", "refs"])
    def test_non_finite_start_on_network_surrogate_raises(self, bad):
        # the network rejects NaN rows with ValueError; the segment checks its start first
        start = {"x_k": np.zeros(2), "errors_k": np.array([0.3, 0.0]),
                 "refs": np.full((6, 2), 0.3), "init_gains": np.ones((1, 6))}
        start[bad].flat[0] = np.nan
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        with pytest.raises(SegmentDiverged, match="non-finite"):
            optimize_segment(load_model(FIXTURE), start["x_k"],
                             ErrorState(start["errors_k"], np.zeros(2), np.zeros(2)),
                             start["refs"], weights, AdamConfig(), msd_bounds(),
                             regularizer_kind="barrier", plant=MSD,
                             input_bounds=Box([-1.0], [1.0]),
                             init_gains=GainMatrix.from_stacked(start["init_gains"]))


class TestSegmentFeasibility:
    """Where the barrier segment starts: the box centre in place of an unstable warm
    start, the K^i cut below g = BARRIER_G_MIN, and the error when no cut is left."""

    def first_window_gains(self, monkeypatch, bounds, init=None):
        window = gainopt.window_cost_and_grad
        seen = []

        def recording(shared, f):
            seen.append(f.copy())
            return window(shared, f)

        monkeypatch.setattr(gainopt, "window_cost_and_grad", recording)
        model = LinearSurrogate()
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.4, 0.0], [0.1, 0.0], [0.0, 0.0])
        init_gains = None if init is None else GainMatrix.from_stacked(
            np.array([[init[0], 0.0, init[1], 0.0, init[2], 0.0]]))
        optimize_segment(model, np.zeros(2), e0, np.full((4, 2), 0.3), weights, AdamConfig(),
                         bounds, regularizer_kind="barrier", plant=MSD, max_iters=2, tol=0.0,
                         init_gains=init_gains)
        return seen[0]

    def test_box_without_a_stable_gain_raises(self, monkeypatch):
        # K^p = K^d = 0 leave g = D K - M K^i = 0.5 - K^i, negative on all of K^i in [4, 5]
        bounds = diagonal_gain_bounds(2, 1, (0.0, 0.0), (4.0, 5.0), (0.0, 0.0), coords=[0])
        with pytest.raises(InfeasibleGainError, match="inside the gain box"):
            self.first_window_gains(monkeypatch, bounds)

    @pytest.mark.parametrize("bounds", [
        diagonal_gain_bounds(2, 1, (0.0, 5.0), (0.0, 5.0), (0.0, 5.0), coords=[1]),
        diagonal_gain_bounds(2, 2, (0.0, 5.0), (0.0, 5.0), (0.0, 5.0)),
        GainBounds(msd_bounds().lower + [[0, 0.5, 0, 0, 0, 0]],
                   msd_bounds().upper + [[0, 0.5, 0, 0, 0, 0]]),
    ], ids=["velocity_channel", "two_inputs", "pinned_velocity_gain"])
    def test_barrier_rejects_bounds_it_does_not_read(self, monkeypatch, bounds):
        # on velocity_channel g reads three entries pinned to 0, so it is D K = 0.5 at
        # every gain the box allows; the segment refuses before its first window
        monkeypatch.setattr(gainopt, "window_cost_and_grad",
                            lambda *args, **kwargs: pytest.fail("a window ran"))
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
        e0 = ErrorState([0.4, 0.0], [0.1, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="pin every other gain to 0"):
            optimize_segment(LinearSurrogate(), np.zeros(2), e0, np.full((4, 2), 0.3),
                             weights, AdamConfig(), bounds, regularizer_kind="barrier",
                             plant=MSD, max_iters=2, tol=0.0)

    def test_unstable_warm_start_starts_at_box_centre(self, monkeypatch):
        bounds = msd_bounds()
        start = np.array([[0.0, 0.0, 5.0, 0.0, 0.0, 0.0]])
        assert msd_stability_value(MSD, start, 2) < 0
        first = self.first_window_gains(monkeypatch, bounds, (0.0, 5.0, 0.0))
        assert np.array_equal(first, bounds.center())

    def test_barely_stable_warm_start_is_cut_to_g_min(self, monkeypatch):
        start = np.array([[0.0, 0.0, 0.4999995, 0.0, 0.0, 0.0]])
        assert 0.0 < msd_stability_value(MSD, start, 2) < gainopt.BARRIER_G_MIN
        first = self.first_window_gains(monkeypatch, msd_bounds(), (0.0, 0.4999995, 0.0))
        np.testing.assert_array_equal(first[0, [0, 1, 3, 4, 5]], 0.0)
        assert first[0, 2] == pytest.approx(0.499999, abs=1e-15)
        assert msd_stability_value(MSD, first, 2) >= gainopt.BARRIER_G_MIN / 2

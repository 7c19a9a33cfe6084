"""Gain optimizer checks: hand costs, Adam trace, projection, window gradient,
and a dense grid-search oracle on a linear stand-in surrogate."""

import dataclasses
import itertools
import json
import re
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
from pinnpid.pid import (
    GainBounds,
    GainMatrix,
    diagonal_gain_bounds,
    error_init,
    error_update,
    quadrature_nodes,
)
from pinnpid.sampling import Box
from tests.reference_window import regularizer as reference_regularizer
from tests.reference_window import window_cost_and_grad as reference_window
from tests.support import (
    E0,
    FIXTURE_MODEL,
    MSD,
    WEIGHTS,
    X0,
    CliffSurrogate,
    LinearSurrogate,
    Spy,
    calls_to,
    central_fd,
    forbid,
    msd_bounds,
    msd_inputs,
    toy_model,
    unbounded,
)

ROT = np.array([[0.6, -0.8], [0.8, 0.6]])  # a rotation, so that q is not diagonal
UNBOUNDED = unbounded()


def segment(model, x_k, errors_k, refs, weights, adam, bounds, **settings):
    """``optimize_segment`` with the norm regularizer, an input box that clips
    nothing, n_quad = 10, max_iters = 200, tol = 1e-6 and a start at the centre
    of the gain box, each unless ``settings`` sets it."""
    defaults = dict(regularizer_kind="norm", plant=None, input_bounds=unbounded(model.m),
                    n_quad=10, max_iters=200, tol=1e-6,
                    init_gains=GainMatrix.from_stacked(bounds.center()))
    return optimize_segment(model, x_k, errors_k, refs, weights, adam, bounds,
                            **(defaults | settings))


def regularized_window(model, x0, errors0, refs, f, weights, n_quad, input_bounds,
                       kind="norm", plant=None, rho=None):
    """(plain cost, total cost, gradient of the total): the window's tracking cost and
    gradient with mu times the regularizer's gradient added the way ``optimize_segment``
    adds it. The library's regularizer returns the gradient alone, so Theta comes from
    the frozen one in reference_window.py."""
    n = model.n
    quad, grad = window_cost_and_grad(
        Window(model, x0, errors0, refs, weights, n_quad, input_bounds), f)
    theta, _ = reference_regularizer(f, kind, plant=plant, rho=rho, n=n)
    return (quad + weights.mu * float((f * f).sum()), quad + weights.mu * theta,
            weights.mu * regularizer(f, plant, rho, n) + grad)


class TestStageCost:
    """Costs of a 1-step window: the stage-0 cost alone, with no surrogate step."""

    def test_zero(self):
        model = LinearSurrogate()
        w = CostWeights(q=np.eye(2), r=np.eye(1), mu=1.0)
        zeros = np.zeros(6)
        cost, grad = window_cost_and_grad(
            Window(model, np.zeros(2), zeros, np.zeros((2, 2)), w, 10, UNBOUNDED),
            np.zeros((1, 6))
        )
        assert cost == 0.0
        assert np.array_equal(grad, np.zeros((1, 6)))

    def test_hand_value_plain(self):
        # u = 1.2 * 0.1 + 1.0 * 0.38 = 0.5;
        # J = 0.5 (1000 * 0.1^2 + 0.01 * 0.5^2) 0.2 + (1.2^2 + 1.0^2 + 1.2^2) = 4.88025
        model = LinearSurrogate()
        e0 = np.array([0.1, 0.0, 0.38, 0.0, 0.0, 0.0])
        f = np.array([[1.2, 0.0, 1.0, 0.0, 1.2, 0.0]])
        plain, total, _ = regularized_window(
            model, np.zeros(2), e0, np.zeros((2, 2)), f, WEIGHTS, 10, UNBOUNDED, kind="norm"
        )
        assert plain == pytest.approx(4.88025, abs=1e-12)
        assert total == plain

    def test_hand_value_barrier_gradient(self):
        # g = (1.2 + 0.5)(1.2 + 1) - 1.0 = 2.74; the barrier adds -(dg/dF) / (rho g) to 2F
        g = np.array([[1.2, 0.0, 1.0, 0.0, 1.2, 0.0]])
        grad = regularizer(g, MSD, 1.0, 2)
        np.testing.assert_allclose(
            grad, [[2.4 - 1.7 / 2.74, 0.0, 2.0 + 1.0 / 2.74, 0.0, 2.4 - 2.2 / 2.74, 0.0]],
            rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, [[1.7796, 0.0, 2.3650, 0.0, 1.5971, 0.0]], atol=5e-5)
        # the same F without a plant: the norm's gradient alone
        assert np.array_equal(regularizer(g, None, 1.0, 2), 2.0 * g)

    def test_gradient_matches_frozen_regularizer_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            f = np.zeros((1, 6))
            f[0, [0, 2, 4]] = rng.uniform(0.0, 5.0, 3)
            f = gainopt._project(f, msd_bounds(), MSD, 2)
            rho = rng.uniform(RHO_END, RHO_START)
            for kind, plant in (("norm", None), ("barrier", MSD)):
                _, frozen = reference_regularizer(f, kind, plant=plant, rho=rho, n=2)
                assert np.array_equal(regularizer(f, plant, rho, 2), frozen)

    def test_barrier_rejects_nonpositive_g(self):
        g = np.array([[0.0, 0.0, 4.0, 0.0, 0.0, 0.0]])  # g = 0.5*1 - 4 = -3.5
        assert msd_stability_value(MSD, g, 2) == pytest.approx(-3.5)
        with pytest.raises(InfeasibleGainError):
            regularizer(g, MSD, 1.0, 2)
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
            CostWeights(q=q, r=r, mu=1.0)

    @pytest.mark.parametrize("q, r, name, shape", [
        (np.ones((2, 3)), [[0.01]], "q", (2, 3)),
        (np.eye(2), np.ones((1, 2)), "r", (1, 2)),
    ], ids=["q_2x3", "r_1x2"])
    def test_cost_weights_reject_non_square(self, q, r, name, shape):
        message = f"{name} must be square, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            CostWeights(q=q, r=r, mu=1.0)

    @pytest.mark.parametrize("q, r, message", [
        ([[1.0, 0.5], [0.4, 1.0]], [[0.01]], "q must be symmetric positive semidefinite"),
        ([[1.0, 0.0], [0.0, -0.5]], [[0.01]], "q must be symmetric positive semidefinite"),
        # smallest eigenvalue -1e-6 |lambda|max, at three scales
        *[(ROT @ np.diag([s, -1e-6 * s]) @ ROT.T, [[0.01]],
           "q must be symmetric positive semidefinite") for s in (1e-7, 1.0, 1e8)],
        (np.eye(2), [[1.0, 0.5], [0.4, 1.0]], "r must be symmetric positive definite"),
        (np.eye(2), [[1.0, 0.0], [0.0, 0.0]], "r must be symmetric positive definite"),
    ], ids=["asymmetric_q", "indefinite_q", "slightly_indefinite_q_1e-7",
            "slightly_indefinite_q_1", "slightly_indefinite_q_1e8", "asymmetric_r",
            "semidefinite_r"])
    def test_cost_weights_reject(self, q, r, message):
        with pytest.raises(ValueError, match=message):
            CostWeights(q=q, r=r, mu=1.0)

    def test_cost_weights_accept_rank_one_q_of_any_scale(self):
        # v v^T is PSD, but its zero eigenvalue comes out of eigvalsh as about
        # -eps |v|^2; an absolute floor of -1e-12 refused 567 of these 2,000
        rng = np.random.default_rng(0)
        for _ in range(2000):
            v = rng.standard_normal(2) * rng.uniform(1, 1e4)
            CostWeights(q=np.outer(v, v), r=[[0.01]], mu=1.0)

    def test_cost_weights_keep_the_symmetric_part(self):
        q = np.array([[2.0, 1.0], [1.0 + 1e-5, 1.0]])  # symmetric within np.allclose
        r = np.array([[0.02, 1e-9], [0.0, 0.01]])
        w = CostWeights(q=q, r=r, mu=1.0)
        np.testing.assert_array_equal(w.q, [[2.0, 1.0 + 0.5e-5], [1.0 + 0.5e-5, 1.0]])
        assert np.array_equal(w.q, w.q.T) and np.array_equal(w.r, w.r.T)
        # an exactly symmetric matrix keeps its bits
        assert np.array_equal(WEIGHTS.q, np.diag([1000.0, 1.0])) and WEIGHTS.r[0, 0] == 0.01

    def test_cost_weights_are_frozen_and_read_only(self):
        # an assignment skipped every check: mu = -1 ran the search with a negative weight
        for name, value in (("mu", -1.0), ("q", -np.eye(2)), ("r", [[-1.0]])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(WEIGHTS, name, value)
        for arr in (WEIGHTS.q, WEIGHTS.r):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = -1.0
        assert WEIGHTS.mu == 1.0 and WEIGHTS.q[0, 0] == 1000.0 and WEIGHTS.r[0, 0] == 0.01


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

    def test_config_is_frozen(self):
        cfg = AdamConfig(alpha=1e-2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.alpha = -1.0
        assert cfg.alpha == 1e-2


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
        e0 = np.array([0.5, -0.1, 0.2, 0.0, -0.4, 0.1])
        x0 = np.array([-0.2, 0.1])
        refs = np.array([[0.3, 0.0]] * 4)
        f = np.array([[1.1, 0.2, 0.8, 0.1, 0.9, 0.05]])
        window = Window(model, x0, e0, refs, WEIGHTS, 10, UNBOUNDED)
        cost, grad = window_cost_and_grad(window, f)
        fd = central_fd(lambda g: window_cost_and_grad(window, g)[0], f, 1e-6)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)

    def test_gradient_through_network_surrogate(self):
        model = toy_model(seed=6)
        model = dataclasses.replace(model, params=model.params * 0.5)
        e0 = np.array([0.3, 0.0, 0.1, 0.0, 0.2, -0.1])
        refs = np.array([[0.2, 0.0]] * 3)
        f = np.array([[0.9, 0.1, 0.5, 0.0, 0.7, 0.2]])
        window = Window(model, X0, e0, refs, WEIGHTS, 10, UNBOUNDED)
        cost, grad = window_cost_and_grad(window, f)
        fd = central_fd(lambda g: window_cost_and_grad(window, g)[0], f, 1e-6)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)

    def test_nearly_symmetric_q_through_fixture_matches_finite_differences(self):
        # q is symmetric only within np.allclose; the window's dt Q e matches the
        # cost (dt/2) e^T Q e only with Q's symmetric part (7.3e-6 relative without it)
        weights = CostWeights(q=[[2.0, 1.0], [1.0 + 1e-5, 1.0]], r=[[0.01]], mu=1.0)
        x0 = np.array([0.6, -0.3])
        refs = np.array([[-0.5, 0.0]] * 3 + [[0.5, 0.0]] * 3)
        e0 = error_init(FIXTURE_MODEL, x0, refs[0], refs[0], FIXTURE_MODEL.dt)
        window = Window(FIXTURE_MODEL, x0, e0, refs, weights, 10, UNBOUNDED)
        rng = np.random.default_rng(1)
        for _ in range(3):
            f = np.zeros((1, 6))
            f[0, [0, 2, 4]] = rng.uniform(0.0, 1.0, 3)
            _, grad = window_cost_and_grad(window, f)
            fd = central_fd(lambda g: window_cost_and_grad(window, g)[0], f, 1e-6)
            # central differences of a cost near 0.6 carry about 1e-10 of rounding
            assert np.max(np.abs(grad - fd)) < 1e-7 * np.max(np.abs(fd))

    def test_barrier_and_input_box_through_network_surrogate(self):
        # the closed loop's configuration: barrier regularizer, input box, H = 5
        model = toy_model(seed=6)
        model = dataclasses.replace(model, params=model.params * 0.5)
        refs = np.array([[0.7, 0.0]] * 3 + [[-0.3, 0.0]] * 3)
        f = np.array([[1.2, 0.0, 0.4, 0.0, 0.3, 0.0]])
        kw = dict(input_bounds=Box([-1.0], [1.0]), kind="barrier", plant=MSD, rho=0.5)
        spy = Spy(model)
        _, cost, grad = regularized_window(spy, X0, E0, refs, f, WEIGHTS, 10, **kw)
        saturated = [abs(u[0]) == 1.0 for u in spy.inputs]
        assert any(saturated) and not all(saturated)
        assert msd_stability_value(MSD, f, 2) > 0
        fd = central_fd(lambda g: regularized_window(model, X0, E0, refs, g, WEIGHTS, 10, **kw)[1],
                        f, 1e-6)
        # the cost is about 190, so rounding alone puts ~2e-8 into each difference
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("network, clip", [(False, False), (False, True), (True, True)],
                             ids=["no_box", "box", "network_box"])
    def test_two_inputs_match_finite_differences(self, network, clip):
        # a 4-state, 2-input linear stand-in or network surrogate with an arm-shaped F:
        # channel i acts on coordinate i
        a = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                      [-2.0, 0.5, -0.4, 0.0], [0.3, -1.5, 0.0, -0.6]])
        b = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.2], [0.0, 0.8]])
        model = toy_model(seed=2, n=4, m=2) if network else LinearSurrogate(ab=(a, b))
        weights = CostWeights(q=np.diag([100.0, 50.0, 1.0, 1.0]), r=np.diag([0.01, 0.02]),
                              mu=1.0)
        bounds = diagonal_gain_bounds(4, 2, (0.0, 5.0), (0.0, 5.0), (0.0, 5.0), [0, 1])
        box = Box([-0.8, -0.8], [0.8, 0.8]) if clip else unbounded(2)
        f = np.zeros((2, 12))
        f[0, [0, 4, 8]] = [1.5, 0.3, 0.8]
        f[1, [1, 5, 9]] = [2.0, 0.4, 0.6]
        assert np.array_equal(gainopt._project(f, bounds, None, 4), f)
        e0 = np.array([0.4, -0.3, 0.0, 0.0, 0.1, 0.05, 0.0, 0.0, 0.2, -0.1, 0.0, 0.1])
        x0 = np.array([0.1, -0.2, 0.0, 0.1])
        refs = np.array([[0.5, -0.5, 0.0, 0.0]] * 3 + [[-0.2, 0.3, 0.0, 0.0]] * 3)
        spy = Spy(model)
        cost, grad = window_cost_and_grad(
            Window(spy, x0, e0, refs, weights, 10, box), f)
        if clip:
            saturated = [np.any(np.abs(u) == 0.8) for u in spy.inputs]
            assert any(saturated) and not all(saturated)
        window = Window(model, x0, e0, refs, weights, 10, box)
        fd = central_fd(lambda g: window_cost_and_grad(window, g)[0], f, 1e-6)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("width", [1, 3])
    def test_rejects_reference_of_another_width(self, width):
        # a (6, 1) reference would broadcast against the 2-state predictions
        with pytest.raises(ValueError, match=rf"refs has shape \(6, {width}\), "
                                             r"the model needs \(6, 2\)"):
            Window(FIXTURE_MODEL, X0, E0, np.full((6, width), 0.5), WEIGHTS, 10, UNBOUNDED)

    @pytest.mark.parametrize("q, r, box, message", [
        (np.eye(3), [[0.01]], UNBOUNDED, r"q has shape \(3, 3\), the model needs \(2, 2\)"),
        (np.eye(2), np.diag([0.01, 0.02]), Box([-1.0], [1.0]),
         r"input_bounds has shape \(1,\), the model needs \(2,\)"),
        (np.eye(2), [[0.01]], Box([-1.0, -1.0], [1.0, 1.0]),
         r"input_bounds has shape \(2,\), the model needs \(1,\)"),
    ], ids=["q", "narrow_box", "wide_box"])
    def test_rejects_weights_or_box_of_another_width(self, q, r, box, message):
        # a wrong q used to surface as a bare matmul error inside the first window, and a
        # 1-wide box clipped both inputs of a 2-input F by its one bound
        model = msd_inputs(len(r))
        with pytest.raises(ValueError, match=message):
            Window(model, np.zeros(2), E0, np.full((4, 2), 0.5), CostWeights(q=q, r=r, mu=1.0),
                   10, box)

    def test_saturated_channel_blocks_gradient(self):
        model = LinearSurrogate()
        weights = CostWeights(q=np.eye(2), r=[[0.01]], mu=1.0)
        e0 = np.array([5.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # huge error saturates u
        refs = np.zeros((3, 2))
        f = np.array([[4.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        _, grad = window_cost_and_grad(
            Window(model, np.zeros(2), e0, refs, weights, 10, Box([-1.0], [1.0])), f
        )
        # no tracking path reaches the saturated proportional entry
        assert grad[0, 0] == 0.0


class TestStackedWindow:
    """The stacked-state window against the frozen step-by-step one in reference_window.py."""

    def test_matches_step_by_step_window(self):
        # 2 models x H = 1..5 x 2 regularizers x with and without an input box x 5 draws;
        # the reference also takes a terminal weight on e_prop_H, here zero. Without a box
        # the library is given one that clips nothing, and the frozen window None
        rng = np.random.default_rng(7)
        ref_weights = SimpleNamespace(q=WEIGHTS.q, r=WEIGHTS.r, mu=WEIGHTS.mu,
                                      q_terminal=np.zeros((2, 2)))
        cases = itertools.product((LinearSurrogate(), FIXTURE_MODEL), range(1, 6),
                                  ("norm", "barrier"), (None, Box([-1.0], [1.0])), range(5))
        checked = 0
        for model, horizon, kind, box, _ in cases:
            x0 = rng.uniform([-1.0, -0.5], [1.0, 0.5])
            e0 = np.concatenate([rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5, 2),
                                 rng.uniform(-2, 2, 2)])
            refs = rng.uniform(-0.7, 0.7, (horizon + 1, 2))
            f = rng.uniform(0.0, 3.0, (1, 6))
            kp, ki, kd = f[0, 0], f[0, 2], f[0, 4]
            # keep the stability value g positive for the barrier
            f[0, 2] = min(ki, 0.9 * (kd + MSD.damping) * (kp + MSD.stiffness) / MSD.mass)
            plant, rho = (MSD, rng.uniform(0.01, 10.0)) if kind == "barrier" else (None, None)
            new = regularized_window(model, x0, e0, refs, f, WEIGHTS, 10,
                                     UNBOUNDED if box is None else box,
                                     kind=kind, plant=plant, rho=rho)
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
        refs = np.array([[0.7, 0.0]] * 3 + [[-0.3, 0.0]] * 3)
        args = (FIXTURE_MODEL, X0, E0, refs, WEIGHTS, 10, Box([-1.0], [1.0]))
        window = Window(*args)
        held = {name: value.copy() for name, value in vars(window).items()
                if isinstance(value, np.ndarray)}
        assert {"taus", "a", "p", "c", "e0", "x0", "lower", "upper"} <= set(held)
        params = FIXTURE_MODEL.params.copy()
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
        assert np.array_equal(FIXTURE_MODEL.params, params)

    def test_reference_drive_and_selector_match_the_b_map_bit_for_bit(self):
        # c_j and P's last-row selector, built straight from the rows, against their earlier
        # form: c_j = B (r_j, r_{j+1}) with a 3n x 2n map B, and the selector kron(e_last, I)
        rng = np.random.default_rng(29)
        for _ in range(500):
            n, horizon, n_quad = (int(rng.integers(lo, hi)) for lo, hi in ((1, 5), (2, 8), (2, 12)))
            dt = float(rng.uniform(0.01, 1.0))
            refs = rng.standard_normal((horizon + 1, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
            weights = CostWeights(q=np.eye(n), r=[[0.01]], mu=1.0)
            window = Window(SimpleNamespace(dt=dt, n=n, m=1), np.zeros(n), np.zeros(3 * n), refs,
                            weights, n_quad, UNBOUNDED)
            _, w = quadrature_nodes(dt, n_quad)
            eye, end = np.eye(n), np.eye(n_quad + 1)[-1]
            b = np.zeros((3 * n, 2 * n))
            b[n : 2 * n, :n] = w.sum() * eye
            b[:n, n:] = eye
            b[2 * n :, n:] = eye / dt
            c = np.concatenate((refs[:-2], refs[1:-1]), axis=1) @ b.T
            p = np.vstack([np.kron(end, eye), np.kron(w, eye), np.kron(end, eye) / dt])
            for new, old in ((window.c, c), (window.p, p)):
                assert new.shape == old.shape and new.tobytes() == old.tobytes()

    def test_error_recursion_matches_controller(self):
        # the inputs F E_j the window feeds the surrogate, with E_j from the fixed
        # linear error map, against F E_j with E_j from successive pid.error_update
        # calls along the same inputs; a box that clips nothing, so each input is F E_j
        rng = np.random.default_rng(11)
        for model in (LinearSurrogate(), FIXTURE_MODEL):
            taus, _ = quadrature_nodes(model.dt, 10)
            for _ in range(50):
                horizon = int(rng.integers(1, 6))
                x = rng.uniform([-1.0, -0.5], [1.0, 0.5])
                errors = np.concatenate([rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5, 2),
                                         rng.uniform(-2, 2, 2)])
                refs = rng.uniform(-0.7, 0.7, (horizon + 1, 2))
                f = rng.uniform(-3.0, 3.0, (1, 6))
                spy = Spy(model)
                window_cost_and_grad(Window(spy, x, errors, refs, WEIGHTS, 10, UNBOUNDED), f)
                assert len(spy.inputs) == horizon - 1
                for j, u in enumerate(spy.inputs):
                    # relative to the size of the terms of the product F E_j
                    assert np.max(np.abs(u - f @ errors)) <= 1e-12 * np.max(
                        np.abs(f) @ np.abs(errors))
                    x_next = model.predict(taus, x, u)[-1]
                    errors = error_update(model, refs[j], refs[j + 1], x, u, errors,
                                          model.dt, 10, x_meas_next=x_next)
                    x = x_next

    @pytest.mark.parametrize("horizon", range(1, 6))
    def test_unrolls_one_surrogate_step_fewer_than_it_scores(self, horizon):
        # stages 0..H-1 need the H-1 steps that form E_1..E_{H-1}, each pulled back once;
        # no cost reads the state after the last scored stage
        f = np.array([[1.2, 0.0, 0.4, 0.0, 0.3, 0.0]])
        spy = Spy(FIXTURE_MODEL)
        refs = np.full((horizon + 1, 2), 0.5)
        window_cost_and_grad(Window(spy, X0, E0, refs, WEIGHTS, 10, Box([-1.0], [1.0])), f)
        assert len(spy.inputs) == horizon - 1
        assert spy.vjp_calls == horizon - 1


class TestNetworkWindowIsFinite:
    """Why the segment needs no recovery on a network surrogate: a tanh MLP with
    finite parameters bounds each output coordinate by sum_j |W_L[i, j]| + |b_L[i]|,
    so wherever the segment can put F the window's cost and gradient are finite."""

    def test_predictions_bounded_and_cost_and_gradient_finite(self):
        w_last, b_last = FIXTURE_MODEL.layers[-1]
        bound = np.abs(w_last).sum(axis=1) + np.abs(b_last)
        lo, hi = FIXTURE_MODEL.net.scaling.lower[1:3], FIXTURE_MODEL.net.scaling.upper[1:3]
        bounds = msd_bounds()
        corners = list(itertools.product((0.0, 5.0), repeat=3))
        rng = np.random.default_rng(0)
        configs = itertools.product(range(1, 6), (UNBOUNDED, Box([-1.0], [1.0])),
                                    ("norm", "barrier"))
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
                e0 = np.concatenate([refs[0] - x0, rng.uniform(-2.0, 2.0, 2),
                                     rng.uniform(-10.0, 10.0, 2)])
                spy = Spy(FIXTURE_MODEL)
                plain, total, grad = regularized_window(
                    spy, x0, e0, refs, f, WEIGHTS, 10, input_bounds=input_bounds,
                    kind=kind, plant=plant, rho=rho)
                assert np.isfinite(plain) and np.isfinite(total) and np.all(np.isfinite(grad))
                assert len(spy.predictions) == horizon - 1
                for values in spy.predictions:
                    assert np.all(np.abs(values) <= bound)


class TestOptimizeSegment:
    def test_regularizer_drives_gains_to_zero(self):
        model = LinearSurrogate()
        e0 = np.zeros(6)
        refs = np.zeros((6, 2))
        res = segment(
            model, np.zeros(2), e0, refs, WEIGHTS, AdamConfig(), msd_bounds(),
            max_iters=3000, tol=1e-9,
        )
        assert np.max(np.abs(res.gains.stacked())) < 0.05

    def test_matches_dense_grid_search(self):
        # 3-step window: the input of stage 0 moves the velocity at stage 1 and so the
        # position at stage 2, which Q weights most, so the optimum is inside the box
        model = LinearSurrogate()
        e0 = np.array([0.5, 0.0, 0.3, 0.0, 0.2, 0.0])
        x0 = np.array([-0.2, 0.0])
        ref = np.array([0.3, 0.0])
        refs = np.array([x0 + e0[:2], ref, ref, ref])  # stages 0, 1 and 2
        res = segment(
            model, x0, e0, refs, WEIGHTS, AdamConfig(), msd_bounds(),
            max_iters=6000, tol=1e-10,
        )
        # independent oracle: closed-form cost on a 0.05 grid over the box
        grid = np.arange(0.0, 5.0 + 1e-9, 0.05)
        kp, ki, kd = np.meshgrid(grid, grid, grid, indexing="ij")
        cost = WEIGHTS.mu * (kp**2 + ki**2 + kd**2)
        x, e_prop, e_int, e_deri = x0, e0[:2], e0[2:4], e0[4:]
        for j in range(3):
            u = kp * e_prop[..., 0] + ki * e_int[..., 0] + kd * e_deri[..., 0]
            cost = cost + 0.5 * (np.einsum("...i,ij,...j->...", e_prop, WEIGHTS.q, e_prop)
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
        e0 = np.array([0.8, 0.0, 2.0, 0.0, 0.0, 0.0])  # pushes ki hard
        refs = np.array([[0.8, 0.0]] * 6)
        res = segment(
            model, np.zeros(2), e0, refs, WEIGHTS, AdamConfig(), msd_bounds(),
            regularizer_kind="barrier", plant=MSD, max_iters=400, tol=0.0,
        )
        assert msd_stability_value(MSD, res.gains.stacked(), 2) > 0

    def test_deterministic(self):
        model = LinearSurrogate()
        e0 = np.array([0.4, 0.1, 0.0, 0.0, 0.1, 0.0])
        refs = np.array([[0.2, 0.0]] * 4)
        kw = dict(max_iters=500, tol=1e-8)
        a = segment(model, np.zeros(2), e0, refs, WEIGHTS, AdamConfig(), msd_bounds(), **kw)
        b = segment(model, np.zeros(2), e0, refs, WEIGHTS, AdamConfig(), msd_bounds(), **kw)
        assert np.array_equal(a.gains.stacked(), b.gains.stacked())

    def test_leaves_init_gains_unchanged(self):
        start = [[1.0, 0.0, 0.5, 0.0, 0.2, 0.0]]
        source = np.array(start)
        init = GainMatrix.from_stacked(source)
        e0 = np.array([0.4, 0.0, 0.1, 0.0, 0.0, 0.0])
        res = segment(LinearSurrogate(), np.zeros(2), e0, np.full((4, 2), 0.3), WEIGHTS,
                      AdamConfig(), msd_bounds(), regularizer_kind="barrier", plant=MSD,
                      max_iters=20, tol=0.0, init_gains=init)
        np.testing.assert_array_equal(init.stacked(), start)
        np.testing.assert_array_equal(source, start)
        assert not np.array_equal(res.gains.stacked(), start)  # the search did move
        assert not res.gains.stacked().flags.writeable

    def test_convergence_before_max_iters(self):
        model = LinearSurrogate()
        e0 = np.array([0.4, 0.0, 0.0, 0.0, 0.0, 0.0])
        refs = np.array([[0.2, 0.0]] * 4)
        res = segment(model, np.zeros(2), e0, refs, WEIGHTS, AdamConfig(),
                      msd_bounds(), max_iters=20000, tol=1e-6)
        assert res.converged and res.iterations < 20000

    @pytest.mark.parametrize("stop", ["converged", "max_iters"])
    def test_final_iterate_scored_by_one_more_window(self, stop, monkeypatch):
        # every iteration makes one window call, and one more scores the final iterate;
        # the returned cost is the plain window cost of the returned gains, bit for bit
        if stop == "converged":
            model, x0 = LinearSurrogate(), np.zeros(2)
            e0 = np.array([0.4, 0.0, 0.0, 0.0, 0.0, 0.0])
            refs = np.array([[0.2, 0.0]] * 4)
            kw = dict(input_bounds=UNBOUNDED, max_iters=20000, tol=1e-6)
        else:
            model, x0, e0 = FIXTURE_MODEL, X0, E0
            refs = np.array([[0.7, 0.0]] * 3 + [[-0.3, 0.0]] * 3)
            kw = dict(regularizer_kind="barrier", plant=MSD, input_bounds=Box([-1.0], [1.0]),
                      max_iters=30, tol=0.0)
        calls = calls_to(monkeypatch, gainopt, "window_cost_and_grad")
        res = segment(model, x0, e0, refs, WEIGHTS, AdamConfig(), msd_bounds(), **kw)
        assert res.converged == (stop == "converged")
        if stop == "max_iters":
            assert res.iterations == 30
        # every call scores the one Window that the segment built
        assert len(calls) == res.iterations + 1
        assert all(c["window"] is calls[0]["window"] for c in calls)
        f = res.gains.stacked()
        quad, _ = window_cost_and_grad(
            Window(model, x0, e0, refs, WEIGHTS, 10, kw["input_bounds"]), f)
        assert res.cost == quad + WEIGHTS.mu * float((f * f).sum())

    def test_non_finite_step_raises(self):
        # 2-step window: the start (u = 0.25) is finite, Adam walks K^p over the cliff;
        # the segment names the first iterate with a non-finite window and does not recover
        model = CliffSurrogate()
        e0 = np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
        refs = np.array([[0.1, 0.0]] * 3)
        with pytest.raises(SegmentDiverged, match=r"at iteration [1-9]\d*, gains \[\[") as info:
            segment(model, np.zeros(2), e0, refs, WEIGHTS, AdamConfig(alpha=0.5),
                    msd_bounds(), max_iters=200, tol=0.0)
        f = np.array(json.loads(str(info.value).split("gains ")[1]))
        assert abs(f[0] @ e0) < 0.2

    def test_non_finite_start_raises(self):
        # 5-step window: u falls below 0.2 inside the window already at the box centre
        model = CliffSurrogate()
        e0 = np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(SegmentDiverged, match="at iteration 0,"):
            segment(model, np.zeros(2), e0, np.zeros((6, 2)), WEIGHTS,
                    AdamConfig(alpha=0.5), msd_bounds(), max_iters=200, tol=0.0)

    def test_negative_max_iters_rejected(self):
        e0 = np.array([0.4, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="max_iters"):
            segment(LinearSurrogate(), np.zeros(2), e0, np.zeros((4, 2)), WEIGHTS,
                    AdamConfig(), msd_bounds(), max_iters=-1)

    @pytest.mark.parametrize("tol", [-1e-6, np.nan])
    def test_negative_or_nan_tol_rejected_before_a_window(self, tol, monkeypatch):
        # either one turned early stopping off without a word
        forbid(monkeypatch, gainopt, "window_cost_and_grad")
        e0 = np.array([0.4, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=rf"tol must be >= 0, got .*{tol}"):
            segment(LinearSurrogate(), np.zeros(2), e0, np.zeros((4, 2)), WEIGHTS,
                    AdamConfig(), msd_bounds(), tol=tol)

    @pytest.mark.parametrize("m, r, box, init, match", [
        (2, [[0.01]], (2, 6), None, r"r has shape \(1, 1\), the model needs \(2, 2\)"),
        (1, [[0.01]], (1, 9), None, r"bounds has shape \(1, 9\), the model needs \(1, 6\)"),
        (2, np.diag([0.01, 0.02]), (2, 6), (1, 6),
         r"init_gains has shape \(1, 6\), the model needs \(2, 6\)"),
    ], ids=["two_input_box_one_input_r", "nine_wide_box", "one_row_warm_start_on_two_input_box"])
    def test_rejects_box_or_warm_start_of_another_shape(self, monkeypatch, m, r, box, init,
                                                        match):
        # each used to reach the first window: the first two failed there with a bare
        # matmul error, the third was broadcast into both rows of F
        forbid(monkeypatch, gainopt, "window_cost_and_grad")
        model = msd_inputs(m)
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=r, mu=1.0)
        start = {} if init is None else {"init_gains": GainMatrix.from_stacked(np.ones(init))}
        e0 = np.array([0.4, 0.0, 0.1, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=match):
            segment(model, np.zeros(2), e0, np.full((4, 2), 0.3), weights,
                    AdamConfig(), GainBounds(np.zeros(box), np.full(box, 5.0)),
                    max_iters=2, **start)

    @pytest.mark.parametrize("x_k, errors_k, refs, q, r, box, input_box, match", [
        (np.zeros(2), np.full(9, 0.1), np.full((6, 3), 0.3), np.eye(3), [[0.01]], (1, 9),
         Box([-1.0], [1.0]), r"errors0 has shape \(9,\), the model needs \(6,\)"),
        (np.zeros(3), np.full(6, 0.1), np.full((6, 2), 0.3), np.eye(2), [[0.01]], (1, 6),
         Box([-1.0], [1.0]), r"x0 has shape \(3,\), the model needs \(2,\)"),
        (np.zeros(2), np.full(6, 0.1), np.full((6, 2), 0.3), np.eye(2), np.diag([0.01, 0.02]),
         (2, 6), Box([-1.0, -1.0], [1.0, 1.0]), r"r has shape \(2, 2\), the model needs \(1, 1\)"),
    ], ids=["three_state_errors", "three_wide_x_k", "two_input_r"])
    def test_widths_checked_against_the_model_before_a_window(
            self, monkeypatch, x_k, errors_k, refs, q, r, box, input_box, match):
        # the widths used to be read off the error state and r, so each of these passed
        # every check and failed inside the first window with a bare NumPy message
        calls = calls_to(monkeypatch, gainopt, "window_cost_and_grad")
        with pytest.raises(ValueError, match=match):
            segment(FIXTURE_MODEL, x_k, errors_k, refs, CostWeights(q=q, r=r, mu=1.0),
                    AdamConfig(), GainBounds(np.zeros(box), np.full(box, 5.0)),
                    input_bounds=input_box, max_iters=2)
        assert calls == []

    @pytest.mark.parametrize("bad", ["init_gains", "x_k", "errors_k", "refs"])
    def test_non_finite_start_on_network_surrogate_raises(self, bad):
        # the network rejects NaN rows with ValueError; the segment checks its start first
        start = {"x_k": np.zeros(2), "errors_k": np.array([0.3, 0.0]),
                 "refs": np.full((6, 2), 0.3), "init_gains": np.ones((1, 6))}
        start[bad].flat[0] = np.nan
        with pytest.raises(SegmentDiverged, match="non-finite"):
            segment(FIXTURE_MODEL, start["x_k"],
                    np.concatenate([start["errors_k"], np.zeros(4)]),
                    start["refs"], WEIGHTS, AdamConfig(), msd_bounds(),
                    regularizer_kind="barrier", plant=MSD,
                    input_bounds=Box([-1.0], [1.0]),
                    init_gains=GainMatrix.from_stacked(start["init_gains"]))


class TestSegmentFeasibility:
    """Where the barrier segment starts: the K^i cut below g = BARRIER_G_MIN that every
    iterate gets, applied to the start too, and the error when no cut is left."""

    def first_window_gains(self, monkeypatch, bounds, init=None):
        calls = calls_to(monkeypatch, gainopt, "window_cost_and_grad")
        model = LinearSurrogate()
        e0 = np.array([0.4, 0.0, 0.1, 0.0, 0.0, 0.0])
        start = {} if init is None else {"init_gains": GainMatrix.from_stacked(
            np.array([[init[0], 0.0, init[1], 0.0, init[2], 0.0]]))}
        segment(model, np.zeros(2), e0, np.full((4, 2), 0.3), WEIGHTS, AdamConfig(),
                bounds, regularizer_kind="barrier", plant=MSD, max_iters=2, tol=0.0,
                **start)
        return calls[0]["f"]

    def test_box_without_a_stable_gain_raises(self, monkeypatch):
        # K^p = K^d = 0 leave g = D K - M K^i = 0.5 - K^i, negative on all of K^i in [4, 5]
        bounds = diagonal_gain_bounds(2, 1, (0.0, 0.0), (4.0, 5.0), (0.0, 0.0), coords=[0])
        with pytest.raises(InfeasibleGainError, match="inside the gain box"):
            self.first_window_gains(monkeypatch, bounds)

    @pytest.mark.parametrize("bounds, r", [
        (diagonal_gain_bounds(2, 1, (0.0, 5.0), (0.0, 5.0), (0.0, 5.0), coords=[1]), [[0.01]]),
        (diagonal_gain_bounds(2, 2, (0.0, 5.0), (0.0, 5.0), (0.0, 5.0), [0, 1]),
         np.diag([0.01, 0.02])),
        (GainBounds(msd_bounds().lower + [[0, 0.5, 0, 0, 0, 0]],
                    msd_bounds().upper + [[0, 0.5, 0, 0, 0, 0]]), [[0.01]]),
    ], ids=["velocity_channel", "two_inputs", "pinned_velocity_gain"])
    def test_barrier_rejects_bounds_it_does_not_read(self, monkeypatch, bounds, r):
        # on velocity_channel g reads three entries pinned to 0, so it is D K = 0.5 at
        # every gain the box allows; the segment refuses before its first window. The model
        # has an input per row of the box, so the box's shape passes and the pins refuse
        forbid(monkeypatch, gainopt, "window_cost_and_grad")
        weights = CostWeights(q=np.diag([1000.0, 1.0]), r=r, mu=1.0)
        e0 = np.array([0.4, 0.0, 0.1, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="pin every other gain to 0"):
            segment(msd_inputs(len(r)), np.zeros(2), e0, np.full((4, 2), 0.3),
                    weights, AdamConfig(), bounds, regularizer_kind="barrier",
                    plant=MSD, max_iters=2, tol=0.0)

    def test_unstable_warm_start_gets_the_ki_cut(self, monkeypatch):
        # g = 0.5 - K^i: the cut keeps K^p and K^d and lowers K^i until g = BARRIER_G_MIN
        start = np.array([[0.0, 0.0, 5.0, 0.0, 0.0, 0.0]])
        assert msd_stability_value(MSD, start, 2) < 0
        first = self.first_window_gains(monkeypatch, msd_bounds(), (0.0, 5.0, 0.0))
        np.testing.assert_array_equal(first[0, [0, 1, 3, 4, 5]], 0.0)
        assert first[0, 2] == pytest.approx(0.499999, abs=1e-15)
        assert msd_stability_value(MSD, first, 2) == pytest.approx(gainopt.BARRIER_G_MIN,
                                                                   abs=1e-15)

    def test_unrestorable_warm_start_raises_before_a_window(self, monkeypatch):
        # K^p = -1 cancels the stiffness, so g = -K^i, which no K^i in [0, 5] makes
        # positive; the box centre would be stable, but the start is not moved there
        forbid(monkeypatch, gainopt, "window_cost_and_grad")
        bounds = diagonal_gain_bounds(2, 1, (-1.0, 5.0), (0.0, 5.0), (0.0, 5.0), coords=[0])
        assert msd_stability_value(MSD, bounds.center(), 2) > 0
        with pytest.raises(InfeasibleGainError, match="inside the gain box"):
            self.first_window_gains(monkeypatch, bounds, (-1.0, 1.0, 0.0))

    @pytest.mark.parametrize("kind, plant", [("barier", None), ("norm", MSD), ("barrier", None)],
                             ids=["unknown_kind", "plant_under_norm", "barrier_without_plant"])
    def test_kind_and_plant_checked_before_a_window(self, monkeypatch, kind, plant):
        # an unknown kind used to fail only after the first window, and a plant passed
        # with "norm" was ignored
        calls = calls_to(monkeypatch, gainopt, "window_cost_and_grad")
        e0 = np.array([0.4, 0.0, 0.1, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="regularizer_kind must be 'barrier' with a plant"):
            segment(LinearSurrogate(), np.zeros(2), e0, np.full((4, 2), 0.3), WEIGHTS,
                    AdamConfig(), msd_bounds(), regularizer_kind=kind, plant=plant,
                    max_iters=2, tol=0.0)
        assert calls == []

    def test_barely_stable_warm_start_is_cut_to_g_min(self, monkeypatch):
        start = np.array([[0.0, 0.0, 0.4999995, 0.0, 0.0, 0.0]])
        assert 0.0 < msd_stability_value(MSD, start, 2) < gainopt.BARRIER_G_MIN
        first = self.first_window_gains(monkeypatch, msd_bounds(), (0.0, 0.4999995, 0.0))
        np.testing.assert_array_equal(first[0, [0, 1, 3, 4, 5]], 0.0)
        assert first[0, 2] == pytest.approx(0.499999, abs=1e-15)
        assert msd_stability_value(MSD, first, 2) >= gainopt.BARRIER_G_MIN / 2

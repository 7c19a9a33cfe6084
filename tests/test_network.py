"""Derivative and serialization checks for the feedforward network."""

import dataclasses
import warnings
from functools import partial

import numpy as np
import pytest

from pinnpid.network import FeedforwardNet, InputScaling, NetworkSpec
from pinnpid.model import PinnModel, load_model, save_model
from tests import reference_network
from tests.support import FIXTURE, FIXTURE_MODEL, central_fd


def make_net(widths, n_state, n_input, t_hi=0.25):
    lo = np.concatenate([[0.0], -np.ones(n_state + n_input)])
    hi = np.concatenate([[t_hi], np.ones(n_state + n_input)])
    return FeedforwardNet(NetworkSpec(tuple(widths)), InputScaling(lo, hi), n_state, n_input)


def random_net(rng, max_hidden_layers=3, max_units=16):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    hidden = [int(rng.integers(2, max_units + 1)) for _ in range(int(rng.integers(1, max_hidden_layers + 1)))]
    net = make_net([1 + n + m] + hidden + [n], n, m)
    params = net.init_params(int(rng.integers(0, 2**31)))
    params += 0.1 * rng.standard_normal(params.shape)  # nonzero biases too
    t = float(rng.uniform(0.0, 0.25))
    x = rng.uniform(-0.8, 0.8, size=n)
    u = rng.uniform(-0.8, 0.8, size=m)
    return net, params, t, x, u


def hand_forward(net, params, t, x, u):
    """Independent dense-algebra oracle: plain loops over unpacked layers."""
    z = np.concatenate([[t], x, u])
    z = 2.0 * (z - net.scaling.lower) / (net.scaling.upper - net.scaling.lower) - 1.0
    layers = net.unpack(params)
    for i, (w, b) in enumerate(layers):
        a = w @ z + b
        z = np.tanh(a) if i < len(layers) - 1 else a
    return z


def forward1(net, params, t, x, u):
    """phi-hat(t, x, u) for one sample, through the batched pass."""
    return net.forward_raw(net.unpack(params), net.stack_rows([t], x, u))[0][0]


def time_derivative1(net, params, t, x, u):
    return net.forward_raw(net.unpack(params), net.stack_rows([t], x, u),
                           net.time_tangent_rows(1))[1][0]


def param_grad(net, params, rows, cot, cot_t=None):
    """Parameter gradient of sum(cot * phi) (+ sum(cot_t * d phi/dt) with cot_t)."""
    tangents = None if cot_t is None else net.time_tangent_rows(rows.shape[0])
    layers = net.unpack(params)
    _, _, tape = net.forward_raw(layers, rows, tangents)
    grads, _ = net.backward_raw(layers, tape, cot, cot_t)
    return grads


def input_grad(net, params, t, x, u, cot):
    """Pullback of cot to (x, u) of one sample, the way the gain optimizer takes it."""
    model = PinnModel(net=net, params=params, dt=0.2, eps=0.05)
    _, tape = model.predict_with_tape([t], x, u)
    return model.predict_vjp(tape, np.asarray(cot, dtype=float)[None, :])


def random_batch(rng, rows=11, net=None, params=None):
    """A random net (unless ``net`` and ``params`` are given), raw rows inside its
    scaling box and value cotangents."""
    if net is None:
        net, params, _, _, _ = random_net(rng)
    t = rng.uniform(0.0, 0.25, rows)
    x = rng.uniform(-0.8, 0.8, (rows, net.n_state))
    u = rng.uniform(-0.8, 0.8, (rows, net.n_input))
    cot = rng.standard_normal((rows, net.spec.output_dim))
    return net, params, net.stack_rows(t, x, u), cot


class TestSpec:
    def test_param_count(self):
        net = make_net((4, 32, 32, 32, 2), 2, 1)
        assert net.n_params == 4 * 32 + 32 + 2 * (32 * 32 + 32) + 32 * 2 + 2

    def test_rejects_no_hidden_layer(self):
        with pytest.raises(ValueError):
            NetworkSpec((4, 2))

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            NetworkSpec((4, 0, 2))

    @pytest.mark.parametrize("lo, hi, match", [
        ([0.0, 1.0], [1.0, 1.0], "lower < upper"),
        ([0.0, -1.0], [1.0, -2.0], "lower < upper"),
        ([0.0, -1.0], [np.inf, 1.0], "finite"),  # slope 0: every forward pass reads NaN
        ([0.0, -np.inf], [1.0, 1.0], "finite"),
    ], ids=["equal", "reversed", "inf_upper", "inf_lower"])
    def test_scaling_rejects_bounds(self, lo, hi, match):
        with pytest.raises(ValueError, match=match):
            InputScaling(lo, hi)

    def test_scaling_does_not_follow_writes_to_its_source(self):
        # the scaling used to alias its bounds, so this write moved lower but not slope
        lo, hi = np.array([0.0, -1.0]), np.array([1.0, 1.0])
        scaling = InputScaling(lo, hi)
        lo[1] = -3.0
        assert np.array_equal(scaling.lower, [0.0, -1.0])
        assert np.array_equal(scaling.encode(np.array([0.5, 0.0]), None), [0.0, 0.0])

    @pytest.mark.parametrize("name", ["lower", "upper", "slope"])
    def test_scaling_arrays_are_read_only(self, name):
        # a write to lower used to leave slope as it was, so encode mapped no box at all
        scaling = InputScaling([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            getattr(scaling, name)[1] = -3.0
        assert np.array_equal(scaling.slope, [2.0, 2.0])

    @pytest.mark.parametrize("widths, n_scaled, match", [
        ((5, 8, 2), 5, "input width"),
        ((4, 8, 2), 3, "scaling dimension"),
        ((4, 8, 3), 4, "output width"),  # three outputs for a two-state model
    ], ids=["input", "scaling", "output"])
    def test_net_rejects_widths(self, widths, n_scaled, match):
        scaling = InputScaling(np.zeros(n_scaled), np.ones(n_scaled))
        with pytest.raises(ValueError, match=match):
            FeedforwardNet(NetworkSpec(widths), scaling, 2, 1)

    @pytest.mark.parametrize("dt, eps, match", [
        (-0.1, 0.35, "finite and positive"),
        (0.3, -0.05, "finite and positive"),
        (0.0, 0.25, "finite and positive"),
        (np.nan, 0.25, "finite and positive"),
        (0.2, np.inf, "finite and positive"),
        (0.2, 0.1, "trained time horizon"),
    ], ids=["negative_dt", "negative_eps", "zero_dt", "nan_dt", "inf_eps", "wrong_sum"])
    def test_model_rejects_horizon(self, dt, eps, match):
        # the first three summed to the trained 0.25 s and used to construct
        net = make_net((4, 8, 2), 2, 1)
        with pytest.raises(ValueError, match=match):
            PinnModel(net=net, params=net.init_params(0), dt=dt, eps=eps)

    @pytest.mark.parametrize("t_lo", [0.1, -0.1, 1e-300], ids=["late", "early", "tiny"])
    def test_model_rejects_time_scaling_that_does_not_start_at_0(self, t_lo):
        # t_lo = 0.1 used to be accepted, and tau = 0 encoded to -2.33, outside [-1, 1]
        lo = np.array([t_lo, -1.0, -1.0, -1.0])
        hi = np.array([0.25, 1.0, 1.0, 1.0])
        net = FeedforwardNet(NetworkSpec((4, 8, 2)), InputScaling(lo, hi), 2, 1)
        with pytest.raises(ValueError, match="time scaling must start at 0"):
            PinnModel(net=net, params=net.init_params(0), dt=0.2, eps=0.05)

    def test_model_horizon_check_is_np_isclose(self):
        # dt + eps against the trained horizon t_hi: gaps of 0 and 1e-9, and the
        # bound 1e-8 + 1e-5 t_hi on either side, each give or take an ulp or two
        dt, eps = 0.2, 0.05
        horizon = dt + eps
        edges = [horizon, horizon + 1e-9, horizon - 1e-9,
                 (horizon + 1e-8) / (1 - 1e-5), (horizon - 1e-8) / (1 + 1e-5)]
        t_his = [t + k * np.spacing(t) for t in edges for k in (-2, -1, 0, 1, 2)]
        outcomes = []
        for t_hi in t_his:
            net = make_net((4, 8, 2), 2, 1, t_hi=t_hi)
            try:
                PinnModel(net=net, params=net.init_params(0), dt=dt, eps=eps)
                accepted = True
            except ValueError as exc:
                assert "trained time horizon" in str(exc)
                accepted = False
            outcomes.append(accepted)
            assert accepted == bool(np.isclose(horizon, t_hi)), t_hi
        assert all(outcomes[:15])
        for side in (outcomes[15:20], outcomes[20:]):  # each bound is crossed
            assert any(side) and not all(side)


class TestForward:
    def test_zero_params_give_zero_output(self):
        net = make_net([4, 8, 2], 2, 1)
        rows = net.stack_rows([0.1, 0.2], [0.3, -0.2], [0.5])
        out, _, _ = net.forward_raw(net.unpack(np.zeros(net.n_params)), rows)
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_odd_symmetry_with_zero_biases(self):
        # symmetric scaling box around 0 keeps the affine input map odd
        net = make_net([4, 8, 8, 2], 2, 1, t_hi=0.25)
        lo = np.array([-0.25, -1.0, -1.0, -1.0])
        hi = np.array([0.25, 1.0, 1.0, 1.0])
        net = FeedforwardNet(net.spec, InputScaling(lo, hi), 2, 1)
        rng = np.random.default_rng(7)
        params = net.init_params(3)  # glorot leaves biases at zero
        t, x, u = 0.1, rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.5, 0.5, 1)
        plus = forward1(net, params, t, x, u)
        minus = forward1(net, params, -t, -x, -u)
        np.testing.assert_allclose(plus, -minus, atol=1e-14)

    def test_matches_hand_rolled_oracle(self):
        rng = np.random.default_rng(11)
        net = make_net([4, 2, 2, 1], 1, 2)  # the one output is the one state
        params = rng.standard_normal(net.n_params)
        t, x, u = 0.07, rng.uniform(-0.9, 0.9, 1), rng.uniform(-0.9, 0.9, 2)
        np.testing.assert_allclose(
            forward1(net, params, t, x, u), hand_forward(net, params, t, x, u), atol=1e-12
        )

    def test_forward_is_pure(self):
        net, params, t, x, u = random_net(np.random.default_rng(5))
        a = forward1(net, params, t, x, u)
        b = forward1(net, params, t, x, u)
        assert np.array_equal(a, b)

    def test_rejects_nonfinite_input(self):
        net = make_net([4, 8, 2], 2, 1)
        with pytest.raises(ValueError, match="non-finite"):
            net.forward_raw(net.unpack(np.zeros(net.n_params)),
                            net.stack_rows([np.nan], [0.0, 0.0], [0.0]))

    def test_rejects_dimension_mismatch(self):
        net = make_net([4, 8, 2], 2, 1)
        with pytest.raises(ValueError):
            net.forward_raw(net.unpack(np.zeros(net.n_params)),
                            net.stack_rows([0.0], [0.0], [0.0]))


class TestGradParams:
    def test_zero_cotangent(self):
        net, params, t, x, u = random_net(np.random.default_rng(0))
        g = param_grad(net, params, net.stack_rows([t], x, u), np.zeros((1, net.spec.output_dim)))
        assert np.array_equal(g, np.zeros_like(params))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        net, params, t, x, u = random_net(rng)
        cot = rng.standard_normal(net.spec.output_dim)
        g = param_grad(net, params, net.stack_rows([t], x, u), cot[None, :])
        fd = central_fd(lambda p: float(cot @ forward1(net, p, t, x, u)), params, 1e-5)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_batch_gradient_is_sum_of_samples(self):
        rng = np.random.default_rng(3)
        net, params, _, _, _ = random_net(rng)
        n, m = net.n_state, net.n_input
        T = rng.uniform(0, 0.25, size=3)
        X = rng.uniform(-0.5, 0.5, size=(3, n))
        U = rng.uniform(-0.5, 0.5, size=(3, m))
        C = rng.standard_normal((3, net.spec.output_dim))
        whole = param_grad(net, params, net.stack_rows(T, X, U), C)
        parts = sum(
            param_grad(net, params, net.stack_rows([T[i]], X[i], U[i]), C[i][None])
            for i in range(3)
        )
        np.testing.assert_allclose(whole, parts, rtol=1e-12, atol=1e-15)


class TestTimeDerivative:
    def test_zero_params(self):
        net = make_net([4, 8, 2], 2, 1)
        rate = time_derivative1(net, np.zeros(net.n_params), 0.1, [0.2, 0.1], [0.0])
        assert np.array_equal(rate, np.zeros(2))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        net, params, t, x, u = random_net(rng)
        rate = time_derivative1(net, params, t, x, u)
        h = 1e-6
        fd = (forward1(net, params, t + h, x, u) - forward1(net, params, t - h, x, u)) / (2 * h)
        np.testing.assert_allclose(rate, fd, rtol=1e-5, atol=1e-9)

    def test_identity_readout_of_time_gives_scaling_slope(self):
        # single hidden unit wired (almost) linearly: output = w_out * tanh(w_t * t_scaled)
        net = make_net([4, 1, 1], 1, 2, t_hi=0.5)
        params = np.zeros(net.n_params)
        layers = net.spec.param_slices()
        w1 = np.zeros((1, 4))
        w1[0, 0] = 1e-4  # stay in tanh's linear regime
        params[layers[0][0]] = w1.ravel()
        params[layers[1][0]] = np.array([1.0])
        rate = time_derivative1(net, params, 0.2, [0.0], [0.0, 0.0])
        slope = 2.0 / 0.5  # d t_scaled / d t
        np.testing.assert_allclose(rate, [1e-4 * slope], rtol=1e-6)

    def test_model_time_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        net, params, t, x, u = random_net(rng)
        model = PinnModel(net=net, params=params, dt=0.2, eps=0.05)
        rate = model.time_derivative(t, x, u)
        h = 1e-6
        ends = model.predict([t - h, t + h], x, u)
        assert rate.shape == (net.n_state,)
        np.testing.assert_allclose(rate, (ends[1] - ends[0]) / (2 * h), rtol=1e-5, atol=1e-9)


class TestGradInputs:
    """Input pullbacks as the gain optimizer takes them: ``PinnModel.predict_vjp``."""

    def test_zero_cotangent(self):
        net, params, t, x, u = random_net(np.random.default_rng(9))
        gx, gu = input_grad(net, params, t, x, u, np.zeros(net.spec.output_dim))
        assert np.array_equal(gx, np.zeros_like(x))
        assert np.array_equal(gu, np.zeros_like(u))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        net, params, t, x, u = random_net(rng)
        cot = rng.standard_normal(net.spec.output_dim)
        gx, gu = input_grad(net, params, t, x, u, cot)
        fd_x = central_fd(lambda v: float(cot @ forward1(net, params, t, v, u)), x, 1e-5)
        fd_u = central_fd(lambda v: float(cot @ forward1(net, params, t, x, v)), u, 1e-5)
        np.testing.assert_allclose(gx, fd_x, rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(gu, fd_u, rtol=1e-5, atol=1e-9)

    def test_chain_rule_through_gain_law(self):
        # u = F e (1-D): d(cot . phi)/dF = (pullback to u) * e
        rng = np.random.default_rng(23)
        net, params, t, x, _ = random_net(rng)
        m = net.n_input
        if m != 1:
            net, params, t, x, _ = random_net(np.random.default_rng(2))
            m = net.n_input
        e = rng.standard_normal(3)
        F = rng.standard_normal(3)
        u = np.atleast_1d(F @ e)[:m]
        if m > 1:
            u = np.concatenate([u, np.zeros(m - 1)])
        cot = rng.standard_normal(net.spec.output_dim)
        _, gu = input_grad(net, params, t, x, u, cot)
        gF = gu[0] * e
        fd = central_fd(lambda f: float(cot @ forward1(
            net, params, t, x, np.concatenate([[f @ e], np.zeros(m - 1)]))), F, 1e-5)
        np.testing.assert_allclose(gF, fd, rtol=1e-5, atol=1e-9)


class TestDualReverse:
    def test_grad_params_dual_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        net, params, t, x, u = random_net(rng)
        cv = rng.standard_normal(net.spec.output_dim)
        ct = rng.standard_normal(net.spec.output_dim)

        def scalar(p):
            val, rate, _ = net.forward_raw(net.unpack(p), net.stack_rows([t], x, u),
                                           net.time_tangent_rows(1))
            return float(cv @ val[0] + ct @ rate[0])

        g = param_grad(net, params, net.stack_rows([t], x, u), cv[None], ct[None])
        fd = central_fd(scalar, params, 1e-5)
        np.testing.assert_allclose(g, fd, rtol=2e-5, atol=1e-7)


class TestNonFiniteRows:
    """A NaN or infinite entry in any row is rejected where the rows are stacked."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("block", ["t", "x", "u"])
    @pytest.mark.parametrize("call", ["predict", "predict_with_tape", "time_derivative"])
    def test_model_entry_points_raise(self, call, block, bad):
        rng = np.random.default_rng(83)
        net, params, _, _, _ = random_net(rng)
        model = PinnModel(net=net, params=params, dt=0.2, eps=0.05)
        rows = 1 if call == "time_derivative" else 3
        args = dict(t=rng.uniform(0.0, 0.25, rows),
                    x=rng.uniform(-0.8, 0.8, (rows, net.n_state)),
                    u=rng.uniform(-0.8, 0.8, (rows, net.n_input)))
        args[block][rows - 1, ...] = bad  # the last row only
        with pytest.raises(ValueError, match="non-finite network input"):
            if call == "time_derivative":
                model.time_derivative(args["t"][0], args["x"][0], args["u"][0])
            else:
                getattr(model, call)(args["t"], args["x"], args["u"])


class TestInputCotangentOnly:
    """backward_raw(want_grads=False) must return the full pass's input cotangent."""

    def test_value_tape(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            net, params, rows, cot = random_batch(rng)
            layers = net.unpack(params)
            _, _, tape = net.forward_raw(layers, rows)
            grads, full = net.backward_raw(layers, tape, cot)
            none, fast = net.backward_raw(layers, tape, cot, want_grads=False)
            assert none is None and grads.shape == params.shape
            assert np.array_equal(fast, full)

    def test_dual_tape(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            net, params, rows, cot = random_batch(rng)
            cot_t = rng.standard_normal(cot.shape)
            layers = net.unpack(params)
            _, _, tape = net.forward_raw(layers, rows, net.time_tangent_rows(rows.shape[0]))
            _, full = net.backward_raw(layers, tape, cot, cot_t)
            none, fast = net.backward_raw(layers, tape, cot, cot_t, want_grads=False)
            assert none is None
            assert np.array_equal(fast, full)


class TestUnpack:
    """``unpack`` is pure: views into the vector it is given, built afresh on each call."""

    def test_in_place_write_changes_next_output(self):
        net, params, t, x, u = random_net(np.random.default_rng(51))
        layers = net.unpack(params)
        rows = net.stack_rows([t], x, u)
        before = net.forward_raw(layers, rows)[0][0]
        w_sl, b_sl, _ = net.spec.param_slices()[-1]
        params[b_sl] += 1.0
        after = net.forward_raw(layers, rows)[0][0]
        np.testing.assert_allclose(after, before + 1.0, rtol=0, atol=1e-12)
        assert np.array_equal(after, forward1(net, params.copy(), t, x, u))

    def test_new_vector_gets_new_views(self):
        net, params, _, _, _ = random_net(np.random.default_rng(53))
        other = params + 1.0
        first = net.unpack(params)
        second = net.unpack(other)
        for (w1, b1), (w2, b2) in zip(first, second):
            assert np.shares_memory(w1, params) and not np.shares_memory(w2, params)
            assert np.shares_memory(b2, other) and np.array_equal(b2, b1 + 1.0)

    def test_same_vector_twice_gives_equal_new_views_and_keeps_nothing(self):
        net, params, _, _, _ = random_net(np.random.default_rng(59))
        attributes = dict(vars(net))
        first = net.unpack(params)
        second = net.unpack(params)
        assert first is not second and isinstance(first, tuple)
        for (w1, b1), (w2, b2) in zip(first, second):
            assert w1 is not w2 and np.array_equal(w1, w2) and np.array_equal(b1, b2)
            assert np.shares_memory(w2, params) and np.shares_memory(b2, params)
        assert vars(net).keys() == attributes.keys()
        assert all(vars(net)[k] is v for k, v in attributes.items())

    def test_wrong_length_raises(self):
        net, params, t, x, u = random_net(np.random.default_rng(57))
        forward1(net, params, t, x, u)
        for bad in (params[:-1], np.append(params, 0.0), params.reshape(1, -1)):
            with pytest.raises(ValueError):
                net.unpack(bad)


class TestFrozenModel:
    def test_rejects_attribute_assignment(self):
        net, params, _, _, _ = random_net(np.random.default_rng(63))
        model = PinnModel(net=net, params=params, dt=0.2, eps=0.05)
        for name, value in (("params", params * 0.5), ("layers", ()), ("dt", 0.1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, value)
        assert np.array_equal(model.params, params) and model.dt == 0.2

    def test_does_not_follow_writes_to_its_source(self):
        # the model used to alias the caller's vector, so this write reached predict
        net, params, t, x, u = random_net(np.random.default_rng(64))
        model = PinnModel(net=net, params=params, dt=0.2, eps=0.05)
        before = model.predict([t], x, u)
        params[0] = np.nan
        assert np.isfinite(model.params).all()
        assert np.array_equal(model.predict([t], x, u), before)

    def test_params_and_layers_are_read_only(self):
        # the fixture's params used to be writeable, so a NaN written there reached predict
        (w, b), *_ = FIXTURE_MODEL.layers
        for arr in (FIXTURE_MODEL.params, w, b):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = np.nan
        assert np.isfinite(FIXTURE_MODEL.params).all()

    def test_net_rejects_attribute_assignment(self):
        # the widths used to be writeable: n then read 3 and predict failed on the shapes;
        # training's two lanes read one net at once
        net = FIXTURE_MODEL.net
        for name, value in (("n_state", 3), ("n_input", 2), ("n_params", 0),
                            ("scaling", None), ("spec", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(net, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del net.n_state
        assert (FIXTURE_MODEL.n, FIXTURE_MODEL.m) == (2, 1)
        assert FIXTURE_MODEL.predict([0.1], np.zeros(2), np.zeros(1)).shape == (1, 2)

    def test_layers_share_memory_with_params(self):
        net, params, t, x, u = random_net(np.random.default_rng(65))
        model = PinnModel(net=net, params=params, dt=0.2, eps=0.05)
        assert len(model.layers) == len(net.spec.layer_widths) - 1
        for (w, b), (w_sl, b_sl, shape) in zip(model.layers, net.spec.param_slices()):
            assert np.shares_memory(w, model.params) and np.shares_memory(b, model.params)
            assert np.array_equal(w, params[w_sl].reshape(shape))
            assert np.array_equal(b, params[b_sl])
        assert np.array_equal(model.predict([t], x, u)[0], forward1(net, params, t, x, u))

    def test_replace_runs_the_checks_and_rebuilds_layers(self):
        net, params, _, _, _ = random_net(np.random.default_rng(67))
        model = PinnModel(net=net, params=params, dt=0.2, eps=0.05)
        halved = dataclasses.replace(model, params=model.params * 0.5)
        assert np.shares_memory(halved.layers[0][0], halved.params)
        assert not np.shares_memory(halved.layers[0][0], model.params)
        bad = params.copy()
        bad[0] = np.nan
        with pytest.raises(ValueError, match="non-finite model parameters"):
            dataclasses.replace(model, params=bad)


def run_passes(forward, backward, net, weights, raw, cot, cot_t, dual, want_grads, buffers):
    """Forward then backward; every array produced, copied out of the buffers.

    ``weights`` is what the passes take first: ``net.unpack(params)`` for the
    network's own, the flat vector for the frozen ones."""
    tangents = net.time_tangent_rows(raw.shape[0]) if dual else None
    values, rates, tape = forward(weights, raw, tangents, buffers=buffers)
    grads, cz = backward(weights, tape, cot, cot_t if dual else None, want_grads, buffers=buffers)
    out = [values, rates, cz, grads] + [a for part in tape for a in part]
    return [None if a is None else a.copy() for a in out]


class TestBufferedPasses:
    """A pass with ``buffers`` must return what the unbuffered pass returns, bit for bit."""

    def passes(self, net, params, rows, cot, dual, want_grads, buffers=None):
        return run_passes(net.forward_raw, net.backward_raw, net, net.unpack(params), rows, cot,
                          0.5 * cot[:, ::-1], dual, want_grads, buffers)

    def assert_same(self, got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b)

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("want_grads", [True, False])
    def test_matches_unbuffered(self, dual, want_grads):
        rng = np.random.default_rng(61)
        for _ in range(5):
            net, params, rows, cot = random_batch(rng)
            buffers = {}
            got = self.passes(net, params, rows, cot, dual, want_grads, buffers)
            self.assert_same(got, self.passes(net, params, rows, cot, dual, want_grads))
            assert buffers

    def test_second_call_on_other_rows_is_not_stale(self):
        rng = np.random.default_rng(67)
        net, params, rows_a, cot_a = random_batch(rng)
        _, _, rows_b, cot_b = random_batch(rng, net=net, params=params)
        buffers = {}
        first, _, _ = net.forward_raw(net.unpack(params), rows_a, buffers=buffers)
        self.passes(net, params, rows_a, cot_a, True, True, buffers)
        got = self.passes(net, params, rows_b, cot_b, True, True, buffers)
        self.assert_same(got, self.passes(net, params, rows_b, cot_b, True, True))
        second, _, _ = net.forward_raw(net.unpack(params), rows_b, buffers=buffers)
        assert second is first  # the aliasing rule: a buffered result is overwritten

    def test_changed_row_count_reallocates(self):
        rng = np.random.default_rng(71)
        net, params, rows, cot = random_batch(rng, rows=11)
        buffers = {}
        self.passes(net, params, rows, cot, True, True, buffers)
        _, _, rows7, cot7 = random_batch(rng, rows=7, net=net, params=params)
        got = self.passes(net, params, rows7, cot7, True, True, buffers)
        self.assert_same(got, self.passes(net, params, rows7, cot7, True, True))
        assert all(a.shape[0] == 7 for a in buffers.values())


def wide_batch(widths, rows, seed=97):
    """A net of the given widths, perturbed parameters, raw rows and both cotangents."""
    n = widths[-1]
    m = widths[0] - 1 - n
    net = make_net(widths, n, m)
    rng = np.random.default_rng(seed)
    params = net.init_params(seed) + 0.1 * rng.standard_normal(net.n_params)
    raw = net.stack_rows(rng.uniform(0.0, 0.25, rows), rng.uniform(-1.0, 1.0, (rows, n)),
                         rng.uniform(-1.0, 1.0, (rows, m)))
    return net, params, raw, rng.standard_normal((rows, n)), rng.standard_normal((rows, n))


class TestPassesMatchFrozenReference:
    """The in-place passes against ``tests/reference_network.py``, bit for bit.

    A row's value can change in its last bits with the number of rows in the
    call, so each comparison is between calls on the same rows.
    """

    @pytest.mark.parametrize("rows", [11, 1000, 4000, 8000])
    @pytest.mark.parametrize("widths", [(4, 32, 32, 2), (7, 32, 32, 4), (4, 16, 32, 8, 2)],
                             ids=lambda w: "-".join(map(str, w)))
    def test_value_and_dual_buffered_and_not(self, widths, rows):
        net, params, raw, cot, cot_t = wide_batch(widths, rows)
        ref_forward = partial(reference_network.forward_raw, net)
        ref_backward = partial(reference_network.backward_raw, net)
        layers = net.unpack(params)
        for dual in (False, True):
            for want_grads in (True, False):
                args = (raw, cot, cot_t, dual, want_grads)
                want = run_passes(ref_forward, ref_backward, net, params, *args, None)
                buffers = {}
                # the second buffered call runs on the arrays the first one left
                for bufs in (None, buffers, buffers):
                    got = run_passes(net.forward_raw, net.backward_raw, net, layers, *args, bufs)
                    assert len(got) == len(want)
                    for a, b in zip(got, want):
                        assert (a is None and b is None) or np.array_equal(a, b)


class TestPassesWriteOnlyTheirOwnArrays:
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("dual", [False, True])
    def test_reverse_leaves_cotangents_and_tape_unchanged(self, dual, buffered):
        net, params, raw, cot, cot_t = wide_batch((4, 16, 32, 8, 2), 50)
        buffers = {} if buffered else None
        tangents = net.time_tangent_rows(raw.shape[0]) if dual else None
        inputs = [raw, cot, cot_t] + ([tangents] if dual else [])
        inputs_before = [a.copy() for a in inputs]
        layers = net.unpack(params)
        _, _, tape = net.forward_raw(layers, raw, tangents, buffers=buffers)
        kept = [a for part in tape for a in part if a is not None]
        kept_before = [a.copy() for a in kept]
        net.backward_raw(layers, tape, cot, cot_t if dual else None, buffers=buffers)
        for a, b in zip(inputs + kept, inputs_before + kept_before):
            assert np.array_equal(a, b)

    def test_buffered_dual_passes_write_no_attribute_of_the_net(self):
        net, params, raw, cot, cot_t = wide_batch((4, 16, 32, 8, 2), 50)
        attributes = dict(vars(net))
        buffers = {}
        for _ in range(2):
            run_passes(net.forward_raw, net.backward_raw, net, net.unpack(params), raw, cot,
                       cot_t, True, True, buffers)
        assert vars(net).keys() == attributes.keys()
        assert all(vars(net)[k] is v for k, v in attributes.items())

    @pytest.mark.parametrize("dual, hidden_arrays", [(False, 6), (True, 13)])
    @pytest.mark.parametrize("widths", [(4, 32, 32, 2), (7, 32, 32, 4)])
    def test_buffered_footprint(self, widths, dual, hidden_arrays):
        # the counts stated in the network module docstring
        net, params, raw, cot, cot_t = wide_batch(widths, 40)
        buffers = {}
        run_passes(net.forward_raw, net.backward_raw, net, net.unpack(params), raw, cot, cot_t,
                   dual, True, buffers)
        assert all(a.shape[0] == 40 for a in buffers.values())
        widths_kept = [a.shape[1] for a in buffers.values()]
        assert widths_kept.count(32) == hidden_arrays
        assert widths_kept.count(widths[0]) == (3 if dual else 2)
        assert widths_kept.count(widths[-1]) == (2 if dual else 1)
        assert len(widths_kept) == hidden_arrays + (5 if dual else 3)


class TestStackRows:
    def test_shared_rows_match_per_row_call(self):
        rng = np.random.default_rng(47)
        net, _, _, x, u = random_net(rng)
        t = rng.uniform(0.0, 0.25, 7)
        shared = net.stack_rows(t, x, u)
        per_row = net.stack_rows(t, np.tile(x, (7, 1)), np.tile(u, (7, 1)))
        assert np.array_equal(shared, per_row)
        assert np.array_equal(shared, np.column_stack([t, np.tile(x, (7, 1)), np.tile(u, (7, 1))]))

    def test_rejects_mismatched_shapes(self):
        net = make_net([4, 8, 2], 2, 1)
        t = np.zeros(3)
        for x, u in (
            (np.zeros(3), np.zeros(1)),  # state width
            (np.zeros(2), np.zeros(2)),  # input width
            (np.zeros((2, 2)), np.zeros(1)),  # state batch
            (np.zeros(2), np.zeros((4, 1))),  # input batch
            (np.zeros((3, 3)), np.zeros((3, 1))),  # per-row state width
        ):
            with pytest.raises(ValueError):
                net.stack_rows(t, x, u)
        with pytest.raises(ValueError):
            net.stack_rows(np.zeros((3, 1)), np.zeros(2), np.zeros(1))


class TestDerivativeSweep:
    def test_many_random_networks(self):
        # compact version of the acceptance sweep: all three derivative kinds
        rng = np.random.default_rng(1234)
        for _ in range(20):
            net, params, t, x, u = random_net(rng)
            cot = rng.standard_normal(net.spec.output_dim)
            g = param_grad(net, params, net.stack_rows([t], x, u), cot[None])
            fd = central_fd(lambda p: float(cot @ forward1(net, p, t, x, u)), params, 1e-5)
            scale = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(g - fd) / scale) < 1e-5


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        net, params, _, _, _ = random_net(rng)
        model = PinnModel(net=net, params=params, dt=0.2, eps=0.05)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.net.spec == net.spec
        assert np.array_equal(loaded.params, params)
        assert loaded.dt == 0.2 and loaded.eps == 0.05
        np.testing.assert_array_equal(loaded.net.scaling.lower, net.scaling.lower)
        np.testing.assert_array_equal(loaded.net.scaling.upper, net.scaling.upper)
        x = rng.uniform(-0.5, 0.5, net.n_state)
        u = rng.uniform(-0.5, 0.5, net.n_input)
        assert np.array_equal(
            loaded.predict(np.array([0.1]), x, u), model.predict(np.array([0.1]), x, u)
        )

    def test_round_trip_is_bit_exact_on_random_bit_patterns(self, tmp_path):
        # ~10^4 finite doubles from random bit patterns, with the extremes added:
        # +-0, the smallest and largest subnormals, the smallest normal, the largest
        net = make_net((4, 97, 97, 2), 2, 1)
        rng = np.random.default_rng(7)
        params = rng.integers(0, 2**64, net.n_params, dtype=np.uint64).view(np.float64)
        tiny = np.finfo(float).tiny
        extremes = [0.0, 5e-324, tiny - 5e-324, tiny, np.finfo(float).max]
        params[: 2 * len(extremes)] = extremes + [-v for v in extremes]
        params[~np.isfinite(params)] = 1.0
        assert net.n_params > 10_000 and np.any(params == 0) and np.signbit(params[5])
        model = PinnModel(net=net, params=params, dt=0.2, eps=0.05)
        path = tmp_path / "bits.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.params.view(np.uint64), params.view(np.uint64))

    def test_arm_shaped_round_trip(self, tmp_path):
        # n = 4, m = 2: the t, x and u blocks of the scaling line all differ in width, and
        # every bound differs, so a block read from the wrong place shows
        lo = np.array([0.0, -3.1, -3.2, -2.5, -2.6, -0.5, -0.7])
        hi = np.array([0.25, 3.3, 3.4, 2.7, 2.8, 0.6, 0.8])
        net = FeedforwardNet(NetworkSpec((7, 8, 4)), InputScaling(lo, hi), 4, 2)
        model = PinnModel(net=net, params=net.init_params(3), dt=0.2, eps=0.05)
        path = tmp_path / "arm.txt"
        save_model(model, path)
        line = [float(v) for v in path.read_text().splitlines()[2].split()]
        assert line == [0.0, 0.25, -3.1, -3.2, -2.5, -2.6, 3.3, 3.4, 2.7, 2.8,
                        -0.5, -0.7, 0.6, 0.8]
        loaded = load_model(path)
        assert np.array_equal(loaded.net.scaling.lower, lo)
        assert np.array_equal(loaded.net.scaling.upper, hi)
        assert (loaded.n, loaded.m) == (4, 2)
        assert np.array_equal(loaded.params, model.params)

    def test_fixture_round_trips_byte_for_byte(self, tmp_path):
        path = tmp_path / "again.txt"
        save_model(load_model(FIXTURE), path)
        assert path.read_bytes() == FIXTURE.read_bytes()

    @pytest.mark.parametrize("line, match", [
        ("0.1 0.2", "could not convert string to float"),
        ("0.1x", "could not convert string to float"),
        ("1e999", "non-finite model parameters"),
    ], ids=["two_numbers", "non_numeric", "overflow"])
    def test_rejects_malformed_parameter_line(self, tmp_path, line, match):
        lines = FIXTURE.read_text().splitlines(keepends=True)
        lines[10] = line + "\n"
        path = tmp_path / "bad_param.txt"
        path.write_text("".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                load_model(path)

    @pytest.mark.parametrize("index, line", [
        (10, "0.1_5"),
        (10, "\u0661.5"),
        (1, "4 3_2 32 2"),
    ], ids=["separator_in_parameter", "arabic_indic_digit", "separator_in_widths"])
    def test_rejects_tokens_save_model_never_writes(self, tmp_path, index, line):
        # float() and int() read these as 0.15, 1.5 and 32
        lines = FIXTURE.read_text().splitlines(keepends=True)
        assert lines[1] == "4 32 32 2\n"
        lines[index] = line + "\n"
        path = tmp_path / "bad_token.txt"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="non-ASCII character or '_'"):
            load_model(path)

    def test_loads_blank_lines_whitespace_and_crlf(self, tmp_path):
        lines = FIXTURE.read_text().splitlines()
        padded = [f" \t{line}  " for line in lines]
        for k in (1, 4, 10, len(padded)):  # blank lines inside, between the parts, at the end
            padded.insert(k, "   ")
        path = tmp_path / "crlf.txt"
        path.write_bytes("\r\n".join(padded).encode())
        loaded, fixture = load_model(path), load_model(FIXTURE)
        assert np.array_equal(loaded.params.view(np.uint64), fixture.params.view(np.uint64))
        assert (loaded.dt, loaded.eps, loaded.net.spec) == (fixture.dt, fixture.eps, fixture.net.spec)
        np.testing.assert_array_equal(loaded.net.scaling.lower, fixture.net.scaling.lower)
        np.testing.assert_array_equal(loaded.net.scaling.upper, fixture.net.scaling.upper)

    def test_rejects_non_finite_scaling(self, tmp_path):
        lines = FIXTURE.read_text().splitlines(keepends=True)
        bounds = lines[2].split()
        bounds[-1] = "inf"  # the input's upper bound
        lines[2] = " ".join(bounds) + "\n"
        path = tmp_path / "inf.txt"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="finite"):
            load_model(path)

    def test_rejects_time_scaling_that_does_not_start_at_0(self, tmp_path):
        lines = FIXTURE.read_text().splitlines(keepends=True)
        bounds = lines[2].split()
        assert float(bounds[0]) == 0.0
        bounds[0] = "0.1"  # t_lo, still below t_hi
        lines[2] = " ".join(bounds) + "\n"
        path = tmp_path / "t_lo.txt"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="time scaling must start at 0"):
            load_model(path)

    @pytest.mark.parametrize("horizon", ["-0.1 0.35", "0.3 -0.05", "0.0 0.25"],
                             ids=["negative_dt", "negative_eps", "zero_dt"])
    def test_rejects_non_positive_horizon(self, tmp_path, horizon):
        # each sums to the fixture's trained 0.25 s
        lines = FIXTURE.read_text().splitlines(keepends=True)
        assert lines[3] == "HORIZON 0.2 0.05\n"
        lines[3] = f"HORIZON {horizon}\n"
        path = tmp_path / "horizon.txt"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="dt and eps must be finite and positive"):
            load_model(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOTAMODEL\n")
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("k", range(6))
    def test_rejects_truncated_file(self, tmp_path, k):
        # the first k lines of a valid model file: header, widths, scaling, HORIZON, parameters
        path = tmp_path / "cut.txt"
        path.write_text("".join(FIXTURE.read_text().splitlines(keepends=True)[:k]))
        with pytest.raises(ValueError):
            load_model(path)

"""PID law and error-recursion checks against hand values and quadrature oracles."""

import numpy as np
import pytest

from pinnpid.network import FeedforwardNet, InputScaling, NetworkSpec
from pinnpid.model import PinnModel
from pinnpid.pid import (
    ErrorState,
    GainBounds,
    GainMatrix,
    control_input,
    diagonal_gain_bounds,
    error_init,
    error_update,
    quadrature_nodes,
)
from pinnpid.sampling import Box


def toy_model(seed=0, n=2, m=1, dt=0.2, eps=0.05):
    widths = (1 + n + m, 8, 8, n)
    lo = np.concatenate([[0.0], -2 * np.ones(n), -np.ones(m)])
    hi = np.concatenate([[dt + eps], 2 * np.ones(n), np.ones(m)])
    net = FeedforwardNet(NetworkSpec(widths), InputScaling(lo, hi), n, m)
    params = net.init_params(seed) if seed is not None else np.zeros(net.spec.param_count())
    return PinnModel(net=net, params=params, dt=dt, eps=eps)


class ReferenceModel:
    """Stand-in surrogate that reproduces the reference exactly."""

    def __init__(self, ref, m=1, dt=0.2):
        self.ref = np.asarray(ref, dtype=float)
        self.m = m
        self.dt = dt

    def predict(self, taus, x, u):
        return np.tile(self.ref, (len(np.atleast_1d(taus)), 1))

    def time_derivative(self, t, x, u):
        return np.zeros_like(self.ref)


class TestControlInput:
    def test_zero_errors(self):
        gains = GainMatrix.from_stacked(np.ones((1, 6)))
        e = ErrorState(np.zeros(2), np.zeros(2), np.zeros(2))
        assert np.array_equal(control_input(gains, e), np.zeros(1))

    def test_hand_dot_product_1d(self):
        gains = GainMatrix.from_stacked([[2.0, 0.5, 0.1]])
        e = ErrorState([0.3], [0.2], [-1.0])
        u = control_input(gains, e)
        assert u[0] == pytest.approx(0.6)

    def test_saturation(self):
        gains = GainMatrix.from_stacked([[1.7, 0.0, 0.0]])
        e = ErrorState([1.0], [0.0], [0.0])
        u = control_input(gains, e, Box([-1.0], [1.0]))
        assert u[0] == 1.0

    def test_linearity_before_saturation(self):
        rng = np.random.default_rng(8)
        gains = GainMatrix.from_stacked(np.hstack(rng.standard_normal((3, 2, 3))))
        e1 = ErrorState(*rng.standard_normal((3, 3)))
        e2 = ErrorState(*rng.standard_normal((3, 3)))
        a, b = 0.3, -1.2
        combo = ErrorState(
            a * e1.e_prop + b * e2.e_prop,
            a * e1.e_int + b * e2.e_int,
            a * e1.e_deri + b * e2.e_deri,
        )
        np.testing.assert_allclose(
            control_input(gains, combo),
            a * control_input(gains, e1) + b * control_input(gains, e2),
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        gains = GainMatrix.from_stacked(np.ones((1, 6)))
        with pytest.raises(ValueError):
            control_input(gains, ErrorState([0.1], [0.0], [0.0]))

    def test_rejects_box_of_another_width(self):
        # a 1-wide box used to clip both inputs of a 2-input F by its one bound
        gains = GainMatrix.from_stacked(np.ones((2, 6)))
        e = ErrorState([0.5, 0.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="input box has width 1, F has 2 rows"):
            control_input(gains, e, Box([-0.5], [0.5]))


class TestErrorInit:
    def test_all_zero(self):
        model = toy_model(seed=None)  # zero parameters
        e = error_init(model, np.zeros(2), np.zeros(2), np.zeros(2), 0.2)
        assert np.array_equal(e.stacked(), np.zeros(6))

    def test_reference_rate_term(self):
        model = toy_model(seed=None)
        e = error_init(model, np.zeros(2), np.array([0.3, 0.0]), np.zeros(2), 0.2)
        np.testing.assert_allclose(e.e_deri, [1.5, 0.0])
        np.testing.assert_allclose(e.e_prop, [0.3, 0.0])
        assert np.array_equal(e.e_int, np.zeros(2))

    def test_rate_term_matches_finite_differences(self):
        model = toy_model(seed=4)
        x0 = np.array([0.2, -0.1])
        e = error_init(model, x0, np.zeros(2), np.zeros(2), 0.2)
        h = 1e-6
        u0 = np.zeros(1)
        fd = (model.predict(np.array([h]), x0, u0)[0] - model.predict(np.array([0.0]), x0, u0)[0]) / h
        np.testing.assert_allclose(e.e_deri, -fd, rtol=1e-4, atol=1e-6)


class TestErrorUpdate:
    def test_exact_model_tracks_reference(self):
        ref = np.array([0.4, 0.0])
        model = ReferenceModel(ref)
        e0 = ErrorState(np.zeros(2), np.zeros(2), np.zeros(2))
        e1 = error_update(model, ref, ref, ref, np.zeros(1), e0, 0.2, x_meas_next=ref)
        assert np.allclose(e1.e_prop, 0.0)
        assert np.allclose(e1.e_int, 0.0)

    def test_constant_integrand_is_exact(self):
        # model predicts 0, reference constant c: increment must be exactly c*dt
        model = ReferenceModel(np.zeros(2))
        c = np.array([0.7, -0.2])
        e0 = ErrorState(np.zeros(2), np.zeros(2), np.zeros(2))
        e1 = error_update(model, c, c, np.zeros(2), np.zeros(1), e0, 0.2, n_quad=7,
                          x_meas_next=np.zeros(2))
        np.testing.assert_allclose(e1.e_int, c * 0.2, rtol=1e-14)

    def test_quadrature_refinement(self):
        model = toy_model(seed=9)
        model.params = model.params * 0.5  # curvature of a trained-scale surrogate
        x = np.array([0.4, -0.3])
        u = np.array([0.2])
        ref = np.array([0.1, 0.0])
        e0 = ErrorState(np.zeros(2), np.zeros(2), np.zeros(2))
        coarse = error_update(model, ref, ref, x, u, e0, 0.2, n_quad=10, x_meas_next=x)
        fine = error_update(model, ref, ref, x, u, e0, 0.2, n_quad=1000, x_meas_next=x)
        assert np.max(np.abs(coarse.e_int - fine.e_int)) < 1e-4 * 0.2

    def test_telescoping_derivative_identity(self):
        model = toy_model(seed=2)
        rng = np.random.default_rng(0)
        dt = 0.2
        e = ErrorState(rng.standard_normal(2), np.zeros(2), np.zeros(2))
        e0_prop = e.e_prop.copy()
        total = np.zeros(2)
        x = np.array([0.1, 0.2])
        for k in range(6):
            ref = rng.standard_normal(2) * 0.3
            e = error_update(model, ref, ref, x, np.array([0.1]), e, dt,
                             x_meas_next=rng.standard_normal(2) * 0.3)
            total += e.e_deri * dt
        np.testing.assert_allclose(total, e.e_prop - e0_prop, atol=1e-12)

    def test_measured_state_overrides_prediction(self):
        model = toy_model(seed=3)
        e0 = ErrorState(np.zeros(2), np.zeros(2), np.zeros(2))
        ref = np.array([0.2, 0.0])
        meas = np.array([0.15, 0.05])
        e1 = error_update(model, ref, ref, np.zeros(2), np.zeros(1), e0, 0.2,
                          x_meas_next=meas)
        np.testing.assert_allclose(e1.e_prop, ref - meas)

    @pytest.mark.parametrize("dt", [0.0, -0.2, np.nan])
    def test_rejects_nonpositive_dt(self, dt):
        # dt = 0 divided by zero in e_deri, dt < 0 flipped its sign, and NaN
        # passed `dt <= 0` into a NaN e_deri
        model = toy_model(seed=3)
        e0 = ErrorState([0.1, 0.0], np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="dt"):
            error_update(model, np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(1), e0, dt,
                         x_meas_next=np.zeros(2))
        with pytest.raises(ValueError, match="dt"):
            error_init(model, np.zeros(2), np.zeros(2), np.zeros(2), dt)


class TestQuadrature:
    def test_weights_sum_to_dt(self):
        w = quadrature_nodes(0.2, 10)[1]
        assert w.sum() == pytest.approx(0.2)
        assert w[0] == pytest.approx(0.01) and w[5] == pytest.approx(0.02)

    def test_second_order_convergence(self):
        # integrate sin over [0, dt]: error drops ~4x per panel doubling
        dt = 0.2
        exact = 1.0 - np.cos(dt)
        errs = []
        for n_quad in (4, 8, 16):
            taus, w = quadrature_nodes(dt, n_quad)
            errs.append(abs(w @ np.sin(taus) - exact))
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5

    def test_rejects_fewer_than_two_panels(self):
        with pytest.raises(ValueError, match="2 quadrature panels"):
            quadrature_nodes(0.2, 1)


class TestBounds:
    def test_diagonal_bounds_pin_off_structure(self):
        b = diagonal_gain_bounds(4, 2, (0.0, 3.0), (-3.0, 3.0), (0.0, 3.0))
        assert b.lower.shape == (2, 12)
        assert b.upper[0, 0] == 3.0 and b.lower[0, 0] == 0.0
        assert b.lower[0, 4] == -3.0  # integral block, coordinate 0
        assert b.upper[0, 1] == 0.0 and b.lower[0, 1] == 0.0  # cross-coupling pinned
        assert b.upper[1, 0] == 0.0  # channel 2 does not see coordinate 1

    @pytest.mark.parametrize("n_input, coords", [(1, [-1]), (2, [0]), (1, [2]), (1, [0, 1])])
    def test_diagonal_bounds_reject_bad_coords(self, n_input, coords):
        # [-1] would put each range into the previous block, [0] for two channels
        # would pin channel 2 to zero, and [2] would index past the state
        with pytest.raises(ValueError, match="coords"):
            diagonal_gain_bounds(2, n_input, (0.0, 3.0), (0.0, 2.0), (0.0, 1.0), coords=coords)

    @pytest.mark.parametrize("lo, hi, match", [
        ([[0.0, 2.0, 0.0]], [[1.0, 1.0, 1.0]], "lower <= upper"),
        ([[0.0, 0.0, 0.0]], [[1.0, 1.0]], "lower <= upper"),
        ([[0.0, np.nan, 0.0]], [[1.0, 1.0, 1.0]], "lower <= upper"),
        ([[0.0, 0.0, 0.0]], [[1.0, np.inf, 1.0]], "finite"),  # its centre would be infinite
        ([[0.0, -np.inf, 0.0]], [[1.0, 1.0, 1.0]], "finite"),
    ], ids=["reversed", "shapes", "nan", "inf_upper", "inf_lower"])
    def test_gain_bounds_reject(self, lo, hi, match):
        with pytest.raises(ValueError, match=match):
            GainBounds(lo, hi)


class TestGainMatrix:
    def test_rejects_width_not_a_multiple_of_3(self):
        with pytest.raises(ValueError, match="multiple of 3"):
            GainMatrix.from_stacked(np.ones((1, 4)))

    def test_stacked_is_read_only(self):
        f = GainMatrix.from_stacked([[1.0, 2.0, 3.0]]).stacked()
        with pytest.raises(ValueError, match="read-only"):
            f[0, 0] = 5.0

    def test_does_not_follow_writes_to_its_source(self):
        source = np.array([[1.0, 2.0, 3.0]])
        gains = GainMatrix.from_stacked(source)
        source[0, 0] = 5.0
        np.testing.assert_array_equal(gains.stacked(), [[1.0, 2.0, 3.0]])


class TestVectorShapes:
    """References, measurements and errors must match the state's shape (n,); none may
    broadcast."""

    @pytest.mark.parametrize("parts", [
        ([0.5, 0.0], [0.0], [0.0, 0.0]),
        ([0.5, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0]),
        ([[0.5], [0.0]], [[0.0], [0.0]], [[0.0], [0.0]]),
        (0.5, 0.0, 0.0),
    ], ids=["e_int_width_1", "e_deri_width_3", "columns", "scalars"])
    def test_error_state_rejects(self, parts):
        with pytest.raises(ValueError, match="shape"):
            ErrorState(*parts)

    def test_error_update_rejects_errors_of_another_width(self):
        # a 1-entry error state would broadcast into both entries of e_deri
        model = toy_model(seed=3)
        with pytest.raises(ValueError, match="errors"):
            error_update(model, np.array([0.2, 0.0]), np.array([0.2, 0.0]), np.zeros(2),
                         np.zeros(1), ErrorState([0.5], [0.0], [0.0]), 0.2,
                         x_meas_next=np.array([0.15, 0.05]))

    @pytest.mark.parametrize("arg", ["x_ref_0", "x_ref_init"])
    @pytest.mark.parametrize("bad", [[0.3], [[0.3], [0.0]]], ids=["width_1", "column"])
    def test_error_init_rejects(self, arg, bad):
        model = toy_model(seed=4)
        args = dict(x0=np.array([0.2, -0.1]), x_ref_0=np.zeros(2), x_ref_init=np.zeros(2))
        args[arg] = bad
        with pytest.raises(ValueError, match=arg):
            error_init(model, dt=0.2, **args)

    @pytest.mark.parametrize("arg", ["x_ref_k", "x_ref_next", "x_meas_next"])
    @pytest.mark.parametrize("bad", [[0.3], [[0.3], [0.0]]], ids=["width_1", "column"])
    def test_error_update_rejects(self, arg, bad):
        model = toy_model(seed=3)
        e0 = ErrorState(np.zeros(2), np.zeros(2), np.zeros(2))
        args = dict(x_ref_k=np.array([0.2, 0.0]), x_ref_next=np.array([0.2, 0.0]),
                    x_meas_next=np.array([0.15, 0.05]))
        args[arg] = bad
        with pytest.raises(ValueError, match=arg):
            error_update(model, x_k=np.zeros(2), u_k=np.zeros(1), errors=e0, dt=0.2, **args)

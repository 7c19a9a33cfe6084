"""PID law and error-recursion checks against hand values and quadrature oracles."""

import dataclasses

import numpy as np
import pytest

from pinnpid.gainopt import CostWeights, Window
from pinnpid.pid import (
    GainBounds,
    GainMatrix,
    control_input,
    diagonal_gain_bounds,
    error_init,
    error_update,
    quadrature_nodes,
)
from pinnpid.sampling import Box
from tests.support import Spy, toy_model, unbounded


class ReferenceModel:
    """Stand-in surrogate that reproduces the reference exactly."""

    def __init__(self, ref, m=1, dt=0.2):
        self.ref = np.asarray(ref, dtype=float)
        self.n = self.ref.shape[0]
        self.m = m
        self.dt = dt

    def predict(self, taus, x, u):
        return np.tile(self.ref, (len(np.atleast_1d(taus)), 1))

    def time_derivative(self, t, x, u):
        return np.zeros_like(self.ref)


class TestControlInput:
    def test_zero_errors(self):
        gains = GainMatrix.from_stacked(np.ones((1, 6)))
        assert np.array_equal(control_input(gains, np.zeros(6), unbounded()), np.zeros(1))

    def test_hand_dot_product_1d(self):
        gains = GainMatrix.from_stacked([[2.0, 0.5, 0.1]])
        u = control_input(gains, [0.3, 0.2, -1.0], unbounded())
        assert u[0] == pytest.approx(0.6)

    def test_saturation(self):
        gains = GainMatrix.from_stacked([[1.7, 0.0, 0.0]])
        u = control_input(gains, [1.0, 0.0, 0.0], Box([-1.0], [1.0]))
        assert u[0] == 1.0

    def test_linearity_before_saturation(self):
        rng = np.random.default_rng(8)
        gains = GainMatrix.from_stacked(np.hstack(rng.standard_normal((3, 2, 3))))
        e1, e2 = rng.standard_normal((2, 9))
        a, b = 0.3, -1.2
        box = unbounded(2)
        np.testing.assert_allclose(
            control_input(gains, a * e1 + b * e2, box),
            a * control_input(gains, e1, box) + b * control_input(gains, e2, box),
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        gains = GainMatrix.from_stacked(np.ones((1, 6)))
        with pytest.raises(ValueError, match=r"^errors has shape \(3,\), the model needs \(6,\)$"):
            control_input(gains, [0.1, 0.0, 0.0], Box([-1.0], [1.0]))

    def test_rejects_box_of_another_width(self):
        # a 1-wide box used to clip both inputs of a 2-input F by its one bound
        gains = GainMatrix.from_stacked(np.ones((2, 6)))
        e = np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError,
                           match=r"^input_bounds has shape \(1,\), the model needs \(2,\)$"):
            control_input(gains, e, Box([-0.5], [0.5]))


class TestErrorInit:
    def test_all_zero(self):
        model = toy_model(seed=None)  # zero parameters
        e = error_init(model, np.zeros(2), np.zeros(2), np.zeros(2), 0.2)
        assert np.array_equal(e, np.zeros(6))

    def test_reference_rate_term(self):
        model = toy_model(seed=None)
        e = error_init(model, np.zeros(2), np.array([0.3, 0.0]), np.zeros(2), 0.2)
        np.testing.assert_allclose(e[4:], [1.5, 0.0])
        np.testing.assert_allclose(e[:2], [0.3, 0.0])
        assert np.array_equal(e[2:4], np.zeros(2))

    def test_rate_term_matches_finite_differences(self):
        model = toy_model(seed=4)
        x0 = np.array([0.2, -0.1])
        e = error_init(model, x0, np.zeros(2), np.zeros(2), 0.2)
        h = 1e-6
        u0 = np.zeros(1)
        fd = (model.predict(np.array([h]), x0, u0)[0] - model.predict(np.array([0.0]), x0, u0)[0]) / h
        np.testing.assert_allclose(e[4:], -fd, rtol=1e-4, atol=1e-6)


class TestErrorUpdate:
    def test_exact_model_tracks_reference(self):
        ref = np.array([0.4, 0.0])
        model = ReferenceModel(ref)
        e1 = error_update(model, ref, ref, ref, np.zeros(1), np.zeros(6), 0.2, 10,
                          x_meas_next=ref)
        assert np.allclose(e1[:2], 0.0)
        assert np.allclose(e1[2:4], 0.0)

    def test_constant_integrand_is_exact(self):
        # model predicts 0, reference constant c: increment must be exactly c*dt
        model = ReferenceModel(np.zeros(2))
        c = np.array([0.7, -0.2])
        e1 = error_update(model, c, c, np.zeros(2), np.zeros(1), np.zeros(6), 0.2, n_quad=7,
                          x_meas_next=np.zeros(2))
        np.testing.assert_allclose(e1[2:4], c * 0.2, rtol=1e-14)

    def test_quadrature_refinement(self):
        model = toy_model(seed=9)
        # curvature of a trained-scale surrogate
        model = dataclasses.replace(model, params=model.params * 0.5)
        x = np.array([0.4, -0.3])
        u = np.array([0.2])
        ref = np.array([0.1, 0.0])
        e0 = np.zeros(6)
        coarse = error_update(model, ref, ref, x, u, e0, 0.2, n_quad=10, x_meas_next=x)
        fine = error_update(model, ref, ref, x, u, e0, 0.2, n_quad=1000, x_meas_next=x)
        assert np.max(np.abs(coarse[2:4] - fine[2:4])) < 1e-4 * 0.2

    def test_telescoping_derivative_identity(self):
        model = toy_model(seed=2)
        rng = np.random.default_rng(0)
        dt = 0.2
        e = np.concatenate([rng.standard_normal(2), np.zeros(4)])
        e0_prop = e[:2].copy()
        total = np.zeros(2)
        x = np.array([0.1, 0.2])
        for k in range(6):
            ref = rng.standard_normal(2) * 0.3
            e = error_update(model, ref, ref, x, np.array([0.1]), e, dt, 10,
                             x_meas_next=rng.standard_normal(2) * 0.3)
            total += e[4:] * dt
        np.testing.assert_allclose(total, e[:2] - e0_prop, atol=1e-12)

    def test_measured_state_overrides_prediction(self):
        model = toy_model(seed=3)
        ref = np.array([0.2, 0.0])
        meas = np.array([0.15, 0.05])
        e1 = error_update(model, ref, ref, np.zeros(2), np.zeros(1), np.zeros(6), 0.2, 10,
                          x_meas_next=meas)
        np.testing.assert_allclose(e1[:2], ref - meas)

    @pytest.mark.parametrize("dt", [0.0, -0.2, np.nan])
    def test_rejects_nonpositive_dt(self, dt):
        # dt = 0 divided by zero in e_deri, dt < 0 flipped its sign, and NaN
        # passed `dt <= 0` into a NaN e_deri
        model = toy_model(seed=3)
        e0 = np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="dt"):
            error_update(model, np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(1), e0, dt, 10,
                         x_meas_next=np.zeros(2))
        with pytest.raises(ValueError, match="dt"):
            error_init(model, np.zeros(2), np.zeros(2), np.zeros(2), dt)

    @pytest.mark.parametrize("dt", [0.5, np.nextafter(0.2, 1.0)], ids=["past_horizon", "one_ulp"])
    def test_rejects_a_dt_other_than_the_surrogates(self, dt):
        # both used to run: 0.5 evaluated the network at tau = 0.5, past its trained
        # horizon dt + eps = 0.25
        model = toy_model(seed=3)
        with pytest.raises(ValueError, match=r"dt is .*, the surrogate steps 0\.2"):
            error_init(model, np.zeros(2), np.zeros(2), np.zeros(2), dt)
        with pytest.raises(ValueError, match=r"dt is .*, the surrogate steps 0\.2"):
            error_update(model, np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(1), np.zeros(6),
                         dt, 10, x_meas_next=np.zeros(2))


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
        b = diagonal_gain_bounds(4, 2, (0.0, 3.0), (-3.0, 3.0), (0.0, 3.0), [0, 1])
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

    def test_gain_bounds_do_not_follow_writes_to_their_source(self):
        # the box used to alias its arguments, so this write left lower > upper
        lo, hi = np.zeros((1, 3)), np.ones((1, 3))
        bounds = GainBounds(lo, hi)
        lo[0, 0] = 2.0
        hi[0, 1] = -1.0
        assert np.array_equal(bounds.lower, np.zeros((1, 3)))
        assert np.array_equal(bounds.upper, np.ones((1, 3)))

    @pytest.mark.parametrize("name", ["lower", "upper"])
    def test_gain_bounds_are_read_only(self, name):
        # a write through the record used to get past its lower <= upper check
        bounds = diagonal_gain_bounds(2, 1, (0.0, 3.0), (0.0, 2.0), (0.0, 1.0), [0])
        with pytest.raises(ValueError, match="read-only"):
            getattr(bounds, name)[0, 0] = -1.0
        assert bounds.lower[0, 0] == 0.0 and bounds.upper[0, 0] == 3.0


class TestGainMatrix:
    def test_rejects_width_not_a_multiple_of_3(self):
        with pytest.raises(ValueError, match="multiple of 3"):
            GainMatrix.from_stacked(np.ones((1, 4)))

    def test_rejects_more_than_two_dimensions(self):
        # a (1, 3, 3) array passed the width check, and control_input then returned a
        # (1, 3) input for a 1-vector error state
        with pytest.raises(ValueError, match=r"must be 2-D, got shape \(1, 3, 3\)"):
            GainMatrix(np.zeros((1, 3, 3)))

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
        # the parts of a malformed state, stacked; none is a (6,) vector
        errors = np.hstack(parts)
        assert errors.shape != (6,)
        model = toy_model(seed=3)
        with pytest.raises(ValueError, match="shape"):
            error_update(model, np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(1), errors, 0.2,
                         10, x_meas_next=np.zeros(2))
        box = Box([-1.0], [1.0])
        with pytest.raises(ValueError, match="shape"):
            control_input(GainMatrix.from_stacked(np.ones((1, 6))), errors, box)
        with pytest.raises(ValueError, match="shape"):
            Window(model, np.zeros(2), errors, np.zeros((3, 2)),
                   CostWeights(np.eye(2), [[0.01]], mu=1.0), 10, box)

    def test_error_update_rejects_errors_of_another_width(self):
        # the error state of a 1-entry state would broadcast into both entries of e_deri
        model = toy_model(seed=3)
        with pytest.raises(ValueError, match="errors"):
            error_update(model, np.array([0.2, 0.0]), np.array([0.2, 0.0]), np.zeros(2),
                         np.zeros(1), [0.5, 0.0, 0.0], 0.2, 10,
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
        e0 = np.zeros(6)
        args = dict(x_ref_k=np.array([0.2, 0.0]), x_ref_next=np.array([0.2, 0.0]),
                    x_meas_next=np.array([0.15, 0.05]))
        args[arg] = bad
        with pytest.raises(ValueError, match=arg):
            error_update(model, x_k=np.zeros(2), u_k=np.zeros(1), errors=e0, dt=0.2, n_quad=10,
                         **args)

    def test_error_init_checks_x0_against_the_model(self):
        # x0 set the width the references were checked against, so a 3-wide state with
        # 3-wide references reached the network's generic batch-shape message
        spy = Spy(toy_model(seed=4))
        with pytest.raises(ValueError, match=r"^x0 has shape \(3,\), the model needs \(2,\)$"):
            error_init(spy, np.zeros(3), np.zeros(3), np.zeros(3), 0.2)
        assert spy.calls == []

    @pytest.mark.parametrize("arg, bad, match", [
        ("x_k", np.zeros(3), r"^x_k has shape \(3,\), the model needs \(2,\)$"),
        ("u_k", np.zeros(2), r"^u_k has shape \(2,\), the model needs \(1,\)$"),
    ], ids=["three_wide_x_k", "two_wide_u_k"])
    def test_error_update_checks_state_and_input_against_the_model(self, arg, bad, match):
        # n was read off x_k, and u_k was not checked: each reached the network
        spy = Spy(toy_model(seed=3))
        n = bad.shape[0] if arg == "x_k" else 2
        args = dict(x_ref_k=np.zeros(n), x_ref_next=np.zeros(n), x_k=np.zeros(n),
                    u_k=np.zeros(1), errors=np.zeros(3 * n), x_meas_next=np.zeros(n))
        args[arg] = bad
        with pytest.raises(ValueError, match=match):
            error_update(spy, dt=0.2, n_quad=10, **args)
        assert spy.calls == []

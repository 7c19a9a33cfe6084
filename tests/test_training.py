"""Loss, residual and trainer checks, with finite-difference gradient oracles."""

import copy
import os
import signal
import sys
import threading
import time
import warnings
from dataclasses import FrozenInstanceError, astuple, replace

import numpy as np
import pytest

from pinnpid import training
from pinnpid.model import PinnModel
from pinnpid.network import ROW_FLOOR, FeedforwardNet, InputScaling, NetworkSpec, RowBlock
from pinnpid.plants import msd_state_space, simulate_zoh
from pinnpid.sampling import (
    Box,
    DataSet,
    DatasetConfig,
    PhysSet,
    build_data_set,
    build_phys_set,
    lhs_sample,
)
from pinnpid.training import (
    TrainConfig,
    fd_state_jacobian,
    loss,
    loss_and_grad,
    make_validation_set,
    train,
    validate,
)
from tests.reference_train import fd_state_jacobian as reference_fd_state_jacobian
from tests.reference_train import serial_loss, serial_loss_and_grad
from tests.reference_train import train as reference_train
from tests.support import (
    ARM_INPUT_BOX,
    ARM_RHS,
    ARM_STATE_BOX,
    MSD,
    MSD_INPUT_BOX,
    MSD_RHS,
    MSD_STATE_BOX,
    calls_to,
    central_fd,
    forbid,
    toy_model,
)


def msd_model(widths=(4, 16, 16, 2), seed=0, dt=0.2, eps=0.05):
    lo = np.concatenate([[0.0], MSD_STATE_BOX.lower, MSD_INPUT_BOX.lower])
    hi = np.concatenate([[dt + eps], MSD_STATE_BOX.upper, MSD_INPUT_BOX.upper])
    net = FeedforwardNet(NetworkSpec(widths), InputScaling(lo, hi), 2, 1)
    params = net.init_params(seed) if seed is not None else np.zeros(net.n_params)
    return PinnModel(net=net, params=params, dt=dt, eps=eps)


def small_sets(n_data=8, n_phys=8, seed=0):
    cfg = DatasetConfig(n_data=n_data, n_phys=n_phys, dt=0.2, eps=0.05,
                        state_box=MSD_STATE_BOX, input_box=MSD_INPUT_BOX, seed=seed)
    return build_data_set(MSD_RHS, cfg), build_phys_set(cfg)


def small_vset(dt=0.2, n_traj=2, n_steps=3, seed=8):
    """An MSD validation set, by default of two trajectories of three steps at the models' dt."""
    return make_validation_set(MSD_RHS, MSD_STATE_BOX, MSD_INPUT_BOX, dt, n_traj=n_traj,
                               n_steps=n_steps, seed=seed)


def one_row_l_phys(model, rhs, t, x, u):
    """The physics term of ``loss`` on the one collocation row (t, x, u): the
    squared norm of that row's residual d phi/dt - rhs(phi, u)."""
    data = DataSet(t=np.array([0.1]), x0=np.zeros((1, 2)), xf=np.zeros((1, 2)),
                   u=np.zeros((1, 1)))
    phys = PhysSet(t=np.array([t]), x=np.atleast_2d(x), u=np.atleast_2d(u))
    return loss(model.net, model.params, data, phys, rhs, 0, buffers={}).l_phys


class TestPhysicsResidual:
    def test_zero_network_zero_rhs(self):
        model = msd_model(seed=None)
        zero_rhs = lambda x, u: np.zeros_like(np.atleast_2d(x))
        assert one_row_l_phys(model, zero_rhs, 0.1, [0.3, 0.1], [0.2]) == 0.0

    def test_matches_finite_difference_rate(self):
        # the rhs shifted by the expected residual leaves the residual's error, each of
        # whose coordinates must lie inside the tightest per-coordinate tolerance
        model = msd_model(seed=5)
        t, x, u = 0.12, np.array([0.4, -0.2]), np.array([0.3])
        h = 1e-6
        fd_rate = (model.predict(np.array([t + h]), x, u)[0]
                   - model.predict(np.array([t - h]), x, u)[0]) / (2 * h)
        expected = fd_rate - MSD_RHS(model.predict(np.array([t]), x, u)[0], u)
        shifted = lambda xs, us: MSD_RHS(xs, us) + expected
        tol = np.min(1e-7 + 1e-5 * np.abs(expected))
        assert one_row_l_phys(model, shifted, t, x, u) <= tol**2
        assert one_row_l_phys(model, MSD_RHS, t, x, u) > 1e4 * tol**2

    def test_affine_scaling_with_linear_rhs(self):
        # doubling the output layer doubles value and rate; with u = 0 the
        # residual of the linear plant doubles exactly, so its square quadruples
        model = msd_model(seed=7)
        t, x, u = 0.1, [0.2, 0.1], [0.0]
        l1 = one_row_l_phys(model, MSD_RHS, t, x, u)
        doubled = model.params.copy()
        w_sl, b_sl, _ = model.net.spec.param_slices()[-1]
        doubled[w_sl] *= 2.0
        doubled[b_sl] *= 2.0
        model2 = PinnModel(net=model.net, params=doubled, dt=model.dt, eps=model.eps)
        assert one_row_l_phys(model2, MSD_RHS, t, x, u) == pytest.approx(4.0 * l1, rel=1e-12)


class TestLoss:
    def test_exact_predictions_zero_data_loss(self):
        model = msd_model(seed=3)
        data, phys = small_sets()
        preds = model.predict(data.t, data.x0, data.u)
        exact = DataSet(t=data.t, x0=data.x0, xf=preds, u=data.u)
        rep = loss(model.net, model.params, exact, phys, MSD_RHS, 0, buffers={})
        assert rep.l_data == pytest.approx(0.0, abs=1e-28)

    def test_hand_computed_two_samples(self):
        model = msd_model(seed=1)
        data, phys = small_sets(n_data=2, n_phys=2)
        rep = loss(model.net, model.params, data, phys, MSD_RHS, 0, buffers={})
        preds = model.predict(data.t, data.x0, data.u)
        by_hand = 0.5 * sum(np.sum((preds[i] - data.xf[i]) ** 2) for i in range(2))
        assert rep.l_data == pytest.approx(by_hand, rel=1e-12)
        assert rep.l_total == pytest.approx(rep.l_data + training.LAMBDA_PHYS * rep.l_phys,
                                            rel=1e-12)

    def test_permutation_invariance(self):
        model = msd_model(seed=4)
        data, phys = small_sets(n_data=16, n_phys=16)
        rep = loss(model.net, model.params, data, phys, MSD_RHS, 0, buffers={})
        perm = np.random.default_rng(0).permutation(16)
        data_p = DataSet(t=data.t[perm], x0=data.x0[perm], xf=data.xf[perm], u=data.u[perm])
        phys_p = PhysSet(t=phys.t[perm], x=phys.x[perm], u=phys.u[perm])
        rep_p = loss(model.net, model.params, data_p, phys_p, MSD_RHS, 0, buffers={})
        assert rep_p.l_total == pytest.approx(rep.l_total, rel=1e-12)


def loss_gradient_error(model, data, phys, rhs):
    """The largest error of loss_and_grad's gradient against central differences of
    the loss, relative to the difference or to 1e-4, whichever is larger."""
    *_, grad = loss_and_grad(model.net, model.params, data, phys, rhs, buffers={})
    buffers = {}  # shared by every loss call, as in train's L-BFGS callback
    fd = central_fd(lambda p: loss(model.net, p, data, phys, rhs, 0, buffers=buffers).l_total,
                    model.params, 1e-6)
    scale = np.maximum(np.abs(fd), 1e-4)
    return np.max(np.abs(grad - fd) / scale)


class TestLossGradient:
    def test_matches_finite_differences(self):
        model = msd_model(widths=(4, 6, 2), seed=11)
        data, phys = small_sets(n_data=8, n_phys=8)
        assert loss_gradient_error(model, data, phys, MSD_RHS) < 1e-4

    def test_arm_matches_finite_differences(self):
        # 4 states and 2 inputs, with the arm's labels and collocation rows
        cfg = DatasetConfig(n_data=8, n_phys=8, dt=0.2, eps=0.05, state_box=ARM_STATE_BOX,
                            input_box=ARM_INPUT_BOX, seed=0)
        data, phys = build_data_set(ARM_RHS, cfg), build_phys_set(cfg)
        assert loss_gradient_error(toy_model(n=4, m=2), data, phys, ARM_RHS) < 1e-4

    def test_buffered_call_matches_unbuffered(self):
        # one dict through two set sizes: the data rows shrink and the collocation
        # rows grow, so the second size reallocates the arrays of both passes; a fresh
        # dict allocates every array, as a pass without buffers does
        model = msd_model(seed=12)
        buffers = {}
        for n_data, n_phys, seed in ((24, 40, 2), (16, 72, 6)):
            data, phys = small_sets(n_data=n_data, n_phys=n_phys, seed=seed)
            want = loss_and_grad(model.net, model.params, data, phys, MSD_RHS, buffers={})
            for params in (model.params + 0.01, model.params):
                got = loss_and_grad(model.net, params, data, phys, MSD_RHS, buffers=buffers)
            assert got[:3] == want[:3]
            assert np.array_equal(got[3], want[3])
            kept = [a for part in ("data", "phys") for a in buffers[part].values()]
            assert set(buffers) == {"data", "phys", "scored"} and kept
            assert {a.shape[0] for a in buffers["data"].values()} == {n_data}
            assert not any(np.shares_memory(got[3], a) for a in kept)

    def test_loss_reuses_the_buffers_of_loss_and_grad(self):
        # train's L-BFGS callback hands loss the dict that loss_and_grad fills, so the
        # forward passes of both write the same arrays and allocate none
        model = msd_model(seed=12)
        data, phys = small_sets(n_data=24, n_phys=40, seed=2)
        buffers = {}
        loss_and_grad(model.net, model.params, data, phys, MSD_RHS, buffers=buffers)
        assert set(buffers) == {"data", "phys", "scored"}
        held = lambda: {(part, key): arr for part in ("data", "phys")
                        for key, arr in buffers[part].items()}
        before = held()
        params = model.params + 0.01
        got = loss(model.net, params, data, phys, MSD_RHS, 7, buffers=buffers)
        want = loss(model.net, params, data, phys, MSD_RHS, 7, buffers={})
        assert astuple(got) == astuple(want)
        assert set(buffers) == {"data", "phys", "scored"}
        after = held()
        assert after.keys() == before.keys()
        assert all(after[key] is arr for key, arr in before.items())

    def test_fd_jacobian_matches_linear_plant(self):
        a_mat, _ = msd_state_space(MSD)
        x = np.random.default_rng(0).standard_normal((5, 2))
        u = np.zeros((5, 1))
        jac = fd_state_jacobian(MSD_RHS, x, u)
        for i in range(5):
            np.testing.assert_allclose(jac[i], a_mat, atol=1e-8)

    @pytest.mark.parametrize("rows", [None, 16, 4000])
    @pytest.mark.parametrize("plant", ["msd", "arm"])
    def test_fd_jacobian_matches_frozen_reference(self, plant, rows):
        rng = np.random.default_rng(83)
        shape = () if rows is None else (rows,)
        if plant == "msd":
            rhs = MSD_RHS
            x = rng.uniform(-2.0, 2.0, shape + (2,))
            u = rng.uniform(-1.0, 1.0, shape + (1,))
        else:
            rhs = ARM_RHS
            x = rng.uniform([-20.0, -20.0, -40.0, -40.0], [20.0, 20.0, 40.0, 40.0], shape + (4,))
            u = rng.uniform(-0.5, 0.5, shape + (2,))
        x_before = x.copy()
        got = fd_state_jacobian(rhs, x, u)
        assert np.array_equal(got, reference_fd_state_jacobian(rhs, x, u))
        assert np.array_equal(x, x_before)

    def test_fd_jacobian_passes_unperturbed_entries_exactly(self):
        # signed zeros included: x + 0.0 would turn -0.0 into 0.0
        x = np.array([[-0.0, 0.5], [1.5, -0.0], [-0.0, -0.0]])
        seen = []

        def rhs(xs, u):
            seen.append(xs.copy())
            return MSD_RHS(xs, u)

        fd_state_jacobian(rhs, x, np.zeros((3, 1)))
        assert len(seen) == 4
        for k, xs in enumerate(seen):
            j, sign = k // 2, (1.0, -1.0)[k % 2]
            assert np.array_equal(xs[:, j], x[:, j] + sign * training.FD_STEP)
            other = xs[:, 1 - j]
            assert np.array_equal(other, x[:, 1 - j])
            assert np.array_equal(np.signbit(other), np.signbit(x[:, 1 - j]))
        assert np.array_equal(np.signbit(x), [[True, False], [False, True], [True, True]])


class TestValidation:
    def test_oracle_standin_has_zero_error(self):
        vset = small_vset(n_traj=3, n_steps=5, seed=1)

        class OracleModel:
            dt, n, m = 0.2, 2, 1  # validate checks the set's widths against n and m

            def predict(self, taus, x, u):
                _, states = simulate_zoh(MSD_RHS, x, [u], float(np.max(taus)),
                                         training.VALIDATION_SUBSTEPS)
                return states[-1]

        rep = validate(OracleModel(), vset)
        assert np.max(rep.mse_rollout) < 1e-24

    @pytest.mark.parametrize("plant", ["msd", "arm"])
    def test_batched_set_matches_per_trajectory_integration(self, plant):
        if plant == "msd":
            rhs, sbox, ibox = MSD_RHS, MSD_STATE_BOX, MSD_INPUT_BOX
        else:
            rhs, sbox, ibox = ARM_RHS, ARM_STATE_BOX, ARM_INPUT_BOX
        vset = make_validation_set(rhs, sbox, ibox, 0.2, n_traj=4, n_steps=3, seed=7)
        substeps = training.VALIDATION_SUBSTEPS
        rng = np.random.default_rng(7)
        x0 = lhs_sample(sbox.lower, sbox.upper, 4, rng)
        u_seq = rng.uniform(ibox.lower, ibox.upper, size=(4, 3, ibox.dim))
        np.testing.assert_array_equal(vset.x0, x0)
        np.testing.assert_array_equal(vset.u_seq, u_seq)
        assert vset.truth.shape == (4, 4, sbox.dim)
        for i in range(4):
            _, states = simulate_zoh(rhs, x0[i], u_seq[i], 0.2, substeps)
            if plant == "msd":
                np.testing.assert_array_equal(vset.truth[i], states[::substeps])
            else:
                np.testing.assert_allclose(vset.truth[i], states[::substeps], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("input_box, n_steps, match", [
        (Box([-1.0], [np.inf]), 5, "finite input box"),
        (Box([-np.inf], [1.0]), 5, "finite input box"),
        (MSD_INPUT_BOX, 0, "n_steps >= 1"),
    ], ids=["inf_upper", "inf_lower", "no_steps"])
    def test_make_validation_set_rejects_a_set_it_cannot_build(self, input_box, n_steps,
                                                               match):
        # an infinite input bound raised OverflowError from the input draw, and n_steps = 0
        # built a set that validate failed to score ("need at least one array to concatenate")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                make_validation_set(MSD_RHS, MSD_STATE_BOX, input_box, 0.2, n_traj=3,
                                    n_steps=n_steps, seed=1)

    def test_validate_rejects_a_dt_other_than_the_surrogates(self):
        # a set at dt = 0.5 rolled the network out at tau = 0.5, past its trained horizon
        # dt + eps = 0.25
        vset = small_vset(0.5, n_steps=2, seed=2)
        with pytest.raises(ValueError, match="validation set steps 0.5, the surrogate 0.2"):
            validate(msd_model(seed=8), vset)

    def test_reports_per_coordinate(self):
        model = msd_model(seed=8)
        vset = small_vset(n_steps=4, seed=2)
        rep = validate(model, vset)
        assert rep.mse_rollout.shape == (2,)
        assert np.all(rep.mse_rollout >= 0)


class TestTrain:
    def test_zero_iterations_returns_model_unchanged(self):
        model = msd_model(seed=6)
        data, phys = small_sets()
        cfg = TrainConfig(iterations=0, val_interval=1)
        trained, history = train(model, MSD_RHS, lambda k: (data, phys), cfg, small_vset())
        assert np.array_equal(trained.params, model.params)
        assert history == []

    def test_desk_smoke_loss_decreases(self):
        model = msd_model(widths=(4, 16, 16, 2), seed=0)
        cfg_data = DatasetConfig(n_data=256, n_phys=512, dt=0.2, eps=0.05,
                                 state_box=MSD_STATE_BOX, input_box=MSD_INPUT_BOX, seed=3)
        sets = (build_data_set(MSD_RHS, cfg_data), build_phys_set(cfg_data))
        cfg = TrainConfig(iterations=1500, val_interval=1500)
        trained, history = train(model, MSD_RHS, lambda k: sets, cfg, small_vset())
        first = np.mean([h.l_total for h in history[:100]])
        last = np.mean([h.l_total for h in history[-100:]])
        assert last < first / 20
        # windowed decrease over 100-iteration blocks, allowing small plateaus
        blocks = [np.mean([h.l_total for h in history[i:i + 100]])
                  for i in range(0, 1500, 100)]
        drops = sum(blocks[i + 1] < blocks[i] * 1.05 for i in range(len(blocks) - 1))
        assert drops >= len(blocks) - 2

    def test_lbfgs_refinement_reduces_loss(self):
        model = msd_model(widths=(4, 8, 2), seed=1)
        data, phys = small_sets(n_data=64, n_phys=64, seed=9)
        cfg = TrainConfig(iterations=200, optimizer="adam-then-lbfgs",
                          lbfgs_iterations=150, val_interval=200)
        trained, history = train(model, MSD_RHS, lambda k: (data, phys), cfg, small_vset())
        adam_end = history[199].l_total
        assert history[-1].l_total < adam_end

    def test_buffers_change_no_bit_of_training(self, monkeypatch):
        # Adam, then L-BFGS; in the reference run loss_and_grad and loss each swap the
        # trainer's buffers for a fresh dict on every call, so every array is allocated
        model = msd_model(widths=(4, 8, 8, 2), seed=3)
        sets = small_sets(n_data=48, n_phys=64, seed=5)
        vset = small_vset()
        cfg = TrainConfig(iterations=40, optimizer="adam-then-lbfgs", val_interval=20,
                          lbfgs_iterations=30)
        runs = []
        for drop in (False, True):
            if drop:
                for name in ("loss_and_grad", "loss"):
                    buffered = getattr(training, name)
                    monkeypatch.setattr(training, name, lambda *a, buffers, fn=buffered, **k:
                                        fn(*a, buffers={}, **k))
            trained, history = train(model, MSD_RHS, lambda k: sets, cfg, validation=vset)
            runs.append((trained.params, [(h.l_data, h.l_phys, h.val_mse) for h in history]))
        assert len(runs[0][1]) > 40
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("bad_set", [0, 1])
    def test_non_finite_rows_rejected(self, bad_set):
        # bad_set indexes the (data set, collocation set) pair handed to train
        model = msd_model(widths=(4, 8, 2), seed=1)
        data, phys = small_sets(n_data=16, n_phys=16)
        bad_x0 = data.x0.copy()
        bad_x0[[2, 5], 1] = np.nan
        bad_u = phys.u.copy()
        bad_u[7, 0] = np.inf
        sets = [data, phys]
        sets[bad_set] = (DataSet(t=data.t, x0=bad_x0, xf=data.xf, u=data.u),
                         PhysSet(t=phys.t, x=phys.x, u=bad_u))[bad_set]
        match = ("data set has 2 rows", "collocation set has 1 rows")[bad_set]
        with pytest.raises(ValueError, match=match):
            train(model, MSD_RHS, lambda k: tuple(sets), TrainConfig(iterations=4, val_interval=2),
                  small_vset())

    def test_labels_of_another_shape_rejected_before_an_iteration(self, monkeypatch):
        # (N, 1) labels on a 2-state model broadcast against the (N, 2) predictions,
        # and the fit ran on a data loss that compares every label with both states
        forbid(monkeypatch, training, "loss_and_grad")
        data, phys = small_sets()
        data = replace(data, xf=data.xf[:, :1])
        with pytest.raises(ValueError, match=r"^xf has shape \(8, 1\), the model needs \(8, 2\)$"):
            train(msd_model(seed=1), MSD_RHS, lambda k: (data, phys),
                  TrainConfig(iterations=4, val_interval=2), validation=small_vset())

    def test_validation_set_of_another_dt_rejected_before_an_iteration(self, monkeypatch):
        # validate refuses such a set, but only at the first validation, after
        # val_interval iterations
        forbid(monkeypatch, training, "loss_and_grad")
        data, phys = small_sets()
        vset = small_vset(0.5, n_steps=2, seed=2)
        with pytest.raises(ValueError, match="validation set steps 0.5, the surrogate 0.2"):
            train(msd_model(seed=1), MSD_RHS, lambda k: (data, phys),
                  TrainConfig(iterations=4, val_interval=2), validation=vset)

    @pytest.mark.parametrize("name, value, message", [
        ("u_seq", np.zeros((2, 3, 2)), r"u_seq has shape \(2, 3, 2\), the model needs \(2, 3, 1\)"),
        ("u_seq", np.zeros((2, 3)), r"u_seq has shape \(2, 3\), the model needs \(2, 3, 1\)"),
        ("x0", np.zeros((2, 3)), r"x0 has shape \(2, 3\), the model needs \(2, 2\)"),
        ("x0", np.zeros((3, 2)), r"x0 has shape \(3, 2\), the model needs \(2, 2\)"),
        ("truth", np.zeros((2, 3, 2)), r"truth has shape \(2, 3, 2\), the model needs \(2, 4, 2\)"),
        ("u_seq", np.zeros((2, 0, 1)), r"u_seq has shape \(2, 0, 1\), validation needs a step"),
        ("u_seq", np.zeros((0, 3, 1)),
         r"u_seq has shape \(0, 3, 1\), validation needs a trajectory"),
    ], ids=["two_inputs", "flat_inputs", "three_states", "three_starts", "truth_one_step_short",
            "no_steps", "no_trajectories"])
    def test_mis_sized_validation_set_rejected_before_an_iteration(self, name, value, message,
                                                                    monkeypatch):
        # a set with a second input column passed the dt check and failed only at the first
        # validation, val_interval iterations in, with "mismatched batch shapes for (t, x, u)";
        # a set of no steps failed there with "need at least one array to concatenate", and
        # one of no trajectories trained on and scored every validation NaN
        forbid(monkeypatch, training, "loss_and_grad")
        data, phys = small_sets()
        vset = replace(small_vset(), **{name: value})
        with pytest.raises(ValueError, match=message):
            train(msd_model(seed=1), MSD_RHS, lambda k: (data, phys),
                  TrainConfig(iterations=4, val_interval=2), validation=vset)
        with pytest.raises(ValueError, match=message):
            validate(msd_model(seed=1), vset)

    @pytest.mark.parametrize("name, index", [("truth", (1, 2, 0)), ("x0", (0, 1)),
                                             ("u_seq", (1, 0, 0))], ids=["truth", "x0", "u_seq"])
    def test_non_finite_validation_set_rejected_before_an_iteration(self, name, index,
                                                                    monkeypatch):
        # one NaN in truth made every val_mse NaN, so no iterate beat the first best (inf)
        # and train returned the untrained parameters; a NaN x0 or u_seq failed only at
        # the first validation, val_interval iterations in
        forbid(monkeypatch, training, "loss_and_grad")
        data, phys = small_sets()
        vset = small_vset()
        value = getattr(vset, name).copy()
        value[index] = np.nan
        vset = replace(vset, **{name: value})
        message = rf"^{name} has non-finite entries, validation cannot score them$"
        with pytest.raises(ValueError, match=message):
            train(msd_model(seed=1), MSD_RHS, lambda k: (data, phys),
                  TrainConfig(iterations=4, val_interval=2), validation=vset)
        with pytest.raises(ValueError, match=message):
            validate(msd_model(seed=1), vset)

    @pytest.mark.parametrize("which, column, shape, message", [
        (0, "t", (7,), r"^t has shape \(7,\), the model needs \(8,\)$"),
        (0, "u", (7, 1), r"^u has shape \(7, 1\), the model needs \(8, 1\)$"),
        (0, "x0", (8, 3), r"^x0 has shape \(8, 3\), the model needs \(8, 2\)$"),
        (1, "t", (7,), r"^phys\.t has shape \(7,\), the model needs \(8,\)$"),
        (1, "u", (8, 2), r"^phys\.u has shape \(8, 2\), the model needs \(8, 1\)$"),
    ], ids=["data_t_short", "data_u_short", "data_x0_three_wide", "phys_t_short",
            "phys_u_two_wide"])
    def test_set_column_of_another_shape_rejected_before_an_iteration(
            self, which, column, shape, message, monkeypatch):
        # which indexes the (data set, collocation set) pair; a 7-row t beside 8-row columns
        # failed with NumPy's bare "all the input array dimensions ..." message, and a
        # 2-wide collocation u reached the first iteration
        forbid(monkeypatch, training, "loss_and_grad")
        sets = list(small_sets())
        sets[which] = replace(sets[which], **{column: np.zeros(shape)})
        with pytest.raises(ValueError, match=message):
            train(msd_model(seed=1), MSD_RHS, lambda k: tuple(sets),
                  TrainConfig(iterations=4, val_interval=2), validation=small_vset())

    def test_config_is_frozen(self):
        # an assignment skipped every check: val_interval = 0 divided by zero inside train
        cfg = TrainConfig(iterations=4, val_interval=2)
        with pytest.raises(FrozenInstanceError):
            cfg.val_interval = 0
        assert cfg.val_interval == 2

    @pytest.mark.parametrize("fields, message", [
        (dict(iterations=-5), "iterations must be at least 0, got -5"),
        (dict(lbfgs_iterations=-3), "lbfgs_iterations must be at least 0, got -3"),
        (dict(val_interval=-5), "val_interval must be at least 1, got -5"),
        (dict(iterations=4, val_interval=0), "val_interval must be at least 1, got 0"),
    ], ids=["iterations", "lbfgs_iterations", "val_interval", "val_interval_0"])
    def test_config_rejects_negative_counts(self, fields, message):
        # each was accepted without a word: no Adam step, no L-BFGS stage, validation
        # on a sign-flipped modulus, and (0) a second switch that turned validation off
        with pytest.raises(ValueError, match=rf"^{message}$"):
            TrainConfig(**{"iterations": 4, "val_interval": 2, **fields})

    @pytest.mark.parametrize("stage", ["adam", "lbfgs"])
    @pytest.mark.parametrize("fault", ["loss", "gradient"])
    def test_non_finite_evaluation_raises_diverged(self, fault, stage, monkeypatch):
        # a NaN rhs makes the loss NaN; a NaN state Jacobian leaves the loss finite
        # and makes only the gradient NaN
        model = msd_model(widths=(4, 8, 2), seed=1)
        data, phys = small_sets()
        rhs = MSD_RHS
        if fault == "loss":
            rhs = lambda x, u: np.full(np.shape(x), np.nan)
        else:
            monkeypatch.setattr(training, "fd_state_jacobian",
                                lambda rhs, x, u: np.full(x.shape + (x.shape[-1],), np.nan))
        if stage == "adam":
            cfg = TrainConfig(iterations=4, val_interval=4)
        else:
            cfg = TrainConfig(iterations=0, optimizer="adam-then-lbfgs", lbfgs_iterations=5,
                              val_interval=5)
        with pytest.raises(training.TrainingDiverged) as info:
            train(model, rhs, lambda k: (data, phys), cfg, small_vset())
        assert info.value.iteration == 0
        assert info.value.last_report is None

    def test_lbfgs_divergence_keeps_the_adam_stage_report(self, monkeypatch):
        # the rhs turns NaN once the two Adam steps are done, so the first L-BFGS
        # evaluation diverges with the Adam stage's last report in hand
        model = msd_model(widths=(4, 8, 2), seed=1)
        data, phys = small_sets()
        _, adam_history = train(model, MSD_RHS, lambda k: (data, phys),
                                TrainConfig(iterations=2, val_interval=2), small_vset())
        steps = calls_to(monkeypatch, training, "adam_step")
        rhs = lambda x, u: MSD_RHS(x, u) if len(steps) < 2 else np.full(np.shape(x), np.nan)
        cfg = TrainConfig(iterations=2, optimizer="adam-then-lbfgs", lbfgs_iterations=5,
                          val_interval=2)
        with pytest.raises(training.TrainingDiverged, match="L-BFGS") as info:
            train(model, rhs, lambda k: (data, phys), cfg, small_vset())
        assert info.value.iteration == 2
        assert info.value.last_report == adam_history[-1]

    def test_best_validation_checkpoint_restored(self):
        model = msd_model(widths=(4, 8, 2), seed=2)
        data, phys = small_sets(n_data=64, n_phys=64, seed=4)
        vset = small_vset(n_steps=4, seed=5)
        cfg = TrainConfig(iterations=300, val_interval=100)
        trained, history = train(model, MSD_RHS, lambda k: (data, phys), cfg,
                                 validation=vset)
        scored = [h.val_mse for h in history if h.val_mse is not None]
        assert scored, "validation must have run"
        final = validate(trained, vset)
        assert float(np.mean(final.mse_rollout)) <= min(scored) + 1e-12


def exact_jacobian_until(calls):
    """In place of ``fd_state_jacobian``: the MSD's exact state Jacobian A for its
    first ``calls`` calls, NaN from then on, which leaves the loss finite and makes
    the gradient NaN."""
    a_mat, _ = msd_state_space(MSD)
    count = []

    def jacobian(rhs, x, u):
        count.append(1)
        return np.broadcast_to(a_mat if len(count) <= calls else np.nan, (x.shape[0], 2, 2))

    return jacobian


class TestTrainMatchesReference:
    """``train`` against the frozen two-stage trainer in reference_train.py, bit for bit."""

    def runs(self, cfg, before_each=lambda: None):
        """(params, history) of train and of the reference, or the TrainingDiverged of
        each; ``before_each`` runs before each trainer, to give it a fresh patch."""
        model = msd_model(widths=(4, 8, 8, 2), seed=3)
        sets = small_sets(n_data=48, n_phys=64, seed=5)
        vset = small_vset()
        out = []
        for fn in (train, reference_train):
            before_each()
            try:
                trained, history = fn(model, MSD_RHS, lambda k: sets, cfg,
                                      validation=vset)
                out.append((trained.params, history))
            except training.TrainingDiverged as exc:
                out.append(exc)
        return out

    @pytest.mark.parametrize("cfg", [
        TrainConfig(iterations=40, val_interval=10),
        TrainConfig(iterations=40, optimizer="adam-then-lbfgs", val_interval=10,
                    lbfgs_iterations=30),
        TrainConfig(iterations=0, optimizer="adam-then-lbfgs", val_interval=4,
                    lbfgs_iterations=12),
    ], ids=["adam", "adam_then_lbfgs", "no_adam"])
    def test_history_and_parameters(self, cfg):
        (got_params, got), (want_params, want) = self.runs(cfg)
        assert got
        assert [astuple(h) for h in got] == [astuple(h) for h in want]
        assert got_params.tobytes() == want_params.tobytes()

    @pytest.mark.parametrize("fields", [
        dict(optimizer="adam-then-lbfgs", lbfgs_iterations=0),
        dict(lbfgs_iterations=100),
    ], ids=["lbfgs_without_iterations", "iterations_without_lbfgs"])
    def test_optimizer_disagreeing_with_lbfgs_iterations_rejected(self, fields):
        # the second ran no L-BFGS iteration while the default was 500, without a word
        with pytest.raises(ValueError, match="expected 'adam"):
            TrainConfig(iterations=20, val_interval=5, **fields)

    def test_both_stages_validate(self):
        cfg = TrainConfig(iterations=40, optimizer="adam-then-lbfgs", val_interval=10,
                          lbfgs_iterations=30)
        (_, got), _ = self.runs(cfg)
        validated = [h.iteration for h in got if h.val_mse is not None]
        assert validated[:4] == [9, 19, 29, 39] and validated[-1] >= 49

    def test_zero_iterations_with_validation_returns_start(self):
        cfg = TrainConfig(iterations=0, val_interval=1)
        (got_params, got), (want_params, want) = self.runs(cfg)
        assert got == want == []
        assert got_params.tobytes() == want_params.tobytes() == msd_model(
            widths=(4, 8, 8, 2), seed=3).params.tobytes()

    @pytest.mark.parametrize("stage, calls", [("Adam", 15), ("L-BFGS", 30)])
    def test_divergence(self, stage, calls, monkeypatch):
        # the exact Jacobian stands in for the central difference; it runs once per
        # gradient evaluation, one per Adam step and one per L-BFGS objective call in
        # both trainers (the L-BFGS callback takes none), and turns NaN after ``calls``
        cfg = TrainConfig(iterations=20, optimizer="adam-then-lbfgs", val_interval=5,
                          lbfgs_iterations=30)
        got, want = self.runs(cfg, lambda: monkeypatch.setattr(
            training, "fd_state_jacobian", exact_jacobian_until(calls)))
        assert isinstance(got, training.TrainingDiverged)
        assert isinstance(want, training.TrainingDiverged)
        assert stage in str(got)
        assert got.iteration == want.iteration
        assert (got.iteration < cfg.iterations) == (stage == "Adam")
        assert astuple(got.last_report) == astuple(want.last_report)
        if stage == "Adam":
            assert got.last_report.val_mse is not None  # iteration 14, the last, validates
        else:
            assert got.iteration > cfg.iterations


SPLIT_ROWS = 2 * ROW_FLOOR + 400  # collocation rows that split between the two threads


def bench_model(plant, seed):
    """A model of the benchmark's widths for the plant, scaled to its boxes."""
    sbox, ibox, widths = {"msd": (MSD_STATE_BOX, MSD_INPUT_BOX, (4, 32, 32, 2)),
                          "arm": (ARM_STATE_BOX, ARM_INPUT_BOX, (7, 32, 32, 4))}[plant]
    scaling = InputScaling(np.concatenate([[0.0], sbox.lower, ibox.lower]),
                           np.concatenate([[0.25], sbox.upper, ibox.upper]))
    net = FeedforwardNet(NetworkSpec(widths), scaling, sbox.dim, ibox.dim)
    return PinnModel(net=net, params=net.init_params(seed), dt=0.2, eps=0.05)


def lane_case(plant, n_data=300, n_phys=SPLIT_ROWS, seed=0):
    """(model, rhs, data set, collocation set) of the arm or the MSD: a model of the
    benchmark's widths, with random rows inside its scaling box; labels need not be
    exact. The default collocation set splits between the calling thread and the lane;
    at these widths a block of a few hundred rows would part a row's last bits."""
    rng = np.random.default_rng(seed)
    model, rhs = bench_model(plant, seed), {"msd": MSD_RHS, "arm": ARM_RHS}[plant]
    lo, hi, n = model.net.scaling.lower, model.net.scaling.upper, model.n

    def draw(rows):
        return (rng.uniform(lo[0], hi[0], rows), rng.uniform(lo[1:n + 1], hi[1:n + 1], (rows, n)),
                rng.uniform(lo[n + 1:], hi[n + 1:], (rows, model.m)))

    t, x0, u = draw(n_data)
    data = DataSet(t=t, x0=x0, xf=x0 + rng.normal(0.0, 0.1, x0.shape), u=u)
    return model, rhs, data, PhysSet(*draw(n_phys))


def bits(values):
    """The float64 bit patterns of a tuple of floats and arrays, one flat array."""
    return np.concatenate([np.ravel(np.asarray(v, dtype=np.float64)) for v in values]
                          ).view(np.uint64)


class TestRowInvariance:
    """The canary of the split physics pass: from ``ROW_FLOOR`` rows up, a row's bits do
    not depend on how many rows share its call, at the benchmark's widths. A BLAS whose
    kernel choice breaks that fails here instead of parting the fits silently."""

    N = SPLIT_ROWS

    @pytest.mark.parametrize("cut", [ROW_FLOOR, SPLIT_ROWS - ROW_FLOOR])
    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("plant", ["arm", "msd"])
    def test_network_passes_split_at_the_floor(self, plant, dual, cut):
        # every array that a forward pass and a reverse sweep keep (tape, reverse
        # products, input cotangent), whole against two row blocks of one dict
        model, _, _, phys = lane_case(plant, n_phys=self.N, seed=5)
        net = model.net
        rows = net.stack_rows(phys.t, phys.x, phys.u)
        tangents = net.time_tangent_rows(self.N) if dual else None
        rng = np.random.default_rng(6)
        cot, cot_t = rng.standard_normal((2, self.N, net.n_state))
        cot_t = cot_t if dual else None
        kept = []
        for blocks in ([slice(None)], [slice(0, cut), slice(cut, self.N)]):
            buffers = {}
            for block in blocks:
                into = buffers if len(blocks) == 1 else RowBlock(buffers, block, self.N)
                *_, tape = net.forward_raw(model.layers, rows[block],
                                           None if tangents is None else tangents[block],
                                           buffers=into)
                net.backward_raw(model.layers, tape, cot[block],
                                 None if cot_t is None else cot_t[block],
                                 want_grads=False, buffers=into)
            kept.append(buffers)
        whole, split = kept
        assert whole.keys() == split.keys()
        for key in whole:
            assert np.array_equal(whole[key].view(np.uint64), split[key].view(np.uint64)), key

    @pytest.mark.parametrize("plant", ["arm", "msd"])
    def test_rhs_and_jacobian_split_anywhere(self, plant):
        _, rhs, _, phys = lane_case(plant, n_phys=self.N, seed=7)
        x, u = phys.x, phys.u
        want = bits((rhs(x, u), fd_state_jacobian(rhs, x, u)))
        for cut in (1, 37, ROW_FLOOR, self.N // 2):
            blocks = (slice(0, cut), slice(cut, self.N))
            got = bits((np.concatenate([rhs(x[b], u[b]) for b in blocks]),
                        np.concatenate([fd_state_jacobian(rhs, x[b], u[b]) for b in blocks])))
            assert np.array_equal(got, want), cut


class TestDataLane:
    """The data pass and, from ``SPLIT_ROWS`` rows on, a block of the physics rows run on
    ``training``'s worker lane beside the other block; every result equals the frozen
    serial evaluation in reference_train.py bit for bit."""

    @staticmethod
    def check_against_serial(plant, n_phys):
        # one dict per side through several parameter vectors and both entries; loss
        # runs before loss_and_grad, where it evaluates, and after it, where it reads
        # the record of loss_and_grad's evaluation
        model, rhs, data, phys = lane_case(plant, n_phys=n_phys)
        got_buffers, want_buffers = {}, {}
        for k, scale in enumerate((1.0, 0.5, 1.0, -0.25)):
            params = model.params * scale
            want = serial_loss(model.net, params, data, phys, rhs, k, buffers=want_buffers)
            reports = [loss(model.net, params, data, phys, rhs, k, buffers=got_buffers)]
            got = loss_and_grad(model.net, params, data, phys, rhs, buffers=got_buffers)
            reports.append(loss(model.net, params, data, phys, rhs, k, buffers=got_buffers))
            for got_report in reports:
                assert got_report.iteration == want.iteration == k
                assert np.array_equal(bits(astuple(got_report)[1:4]), bits(astuple(want)[1:4]))
            want = serial_loss_and_grad(model.net, params, data, phys, rhs,
                                        buffers=want_buffers)
            assert np.array_equal(bits(got), bits(want))
        assert set(got_buffers) == {"data", "phys", "scored"}
        assert set(want_buffers) == {"data", "phys"}
        assert got_buffers["data"].keys() == want_buffers["data"].keys()
        assert got_buffers["phys"].keys() == want_buffers["phys"].keys()

    @pytest.mark.parametrize("plant", ["arm", "msd"])
    def test_matches_the_serial_evaluation(self, plant, monkeypatch):
        # the physics pass splits: each thread takes the Jacobian of its own block
        jacobians = calls_to(monkeypatch, training, "fd_state_jacobian")
        self.check_against_serial(plant, SPLIT_ROWS)
        cut = training._cut(300, SPLIT_ROWS)
        assert ROW_FLOOR <= cut <= SPLIT_ROWS - ROW_FLOOR
        assert sorted(len(c["x"]) for c in jacobians) == sorted([cut, SPLIT_ROWS - cut] * 4)

    def test_whole_pass_below_the_floor_matches_the_serial_evaluation(self, monkeypatch):
        jacobians = calls_to(monkeypatch, training, "fd_state_jacobian")
        self.check_against_serial("msd", 2 * ROW_FLOOR - 1)
        assert [len(c["x"]) for c in jacobians] == [2 * ROW_FLOOR - 1] * 4

    def test_train_matches_the_serial_evaluation(self, monkeypatch):
        # Adam, then L-BFGS, whose callback calls loss, on both plants with a split pass
        vset = make_validation_set(ARM_RHS, ARM_STATE_BOX, ARM_INPUT_BOX, 0.2, n_traj=2,
                                   n_steps=3, seed=6)
        cfg = TrainConfig(iterations=12, optimizer="adam-then-lbfgs", val_interval=4,
                          lbfgs_iterations=8)
        for plant, validation in (("arm", vset), ("msd", small_vset())):
            model, rhs, data, phys = lane_case(plant, n_data=96, seed=4)
            runs = []
            for serial in (False, True):
                with monkeypatch.context() as patch:
                    if serial:
                        patch.setattr(training, "loss_and_grad", serial_loss_and_grad)
                        patch.setattr(training, "loss", serial_loss)
                    trained, history = train(model, rhs, lambda k: (data, phys), cfg,
                                             validation)
                runs.append((trained.params, [astuple(h) for h in history]))
            (got_params, got), (want_params, want) = runs
            assert len(got) > cfg.iterations, plant
            assert got == want, plant
            assert np.array_equal(got_params.view(np.uint64), want_params.view(np.uint64))

    def test_physics_failure_raises_after_the_data_pass_finished(self, monkeypatch):
        # the data pass's last call sleeps, so the rhs raises long before it ends
        model, _, data, phys = lane_case("msd")
        finished = []
        backward_raw = FeedforwardNet.backward_raw

        def slow_value_backward(self, layers, tape, cot_values, cot_tangents=None, *a, **k):
            out = backward_raw(self, layers, tape, cot_values, cot_tangents, *a, **k)
            if cot_tangents is None:
                time.sleep(0.2)
                finished.append(threading.current_thread())
            return out

        def failing_rhs(x, u):
            raise ArithmeticError("rhs failed")

        monkeypatch.setattr(FeedforwardNet, "backward_raw", slow_value_backward)
        with pytest.raises(ArithmeticError, match="rhs failed"):
            loss_and_grad(model.net, model.params, data, phys, failing_rhs, buffers={})
        assert len(finished) == 1
        assert finished[0] is not threading.current_thread()

    @pytest.mark.parametrize("failing", ["lane", "caller", "both"])
    def test_block_failure_raises_after_both_blocks_finished(self, failing, monkeypatch):
        # a block that does not fail sleeps at its end, in its reverse sweep; a failing
        # block's rhs raises, on the lane only after a sleep; each block records its end
        model, rhs, data, phys = lane_case("msd")
        caller = threading.current_thread()
        ended = []
        side = lambda: "caller" if threading.current_thread() is caller else "lane"
        backward_raw = FeedforwardNet.backward_raw

        def slow_dual_backward(self, layers, tape, cot_values, cot_tangents=None, *a, **k):
            out = backward_raw(self, layers, tape, cot_values, cot_tangents, *a, **k)
            if cot_tangents is not None:
                time.sleep(0.2)
                ended.append(side())
            return out

        def block_rhs(x, u):
            if failing in (side(), "both"):
                if side() == "lane":
                    time.sleep(0.2)
                ended.append(side())
                raise ArithmeticError(f"{side()} block failed")
            return rhs(x, u)

        args = (model.net, model.params, data, phys)
        buffers = {}
        with monkeypatch.context() as patch:
            patch.setattr(FeedforwardNet, "backward_raw", slow_dual_backward)
            winner = "lane" if failing == "lane" else "caller"
            with pytest.raises(ArithmeticError, match=f"{winner} block failed"):
                loss_and_grad(*args, block_rhs, buffers=buffers)
        assert sorted(ended) == ["caller", "lane"]
        # the next evaluation on the same buffers splits again and is exact
        want = serial_loss_and_grad(*args, rhs, buffers={})
        assert np.array_equal(bits(loss_and_grad(*args, rhs, buffers=buffers)), bits(want))

    @pytest.mark.parametrize("entry", ["loss_and_grad", "loss"])
    def test_data_failure_reaches_the_caller(self, entry, monkeypatch):
        model, rhs, data, phys = lane_case("msd")
        args = (model.net, model.params, data, phys, rhs)
        evaluate = {"loss_and_grad": lambda: loss_and_grad(*args, buffers={}),
                    "loss": lambda: loss(*args, 0, buffers={})}[entry]
        forward_raw = FeedforwardNet.forward_raw

        def failing_value_forward(self, layers, raw_rows, tangent_rows=None, **k):
            if tangent_rows is None:
                raise ArithmeticError("value pass failed")
            return forward_raw(self, layers, raw_rows, tangent_rows, **k)

        with monkeypatch.context() as patch:
            patch.setattr(FeedforwardNet, "forward_raw", failing_value_forward)
            with pytest.raises(ArithmeticError, match="value pass failed"):
                evaluate()
        # the lane outlives the failure
        want = serial_loss_and_grad(*args, buffers={})
        assert np.array_equal(bits(loss_and_grad(*args, buffers={})), bits(want))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork is POSIX only")
    def test_a_forked_child_gets_a_lane_of_its_own(self):
        # fork copies the executor but not its thread, so a child that queued its data
        # pass on the inherited one waited for it forever
        model, rhs, data, phys = lane_case("msd", n_data=50, n_phys=60)
        args = (model.net, model.params, data, phys, rhs)
        want = bits(loss_and_grad(*args, buffers={}))  # the lane's thread is running
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork beside a thread
            pid = os.fork()
        if pid == 0:
            os._exit(0 if np.array_equal(bits(loss_and_grad(*args, buffers={})), want) else 1)
        deadline = time.monotonic() + 30
        while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
            time.sleep(0.05)
        if not done[0]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid, "the child's evaluation did not finish within 30 s"
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_concurrent_callers_each_get_the_serial_result(self):
        # four callers on two cores share the one lane and the one net, each with its
        # own buffers, two of them with a split physics pass; a shortened switch
        # interval interleaves them often
        cases = [lane_case(plant, n_data=120, n_phys=n_phys, seed=s)
                 for plant, s, n_phys in (("arm", 1, SPLIT_ROWS), ("msd", 2, 160),
                                          ("arm", 3, 160), ("msd", 4, SPLIT_ROWS))]
        want = [bits(serial_loss_and_grad(m.net, m.params, d, p, rhs, buffers={}))
                for m, rhs, d, p in cases]
        got = [[] for _ in cases]

        def caller(k):
            model, rhs, data, phys = cases[k]
            buffers = {}
            for _ in range(15):
                got[k].append(bits(loss_and_grad(model.net, model.params, data, phys, rhs,
                                                 buffers=buffers)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, results in enumerate(got):
            assert len(results) == 15
            assert all(np.array_equal(r, want[k]) for r in results)


class TestScoredRecord:
    """``loss`` at the point that the last evaluation on its ``buffers`` scored (the same
    net, sets and rhs objects, a vector of the same bytes) returns that evaluation's
    floats; anywhere else it evaluates."""

    @pytest.mark.parametrize("plant", ["arm", "msd"])
    def test_hit_returns_the_floats_of_the_gradient_evaluation(self, plant, monkeypatch):
        model, rhs, data, phys = lane_case(plant)
        args = (model.net, model.params.copy(), data, phys, rhs)
        fresh = loss(*args, 3, buffers={})
        buffers = {}
        l_data, l_phys, l_total, _ = loss_and_grad(*args, buffers=buffers)
        with monkeypatch.context() as patch:
            forbid(patch, training, "_evaluate")
            got = loss(*args, 3, buffers=buffers)
        assert got.iteration == 3 and got.val_mse is None
        assert np.array_equal(bits(astuple(got)[1:4]), bits((l_data, l_phys, l_total)))
        assert np.array_equal(bits(astuple(got)[1:4]), bits(astuple(fresh)[1:4]))

    @pytest.mark.parametrize("move", ["nextafter_first", "nextafter_last", "negative_zero"])
    def test_a_vector_of_other_bytes_evaluates(self, move, monkeypatch):
        # -0.0 equals 0.0, yet it is another vector
        model, rhs, data, phys = lane_case("msd")
        params = model.params.copy()
        moved = params.copy()
        if move == "negative_zero":
            params[5] = 0.0
            moved[5] = -0.0
        else:
            i = 0 if move == "nextafter_first" else -1
            moved[i] = np.nextafter(moved[i], np.inf)
        buffers = {}
        loss_and_grad(model.net, params, data, phys, rhs, buffers=buffers)
        evaluations = calls_to(monkeypatch, training, "_evaluate")
        got = loss(model.net, moved, data, phys, rhs, 0, buffers=buffers)
        assert len(evaluations) == 1
        want = loss(model.net, moved, data, phys, rhs, 0, buffers={})
        assert np.array_equal(bits(astuple(got)[1:4]), bits(astuple(want)[1:4]))

    def test_a_vector_changed_in_place_evaluates(self, monkeypatch):
        # scipy's L-BFGS-B overwrites its x in place, so the record must hold a copy
        model, rhs, data, phys = lane_case("msd")
        params = model.params.copy()
        buffers = {}
        loss_and_grad(model.net, params, data, phys, rhs, buffers=buffers)
        params[7] = np.nextafter(params[7], -np.inf)
        evaluations = calls_to(monkeypatch, training, "_evaluate")
        got = loss(model.net, params, data, phys, rhs, 0, buffers=buffers)
        assert len(evaluations) == 1
        want = loss(model.net, params.copy(), data, phys, rhs, 0, buffers={})
        assert np.array_equal(bits(astuple(got)[1:4]), bits(astuple(want)[1:4]))

    @pytest.mark.parametrize("other", ["net", "data", "phys", "rhs"])
    def test_another_object_of_equal_contents_evaluates(self, other, monkeypatch):
        model, rhs, data, phys = lane_case("msd")
        args = {"net": model.net, "params": model.params, "data": data, "phys": phys,
                "rhs": rhs}
        buffers = {}
        loss_and_grad(**args, buffers=buffers)
        args[other] = {"net": lambda: copy.copy(model.net), "data": lambda: replace(data),
                       "phys": lambda: replace(phys),
                       "rhs": lambda: lambda x, u: rhs(x, u)}[other]()
        evaluations = calls_to(monkeypatch, training, "_evaluate")
        got = loss(**args, iteration=0, buffers=buffers)
        assert len(evaluations) == 1
        want = loss(**args, iteration=0, buffers={})
        assert np.array_equal(bits(astuple(got)[1:4]), bits(astuple(want)[1:4]))

    @pytest.mark.parametrize("entry", ["loss_and_grad", "loss"])
    @pytest.mark.parametrize("failing", ["lane", "caller"])
    def test_an_evaluation_that_raises_leaves_no_record(self, failing, entry):
        # the record of an earlier point stays; the point that raised has none, so a
        # loss there evaluates, and raises, again
        model, rhs, data, phys = lane_case("msd")
        caller = threading.current_thread()
        side = lambda: "caller" if threading.current_thread() is caller else "lane"

        def block_rhs(x, u):
            if side() == failing:
                raise ArithmeticError(f"{side()} block failed")
            return rhs(x, u)

        net, params = model.net, model.params
        buffers = {}
        loss_and_grad(net, 0.5 * params, data, phys, rhs, buffers=buffers)
        earlier = buffers["scored"]
        evaluate = {"loss_and_grad": lambda: loss_and_grad(net, params, data, phys, block_rhs,
                                                            buffers=buffers),
                    "loss": lambda: loss(net, params, data, phys, block_rhs, 0,
                                         buffers=buffers)}[entry]
        with pytest.raises(ArithmeticError, match=f"{failing} block failed"):
            evaluate()
        assert buffers["scored"] is earlier
        assert not earlier.at(net, params, data, phys, block_rhs)
        with pytest.raises(ArithmeticError, match=f"{failing} block failed"):
            loss(net, params, data, phys, block_rhs, 0, buffers=buffers)

    def test_train_evaluates_each_point_once(self, monkeypatch):
        # Adam, then L-BFGS, on both plants with a split pass: every evaluation is a
        # gradient evaluation, one per Adam step and one per L-BFGS objective call, and
        # the callback's loss, once per L-BFGS iteration, reads the record
        vset = make_validation_set(ARM_RHS, ARM_STATE_BOX, ARM_INPUT_BOX, 0.2, n_traj=2,
                                   n_steps=3, seed=6)
        cfg = TrainConfig(iterations=6, optimizer="adam-then-lbfgs", val_interval=2,
                          lbfgs_iterations=6)
        for plant, validation in (("arm", vset), ("msd", small_vset())):
            model, rhs, data, phys = lane_case(plant, n_data=96, seed=4)
            with monkeypatch.context() as patch:
                evaluations = calls_to(patch, training, "_evaluate")
                gradients = calls_to(patch, training, "loss_and_grad")
                losses = calls_to(patch, training, "loss")
                _, history = train(model, rhs, lambda k: (data, phys), cfg, validation)
            lbfgs_reports = len(history) - cfg.iterations
            assert lbfgs_reports > 0, plant
            assert [c["want_grad"] for c in evaluations] == [True] * len(gradients), plant
            assert len(gradients) > cfg.iterations + lbfgs_reports, plant
            assert [c["iteration"] for c in losses] == list(range(cfg.iterations,
                                                                  len(history))), plant

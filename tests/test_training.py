"""Loss, residual and trainer checks, with finite-difference gradient oracles."""

import numpy as np
import pytest

from pinnpid.model import PinnModel
from pinnpid.network import FeedforwardNet, InputScaling, NetworkSpec
from pinnpid.plants import (
    ManipulatorParams,
    MsdParams,
    manipulator_rhs,
    msd_rhs,
    msd_state_space,
    simulate_zoh,
)
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
    ValidationSet,
    fd_state_jacobian,
    loss,
    loss_and_grad,
    make_validation_set,
    physics_residual,
    train,
    validate,
)

MSD = MsdParams()
MSD_RHS = lambda x, u: msd_rhs(MSD, x, u)
STATE_BOX = Box([-2.0, -1.0], [2.0, 1.0])
INPUT_BOX = Box([-1.0], [1.0])


def msd_model(widths=(4, 16, 16, 2), seed=0, dt=0.2, eps=0.05):
    lo = np.concatenate([[0.0], STATE_BOX.lower, INPUT_BOX.lower])
    hi = np.concatenate([[dt + eps], STATE_BOX.upper, INPUT_BOX.upper])
    net = FeedforwardNet(NetworkSpec(widths), InputScaling(lo, hi), 2, 1)
    params = net.init_params(seed) if seed is not None else np.zeros(net.spec.param_count())
    return PinnModel(net=net, params=params, dt=dt, eps=eps)


def small_sets(n_data=8, n_phys=8, seed=0):
    cfg = DatasetConfig(n_data=n_data, n_phys=n_phys, dt=0.2, eps=0.05,
                        state_box=STATE_BOX, input_box=INPUT_BOX, seed=seed)
    return build_data_set(MSD_RHS, cfg), build_phys_set(cfg)


class TestPhysicsResidual:
    def test_zero_network_zero_rhs(self):
        model = msd_model(seed=None)
        zero_rhs = lambda x, u: np.zeros_like(np.atleast_2d(x))
        res = physics_residual(model, zero_rhs, np.array([0.1]), np.array([[0.3, 0.1]]),
                               np.array([[0.2]]))
        assert np.array_equal(res, np.zeros((1, 2)))

    def test_matches_finite_difference_rate(self):
        model = msd_model(seed=5)
        t, x, u = 0.12, np.array([0.4, -0.2]), np.array([0.3])
        res = physics_residual(model, MSD_RHS, np.array([t]), x[None], u[None])[0]
        h = 1e-6
        fd_rate = (model.predict(np.array([t + h]), x, u)[0]
                   - model.predict(np.array([t - h]), x, u)[0]) / (2 * h)
        expected = fd_rate - msd_rhs(MSD, model.predict(np.array([t]), x, u)[0], u)
        np.testing.assert_allclose(res, expected, rtol=1e-5, atol=1e-7)

    def test_affine_scaling_with_linear_rhs(self):
        # doubling the output layer doubles value and rate; with u = 0 the
        # residual of the linear plant doubles exactly
        model = msd_model(seed=7)
        t, x, u = np.array([0.1]), np.array([[0.2, 0.1]]), np.array([[0.0]])
        res1 = physics_residual(model, MSD_RHS, t, x, u)
        doubled = model.params.copy()
        w_sl, b_sl, _ = model.net.spec.param_slices()[-1]
        doubled[w_sl] *= 2.0
        doubled[b_sl] *= 2.0
        model2 = PinnModel(net=model.net, params=doubled, dt=model.dt, eps=model.eps)
        res2 = physics_residual(model2, MSD_RHS, t, x, u)
        np.testing.assert_allclose(res2, 2.0 * res1, rtol=1e-12)


class TestLoss:
    def test_exact_predictions_zero_data_loss(self):
        model = msd_model(seed=3)
        data, phys = small_sets()
        preds = model.net.forward_batch(model.params, data.t, data.x0, data.u)
        exact = DataSet(t=data.t, x0=data.x0, xf=preds, u=data.u)
        rep = loss(model, exact, phys, MSD_RHS)
        assert rep.l_data == pytest.approx(0.0, abs=1e-28)

    def test_hand_computed_two_samples(self):
        model = msd_model(seed=1)
        data, phys = small_sets(n_data=2, n_phys=2)
        rep = loss(model, data, phys, MSD_RHS, lambda_phys=1.0)
        preds = model.net.forward_batch(model.params, data.t, data.x0, data.u)
        by_hand = 0.5 * sum(np.sum((preds[i] - data.xf[i]) ** 2) for i in range(2))
        assert rep.l_data == pytest.approx(by_hand, rel=1e-12)
        assert rep.l_total == pytest.approx(rep.l_data + 1.0 * rep.l_phys, rel=1e-12)

    def test_lambda_weighting(self):
        model = msd_model(seed=2)
        data, phys = small_sets()
        r1 = loss(model, data, phys, MSD_RHS, lambda_phys=1.0)
        r2 = loss(model, data, phys, MSD_RHS, lambda_phys=2.5)
        assert r2.l_total == pytest.approx(r1.l_data + 2.5 * r1.l_phys, rel=1e-12)

    def test_permutation_invariance(self):
        model = msd_model(seed=4)
        data, phys = small_sets(n_data=16, n_phys=16)
        rep = loss(model, data, phys, MSD_RHS)
        perm = np.random.default_rng(0).permutation(16)
        data_p = DataSet(t=data.t[perm], x0=data.x0[perm], xf=data.xf[perm], u=data.u[perm])
        phys_p = PhysSet(t=phys.t[perm], x=phys.x[perm], u=phys.u[perm])
        rep_p = loss(model, data_p, phys_p, MSD_RHS)
        assert rep_p.l_total == pytest.approx(rep.l_total, rel=1e-12)


class TestLossGradient:
    def test_matches_finite_differences(self):
        model = msd_model(widths=(4, 6, 2), seed=11)
        data, phys = small_sets(n_data=8, n_phys=8)
        a_mat, _ = msd_state_space(MSD)
        jac = lambda x, u: np.broadcast_to(a_mat, (x.shape[0], 2, 2))
        *_, grad = loss_and_grad(model.net, model.params, data, phys, MSD_RHS, 1.0, jac)
        h = 1e-6
        fd = np.zeros_like(model.params)
        for i in range(model.params.size):
            pp, pm = model.params.copy(), model.params.copy()
            pp[i] += h
            pm[i] -= h
            mp = PinnModel(net=model.net, params=pp, dt=model.dt, eps=model.eps)
            mm = PinnModel(net=model.net, params=pm, dt=model.dt, eps=model.eps)
            fd[i] = (loss(mp, data, phys, MSD_RHS).l_total
                     - loss(mm, data, phys, MSD_RHS).l_total) / (2 * h)
        scale = np.maximum(np.abs(fd), 1e-4)
        assert np.max(np.abs(grad - fd) / scale) < 1e-4

    def test_fd_jacobian_matches_linear_plant(self):
        a_mat, _ = msd_state_space(MSD)
        x = np.random.default_rng(0).standard_normal((5, 2))
        u = np.zeros((5, 1))
        jac = fd_state_jacobian(MSD_RHS, x, u)
        for i in range(5):
            np.testing.assert_allclose(jac[i], a_mat, atol=1e-8)


class TestValidation:
    def test_oracle_standin_has_zero_error(self):
        vset = make_validation_set(MSD_RHS, STATE_BOX, INPUT_BOX, 0.2,
                                   n_traj=3, n_steps=5, seed=1, substeps=50)

        class OracleModel:
            def predict(self, taus, x, u):
                _, states = simulate_zoh(MSD_RHS, x, [u], float(np.max(taus)), 50)
                return states[-1]

        rep = validate(OracleModel(), vset)
        assert np.max(rep.mae_single) < 1e-12
        assert np.max(rep.mae_rollout) < 1e-12

    @pytest.mark.parametrize("plant", ["msd", "arm"])
    def test_batched_set_matches_per_trajectory_integration(self, plant):
        if plant == "msd":
            rhs, sbox, ibox = MSD_RHS, STATE_BOX, INPUT_BOX
        else:
            arm = ManipulatorParams()
            rhs = lambda x, u: manipulator_rhs(arm, x, u)
            sbox = Box([-np.pi, -np.pi, -2.5, -2.5], [np.pi, np.pi, 2.5, 2.5])
            ibox = Box([-0.5, -0.5], [0.5, 0.5])
        vset = make_validation_set(rhs, sbox, ibox, 0.2, n_traj=4, n_steps=3, seed=7,
                                   substeps=20)
        rng = np.random.default_rng(7)
        x0 = lhs_sample(sbox.lower, sbox.upper, 4, rng)
        u_seq = rng.uniform(ibox.lower, ibox.upper, size=(4, 3, ibox.dim))
        np.testing.assert_array_equal(vset.x0, x0)
        np.testing.assert_array_equal(vset.u_seq, u_seq)
        assert vset.truth.shape == (4, 4, sbox.dim)
        for i in range(4):
            _, states = simulate_zoh(rhs, x0[i], u_seq[i], 0.2, 20)
            if plant == "msd":
                np.testing.assert_array_equal(vset.truth[i], states[::20])
            else:
                np.testing.assert_allclose(vset.truth[i], states[::20], rtol=0, atol=1e-12)

    def test_reports_per_coordinate(self):
        model = msd_model(seed=8)
        vset = make_validation_set(MSD_RHS, STATE_BOX, INPUT_BOX, 0.2,
                                   n_traj=2, n_steps=4, seed=2, substeps=50)
        rep = validate(model, vset)
        assert rep.mae_single.shape == (2,)
        assert np.all(rep.mse_rollout >= 0)


class TestTrain:
    def test_zero_iterations_returns_model_unchanged(self):
        model = msd_model(seed=6)
        data, phys = small_sets()
        cfg = TrainConfig(iterations=0, val_interval=0)
        trained, history = train(model, MSD_RHS, lambda k: (data, phys), cfg)
        assert np.array_equal(trained.params, model.params)
        assert history == []

    def test_desk_smoke_loss_decreases(self):
        model = msd_model(widths=(4, 16, 16, 2), seed=0)
        cfg_data = DatasetConfig(n_data=256, n_phys=512, dt=0.2, eps=0.05,
                                 state_box=STATE_BOX, input_box=INPUT_BOX, seed=3)
        sets = (build_data_set(MSD_RHS, cfg_data), build_phys_set(cfg_data))
        a_mat, _ = msd_state_space(MSD)
        jac = lambda x, u: np.broadcast_to(a_mat, (x.shape[0], 2, 2))
        cfg = TrainConfig(iterations=1500, val_interval=0, lr_start=3e-3, lr_end=3e-4)
        trained, history = train(model, MSD_RHS, lambda k: sets, cfg,
                                 state_jacobian=jac)
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
                          lbfgs_iterations=150, val_interval=0)
        trained, history = train(model, MSD_RHS, lambda k: (data, phys), cfg)
        adam_end = history[199].l_total
        assert history[-1].l_total < adam_end

    def test_best_validation_checkpoint_restored(self):
        model = msd_model(widths=(4, 8, 2), seed=2)
        data, phys = small_sets(n_data=64, n_phys=64, seed=4)
        vset = make_validation_set(MSD_RHS, STATE_BOX, INPUT_BOX, 0.2,
                                   n_traj=2, n_steps=4, seed=5, substeps=50)
        cfg = TrainConfig(iterations=300, val_interval=100)
        trained, history = train(model, MSD_RHS, lambda k: (data, phys), cfg,
                                 validation=vset)
        scored = [h.val_mse for h in history if h.val_mse is not None]
        assert scored, "validation must have run"
        final = validate(trained, vset)
        assert float(np.mean(final.mse_rollout)) <= min(scored) + 1e-12

"""Loss, residual and trainer checks, with finite-difference gradient oracles."""

from dataclasses import astuple

import numpy as np
import pytest

from pinnpid import training
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
    train,
    validate,
)
from tests.reference_train import train as reference_train

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


def one_row_l_phys(model, rhs, t, x, u):
    """The physics term of ``loss`` on the one collocation row (t, x, u): the
    squared norm of that row's residual d phi/dt - rhs(phi, u)."""
    data = DataSet(t=np.array([0.1]), x0=np.zeros((1, 2)), xf=np.zeros((1, 2)),
                   u=np.zeros((1, 1)))
    phys = PhysSet(t=np.array([t]), x=np.atleast_2d(x), u=np.atleast_2d(u))
    return loss(model, data, phys, rhs).l_phys


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
        expected = fd_rate - msd_rhs(MSD, model.predict(np.array([t]), x, u)[0], u)
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
        rep = loss(model, exact, phys, MSD_RHS)
        assert rep.l_data == pytest.approx(0.0, abs=1e-28)

    def test_hand_computed_two_samples(self):
        model = msd_model(seed=1)
        data, phys = small_sets(n_data=2, n_phys=2)
        rep = loss(model, data, phys, MSD_RHS)
        preds = model.predict(data.t, data.x0, data.u)
        by_hand = 0.5 * sum(np.sum((preds[i] - data.xf[i]) ** 2) for i in range(2))
        assert rep.l_data == pytest.approx(by_hand, rel=1e-12)
        assert rep.l_total == pytest.approx(rep.l_data + training.LAMBDA_PHYS * rep.l_phys,
                                            rel=1e-12)

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
        *_, grad = loss_and_grad(model.net, model.params, data, phys, MSD_RHS)
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

    def test_buffered_call_matches_unbuffered(self):
        # one dict through two set sizes: the data rows shrink and the collocation
        # rows grow, so the second size reallocates the arrays of both passes
        model = msd_model(seed=12)
        buffers = {}
        for n_data, n_phys, seed in ((24, 40, 2), (16, 72, 6)):
            data, phys = small_sets(n_data=n_data, n_phys=n_phys, seed=seed)
            want = loss_and_grad(model.net, model.params, data, phys, MSD_RHS)
            for params in (model.params + 0.01, model.params):
                got = loss_and_grad(model.net, params, data, phys, MSD_RHS, buffers=buffers)
            assert got[:3] == want[:3]
            assert np.array_equal(got[3], want[3])
            kept = [a for sub in buffers.values() for a in sub.values()]
            assert set(buffers) == {"data", "phys"} and kept
            assert {a.shape[0] for a in buffers["data"].values()} == {n_data}
            assert not any(np.shares_memory(got[3], a) for a in kept)

    def test_fd_jacobian_matches_linear_plant(self):
        a_mat, _ = msd_state_space(MSD)
        x = np.random.default_rng(0).standard_normal((5, 2))
        u = np.zeros((5, 1))
        jac = fd_state_jacobian(MSD_RHS, x, u)
        for i in range(5):
            np.testing.assert_allclose(jac[i], a_mat, atol=1e-8)


class TestValidation:
    def test_oracle_standin_has_zero_error(self):
        vset = make_validation_set(MSD_RHS, STATE_BOX, INPUT_BOX, 0.2, n_traj=3, n_steps=5, seed=1)

        class OracleModel:
            def predict(self, taus, x, u):
                _, states = simulate_zoh(MSD_RHS, x, [u], float(np.max(taus)),
                                         training.VALIDATION_SUBSTEPS)
                return states[-1]

        rep = validate(OracleModel(), vset)
        assert np.max(rep.mse_rollout) < 1e-24

    @pytest.mark.parametrize("plant", ["msd", "arm"])
    def test_batched_set_matches_per_trajectory_integration(self, plant):
        if plant == "msd":
            rhs, sbox, ibox = MSD_RHS, STATE_BOX, INPUT_BOX
        else:
            arm = ManipulatorParams()
            rhs = lambda x, u: manipulator_rhs(arm, x, u)
            sbox = Box([-np.pi, -np.pi, -2.5, -2.5], [np.pi, np.pi, 2.5, 2.5])
            ibox = Box([-0.5, -0.5], [0.5, 0.5])
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

    def test_reports_per_coordinate(self):
        model = msd_model(seed=8)
        vset = make_validation_set(MSD_RHS, STATE_BOX, INPUT_BOX, 0.2, n_traj=2, n_steps=4, seed=2)
        rep = validate(model, vset)
        assert rep.mse_rollout.shape == (2,)
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
        cfg = TrainConfig(iterations=1500, val_interval=0)
        trained, history = train(model, MSD_RHS, lambda k: sets, cfg)
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

    def test_buffers_change_no_bit_of_training(self, monkeypatch):
        # Adam, then L-BFGS; the reference run's loss_and_grad drops the buffers it
        # is handed
        model = msd_model(widths=(4, 8, 8, 2), seed=3)
        sets = small_sets(n_data=48, n_phys=64, seed=5)
        vset = make_validation_set(MSD_RHS, STATE_BOX, INPUT_BOX, 0.2, n_traj=2, n_steps=3, seed=8)
        cfg = TrainConfig(iterations=40, optimizer="adam-then-lbfgs", val_interval=20,
                          lbfgs_iterations=30)
        runs = []
        for drop in (False, True):
            if drop:
                buffered = training.loss_and_grad
                monkeypatch.setattr(training, "loss_and_grad",
                                    lambda *a, buffers=None, **k: buffered(*a, **k))
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
            train(model, MSD_RHS, lambda k: tuple(sets), TrainConfig(iterations=4, val_interval=0))

    @pytest.mark.parametrize("fields", [
        dict(iterations=-5, val_interval=0), dict(lbfgs_iterations=-3), dict(val_interval=-5),
    ], ids=["iterations", "lbfgs_iterations", "val_interval"])
    def test_config_rejects_negative_counts(self, fields):
        # each was accepted without a word: no Adam step, no L-BFGS stage, and
        # validation on a sign-flipped modulus
        name = next(iter(fields))
        with pytest.raises(ValueError, match=rf"^{name} must not be negative"):
            TrainConfig(**fields)

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
            cfg = TrainConfig(iterations=4, val_interval=0)
        else:
            cfg = TrainConfig(iterations=0, optimizer="adam-then-lbfgs", lbfgs_iterations=5,
                              val_interval=0)
        with pytest.raises(training.TrainingDiverged) as info:
            train(model, rhs, lambda k: (data, phys), cfg)
        assert info.value.iteration == 0
        assert info.value.last_report is None

    def test_lbfgs_divergence_keeps_the_adam_stage_report(self, monkeypatch):
        # the rhs turns NaN once the two Adam steps are done, so the first L-BFGS
        # evaluation diverges with the Adam stage's last report in hand
        model = msd_model(widths=(4, 8, 2), seed=1)
        data, phys = small_sets()
        _, adam_history = train(model, MSD_RHS, lambda k: (data, phys),
                                TrainConfig(iterations=2, val_interval=0))
        steps = []
        adam_step = training.adam_step

        def counting_adam_step(*args, **kwargs):
            steps.append(1)
            return adam_step(*args, **kwargs)

        monkeypatch.setattr(training, "adam_step", counting_adam_step)
        rhs = lambda x, u: MSD_RHS(x, u) if len(steps) < 2 else np.full(np.shape(x), np.nan)
        cfg = TrainConfig(iterations=2, optimizer="adam-then-lbfgs", lbfgs_iterations=5,
                          val_interval=0)
        with pytest.raises(training.TrainingDiverged, match="L-BFGS") as info:
            train(model, rhs, lambda k: (data, phys), cfg)
        assert info.value.iteration == 2
        assert info.value.last_report == adam_history[-1]

    def test_best_validation_checkpoint_restored(self):
        model = msd_model(widths=(4, 8, 2), seed=2)
        data, phys = small_sets(n_data=64, n_phys=64, seed=4)
        vset = make_validation_set(MSD_RHS, STATE_BOX, INPUT_BOX, 0.2, n_traj=2, n_steps=4, seed=5)
        cfg = TrainConfig(iterations=300, val_interval=100)
        trained, history = train(model, MSD_RHS, lambda k: (data, phys), cfg,
                                 validation=vset)
        scored = [h.val_mse for h in history if h.val_mse is not None]
        assert scored, "validation must have run"
        final = validate(trained, vset)
        assert float(np.mean(final.mse_rollout)) <= min(scored) + 1e-12


def nan_after(calls):
    """The MSD rhs for its first ``calls`` calls, NaN from then on."""
    count = []

    def faulty(x, u):
        count.append(1)
        return MSD_RHS(x, u) if len(count) <= calls else np.full(np.shape(x), np.nan)

    return faulty


class TestTrainMatchesReference:
    """``train`` against the frozen two-stage trainer in reference_train.py, bit for bit."""

    def runs(self, cfg, rhs_factory=lambda: MSD_RHS):
        """(params, history) of train and of the reference, or the TrainingDiverged of each."""
        model = msd_model(widths=(4, 8, 8, 2), seed=3)
        sets = small_sets(n_data=48, n_phys=64, seed=5)
        vset = make_validation_set(MSD_RHS, STATE_BOX, INPUT_BOX, 0.2, n_traj=2, n_steps=3, seed=8)
        out = []
        for fn in (train, reference_train):
            try:
                trained, history = fn(model, rhs_factory(), lambda k: sets, cfg,
                                      validation=vset)
                out.append((trained.params, history))
            except training.TrainingDiverged as exc:
                out.append(exc)
        return out

    @pytest.mark.parametrize("cfg", [
        TrainConfig(iterations=40, val_interval=10),
        TrainConfig(iterations=40, optimizer="adam-then-lbfgs", val_interval=10,
                    lbfgs_iterations=30),
        TrainConfig(iterations=0, optimizer="adam-then-lbfgs", val_interval=0,
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
        cfg = TrainConfig(iterations=0, val_interval=0)
        (got_params, got), (want_params, want) = self.runs(cfg)
        assert got == want == []
        assert got_params.tobytes() == want_params.tobytes() == msd_model(
            widths=(4, 8, 8, 2), seed=3).params.tobytes()

    @pytest.mark.parametrize("stage, calls", [("Adam", 15), ("L-BFGS", 30)])
    def test_divergence(self, stage, calls, monkeypatch):
        # with the exact Jacobian in place of the central difference, the rhs runs once
        # per Adam step and once per L-BFGS evaluation and callback; it turns NaN after
        # ``calls`` of them
        cfg = TrainConfig(iterations=20, optimizer="adam-then-lbfgs", val_interval=5,
                          lbfgs_iterations=30)
        a_mat, _ = msd_state_space(MSD)
        monkeypatch.setattr(training, "fd_state_jacobian",
                            lambda rhs, x, u: np.broadcast_to(a_mat, (x.shape[0], 2, 2)))
        got, want = self.runs(cfg, lambda: nan_after(calls))
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

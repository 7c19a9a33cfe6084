"""Training of the transition surrogate on the composite data + physics loss.

The loss is the mean squared data mismatch plus lambda times the mean
squared physics residual (surrogate time derivative minus the nominal
right-hand side evaluated at the surrogate output). Gradients flow through
the network's dual reverse pass; the residual's dependence on the predicted
state enters via the plant Jacobian. Default optimizer is full-batch Adam
with a cosine-decayed learning rate; L-BFGS (scipy) is available as a
refinement stage. The returned parameters are the best-validation iterate,
scored by self-loop rollout MSE against held-out RK4 trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from pinnpid.gainopt import AdamConfig, AdamState, adam_step
from pinnpid.model import PinnModel
from pinnpid.plants import simulate_zoh
from pinnpid.sampling import DataSet, PhysSet, lhs_sample


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries a diagnostic snapshot."""

    def __init__(self, message, iteration=None, last_report=None):
        super().__init__(message)
        self.iteration = iteration
        self.last_report = last_report


@dataclass
class TrainConfig:
    iterations: int = 10000
    lambda_phys: float = 1.0
    optimizer: str = "adam"  # adam | lbfgs | adam-then-lbfgs
    lr_start: float = 1e-3
    lr_end: float = 1e-4
    regen_interval: int = 0  # 0 disables dataset regeneration
    val_interval: int = 250
    lbfgs_iterations: int = 500
    lbfgs_memory: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.lambda_phys <= 0:
            raise ValueError("lambda must be positive")
        if self.optimizer not in ("adam", "lbfgs", "adam-then-lbfgs"):
            raise ValueError(f"unknown optimizer '{self.optimizer}'")
        if self.regen_interval and self.iterations % self.regen_interval:
            raise ValueError("regeneration interval must divide total iterations")
        if self.val_interval and self.iterations % self.val_interval:
            raise ValueError("validation interval must divide total iterations")


@dataclass
class LossReport:
    iteration: int
    l_data: float
    l_phys: float
    l_total: float
    val_mse: float | None = None
    val_mae: float | None = None


@dataclass
class ValidationSet:
    """Held-out RK4 truth: initial states, ZOH input sequences, dt-strided states."""

    x0: np.ndarray
    u_seq: np.ndarray
    truth: np.ndarray
    dt: float


@dataclass
class ValidationReport:
    mae_single: np.ndarray
    mse_single: np.ndarray
    mae_rollout: np.ndarray
    mse_rollout: np.ndarray


def fd_state_jacobian(rhs, x, u, h=1e-6):
    """Batched central-difference Jacobian of rhs w.r.t. the state."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    jac = np.empty(x.shape + (n,))
    for j in range(n):
        dx = np.zeros_like(x)
        dx[..., j] = h
        jac[..., j] = (rhs(x + dx, u) - rhs(x - dx, u)) / (2.0 * h)
    return jac


def physics_residual(model: PinnModel, rhs, t, x, u) -> np.ndarray:
    """Phi = d phi/dt - f(phi, u) at the collocation points; shape (N, n)."""
    values, rates = model.net.value_and_time_derivative(model.params, t, x, u)
    return rates - rhs(values, np.atleast_2d(u))


def loss(model: PinnModel, data: DataSet, phys: PhysSet, rhs,
         lambda_phys: float = 1.0, iteration: int = 0) -> LossReport:
    preds = model.net.forward_batch(model.params, data.t, data.x0, data.u)
    l_data = float(np.mean(np.sum((preds - data.xf) ** 2, axis=1)))
    residual = physics_residual(model, rhs, phys.t, phys.x, phys.u)
    l_phys = float(np.mean(np.sum(residual**2, axis=1)))
    return LossReport(
        iteration=iteration,
        l_data=l_data,
        l_phys=l_phys,
        l_total=l_data + lambda_phys * l_phys,
    )


def loss_and_grad(net, params, data: DataSet, phys: PhysSet, rhs,
                  lambda_phys: float, state_jacobian=None):
    """One fused evaluation of the composite loss and its parameter gradient."""
    # data term
    rows_d = net.stack_rows(data.t, data.x0, data.u)
    preds, _, tape_d = net.forward_raw(params, rows_d, want_tape=True)
    res_d = preds - data.xf
    n_data = res_d.shape[0]
    l_data = float(np.mean(np.sum(res_d**2, axis=1)))
    grad_d, _ = net.backward_raw(params, tape_d, (2.0 / n_data) * res_d)
    # physics term
    rows_p = net.stack_rows(phys.t, phys.x, phys.u)
    values, rates, tape_p = net.forward_raw(
        params, rows_p, net.time_tangent_rows(rows_p.shape[0]), want_tape=True
    )
    u2 = np.atleast_2d(phys.u)
    residual = rates - rhs(values, u2)
    n_phys = residual.shape[0]
    l_phys = float(np.mean(np.sum(residual**2, axis=1)))
    cot_rate = (2.0 / n_phys) * residual
    if state_jacobian is None:
        jac = fd_state_jacobian(rhs, values, u2)
    else:
        jac = state_jacobian(values, u2)
    cot_value = -np.einsum("nij,ni->nj", jac, cot_rate)
    grad_p, _ = net.backward_raw(params, tape_p, cot_value, cot_rate)
    l_total = l_data + lambda_phys * l_phys
    return l_data, l_phys, l_total, grad_d + lambda_phys * grad_p


def make_validation_set(rhs, state_box, input_box, dt, n_traj, n_steps,
                        seed, substeps=200) -> ValidationSet:
    """Random ZOH trajectories integrated finely enough to serve as truth.

    All trajectories are integrated together as one batch.
    """
    rng = np.random.default_rng(seed)
    x0 = lhs_sample(state_box.lower, state_box.upper, n_traj, rng)
    u_seq = rng.uniform(
        input_box.lower, input_box.upper, size=(n_traj, n_steps, input_box.dim)
    )
    _, states = simulate_zoh(rhs, x0, u_seq.transpose(1, 0, 2), dt, substeps)
    truth = states[::substeps].transpose(1, 0, 2).copy()
    return ValidationSet(x0=x0, u_seq=u_seq, truth=truth, dt=dt)


def validate(model, vset: ValidationSet) -> ValidationReport:
    """Single-step and recurrent self-loop errors per state coordinate."""
    n_traj, n_steps = vset.u_seq.shape[:2]
    taus = np.full(n_traj, vset.dt)
    single_err = []
    roll_err = []
    x_roll = vset.x0.copy()
    for k in range(n_steps):
        pred_single = model.predict(taus, vset.truth[:, k, :], vset.u_seq[:, k, :])
        single_err.append(pred_single - vset.truth[:, k + 1, :])
        x_roll = model.predict(taus, x_roll, vset.u_seq[:, k, :])
        roll_err.append(x_roll - vset.truth[:, k + 1, :])
    single = np.concatenate(single_err, axis=0)
    roll = np.concatenate(roll_err, axis=0)
    return ValidationReport(
        mae_single=np.mean(np.abs(single), axis=0),
        mse_single=np.mean(single**2, axis=0),
        mae_rollout=np.mean(np.abs(roll), axis=0),
        mse_rollout=np.mean(roll**2, axis=0),
    )


def train(model: PinnModel, rhs, data_generator, config: TrainConfig,
          validation: ValidationSet | None = None, state_jacobian=None):
    """Minimize the composite loss; returns (trained model, LossReport history).

    ``data_generator(round_index)`` supplies (DataSet, PhysSet); it is called
    again at every regeneration boundary. The best-validation parameter
    vector (self-loop rollout MSE) is restored before returning.
    """
    net = model.net
    params = model.params.copy()
    history: list[LossReport] = []
    best = (np.inf, params.copy())
    data, phys = data_generator(0)

    def run_validation(pvec, iteration, report):
        nonlocal best
        probe = PinnModel(net=net, params=pvec, dt=model.dt, eps=model.eps)
        vrep = validate(probe, validation)
        report.val_mse = float(np.mean(vrep.mse_rollout))
        report.val_mae = float(np.mean(vrep.mae_rollout))
        if report.val_mse < best[0]:
            best = (report.val_mse, pvec.copy())

    if config.iterations > 0 and config.optimizer in ("adam", "adam-then-lbfgs"):
        state = AdamState.zeros(params.shape)
        for it in range(config.iterations):
            if config.regen_interval and it > 0 and it % config.regen_interval == 0:
                data, phys = data_generator(it // config.regen_interval)
            l_data, l_phys, l_total, grad = loss_and_grad(
                net, params, data, phys, rhs, config.lambda_phys, state_jacobian
            )
            report = LossReport(it, l_data, l_phys, l_total)
            if not np.isfinite(l_total):
                raise TrainingDiverged(
                    f"non-finite loss at iteration {it}", it,
                    history[-1] if history else None,
                )
            frac = it / max(config.iterations - 1, 1)
            alpha = config.lr_end + 0.5 * (config.lr_start - config.lr_end) * (
                1.0 + np.cos(np.pi * frac)
            )
            params, state = adam_step(
                state, grad, params, AdamConfig(alpha=alpha)
            )
            if validation is not None and config.val_interval and (
                (it + 1) % config.val_interval == 0
            ):
                run_validation(params, it, report)
            history.append(report)

    if config.optimizer in ("lbfgs", "adam-then-lbfgs") and config.lbfgs_iterations > 0:
        it_counter = [len(history)]

        def objective(pvec):
            l_data, l_phys, l_total, grad = loss_and_grad(
                net, pvec, data, phys, rhs, config.lambda_phys, state_jacobian
            )
            if not np.isfinite(l_total):
                raise TrainingDiverged("non-finite loss in L-BFGS stage", it_counter[0])
            return l_total, grad

        def callback(pvec):
            l_rep = loss(
                PinnModel(net=net, params=pvec, dt=model.dt, eps=model.eps),
                data, phys, rhs, config.lambda_phys, it_counter[0],
            )
            if validation is not None and config.val_interval and (
                (it_counter[0] + 1) % config.val_interval == 0
            ):
                run_validation(pvec, it_counter[0], l_rep)
            history.append(l_rep)
            it_counter[0] += 1

        result = scipy.optimize.minimize(
            objective, params, jac=True, method="L-BFGS-B",
            options={"maxiter": config.lbfgs_iterations,
                     "maxcor": config.lbfgs_memory},
            callback=callback,
        )
        params = result.x

    if validation is not None:
        final = PinnModel(net=net, params=params, dt=model.dt, eps=model.eps)
        vrep = validate(final, validation)
        if float(np.mean(vrep.mse_rollout)) < best[0]:
            best = (float(np.mean(vrep.mse_rollout)), params.copy())
        params = best[1]

    trained = PinnModel(net=net, params=params, dt=model.dt, eps=model.eps)
    return trained, history

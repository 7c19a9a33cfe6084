"""Training of the transition surrogate on the composite data + physics loss.

The loss is the mean squared data mismatch plus ``LAMBDA_PHYS`` times the
mean squared physics residual (surrogate time derivative minus the nominal
right-hand side evaluated at the surrogate output). Gradients flow through
the network's dual reverse pass; the residual's dependence on the predicted
state enters via the plant Jacobian, a central difference with step
``FD_STEP``. Default optimizer is full-batch Adam with a learning rate
cosine-decayed from ``LR_START`` to ``LR_END``; L-BFGS-B (scipy, default
memory) refines its result when ``lbfgs_iterations`` is positive. Both
stages fit one data set and one collocation set. The returned parameters
are the best-validation iterate, scored by self-loop rollout MSE against
held-out RK4 trajectories. ``loss`` and ``loss_and_grad`` share the loss's
two forward passes (``_forward``); the latter adds their reverse sweeps.

Both stages share one path in ``train``: an evaluation that raises
:class:`TrainingDiverged` on a non-finite loss or gradient, a record step
that validates every ``val_interval``-th report and appends it, and a score
step that keeps the best-validation parameters, for the final iterate too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from pinnpid.adam import AdamConfig, AdamState, adam_step
from pinnpid.model import PinnModel
from pinnpid.plants import simulate_zoh
from pinnpid.sampling import DataSet, PhysSet, lhs_sample

FD_STEP = 1e-6  # central-difference step of the state Jacobian
LAMBDA_PHYS = 1.0  # weight of the physics residual term in the loss
LR_START = 1e-3  # Adam learning rate at the first iteration ...
LR_END = 1e-4  # ... cosine-decayed to this one at the last
VALIDATION_SUBSTEPS = 200  # RK4 steps per dt of the validation truth


class TrainingDiverged(RuntimeError):
    """Loss or its gradient became non-finite; carries a diagnostic snapshot."""

    def __init__(self, message, iteration=None, last_report=None):
        super().__init__(message)
        self.iteration = iteration
        self.last_report = last_report


@dataclass
class TrainConfig:
    iterations: int = 10000
    optimizer: str = "adam"  # "adam-then-lbfgs" iff lbfgs_iterations > 0
    val_interval: int = 250  # 0 disables validation during training
    lbfgs_iterations: int = 0  # L-BFGS runs iff this is positive

    def __post_init__(self):
        for name in ("iterations", "val_interval", "lbfgs_iterations"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        expected = "adam-then-lbfgs" if self.lbfgs_iterations > 0 else "adam"
        if self.optimizer != expected:
            raise ValueError(f"optimizer '{self.optimizer}' with lbfgs_iterations = "
                             f"{self.lbfgs_iterations}; expected '{expected}'")
        if self.val_interval and self.iterations % self.val_interval:
            raise ValueError("validation interval must divide total iterations")


@dataclass
class LossReport:
    iteration: int
    l_data: float
    l_phys: float
    l_total: float
    val_mse: float | None = None


@dataclass
class ValidationSet:
    """Held-out RK4 truth: initial states, ZOH input sequences, dt-strided states."""

    x0: np.ndarray
    u_seq: np.ndarray
    truth: np.ndarray
    dt: float


@dataclass
class ValidationReport:
    mse_rollout: np.ndarray


def fd_state_jacobian(rhs, x, u):
    """Batched central-difference Jacobian of rhs w.r.t. the state, step ``FD_STEP``."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    jac = np.empty(x.shape + (n,))
    for j in range(n):
        dx = np.zeros_like(x)
        dx[..., j] = FD_STEP
        jac[..., j] = (rhs(x + dx, u) - rhs(x - dx, u)) / (2.0 * FD_STEP)
    return jac


def _forward(net, params, data: DataSet, phys: PhysSet, rhs, buffers=None):
    """Data pass and dual physics pass: (l_data, l_phys) and what the reverse
    sweeps read, (data residual, tape, physics residual, predicted states,
    inputs, tape). ``buffers`` is as in ``loss_and_grad``."""
    buf_d = buf_p = None
    if buffers is not None:
        buf_d = buffers.setdefault("data", {})
        buf_p = buffers.setdefault("phys", {})
    rows_d = net.stack_rows(data.t, data.x0, data.u)
    preds, _, tape_d = net.forward_raw(params, rows_d, buffers=buf_d)
    res_d = preds - data.xf
    l_data = float(np.mean(np.sum(res_d**2, axis=1)))
    rows_p = net.stack_rows(phys.t, phys.x, phys.u)
    values, rates, tape_p = net.forward_raw(
        params, rows_p, net.time_tangent_rows(rows_p.shape[0]), buffers=buf_p
    )
    u2 = np.atleast_2d(phys.u)
    residual = rates - rhs(values, u2)
    l_phys = float(np.mean(np.sum(residual**2, axis=1)))
    return l_data, l_phys, res_d, tape_d, residual, values, u2, tape_p


def loss(model: PinnModel, data: DataSet, phys: PhysSet, rhs, iteration: int = 0) -> LossReport:
    l_data, l_phys, *_ = _forward(model.net, model.params, data, phys, rhs)
    return LossReport(iteration, l_data, l_phys, l_data + LAMBDA_PHYS * l_phys)


def loss_and_grad(net, params, data: DataSet, phys: PhysSet, rhs, *, buffers=None):
    """One fused evaluation of the composite loss and its parameter gradient.

    ``buffers`` is a dict the caller keeps across calls; the data and the
    physics pass each keep their row-sized arrays in a sub-dict of it (see
    the ``network`` module docstring). Nothing returned aliases a buffer.
    """
    l_data, l_phys, res_d, tape_d, residual, values, u2, tape_p = _forward(
        net, params, data, phys, rhs, buffers
    )
    buf_d, buf_p = (None, None) if buffers is None else (buffers["data"], buffers["phys"])
    grad_d, _ = net.backward_raw(params, tape_d, (2.0 / res_d.shape[0]) * res_d, buffers=buf_d)
    cot_rate = (2.0 / residual.shape[0]) * residual
    jac = fd_state_jacobian(rhs, values, u2)
    cot_value = -np.einsum("nij,ni->nj", jac, cot_rate)
    grad_p, _ = net.backward_raw(params, tape_p, cot_value, cot_rate, buffers=buf_p)
    l_total = l_data + LAMBDA_PHYS * l_phys
    return l_data, l_phys, l_total, grad_d + LAMBDA_PHYS * grad_p


def _check_finite_sets(data: DataSet, phys: PhysSet) -> None:
    """Raise ValueError naming the set and its count of rows with a non-finite entry."""
    for name, columns in (("data set", (data.t, data.x0, data.xf, data.u)),
                          ("collocation set", (phys.t, phys.x, phys.u))):
        bad = np.zeros(len(columns[0]), dtype=bool)
        for col in columns:
            finite = np.isfinite(col)
            bad |= ~(finite if finite.ndim == 1 else finite.all(axis=1))
        if bad.any():
            raise ValueError(f"{name} has {int(bad.sum())} rows with non-finite entries")


def make_validation_set(rhs, state_box, input_box, dt, n_traj, n_steps, seed) -> ValidationSet:
    """Random ZOH trajectories integrated finely enough to serve as truth.

    All trajectories are integrated together as one batch, with
    ``VALIDATION_SUBSTEPS`` RK4 steps per dt.
    """
    rng = np.random.default_rng(seed)
    x0 = lhs_sample(state_box.lower, state_box.upper, n_traj, rng)
    u_seq = rng.uniform(
        input_box.lower, input_box.upper, size=(n_traj, n_steps, input_box.dim)
    )
    _, states = simulate_zoh(rhs, x0, u_seq.transpose(1, 0, 2), dt, VALIDATION_SUBSTEPS)
    truth = states[::VALIDATION_SUBSTEPS].transpose(1, 0, 2).copy()
    return ValidationSet(x0=x0, u_seq=u_seq, truth=truth, dt=dt)


def validate(model, vset: ValidationSet) -> ValidationReport:
    """Recurrent self-loop errors per state coordinate."""
    n_traj, n_steps = vset.u_seq.shape[:2]
    taus = np.full(n_traj, vset.dt)
    roll_err = []
    x_roll = vset.x0.copy()
    for k in range(n_steps):
        x_roll = model.predict(taus, x_roll, vset.u_seq[:, k, :])
        roll_err.append(x_roll - vset.truth[:, k + 1, :])
    roll = np.concatenate(roll_err, axis=0)
    return ValidationReport(mse_rollout=np.mean(roll**2, axis=0))


def train(model: PinnModel, rhs, data_generator, config: TrainConfig,
          validation: ValidationSet | None = None):
    """Minimize the composite loss; returns (trained model, LossReport history).

    ``data_generator(0)``, called once, supplies the (DataSet, PhysSet) that
    both stages fit; a set with a non-finite row raises ValueError. The
    best-validation parameter vector (self-loop rollout MSE) is restored
    before returning.
    """
    net = model.net
    params = model.params.copy()
    history: list[LossReport] = []
    best = [np.inf, params.copy()]  # lowest validation rollout MSE and its parameters
    data, phys = data_generator(0)
    _check_finite_sets(data, phys)
    buffers = {}  # row-sized arrays of both passes, reused by every iteration

    def evaluate(pvec, stage):
        l_data, l_phys, l_total, grad = loss_and_grad(net, pvec, data, phys, rhs,
                                                      buffers=buffers)
        if not np.isfinite(l_total) or not np.all(np.isfinite(grad)):
            raise TrainingDiverged(
                f"non-finite loss or gradient in the {stage} stage at iteration {len(history)}",
                len(history), history[-1] if history else None,
            )
        return l_data, l_phys, l_total, grad

    def score(pvec):
        vrep = validate(PinnModel(net=net, params=pvec, dt=model.dt, eps=model.eps), validation)
        mse = float(np.mean(vrep.mse_rollout))
        if mse < best[0]:
            best[:] = mse, pvec.copy()
        return mse

    def record(pvec, report):
        if validation is not None and config.val_interval and (
            (report.iteration + 1) % config.val_interval == 0
        ):
            report.val_mse = score(pvec)
        history.append(report)

    state = AdamState.zeros(params.shape)
    for it in range(config.iterations):
        l_data, l_phys, l_total, grad = evaluate(params, "Adam")
        frac = it / max(config.iterations - 1, 1)
        alpha = LR_END + 0.5 * (LR_START - LR_END) * (1.0 + np.cos(np.pi * frac))
        params, state = adam_step(state, grad, params, AdamConfig(alpha=alpha))
        record(params, LossReport(it, l_data, l_phys, l_total))

    if config.lbfgs_iterations > 0:
        def objective(pvec):
            _, _, l_total, grad = evaluate(pvec, "L-BFGS")
            return l_total, grad

        def callback(pvec):
            probe = PinnModel(net=net, params=pvec, dt=model.dt, eps=model.eps)
            record(pvec, loss(probe, data, phys, rhs, len(history)))

        params = scipy.optimize.minimize(
            objective, params, jac=True, method="L-BFGS-B",
            options={"maxiter": config.lbfgs_iterations}, callback=callback,
        ).x

    if validation is not None:
        score(params)
        params = best[1]

    trained = PinnModel(net=net, params=params, dt=model.dt, eps=model.eps)
    return trained, history

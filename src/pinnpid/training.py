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
Validation always runs, since ``train`` requires a validation set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from pinnpid.adam import AdamConfig, AdamState, adam_step
from pinnpid.model import PinnModel
from pinnpid.pid import check_shapes
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


@dataclass(frozen=True)
class TrainConfig:
    iterations: int
    val_interval: int  # validate every val_interval-th report
    optimizer: str = "adam"  # "adam-then-lbfgs" iff lbfgs_iterations > 0
    lbfgs_iterations: int = 0  # L-BFGS runs iff this is positive

    def __post_init__(self):
        for name, least in (("iterations", 0), ("val_interval", 1), ("lbfgs_iterations", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        expected = "adam-then-lbfgs" if self.lbfgs_iterations > 0 else "adam"
        if self.optimizer != expected:
            raise ValueError(f"optimizer '{self.optimizer}' with lbfgs_iterations = "
                             f"{self.lbfgs_iterations}; expected '{expected}'")
        if self.iterations % self.val_interval:
            raise ValueError("validation interval must divide total iterations")


@dataclass
class LossReport:
    """One iteration's losses and, where taken, validation rollout MSE. An Adam
    report holds the losses of the parameters before its step and the ``val_mse``
    of those after it; an L-BFGS report scores one accepted iterate for both."""

    iteration: int
    l_data: float
    l_phys: float
    l_total: float
    val_mse: float | None = field(default=None, init=False)


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
    """Batched central-difference Jacobian of rhs w.r.t. the state, step ``FD_STEP``.

    Each column j moves only x_j, in one working copy of ``x`` that is
    restored after the column; the other entries are passed exactly as in
    ``x``. ``rhs`` must return a new array, not a view of its state argument.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    jac = np.empty(x.shape + (n,))
    xs = x.copy()
    for j in range(n):
        np.add(x[..., j], FD_STEP, out=xs[..., j])
        diff = rhs(xs, u)
        np.subtract(x[..., j], FD_STEP, out=xs[..., j])
        diff -= rhs(xs, u)
        xs[..., j] = x[..., j]
        np.divide(diff, 2.0 * FD_STEP, out=jac[..., j])
    return jac


def _forward(net, layers, data: DataSet, phys: PhysSet, rhs, buffers):
    """Data pass and dual physics pass through ``layers``: (l_data, l_phys)
    and what the reverse sweeps read, (data residual, tape, physics residual,
    predicted states, tape). ``buffers`` is as in ``loss_and_grad``."""
    buf_d, buf_p = buffers.setdefault("data", {}), buffers.setdefault("phys", {})
    rows_d = net.stack_rows(data.t, data.x0, data.u)
    preds, _, tape_d = net.forward_raw(layers, rows_d, buffers=buf_d)
    res_d = preds - data.xf
    l_data = float(np.mean(np.sum(res_d**2, axis=1)))
    rows_p = net.stack_rows(phys.t, phys.x, phys.u)
    values, rates, tape_p = net.forward_raw(
        layers, rows_p, net.time_tangent_rows(rows_p.shape[0]), buffers=buf_p
    )
    residual = rates - rhs(values, phys.u)
    l_phys = float(np.mean(np.sum(residual**2, axis=1)))
    return l_data, l_phys, res_d, tape_d, residual, values, tape_p


def loss(net, params, data: DataSet, phys: PhysSet, rhs, iteration: int, *, buffers):
    """The composite loss as the report of ``iteration`` (floats only); ``buffers``
    is as in ``loss_and_grad``."""
    l_data, l_phys, *_ = _forward(net, net.unpack(params), data, phys, rhs, buffers)
    return LossReport(iteration, l_data, l_phys, l_data + LAMBDA_PHYS * l_phys)


def loss_and_grad(net, params, data: DataSet, phys: PhysSet, rhs, *, buffers):
    """One fused evaluation of the composite loss and its parameter gradient.

    ``buffers`` is a dict the caller keeps across calls; the data and the
    physics pass each keep their row-sized arrays in a sub-dict of it (see
    the ``network`` module docstring). Nothing returned aliases a buffer.
    """
    layers = net.unpack(params)
    l_data, l_phys, res_d, tape_d, residual, values, tape_p = _forward(
        net, layers, data, phys, rhs, buffers
    )
    buf_d, buf_p = buffers["data"], buffers["phys"]
    grad_d, _ = net.backward_raw(layers, tape_d, (2.0 / res_d.shape[0]) * res_d, buffers=buf_d)
    cot_rate = (2.0 / residual.shape[0]) * residual
    jac = fd_state_jacobian(rhs, values, phys.u)
    cot_value = -np.einsum("nij,ni->nj", jac, cot_rate)
    grad_p, _ = net.backward_raw(layers, tape_p, cot_value, cot_rate, buffers=buf_p)
    l_total = l_data + LAMBDA_PHYS * l_phys
    return l_data, l_phys, l_total, grad_d + LAMBDA_PHYS * grad_p


def _check_finite_sets(data: DataSet, phys: PhysSet) -> None:
    """Raise ValueError naming the set and its count of rows with a non-finite entry."""
    for name, columns in (("data set", (data.t, data.x0, data.xf, data.u)),
                          ("collocation set", (phys.t, phys.x, phys.u))):
        bad = ~np.isfinite(np.column_stack(columns)).all(axis=1)
        if bad.any():
            raise ValueError(f"{name} has {int(bad.sum())} rows with non-finite entries")


def make_validation_set(rhs, state_box, input_box, dt, n_traj, n_steps, seed) -> ValidationSet:
    """Random ZOH trajectories integrated finely enough to serve as truth.

    All trajectories are integrated together as one batch, with
    ``VALIDATION_SUBSTEPS`` RK4 steps per dt. ValueError comes before any draw
    unless the input box is finite and each trajectory takes a step.
    """
    if not (np.isfinite(input_box.lower).all() and np.isfinite(input_box.upper).all()):
        raise ValueError("validation inputs need a finite input box")
    if n_steps < 1:
        raise ValueError(f"validation needs n_steps >= 1, got {n_steps}")
    rng = np.random.default_rng(seed)
    x0 = lhs_sample(state_box.lower, state_box.upper, n_traj, rng)
    u_seq = rng.uniform(
        input_box.lower, input_box.upper, size=(n_traj, n_steps, input_box.dim)
    )
    _, states = simulate_zoh(rhs, x0, u_seq.transpose(1, 0, 2), dt, VALIDATION_SUBSTEPS)
    truth = states[::VALIDATION_SUBSTEPS].transpose(1, 0, 2).copy()
    return ValidationSet(x0=x0, u_seq=u_seq, truth=truth, dt=dt)


def _check_validation_set(model, vset: ValidationSet) -> list[np.ndarray]:
    """``vset``'s (u_seq, x0, truth) as float arrays, if ``validate`` accepts them."""
    if vset.dt != model.dt:  # the step the surrogate was trained for
        raise ValueError(f"validation set steps {vset.dt}, the surrogate {model.dt}")
    n_traj, n_steps = (*np.shape(vset.u_seq), 0, 0)[:2]  # u_seq fails first unless 3-D
    for size, what in ((n_steps, "a step"), (n_traj, "a trajectory")):
        if size < 1:  # else the rollout has no error to average
            raise ValueError(f"u_seq has shape {np.shape(vset.u_seq)}, validation needs {what}")
    arrays = check_shapes(u_seq=(vset.u_seq, (n_traj, n_steps, model.m)),
                          x0=(vset.x0, (n_traj, model.n)),
                          truth=(vset.truth, (n_traj, n_steps + 1, model.n)))
    for name, arr in zip(("u_seq", "x0", "truth"), arrays):
        if not np.isfinite(arr).all():  # else every score is NaN and none is the best
            raise ValueError(f"{name} has non-finite entries, validation cannot score them")
    return arrays


def validate(model, vset: ValidationSet) -> ValidationReport:
    """Self-loop errors per state coordinate; ValueError unless ``vset`` steps ``model.dt``
    and has finite u_seq, x0, truth of shapes (N, S, m), (N, n), (N, S + 1, n), N, S >= 1."""
    u_seq, x_roll, truth = _check_validation_set(model, vset)
    taus = np.full(x_roll.shape[0], vset.dt)
    roll_err = []
    for k in range(u_seq.shape[1]):
        x_roll = model.predict(taus, x_roll, u_seq[:, k, :])
        roll_err.append(x_roll - truth[:, k + 1, :])
    return ValidationReport(mse_rollout=np.mean(np.concatenate(roll_err) ** 2, axis=0))


def train(model: PinnModel, rhs, data_generator, config: TrainConfig,
          validation: ValidationSet):
    """Minimize the composite loss; returns (trained model, LossReport history).

    ``data_generator(0)``, called once, supplies the (DataSet, PhysSet) that both
    stages fit; a column of another row count or width than the model's, a set with
    a non-finite row and a ``validation`` set that ``validate`` refuses each raise
    ValueError before the first iteration. Every ``config.val_interval``-th report
    and the final iterate are validated, and the best-validation parameter vector
    (self-loop rollout MSE) is returned. Adam reports hold the losses before each
    step and the ``val_mse`` after it; L-BFGS reports score each accepted iterate
    for both.
    """
    net = model.net
    params = model.params.copy()
    history: list[LossReport] = []
    best = [np.inf, params.copy()]  # lowest validation rollout MSE and its parameters
    data, phys = data_generator(0)
    rows = np.shape(data.x0)[:1]  # else a column broadcasts in _forward or fails unnamed
    check_shapes(t=(data.t, rows), x0=(data.x0, (*rows, model.n)),
                 xf=(data.xf, (*rows, model.n)), u=(data.u, (*rows, model.m)))
    rows = np.shape(phys.x)[:1]  # its t and u named apart from the data set's
    check_shapes(**{"phys.t": (phys.t, rows), "phys.x": (phys.x, (*rows, model.n)),
                    "phys.u": (phys.u, (*rows, model.m))})
    _check_finite_sets(data, phys)
    _check_validation_set(model, validation)  # else validate refuses it late
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
        if (report.iteration + 1) % config.val_interval == 0:
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
            record(pvec, loss(net, pvec, data, phys, rhs, len(history), buffers=buffers))

        params = scipy.optimize.minimize(
            objective, params, jac=True, method="L-BFGS-B",
            options={"maxiter": config.lbfgs_iterations}, callback=callback,
        ).x

    score(params)
    params = best[1]

    trained = PinnModel(net=net, params=params, dt=model.dt, eps=model.eps)
    return trained, history

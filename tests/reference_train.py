"""Frozen two-stage trainer, the oracle for ``training.train``.

It runs the Adam stage and the L-BFGS stage each with its own divergence
check and its own validate-and-append block, counts the L-BFGS iterations
in a separate counter and compares the final iterate against the best
checkpoint a third time, where the library routes both stages through one
evaluation, validation and history path. Keep it as it is: it is the
reference that the shared path is compared against.

``fd_state_jacobian`` is the frozen central-difference Jacobian: it builds a
step array and the two shifted states afresh for each column, where the
library moves one column of a single working copy.

``serial_loss_and_grad`` and ``serial_loss`` are the frozen serial evaluation:
the data pass, then the whole physics pass, then their two reverse sweeps,
each with its sums over rows inside, all on the calling thread. The library
runs the data pass and a block of the physics rows on a worker lane beside
the other block, and the physics sums after both. These stay as they are:
they are the serial oracle that the library's split is compared against.
"""

import numpy as np
import scipy.optimize

from pinnpid.adam import AdamConfig, AdamState, adam_step
from pinnpid.model import PinnModel
from pinnpid.training import (
    FD_STEP,
    LAMBDA_PHYS,
    LR_END,
    LR_START,
    LossReport,
    TrainConfig,
    TrainingDiverged,
    ValidationSet,
    _check_finite_sets,
    loss,
    loss_and_grad,
    validate,
)


def train(model: PinnModel, rhs, data_generator, config: TrainConfig,
          validation: ValidationSet | None = None):
    """Minimize the composite loss; returns (trained model, LossReport history)."""
    net = model.net
    params = model.params.copy()
    history: list[LossReport] = []
    best = (np.inf, params.copy())
    data, phys = data_generator(0)
    _check_finite_sets(data, phys)
    buffers = {}

    def run_validation(pvec, iteration, report):
        nonlocal best
        probe = PinnModel(net=net, params=pvec, dt=model.dt, eps=model.eps)
        vrep = validate(probe, validation)
        report.val_mse = float(np.mean(vrep.mse_rollout))
        if report.val_mse < best[0]:
            best = (report.val_mse, pvec.copy())

    if config.iterations > 0:
        state = AdamState.zeros(params.shape)
        for it in range(config.iterations):
            l_data, l_phys, l_total, grad = loss_and_grad(
                net, params, data, phys, rhs, buffers=buffers,
            )
            report = LossReport(it, l_data, l_phys, l_total)
            if not np.isfinite(l_total) or not np.all(np.isfinite(grad)):
                raise TrainingDiverged(
                    f"non-finite loss or gradient at iteration {it}", it,
                    history[-1] if history else None,
                )
            frac = it / max(config.iterations - 1, 1)
            alpha = LR_END + 0.5 * (LR_START - LR_END) * (
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

    if config.optimizer == "adam-then-lbfgs" and config.lbfgs_iterations > 0:
        it_counter = [len(history)]

        def objective(pvec):
            l_data, l_phys, l_total, grad = loss_and_grad(
                net, pvec, data, phys, rhs, buffers=buffers,
            )
            if not np.isfinite(l_total) or not np.all(np.isfinite(grad)):
                raise TrainingDiverged("non-finite loss or gradient in L-BFGS stage",
                                       it_counter[0], history[-1] if history else None)
            return l_total, grad

        def callback(pvec):
            l_rep = loss(net, pvec, data, phys, rhs, it_counter[0], buffers={})
            if validation is not None and config.val_interval and (
                (it_counter[0] + 1) % config.val_interval == 0
            ):
                run_validation(pvec, it_counter[0], l_rep)
            history.append(l_rep)
            it_counter[0] += 1

        result = scipy.optimize.minimize(
            objective, params, jac=True, method="L-BFGS-B",
            options={"maxiter": config.lbfgs_iterations},
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


def serial_forward(net, layers, data, phys, rhs, buffers):
    """Data pass and dual physics pass through ``layers``: (l_data, l_phys)
    and what the reverse sweeps read, (data residual, tape, physics residual,
    predicted states, tape)."""
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


def serial_loss(net, params, data, phys, rhs, iteration, *, buffers):
    """The composite loss as the report of ``iteration``."""
    l_data, l_phys, *_ = serial_forward(net, net.unpack(params), data, phys, rhs, buffers)
    return LossReport(iteration, l_data, l_phys, l_data + LAMBDA_PHYS * l_phys)


def serial_loss_and_grad(net, params, data, phys, rhs, *, buffers):
    """(l_data, l_phys, l_total, gradient), every pass on the calling thread."""
    layers = net.unpack(params)
    l_data, l_phys, res_d, tape_d, residual, values, tape_p = serial_forward(
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

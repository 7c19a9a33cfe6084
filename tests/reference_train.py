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
"""

import numpy as np
import scipy.optimize

from pinnpid.adam import AdamConfig, AdamState, adam_step
from pinnpid.model import PinnModel
from pinnpid.training import (
    FD_STEP,
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

"""Frozen step-by-step window, the oracle for ``gainopt.window_cost_and_grad``.

It splits E_0 = (e_prop, e_int, e_deri) into its three parts, advances them
as three vectors per lookahead step and runs the reverse sweep through each
of them, where the library applies the fixed linear error map to one stacked
array. Its ``regularizer`` returns Theta(F) with its gradient, where the
library's returns the gradient alone. Keep both as they are: they are the
reference that the stacked window and the library's regularizer are
compared against.
"""

import numpy as np

from pinnpid.gainopt import CostWeights, InfeasibleGainError, msd_stability_value, scalar_gains
from pinnpid.pid import quadrature_nodes


def regularizer(f: np.ndarray, kind: str, plant=None, rho=None, n=None):
    """Theta(F) and its gradient; kind is 'norm' or 'barrier'."""
    theta = float((f * f).sum())
    grad = 2.0 * f
    if kind == "norm":
        return theta, grad
    if kind != "barrier":
        raise ValueError(f"unknown regularizer kind '{kind}'")
    if plant is None or rho is None or n is None:
        raise ValueError("barrier regularizer needs the plant, rho and state width")
    g = msd_stability_value(plant, f, n)
    if g <= 0:
        raise InfeasibleGainError(f"stability value g = {g:.3g} is not positive")
    kp, ki, kd = scalar_gains(f, n)
    theta -= np.log(g) / rho
    coeff = -1.0 / (rho * g)
    grad[0, 0] += coeff * (kd + plant.damping)
    grad[0, n] += coeff * (-plant.mass)
    grad[0, 2 * n] += coeff * (kp + plant.stiffness)
    return theta, grad


def window_cost_and_grad(model, x0, errors0, refs, f: np.ndarray,
                         weights: CostWeights, dt: float, n_quad: int,
                         input_bounds=None, regularizer_kind: str = "norm",
                         plant=None, rho=None):
    """Lookahead cost, its barrier-free value, and the gradient w.r.t. F."""
    refs = np.atleast_2d(np.asarray(refs, dtype=float))
    horizon = refs.shape[0] - 1
    if horizon < 1:
        raise ValueError("need at least a 1-step window")
    e_prop, e_int, e_deri = np.split(np.asarray(errors0, dtype=float), 3)
    n = e_prop.shape[0]
    taus, w_quad = quadrature_nodes(dt, n_quad)
    q, r, q_t = weights.q, weights.r, weights.q_terminal

    # forward sweep, caching what the reverse pass needs
    e_props = [e_prop]
    e_stacks = []
    us = []
    actives = []
    tapes = []
    x = np.asarray(x0, dtype=float)
    quad_cost = 0.0
    for j in range(horizon):
        e_stack = np.concatenate([e_prop, e_int, e_deri])
        u_raw = f @ e_stack
        if input_bounds is not None:
            u = np.clip(u_raw, input_bounds.lower, input_bounds.upper)
            active = (u_raw > input_bounds.lower) & (u_raw < input_bounds.upper)
        else:
            u = u_raw
            active = np.ones_like(u_raw, dtype=bool)
        quad_cost += 0.5 * (e_prop @ q @ e_prop + u @ r @ u) * dt
        values, tape = model.predict_with_tape(taus, x, u)
        e_prop_next = refs[j + 1] - values[-1]
        e_int = e_int + w_quad @ (refs[j] - values)
        e_deri = (e_prop_next - e_prop) / dt
        e_prop = e_prop_next
        e_stacks.append(e_stack)
        us.append(u)
        actives.append(active)
        tapes.append(tape)
        e_props.append(e_prop)
        x = values[-1]
    e_h = e_props[-1]
    quad_cost += 0.5 * (e_h @ q_t @ e_h)
    theta, theta_grad = regularizer(f, regularizer_kind, plant=plant, rho=rho, n=n)
    plain = quad_cost + weights.mu * float(np.sum(f * f))
    total = quad_cost + weights.mu * theta

    # reverse sweep
    w_col = w_quad[:, None]
    grad_f = weights.mu * theta_grad
    cx = np.zeros(n)
    cep = q_t @ e_h
    cei = np.zeros(n)
    ced = np.zeros(n)
    for j in range(horizon - 1, -1, -1):
        ced_dt = ced / dt
        cep = cep + ced_dt
        cep_prev = -ced_dt
        cx = cx - cep
        c_values = -(w_col * cei)
        c_values[-1] += cx
        cx_prev, cu = model.predict_vjp(tapes[j], c_values)
        cep_prev = cep_prev + q @ e_props[j] * dt
        cu = cu + r @ us[j] * dt
        cu_raw = np.where(actives[j], cu, 0.0)
        grad_f += cu_raw[:, None] * e_stacks[j]
        c_stack = f.T @ cu_raw
        cep = cep_prev + c_stack[:n]
        cei = cei + c_stack[n : 2 * n]
        ced = c_stack[2 * n :]
        cx = cx_prev
    return plain, total, grad_f

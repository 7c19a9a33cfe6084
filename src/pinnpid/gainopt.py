"""Segment-wise PID gain optimization over the transition surrogate.

Each sampling interval solves a small nonconvex program: roll the surrogate
H self-loop steps under u = F E with the gain matrix held constant, sum the
quadratic stage costs plus a gain regularizer, and descend with Adam while
projecting onto the feasible gain box. The gradient with respect to F is
assembled by a reverse sweep chained through the PID law, the error
recursion (including its quadrature nodes) and the network's input
pullbacks.

The regularizer is either the squared gain norm or, for the
mass-spring-damper plant, the norm plus a logarithmic barrier on the
algebraic stability value g = (K^d + D)(K^p + K) - M K^i, weighted 1/rho.
The barrier parameter rho follows one fixed schedule: a linear ramp from
``RHO_START`` = 1e4 at the first iteration to ``RHO_END`` = 1e-3 at the last
of ``max_iters``, so the barrier weight grows from 1e-4 to 1e3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from pinnpid.adam import AdamConfig, AdamState, adam_step
from pinnpid.pid import ErrorState, GainBounds, GainMatrix, quadrature_nodes
from pinnpid.plants import MsdParams

BARRIER_G_MIN = 1e-6
RHO_START = 1e4
RHO_END = 1e-3


class InfeasibleGainError(ValueError):
    """Barrier regularizer evaluated where the stability value is not positive."""


class SegmentDiverged(RuntimeError):
    """Gain optimization started from a non-finite point or produced a
    non-finite cost at its starting gains."""


@dataclass
class CostWeights:
    q: np.ndarray
    r: np.ndarray
    mu: float = 1.0
    q_terminal: np.ndarray | None = None

    def __post_init__(self):
        self.q = np.atleast_2d(np.asarray(self.q, dtype=float))
        self.r = np.atleast_2d(np.asarray(self.r, dtype=float))
        if self.q_terminal is None:
            self.q_terminal = np.zeros_like(self.q)
        else:
            self.q_terminal = np.atleast_2d(np.asarray(self.q_terminal, dtype=float))
        for name, mat in (("q", self.q), ("q_terminal", self.q_terminal)):
            if not np.allclose(mat, mat.T):
                raise ValueError(f"{name} must be symmetric")
            if np.min(np.linalg.eigvalsh(mat)) < -1e-12:
                raise ValueError(f"{name} must be positive semidefinite")
        if not np.allclose(self.r, self.r.T) or np.min(np.linalg.eigvalsh(self.r)) <= 0:
            raise ValueError("r must be symmetric positive definite")
        if self.mu <= 0:
            raise ValueError("mu must be positive")


def _barrier_rho(iteration: int, total: int) -> float:
    """rho on the linear ramp from RHO_START to RHO_END over ``total`` iterations."""
    if total <= 1:
        return RHO_END
    frac = min(iteration, total - 1) / (total - 1)
    return RHO_START + (RHO_END - RHO_START) * frac


def scalar_gains(f: np.ndarray, n: int):
    """Position-channel scalars (kp, ki, kd) of a stacked 1-input gain row."""
    return f[0, 0], f[0, n], f[0, 2 * n]


def msd_stability_value(plant: MsdParams, f: np.ndarray, n: int) -> float:
    kp, ki, kd = scalar_gains(f, n)
    return (kd + plant.damping) * (kp + plant.stiffness) - plant.mass * ki


def regularizer(f: np.ndarray, kind: str, plant=None, rho=None, n=None):
    """Theta(F) and its gradient; kind is 'norm' or 'barrier'."""
    theta = float(np.sum(f * f))
    grad = 2.0 * f.copy()
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


def project_stacked(f: np.ndarray, bounds: GainBounds) -> np.ndarray:
    return np.clip(f, bounds.lower, bounds.upper)


def _restore_feasibility(f, bounds, plant, n):
    """Pull K^i down (g is affine in it) until g >= BARRIER_G_MIN."""
    g = msd_stability_value(plant, f, n)
    if g >= BARRIER_G_MIN:
        return f
    kp, _, kd = scalar_gains(f, n)
    ki_max = ((kd + plant.damping) * (kp + plant.stiffness) - BARRIER_G_MIN) / plant.mass
    f = f.copy()
    f[0, n] = max(min(f[0, n], ki_max), bounds.lower[0, n])
    if msd_stability_value(plant, f, n) < BARRIER_G_MIN / 2:
        raise InfeasibleGainError("cannot restore barrier feasibility inside the gain box")
    return f


def window_cost_and_grad(model, x0, errors0: ErrorState, refs, f: np.ndarray,
                         weights: CostWeights, dt: float, n_quad: int,
                         input_bounds=None, regularizer_kind: str = "norm",
                         plant=None, rho=None):
    """Lookahead cost, its barrier-free value, and the gradient w.r.t. F.

    refs has H+1 rows; the surrogate is unrolled H steps with F constant.
    Returns (plain cost, total cost, dcost/dF).
    """
    refs = np.atleast_2d(np.asarray(refs, dtype=float))
    horizon = refs.shape[0] - 1
    if horizon < 1:
        raise ValueError("need at least a 1-step window")
    n = errors0.e_prop.shape[0]
    taus, w_quad = quadrature_nodes(dt, n_quad)
    q, r, q_t = weights.q, weights.r, weights.q_terminal

    # forward sweep, caching what the reverse pass needs
    e_props = [errors0.e_prop]
    e_stacks = []
    us = []
    actives = []
    tapes = []
    x = np.asarray(x0, dtype=float)
    e_prop, e_int, e_deri = errors0.e_prop, errors0.e_int, errors0.e_deri
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


@dataclass
class SegmentResult:
    gains: GainMatrix
    cost: float
    iterations: int
    converged: bool
    alpha_halvings: int = 0


def optimize_segment(model, x_k, errors_k: ErrorState, refs, weights: CostWeights,
                     adam: AdamConfig, bounds: GainBounds, regularizer_kind: str = "norm",
                     plant=None, input_bounds=None, n_quad: int = 10, max_iters: int = 200,
                     tol: float = 1e-6, init_gains: GainMatrix | None = None) -> SegmentResult:
    """Projected Adam on the lookahead window; returns the best iterate.

    Iterates until the max-norm gain change drops below ``tol`` (tol = 0
    disables early stopping) or ``max_iters`` is hit; one more window then
    scores the final iterate without stepping, so a segment makes
    ``iterations + 1`` window evaluations. Ranking uses the barrier-free cost
    so iterates stay comparable across the rho ramp.
    A non-finite cost or gradient rolls the gains back to the last finite
    iterate, halves the step size and restarts Adam; at the starting gains
    it raises :class:`SegmentDiverged`. So does a non-finite entry in the
    starting point (``x_k``, ``errors_k``, ``refs`` or the projected start
    gains), checked before the first window, since the network rejects
    non-finite input rows with ValueError.
    """
    n = errors_k.e_prop.shape[0]
    f = bounds.center() if init_gains is None else project_stacked(init_gains.stacked(), bounds)
    barrier = regularizer_kind == "barrier"
    if barrier:
        if plant is None:
            raise ValueError("barrier regularizer needs the plant parameters")
        if msd_stability_value(plant, f, n) <= 0:
            f = bounds.center()
        f = _restore_feasibility(f, bounds, plant, n)
    start = (x_k, errors_k.stacked(), refs, f)
    if not all(np.isfinite(np.asarray(a, dtype=float)).all() for a in start):
        raise SegmentDiverged(f"non-finite state, error, reference or starting gains {f.tolist()}")
    state = AdamState.zeros(f.shape)
    cfg = adam
    halvings = 0
    last_finite = None
    best_cost = np.inf
    best_f = f
    iterations = 0
    converged = False
    for it in range(max_iters + 1):
        rho = _barrier_rho(it, max_iters) if barrier else None
        plain, total, grad = window_cost_and_grad(
            model, x_k, errors_k, refs, f, weights, model.dt, n_quad,
            input_bounds=input_bounds, regularizer_kind=regularizer_kind,
            plant=plant, rho=rho,
        )
        if converged or it == max_iters:
            # the final iterate is scored, never stepped from
            if plain < best_cost:
                best_cost, best_f = plain, f
            break
        if not np.isfinite(total) or not np.all(np.isfinite(grad)):
            if last_finite is None:
                raise SegmentDiverged(f"non-finite cost at the starting gains {f.tolist()}")
            f = last_finite
            cfg = replace(cfg, alpha=cfg.alpha / 2)
            state = AdamState.zeros(f.shape)
            halvings += 1
            continue
        last_finite = f
        if plain < best_cost:
            best_cost, best_f = plain, f
        f_new, state = adam_step(state, grad, f, cfg)
        f_new = project_stacked(f_new, bounds)
        if barrier:
            f_new = _restore_feasibility(f_new, bounds, plant, n)
        delta = float(np.max(np.abs(f_new - f)))
        f = f_new
        iterations = it + 1
        converged = tol > 0 and delta < tol
    return SegmentResult(
        gains=GainMatrix.from_stacked(best_f.copy()),
        cost=best_cost,
        iterations=iterations,
        converged=converged,
        alpha_halvings=halvings,
    )

"""Segment-wise PID gain optimization over the transition surrogate.

Each sampling interval solves a small nonconvex program: roll the surrogate
self-loop under u = F E with the gain matrix held constant, sum the
quadratic costs of stages 0..H-1 plus a gain regularizer, and descend with
Adam while projecting onto the feasible gain box. ``window_cost_and_grad``
returns the stage costs' sum and gradient; ``optimize_segment`` adds the rest.

The window keeps its error states as one stacked H x 3n array, row j
holding E_j = (e_prop, e_int, e_deri), next to H x m arrays of the raw
inputs F E_j and of their clip into the input box. With V_j the surrogate's
(n_quad + 1) x n predictions over step j from (x_j, u_j), the error
recursion of ``pid.error_update``, with the last prediction in place of the
measurement, is the fixed linear map

    E_{j+1} = A E_j + c_j - P vec(V_j),    x_{j+1} = last row of V_j,

where A carries e_int over and puts -e_prop / dt into e_deri, P takes the
last prediction into e_prop and e_deri (the latter over dt) and the
trapezoid sum into e_int, and c_j = B (r_j, r_{j+1}) holds the references.
``Window`` builds A, P, B and every c_j once per segment. No cost reads
E_H, so only the H-1 steps that form E_1..E_{H-1} are unrolled. The reverse
sweep is that map's discrete adjoint. With lambda_j = dJ/dE_j, it starts at
the last scored stage, whose input cotangent cu_{H-1} is dt R u_{H-1}, from
lambda_{H-1} = (dt Q e_prop_{H-1}, 0, 0) + F^T cu_{H-1}. Each earlier step
pulls the cotangent -P^T lambda_{j+1} of V_j, plus dJ/dx_{j+1} on its last
row, back through the network to (x_j, u_j); the input cotangent plus
dt R u_j is cu_j, and

    lambda_j = A^T lambda_{j+1} + (dt Q e_prop_j, 0, 0) + F^T cu_j.

The gradient with respect to F is the sum over j of cu_j E_j^T, each cu_j
zeroed in the channels that the input box clips. The stage costs, the
active mask, the direct cotangents and that sum are each one array
operation per window.

F is one m x 3n array throughout, and one function, ``_project``, takes
the warm start and every iterate into the gain box. The regularizer is
either the squared gain norm or, for the mass-spring-damper plant, the norm
plus a logarithmic barrier on the algebraic stability value
g = (K^d + D)(K^p + K) - M K^i, weighted 1/rho. g reads K^p, K^i and K^d of
input 0 on state coordinate 0 alone (``scalar_gains``), so a barrier search
needs bounds that pin every other gain to 0. The barrier parameter rho
follows one fixed schedule: a linear ramp from ``RHO_START`` = 1e4 at the
first iteration to ``RHO_END`` = 1e-3 at the last of ``max_iters``, so the
barrier weight grows from 1e-4 to 1e3.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Gain optimization started from a non-finite point or met a non-finite
    window cost or gradient."""


@dataclass
class CostWeights:
    """Window cost J(F) = (dt/2) sum_{j<H} (e_pj^T Q e_pj + u_j^T R u_j) + mu Theta(F),
    with e_pj the proportional error and u_j the clipped input of stage j."""

    q: np.ndarray
    r: np.ndarray
    mu: float = 1.0

    def __post_init__(self):
        self.q = np.atleast_2d(np.asarray(self.q, dtype=float))
        self.r = np.atleast_2d(np.asarray(self.r, dtype=float))
        if not (np.isfinite(self.q).all() and np.isfinite(self.r).all()):
            raise ValueError("q and r must be finite")
        if not np.allclose(self.q, self.q.T) or np.min(np.linalg.eigvalsh(self.q)) < -1e-12:
            raise ValueError("q must be symmetric positive semidefinite")
        if not np.allclose(self.r, self.r.T) or np.min(np.linalg.eigvalsh(self.r)) <= 0:
            raise ValueError("r must be symmetric positive definite")
        if not (np.isfinite(self.mu) and self.mu > 0):
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


def _barrier_reads_every_gain(bounds: GainBounds, n: int) -> bool:
    """Whether the box pins every entry of F to 0 except the three that
    ``scalar_gains`` reads, so that g covers every gain the search can move."""
    if bounds.lower.shape[1] != 3 * n:
        return False
    unread = (bounds.lower != 0) | (bounds.upper != 0)
    unread[0, [0, n, 2 * n]] = False
    return not unread.any()


def _project(f, bounds, plant, n):
    """Clip F into the gain box (a new array); given a plant, then pull K^i down
    (g is affine in it) until g >= BARRIER_G_MIN, or raise InfeasibleGainError."""
    f = np.minimum(np.maximum(f, bounds.lower), bounds.upper)
    if plant is None or msd_stability_value(plant, f, n) >= BARRIER_G_MIN:
        return f
    kp, _, kd = scalar_gains(f, n)
    ki_max = ((kd + plant.damping) * (kp + plant.stiffness) - BARRIER_G_MIN) / plant.mass
    f[0, n] = max(min(f[0, n], ki_max), bounds.lower[0, n])
    if msd_stability_value(plant, f, n) < BARRIER_G_MIN / 2:
        raise InfeasibleGainError("cannot restore barrier feasibility inside the gain box")
    return f


class Window:
    """One segment's lookahead window less F, built and checked once.

    refs has H+1 rows of width n, of which the window reads r_0..r_{H-1}. It
    holds the quadrature nodes ``taus``, the maps ``a`` and ``p`` (vec(V)
    flattens the prediction block row by row), the reference drive ``c`` (row
    j is c_j = B (r_j, r_{j+1})), E_0, x_0 and the input box.
    ``window_cost_and_grad`` reads them for each F and writes none of them.
    """

    def __init__(self, model, x0, errors0: ErrorState, refs, weights: CostWeights,
                 dt: float, n_quad: int, input_bounds=None):
        refs = np.atleast_2d(np.asarray(refs, dtype=float))
        self.horizon = refs.shape[0] - 1
        if self.horizon < 1:
            raise ValueError("need at least a 1-step window")
        n = errors0.e_prop.shape[0]
        if refs.shape[1] != n:
            raise ValueError(f"references have width {refs.shape[1]}, the state has {n}")
        if weights.q.shape != (n, n):
            raise ValueError(f"q has shape {weights.q.shape}, the state needs ({n}, {n})")
        m = weights.r.shape[0]
        if input_bounds is not None and input_bounds.lower.shape != (m,):
            raise ValueError(f"input box has width {input_bounds.lower.shape[0]}, "
                             f"r has {m} inputs")
        self.model, self.q, self.r, self.dt, self.n = model, weights.q, weights.r, dt, n
        self.taus, w = quadrature_nodes(dt, n_quad)
        eye = np.eye(n)
        end = np.zeros(n_quad + 1)
        end[-1] = 1.0
        self.a = np.zeros((3 * n, 3 * n))
        self.a[n : 2 * n, n : 2 * n] = eye
        self.a[2 * n :, :n] = -eye / dt
        self.p = np.vstack([np.kron(end, eye), np.kron(w, eye), np.kron(end, eye) / dt])
        b = np.zeros((3 * n, 2 * n))
        b[n : 2 * n, :n] = w.sum() * eye
        b[:n, n:] = eye
        b[2 * n :, n:] = eye / dt
        self.c = np.concatenate((refs[:-2], refs[1:-1]), axis=1) @ b.T
        self.e0 = errors0.stacked()
        self.x0 = np.asarray(x0, dtype=float)
        # no box is (-inf, inf), since the network rejects non-finite inputs
        self.lower, self.upper = (-np.inf, np.inf) if input_bounds is None else (
            input_bounds.lower, input_bounds.upper)


def window_cost_and_grad(window: Window, f: np.ndarray):
    """Tracking cost of the lookahead window and its gradient w.r.t. F.

    Scores stages 0..H-1 and so unrolls the surrogate H-1 steps with F
    constant. Returns ((dt/2) sum_{j<H} (e_pj^T Q e_pj + u_j^T R u_j), its
    gradient); the gain regularizer is the caller's (``optimize_segment``).
    """
    model, horizon, n, dt = window.model, window.horizon, window.n, window.dt
    a, p, c, lower, upper = window.a, window.p, window.c, window.lower, window.upper

    # forward sweep: row j of e is E_j, rows of u_raw and u are F E_j and its box clip
    e = np.empty((horizon, 3 * n))
    e[0] = window.e0
    u_raw = np.empty((horizon, f.shape[0]))
    u = np.empty_like(u_raw)
    tapes = []
    x = window.x0
    for j in range(horizon):
        np.matmul(f, e[j], out=u_raw[j])
        np.minimum(np.maximum(u_raw[j], lower, out=u[j]), upper, out=u[j])
        if j == horizon - 1:
            break
        values, tape = model.predict_with_tape(window.taus, x, u[j])
        tapes.append(tape)
        e[j + 1] = a @ e[j] + c[j] - p @ values.reshape(-1)
        x = values[-1]

    # costs, and the direct cotangents dt Q e_prop_j and dt R u_j of the stage costs
    e_props = e[:, :n]
    cep_direct = dt * (e_props @ window.q.T)
    cu_direct = dt * (u @ window.r.T)
    quad_cost = 0.5 * ((cep_direct * e_props).sum() + (cu_direct * u).sum())

    # reverse sweep, the adjoint of the recursion: lam is dJ/dE_j and cx is dJ/dx_j;
    # only the last row of cu_raw has no network term, the loop overwrites the others
    active = (u_raw > lower) & (u_raw < upper)
    cu_raw = np.where(active, cu_direct, 0.0)
    lam = np.zeros(3 * n)
    cx = np.zeros(n)
    for j in range(horizon - 1, 0, -1):
        lam = a.T @ lam + f.T @ cu_raw[j]
        lam[:n] += cep_direct[j]
        c_values = (p.T @ -lam).reshape(-1, n)
        c_values[-1] += cx
        cx, cu = model.predict_vjp(tapes[j - 1], c_values)
        cu_raw[j - 1] = np.where(active[j - 1], cu + cu_direct[j - 1], 0.0)
    return quad_cost, cu_raw.T @ e


@dataclass
class SegmentResult:
    gains: GainMatrix
    cost: float
    iterations: int
    converged: bool


def optimize_segment(model, x_k, errors_k: ErrorState, refs, weights: CostWeights,
                     adam: AdamConfig, bounds: GainBounds, regularizer_kind: str = "norm",
                     plant=None, input_bounds=None, n_quad: int = 10, max_iters: int = 200,
                     tol: float = 1e-6, init_gains: GainMatrix | None = None) -> SegmentResult:
    """Projected Adam on the lookahead window; returns the best iterate.

    Iterates until the max-norm gain change drops below ``tol`` (tol = 0
    disables early stopping) or ``max_iters`` is hit; one more window then
    scores the final iterate without stepping, so a segment makes
    ``iterations + 1`` window evaluations, each plus mu Theta(F) from
    ``regularizer``. Ranking uses the barrier-free cost (mu ||F||^2 in place
    of mu Theta) so iterates stay comparable across the rho ramp. The start
    and every step pass through ``_project``; under the barrier a start whose
    clipped g is not positive is first moved to the box centre.

    The barrier raises ValueError before the first window unless ``bounds``
    pins every gain to 0 except the three that g reads; otherwise g would
    not see the gains the search moves.

    Failure contract: a non-finite entry in the starting point (``x_k``,
    ``errors_k``, ``refs`` or the projected start gains) raises
    :class:`SegmentDiverged` before the first window, since the network
    rejects non-finite input rows with ValueError. A non-finite plain cost or
    gradient at any iterate raises :class:`SegmentDiverged` naming the
    iteration and the gains. A network surrogate cannot produce one: its
    outputs are bounded by its finite last layer, and ``_project`` keeps the
    gains in the box with g >= BARRIER_G_MIN / 2. The segment does not
    recover; the caller does, for example by holding the previous gains.
    """
    n = errors_k.e_prop.shape[0]
    barrier = regularizer_kind == "barrier"
    if barrier and plant is None:
        raise ValueError("barrier regularizer needs the plant parameters")
    if barrier and not _barrier_reads_every_gain(bounds, n):
        raise ValueError("the barrier reads K^p, K^i and K^d of input 0 on state coordinate 0 "
                         "alone; the bounds must pin every other gain to 0")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    cut = plant if barrier else None  # the plant whose K^i cut _project applies
    f = bounds.center() if init_gains is None else _project(init_gains.stacked(), bounds, None, n)
    if barrier and msd_stability_value(plant, f, n) <= 0:
        f = bounds.center()
    f = _project(f, bounds, cut, n)
    start = (x_k, errors_k.stacked(), refs, f)
    if not all(np.isfinite(np.asarray(a, dtype=float)).all() for a in start):
        raise SegmentDiverged(f"non-finite state, error, reference or starting gains {f.tolist()}")
    window = Window(model, x_k, errors_k, refs, weights, model.dt, n_quad, input_bounds)
    state = AdamState.zeros(f.shape)
    best_cost = np.inf
    best_f = f
    converged = False
    for it in range(max_iters + 1):
        quad, grad_quad = window_cost_and_grad(window, f)
        rho = _barrier_rho(it, max_iters) if barrier else None
        theta, theta_grad = regularizer(f, regularizer_kind, plant=plant, rho=rho, n=n)
        plain = quad + weights.mu * float((f * f).sum())
        grad = weights.mu * theta_grad + grad_quad
        if not np.isfinite(plain) or not np.all(np.isfinite(grad)):
            raise SegmentDiverged(f"non-finite window cost or gradient at iteration {it}, "
                                  f"gains {f.tolist()}")
        if plain < best_cost:
            best_cost, best_f = plain, f
        if converged or it == max_iters:  # the final iterate is scored, never stepped from
            break
        f_new, state = adam_step(state, grad, f, adam)
        f_new = _project(f_new, bounds, cut, n)
        converged = float(np.max(np.abs(f_new - f))) < tol
        f = f_new
    return SegmentResult(gains=GainMatrix.from_stacked(best_f), cost=best_cost,
                         iterations=it, converged=converged)

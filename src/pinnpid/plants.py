"""Ground-truth plants and fixed-step integration.

Two nominal systems: a planar 2-link arm with angles measured from the
upright vertical (gravity vanishes at q = 0, which is an unstable
equilibrium) and a mass-spring-damper. Right-hand sides are vectorized over
a leading batch axis so dataset generation and Jacobian estimates stay
cheap. Inputs are held constant over each RK4 step (ZOH).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class RolloutDiverged(RuntimeError):
    """Raised when an integration step produces a non-finite state."""


@dataclass(frozen=True)
class ManipulatorParams:
    """Two-link arm: masses, lengths, COM offsets, rod inertias, input scaling."""

    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.0
    l2: float = 1.0
    lc1: float = 0.5
    lc2: float = 0.5
    i1: float = 1.0 / 12.0
    i2: float = 1.0 / 12.0
    gravity: float = 9.81
    b_alpha: float = 40.0
    b_beta: float = 40.0

    def __post_init__(self):
        for name in ("m1", "m2", "l1", "l2", "lc1", "lc2", "i1", "i2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be strictly positive")
        for name in ("gravity", "b_alpha", "b_beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # det D(beta) = (m1 lc1^2 + i1)(m2 lc2^2 + i2) + m2 l1^2 (m2 lc2^2 sin^2 beta + i2)
        # is bounded below by its value at sin beta = 0, at every beta
        det_min = self.m2 * self.l1**2 * self.i2 + (self.m1 * self.lc1**2 + self.i1) * (
            self.m2 * self.lc2**2 + self.i2
        )
        if det_min < 1e-12:
            raise ValueError("singular inertia matrix (invalid parameters)")


@dataclass(frozen=True)
class MsdParams:
    mass: float = 1.0
    damping: float = 0.5
    stiffness: float = 1.0

    def __post_init__(self):
        for name in ("mass", "damping", "stiffness"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive")


def manipulator_inertia(p: ManipulatorParams, beta):
    """Entries of the symmetric inertia matrix D(q) at joint angle beta."""
    cb = np.cos(beta)
    # d12 = m2 (lc2^2 + l1 lc2 cos(beta)) + i2
    d12 = p.l1 * p.lc2 * cb
    d12 += p.lc2**2
    d12 *= p.m2
    d12 += p.i2
    # d11 = m1 lc1^2 + i1 + m2 (l1^2 + lc2^2 + 2 l1 lc2 cos(beta)) + i2, in cb's storage
    cb *= 2.0 * p.l1 * p.lc2
    cb += p.l1**2 + p.lc2**2
    cb *= p.m2
    cb += p.m1 * p.lc1**2 + p.i1
    cb += p.i2
    d22 = p.m2 * p.lc2**2 + p.i2
    return cb, d12, d22


def manipulator_gravity(p: ManipulatorParams, q, out) -> np.ndarray:
    """Gravity vector g(q), upright-zero convention: g(0) = 0.

    Written into ``out`` (the shape of ``q``) and returned; ``manipulator_rhs``
    passes its acceleration columns.
    """
    q = np.asarray(q, dtype=float)
    # g1 = -(m1 lc1 + m2 l1) g sin(alpha) - m2 lc2 g sin(alpha + beta) and
    # g2 = -m2 lc2 g sin(alpha + beta) share the sine of alpha + beta
    s = np.sin(q[..., 0] + q[..., 1])
    s *= p.m2 * p.lc2 * p.gravity
    np.negative(s, out=out[..., 1])
    g1 = np.sin(q[..., 0])
    g1 *= -(p.m1 * p.lc1 + p.m2 * p.l1) * p.gravity
    np.subtract(g1, s, out=out[..., 0])
    return out


def manipulator_rhs(p: ManipulatorParams, x, u) -> np.ndarray:
    """State rate [qdot; -D^-1 (C qdot + g) + D^-1 B u]; 2x2 D inverted explicitly.

    The rate is written into one new array, whose acceleration columns hold
    g(q) until the accelerations replace it; the other temporaries are
    reused in place. Every element is computed by the operations of the
    formulas in the comments, in their order, so which buffer a step
    reuses does not change the result (``tests/reference_plants.py`` keeps
    the form without reuse).
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    single = x.ndim == 1
    if single:  # a batch of one, so that every temporary is an array
        x, u = x[None], u[None]
    beta, da, db = x[..., 1], x[..., 2], x[..., 3]
    out = np.empty(x.shape)
    d11, d12, d22 = manipulator_inertia(p, beta)
    det = d11 * d22  # nonzero: ManipulatorParams checks a lower bound that holds at every beta
    w = d12 * d12
    det -= w
    h = np.sin(beta)
    h *= -p.m2 * p.l1 * p.lc2
    # C(q, qdot) qdot with Christoffel symbols of D: c1 = h db da + h (da + db) db in w,
    # c2 = -h da da kept as h da da in h (negation is exact)
    np.multiply(h, db, out=w)
    w *= da
    t = da + db
    t *= h
    t *= db
    w += t
    h *= da
    h *= da
    g = manipulator_gravity(p, x[..., :2], out=out[..., 2:])
    # r1 = tau1 - c1 - g1 in w, r2 = tau2 - c2 - g2 in h
    np.multiply(p.b_alpha, u[..., 0], out=t)
    np.subtract(t, w, out=w)
    w -= g[..., 0]
    np.multiply(p.b_beta, u[..., 1], out=t)
    h += t
    h -= g[..., 1]
    # dd_b = (-d12 r1 + d11 r2) / det, as d11 r2 - d12 r1, then dd_a = (d22 r1 - d12 r2) / det
    np.multiply(d12, h, out=t)
    d12 *= w
    d11 *= h
    d11 -= d12
    np.divide(d11, det, out=out[..., 3])
    w *= d22
    w -= t
    np.divide(w, det, out=out[..., 2])
    # two column copies: one (..., 2) block copy runs a 2-element loop per row
    out[..., 0] = da
    out[..., 1] = db
    return out[0] if single else out


def manipulator_energy(p: ManipulatorParams, x) -> float:
    """Kinetic plus gravitational potential energy (upright-zero datum)."""
    x = np.asarray(x, dtype=float)
    qd = x[2:]
    d11, d12, d22 = manipulator_inertia(p, x[1])
    kinetic = 0.5 * (d11 * qd[0] ** 2 + 2 * d12 * qd[0] * qd[1] + d22 * qd[1] ** 2)
    potential = p.m1 * p.gravity * p.lc1 * np.cos(x[0]) + p.m2 * p.gravity * (
        p.l1 * np.cos(x[0]) + p.lc2 * np.cos(x[0] + x[1])
    )
    return kinetic + potential


def msd_rhs(p: MsdParams, x, u) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    acc = (u[..., 0] - p.damping * x[..., 1] - p.stiffness * x[..., 0]) / p.mass
    return np.stack([x[..., 1], acc], axis=-1)


def msd_state_space(p: MsdParams):
    """(A, B) of the linear state dynamics."""
    a = np.array([[0.0, 1.0], [-p.stiffness / p.mass, -p.damping / p.mass]])
    b = np.array([[0.0], [1.0 / p.mass]])
    return a, b


def rk4_advance(rhs, x, u, h) -> np.ndarray:
    """The classical RK4 stage formula: x advanced by h with u held constant.

    ``h`` is a scalar, or an array that broadcasts against ``x`` (one step
    per row). No check is made; see :func:`rk4_step`.
    """
    k1 = rhs(x, u)
    k2 = rhs(x + 0.5 * h * k1, u)
    k3 = rhs(x + 0.5 * h * k2, u)
    k4 = rhs(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(rhs, x, u, h: float) -> np.ndarray:
    """One RK4 step of size h with the input held constant.

    ``x`` is one state ``(n,)`` or a batch ``(B, n)`` with inputs ``(B, m)``;
    a batch raises if any of its rows turns non-finite.
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError("step size must be positive")
    out = rk4_advance(rhs, x, u, h)
    if not np.all(np.isfinite(out)):
        raise RolloutDiverged("non-finite state during RK4 step")
    return out


def simulate_zoh(rhs, x0, u_sequence, dt: float, substeps: int):
    """Hold each input for dt, integrating with ``substeps`` RK4 steps.

    Returns (times, states) sampled at every substep boundary: times[k] is k·h
    with h = dt / substeps, and states has ``len(u_sequence) * substeps + 1``
    entries along its first axis. ``x0`` may carry a leading batch axis: from
    ``(B, n)`` initial states and ``(B, m)`` inputs per entry of ``u_sequence``,
    ``states`` has shape ``(len(u_sequence) * substeps + 1, B, n)``.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive")
    x = np.asarray(x0, dtype=float)
    h = dt / substeps
    states = [x]
    for u in u_sequence:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        for _ in range(substeps):
            x = rk4_step(rhs, x, u, h)
            states.append(x)
    return h * np.arange(len(states)), np.array(states)

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
    """Raised when an integration step produces a non-finite state.

    ``states`` carries the batch as the integration ended, when the raiser
    has it, so a caller can tell the diverged rows from the finite ones
    without integrating again.
    """

    def __init__(self, message, states=None):
        super().__init__(message)
        self.states = states


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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def b_diag(self) -> np.ndarray:
        return np.array([self.b_alpha, self.b_beta])


@dataclass(frozen=True)
class MsdParams:
    mass: float = 1.0
    damping: float = 0.5
    stiffness: float = 1.0

    def __post_init__(self):
        if min(self.mass, self.damping, self.stiffness) <= 0:
            raise ValueError("mass, damping and stiffness must be positive")

    @property
    def zeta(self) -> float:
        return self.damping / (2.0 * np.sqrt(self.mass * self.stiffness))

    @property
    def omega_n(self) -> float:
        return np.sqrt(self.stiffness / self.mass)


def manipulator_inertia(p: ManipulatorParams, beta):
    """Entries of the symmetric inertia matrix D(q) at joint angle beta."""
    cb = np.cos(beta)
    d11 = (
        p.m1 * p.lc1**2
        + p.i1
        + p.m2 * (p.l1**2 + p.lc2**2 + 2.0 * p.l1 * p.lc2 * cb)
        + p.i2
    )
    d12 = p.m2 * (p.lc2**2 + p.l1 * p.lc2 * cb) + p.i2
    d22 = p.m2 * p.lc2**2 + p.i2
    return d11, d12, d22


def manipulator_gravity(p: ManipulatorParams, q) -> np.ndarray:
    """Gravity vector g(q), upright-zero convention: g(0) = 0."""
    q = np.asarray(q, dtype=float)
    alpha = q[..., 0]
    ab = q[..., 0] + q[..., 1]
    g1 = -(p.m1 * p.lc1 + p.m2 * p.l1) * p.gravity * np.sin(alpha) - (
        p.m2 * p.lc2 * p.gravity
    ) * np.sin(ab)
    g2 = -p.m2 * p.lc2 * p.gravity * np.sin(ab)
    return np.stack([g1, g2], axis=-1)


def manipulator_rhs(p: ManipulatorParams, x, u) -> np.ndarray:
    """State rate [qdot; -D^-1 (C qdot + g) + D^-1 B u]; 2x2 D inverted explicitly."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    alpha, beta = x[..., 0], x[..., 1]
    da, db = x[..., 2], x[..., 3]
    d11, d12, d22 = manipulator_inertia(p, beta)
    det = d11 * d22 - d12 * d12
    if np.any(np.abs(det) < 1e-12):
        raise ValueError("singular inertia matrix (invalid parameters)")
    h = -p.m2 * p.l1 * p.lc2 * np.sin(beta)
    # C(q, qdot) qdot with Christoffel symbols of D
    c1 = h * db * da + h * (da + db) * db
    c2 = -h * da * da
    g = manipulator_gravity(p, x[..., :2])
    tau1 = p.b_alpha * u[..., 0]
    tau2 = p.b_beta * u[..., 1]
    r1 = tau1 - c1 - g[..., 0]
    r2 = tau2 - c2 - g[..., 1]
    dd_a = (d22 * r1 - d12 * r2) / det
    dd_b = (-d12 * r1 + d11 * r2) / det
    return np.stack([da, db, dd_a, dd_b], axis=-1)


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


def gravity_compensation_input(p: ManipulatorParams, q_ref) -> np.ndarray:
    """Steady-state input u = B^-1 g(q_ref) that holds the arm at q_ref."""
    b = p.b_diag
    if np.any(b == 0):
        raise ValueError("input matrix B is singular")
    return manipulator_gravity(p, np.asarray(q_ref, dtype=float)) / b


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
    if h <= 0:
        raise ValueError("step size must be positive")
    out = rk4_advance(rhs, x, u, h)
    if not np.all(np.isfinite(out)):
        raise RolloutDiverged("non-finite state during RK4 step")
    return out


def simulate_zoh(rhs, x0, u_sequence, dt: float, substeps: int):
    """Hold each input for dt, integrating with ``substeps`` RK4 steps.

    Returns (times, states) sampled at every substep boundary, so states has
    ``len(u_sequence) * substeps + 1`` entries along its first axis. ``x0``
    may carry a leading batch axis: from ``(B, n)`` initial states and
    ``(B, m)`` inputs per entry of ``u_sequence``, ``states`` has shape
    ``(len(u_sequence) * substeps + 1, B, n)``.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x0, dtype=float)
    h = dt / substeps
    times = [0.0]
    states = [x]
    t = 0.0
    for u in u_sequence:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        for _ in range(substeps):
            x = rk4_step(rhs, x, u, h)
            t += h
            times.append(t)
            states.append(x)
    return np.array(times), np.array(states)

"""Frozen arm right-hand side, the oracle for ``plants.manipulator_rhs``.

It evaluates sin(alpha + beta) twice, builds the gravity vector and the state
rate with ``np.stack``, and allocates every intermediate afresh, where the
library computes that sine once and writes into one preallocated array. The
arithmetic of each output element is the same, so the two agree bit for bit
on inputs of one shape. Keep it as it is: it is the reference that the
in-place kernel is compared against.
"""

import numpy as np

from pinnpid.plants import ManipulatorParams


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

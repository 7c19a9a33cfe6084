"""Latin hypercube training sets for the transition surrogate.

Two collections are built over the short-horizon input space
[0, dt+eps] x state box x input box: supervised samples (initial state,
held input, elapsed time, integrated final state) and collocation samples
for the physics residual (no integration). All randomness flows through a
seeded PCG64 generator, so sets are reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pinnpid.plants import RolloutDiverged, rk4_step


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; lower < upper componentwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or not np.all(lo < hi):
            raise ValueError("box needs lower < upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, points) -> np.ndarray:
        points = np.asarray(points)
        return np.all((points >= self.lower) & (points <= self.upper), axis=-1)


@dataclass(frozen=True)
class DatasetConfig:
    n_data: int
    n_phys: int
    dt: float
    eps: float
    state_box: Box
    input_box: Box
    seed: int = 0

    def __post_init__(self):
        if self.n_data < 1 or self.n_phys < 1:
            raise ValueError("sample counts must be >= 1")
        if self.eps <= 0 or self.dt <= 0:
            raise ValueError("dt and eps must be positive")

    @property
    def horizon(self) -> float:
        return self.dt + self.eps


@dataclass
class DataSet:
    """Supervised transitions: x(t) from (x0, u) integrated by the RK4 oracle."""

    t: np.ndarray
    x0: np.ndarray
    xf: np.ndarray
    u: np.ndarray
    n_resampled: int = 0


@dataclass
class PhysSet:
    """Collocation points for the physics residual."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray


def lhs_sample(lower, upper, n: int, rng: np.random.Generator) -> np.ndarray:
    """Latin hypercube: one point per stratum per dimension, strata permuted
    independently, uniform offset within each stratum."""
    box = Box(lower, upper)
    if n < 1:
        raise ValueError("need n >= 1 samples")
    d = box.dim
    u01 = np.empty((n, d))
    for j in range(d):
        strata = rng.permutation(n)
        u01[:, j] = (strata + rng.uniform(size=n)) / n
    return box.lower + u01 * (box.upper - box.lower)


def _oracle_steps(horizon: float) -> int:
    # per-sample step <= 1e-3 * horizon keeps the label error near 1e-8
    return 1000


def integrate_batch(rhs, x0, u, t_final, horizon: float) -> np.ndarray:
    """Integrate all samples simultaneously, each to its own final time."""
    n_steps = _oracle_steps(horizon)
    h = (t_final / n_steps)[:, None]
    x = np.array(x0, dtype=float)
    for _ in range(n_steps):
        k1 = rhs(x, u)
        k2 = rhs(x + 0.5 * h * k1, u)
        k3 = rhs(x + 0.5 * h * k2, u)
        k4 = rhs(x + h * k3, u)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(x)):
        raise RolloutDiverged("non-finite state in batched rollout")
    return x


def build_data_set(rhs, config: DatasetConfig) -> DataSet:
    """LHS over (t, x0, u) jointly, then RK4 labels xf = x(t)."""
    rng = np.random.default_rng(config.seed)
    n = config.n_data
    sdim, idim = config.state_box.dim, config.input_box.dim
    lo = np.concatenate([[0.0], config.state_box.lower, config.input_box.lower])
    hi = np.concatenate([[1.0], config.state_box.upper, config.input_box.upper])
    pts = lhs_sample(lo, hi, n, rng)
    # map the unit time coordinate onto (0, horizon]: v in [0,1) -> (1-v)*H
    t = (1.0 - pts[:, 0]) * config.horizon
    x0 = pts[:, 1 : 1 + sdim]
    u = pts[:, 1 + sdim :]
    n_resampled = 0
    for _ in range(20):
        try:
            xf = integrate_batch(rhs, x0, u, t, config.horizon)
            break
        except RolloutDiverged:
            # redraw blown-up rows inside their own strata (offsets only)
            with np.errstate(all="ignore"):
                probe = integrate_batch_nanquiet(rhs, x0, u, t, config.horizon)
            bad = ~np.all(np.isfinite(probe), axis=1)
            n_resampled += int(bad.sum())
            width = np.concatenate(
                [
                    [config.horizon],
                    config.state_box.upper - config.state_box.lower,
                    config.input_box.upper - config.input_box.lower,
                ]
            ) / n
            shift = (rng.uniform(size=(int(bad.sum()), 1 + sdim + idim)) - 0.5) * width
            t[bad] = np.clip(t[bad] + shift[:, 0], 1e-12, config.horizon)
            x0[bad] = np.clip(
                x0[bad] + shift[:, 1 : 1 + sdim],
                config.state_box.lower,
                config.state_box.upper,
            )
            u[bad] = np.clip(
                u[bad] + shift[:, 1 + sdim :],
                config.input_box.lower,
                config.input_box.upper,
            )
    else:
        raise RolloutDiverged("could not build a finite dataset after resampling")
    return DataSet(t=t, x0=x0, xf=xf, u=u, n_resampled=n_resampled)


def integrate_batch_nanquiet(rhs, x0, u, t_final, horizon: float) -> np.ndarray:
    n_steps = _oracle_steps(horizon)
    h = (t_final / n_steps)[:, None]
    x = np.array(x0, dtype=float)
    for _ in range(n_steps):
        k1 = rhs(x, u)
        k2 = rhs(x + 0.5 * h * k1, u)
        k3 = rhs(x + 0.5 * h * k2, u)
        k4 = rhs(x + h * k3, u)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def build_phys_set(config: DatasetConfig) -> PhysSet:
    """LHS over [0, horizon] x state box x input box; no integration."""
    rng = np.random.default_rng(config.seed + 1)
    lo = np.concatenate([[0.0], config.state_box.lower, config.input_box.lower])
    hi = np.concatenate(
        [[config.horizon], config.state_box.upper, config.input_box.upper]
    )
    pts = lhs_sample(lo, hi, config.n_phys, rng)
    sdim = config.state_box.dim
    return PhysSet(t=pts[:, 0], x=pts[:, 1 : 1 + sdim], u=pts[:, 1 + sdim :])

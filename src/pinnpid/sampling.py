"""Latin hypercube training sets for the transition surrogate.

Two collections are built over the short-horizon input space
[0, dt+eps] x state box x input box: supervised samples (initial state,
held input, elapsed time, integrated final state) and collocation samples
for the physics residual (no integration). All randomness flows through a
seeded PCG64 generator, so sets are reproducible across platforms. Labels
come from :func:`pinnpid.plants.rk4_advance`, the one RK4 stage formula,
taken with a per-row step, in one batched integration. A label is never
redrawn: a non-finite one raises :class:`pinnpid.plants.RolloutDiverged`, so
every set stays one Latin hypercube.

From ``FORK_ROWS`` rows up, :func:`integrate_batch` runs on both cores: a
child process forked for the call integrates the upper half of the rows
while the calling process integrates the lower half. The RK4 step and both
plants' ``rhs`` are row by row, so every label keeps the bits of the whole
integration. The child runs ``rhs`` in its own memory, so ``rhs`` must be a
pure function of ``(x, u)``: a recorder inside it sees the lower half alone.
"""

from __future__ import annotations

import mmap
import os
import signal
import warnings
from dataclasses import dataclass

import numpy as np

from pinnpid.pid import check_shapes
from pinnpid.plants import RolloutDiverged, rk4_advance


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; lower < upper componentwise, held as copies."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.array(self.lower, dtype=float))
        hi = np.atleast_1d(np.array(self.upper, dtype=float))
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or not np.all(lo < hi):
            raise ValueError("box needs lower < upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True)
class DatasetConfig:
    n_data: int
    n_phys: int
    dt: float
    eps: float
    state_box: Box
    input_box: Box
    seed: int

    def __post_init__(self):
        if self.n_data < 1 or self.n_phys < 1:
            raise ValueError("sample counts must be >= 1")
        if not all(np.isfinite(v) and v > 0 for v in (self.dt, self.eps)):
            raise ValueError("dt and eps must be positive")

    @property
    def horizon(self) -> float:
        return self.dt + self.eps


@dataclass
class DataSet:
    """Supervised transitions: x(t) from (x0, u) integrated by the RK4 oracle.

    ``n_resampled`` is always 0: labels are never redrawn.
    """

    t: np.ndarray
    x0: np.ndarray
    xf: np.ndarray
    u: np.ndarray
    n_resampled = 0


@dataclass
class PhysSet:
    """Collocation points for the physics residual."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray


def lhs_sample(lower, upper, n: int, rng: np.random.Generator) -> np.ndarray:
    """Latin hypercube: one point per stratum per dimension, strata permuted
    independently, uniform offset within each stratum, over a finite box."""
    box = Box(lower, upper)
    if not (np.isfinite(box.lower).all() and np.isfinite(box.upper).all()):
        raise ValueError("Latin hypercube needs a finite box")
    if n < 1:
        raise ValueError("need n >= 1 samples")
    d = box.dim
    u01 = np.empty((n, d))
    for j in range(d):
        strata = rng.permutation(n)
        u01[:, j] = (strata + rng.uniform(size=n)) / n
    return box.lower + u01 * (box.upper - box.lower)


# Per-sample step = t / 1000 <= 1e-3 * horizon keeps the label error near
# 1e-8: a half-step reintegration agrees with the labels to that tolerance.
ORACLE_STEPS = 1000
# From this many rows up a label batch is split with a forked child. Below it a
# step is bound more by per-call overhead than by rows, so halving the rows
# saves little (1,000 MSD rows: 98 ms whole, 85 ms split, on a 2-core x86 box).
FORK_ROWS = 2000


def integrate_batch(rhs, x0, u, t_final, horizon: float) -> np.ndarray:
    """Integrate all samples simultaneously, each to its own final time.

    ``x0`` is (N, n), ``u`` (N, m) and ``t_final`` (N,); a ValueError names
    the first array of another shape. Every row takes ``ORACLE_STEPS`` RK4
    steps of size ``t_final / ORACLE_STEPS``; ``horizon`` does not change the
    step count. A final time that is negative or not finite raises ValueError
    before the first step. Floating-point warnings are silenced: a non-finite
    result raises :class:`RolloutDiverged` naming how many rows diverged.

    From ``FORK_ROWS`` rows up, where ``os.fork`` exists, a forked child
    integrates rows ``[N//2, N)`` while this process integrates the rest, with
    the same bits as one whole integration. ``rhs`` must therefore be a pure
    function of ``(x, u)``: the child's calls are not seen by this process. If
    the child fails, this process integrates its rows too, so an exception of
    ``rhs`` reaches the caller; no child outlives the call.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2:
        raise ValueError(f"x0 has shape {x0.shape}, not (rows, states)")
    rows = x0.shape[0]
    u, t_final = check_shapes(u=(u, (rows, *np.shape(u)[-1:])), t_final=(t_final, (rows,)))
    bad = int(np.sum(~((0 <= t_final) & (t_final < np.inf))))
    if bad:
        raise ValueError(f"{bad} of {rows} final times are negative or not finite")
    if rows >= FORK_ROWS and hasattr(os, "fork"):
        x = _advance_forked(rhs, x0, u, t_final)
    else:
        x = _advance(rhs, x0, u, t_final)
    bad = int(np.sum(~np.all(np.isfinite(x), axis=1)))
    if bad:
        raise RolloutDiverged(f"{bad} of {rows} rows non-finite in batched rollout")
    return x


def _advance(rhs, x, u, t_final) -> np.ndarray:
    """The rows of ``x`` after ``ORACLE_STEPS`` RK4 steps of ``t_final / ORACLE_STEPS``,
    as a new array, with floating-point warnings silenced."""
    h = (t_final / ORACLE_STEPS)[:, None]
    with np.errstate(all="ignore"):
        for _ in range(ORACLE_STEPS):
            x = rk4_advance(rhs, x, u, h)
    return x


def _advance_forked(rhs, x0, u, t_final) -> np.ndarray:
    """``_advance`` over all rows, rows ``[N//2, N)`` in a forked child that writes
    them into shared memory; this process redoes them if the child fails."""
    cut = len(t_final) // 2
    upper = (rhs, x0[cut:], u[cut:], t_final[cut:])
    shape = x0[cut:].shape
    with mmap.mmap(-1, max(x0[cut:].nbytes, 1)) as shared:  # anonymous, shared with the child
        with warnings.catch_warnings():
            # Python 3.12 warns that forking a process with threads (training's lane)
            # can deadlock the child on a lock another thread held; this child runs
            # only NumPy and rhs on its own rows and leaves by os._exit
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                np.ndarray(shape, buffer=shared)[...] = _advance(*upper)
                status = 0
            finally:
                os._exit(status)  # no cleanup, no flush and no exception leave the child
        try:
            lower = _advance(rhs, x0[:cut], u[:cut], t_final[:cut])
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
        if status == 0:
            return np.concatenate([lower, np.ndarray(shape, buffer=shared)])
    return np.concatenate([lower, _advance(*upper)])  # the child raised or was killed


def _lhs_split(config: DatasetConfig, t_upper: float, n: int, seed: int):
    """LHS over [0, t_upper] x state box x input box, split into (t, x, u) columns."""
    rng = np.random.default_rng(seed)
    lo = np.concatenate([[0.0], config.state_box.lower, config.input_box.lower])
    hi = np.concatenate([[t_upper], config.state_box.upper, config.input_box.upper])
    pts = lhs_sample(lo, hi, n, rng)
    sdim = config.state_box.dim
    return pts[:, 0], pts[:, 1 : 1 + sdim], pts[:, 1 + sdim :]


def build_data_set(rhs, config: DatasetConfig) -> DataSet:
    """LHS over (t, x0, u) jointly, then RK4 labels xf = x(t).

    The rows stay one Latin hypercube: a non-finite label is not redrawn but
    raises :class:`RolloutDiverged`.
    """
    v, x0, u = _lhs_split(config, 1.0, config.n_data, config.seed)
    # map the unit time coordinate onto (0, horizon]: v in [0,1) -> (1-v)*H
    t = (1.0 - v) * config.horizon
    xf = integrate_batch(rhs, x0, u, t, config.horizon)
    return DataSet(t=t, x0=x0, xf=xf, u=u)


def build_phys_set(config: DatasetConfig) -> PhysSet:
    """LHS over [0, horizon] x state box x input box; no integration."""
    t, x, u = _lhs_split(config, config.horizon, config.n_phys, config.seed + 1)
    return PhysSet(t=t, x=x, u=u)

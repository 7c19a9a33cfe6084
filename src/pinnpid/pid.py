"""Time-varying PID law and the surrogate-driven discrete error recursion.

The gain matrix F = [K^p, K^i, K^d] (m x 3n) is one read-only array; the
error state stacks the matching error vectors E = (e_prop, e_int, e_deri).
Across one sampling interval the proportional error is taken from the
measured state, the integral error advances by trapezoid quadrature of the
surrogate prediction, and the derivative error by a backward difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GainMatrix:
    """The stacked gain matrix F = [K^p, K^i, K^d] (m x 3n), held as one read-only copy."""

    f: np.ndarray

    def __post_init__(self):
        f = np.array(self.f, dtype=float, ndmin=2)
        if f.shape[1] % 3:
            raise ValueError("stacked gain width must be a multiple of 3")
        f.flags.writeable = False
        object.__setattr__(self, "f", f)

    def stacked(self) -> np.ndarray:
        return self.f

    @classmethod
    def from_stacked(cls, f: np.ndarray) -> "GainMatrix":
        return cls(f)


@dataclass
class ErrorState:
    """Proportional, integral and derivative errors, three vectors of one shape (n,)."""

    e_prop: np.ndarray
    e_int: np.ndarray
    e_deri: np.ndarray

    def __post_init__(self):
        self.e_prop, self.e_int, self.e_deri = _vectors(
            e_prop=self.e_prop, e_int=self.e_int, e_deri=self.e_deri)

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.e_prop, self.e_int, self.e_deri])


@dataclass(frozen=True)
class GainBounds:
    """Per-entry finite box on the stacked gain matrix (lower <= upper, equality pins)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_2d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_2d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or not np.all(lo <= hi):
            raise ValueError("gain bounds need lower <= upper entrywise")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("gain bounds must be finite")

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


def diagonal_gain_bounds(n_state, n_input, kp_range, ki_range, kd_range,
                         coords=None) -> GainBounds:
    """Bounds realizing per-channel scalar gains on selected state coordinates.

    Channel i acts on coordinate coords[i] (default i), one in [0, n_state);
    every other entry is pinned to zero. This encodes gain sets given as one
    interval per PID term per channel.
    """
    coords = list(range(n_input)) if coords is None else list(coords)
    if len(coords) != n_input or not all(0 <= j < n_state for j in coords):
        raise ValueError(f"coords {coords} must name one coordinate in [0, {n_state}) "
                         f"for each of the {n_input} input channels")
    lo = np.zeros((n_input, 3 * n_state))
    hi = np.zeros((n_input, 3 * n_state))
    for i, j in enumerate(coords):
        for block, (a, b) in enumerate([kp_range, ki_range, kd_range]):
            lo[i, block * n_state + j] = a
            hi[i, block * n_state + j] = b
    return GainBounds(lo, hi)


def control_input(gains: GainMatrix, errors: ErrorState, input_bounds=None) -> np.ndarray:
    """u = F E, then clipped into the input box when bounds are given."""
    f = gains.stacked()
    e = errors.stacked()
    if f.shape[1] != e.shape[0]:
        raise ValueError("gain and error dimensions disagree")
    u = f @ e
    if input_bounds is not None:
        if input_bounds.lower.shape != u.shape:
            raise ValueError(f"input box has width {input_bounds.lower.shape[0]}, "
                             f"F has {u.shape[0]} rows")
        u = np.clip(u, input_bounds.lower, input_bounds.upper)
    return u


def quadrature_nodes(dt: float, n_quad: int):
    """(taus, trapezoid weights) over one interval, new arrays on every call."""
    if n_quad < 2:
        raise ValueError("need at least 2 quadrature panels")
    taus = np.linspace(0.0, dt, n_quad + 1)
    weights = np.full(n_quad + 1, dt / n_quad)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return taus, weights


def _vectors(**named) -> list[np.ndarray]:
    """The arguments as float arrays; ValueError names one not of the first's shape (n,)."""
    arrays = [np.asarray(v, dtype=float) for v in named.values()]
    for name, arr in zip(named, arrays):
        if arr.ndim != 1 or arr.shape != arrays[0].shape:
            raise ValueError(f"{name} has shape {arr.shape}, "
                             f"{next(iter(named))} has shape {arrays[0].shape}")
    return arrays


def error_init(model, x0, x_ref_0, x_ref_init, dt: float) -> ErrorState:
    """First error state: zero integral, derivative from the reference rate
    minus the surrogate's initial time derivative, evaluated at a zero input
    (which breaks the u_0 circularity). The references need the state's shape (n,)."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive")
    x0, x_ref_0, x_ref_init = _vectors(x0=x0, x_ref_0=x_ref_0, x_ref_init=x_ref_init)
    rate = model.time_derivative(0.0, x0, np.zeros(model.m))
    return ErrorState(
        e_prop=x_ref_0 - x0,
        e_int=np.zeros_like(x0),
        e_deri=(x_ref_0 - x_ref_init) / dt - rate,
    )


def error_update(model, x_ref_k, x_ref_next, x_k, u_k, errors: ErrorState,
                 dt: float, n_quad: int = 10, *, x_meas_next) -> ErrorState:
    """Advance the error state across one interval.

    e_prop comes from the measurement ``x_meas_next``; e_int integrates the
    reference minus the surrogate's prediction from (x_k, u_k) over [0, dt].
    The references, the measurement and the errors need the state's shape (n,).
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive")
    x_k, x_ref_k, x_ref_next, x_meas_next, _ = _vectors(
        x_k=x_k, x_ref_k=x_ref_k, x_ref_next=x_ref_next, x_meas_next=x_meas_next,
        errors=errors.e_prop)
    taus, weights = quadrature_nodes(dt, n_quad)
    values = model.predict(taus, x_k, np.asarray(u_k, dtype=float))
    increment = weights @ (x_ref_k - values)
    e_prop = x_ref_next - x_meas_next
    return ErrorState(
        e_prop=e_prop,
        e_int=errors.e_int + increment,
        e_deri=(e_prop - errors.e_prop) / dt,
    )

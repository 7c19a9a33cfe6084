"""Time-varying PID law and the surrogate-driven discrete error recursion.

The gain matrix F = [K^p, K^i, K^d] (m x 3n) is one read-only array, and
the error state is one (3n,) vector E = (e_prop, e_int, e_deri), so that
u = F E. Across one sampling interval the proportional error is taken from
the measured state, the integral error advances by trapezoid quadrature of
the surrogate prediction, and the derivative error by a backward
difference. Both steps run at the surrogate's own step ``model.dt``.
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
        if f.ndim != 2:
            raise ValueError(f"stacked gain matrix must be 2-D, got shape {f.shape}")
        if f.shape[1] % 3:
            raise ValueError("stacked gain width must be a multiple of 3")
        f.flags.writeable = False
        object.__setattr__(self, "f", f)

    def stacked(self) -> np.ndarray:
        return self.f

    @classmethod
    def from_stacked(cls, f: np.ndarray) -> "GainMatrix":
        return cls(f)


@dataclass(frozen=True)
class GainBounds:
    """Per-entry finite box on the stacked gain matrix, copied (lower <= upper, equality pins)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_2d(np.array(self.lower, dtype=float))
        hi = np.atleast_2d(np.array(self.upper, dtype=float))
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or not np.all(lo <= hi):
            raise ValueError("gain bounds need lower <= upper entrywise")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("gain bounds must be finite")

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


def diagonal_gain_bounds(n_state, n_input, kp_range, ki_range, kd_range,
                         coords) -> GainBounds:
    """Bounds realizing per-channel scalar gains on selected state coordinates.

    Channel i acts on coordinate coords[i], one in [0, n_state); every other
    entry is pinned to zero. This encodes gain sets given as one interval per
    PID term per channel.
    """
    coords = list(coords)
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


def control_input(gains: GainMatrix, errors, input_bounds) -> np.ndarray:
    """u = F E, clipped into the input box; for an m x 3n F, E has the shape
    (3n,) and the box (m,), and ``check_shapes`` names the first that does not."""
    errors, lower = check_shapes(errors=(errors, (gains.f.shape[1],)),
                                 input_bounds=(input_bounds.lower, (gains.f.shape[0],)))
    return np.clip(gains.f @ errors, lower, input_bounds.upper)


def check_shapes(**named) -> list[np.ndarray]:
    """Each value of ``name=(value, shape)`` as a float array, in order;
    ValueError names the first whose shape is not its ``shape``."""
    arrays = []
    for name, (value, shape) in named.items():
        arr = np.asarray(value, dtype=float)
        if arr.shape != shape:
            raise ValueError(f"{name} has shape {arr.shape}, the model needs {shape}")
        arrays.append(arr)
    return arrays


def quadrature_nodes(dt: float, n_quad: int):
    """(taus, trapezoid weights) over one interval, new arrays on every call."""
    if n_quad < 2:
        raise ValueError("need at least 2 quadrature panels")
    taus = np.linspace(0.0, dt, n_quad + 1)
    weights = np.full(n_quad + 1, dt / n_quad)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return taus, weights


def error_init(model, x0, x_ref_0, x_ref_init, dt: float) -> np.ndarray:
    """First error state E_0: zero integral, derivative from the reference rate
    minus the surrogate's initial time derivative, evaluated at a zero input
    (which breaks the u_0 circularity). The state and the references need the
    shape (``model.n``,), and dt must be ``model.dt``."""
    if dt != model.dt:  # the step the surrogate was trained for
        raise ValueError(f"dt is {dt}, the surrogate steps {model.dt}")
    vector = (model.n,)
    x0, x_ref_0, x_ref_init = check_shapes(x0=(x0, vector), x_ref_0=(x_ref_0, vector),
                                           x_ref_init=(x_ref_init, vector))
    rate = model.time_derivative(0.0, x0, np.zeros(model.m))
    return np.concatenate([x_ref_0 - x0, np.zeros_like(x0), (x_ref_0 - x_ref_init) / dt - rate])


def error_update(model, x_ref_k, x_ref_next, x_k, u_k, errors,
                 dt: float, n_quad: int, *, x_meas_next) -> np.ndarray:
    """Advance the error state E across one interval.

    e_prop comes from the measurement ``x_meas_next``; e_int integrates the
    reference minus the surrogate's prediction from (x_k, u_k) over [0, dt].
    With n = ``model.n`` and m = ``model.m``, the state, the references and the
    measurement need the shape (n,), u_k (m,) and the errors (3n,); dt must be ``model.dt``.
    """
    if dt != model.dt:  # the step the surrogate was trained for
        raise ValueError(f"dt is {dt}, the surrogate steps {model.dt}")
    n = model.n
    x_k, u_k, errors, x_ref_k, x_ref_next, x_meas_next = check_shapes(
        x_k=(x_k, (n,)), u_k=(u_k, (model.m,)), errors=(errors, (3 * n,)),
        x_ref_k=(x_ref_k, (n,)), x_ref_next=(x_ref_next, (n,)), x_meas_next=(x_meas_next, (n,)))
    taus, weights = quadrature_nodes(dt, n_quad)
    values = model.predict(taus, x_k, u_k)
    increment = weights @ (x_ref_k - values)
    e_prop = x_ref_next - x_meas_next
    return np.concatenate([e_prop, errors[n : 2 * n] + increment, (e_prop - errors[:n]) / dt])

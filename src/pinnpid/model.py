"""Trained transition surrogate: network + parameters + sampling horizon.

A :class:`PinnModel` predicts the plant state an elapsed time ``tau`` after
the interval start, given the interval's initial state and the held (ZOH)
input. Long-horizon prediction composes the model with itself at stride
``dt`` (recurrent self-loop). The text serialization round-trips at full
float precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pinnpid.network import FeedforwardNet, InputScaling, NetworkSpec

MODEL_HEADER = "PINNMODEL 1"


@dataclass
class PinnModel:
    net: FeedforwardNet
    params: np.ndarray
    dt: float
    eps: float

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        if self.params.shape != (self.net.n_params,):
            raise ValueError("parameter vector does not match the network spec")
        if not np.all(np.isfinite(self.params)):
            raise ValueError("non-finite model parameters")
        if not (0 < self.dt < np.inf and 0 < self.eps < np.inf):
            raise ValueError(f"dt and eps must be finite and positive, got {self.dt}, {self.eps}")
        horizon = self.dt + self.eps
        t_hi = self.net.scaling.upper[0]
        if not np.isclose(horizon, t_hi):
            raise ValueError("dt + eps must equal the trained time horizon")

    @property
    def n(self) -> int:
        return self.net.n_state

    @property
    def m(self) -> int:
        return self.net.n_input

    # -- prediction ---------------------------------------------------------

    def predict(self, taus, x, u) -> np.ndarray:
        """States at elapsed times ``taus`` from (x, u); shape (len(taus), n)."""
        return self.net.forward_raw(self.params, self.net.stack_rows(taus, x, u))[0]

    def predict_with_tape(self, taus, x, u):
        rows = self.net.stack_rows(taus, x, u)
        values, _, tape = self.net.forward_raw(self.params, rows)
        return values, tape

    def predict_vjp(self, tape, cotangents):
        """Pull a per-tau cotangent batch back to (x, u), summed over taus."""
        _, c_scaled = self.net.backward_raw(self.params, tape, cotangents, want_grads=False)
        c_raw = (c_scaled * self.net.scaling.slope).sum(axis=0)
        return c_raw[1 : 1 + self.n], c_raw[1 + self.n :]

    def time_derivative(self, t, x, u) -> np.ndarray:
        """d phi/dt at one elapsed time ``t`` from (x, u); shape (n,)."""
        rows = self.net.stack_rows([t], x, u)
        return self.net.forward_raw(self.params, rows, self.net.time_tangent_rows(1))[1][0]


def save_model(model: PinnModel, path) -> None:
    spec = model.net.spec
    scaling = model.net.scaling
    lines = [MODEL_HEADER]
    lines.append(" ".join(str(w) for w in spec.layer_widths))
    n, m = model.n, model.m
    blocks = [
        [scaling.lower[0]],
        [scaling.upper[0]],
        scaling.lower[1 : 1 + n],
        scaling.upper[1 : 1 + n],
        scaling.lower[1 + n :],
        scaling.upper[1 + n :],
    ]
    lines.append(" ".join(repr(float(v)) for block in blocks for v in block))
    lines.append(f"HORIZON {model.dt!r} {model.eps!r}")
    lines.extend(repr(float(v)) for v in model.params)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> PinnModel:
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    lines = [line for line in lines if line]
    if not lines or lines[0] != MODEL_HEADER:
        raise ValueError(f"not a model file (expected '{MODEL_HEADER}' header)")
    if len(lines) < 4:
        raise ValueError("model file ends before its HORIZON line")
    widths = tuple(int(w) for w in lines[1].split())
    spec = NetworkSpec(widths)
    n = spec.output_dim
    m = spec.input_dim - 1 - n
    if m < 1:
        raise ValueError("inconsistent layer widths in model file")
    bounds = np.array([float(v) for v in lines[2].split()])
    if bounds.shape[0] != 2 * spec.input_dim:
        raise ValueError("scaling line does not match the input width")
    t_lo, t_hi = bounds[0], bounds[1]
    x_lo, x_hi = bounds[2 : 2 + n], bounds[2 + n : 2 + 2 * n]
    u_lo, u_hi = bounds[2 + 2 * n : 2 + 2 * n + m], bounds[2 + 2 * n + m :]
    scaling = InputScaling(
        np.concatenate([[t_lo], x_lo, u_lo]),
        np.concatenate([[t_hi], x_hi, u_hi]),
    )
    horizon_parts = lines[3].split()
    if horizon_parts[0] != "HORIZON" or len(horizon_parts) != 3:
        raise ValueError("missing HORIZON line in model file")
    dt, eps = float(horizon_parts[1]), float(horizon_parts[2])
    params = np.array([float(v) for v in lines[4:]])
    net = FeedforwardNet(spec, scaling, n, m)
    return PinnModel(net=net, params=params, dt=dt, eps=eps)

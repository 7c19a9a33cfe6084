"""Trained transition surrogate: network + parameters + sampling horizon.

A :class:`PinnModel` predicts the plant state an elapsed time ``tau`` after
the interval start, given the interval's initial state and the held (ZOH)
input. Long-horizon prediction composes the model with itself at stride
``dt`` (recurrent self-loop).

``save_model`` writes, and ``load_model`` reads, the ``PINNMODEL 1`` text
layout, which round-trips every finite double bit for bit:

    PINNMODEL 1
    <layer widths, input layer first>
    <t_lo t_hi, x_lo (n), x_hi (n), u_lo (m), u_hi (m): the input scaling>
    HORIZON <dt> <eps>
    <one parameter per line, in NetworkSpec.param_slices order>

Blank lines and whitespace around a line are ignored; a non-ASCII or "_"
character is refused. Loading is bound by Python's decimal parser, about
0.2 us per parameter on a 2-core Xeon (0.25 ms of the 0.4 ms load of a
1,282-parameter model).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pinnpid.network import FeedforwardNet, InputScaling, NetworkSpec

MODEL_HEADER = "PINNMODEL 1"


@dataclass(frozen=True)
class PinnModel:
    """Frozen; ``params`` is a read-only copy, and ``layers`` its ``net.unpack``, built once."""

    net: FeedforwardNet
    params: np.ndarray
    dt: float
    eps: float
    layers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "params", np.array(self.params, dtype=float))
        self.params.flags.writeable = False  # and so are the layers, its views
        object.__setattr__(self, "layers", self.net.unpack(self.params))  # checks the length
        if not np.all(np.isfinite(self.params)):
            raise ValueError("non-finite model parameters")
        if not (0 < self.dt < np.inf and 0 < self.eps < np.inf):
            raise ValueError(f"dt and eps must be finite and positive, got {self.dt}, {self.eps}")
        # every interval reads tau = 0, which must encode to -1, the trained range's lower end
        if float(self.net.scaling.lower[0]) != 0.0:
            raise ValueError("the time scaling must start at 0")
        # np.isclose's test with its default tolerances, on Python floats
        t_hi = float(self.net.scaling.upper[0])
        if not abs(self.dt + self.eps - t_hi) <= 1e-8 + 1e-5 * abs(t_hi):
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
        return self.net.forward_raw(self.layers, self.net.stack_rows(taus, x, u))[0]

    def predict_with_tape(self, taus, x, u):
        rows = self.net.stack_rows(taus, x, u)
        values, _, tape = self.net.forward_raw(self.layers, rows)
        return values, tape

    def predict_vjp(self, tape, cotangents):
        """Pull a per-tau cotangent batch back to (x, u), summed over taus."""
        _, c_scaled = self.net.backward_raw(self.layers, tape, cotangents, want_grads=False)
        c_raw = (c_scaled * self.net.scaling.slope).sum(axis=0)
        return c_raw[1 : 1 + self.n], c_raw[1 + self.n :]

    def time_derivative(self, t, x, u) -> np.ndarray:
        """d phi/dt at one elapsed time ``t`` from (x, u); shape (n,)."""
        rows = self.net.stack_rows([t], x, u)
        return self.net.forward_raw(self.layers, rows, self.net.time_tangent_rows(1))[1][0]


def _scaling_order(n: int, m: int) -> np.ndarray:
    """Indices into ``concatenate([lower, upper])`` of the scaling line's values:
    t, x and u in turn, each block's lower bounds before its upper ones."""
    d = 1 + n + m
    blocks = (np.arange(1), np.arange(1, 1 + n), np.arange(1 + n, d))
    return np.concatenate([i for block in blocks for i in (block, block + d)])


def save_model(model: PinnModel, path) -> None:
    scaling = model.net.scaling
    lines = [MODEL_HEADER]
    lines.append(" ".join(str(w) for w in model.net.spec.layer_widths))
    bounds = np.concatenate([scaling.lower, scaling.upper])[_scaling_order(model.n, model.m)]
    lines.append(" ".join(repr(float(v)) for v in bounds))
    lines.append(f"HORIZON {model.dt!r} {model.eps!r}")
    lines.extend(repr(float(v)) for v in model.params)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> PinnModel:
    with open(path) as fh:
        text = fh.read()
    # float() and int() also read "0.1_5", "3_2" and non-ASCII digits, which no saved file has
    if not text.isascii() or "_" in text:
        raise ValueError("model file holds a non-ASCII character or '_'")
    lines = [line for line in map(str.strip, text.split("\n")) if line]
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
    lower_upper = np.empty_like(bounds)
    lower_upper[_scaling_order(n, m)] = bounds
    scaling = InputScaling(*lower_upper.reshape(2, -1))
    horizon_parts = lines[3].split()
    if horizon_parts[0] != "HORIZON" or len(horizon_parts) != 3:
        raise ValueError("missing HORIZON line in model file")
    dt, eps = float(horizon_parts[1]), float(horizon_parts[2])
    params = np.fromiter(map(float, lines[4:]), float, count=len(lines) - 4)
    net = FeedforwardNet(spec, scaling, n, m)
    return PinnModel(net=net, params=params, dt=dt, eps=eps)

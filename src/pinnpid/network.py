"""Feedforward tanh network with hand-rolled automatic differentiation.

The network maps a stacked input row (t, x, u) through an affine [-1, 1]
rescaling, a stack of tanh hidden layers and a linear output layer. All
derivative passes needed downstream are implemented directly on that
structure, on batches of rows assembled by ``stack_rows``, through the
``layers`` that ``unpack`` makes of a flat parameter vector (``unpack`` is
also how ``init_params`` and the parameter gradient walk that layout):

- ``forward_raw``, the one forward entry: values and the tape the reverse
  sweep reads, optionally with forward mode along the time coordinate
  (tangent rows from ``time_tangent_rows``),
- ``backward_raw``, the one reverse entry: a sweep returning the gradient
  over the flat parameter vector and the cotangent of the encoded input
  rows (times ``scaling.slope`` for the raw rows). On a dual tape it is
  reverse-over-forward, for gradients of functions of the time derivative,
  which the physics-residual training loss needs. With ``want_grads=False``
  it carries only the input cotangent and skips the parameter-gradient
  accumulation, which the gain optimizer's pullbacks never read.

Everything operates on float64 and is pure: identical arguments give
bit-identical results, and no pass writes an attribute of the net, which is
read-only. A pass writes nothing but its own ``buffers`` dict (below), so
passes given distinct dicts, or none, may run at once on one net and one
``layers``; ``training`` runs its data and physics passes so.

Each pass keeps only the row-sized arrays that are read again later. In the
forward pass a layer's pre-activation ``a = z W^T + b`` is formed in the
array of that layer's output, and a hidden layer's tanh overwrites it in
place; ``a`` is not part of the tape. In the reverse sweep the products
``ca = cz * g`` and ``cadot = czdot * g`` of a hidden layer overwrite the
cotangents ``cz`` and ``czdot`` that the layer above produced, and one
``tmp`` array per hidden width holds ``cadot * (-2 z) * adot``. Neither pass
writes the caller's inputs (rows, tangent rows, ``cot_values``,
``cot_tangents``), and the reverse sweep never writes the tape. Every
element keeps the same operations in the same order as without the reuse
(``tests/reference_network.py`` keeps that form).

``forward_raw`` and ``backward_raw`` take a keyword-only ``buffers`` dict
that the caller keeps across calls. Every row-sized array of the pass (tape,
reverse temporaries, returned values, tangents and input cotangent) is then
written into the array kept under its key, allocated only when the key is
missing or its shape changed. A training loop that passes the same dict each
iteration so stops allocating and faulting in those arrays afresh. For
hidden widths (h, h) a buffered dual forward and reverse keeps 13 arrays of
width h (8 of the forward pass, 5 of the reverse), 3 of the input width and
2 of the output width; a value forward and reverse keeps 6, 2 and 1.
Aliasing rule: whatever a buffered pass returns, tape included, is
overwritten by the next pass that uses the same dict; copy what must outlive
it. The parameter gradient is never buffered. Without ``buffers`` every
array is fresh, and the results are bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths, input layer first. Hidden layers use tanh, output is linear."""

    layer_widths: tuple[int, ...]

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 3:
            raise ValueError("need at least one hidden layer")
        if any(w < 1 for w in widths):
            raise ValueError("all layer widths must be >= 1")

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]

    def param_slices(self):
        """Per layer: (weight slice, bias slice, (rows, cols)) into the flat vector."""
        out = []
        offset = 0
        ws = self.layer_widths
        for i in range(len(ws) - 1):
            rows, cols = ws[i + 1], ws[i]
            w_sl = slice(offset, offset + rows * cols)
            offset += rows * cols
            b_sl = slice(offset, offset + rows)
            offset += rows
            out.append((w_sl, b_sl, (rows, cols)))
        return out


@dataclass(frozen=True)
class InputScaling:
    """Per-coordinate affine map of raw inputs onto [-1, 1], from copies of finite bounds."""

    lower: np.ndarray
    upper: np.ndarray
    slope: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float)
        hi = np.array(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("scaling bounds must be matching 1-D arrays")
        if not np.all(lo < hi):
            raise ValueError("scaling requires lower < upper componentwise")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("scaling bounds must be finite")
        object.__setattr__(self, "slope", 2.0 / (hi - lo))
        lo.flags.writeable = hi.flags.writeable = self.slope.flags.writeable = False

    def encode(self, raw: np.ndarray, out) -> np.ndarray:
        z = np.subtract(raw, self.lower, out=out)
        z *= self.slope
        z -= 1.0
        return z


def _out(buffers, name, layer, shape):
    """The array kept under ``(name, layer)``, (re)allocated to ``shape``; None
    (allocate a fresh result) without buffers. ``layer`` is the layer index,
    or the width for an array that layers of one width share."""
    if buffers is None:
        return None
    key = (name, layer)
    arr = buffers.get(key)
    if arr is None or arr.shape != shape:
        arr = buffers[key] = np.empty(shape)
    return arr


@dataclass(frozen=True, eq=False)
class FeedforwardNet:
    """A tanh MLP over ``[t, x, u]`` rows with analytic derivative passes.

    ``n_state`` and ``n_input`` fix how the input row splits into the time,
    state and control blocks, and the output is the n-wide state; the scaling
    must cover all ``1 + n + m`` coordinates in that order. Every attribute
    is read-only once built, so passes that run at once read one net.
    """

    spec: NetworkSpec
    scaling: InputScaling
    n_state: int
    n_input: int
    _slices: tuple = field(init=False, repr=False)
    n_params: int = field(init=False)  # the end of the last bias

    def __post_init__(self):
        if self.spec.input_dim != 1 + self.n_state + self.n_input:
            raise ValueError("input width must equal 1 + n_state + n_input")
        if self.spec.output_dim != self.n_state:
            raise ValueError("output width must equal n_state")
        if self.scaling.lower.shape[0] != self.spec.input_dim:
            raise ValueError("scaling dimension must match the input width")
        slices = tuple(self.spec.param_slices())
        object.__setattr__(self, "_slices", slices)
        object.__setattr__(self, "n_params", slices[-1][1].stop)

    # -- assembly -----------------------------------------------------------

    def stack_rows(self, t, x, u) -> np.ndarray:
        """Broadcast (t, x, u) into an (N, input_dim) matrix of raw rows.

        ``t`` has one entry per row; ``x`` and ``u`` are either one row each,
        shared by every row, or one row per ``t``. Every network evaluation
        assembles its rows here, so a NaN or infinite entry raises ValueError
        before any pass runs.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        n, m = self.n_state, self.n_input
        batch = t.shape[0]
        if t.ndim != 1 or x.shape not in ((n,), (batch, n)) or u.shape not in ((m,), (batch, m)):
            raise ValueError("mismatched batch shapes for (t, x, u)")
        rows = np.empty((batch, 1 + n + m))
        rows[:, 0] = t
        rows[:, 1 : 1 + n] = x
        rows[:, 1 + n :] = u
        if not np.isfinite(rows).all():
            raise ValueError("non-finite network input")
        return rows

    def unpack(self, params: np.ndarray) -> tuple:
        """The ``layers`` the passes take: per layer a (weight, bias) pair of
        views into the flat vector, so they follow in-place writes to it. A
        new tuple on every call; a caller that evaluates one vector many
        times unpacks it once and passes the same tuple to every pass."""
        arr = np.asarray(params, dtype=float)
        if arr.shape != (self.n_params,):
            raise ValueError(f"parameter vector must have length {self.n_params}")
        return tuple((arr[w_sl].reshape(shape), arr[b_sl]) for w_sl, b_sl, shape in self._slices)

    def init_params(self, seed: int) -> np.ndarray:
        """Glorot-uniform weights, zero biases, packed into one flat vector."""
        rng = np.random.default_rng(seed)
        params = np.zeros(self.n_params)
        for w, _ in self.unpack(params):
            limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            w[...] = rng.uniform(-limit, limit, size=w.shape)
        return params

    # -- forward ------------------------------------------------------------

    def forward_raw(self, layers, raw_rows, tangent_rows=None, *, buffers=None):
        """Evaluate the net with ``layers`` (see ``unpack``) on raw (unscaled)
        rows, optionally with a tangent pass.

        Returns (values, tangents, tape); tangents is None when no tangent was
        requested. The tape holds per layer the activations, tanh derivatives
        and both tangent streams so the reverse passes recompute nothing.
        Each layer forms its pre-activation in its output array, which a
        hidden layer's tanh then overwrites in place; ``raw_rows`` and
        ``tangent_rows`` are never written. With ``buffers`` (see the module
        docstring) every returned array, tape included, lives in the dict
        and is overwritten by its next pass.
        """
        n = raw_rows.shape[0]
        z = self.scaling.encode(raw_rows, out=_out(buffers, "z", 0, raw_rows.shape))
        zdot = None
        if tangent_rows is not None:
            zdot = np.multiply(tangent_rows, self.scaling.slope,
                               out=_out(buffers, "zdot", 0, tangent_rows.shape))
        zs = [z]
        gs = [None]
        adots = [None]
        zdots = [zdot]
        last = len(layers) - 1
        for i, (w, b) in enumerate(layers):
            shape = (n, w.shape[0])
            # the pre-activation a = z W^T + b, which a hidden layer's tanh overwrites
            z = np.matmul(z, w.T, out=_out(buffers, "z", i + 1, shape))
            z += b
            adot = None
            if zdot is not None:
                adot = np.matmul(zdot, w.T, out=_out(buffers, "adot", i, shape))
            if i < last:
                np.tanh(z, out=z)
                g = np.multiply(z, z, out=_out(buffers, "g", i + 1, shape))
                np.subtract(1.0, g, out=g)
                zdot = None if adot is None else np.multiply(
                    g, adot, out=_out(buffers, "zdot", i + 1, shape))
            else:
                g = None
                zdot = adot
            zs.append(z)
            gs.append(g)
            adots.append(adot)
            zdots.append(zdot)
        return z, zdot, (zs, gs, adots, zdots)

    # -- derivative passes ----------------------------------------------------

    def backward_raw(self, layers, tape, cot_values, cot_tangents=None, want_grads=True, *,
                     buffers=None):
        """Reverse sweep through ``layers`` (see ``unpack``). Returns (param
        grads, input-value cotangent rows); the grads are one flat vector.

        ``cot_values`` pairs with the value output, ``cot_tangents`` with the
        tangent output of a dual forward pass; weight gradients then include
        the tangent path (the W reappearing in Adot = Zdot_prev @ W.T).
        With ``want_grads=False`` no parameter gradient is accumulated and
        None is returned in its place; the input cotangent is unchanged.
        Below the output layer, ``cz * g`` and ``czdot * g`` overwrite the
        cotangents ``cz`` and ``czdot`` of the layer above, which the sweep
        itself produced; ``cot_values``, ``cot_tangents`` and the tape are
        never written. With ``buffers`` the reverse temporaries and the
        returned input cotangent live in the dict (see the module
        docstring); the parameter gradient is always a fresh array. The dict
        may be the one the tape's forward pass used: the keys do not collide.
        """
        zs, gs, adots, zdots = tape
        grads = np.zeros(self.n_params) if want_grads else None
        gview = self.unpack(grads) if want_grads else None
        cz = np.asarray(cot_values, dtype=float)
        czdot = cot_tangents
        n = cz.shape[0]
        last = len(layers) - 1
        for i in range(last, -1, -1):
            w, _ = layers[i]
            if i == last:  # the caller's cotangents: read, never written
                ca = cz
                cadot = czdot
            else:  # cz and czdot came from the layer above and are read no more
                g = gs[i + 1]
                ca = np.multiply(cz, g, out=cz)
                cadot = None
                if czdot is not None:
                    cadot = np.multiply(czdot, g, out=czdot)
                    # cadot * (-2 z) * adot in this product order, so results stay bit-identical;
                    # keyed by width, so hidden layers of one width share it
                    tmp = np.multiply(-2.0, zs[i + 1],
                                      out=_out(buffers, "tmp", g.shape[1], g.shape))
                    np.multiply(cadot, tmp, out=tmp)
                    np.multiply(tmp, adots[i + 1], out=tmp)
                    ca += tmp
            if want_grads:
                gw, gb = gview[i]
                gw += ca.T @ zs[i]
                gb += ca.sum(axis=0)
                if cadot is not None:
                    gw += cadot.T @ zdots[i]
            shape = (n, w.shape[1])
            cz = np.matmul(ca, w, out=_out(buffers, "cz", i, shape))
            # the input tangent cotangent is never returned
            czdot = None if cadot is None or i == 0 else np.matmul(
                cadot, w, out=_out(buffers, "czdot", i, shape))
        return grads, cz

    def time_tangent_rows(self, n: int) -> np.ndarray:
        """The tangent rows of d/dt: the one row (1, 0, ..., 0), broadcast read-only to n rows."""
        row = np.zeros(self.spec.input_dim)
        row[0] = 1.0
        return np.broadcast_to(row, (n, row.size))

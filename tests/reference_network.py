"""Frozen network passes, the oracle for ``FeedforwardNet.forward_raw`` and
``backward_raw``.

They keep every row-sized array of a pass in an array of its own: each
layer's pre-activation next to its tanh, and the reverse products
``cz * g`` and ``czdot * g`` next to the cotangents they come from, where
the library overwrites what it no longer reads. Each element is computed by
the same ufuncs in the same order, so the two agree bit for bit. Keep it as
it is: it is the reference that the in-place passes are compared against.
"""

import numpy as np


def _out(buffers, name, layer, shape):
    if buffers is None:
        return None
    key = (name, layer)
    arr = buffers.get(key)
    if arr is None or arr.shape != shape:
        arr = buffers[key] = np.empty(shape)
    return arr


def forward_raw(net, params, raw_rows, tangent_rows=None, *, buffers=None):
    layers = net.unpack(params)
    n = raw_rows.shape[0]
    z = net.scaling.encode(raw_rows, out=_out(buffers, "z", 0, raw_rows.shape))
    zdot = None
    if tangent_rows is not None:
        zdot = np.multiply(tangent_rows, net.scaling.slope,
                           out=_out(buffers, "zdot", 0, tangent_rows.shape))
    zs = [z]
    gs = [None]
    adots = [None]
    zdots = [zdot]
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        shape = (n, w.shape[0])
        a = np.matmul(z, w.T, out=_out(buffers, "a", i, shape))
        a += b
        adot = None
        if zdot is not None:
            adot = np.matmul(zdot, w.T, out=_out(buffers, "adot", i, shape))
        if i < last:
            z = np.tanh(a, out=_out(buffers, "z", i + 1, shape))
            g = np.multiply(z, z, out=_out(buffers, "g", i + 1, shape))
            np.subtract(1.0, g, out=g)
            zdot = None if adot is None else np.multiply(
                g, adot, out=_out(buffers, "zdot", i + 1, shape))
        else:
            z = a
            g = None
            zdot = adot
        zs.append(z)
        gs.append(g)
        adots.append(adot)
        zdots.append(zdot)
    return z, zdot, (zs, gs, adots, zdots)


def backward_raw(net, params, tape, cot_values, cot_tangents=None, want_grads=True, *,
                 buffers=None):
    layers = net.unpack(params)
    zs, gs, adots, zdots = tape
    if want_grads:
        grads = np.zeros_like(np.asarray(params, dtype=float))
        gview = [
            (grads[w_sl].reshape(shape), grads[b_sl])
            for w_sl, b_sl, shape in net.spec.param_slices()
        ]
    else:
        grads = None
    cz = np.asarray(cot_values, dtype=float)
    czdot = cot_tangents
    n = cz.shape[0]
    last = len(layers) - 1
    for i in range(last, -1, -1):
        w, _ = layers[i]
        if i == last:
            ca = cz
            cadot = czdot
        else:
            g = gs[i + 1]
            ca = np.multiply(cz, g, out=_out(buffers, "ca", i, g.shape))
            cadot = None
            if czdot is not None:
                cadot = np.multiply(czdot, g, out=_out(buffers, "cadot", i, g.shape))
                tmp = np.multiply(-2.0, zs[i + 1], out=_out(buffers, "tmp", i, g.shape))
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
        czdot = None if cadot is None or i == 0 else np.matmul(
            cadot, w, out=_out(buffers, "czdot", i, shape))
    return grads, cz

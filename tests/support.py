"""Setup shared by the test modules, defined once; no test module imports another.

Every shared array is read-only and every shared record frozen, so no test can
leave state behind for another. The oracles:

- ``central_fd(f, x, h)``: central differences of a scalar function at every entry
  of an array of any shape. Every check of a gradient against finite differences
  takes its differences here.
- ``calls_to(monkeypatch, owner, name)``: the arguments of every later call of
  ``owner.name``, which still runs. For a test that counts or inspects the calls
  a library function makes to another.
- ``forbid(monkeypatch, owner, name)``: fails the test at any later call of
  ``owner.name``. For a check that must refuse its input before that call.
- The plant table: ``MSD_RHS`` and ``ARM_RHS`` (the nominal ``MSD`` and ``ARM``),
  and the benchmark's state and input boxes of each, for any test that samples,
  integrates or fits a plant.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest

from pinnpid.gainopt import CostWeights
from pinnpid.model import PinnModel, load_model
from pinnpid.network import FeedforwardNet, InputScaling, NetworkSpec
from pinnpid.pid import diagonal_gain_bounds
from pinnpid.plants import ManipulatorParams, MsdParams, manipulator_rhs, msd_rhs, msd_state_space
from pinnpid.sampling import Box

MSD = MsdParams()
ARM = ManipulatorParams()
MSD_RHS = lambda x, u: msd_rhs(MSD, x, u)
ARM_RHS = lambda x, u: manipulator_rhs(ARM, x, u)
MSD_STATE_BOX = Box([-2.0, -1.0], [2.0, 1.0])
MSD_INPUT_BOX = Box([-1.0], [1.0])
ARM_STATE_BOX = Box([-np.pi, -np.pi, -2.5, -2.5], [np.pi, np.pi, 2.5, 2.5])
ARM_INPUT_BOX = Box([-0.5, -0.5], [0.5, 0.5])
FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "msd_surrogate_seed0.txt"
FIXTURE_MODEL = load_model(FIXTURE)  # the committed MSD surrogate, read once on import
WEIGHTS = CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)  # the closed loop's
E0 = np.array([0.6, 0.0, 0.1, 0.0, 0.2, -0.1])  # an MSD error state (e_prop, e_int, e_deri)
X0 = np.array([0.1, -0.2])  # an MSD state
E0.flags.writeable = X0.flags.writeable = False


def central_fd(f, x, h):
    """(f(x + h e_i) - f(x - h e_i)) / (2 h) at every entry i of the array x."""
    x = np.asarray(x, dtype=float)
    fd = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd[i] = (f(xp) - f(xm)) / (2 * h)
    return fd


def calls_to(monkeypatch, owner, name):
    """The list into which each later call of ``owner.name`` puts its arguments, by
    parameter name, before it runs."""
    fn, calls = getattr(owner, name), []
    signature = inspect.signature(fn)

    def recording(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def forbid(monkeypatch, owner, name):
    """Fail the test at any later call of ``owner.name``."""

    def fail(*args, **kwargs):
        pytest.fail(f"{name} ran")

    monkeypatch.setattr(owner, name, fail)


def unbounded(m=1):
    """An input box that clips nothing."""
    return Box(np.full(m, -np.inf), np.full(m, np.inf))


def toy_model(seed=0, n=2, m=1, dt=0.2, eps=0.05):
    widths = (1 + n + m, 8, 8, n)
    lo = np.concatenate([[0.0], -2 * np.ones(n), -np.ones(m)])
    hi = np.concatenate([[dt + eps], 2 * np.ones(n), np.ones(m)])
    net = FeedforwardNet(NetworkSpec(widths), InputScaling(lo, hi), n, m)
    params = net.init_params(seed) if seed is not None else np.zeros(net.n_params)
    return PinnModel(net=net, params=params, dt=dt, eps=eps)


class LinearSurrogate:
    """Exact-derivative stand-in: phi(tau, x, u) = x + tau (A x + B u).

    (A, B) is the MSD state space unless ``ab`` gives another pair.
    """

    def __init__(self, plant=MSD, dt=0.2, eps=0.05, ab=None):
        self.a, self.b = msd_state_space(plant) if ab is None else ab
        self.dt = dt
        self.eps = eps
        self.n = self.a.shape[0]
        self.m = self.b.shape[1]

    def predict(self, taus, x, u):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        rate = self.a @ x + self.b @ u
        return x[None, :] + taus[:, None] * rate[None, :]

    def predict_with_tape(self, taus, x, u):
        return self.predict(taus, x, u), np.atleast_1d(np.asarray(taus, dtype=float))

    def predict_vjp(self, tape, cotangents):
        c = np.asarray(cotangents, dtype=float)
        csum = c.sum(axis=0)
        ctau = tape @ c
        return csum + self.a.T @ ctau, self.b.T @ ctau

    def time_derivative(self, t, x, u):
        return self.a @ x + self.b @ u


class CliffSurrogate(LinearSurrogate):
    """Linear stand-in that returns NaN states once |u| drops below 0.2."""

    def predict_with_tape(self, taus, x, u):
        values, tape = super().predict_with_tape(taus, x, u)
        if np.any(np.abs(u) < 0.2):
            values = np.full_like(values, np.nan)
        return values, tape


class Spy:
    """Wraps a surrogate and records what it is asked: each ``predict`` and
    ``time_derivative`` by name in ``calls``, the (clipped) input and the predictions
    of every window step in ``inputs`` and ``predictions``, and the reverse passes in
    ``vjp_calls``."""

    def __init__(self, model):
        self.model, self.calls, self.inputs, self.predictions, self.vjp_calls = model, [], [], [], 0
        self.n, self.m, self.dt = model.n, model.m, model.dt

    def predict(self, *args):
        self.calls.append("predict")
        return self.model.predict(*args)

    def time_derivative(self, *args):
        self.calls.append("time_derivative")
        return self.model.time_derivative(*args)

    def predict_with_tape(self, taus, x, u):
        self.inputs.append(np.array(u, dtype=float))
        values, tape = self.model.predict_with_tape(taus, x, u)
        self.predictions.append(values.copy())
        return values, tape

    def predict_vjp(self, tape, cotangents):
        self.vjp_calls += 1
        return self.model.predict_vjp(tape, cotangents)


def msd_inputs(m):
    """An m-input linear stand-in: the MSD with its one input column repeated m times."""
    a, b = msd_state_space(MSD)
    return LinearSurrogate(ab=(a, np.tile(b, (1, m))))


def msd_bounds(lo=0.0, hi=5.0):
    return diagonal_gain_bounds(2, 1, (lo, hi), (lo, hi), (lo, hi), coords=[0])

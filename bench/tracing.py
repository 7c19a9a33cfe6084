"""Per-layer tracing from outside the program.

Wrappers are installed at the name each caller resolves: a module global
for functions (``pinnpid.training.adam_step`` and ``pinnpid.gainopt.adam_step``
are separate names for one function), the class for methods. Each wrapped
call opens a span whose parent is the innermost open span. Spans are not
kept one by one: the closed loop alone makes about 5e5 network calls, so
each span is folded into per-name totals as it closes, and its duration is
charged to its parent's child time, which gives self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    rows: int = 0


class Tracer:
    """Nested span recorder with online aggregation by name and by (parent, name)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # open spans: [name, start, child time]
        self.stats: dict[str, SpanStats] = {}
        self.edges: dict[tuple, SpanStats] = {}

    def begin(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def end(self, rows: int = 0) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        parent = self.stack[-1] if self.stack else None
        for key, table in ((name, self.stats), ((parent and parent[0], name), self.edges)):
            st = table.get(key)
            if st is None:
                st = table[key] = SpanStats()
            st.calls += 1
            st.total += duration
            st.self_time += duration - child
            st.rows += rows
        if parent is not None:
            parent[2] += duration

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())


def _rows(array) -> int:
    """Leading-axis size; a single 1-D row counts as one."""
    shape = np.shape(array)
    return shape[0] if len(shape) > 1 else 1


@dataclass(frozen=True)
class Hook:
    """One wrapped name.

    ``owner`` is a module path, or ``module:Class`` for a method. ``select``
    is a tuple ``(position, parameter, if_none, if_set)``: the span name then
    depends on whether that argument is None. ``rows_arg`` is the
    ``(position, parameter)`` whose leading axis counts rows. Positions
    include ``self`` for methods; the parameter names are checked against the
    live signature when the hook is installed.
    """

    owner: str
    attr: str
    span: str | None = None
    select: tuple | None = None
    rows_arg: tuple | None = None

    @property
    def key(self) -> str:
        return f"{self.owner}.{self.attr}"

    def span_names(self) -> tuple:
        return (self.span,) if self.select is None else self.select[2:]


HOOKS = (
    Hook("pinnpid.sampling", "integrate_batch", "sampling.integrate_batch", rows_arg=(1, "x0")),
    Hook("pinnpid.sampling", "lhs_sample", "sampling.lhs_sample"),
    Hook("pinnpid.training", "lhs_sample", "sampling.lhs_sample"),
    Hook("pinnpid.plants", "manipulator_rhs", "plants.rhs", rows_arg=(1, "x")),
    Hook("pinnpid.plants", "msd_rhs", "plants.rhs", rows_arg=(1, "x")),
    Hook("pinnpid.plants", "rk4_step", "plants.rk4_step", rows_arg=(1, "x")),
    Hook("pinnpid.training", "fd_state_jacobian", "training.fd_state_jacobian"),
    Hook("pinnpid.training", "loss_and_grad", "training.loss_and_grad"),
    Hook("pinnpid.training", "loss", "training.loss"),
    Hook("pinnpid.training", "adam_step", "training.adam_step"),
    Hook("pinnpid.training", "validate", "training.validate"),
    Hook("pinnpid.network:FeedforwardNet", "forward_raw",
         select=(3, "tangent_rows", "network.value_fwd", "network.dual_fwd"),
         rows_arg=(2, "raw_rows")),
    Hook("pinnpid.network:FeedforwardNet", "backward_raw",
         select=(4, "cot_tangents", "network.value_bwd", "network.dual_bwd"),
         rows_arg=(3, "cot_values")),
    Hook("pinnpid.model:PinnModel", "predict_with_tape", "model.predict_with_tape"),
    Hook("pinnpid.model:PinnModel", "predict_vjp", "model.predict_vjp"),
    Hook("pinnpid.gainopt", "optimize_segment", "gainopt.optimize_segment"),
    Hook("pinnpid.gainopt", "window_cost_and_grad", "gainopt.window"),
    Hook("pinnpid.gainopt", "adam_step", "gainopt.adam_step"),
    Hook("pinnpid.gainopt", "regularizer", "gainopt.regularizer"),
    Hook("pinnpid.pid", "error_update", "pid.error_update"),
    Hook("pinnpid.pid", "control_input", "pid.control_input"),
)


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


def _argument(args, kwargs, where):
    position, name = where[:2]
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


def _signature_matches(fn, hook: Hook) -> bool:
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return False
    for where in (hook.select, hook.rows_arg):
        if where is not None and (len(params) <= where[0] or params[where[0]] != where[1]):
            return False
    return True


def make_wrapper(tracer: Tracer, hook: Hook, fn):
    select, rows_arg = hook.select, hook.rows_arg

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if select is None:
            name = hook.span
        else:
            name = select[2] if _argument(args, kwargs, select) is None else select[3]
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(0 if rows_arg is None else _rows(_argument(args, kwargs, rows_arg)))

    return wrapper


@contextmanager
def traced(tracer: Tracer, hooks=HOOKS):
    """Install every hook for the duration of the block; yields the absent hook keys.

    A hook whose owner or name no longer exists, or whose arguments no longer
    have the expected names, is absent: it is not installed and its metrics
    are not reported. Every original is put back on exit, also on error.
    """
    installed = []
    absent = []
    try:
        for hook in hooks:
            owner = _resolve_owner(hook.owner)
            original = None if owner is None else vars(owner).get(hook.attr)
            if original is None or not callable(original) or not _signature_matches(original, hook):
                absent.append(hook.key)
                continue
            setattr(owner, hook.attr, make_wrapper(tracer, hook, original))
            installed.append((owner, hook.attr, original))
        yield absent
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


class MissingSpans(RuntimeError):
    """A wrapper a workload is expected to hit recorded no call."""


def absent_spans(absent_keys, hooks=HOOKS) -> set:
    """Span names with no installed hook left to record them."""
    present = {n for h in hooks if h.key not in absent_keys for n in h.span_names()}
    return {n for h in hooks for n in h.span_names()} - present


def require_spans(tracer: Tracer, expected, absent: set) -> None:
    missing = [name for name in expected if name not in absent and tracer.get(name).calls == 0]
    if missing:
        raise MissingSpans(f"expected spans recorded no call: {', '.join(missing)}")


NETWORK_KINDS = ("value_fwd", "dual_fwd", "value_bwd", "dual_bwd")

# (metric, span, SpanStats field, unit): metrics read straight off one span
SPAN_METRICS = (
    ("sampling.integrate_batch_calls", "sampling.integrate_batch", "calls", "count"),
    ("sampling.integrate_batch_s", "sampling.integrate_batch", "total", "s"),
    ("sampling.lhs_sample_s", "sampling.lhs_sample", "total", "s"),
    ("plants.rhs_calls", "plants.rhs", "calls", "count"),
    ("plants.rhs_rows", "plants.rhs", "rows", "count"),
    ("plants.rhs_s", "plants.rhs", "total", "s"),
    ("plants.rk4_step_calls", "plants.rk4_step", "calls", "count"),
    ("plants.rk4_step_s", "plants.rk4_step", "total", "s"),
    ("training.fd_state_jacobian_s", "training.fd_state_jacobian", "total", "s"),
    ("training.loss_and_grad_calls", "training.loss_and_grad", "calls", "count"),
    ("training.loss_and_grad_self_s", "training.loss_and_grad", "self_time", "s"),
    ("training.adam_step_s", "training.adam_step", "total", "s"),
    ("training.validate_s", "training.validate", "total", "s"),
    ("training.loss_calls", "training.loss", "calls", "count"),
    ("training.loss_s", "training.loss", "total", "s"),
    *((f"network.{k}_{field}", f"network.{k}", stat, unit)
      for k in NETWORK_KINDS
      for field, stat, unit in (("calls", "calls", "count"), ("rows", "rows", "count"),
                                ("s", "total", "s"))),
    ("model.predict_with_tape_calls", "model.predict_with_tape", "calls", "count"),
    ("model.predict_with_tape_self_s", "model.predict_with_tape", "self_time", "s"),
    ("model.predict_vjp_calls", "model.predict_vjp", "calls", "count"),
    ("model.predict_vjp_self_s", "model.predict_vjp", "self_time", "s"),
    ("gainopt.window_calls", "gainopt.window", "calls", "count"),
    ("gainopt.window_self_s", "gainopt.window", "self_time", "s"),
    ("gainopt.adam_step_s", "gainopt.adam_step", "total", "s"),
    ("gainopt.regularizer_s", "gainopt.regularizer", "total", "s"),
    ("gainopt.segments", "gainopt.optimize_segment", "calls", "count"),
    ("pid.error_update_s", "pid.error_update", "total", "s"),
    ("pid.control_input_s", "pid.control_input", "total", "s"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, absent: set, extras: dict) -> dict:
    """Per-layer metrics as {name: (value, unit)}; metrics of absent spans are left out.

    ``extras`` carries what the workload's own outputs tell: resampled rows,
    Adam and L-BFGS iteration counts, segment iterations and convergence,
    and the tracing overhead. A missing entry counts as 0.
    """
    x = {"resampled_rows": 0, "adam_iters": 0, "lbfgs_iters": 0, "iters_per_segment": 0.0,
         "converged_frac": 0.0, "overhead_frac": 0.0, **extras}
    s = tracer.get
    net = [s(f"network.{k}") for k in NETWORK_KINDS]
    lg, seg, win = s("training.loss_and_grad"), s("gainopt.optimize_segment"), s("gainopt.window")
    derived = (  # (metric, value, unit, spans it needs)
        ("sampling.resampled_rows", x["resampled_rows"], "count", ()),
        ("training.lbfgs_evals_per_iter", _ratio(lg.calls - x["adam_iters"], x["lbfgs_iters"]),
         "ratio", ("training.loss_and_grad",)),
        ("network.rows_per_call", _ratio(sum(n.rows for n in net), sum(n.calls for n in net)),
         "rows", tuple(f"network.{k}" for k in NETWORK_KINDS)),
        ("gainopt.iter_ms", 1e3 * _ratio(seg.total, win.calls), "ms",
         ("gainopt.window", "gainopt.optimize_segment")),
        ("gainopt.iters_per_segment", x["iters_per_segment"], "count", ()),
        ("gainopt.converged_frac", x["converged_frac"], "ratio", ()),
        ("trace.overhead_frac", x["overhead_frac"], "ratio", ()),
    )
    out = {name: (getattr(s(span), stat), unit)
           for name, span, stat, unit in SPAN_METRICS if span not in absent}
    out.update({name: (value, unit) for name, value, unit, needs in derived
                if not absent.intersection(needs)})
    return out


def span_tree(tracer: Tracer) -> list:
    """(parent, name) edges with calls, inclusive and self seconds, largest first."""
    rows = [
        {"parent": parent, "span": name, "calls": st.calls,
         "total_s": st.total, "self_s": st.self_time}
        for (parent, name), st in tracer.edges.items()
    ]
    return sorted(rows, key=lambda r: -r["total_s"])

"""The benchmark's own checks: span arithmetic, wrapper hygiene, trace neutrality."""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pin  # noqa: E402
import run as bench_run  # noqa: E402
from calibration import Calibrator  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

BENCHMARK = json.loads((W.ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def tiny(name):
    """The named workload at a size that runs in well under a second."""
    wl = W.WORKLOADS[name]
    if name == "fit_arm":
        spec = dataclasses.replace(wl.spec, widths=(7, 8, 4), n_data=32, n_phys=32,
                                   train={"iterations": 4, "val_interval": 2},
                                   n_val_traj=2, n_val_steps=2)
    elif name == "fit_msd":
        spec = dataclasses.replace(wl.spec, widths=(4, 8, 2), n_data=32, n_phys=32,
                                   train={"iterations": 4, "optimizer": "adam-then-lbfgs",
                                          "lbfgs_iterations": 3, "val_interval": 2},
                                   n_val_traj=2, n_val_steps=2)
    else:
        spec = dataclasses.replace(wl.spec, intervals=3, scenarios=2, max_iters=10)
    return dataclasses.replace(wl, spec=spec)


class TestTracer:
    def test_self_time_of_nested_spans(self):
        # a[0,10] holds b[1,5] (which holds c[2,4]) and b[6,7]
        tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 7, 10]))
        tracer.begin("a")
        tracer.begin("b")
        tracer.begin("c")
        tracer.end(rows=3)
        tracer.end()
        tracer.begin("b")
        tracer.end()
        tracer.end()
        a, b, c = tracer.get("a"), tracer.get("b"), tracer.get("c")
        assert (a.calls, a.total, a.self_time) == (1, 10, 5)
        assert (b.calls, b.total, b.self_time) == (2, 5, 3)
        assert (c.calls, c.total, c.self_time, c.rows) == (1, 2, 2, 3)
        assert tracer.edges[("a", "b")].calls == 2
        assert tracer.edges[(None, "a")].total == 10
        assert tracer.stack == []

    def test_span_closes_when_the_wrapped_call_raises(self):
        tracer = tracing.Tracer(clock=FakeClock([0, 1, 3, 4]))

        def boom():
            raise ValueError("boom")

        hook = tracing.Hook("m", "boom", "inner")
        tracer.begin("outer")
        with pytest.raises(ValueError):
            tracing.make_wrapper(tracer, hook, boom)()
        tracer.end()
        assert tracer.get("inner").total == 2
        assert tracer.get("outer").self_time == 2
        assert tracer.stack == []


class TestWrappers:
    def originals(self):
        out = {}
        for hook in tracing.HOOKS:
            owner = tracing._resolve_owner(hook.owner)
            out[hook.key] = (owner, vars(owner)[hook.attr])
        return out

    def test_every_hook_is_installed_and_restored(self):
        before = self.originals()
        with tracing.traced(tracing.Tracer()) as absent:
            assert absent == []
            for key, (owner, fn) in before.items():
                assert vars(owner)[key.rsplit(".", 1)[1]] is not fn
        for key, (owner, fn) in before.items():
            assert vars(owner)[key.rsplit(".", 1)[1]] is fn

    def test_restored_after_an_error(self):
        before = self.originals()
        with pytest.raises(RuntimeError):
            with tracing.traced(tracing.Tracer()):
                raise RuntimeError("inside the traced block")
        for key, (owner, fn) in before.items():
            assert vars(owner)[key.rsplit(".", 1)[1]] is fn

    def test_missing_name_or_renamed_argument_is_absent(self):
        hooks = (
            tracing.Hook("pinnpid.sampling", "no_such_function", "sampling.gone"),
            tracing.Hook("pinnpid.training", "validate", "training.validate",
                         rows_arg=(0, "not_the_name")),
        )
        with tracing.traced(tracing.Tracer(), hooks) as absent:
            assert absent == ["pinnpid.sampling.no_such_function", "pinnpid.training.validate"]
        assert tracing.absent_spans(absent, hooks) == {"sampling.gone", "training.validate"}
        metrics = tracing.layer_metrics(tracing.Tracer(), {"training.validate"}, {})
        assert "training.validate_s" not in metrics
        assert "training.adam_step_s" in metrics

    def test_expected_span_with_no_call_is_an_error(self):
        tracer = tracing.Tracer()
        with pytest.raises(tracing.MissingSpans):
            tracing.require_spans(tracer, ["gainopt.window"], absent=set())
        tracing.require_spans(tracer, ["gainopt.window"], absent={"gainopt.window"})


class TestCalibrator:
    def test_unit_is_trimmed_mean_over_the_span(self):
        cal = Calibrator()
        # ten samples inside [10, 20], one far outlier among them, two outside
        cal.samples = [(1.0, 9.0)] + [(10.0 + i, 1.0 + 0.1 * i) for i in range(9)]
        cal.samples += [(19.5, 50.0), (30.0, 9.0)]
        inside = sorted([1.0 + 0.1 * i for i in range(9)] + [50.0])[1:-1]
        assert cal.unit(10.0, 20.0) == pytest.approx(sum(inside) / len(inside))

    def test_clock_excludes_handler_and_handler_is_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        with Calibrator(extra=lambda: None) as cal:
            for _ in range(200):
                cal.kernel()
        assert signal.getsignal(signal.SIGALRM) == before
        assert len(cal.samples) == len(cal.extra_samples)
        assert cal.spent == pytest.approx(sum(d for _, d in cal.samples)
                                          + sum(cal.extra_samples), rel=0.5)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_run_reproduces_quality_and_reports_every_metric(name):
    report, result = bench_run.measure(tiny(name), seed=3, seconds=0.0, trace=True)
    assert report["problems"] == [] and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert report["absent_spans"] == []
    assert set(report["metrics"]) >= {m["name"] for m in BENCHMARK["end_to_end"]}


def test_untraced_result_has_every_end_to_end_metric():
    report, result = bench_run.measure(tiny("loop_msd"), seed=4, seconds=0.0, trace=False)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert list(result) == ["correct", "attempted", "failed", "metrics"]


def test_typed_errors_are_counted_not_raised(monkeypatch):
    def diverge(*args, **kwargs):
        raise W.training.TrainingDiverged("forced")

    monkeypatch.setattr(W.training, "train", diverge)
    report, result = bench_run.measure(tiny("fit_msd"), seed=5, seconds=0.0, trace=False)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert report["metrics"]["failed_frac"][0] == 1.0
    assert report["errors"] == ["TrainingDiverged: forced"]


def test_failed_interval_holds_the_previous_gains(monkeypatch):
    real = W.gainopt.optimize_segment
    calls = []

    def every_other(*args, **kwargs):
        calls.append(1)
        if len(calls) % 2 == 0:
            raise W.gainopt.SegmentDiverged("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(W.gainopt, "optimize_segment", every_other)
    wl = tiny("loop_msd")
    case = wl.setup(6)
    run = wl.run(case)
    # intervals 1, 3 and 5 fail; 3 opens the second loop, which starts from the box centre
    assert run.failed == 3 and len(run.gains) == 6
    assert (run.gains[1] == run.gains[0]).all() and (run.gains[5] == run.gains[4]).all()
    assert (run.gains[3] == case.bounds.center()).all()
    assert wl.check(case, run) == []


def test_same_seed_same_inputs():
    a, b = W.WORKLOADS["loop_msd"].setup(7), W.WORKLOADS["loop_msd"].setup(7)
    c = W.WORKLOADS["loop_msd"].setup(8)
    for sa, sb, sc in zip(a.scenarios, b.scenarios, c.scenarios):
        assert (sa.x0 == sb.x0).all() and (sa.refs == sb.refs).all()
        assert not (sa.x0 == sc.x0).all()


def test_refuses_when_numpy_was_loaded_unpinned(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    with pytest.raises(pin.UnpinnedEnvironment):
        pin.pin_threads()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(W.BENCH_DIR, tmp_path / W.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{W.BENCH_DIR.name}/run.py", "--workload", "loop_msd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

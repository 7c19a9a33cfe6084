"""The benchmark's workloads: two surrogate fits and one closed loop.

Every dataset, initial-parameter, validation, initial-state and reference
draw comes from the workload seed; the program only sees the generated
inputs. Library functions are looked up on their module at call time
(``sampling.build_data_set(...)``), so the traced run's wrappers see every
call the benchmark makes.

- ``fit_arm`` / ``fit_msd``: label a data set, a collocation set and a
  validation set with the RK4 oracle, then ``train``. One repetition is one
  fit. Offline cost.
- ``loop_msd``: receding-horizon control of the true MSD plant, two loops
  per repetition, each from its own initial state and reference. Each interval
  runs ``optimize_segment`` warm-started from the previous gains, applies
  ``control_input``, advances the plant one ``dt`` with ``simulate_zoh`` and
  updates the error state from the measurement. The surrogate is the
  committed fixture, so a training change cannot move loop numbers. Online
  cost.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from pinnpid import gainopt, pid, plants, sampling, training  # noqa: E402
from pinnpid import model as pmodel  # noqa: E402
from pinnpid import network  # noqa: E402

DT = 0.2
EPS = 0.05
ARM = plants.ManipulatorParams()
MSD = plants.MsdParams()
FIXTURE = BENCH_DIR / "fixtures" / "msd_surrogate_seed0.txt"
LABEL_CHECK_ROWS = 16
LABEL_CHECK_ATOL = 1e-8

# The typed errors a workload operation may raise; each is counted as one
# failed operation, never allowed to end the run.
FIT_ERRORS = (plants.RolloutDiverged, training.TrainingDiverged)
SEGMENT_ERRORS = (gainopt.SegmentDiverged, gainopt.InfeasibleGainError)


def arm_rhs(x, u):
    return plants.manipulator_rhs(ARM, x, u)


def msd_rhs(x, u):
    return plants.msd_rhs(MSD, x, u)


@dataclass(frozen=True)
class Plant:
    rhs: object
    state_box: sampling.Box
    input_box: sampling.Box


PLANTS = {
    "arm": Plant(
        arm_rhs,
        sampling.Box([-np.pi, -np.pi, -2.5, -2.5], [np.pi, np.pi, 2.5, 2.5]),
        sampling.Box([-0.5, -0.5], [0.5, 0.5]),
    ),
    "msd": Plant(msd_rhs, sampling.Box([-2.0, -1.0], [2.0, 1.0]), sampling.Box([-1.0], [1.0])),
}


def draw_seeds(seed: int, n: int) -> list[int]:
    """n independent integer seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


# -- fits ----------------------------------------------------------------------


@dataclass(frozen=True)
class FitSpec:
    plant: str
    widths: tuple
    n_data: int
    n_phys: int
    train: dict
    n_val_traj: int = 16
    n_val_steps: int = 10


@dataclass
class FitCase:
    spec: FitSpec
    plant: Plant
    config: sampling.DatasetConfig
    model: pmodel.PinnModel
    train_config: training.TrainConfig
    val_seed: int


@dataclass
class FitRun:
    stamps: tuple = (0.0, 0.0, 0.0)  # clock at start, after labels, after training
    data: object = None
    phys: object = None
    vset: object = None
    model: object = None
    history: list = field(default_factory=list)
    error: str | None = None

    @property
    def label_s(self) -> float:
        return self.stamps[1] - self.stamps[0]

    @property
    def train_s(self) -> float:
        return self.stamps[2] - self.stamps[1]


def setup_fit(spec: FitSpec, seed: int) -> FitCase:
    plant = PLANTS[spec.plant]
    data_seed, init_seed, val_seed = draw_seeds(seed, 3)
    sbox, ibox = plant.state_box, plant.input_box
    config = sampling.DatasetConfig(
        n_data=spec.n_data, n_phys=spec.n_phys, dt=DT, eps=EPS,
        state_box=sbox, input_box=ibox, seed=data_seed,
    )
    scaling = network.InputScaling(
        np.concatenate([[0.0], sbox.lower, ibox.lower]),
        np.concatenate([[DT + EPS], sbox.upper, ibox.upper]),
    )
    net = network.FeedforwardNet(network.NetworkSpec(spec.widths), scaling, sbox.dim, ibox.dim)
    model = pmodel.PinnModel(net=net, params=net.init_params(init_seed), dt=DT, eps=EPS)
    return FitCase(spec, plant, config, model, training.TrainConfig(**spec.train), val_seed)


def run_fit(case: FitCase, clock=time.perf_counter) -> FitRun:
    """Label (data, collocation and validation sets), then train."""
    run = FitRun()
    rhs, spec, cfg = case.plant.rhs, case.spec, case.config
    t0 = clock()
    try:
        run.data = sampling.build_data_set(rhs, cfg)
        run.phys = sampling.build_phys_set(cfg)
        run.vset = training.make_validation_set(
            rhs, cfg.state_box, cfg.input_box, DT, spec.n_val_traj, spec.n_val_steps,
            case.val_seed,
        )
        t1 = clock()
        data, phys = run.data, run.phys
        run.model, run.history = training.train(
            case.model, rhs, lambda k: (data, phys), case.train_config, validation=run.vset
        )
        run.stamps = (t0, t1, clock())
    except FIT_ERRORS as exc:
        run.error = f"{type(exc).__name__}: {exc}"
    return run


def fit_quality(run: FitRun) -> dict:
    report = training.validate(run.model, run.vset)
    return {
        "final_loss": float(run.history[-1].l_total),
        "val_rollout_mse": float(np.mean(report.mse_rollout)),
    }


def check_fit(case: FitCase, run: FitRun) -> list[str]:
    """Problems with a finished fit; an empty list means it is correct."""
    problems = []
    losses = np.array([h.l_total for h in run.history])
    if losses.size == 0 or not np.all(np.isfinite(losses)):
        problems.append("loss history is empty or not finite")
    data, horizon = run.data, case.config.horizon
    rows = np.arange(LABEL_CHECK_ROWS) * (data.t.shape[0] // LABEL_CHECK_ROWS)
    half = data.t[rows] / 2
    mid = sampling.integrate_batch(case.plant.rhs, data.x0[rows], data.u[rows], half, horizon)
    fine = sampling.integrate_batch(case.plant.rhs, mid, data.u[rows], half, horizon)
    label_err = float(np.max(np.abs(fine - data.xf[rows])))
    if not label_err <= LABEL_CHECK_ATOL:
        problems.append(f"labels disagree with half-step reintegration by {label_err:.3g}")
    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=ROOT) as tmp:
        path = Path(tmp) / "model.txt"
        pmodel.save_model(run.model, path)
        loaded = pmodel.load_model(path)
    same = (
        np.array_equal(loaded.params, run.model.params)
        and loaded.dt == run.model.dt
        and loaded.eps == run.model.eps
        and loaded.net.spec == run.model.net.spec
        and np.array_equal(loaded.net.scaling.lower, run.model.net.scaling.lower)
        and np.array_equal(loaded.net.scaling.upper, run.model.net.scaling.upper)
    )
    if not same:
        problems.append("model does not round-trip bit-identically through save/load")
    return problems


# -- closed loop ---------------------------------------------------------------


@dataclass(frozen=True)
class LoopSpec:
    intervals: int = 120
    scenarios: int = 2  # loops per repetition, each from its own initial state and reference
    horizon: int = 5
    n_quad: int = 10
    substeps: int = 10
    max_iters: int = 200
    tol: float = 1e-6


@dataclass
class Scenario:
    x0: np.ndarray
    refs: np.ndarray  # (intervals + horizon + 1, 2): position square wave, zero velocity
    errors0: pid.ErrorState


@dataclass
class LoopCase:
    spec: LoopSpec
    model: pmodel.PinnModel
    scenarios: list
    bounds: pid.GainBounds
    weights: gainopt.CostWeights
    input_box: sampling.Box


@dataclass
class LoopRun:
    interval_s: list = field(default_factory=list)
    plant_s: float = 0.0
    span: tuple = (0.0, 0.0)  # clock at start and end
    gains: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    converged: list = field(default_factory=list)
    sq_errors: list = field(default_factory=list)  # ||r - x||^2 at each interval end
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def controller_s(self) -> float:
        return float(sum(self.interval_s))


def draw_scenario(spec: LoopSpec, model, seed: int) -> Scenario:
    rng = np.random.default_rng(seed)
    x0 = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)])
    amplitude = rng.uniform(0.3, 0.7)
    half_period = int(rng.integers(10, 21))
    phase = int(rng.integers(0, 2 * half_period))
    k = np.arange(spec.intervals + spec.horizon + 1)
    sign = np.where(((k + phase) // half_period) % 2 == 0, 1.0, -1.0)
    refs = np.column_stack([amplitude * sign, np.zeros_like(sign)])
    return Scenario(x0, refs, pid.error_init(model, x0, refs[0], refs[0], DT))


def setup_loop(spec: LoopSpec, seed: int) -> LoopCase:
    """Load the fixture surrogate and draw each scenario's initial state and reference."""
    model = pmodel.load_model(FIXTURE)
    scenarios = [draw_scenario(spec, model, s) for s in draw_seeds(seed, spec.scenarios)]
    bounds = pid.diagonal_gain_bounds(2, 1, (0.0, 5.0), (0.0, 5.0), (0.0, 5.0), coords=[0])
    weights = gainopt.CostWeights(q=np.diag([1000.0, 1.0]), r=[[0.01]], mu=1.0)
    return LoopCase(spec, model, scenarios, bounds, weights, PLANTS["msd"].input_box)


def run_loop(case: LoopCase, clock=time.perf_counter) -> LoopRun:
    """Drive the true plant; only the controller's compute is an interval's latency."""
    run = LoopRun()
    start = clock()
    for scenario in case.scenarios:
        _run_scenario(case, scenario, run, clock)
    run.span = (start, clock())
    return run


def _run_scenario(case: LoopCase, scenario: Scenario, run: LoopRun, clock) -> None:
    spec, model, refs = case.spec, case.model, scenario.refs
    x = scenario.x0
    errors = scenario.errors0
    gains = pid.GainMatrix.from_stacked(case.bounds.center())
    for k in range(spec.intervals):
        t0 = clock()
        try:
            seg = gainopt.optimize_segment(
                model, x, errors, refs[k : k + spec.horizon + 1], case.weights,
                gainopt.AdamConfig(), case.bounds, regularizer_kind="barrier", plant=MSD,
                input_bounds=case.input_box, n_quad=spec.n_quad, max_iters=spec.max_iters,
                tol=spec.tol, init_gains=gains,
            )
            gains = seg.gains
            run.iterations.append(seg.iterations)
            run.converged.append(seg.converged)
        except SEGMENT_ERRORS as exc:
            run.failed += 1  # hold the previous gains
            run.errors.append(f"interval {k}: {type(exc).__name__}: {exc}")
        u = pid.control_input(gains, errors, case.input_box)
        t1 = clock()
        try:
            _, states = plants.simulate_zoh(msd_rhs, x, [u], DT, spec.substeps)
        except plants.RolloutDiverged as exc:
            run.failed += spec.intervals - k
            run.errors.append(f"interval {k}: plant diverged: {exc}")
            return
        t2 = clock()
        x_next = states[-1]
        errors = pid.error_update(
            model, refs[k], refs[k + 1], x, u, errors, DT, n_quad=spec.n_quad,
            x_meas_next=x_next,
        )
        t3 = clock()
        run.interval_s.append((t1 - t0) + (t3 - t2))
        run.plant_s += t2 - t1
        run.gains.append(gains.stacked())
        run.sq_errors.append(float(np.sum((refs[k + 1] - x_next) ** 2)))
        x = x_next


def loop_quality(case: LoopCase, run: LoopRun) -> dict:
    return {"tracking_ise": float(np.sum(run.sq_errors) * DT)}


def check_loop(case: LoopCase, run: LoopRun) -> list[str]:
    problems = []
    lo, hi = case.bounds.lower, case.bounds.upper
    for k, f in enumerate(run.gains):
        if not (np.all(f >= lo) and np.all(f <= hi)):
            problems.append(f"interval {k}: gains outside their bounds")
        if not gainopt.msd_stability_value(MSD, f, 2) > 0:
            problems.append(f"interval {k}: stability value is not positive")
    if len(run.gains) + run.failed < case.spec.scenarios * case.spec.intervals:
        problems.append("loop ended early")
    return problems


# -- the workload table ----------------------------------------------------------


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0



@dataclass(frozen=True)
class FitWorkload:
    """One fit per repetition; stages: labels (the RK4 oracle) and training."""

    name: str
    spec: FitSpec
    expected_spans: tuple  # traced spans this workload must hit

    def setup(self, seed: int) -> FitCase:
        return setup_fit(self.spec, seed)

    def run(self, case: FitCase, clock=time.perf_counter) -> FitRun:
        return run_fit(case, clock)

    def attempted(self) -> int:
        return 1

    def failed(self, run: FitRun) -> int:
        return int(run.error is not None)

    def errors(self, run: FitRun) -> list[str]:
        return [run.error] if run.error else []

    def quality(self, case: FitCase, run: FitRun) -> dict:
        return fit_quality(run)

    def check(self, case: FitCase, run: FitRun) -> list[str]:
        return [] if run.error else check_fit(case, run)

    def timings(self, run: FitRun) -> dict:
        """Stage -> (seconds, span start, span end) for one repetition."""
        t0, t1, t2 = run.stamps
        return {"wall": (t2 - t0, t0, t2), "oracle": (t1 - t0, t0, t1),
                "surrogate": (t2 - t1, t1, t2)}

    def stage_metrics(self, runs) -> dict:
        return {"label_s": [median([r.label_s for r in runs]), "s"],
                "train_s": [median([r.train_s for r in runs]), "s"]}

    def trace_extras(self, case: FitCase, run: FitRun) -> dict:
        if run.data is None:
            return {}
        cfg = case.train_config
        adam = cfg.iterations if cfg.optimizer in ("adam", "adam-then-lbfgs") else 0
        return {"resampled_rows": run.data.n_resampled, "adam_iters": adam,
                "lbfgs_iters": len(run.history) - adam}


@dataclass(frozen=True)
class LoopWorkload:
    """Closed loops per repetition; the oracle (plant) and surrogate (controller)
    stages interleave, so each spans the whole repetition."""

    name: str
    spec: LoopSpec
    expected_spans: tuple

    def setup(self, seed: int) -> LoopCase:
        return setup_loop(self.spec, seed)

    def run(self, case: LoopCase, clock=time.perf_counter) -> LoopRun:
        return run_loop(case, clock)

    def attempted(self) -> int:
        return self.spec.scenarios * self.spec.intervals

    def failed(self, run: LoopRun) -> int:
        return run.failed

    def errors(self, run: LoopRun) -> list[str]:
        return run.errors

    def quality(self, case: LoopCase, run: LoopRun) -> dict:
        return loop_quality(case, run)

    def check(self, case: LoopCase, run: LoopRun) -> list[str]:
        return check_loop(case, run)

    def timings(self, run: LoopRun) -> dict:
        start, end = run.span
        return {"wall": (end - start, start, end), "oracle": (run.plant_s, start, end),
                "surrogate": (run.controller_s, start, end)}

    def stage_metrics(self, runs) -> dict:
        ms = [1e3 * t for r in runs for t in r.interval_s]
        return {
            "interval_ms_p50": [percentile(ms, 50), "ms"],
            "interval_ms_p90": [percentile(ms, 90), "ms"],
            "interval_samples": [len(ms), "count"],
            "iters_per_interval": [_mean([i for r in runs for i in r.iterations]), "count"],
            "converged_frac": [_mean([c for r in runs for c in r.converged]), "ratio"],
        }

    def trace_extras(self, case: LoopCase, run: LoopRun) -> dict:
        return {"iters_per_segment": _mean(run.iterations),
                "converged_frac": _mean(run.converged)}


FIT_SPANS = (
    "sampling.integrate_batch", "sampling.lhs_sample", "plants.rhs", "plants.rk4_step",
    "training.fd_state_jacobian", "training.loss_and_grad", "training.adam_step",
    "training.validate", "network.value_fwd", "network.dual_fwd", "network.value_bwd",
    "network.dual_bwd",
)
LOOP_SPANS = (
    "plants.rhs", "plants.rk4_step", "network.value_fwd", "network.value_bwd",
    "model.predict_with_tape", "model.predict_vjp", "gainopt.optimize_segment",
    "gainopt.window", "gainopt.adam_step", "gainopt.regularizer", "pid.error_update",
    "pid.control_input",
)

WORKLOADS = {
    "fit_arm": FitWorkload("fit_arm", FitSpec(
        plant="arm", widths=(7, 32, 32, 4), n_data=4000, n_phys=4000,
        train={"iterations": 500, "val_interval": 250},
    ), FIT_SPANS),
    "fit_msd": FitWorkload("fit_msd", FitSpec(
        plant="msd", widths=(4, 32, 32, 2), n_data=1000, n_phys=8000,
        train={"iterations": 300, "optimizer": "adam-then-lbfgs",
               "lbfgs_iterations": 100, "val_interval": 100},
    ), FIT_SPANS + ("training.loss",)),
    "loop_msd": LoopWorkload("loop_msd", LoopSpec(), LOOP_SPANS),
}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))

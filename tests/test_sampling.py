"""Stratification, determinism and oracle-consistency of the training sets."""

import os
import signal
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pinnpid.plants import RolloutDiverged
from pinnpid.sampling import (
    FORK_ROWS,
    Box,
    DatasetConfig,
    build_data_set,
    ORACLE_STEPS,
    build_phys_set,
    integrate_batch,
    lhs_sample,
)
from tests.support import (
    ARM_INPUT_BOX,
    ARM_RHS,
    ARM_STATE_BOX,
    MSD_INPUT_BOX,
    MSD_RHS,
    MSD_STATE_BOX,
    calls_to,
    forbid,
)


def msd_config(n_data=64, n_phys=128, seed=0):
    return DatasetConfig(
        n_data=n_data,
        n_phys=n_phys,
        dt=0.2,
        eps=0.05,
        state_box=MSD_STATE_BOX,
        input_box=MSD_INPUT_BOX,
        seed=seed,
    )


class TestBox:
    @pytest.mark.parametrize("lo, hi", [([0.0, 1.0], [1.0, 1.0]), ([0.0, 2.0], [1.0, 1.0]),
                                        ([0.0], [1.0, 2.0])],
                             ids=["equal", "reversed", "shapes"])
    def test_rejects_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="lower < upper"):
            Box(lo, hi)

    def test_does_not_follow_writes_to_its_source(self):
        # the box used to alias its bounds, so this write left lower > upper
        lo, hi = np.array([0.0, -1.0]), np.array([1.0, 1.0])
        box = Box(lo, hi)
        lo[0] = 2.0
        assert np.array_equal(box.lower, [0.0, -1.0]) and np.all(box.lower < box.upper)

    @pytest.mark.parametrize("name", ["lower", "upper"])
    def test_bounds_are_read_only(self, name):
        # a write through the box used to get past its lower < upper check
        box = Box([0.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            getattr(box, name)[0] = 2.0
        assert np.all(box.lower < box.upper)

    def test_infinite_side_is_a_one_sided_box(self):
        box = Box([-np.inf], [1.0])
        assert np.clip(5.0, box.lower, box.upper)[0] == 1.0


class TestLhs:
    def test_one_point_per_stratum_1d(self):
        rng = np.random.default_rng(0)
        pts = lhs_sample([0.0], [1.0], 4, rng)[:, 0]
        counts = np.histogram(pts, bins=[0.0, 0.25, 0.5, 0.75, 1.0])[0]
        assert np.array_equal(counts, [1, 1, 1, 1])

    def test_stratification_every_dimension(self):
        rng = np.random.default_rng(3)
        n = 50
        pts = lhs_sample([0.0, -1.0, 5.0], [2.0, 1.0, 6.0], n, rng)
        lo = np.array([0.0, -1.0, 5.0])
        hi = np.array([2.0, 1.0, 6.0])
        for j in range(3):
            strata = np.floor((pts[:, j] - lo[j]) / (hi[j] - lo[j]) * n).astype(int)
            assert sorted(strata) == list(range(n))

    @pytest.mark.parametrize("lo, hi", [([-1.0], [np.inf]), ([-np.inf], [1.0])],
                             ids=["inf_upper", "inf_lower"])
    def test_rejects_a_box_that_is_not_finite(self, lo, hi):
        # an infinite upper bound gave rows of inf, an infinite lower one NaN with a
        # RuntimeWarning; a data set config with such an input box gave NaN collocation rows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite box"):
                lhs_sample([0.0] + lo, [1.0] + hi, 8, np.random.default_rng(0))
            with pytest.raises(ValueError, match="finite box"):
                build_phys_set(replace(msd_config(), input_box=Box(lo, hi)))

    def test_same_seed_same_points(self):
        a = lhs_sample([0.0, 0.0], [1.0, 1.0], 32, np.random.default_rng(9))
        b = lhs_sample([0.0, 0.0], [1.0, 1.0], 32, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_kolmogorov_distance_to_uniform(self):
        rng = np.random.default_rng(21)
        pts = lhs_sample([0.0, 0.0], [1.0, 1.0], 1000, rng)
        for j in range(2):
            s = np.sort(pts[:, j])
            grid = (np.arange(1000) + 1) / 1000.0
            ks = np.max(np.abs(s - grid))
            assert ks < 0.05


class TestDataSet:
    def test_paper_scale_counts_accepted(self):
        cfg = DatasetConfig(
            n_data=2 * 10**4,
            n_phys=1 * 10**5,
            dt=0.2,
            eps=0.05,
            state_box=ARM_STATE_BOX,
            input_box=ARM_INPUT_BOX,
            seed=0,
        )
        assert cfg.horizon == pytest.approx(0.250)
        # NaN passed `dt <= 0` and made every sample time NaN
        for bad in (dict(dt=0.0), dict(dt=np.nan), dict(eps=np.nan)):
            with pytest.raises(ValueError, match="dt and eps"):
                replace(cfg, **bad)

    def test_short_time_stays_near_start(self):
        cfg = msd_config()
        data = build_data_set(MSD_RHS, cfg)
        i = int(np.argmin(data.t))
        assert np.linalg.norm(data.xf[i] - data.x0[i]) < 3.0 * data.t[i] + 1e-6

    def test_labels_match_half_step_reintegration(self):
        cfg = msd_config(n_data=16)
        data = build_data_set(MSD_RHS, cfg)
        # halve the step by splitting each sample time in two legs
        mid = integrate_batch(MSD_RHS, data.x0, data.u, data.t / 2, cfg.horizon)
        fine = integrate_batch(MSD_RHS, mid, data.u, data.t / 2, cfg.horizon)
        np.testing.assert_allclose(fine, data.xf, atol=1e-8)

    def test_times_in_half_open_interval(self):
        cfg = msd_config()
        data = build_data_set(MSD_RHS, cfg)
        assert np.all(data.t > 0.0) and np.all(data.t <= cfg.horizon)

    def test_deterministic_under_seed(self):
        cfg = msd_config(seed=5)
        a = build_data_set(MSD_RHS, cfg)
        b = build_data_set(MSD_RHS, cfg)
        assert np.array_equal(a.xf, b.xf) and np.array_equal(a.t, b.t)

    def test_rows_are_one_latin_hypercube(self):
        # the hypercube on which msd_cliff (below) diverges on one row
        cfg = msd_config(seed=7)
        data = build_data_set(MSD_RHS, cfg)
        cols = np.column_stack([1.0 - data.t / cfg.horizon, data.x0, data.u])
        lo = np.concatenate([[0.0], cfg.state_box.lower, cfg.input_box.lower])
        hi = np.concatenate([[1.0], cfg.state_box.upper, cfg.input_box.upper])
        strata = np.floor((cols - lo) / (hi - lo) * cfg.n_data).astype(int)
        for j in range(cols.shape[1]):
            assert sorted(strata[:, j]) == list(range(cfg.n_data))


def counting(rhs):
    """rhs that also records how many rows it was evaluated on."""

    def wrapped(x, u):
        wrapped.rows += x.shape[0]
        return rhs(x, u)

    wrapped.rows = 0
    return wrapped


def msd_cliff(x, u):
    """MSD rates, but infinite in the corner x > 0, u > 0.98 of the box."""
    corner = (x[..., 0] > 0.0) & (u[..., 0] > 0.98)
    return np.where(corner[..., None], np.inf, MSD_RHS(x, u))


class TestResample:
    """A diverged label is never redrawn: it raises, without a RuntimeWarning
    (which tier-1 turns into an error), after one integration."""

    def test_diverged_label_raises_after_one_integration(self):
        cfg = msd_config(seed=7)
        rhs = counting(msd_cliff)
        with pytest.raises(RolloutDiverged, match="^1 of 64 rows non-finite in batched rollout$"):
            build_data_set(rhs, cfg)
        assert rhs.rows == 4 * ORACLE_STEPS * cfg.n_data

    def test_gives_up_when_rows_never_turn_finite(self):
        cfg = msd_config(n_data=8)
        with pytest.raises(RolloutDiverged, match="^8 of 8 rows"):
            build_data_set(lambda x, u: np.full_like(x, np.inf), cfg)


class TestFinalTimes:
    @pytest.mark.parametrize("t_bad", [-1.0, np.nan, np.inf])
    def test_rejects_a_final_time_that_is_not_a_time(self, t_bad):
        # -1 integrated backwards (e ~ 2.718 on xdot = -x from 1), and NaN was reported
        # as a diverged rollout
        rhs = counting(lambda x, u: -x)
        with pytest.raises(ValueError, match="^1 of 2 final times are negative or not finite$"):
            integrate_batch(rhs, np.ones((2, 1)), np.zeros((2, 1)), np.array([0.1, t_bad]), 0.25)
        assert rhs.rows == 0

    def test_zero_final_time_returns_the_start(self):
        x0 = np.array([[1.0], [2.0]])
        x = integrate_batch(lambda x, u: -x, x0, np.zeros((2, 1)), np.zeros(2), 0.25)
        assert np.array_equal(x, x0)


class TestShapes:
    @pytest.mark.parametrize("name, value, message", [
        # a one-entry t_final broadcast over every row
        ("t_final", np.array([0.1]), r"^t_final has shape \(1,\), the model needs \(2,\)$"),
        ("u", np.zeros((3, 1)), r"^u has shape \(3, 1\), the model needs \(2, 1\)$"),
        ("u", np.zeros(2), r"^u has shape \(2,\), the model needs \(2, 2\)$"),
        ("x0", np.ones(2), r"^x0 has shape \(2,\), not \(rows, states\)$"),
    ])
    def test_names_an_array_of_another_row_count(self, name, value, message):
        rhs = counting(lambda x, u: -x)
        arrays = dict(x0=np.ones((2, 1)), u=np.zeros((2, 1)), t_final=np.array([0.1, 0.2]))
        arrays[name] = value
        with pytest.raises(ValueError, match=message):
            integrate_batch(rhs, horizon=0.25, **arrays)
        assert rhs.rows == 0


def label_case(plant, rows, seed=3):
    """(rhs, x0, u, t_final) of ``rows`` uniform draws over the plant's boxes."""
    rhs, state_box, input_box = {"arm": (ARM_RHS, ARM_STATE_BOX, ARM_INPUT_BOX),
                                 "msd": (MSD_RHS, MSD_STATE_BOX, MSD_INPUT_BOX)}[plant]
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(state_box.lower, state_box.upper, (rows, state_box.dim))
    u = rng.uniform(input_box.lower, input_box.upper, (rows, input_box.dim))
    return rhs, x0, u, rng.uniform(0.0, 0.25, rows)


def in_halves(monkeypatch, rhs, x0, u, t_final):
    """Rows [0, N//2) and [N//2, N), each integrated whole in this process, concatenated."""
    monkeypatch.delattr(os, "fork")  # where fork is missing, the call stays whole
    cut = len(t_final) // 2
    return np.concatenate([integrate_batch(rhs, x0[b], u[b], t_final[b], 0.25)
                           for b in (slice(None, cut), slice(cut, None))])


class TestLabelSplit:
    """From ``FORK_ROWS`` rows up, a forked child integrates the upper half of the
    rows: the labels keep their bits, a failure of the child costs no result, an
    exception of rhs reaches the caller, and no child outlives the call."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("rows", [FORK_ROWS, FORK_ROWS + 1, 2 * FORK_ROWS])
    @pytest.mark.parametrize("plant", ["arm", "msd"])
    def test_split_equals_the_halves_in_process(self, plant, rows, monkeypatch):
        rhs, x0, u, t_final = label_case(plant, rows)
        forks = calls_to(monkeypatch, os, "fork")
        got = integrate_batch(rhs, x0, u, t_final, 0.25)
        assert len(forks) == 1
        want = in_halves(monkeypatch, rhs, x0, u, t_final)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("fault", ["raise", "kill"])
    def test_a_failed_child_costs_no_result(self, fault, monkeypatch):
        caller = os.getpid()

        def rhs(x, u):
            if os.getpid() != caller:
                if fault == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ZeroDivisionError("in the child")
            return MSD_RHS(x, u)

        _, x0, u, t_final = label_case("msd", FORK_ROWS + 1)
        forks = calls_to(monkeypatch, os, "fork")
        got = integrate_batch(rhs, x0, u, t_final, 0.25)
        assert len(forks) == 1
        want = in_halves(monkeypatch, MSD_RHS, x0, u, t_final)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_an_exception_of_rhs_reaches_the_caller(self):
        def rhs(x, u):
            raise ZeroDivisionError("everywhere")

        _, x0, u, t_final = label_case("msd", FORK_ROWS)
        with pytest.raises(ZeroDivisionError, match="^everywhere$"):
            integrate_batch(rhs, x0, u, t_final, 0.25)

    def test_divergence_is_counted_over_both_halves(self):
        # rows with u > 0.9 diverge at their first step, in both halves; no
        # RuntimeWarning (an error under tier-1 and here) escapes either process
        _, x0, u, t_final = label_case("msd", FORK_ROWS)
        cliff = u[:, 0] > 0.9
        half = FORK_ROWS // 2
        assert cliff[:half].any() and cliff[half:].any()
        rhs = lambda x, u: np.where(u > 0.9, np.inf, MSD_RHS(x, u))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RolloutDiverged, match=f"^{cliff.sum()} of {FORK_ROWS} rows "
                                                      "non-finite in batched rollout$"):
                integrate_batch(rhs, x0, u, t_final, 0.25)

    def test_below_the_floor_the_call_never_forks(self, monkeypatch):
        forbid(monkeypatch, os, "fork")
        rhs, x0, u, t_final = label_case("msd", FORK_ROWS - 1)
        integrate_batch(rhs, x0, u, t_final, 0.25)


class TestPhysSet:
    def test_all_points_inside_box(self):
        cfg = msd_config()
        phys = build_phys_set(cfg)
        assert np.all((phys.t >= 0) & (phys.t <= cfg.horizon))
        for box, points in ((cfg.state_box, phys.x), (cfg.input_box, phys.u)):
            assert np.all((points >= box.lower) & (points <= box.upper))

    def test_counts(self):
        cfg = msd_config(n_phys=77)
        phys = build_phys_set(cfg)
        assert phys.t.shape == (77,) and phys.x.shape == (77, 2) and phys.u.shape == (77, 1)

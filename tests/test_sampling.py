"""Stratification, determinism and oracle-consistency of the training sets."""

import numpy as np
import pytest

from pinnpid.plants import MsdParams, RolloutDiverged, msd_rhs
from pinnpid.sampling import (
    Box,
    DatasetConfig,
    build_data_set,
    ORACLE_STEPS,
    build_phys_set,
    integrate_batch,
    lhs_sample,
)

MSD = MsdParams()


def msd_config(n_data=64, n_phys=128, seed=0):
    return DatasetConfig(
        n_data=n_data,
        n_phys=n_phys,
        dt=0.2,
        eps=0.05,
        state_box=Box([-2.0, -1.0], [2.0, 1.0]),
        input_box=Box([-1.0], [1.0]),
        seed=seed,
    )


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
            state_box=Box([-np.pi, -np.pi, -2.5, -2.5], [np.pi, np.pi, 2.5, 2.5]),
            input_box=Box([-0.5, -0.5], [0.5, 0.5]),
        )
        assert cfg.horizon == pytest.approx(0.250)

    def test_short_time_stays_near_start(self):
        cfg = msd_config()
        rhs = lambda x, u: msd_rhs(MSD, x, u)
        data = build_data_set(rhs, cfg)
        i = int(np.argmin(data.t))
        assert np.linalg.norm(data.xf[i] - data.x0[i]) < 3.0 * data.t[i] + 1e-6

    def test_labels_match_half_step_reintegration(self):
        cfg = msd_config(n_data=16)
        rhs = lambda x, u: msd_rhs(MSD, x, u)
        data = build_data_set(rhs, cfg)
        # halve the step by splitting each sample time in two legs
        mid = integrate_batch(rhs, data.x0, data.u, data.t / 2, cfg.horizon)
        fine = integrate_batch(rhs, mid, data.u, data.t / 2, cfg.horizon)
        np.testing.assert_allclose(fine, data.xf, atol=1e-8)

    def test_times_in_half_open_interval(self):
        cfg = msd_config()
        data = build_data_set(lambda x, u: msd_rhs(MSD, x, u), cfg)
        assert np.all(data.t > 0.0) and np.all(data.t <= cfg.horizon)

    def test_deterministic_under_seed(self):
        cfg = msd_config(seed=5)
        rhs = lambda x, u: msd_rhs(MSD, x, u)
        a = build_data_set(rhs, cfg)
        b = build_data_set(rhs, cfg)
        assert np.array_equal(a.xf, b.xf) and np.array_equal(a.t, b.t)


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
    return np.where(corner[..., None], np.inf, msd_rhs(MSD, x, u))


class TestResample:
    def test_only_redrawn_rows_are_integrated_again(self):
        cfg = msd_config(seed=7)
        clean = build_data_set(lambda x, u: msd_rhs(MSD, x, u), cfg)
        rhs = counting(msd_cliff)
        data = build_data_set(rhs, cfg)
        assert np.all(np.isfinite(data.xf))
        assert data.n_resampled > 0
        kept = (data.t == clean.t) & np.all(data.x0 == clean.x0, axis=1) & np.all(
            data.u == clean.u, axis=1
        )
        assert 0 < np.sum(~kept) <= data.n_resampled
        np.testing.assert_array_equal(
            data.xf[kept],
            integrate_batch(msd_cliff, data.x0[kept], data.u[kept], data.t[kept], cfg.horizon),
        )
        # one full integration, then one per redraw of a row
        assert rhs.rows == 4 * ORACLE_STEPS * (cfg.n_data + data.n_resampled)

    def test_gives_up_when_rows_never_turn_finite(self):
        cfg = msd_config(n_data=8)
        with pytest.raises(RolloutDiverged):
            build_data_set(lambda x, u: np.full_like(x, np.inf), cfg)


class TestPhysSet:
    def test_all_points_inside_box(self):
        cfg = msd_config()
        phys = build_phys_set(cfg)
        assert np.all((phys.t >= 0) & (phys.t <= cfg.horizon))
        assert np.all(cfg.state_box.contains(phys.x))
        assert np.all(cfg.input_box.contains(phys.u))

    def test_counts(self):
        cfg = msd_config(n_phys=77)
        phys = build_phys_set(cfg)
        assert phys.t.shape == (77,) and phys.x.shape == (77, 2) and phys.u.shape == (77, 1)

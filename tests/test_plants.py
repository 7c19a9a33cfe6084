"""Plant dynamics against independent oracles, and integrator order checks."""

import numpy as np
import pytest
import sympy as sp
from scipy.linalg import expm

from pinnpid.plants import (
    ManipulatorParams,
    MsdParams,
    RolloutDiverged,
    gravity_compensation_input,
    manipulator_energy,
    manipulator_gravity,
    manipulator_inertia,
    manipulator_rhs,
    msd_rhs,
    msd_state_space,
    rk4_step,
    simulate_zoh,
)

MANIP = ManipulatorParams()
MSD = MsdParams()


@pytest.fixture(scope="module")
def lagrangian_oracle():
    """Symbolic Euler-Lagrange derivation of the arm's accelerations."""
    a, b, da, db, ta, tb = sp.symbols("a b da db ta tb", real=True)
    p = MANIP
    # COM positions, angles measured from the upward vertical
    p1 = sp.Matrix([p.lc1 * sp.sin(a), p.lc1 * sp.cos(a)])
    p2 = sp.Matrix(
        [p.l1 * sp.sin(a) + p.lc2 * sp.sin(a + b), p.l1 * sp.cos(a) + p.lc2 * sp.cos(a + b)]
    )
    q = sp.Matrix([a, b])
    qd = sp.Matrix([da, db])
    v1 = p1.jacobian(q) * qd
    v2 = p2.jacobian(q) * qd
    T = (
        sp.Rational(1, 2) * p.m1 * (v1.T * v1)[0]
        + sp.Rational(1, 2) * p.i1 * da**2
        + sp.Rational(1, 2) * p.m2 * (v2.T * v2)[0]
        + sp.Rational(1, 2) * p.i2 * (da + db) ** 2
    )
    U = p.m1 * p.gravity * p1[1] + p.m2 * p.gravity * p2[1]
    L = T - U
    dda, ddb = sp.symbols("dda ddb", real=True)
    subs_acc = {}
    eqs = []
    for i, (qi, qdi, tau) in enumerate([(a, da, ta), (b, db, tb)]):
        dL_dqd = sp.diff(L, qdi)
        # chain rule for d/dt of dL/dqdot
        ddt = (
            sp.diff(dL_dqd, a) * da
            + sp.diff(dL_dqd, b) * db
            + sp.diff(dL_dqd, da) * dda
            + sp.diff(dL_dqd, db) * ddb
        )
        eqs.append(sp.Eq(ddt - sp.diff(L, qi), tau))
    sol = sp.solve(eqs, [dda, ddb], dict=True)[0]
    return sp.lambdify((a, b, da, db, ta, tb), (sol[dda], sol[ddb]), "numpy")


class TestManipulator:
    def test_upright_equilibrium(self):
        rate = manipulator_rhs(MANIP, np.zeros(4), np.zeros(2))
        np.testing.assert_array_equal(rate, np.zeros(4))

    def test_zero_velocity_freezes_positions(self):
        rate = manipulator_rhs(MANIP, np.array([0.4, -0.9, 0.0, 0.0]), np.zeros(2))
        assert rate[0] == 0.0 and rate[1] == 0.0

    def test_matches_lagrangian_oracle(self, lagrangian_oracle):
        rng = np.random.default_rng(77)
        for _ in range(25):
            x = rng.uniform([-3, -3, -2.5, -2.5], [3, 3, 2.5, 2.5])
            u = rng.uniform(-0.48, 0.48, 2)
            rate = manipulator_rhs(MANIP, x, u)
            tau = MANIP.b_diag * u
            acc = lagrangian_oracle(x[0], x[1], x[2], x[3], tau[0], tau[1])
            np.testing.assert_allclose(rate[2:], acc, rtol=0, atol=1e-10)
            np.testing.assert_array_equal(rate[:2], x[2:])

    def test_batched_rhs_matches_loop(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(6, 4))
        U = rng.uniform(-0.4, 0.4, size=(6, 2))
        batch = manipulator_rhs(MANIP, X, U)
        rows = np.array([manipulator_rhs(MANIP, X[i], U[i]) for i in range(6)])
        np.testing.assert_array_equal(batch, rows)

    def test_coriolis_skew_symmetry(self):
        # Ddot - 2C must be skew symmetric for the Christoffel C
        rng = np.random.default_rng(11)
        p = MANIP
        for _ in range(20):
            beta, da, db = rng.uniform(-3, 3, 3)
            h = -p.m2 * p.l1 * p.lc2 * np.sin(beta)
            c_mat = np.array([[h * db, h * (da + db)], [-h * da, 0.0]])
            dd_dbeta = np.array(
                [
                    [-2 * p.m2 * p.l1 * p.lc2 * np.sin(beta), -p.m2 * p.l1 * p.lc2 * np.sin(beta)],
                    [-p.m2 * p.l1 * p.lc2 * np.sin(beta), 0.0],
                ]
            )
            n_mat = dd_dbeta * db - 2.0 * c_mat
            np.testing.assert_allclose(n_mat, -n_mat.T, atol=1e-12)
            # and the rhs uses exactly C @ qdot
            qd = np.array([da, db])
            x = np.array([0.3, beta, da, db])
            d11, d12, d22 = manipulator_inertia(p, beta)
            d_mat = np.array([[d11, d12], [d12, d22]])
            g = manipulator_gravity(p, x[:2])
            acc = manipulator_rhs(p, x, np.zeros(2))[2:]
            np.testing.assert_allclose(d_mat @ acc + c_mat @ qd + g, 0.0, atol=1e-10)

    def test_energy_conserved_without_input(self):
        x0 = np.array([0.5, -0.7, 0.3, 0.2])
        e0 = manipulator_energy(MANIP, x0)
        rhs = lambda x, u: manipulator_rhs(MANIP, x, u)
        _, states = simulate_zoh(rhs, x0, [np.zeros(2)] * 10, 0.2, 200)
        drift = max(abs(manipulator_energy(MANIP, s) - e0) for s in states[::40])
        assert drift < 5e-7  # pure integrator truncation, scales as h^4

    def test_inertia_positive_definite_on_grid(self):
        for beta in np.linspace(-np.pi, np.pi, 41):
            d11, d12, d22 = manipulator_inertia(MANIP, beta)
            assert d11 > 0 and d11 * d22 - d12**2 > 0


class TestGravityCompensation:
    def test_upright_needs_no_input(self):
        np.testing.assert_array_equal(
            gravity_compensation_input(MANIP, np.zeros(2)), np.zeros(2)
        )

    def test_both_links_horizontal_hand_value(self):
        # alpha = pi/2, beta = 0: g = -[(m1 lc1 + m2 l1) g + m2 lc2 g, m2 lc2 g]
        p = MANIP
        q = np.array([np.pi / 2, 0.0])
        expect = -np.array(
            [
                (p.m1 * p.lc1 + p.m2 * p.l1) * p.gravity + p.m2 * p.lc2 * p.gravity,
                p.m2 * p.lc2 * p.gravity,
            ]
        ) / p.b_diag
        np.testing.assert_allclose(gravity_compensation_input(p, q), expect, rtol=1e-14)

    def test_doubling_b_halves_input(self):
        q = np.array([0.4, -0.2])
        base = gravity_compensation_input(MANIP, q)
        doubled = ManipulatorParams(b_alpha=80.0, b_beta=80.0)
        np.testing.assert_allclose(gravity_compensation_input(doubled, q), base / 2.0)


class TestMsd:
    def test_hand_rate(self):
        rate = msd_rhs(MSD, np.array([0.1, 0.0]), np.array([0.0]))
        np.testing.assert_allclose(rate, [0.0, -0.1], atol=1e-15)

    def test_equilibrium(self):
        np.testing.assert_array_equal(msd_rhs(MSD, np.zeros(2), np.zeros(1)), np.zeros(2))

    def test_derived_constants(self):
        assert MSD.zeta == pytest.approx(0.25)
        assert MSD.omega_n == pytest.approx(1.0)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x1, x2 = rng.standard_normal((2, 2))
        u1, u2 = rng.standard_normal((2, 1))
        a_, b_ = 1.7, -0.4
        lhs = msd_rhs(MSD, a_ * x1 + b_ * x2, a_ * u1 + b_ * u2)
        rhs_ = a_ * msd_rhs(MSD, x1, u1) + b_ * msd_rhs(MSD, x2, u2)
        np.testing.assert_allclose(lhs, rhs_, atol=1e-14)


class TestRk4:
    def test_zero_rhs_keeps_state(self):
        x = np.array([1.0, -2.0])
        out = rk4_step(lambda x_, u_: np.zeros_like(x_), x, np.zeros(1), 0.1)
        np.testing.assert_array_equal(out, x)

    def test_exponential_decay_oracle(self):
        out = rk4_step(lambda x_, u_: -x_, np.array([1.0]), np.zeros(1), 0.1)
        assert out[0] == pytest.approx(0.9048375, abs=1e-9)
        assert abs(out[0] - np.exp(-0.1)) <= 1e-7

    def test_fourth_order_convergence_on_msd(self):
        a_mat, _ = msd_state_space(MSD)
        exact = expm(a_mat * 4.0) @ np.array([-0.7, 0.0])
        rhs = lambda x, u: msd_rhs(MSD, x, u)

        def global_error(h):
            x = np.array([-0.7, 0.0])
            for _ in range(int(round(4.0 / h))):
                x = rk4_step(rhs, x, np.zeros(1), h)
            return np.linalg.norm(x - exact)

        ratio = global_error(0.05) / global_error(0.025)
        assert 14.0 <= ratio <= 18.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            rk4_step(lambda x, u: x, np.ones(1), np.zeros(1), 0.0)

    def test_divergence_detected(self):
        with pytest.raises(RolloutDiverged), np.errstate(over="ignore", invalid="ignore"):
            x = np.array([1.0])
            for _ in range(100):
                x = rk4_step(lambda x_, u_: x_**3, x, np.zeros(1), 0.5)


class TestSimulateZoh:
    def test_empty_sequence(self):
        times, states = simulate_zoh(lambda x, u: -x, np.array([1.0]), [], 0.2, 10)
        assert states.shape == (1, 1) and times[0] == 0.0

    def test_msd_free_response_decays(self):
        rhs = lambda x, u: msd_rhs(MSD, x, u)
        _, states = simulate_zoh(rhs, np.array([-0.7, 0.0]), [np.zeros(1)] * 150, 0.2, 10)
        assert np.linalg.norm(states[-1]) < 0.01 * np.linalg.norm(states[0])

    def test_manipulator_substep_refinement(self):
        rhs = lambda x, u: manipulator_rhs(MANIP, x, u)
        x0 = np.array([0.2, -0.1, 0.0, 0.0])
        u = [np.array([0.1, -0.05])]
        _, coarse = simulate_zoh(rhs, x0, u, 0.2, 20)
        _, fine = simulate_zoh(rhs, x0, u, 0.2, 200)
        np.testing.assert_allclose(coarse[-1], fine[-1], atol=1e-6)

    @pytest.mark.parametrize("plant", ["msd", "arm"])
    def test_batch_equals_single_state_calls(self, plant):
        rng = np.random.default_rng(4)
        if plant == "msd":
            rhs = lambda x, u: msd_rhs(MSD, x, u)
            x0, u = rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (3, 5, 1))
        else:
            rhs = lambda x, u: manipulator_rhs(MANIP, x, u)
            x0, u = rng.uniform(-1, 1, (5, 4)), rng.uniform(-0.5, 0.5, (3, 5, 2))
        times, batch = simulate_zoh(rhs, x0, u, 0.2, 7)
        assert batch.shape == (3 * 7 + 1, 5, x0.shape[1])
        for b in range(5):
            t_b, single = simulate_zoh(rhs, x0[b], u[:, b], 0.2, 7)
            np.testing.assert_array_equal(t_b, times)
            if plant == "msd":
                np.testing.assert_array_equal(batch[:, b], single)
            else:
                np.testing.assert_allclose(batch[:, b], single, rtol=0, atol=1e-12)

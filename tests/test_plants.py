"""Plant dynamics against independent oracles, and integrator order checks."""

import numpy as np
import pytest
import sympy as sp
from scipy.linalg import expm

from pinnpid.plants import (
    ManipulatorParams,
    MsdParams,
    RolloutDiverged,
    manipulator_energy,
    manipulator_gravity,
    manipulator_inertia,
    manipulator_rhs,
    msd_rhs,
    msd_state_space,
    rk4_advance,
    rk4_step,
    simulate_zoh,
)
from pinnpid.training import FD_STEP, fd_state_jacobian
from tests import reference_plants
from tests.support import ARM, ARM_RHS, MSD, MSD_RHS


def gravity(p, q):
    """g(q) written into a new array of q's shape, and that array returned."""
    out = np.empty(np.shape(q))
    assert manipulator_gravity(p, q, out) is out
    return out


def euler_lagrange():
    """Symbolic Euler-Lagrange terms of the arm: the symbols (a, b, da, db),
    the inertia D(q) and the rest h(q, qdot) of D(q) qddot + h(q, qdot) = tau."""
    a, b, da, db = sp.symbols("a b da db", real=True)
    p = ARM
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
    # Euler-Lagrange, d/dt(dL/dqdot) - dL/dq = tau, split by the chain rule into
    # D(q) qddot + h(q, qdot) = tau with D = d(dL/dqdot)/dqdot
    dL_dqd = sp.Matrix([L]).jacobian(qd).T
    inertia = dL_dqd.jacobian(qd)
    rest = dL_dqd.jacobian(q) * qd - sp.Matrix([L]).jacobian(q).T
    return (a, b, da, db), inertia, rest


@pytest.fixture(scope="module")
def lagrangian_oracle():
    """Symbolic Euler-Lagrange derivation of the arm's accelerations."""
    (a, b, da, db), inertia, rest = euler_lagrange()
    inertia_fn = sp.lambdify((a, b), inertia, "numpy")
    rest_fn = sp.lambdify((a, b, da, db), rest, "numpy")

    def accelerations(qa, qb, qda, qdb, tau_a, tau_b):
        rhs = np.array([tau_a, tau_b]) - np.ravel(rest_fn(qa, qb, qda, qdb))
        return np.linalg.solve(np.asarray(inertia_fn(qa, qb), dtype=float), rhs)

    return accelerations


@pytest.fixture(scope="module")
def lagrangian_state_jacobian():
    """The 4x4 state Jacobian of [qdot; D^-1 (tau - h)], differentiated symbolically."""
    x_syms, inertia, rest = euler_lagrange()
    tau = sp.symbols("tau_a tau_b", real=True)
    acc = inertia.LUsolve(sp.Matrix(tau) - rest)
    rate = sp.Matrix([x_syms[2], x_syms[3], acc[0], acc[1]])
    jac_fn = sp.lambdify((*x_syms, *tau), rate.jacobian(sp.Matrix(x_syms)), "numpy", cse=True)
    return lambda x, tau_: np.asarray(jac_fn(*x, *tau_), dtype=float)


class TestManipulator:
    def test_upright_equilibrium(self):
        rate = manipulator_rhs(ARM, np.zeros(4), np.zeros(2))
        np.testing.assert_array_equal(rate, np.zeros(4))

    def test_zero_velocity_freezes_positions(self):
        rate = manipulator_rhs(ARM, np.array([0.4, -0.9, 0.0, 0.0]), np.zeros(2))
        assert rate[0] == 0.0 and rate[1] == 0.0

    def test_matches_lagrangian_oracle(self, lagrangian_oracle):
        rng = np.random.default_rng(77)
        for _ in range(25):
            x = rng.uniform([-3, -3, -2.5, -2.5], [3, 3, 2.5, 2.5])
            u = rng.uniform(-0.48, 0.48, 2)
            rate = manipulator_rhs(ARM, x, u)
            tau = np.array([ARM.b_alpha, ARM.b_beta]) * u
            acc = lagrangian_oracle(x[0], x[1], x[2], x[3], tau[0], tau[1])
            np.testing.assert_allclose(rate[2:], acc, rtol=0, atol=1e-10)
            np.testing.assert_array_equal(rate[:2], x[2:])

    def test_batched_rhs_matches_loop(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(6, 4))
        U = rng.uniform(-0.4, 0.4, size=(6, 2))
        batch = manipulator_rhs(ARM, X, U)
        rows = np.array([manipulator_rhs(ARM, X[i], U[i]) for i in range(6)])
        np.testing.assert_array_equal(batch, rows)

    def test_coriolis_skew_symmetry(self):
        # Ddot - 2C must be skew symmetric for the Christoffel C
        rng = np.random.default_rng(11)
        p = ARM
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
            g = gravity(p, x[:2])
            acc = manipulator_rhs(p, x, np.zeros(2))[2:]
            np.testing.assert_allclose(d_mat @ acc + c_mat @ qd + g, 0.0, atol=1e-10)

    def test_energy_conserved_without_input(self):
        x0 = np.array([0.5, -0.7, 0.3, 0.2])
        e0 = manipulator_energy(ARM, x0)
        _, states = simulate_zoh(ARM_RHS, x0, [np.zeros(2)] * 10, 0.2, 200)
        drift = max(abs(manipulator_energy(ARM, s) - e0) for s in states[::40])
        assert drift < 5e-7  # pure integrator truncation, scales as h^4

    def test_fd_state_jacobian_matches_lagrangian_oracle(self, lagrangian_state_jacobian):
        # states in the sampling box, then fast ones like the labels (up to 37.7 rad/s)
        rng = np.random.default_rng(21)
        x = np.concatenate([
            rng.uniform([-3, -3, -2.5, -2.5], [3, 3, 2.5, 2.5], (4, 4)),
            rng.uniform([-9, -9, -40, -40], [9, 9, 40, 40], (3, 4)),
        ])
        u = rng.uniform(-0.5, 0.5, (7, 2))
        jac = fd_state_jacobian(ARM_RHS, x, u)
        tau = np.array([ARM.b_alpha, ARM.b_beta]) * u
        for i in range(7):
            # central differences lose about eps |f| / FD_STEP to rounding; the
            # truncation error, of order FD_STEP^2, is far below that
            scale = max(1.0, np.max(np.abs(manipulator_rhs(ARM, x[i], u[i]))))
            atol = 100 * np.finfo(float).eps / FD_STEP * scale
            np.testing.assert_allclose(
                jac[i], lagrangian_state_jacobian(x[i], tau[i]), rtol=0, atol=atol
            )

    def test_inertia_positive_definite_on_grid(self):
        for beta in np.linspace(-np.pi, np.pi, 41):
            d11, d12, d22 = manipulator_inertia(ARM, beta)
            assert d11 > 0 and d11 * d22 - d12**2 > 0


class TestParams:
    POSITIVE = {
        ManipulatorParams: ("m1", "m2", "l1", "l2", "lc1", "lc2", "i1", "i2"),
        MsdParams: ("mass", "damping", "stiffness"),
    }

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize(
        "record, name", [(r, n) for r, names in POSITIVE.items() for n in names]
    )
    def test_rejects_nonpositive_or_nonfinite(self, record, name, value):
        with pytest.raises(ValueError, match=name):
            record(**{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["gravity", "b_alpha", "b_beta"])
    def test_rejects_nonfinite_arm_constants(self, name, value):
        with pytest.raises(ValueError, match=name):
            ManipulatorParams(**{name: value})

    def test_zero_and_negative_arm_constants_accepted(self):
        ManipulatorParams(gravity=0.0, b_alpha=-1.0, b_beta=0.0)

    def test_rejects_near_singular_inertia(self):
        # det D(beta) >= m2 l1^2 i2 + (m1 lc1^2 + i1)(m2 lc2^2 + i2), about 2.6e-14 here
        with pytest.raises(ValueError, match="singular inertia"):
            ManipulatorParams(m1=1e-7, m2=1e-7, i1=1e-7, i2=1e-7)
        ManipulatorParams(m1=1e-5, m2=1e-5, i1=1e-5, i2=1e-5)

    def test_inertia_determinant_bound_holds_on_grid(self):
        rng = np.random.default_rng(89)
        beta = np.linspace(-np.pi, np.pi, 2001)
        for _ in range(200):
            p = ManipulatorParams(*rng.uniform(0.05, 3.0, 8))
            d11, d12, d22 = manipulator_inertia(p, beta)
            bound = p.m2 * p.l1**2 * p.i2 + (p.m1 * p.lc1**2 + p.i1) * (p.m2 * p.lc2**2 + p.i2)
            ratio = (d11 * d22 - d12**2) / bound
            assert ratio.min() >= 1.0 - 1e-12
            assert ratio[1000] == pytest.approx(1.0, rel=1e-12)  # sin(beta) = 0: the bound is hit


class TestArmKernelMatchesFrozenReference:
    """The in-place arm kernel against ``tests/reference_plants.py``, bit for bit.

    NumPy's sin can differ in the last bit with the array's length, so each
    comparison is between inputs of one shape.
    """

    IDS = staticmethod(lambda shape: "x".join(map(str, shape + (4,))))
    REF = staticmethod(lambda x, u: reference_plants.manipulator_rhs(ARM, x, u))

    @staticmethod
    def draw(shape, seed=17):
        # angles over several turns, velocities beyond the 37.7 rad/s that labels reach
        rng = np.random.default_rng(seed)
        x = rng.uniform([-20.0, -20.0, -40.0, -40.0], [20.0, 20.0, 40.0, 40.0], shape + (4,))
        return x, rng.uniform(-0.5, 0.5, shape + (2,))

    @pytest.mark.parametrize("shape", [(), (1,), (4,), (16,), (4000,)], ids=IDS)
    def test_rhs_and_gravity(self, shape):
        x, u = self.draw(shape)
        got = manipulator_rhs(ARM, x, u)
        assert got.shape == x.shape
        np.testing.assert_array_equal(got, reference_plants.manipulator_rhs(ARM, x, u))
        np.testing.assert_array_equal(
            gravity(ARM, x[..., :2]),
            reference_plants.manipulator_gravity(ARM, x[..., :2]),
        )
        for got_d, ref_d in zip(manipulator_inertia(ARM, x[..., 1]),
                                reference_plants.manipulator_inertia(ARM, x[..., 1])):
            np.testing.assert_array_equal(got_d, ref_d)

    @pytest.mark.parametrize("shape", [(16,), (4000,)], ids=IDS)
    def test_finite_difference_inputs_and_jacobian(self, shape):
        x, u = self.draw(shape)
        for j in range(4):
            for sign in (1.0, -1.0):
                xs = x.copy()
                xs[..., j] += sign * FD_STEP
                np.testing.assert_array_equal(ARM_RHS(xs, u), self.REF(xs, u))
        np.testing.assert_array_equal(
            fd_state_jacobian(ARM_RHS, x, u), fd_state_jacobian(self.REF, x, u)
        )

    @pytest.mark.parametrize("shape", [(4,), (16,), (4000,)], ids=IDS)
    def test_one_rk4_step(self, shape):
        x, u = self.draw(shape)
        h = np.full(shape + (1,), 1e-3)
        np.testing.assert_array_equal(
            rk4_advance(ARM_RHS, x, u, h), rk4_advance(self.REF, x, u, h)
        )


class TestGravityCompensation:
    """The torque that holds the arm at rest at q is the gravity vector g(q)."""

    def test_upright_needs_no_input(self):
        np.testing.assert_array_equal(gravity(ARM, np.zeros(2)), np.zeros(2))

    def test_both_links_horizontal_hand_value(self):
        # alpha = pi/2, beta = 0: g = -[(m1 lc1 + m2 l1) g + m2 lc2 g, m2 lc2 g]
        p = ARM
        q = np.array([np.pi / 2, 0.0])
        expect = -np.array(
            [
                (p.m1 * p.lc1 + p.m2 * p.l1) * p.gravity + p.m2 * p.lc2 * p.gravity,
                p.m2 * p.lc2 * p.gravity,
            ]
        )
        np.testing.assert_allclose(gravity(p, q), expect, rtol=1e-14)


class TestMsd:
    def test_hand_rate(self):
        rate = msd_rhs(MSD, np.array([0.1, 0.0]), np.array([0.0]))
        np.testing.assert_allclose(rate, [0.0, -0.1], atol=1e-15)

    def test_equilibrium(self):
        np.testing.assert_array_equal(msd_rhs(MSD, np.zeros(2), np.zeros(1)), np.zeros(2))

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

        def global_error(h):
            x = np.array([-0.7, 0.0])
            for _ in range(int(round(4.0 / h))):
                x = rk4_step(MSD_RHS, x, np.zeros(1), h)
            return np.linalg.norm(x - exact)

        ratio = global_error(0.05) / global_error(0.025)
        assert 14.0 <= ratio <= 18.0

    def test_rejects_nonpositive_step(self):
        # a NaN step passed `h <= 0` and surfaced as RolloutDiverged
        for h in (0.0, np.nan):
            with pytest.raises(ValueError, match="step size"):
                rk4_step(lambda x, u: x, np.ones(1), np.zeros(1), h)
            with pytest.raises(ValueError, match="dt"):
                simulate_zoh(lambda x, u: x, np.ones(1), [np.zeros(1)], h, 10)

    def test_divergence_detected(self):
        with pytest.raises(RolloutDiverged), np.errstate(over="ignore", invalid="ignore"):
            x = np.array([1.0])
            for _ in range(100):
                x = rk4_step(lambda x_, u_: x_**3, x, np.zeros(1), 0.5)


class TestSimulateZoh:
    def test_empty_sequence(self):
        times, states = simulate_zoh(lambda x, u: -x, np.array([1.0]), [], 0.2, 10)
        assert states.shape == (1, 1) and times[0] == 0.0

    def test_times_are_step_multiples(self):
        # a running sum of h drifted off k·h: after 30 steps of 0.1 it read 3.0000000000000013
        times, states = simulate_zoh(lambda x, u: -x, np.array([1.0]), [np.zeros(1)] * 3, 1.0, 10)
        assert states.shape == (31, 1)
        assert times.tolist() == [k * 0.1 for k in range(31)]

    def test_msd_free_response_decays(self):
        _, states = simulate_zoh(MSD_RHS, np.array([-0.7, 0.0]), [np.zeros(1)] * 150, 0.2, 10)
        assert np.linalg.norm(states[-1]) < 0.01 * np.linalg.norm(states[0])

    def test_manipulator_substep_refinement(self):
        x0 = np.array([0.2, -0.1, 0.0, 0.0])
        u = [np.array([0.1, -0.05])]
        _, coarse = simulate_zoh(ARM_RHS, x0, u, 0.2, 20)
        _, fine = simulate_zoh(ARM_RHS, x0, u, 0.2, 200)
        np.testing.assert_allclose(coarse[-1], fine[-1], atol=1e-6)

    @pytest.mark.parametrize("plant", ["msd", "arm"])
    def test_batch_equals_single_state_calls(self, plant):
        rng = np.random.default_rng(4)
        if plant == "msd":
            rhs = MSD_RHS
            x0, u = rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (3, 5, 1))
        else:
            rhs = ARM_RHS
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

import math

import numpy as np
import pytest

import driftflow as df
import driftflow.flow
from driftflow.axes import FourierStiffness, _hermite_ops, circle_nodes
from driftflow.errors import HorizonError, OracleError, UsageError
from driftflow.flow import RunRequest
from driftflow.geometry import CircleModel, ContinuumState
from driftflow.oracles import OracleReport, modal_propagator
from driftflow.spectral import QuadraticForms

LOG2 = math.log(2.0)


class TestDenseSpectrum:
    def test_round_circle_fourier_ladder(self):
        forms = df.assemble_forms(df.weighted_circle(64))
        vals = df.dense_spectrum(forms)
        expected = [0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0]
        np.testing.assert_allclose(vals[:7], expected, atol=1e-10)
        assert len(vals) == 64

    def test_never_takes_the_modal_stiffness(self, monkeypatch):
        # the dense oracle checks the fast path's solves, so it must not share their round-row symbol
        def raising(self, u):
            raise AssertionError("the dense oracle took the modal path")

        forms = df.assemble_forms(df.weighted_circle(64, a=2.0))
        monkeypatch.setattr(FourierStiffness, "modal", raising)
        with pytest.raises(AssertionError, match="modal"):
            forms.blocks[0] @ np.eye(64)
        vals = df.dense_spectrum(forms)
        np.testing.assert_allclose(vals[:7], np.array([0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0]) / 2.0, atol=1e-10)

    def test_dimension_one_system(self):
        forms = QuadraticForms(manifold=None, blocks=(np.zeros((1, 1)),), axis_masses=(np.array([2.0]),))
        np.testing.assert_allclose(df.dense_spectrum(forms), [0.0], atol=1e-15)

    def test_hermite_ladder(self):
        forms = df.assemble_forms(df.gaussian_line(1.0, order=8))
        vals = df.dense_spectrum(forms)
        np.testing.assert_allclose(vals, np.arange(8) / 2.0, atol=1e-12)

    def test_size_cap(self):
        # a 50 x 60 product: the cap fires before the 3000 x 3000 assembly
        forms = QuadraticForms(
            manifold=None, blocks=(np.eye(50), np.eye(60)), axis_masses=(np.ones(50), np.ones(60))
        )
        assert forms.dimension == 3000
        with pytest.raises(OracleError):
            df.dense_spectrum(forms)

    def test_indefinite_mass_rejected(self):
        forms = QuadraticForms(
            manifold=None, blocks=(np.eye(4),), axis_masses=(np.array([1.0, -1.0, 1.0, 1.0]),)
        )
        with pytest.raises(OracleError):
            df.dense_spectrum(forms)


class TestEqualityOde:
    def test_fixed_point(self):
        for s in (0.1, 1.0, 4.0):
            assert df.integrate_equality_ode(0.5, s, dt=1e-3) == 0.5

    def test_below_half_closed_form(self):
        assert df.integrate_equality_ode(0.25, LOG2, dt=1e-4) == pytest.approx(1.0 / 6.0, rel=1e-10)

    def test_pinned_value_and_horizon(self):
        assert df.integrate_equality_ode(0.25, 5.0, dt=1e-4) == 0.003346425462142423
        with pytest.raises(HorizonError):
            df.integrate_equality_ode(0.75, 5.0, dt=1e-4)  # blows up at log 3

    def test_near_blowup(self):
        val = df.integrate_equality_ode(1.0, 0.69, dt=1e-5)
        assert 100.0 < val < 1000.0
        with pytest.raises(HorizonError):
            df.integrate_equality_ode(1.0, 0.70, dt=1e-5)

    @staticmethod
    def _guarded_every_step(F0, s, dt):
        """The integrator with its overflow guard read after every step."""
        nsteps = max(1, int(round(s / dt))) if s > 0 else 0
        h = s / nsteps if nsteps else 0.0
        F = F0
        for _ in range(nsteps):
            k1 = (2.0 * F - 1.0) * F
            x = F + 0.5 * h * k1
            k2 = (2.0 * x - 1.0) * x
            x = F + 0.5 * h * k2
            k3 = (2.0 * x - 1.0) * x
            x = F + h * k3
            k4 = (2.0 * x - 1.0) * x
            F = F + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not math.isfinite(F) or abs(F) > 1e12:
                return HorizonError(np.log(2.0 * F0 / (2.0 * F0 - 1.0)) if F0 > 0.5 else np.inf)
        return F

    @pytest.mark.parametrize(
        "F0, s, dt",
        [
            (0.25, 5.0, 1e-4),  # 50000 steps, not a whole number of blocks
            (0.5, 1.0, 1e-3),
            (-0.3, 2.0, 1e-3),
            (1.0, 0.69, 1e-5),  # close below the horizon log 2
            (0.75, 5.0, 1e-4),  # passes the guard inside a block
            (10.0, 1.0, 1e-2),  # overflows to inf within the first, partial block
            (0.6, 0.3, 1e-3),
            (float("nan"), 1.0, 1e-3),
            (float("inf"), 1.0, 1e-3),
        ],
    )
    def test_guard_per_block_matches_guard_per_step(self, F0, s, dt):
        expected = self._guarded_every_step(F0, s, dt)
        if isinstance(expected, HorizonError):
            with pytest.raises(HorizonError) as caught:
                df.integrate_equality_ode(F0, s, dt=dt)
            assert str(caught.value) == "equality ODE blew up before the requested lag"
            np.testing.assert_equal(caught.value.horizon, expected.horizon)  # nan for F0 = inf
        else:
            assert df.integrate_equality_ode(F0, s, dt=dt) == expected

    def test_bad_arguments(self):
        with pytest.raises(UsageError):
            df.integrate_equality_ode(0.3, 1.0, dt=-1e-3)
        with pytest.raises(UsageError):
            df.integrate_equality_ode(0.3, -1.0)


class TestExtrapolatedEqualityOde:
    @pytest.mark.parametrize("F0, s", [(0.05, 5.0), (0.25, LOG2), (0.49, 2.0), (0.6, 1.0), (2.0, 0.2)])
    def test_matches_the_closed_form(self, F0, s):
        exact = df.eigenvalue_bound(F0, s)
        assert abs(df.equality_ode_extrapolated(F0, s) - exact) <= 1e-14 * max(abs(exact), 1.0)

    def test_two_step_counts_and_the_richardson_value(self, monkeypatch):
        calls, integrate = [], df.oracles.integrate_equality_ode

        def counted(F0, s, dt=1e-4):
            calls.append(round(s / dt))
            return integrate(F0, s, dt)

        monkeypatch.setattr(df.oracles, "integrate_equality_ode", counted)
        got = df.equality_ode_extrapolated(0.3, 5.0)
        assert calls == [500, 1000]
        coarse, fine = integrate(0.3, 5.0, dt=0.01), integrate(0.3, 5.0, dt=0.005)
        assert got == (16.0 * fine - coarse) / 15.0

    def test_zero_lag_blowup_and_bad_lag(self):
        assert df.equality_ode_extrapolated(0.3, 0.0) == 0.3
        with pytest.raises(HorizonError):
            df.equality_ode_extrapolated(0.75, 5.0)  # blows up at log 3
        with pytest.raises(UsageError):
            df.equality_ode_extrapolated(0.3, -1.0)


class TestQuadratureIntegral:
    def test_circle_constant(self):
        dm = df.weighted_circle(64)
        assert dm.integrate(np.ones(64)) == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_gaussian_second_moment(self):
        dm = df.gaussian_line(1.0)
        x = dm.axes[0].nodes
        assert dm.integrate(x * x) == pytest.approx(4.0 * math.sqrt(math.pi), rel=1e-13)

    def test_odd_function_vanishes(self):
        dm = df.gaussian_line(1.0)
        x = dm.axes[0].nodes
        assert abs(dm.integrate(x**3)) < 1e-14


class TestDeterminism:
    def test_repeat_runs_bit_identical(self):
        a = df.integrate_equality_ode(0.3, 1.2345, dt=1e-4)
        b = df.integrate_equality_ode(0.3, 1.2345, dt=1e-4)
        assert a == b
        forms = df.assemble_forms(df.weighted_circle(32))
        np.testing.assert_array_equal(df.dense_spectrum(forms), df.dense_spectrum(forms))

    def test_report_digest_stable(self):
        r1 = OracleReport.compare("demo", {"x": 1.0}, [1.0, 2.0], [1.0, 2.0 + 1e-12])
        r2 = OracleReport.compare("demo", {"x": 1.0}, [1.0, 2.0], [1.0, 2.0 + 1e-12])
        assert r1.inputs_digest == r2.inputs_digest
        assert r1.abs_deviation == pytest.approx(1e-12, rel=1e-3)
        doc = r1.to_json_dict()
        assert doc["oracle"] == "demo"
        assert doc["rel_deviation"] <= doc["abs_deviation"]


def _gauss_circle():
    """scaled_gaussian(u0=2) x round_circle(a0=4): a Hermite mode j = 1 and the
    circle modes cos t, sin t all start at lambda = 1/4."""
    return df.product_family([df.scaled_gaussian_family(2.0, 1), df.round_circle_family(4.0)])


class TestModalPropagator:
    ORDER, NODES = 12, 64

    def _modes(self):
        vand = _hermite_ops(self.ORDER)["vand"]
        theta = circle_nodes(self.NODES)
        return vand, theta

    def test_each_mode_gains_its_own_axis_integral(self):
        family = _gauss_circle()
        vand, theta = self._modes()
        start = df.evaluate_family(family, 0.0)
        lags = (0.1, 0.5, 1.3)
        ends = [df.evaluate_family(family, s) for s in lags]
        for k in range(4):
            for j in range(4):
                for wave in (np.cos, np.sin):
                    u0 = np.outer(vand[:, j], wave(k * theta))
                    if not u0.any():  # sin 0
                        continue
                    stack = modal_propagator(u0, start, ends)  # one end state per lag
                    assert stack.shape == (len(lags), *u0.shape)
                    for s, got in zip(lags, stack):
                        circle = k * k * (1.0 - math.exp(-s)) / 4.0
                        line = 0.5 * j * (s - math.log(1.0 + math.exp(s)) + math.log(2.0))
                        gain = math.exp(s / 2.0 - circle - line)
                        assert float(np.max(np.abs(got - gain * u0))) <= 1e-13 * float(np.max(np.abs(u0)))

    def test_the_three_quarter_modes_are_told_apart_by_axis(self):
        family = _gauss_circle()
        vand, theta = self._modes()
        s = 0.5
        start, end = df.evaluate_family(family, 0.0), df.evaluate_family(family, s)
        hermite = np.outer(vand[:, 1], np.ones(self.NODES))
        gains = [
            modal_propagator(u, start, [end])[0, 2, 3] / u[2, 3]
            for u in (hermite, np.outer(vand[:, 0], np.cos(theta)), np.outer(vand[:, 0], np.sin(theta)))
        ]
        # lambda = 1/(2 u(t)) on the line, e^{-t}/4 on the circle
        assert gains[0] == pytest.approx(math.exp(s / 2.0 - 0.5 * (s - math.log(1.0 + math.exp(s)) + LOG2)), rel=1e-13)
        assert gains[1] == pytest.approx(math.exp(s / 2.0 - (1.0 - math.exp(-s)) / 4.0), rel=1e-13)
        assert gains[2] == pytest.approx(gains[1], rel=1e-13)
        assert abs(gains[0] - gains[1]) > 1e-3

    def test_constants_gain_exactly_e_to_the_half_lag(self):
        family = _gauss_circle()
        start = df.evaluate_family(family, 0.0)
        lags = (0.0, 0.25, 2.0)
        u0 = np.full((self.ORDER, self.NODES), -1.75)
        stack = modal_propagator(u0, start, [df.evaluate_family(family, s) for s in lags])
        for s, got in zip(lags, stack):
            np.testing.assert_array_equal(got, math.exp(s / 2.0) * u0)

    def test_composition(self):
        family = _gauss_circle()
        u0 = np.random.default_rng(3).standard_normal((2, self.ORDER, self.NODES))
        t0, t1, t2 = (df.evaluate_family(family, t) for t in (0.0, 0.15, 0.4))
        direct = modal_propagator(u0, t0, [t2])[0]
        composed = modal_propagator(modal_propagator(u0, t0, [t1])[0], t1, [t2])[0]
        assert float(np.max(np.abs(composed - direct))) <= 1e-13 * float(np.max(np.abs(direct)))

    def test_batch_is_fieldwise_and_zero_lag_is_the_identity(self):
        family = df.scaled_gaussian_family(0.5, 3)  # a shrinking n = 3 Gaussian
        u0 = np.random.default_rng(4).standard_normal((2, 5, 5, 5))
        start, end = df.evaluate_family(family, 0.0), df.evaluate_family(family, 0.3)
        (batch,) = modal_propagator(u0, start, [end])
        for field, out in zip(u0, batch):
            np.testing.assert_allclose(modal_propagator(field, start, [end])[0], out, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(modal_propagator(u0, start, [start])[0], u0)

    def test_rejects_a_circle_that_is_not_round(self):
        wavy = [ContinuumState(t=t, factors=(CircleModel(a=lambda th: 2.0 + np.cos(th)),)) for t in (0.0, 1.0)]
        with pytest.raises(UsageError):
            modal_propagator(np.ones(8), wavy[0], wavy[1:])

    @pytest.mark.parametrize("name", ["_flow_rhs", "_rk4", "_array_steps", "_float_steps", "_list_steps"])
    def test_analytic_runs_never_step(self, name, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{name} reached")

        req = RunRequest(family=_gauss_circle(), horizon=0.05, dt=1e-3, cadence=10, k=4, backend="analytic")
        monkeypatch.setattr(driftflow.flow, name, unreachable)
        traj = df.run_flow(req)
        assert all(cols.shape[:2] == (len(traj.times), 4) for cols in traj.scalar_factors)

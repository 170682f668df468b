import math

import numpy as np
import pytest

import driftflow as df
from driftflow.errors import HorizonError, OracleError, UsageError
from driftflow.oracles import OracleReport
from driftflow.spectral import QuadraticForms

LOG2 = math.log(2.0)


class TestDenseSpectrum:
    def test_round_circle_fourier_ladder(self):
        forms = df.assemble_forms(df.weighted_circle(64))
        vals = df.dense_spectrum(forms)
        expected = [0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0]
        np.testing.assert_allclose(vals[:7], expected, atol=1e-10)
        assert len(vals) == 64

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

    def test_bad_arguments(self):
        with pytest.raises(UsageError):
            df.integrate_equality_ode(0.3, 1.0, dt=-1e-3)
        with pytest.raises(UsageError):
            df.integrate_equality_ode(0.3, -1.0)


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


class TestFiniteDiff:
    def test_linear_exact(self):
        series = 3.0 * np.arange(10.0)
        np.testing.assert_allclose(df.finite_diff_time_derivative(series, 1.0), 3.0, atol=1e-13)

    def test_exponential_accuracy(self):
        dt = 1e-3
        t = np.arange(0.0, 0.05, dt)
        d = df.finite_diff_time_derivative(np.exp(t), dt)
        assert float(np.max(np.abs(d / np.exp(t) - 1.0))) < 1e-6

    def test_constant(self):
        np.testing.assert_allclose(df.finite_diff_time_derivative(np.ones(5), 0.1), 0.0, atol=1e-15)

    def test_too_short(self):
        with pytest.raises(UsageError):
            df.finite_diff_time_derivative(np.ones(2), 0.1)


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

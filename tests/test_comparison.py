import math

import numpy as np
import pytest

import driftflow as df
from driftflow.errors import DomainError, HorizonError, OutOfRegimeError

LOG2 = math.log(2.0)


class TestEigenvalueBound:
    def test_half_is_fixed(self):
        for s in (0.0, 0.1, 1.0, 5.0, 50.0):
            assert df.eigenvalue_bound(0.5, s) == 0.5

    def test_zero_lag_identity(self):
        for lam0 in (0.01, 0.3, 0.5, 0.9, 4.0):
            assert df.eigenvalue_bound(lam0, 0.0) == pytest.approx(lam0, rel=1e-15)

    def test_below_half_value(self):
        # frozen from RK4 integration of the equality case F' = (2F-1) F
        assert df.eigenvalue_bound(0.25, LOG2) == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert df.integrate_equality_ode(0.25, LOG2, dt=1e-4) == pytest.approx(1.0 / 6.0, rel=1e-10)

    def test_above_half_value(self):
        expected = 1.0 / (2.0 - math.exp(0.5))
        assert df.eigenvalue_bound(1.0, 0.5) == pytest.approx(expected, rel=1e-14)
        assert df.integrate_equality_ode(1.0, 0.5, dt=2e-5) == pytest.approx(expected, rel=1e-10)

    def test_horizon_enforced(self):
        with pytest.raises(HorizonError) as err:
            df.eigenvalue_bound(1.0, LOG2)
        assert err.value.horizon == pytest.approx(LOG2, rel=1e-15)
        with pytest.raises(HorizonError):
            df.eigenvalue_bound(1.0, 10.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            df.eigenvalue_bound(0.0, 1.0)
        with pytest.raises(DomainError):
            df.eigenvalue_bound(0.3, -0.1)

    def test_monotone_in_lambda0(self):
        # keep s inside the validity interval of the largest lambda0 (1.2
        # blows up at log(2.4/1.4) ~ 0.539)
        for s in (0.05, 0.3, 0.5):
            values = [df.eigenvalue_bound(l, s) for l in (0.05, 0.15, 0.35, 0.5, 0.7, 1.2)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_semigroup_property(self):
        for lam0 in (0.07, 0.3, 0.5, 0.9, 1.6):
            total = 0.5 * min(df.blowup_horizon(lam0), 4.0)
            for frac in (0.2, 0.5, 0.8):
                s1 = frac * total
                chained = df.eigenvalue_bound(df.eigenvalue_bound(lam0, s1), total - s1)
                direct = df.eigenvalue_bound(lam0, total)
                assert abs(chained - direct) <= 1e-12

    def test_strict_decrease_below_half(self):
        values = [df.eigenvalue_bound(0.3, s) for s in (0.0, 0.5, 1.0, 3.0)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestBlowupHorizon:
    def test_values(self):
        assert df.blowup_horizon(1.0) == pytest.approx(LOG2, abs=1e-15)
        assert df.blowup_horizon(0.5) == math.inf
        assert df.blowup_horizon(0.25) == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            df.blowup_horizon(0.0)


class TestLogisticEnvelope:
    def test_trapped_at_one(self):
        for s in (0.0, 0.3, 2.0, 20.0):
            assert df.logistic_envelope(1.0, s) == 1.0

    def test_zero_lag(self):
        for h0 in (0.0, 0.4, 1.0):
            assert df.logistic_envelope(h0, 0.0) == pytest.approx(h0)

    def test_value(self):
        assert df.logistic_envelope(0.5, LOG2) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_strictly_below_start(self):
        for h0 in (0.2, 0.8, 0.99):
            assert df.logistic_envelope(h0, 1e-6) < h0

    def test_regime_errors(self):
        with pytest.raises(OutOfRegimeError):
            df.logistic_envelope(1.2, 0.1)
        with pytest.raises(DomainError):
            df.logistic_envelope(-0.1, 0.1)


def _forward_excess(series, rhs, dt):
    """Largest excess of the forward difference quotients of ``series`` over
    ``rhs`` at the left end of each step."""
    return float(np.max(np.diff(series) / dt - rhs(series[:-1])))


class TestForwardDiffCheck:
    def test_sharp_series_is_equality_case(self):
        dt = 1e-5
        lam = np.array([df.eigenvalue_bound(0.25, s) for s in np.arange(0.0, 0.5, dt)])
        assert _forward_excess(lam, lambda v: (2.0 * v - 1.0) * v, dt) < 1e-6

    def test_chain_rule_consistency(self):
        # the envelope's quotients satisfy h' <= h(h-1), and those of the
        # transformed series log(h/(1-h)) the transformed bound -1
        dt = 1e-4
        ts = np.arange(0.0, 2.0, dt)
        for h0 in (0.3, 0.7, 0.95):
            h = np.array([df.logistic_envelope(h0, t) for t in ts])
            assert _forward_excess(h, lambda v: v * (v - 1.0), dt) <= 1e-5
            assert _forward_excess(np.log(h / (1.0 - h)), lambda v: -1.0, dt) <= 1e-5


class TestEnvelopeDominatesDampedSolutions:
    def test_seeded_rk4_solutions_stay_below(self):
        rng = np.random.default_rng(5)
        dt = 1e-3
        for _ in range(25):
            h0 = rng.random()
            c0, c1 = rng.random(), rng.random()
            omega, phase = 1.0 + 4.0 * rng.random(), 2.0 * math.pi * rng.random()
            r = lambda t: c0 + 0.5 * c1 * (1.0 + math.sin(omega * t + phase))
            h, t = h0, 0.0
            for step in range(2000):
                k1 = h * (h - 1.0) - r(t)
                y2 = h + 0.5 * dt * k1
                k2 = y2 * (y2 - 1.0) - r(t + 0.5 * dt)
                y3 = h + 0.5 * dt * k2
                k3 = y3 * (y3 - 1.0) - r(t + 0.5 * dt)
                y4 = h + dt * k3
                k4 = y4 * (y4 - 1.0) - r(t + dt)
                h += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                t += dt
                if h < 0.0:
                    break
                if step % 20 == 19:
                    assert h <= df.logistic_envelope(h0, t) + 1e-9
